//! The hypercall interface: the narrow gate between VMs and the hypervisor.
//!
//! Xen exposes roughly forty hypercalls (§4.1); this module models the
//! subset that carries the platform's security weight, split into the
//! *unprivileged* calls every guest may issue (event channels, grant table
//! manipulation of one's own entries, console writes, scheduling yields)
//! and the *privileged* calls that stock Xen gates on "caller == Dom0" and
//! Xoar gates on per-domain whitelists ([`crate::privilege::PrivilegeSet`]).
//!
//! [`HypercallId`] enumerates the calls for whitelisting purposes;
//! [`Hypercall`] carries the full argument payloads and is dispatched by
//! [`crate::hypervisor::Hypervisor::hypercall`].

use crate::domain::DomId;
use crate::error::{HvError, HvResult};
use crate::event::VirqKind;
use crate::grant::{GrantAccess, GrantCopyOp, GrantOpStatus, GrantRef};
use crate::memory::{Mfn, PageRef, Pfn};
use crate::privilege::{IoPortRange, MmioRange, PciAddress};

/// Identifier of a hypercall class, used for privilege whitelisting.
///
/// Mirrors Xen's `__HYPERVISOR_*` numbers plus the domctl/sysctl
/// sub-operations that matter for disaggregation. The paper notes that a
/// single hypercall may carry "dozens of sub-operations"; we surface the
/// security-relevant sub-operations as distinct IDs so least privilege can
/// be expressed at the granularity Xoar requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum HypercallId {
    // -- Unprivileged: available to every guest --
    /// Send an event-channel notification.
    EvtchnSend,
    /// Allocate an unbound event-channel port.
    EvtchnAllocUnbound,
    /// Bind to a remote domain's unbound port.
    EvtchnBindInterdomain,
    /// Bind a virtual IRQ.
    EvtchnBindVirq,
    /// Close an event-channel port.
    EvtchnClose,
    /// Set up or update one's own grant-table entries.
    GnttabSetup,
    /// Yield / block the current VCPU.
    SchedOp,
    /// Write to the domain's virtual console ring.
    ConsoleIo,
    /// Query wall-clock / version info.
    XenVersion,
    /// Update one's own page tables (guest PT management).
    MmuUpdateSelf,
    /// Take a snapshot of the calling domain (Xoar: `vm_snapshot()`).
    VmSnapshot,

    // -- Privileged: whitelisted per shard in Xoar, Dom0-only in Xen --
    /// Create a new (empty) domain.
    DomctlCreateDomain,
    /// Destroy a domain.
    DomctlDestroyDomain,
    /// Pause a domain.
    DomctlPauseDomain,
    /// Unpause a domain.
    DomctlUnpauseDomain,
    /// Set a domain's memory reservation.
    DomctlSetMaxMem,
    /// Set the number of VCPUs of a domain.
    DomctlSetVcpus,
    /// Mark a domain as a shard / set its role.
    DomctlSetRole,
    /// Assign a PCI device to a domain.
    DomctlAssignDevice,
    /// Grant another domain delegated management of a domain.
    DomctlDelegate,
    /// Set the privileged-for flag (QEMU stub domains, §5.6).
    DomctlSetPrivilegedFor,
    /// Set I/O-port access for a domain (§5.8 re-mapping of Dom0 rights).
    DomctlIoPortPermission,
    /// Set MMIO access for a domain.
    DomctlMmioPermission,
    /// Route a physical IRQ to a domain.
    DomctlIrqPermission,
    /// Whitelist a privileged hypercall for a domain.
    DomctlPermitHypercall,
    /// Map another domain's memory (foreign mapping).
    MmuMapForeign,
    /// Write into another domain's memory (builder: page tables,
    /// start-info page).
    MmuWriteForeign,
    /// Populate a domain's physical memory at build time.
    MemoryPopulate,
    /// Map a grant reference from another domain.
    GnttabMapGrantRef,
    /// Create a grant entry *on behalf of* another domain (Builder-only:
    /// used to deprivilege XenStore and the console, §5.6).
    GnttabForeignSetup,
    /// Roll a snapshotted domain back to its image.
    VmRollback,
    /// Read platform/host state (sysctl: physinfo etc.).
    SysctlPhysinfo,
    /// Reboot or power off the host.
    PlatformReboot,

    // -- Unprivileged, appended after the initial ABI to keep existing
    //    whitelist bit positions stable --
    /// Batch of sub-calls executed with one boundary crossing
    /// (`__HYPERVISOR_multicall`). Each sub-call is still screened
    /// against the caller's whitelist individually.
    Multicall,

    // -- Privileged, appended after the initial ABI to keep existing
    //    whitelist bit positions stable --
    /// Stamp a new domain out of a sealed template (snapshot-fork
    /// cloning): the clone aliases every template frame copy-on-write,
    /// so creation copies no pages and reserves no frames up front.
    DomctlCloneDomain,
    /// Log-dirty control over a domain (`XEN_DOMCTL_shadow_op`): the
    /// page-tracking cursors migration and HA replicate through.
    DomctlShadowOp,
    /// Host-wide content-based page deduplication.
    SysctlDedup,
}

xoar_codec::impl_json_enum!(HypercallId {
    EvtchnSend,
    EvtchnAllocUnbound,
    EvtchnBindInterdomain,
    EvtchnBindVirq,
    EvtchnClose,
    GnttabSetup,
    SchedOp,
    ConsoleIo,
    XenVersion,
    MmuUpdateSelf,
    VmSnapshot,
    DomctlCreateDomain,
    DomctlDestroyDomain,
    DomctlPauseDomain,
    DomctlUnpauseDomain,
    DomctlSetMaxMem,
    DomctlSetVcpus,
    DomctlSetRole,
    DomctlAssignDevice,
    DomctlDelegate,
    DomctlSetPrivilegedFor,
    DomctlIoPortPermission,
    DomctlMmioPermission,
    DomctlIrqPermission,
    DomctlPermitHypercall,
    MmuMapForeign,
    MmuWriteForeign,
    MemoryPopulate,
    GnttabMapGrantRef,
    GnttabForeignSetup,
    VmRollback,
    SysctlPhysinfo,
    PlatformReboot,
    Multicall,
    DomctlCloneDomain,
    DomctlShadowOp,
    SysctlDedup,
});

/// Number of defined hypercall IDs — the width of the whitelist bitset.
pub const HYPERCALL_COUNT: usize = 37;

impl HypercallId {
    /// Every ID in declaration (= `Ord`) order. The whitelist bitset
    /// iterates this array, which keeps its JSON encoding identical to
    /// the ordered-set encoding.
    pub const ALL: [HypercallId; HYPERCALL_COUNT] = [
        HypercallId::EvtchnSend,
        HypercallId::EvtchnAllocUnbound,
        HypercallId::EvtchnBindInterdomain,
        HypercallId::EvtchnBindVirq,
        HypercallId::EvtchnClose,
        HypercallId::GnttabSetup,
        HypercallId::SchedOp,
        HypercallId::ConsoleIo,
        HypercallId::XenVersion,
        HypercallId::MmuUpdateSelf,
        HypercallId::VmSnapshot,
        HypercallId::DomctlCreateDomain,
        HypercallId::DomctlDestroyDomain,
        HypercallId::DomctlPauseDomain,
        HypercallId::DomctlUnpauseDomain,
        HypercallId::DomctlSetMaxMem,
        HypercallId::DomctlSetVcpus,
        HypercallId::DomctlSetRole,
        HypercallId::DomctlAssignDevice,
        HypercallId::DomctlDelegate,
        HypercallId::DomctlSetPrivilegedFor,
        HypercallId::DomctlIoPortPermission,
        HypercallId::DomctlMmioPermission,
        HypercallId::DomctlIrqPermission,
        HypercallId::DomctlPermitHypercall,
        HypercallId::MmuMapForeign,
        HypercallId::MmuWriteForeign,
        HypercallId::MemoryPopulate,
        HypercallId::GnttabMapGrantRef,
        HypercallId::GnttabForeignSetup,
        HypercallId::VmRollback,
        HypercallId::SysctlPhysinfo,
        HypercallId::PlatformReboot,
        HypercallId::Multicall,
        HypercallId::DomctlCloneDomain,
        HypercallId::DomctlShadowOp,
        HypercallId::SysctlDedup,
    ];

    /// Dense index of this ID (declaration order) — the bit position in
    /// the whitelist bitset.
    pub fn index(self) -> u32 {
        self as u32
    }

    /// Whether the call requires whitelisting.
    pub fn is_privileged(self) -> bool {
        use HypercallId::*;
        !matches!(
            self,
            EvtchnSend
                | EvtchnAllocUnbound
                | EvtchnBindInterdomain
                | EvtchnBindVirq
                | EvtchnClose
                | GnttabSetup
                | SchedOp
                | ConsoleIo
                | XenVersion
                | MmuUpdateSelf
                | VmSnapshot
                | GnttabMapGrantRef
                | Multicall
        )
    }

    /// All privileged hypercall IDs (the Dom0 whitelist).
    pub fn all_privileged() -> Vec<HypercallId> {
        use HypercallId::*;
        vec![
            DomctlCreateDomain,
            DomctlDestroyDomain,
            DomctlPauseDomain,
            DomctlUnpauseDomain,
            DomctlSetMaxMem,
            DomctlSetVcpus,
            DomctlSetRole,
            DomctlAssignDevice,
            DomctlDelegate,
            DomctlSetPrivilegedFor,
            DomctlIoPortPermission,
            DomctlMmioPermission,
            DomctlIrqPermission,
            DomctlPermitHypercall,
            MmuMapForeign,
            MmuWriteForeign,
            MemoryPopulate,
            GnttabForeignSetup,
            VmRollback,
            SysctlPhysinfo,
            PlatformReboot,
            DomctlCloneDomain,
            DomctlShadowOp,
            SysctlDedup,
        ]
    }

    /// All unprivileged hypercall IDs.
    pub fn all_unprivileged() -> Vec<HypercallId> {
        use HypercallId::*;
        vec![
            EvtchnSend,
            EvtchnAllocUnbound,
            EvtchnBindInterdomain,
            EvtchnBindVirq,
            EvtchnClose,
            GnttabSetup,
            GnttabMapGrantRef,
            SchedOp,
            ConsoleIo,
            XenVersion,
            MmuUpdateSelf,
            VmSnapshot,
            Multicall,
        ]
    }

    /// A coarse weight for how dangerous holding this call is, used by the
    /// security analysis to compare attack surfaces.
    pub fn risk_weight(self) -> u32 {
        use HypercallId::*;
        match self {
            MmuMapForeign | MmuWriteForeign => 10,
            DomctlCreateDomain | DomctlDestroyDomain | DomctlCloneDomain | MemoryPopulate
            | GnttabForeignSetup => 8,
            DomctlPermitHypercall | DomctlDelegate | DomctlSetPrivilegedFor | DomctlSetRole => 7,
            DomctlAssignDevice
            | DomctlIrqPermission
            | DomctlIoPortPermission
            | DomctlMmioPermission => 6,
            PlatformReboot => 6,
            DomctlPauseDomain | DomctlUnpauseDomain | DomctlSetMaxMem | DomctlSetVcpus
            | VmRollback | DomctlShadowOp | SysctlDedup => 4,
            GnttabMapGrantRef => 3,
            SysctlPhysinfo => 1,
            _ => 0,
        }
    }

    /// Short symbolic name (for audit-log records).
    pub fn name(self) -> &'static str {
        use HypercallId::*;
        match self {
            EvtchnSend => "evtchn.send",
            EvtchnAllocUnbound => "evtchn.alloc_unbound",
            EvtchnBindInterdomain => "evtchn.bind_interdomain",
            EvtchnBindVirq => "evtchn.bind_virq",
            EvtchnClose => "evtchn.close",
            GnttabSetup => "gnttab.setup",
            SchedOp => "sched.op",
            ConsoleIo => "console.io",
            XenVersion => "xen.version",
            MmuUpdateSelf => "mmu.update_self",
            VmSnapshot => "vm.snapshot",
            DomctlCreateDomain => "domctl.create",
            DomctlDestroyDomain => "domctl.destroy",
            DomctlPauseDomain => "domctl.pause",
            DomctlUnpauseDomain => "domctl.unpause",
            DomctlSetMaxMem => "domctl.set_max_mem",
            DomctlSetVcpus => "domctl.set_vcpus",
            DomctlSetRole => "domctl.set_role",
            DomctlAssignDevice => "domctl.assign_device",
            DomctlDelegate => "domctl.delegate",
            DomctlSetPrivilegedFor => "domctl.set_privileged_for",
            DomctlIoPortPermission => "domctl.ioport_permission",
            DomctlMmioPermission => "domctl.mmio_permission",
            DomctlIrqPermission => "domctl.irq_permission",
            DomctlPermitHypercall => "domctl.permit_hypercall",
            MmuMapForeign => "mmu.map_foreign",
            MmuWriteForeign => "mmu.write_foreign",
            MemoryPopulate => "memory.populate",
            GnttabMapGrantRef => "gnttab.map_grant_ref",
            GnttabForeignSetup => "gnttab.foreign_setup",
            VmRollback => "vm.rollback",
            SysctlPhysinfo => "sysctl.physinfo",
            PlatformReboot => "platform.reboot",
            Multicall => "multicall",
            DomctlCloneDomain => "domctl.clone",
            DomctlShadowOp => "domctl.shadow_op",
            SysctlDedup => "sysctl.dedup",
        }
    }
}

/// A fully-populated hypercall request.
///
/// Dispatched via [`crate::hypervisor::Hypervisor::hypercall`], which first
/// checks the caller's whitelist (`HypercallId`-level) and then performs
/// per-argument access control (e.g. "is the target delegated to the
/// caller?").
#[derive(Debug, Clone)]
pub enum Hypercall {
    /// Allocate an unbound event channel for `remote` to bind to.
    EvtchnAllocUnbound {
        /// Domain allowed to bind the other end.
        remote: DomId,
    },
    /// Bind to an unbound port previously allocated by `remote`.
    EvtchnBindInterdomain {
        /// Domain owning the unbound port.
        remote: DomId,
        /// Port number on the remote side.
        remote_port: u32,
    },
    /// Bind a virtual IRQ to a local port.
    EvtchnBindVirq {
        /// Which VIRQ.
        virq: VirqKind,
    },
    /// Signal a local port.
    EvtchnSend {
        /// Local port to signal.
        port: u32,
    },
    /// Close a local port.
    EvtchnClose {
        /// Local port to close.
        port: u32,
    },
    /// Install a grant entry in the caller's grant table.
    GnttabGrantAccess {
        /// Grantee domain.
        grantee: DomId,
        /// Caller-local frame to share.
        pfn: Pfn,
        /// Read-only or read-write.
        access: GrantAccess,
    },
    /// Revoke one of the caller's grant entries.
    GnttabEndAccess {
        /// Reference to revoke.
        gref: GrantRef,
    },
    /// Offer ownership of one of the caller's pages to another domain
    /// (page flipping). Carried by the unprivileged `GnttabSetup` class.
    GnttabGrantTransfer {
        /// Receiving domain.
        grantee: DomId,
        /// Caller-local frame to give away.
        pfn: Pfn,
    },
    /// Accept a transfer grant, taking ownership of the page.
    GnttabAcceptTransfer {
        /// Offering domain.
        granter: DomId,
        /// The transfer grant reference.
        gref: GrantRef,
    },
    /// Map a foreign grant into the caller.
    GnttabMapGrantRef {
        /// Granting domain.
        granter: DomId,
        /// Grant reference communicated out of band (XenStore).
        gref: GrantRef,
    },
    /// Unmap a previously mapped grant.
    GnttabUnmapGrantRef {
        /// Granting domain.
        granter: DomId,
        /// Grant reference.
        gref: GrantRef,
    },
    /// Map an array of grants from one granter with a single table
    /// lookup (GNTTABOP batch). Per-entry status; no partial abort.
    ///
    /// The op array is carried as a shared slice handle — the model's
    /// analogue of Xen's guest-handle *pointer* to an array in guest
    /// memory: re-issuing a batch clones a refcount, not the array.
    GnttabMapBatch {
        /// Granting domain (one table lookup per batch).
        granter: DomId,
        /// Grant references to map, in order.
        refs: std::rc::Rc<[GrantRef]>,
    },
    /// Unmap an array of grants from one granter.
    GnttabUnmapBatch {
        /// Granting domain.
        granter: DomId,
        /// Grant references to unmap, in order.
        refs: std::rc::Rc<[GrantRef]>,
    },
    /// Hypervisor-mediated page copies through grants (GNTTABOP_copy):
    /// moves data without leaving a mapping behind.
    GnttabCopyBatch {
        /// Granting domain.
        granter: DomId,
        /// Copy descriptors, in order.
        ops: std::rc::Rc<[GrantCopyOp]>,
    },
    /// Builder-only: install a grant entry in *another* domain's table so
    /// deprivileged services (XenStore, console) can be reached without
    /// foreign mapping (§5.6).
    GnttabForeignSetup {
        /// Domain whose table is edited.
        owner: DomId,
        /// Grantee.
        grantee: DomId,
        /// Owner-local frame.
        pfn: Pfn,
        /// Access mode.
        access: GrantAccess,
    },
    /// Create a new domain shell.
    DomctlCreateDomain {
        /// Name for the new domain.
        name: String,
        /// Memory reservation in MiB.
        memory_mib: u64,
        /// Number of VCPUs.
        vcpus: u32,
    },
    /// Destroy a domain.
    DomctlDestroyDomain {
        /// Target.
        target: DomId,
    },
    /// Pause a domain.
    DomctlPauseDomain {
        /// Target.
        target: DomId,
    },
    /// Unpause (or first-run) a domain.
    DomctlUnpauseDomain {
        /// Target.
        target: DomId,
    },
    /// Adjust a domain's memory reservation.
    DomctlSetMaxMem {
        /// Target.
        target: DomId,
        /// New reservation in MiB.
        memory_mib: u64,
    },
    /// Set VCPU count.
    DomctlSetVcpus {
        /// Target.
        target: DomId,
        /// New VCPU count.
        vcpus: u32,
    },
    /// Pass a PCI device through to `target`.
    DomctlAssignDevice {
        /// Target.
        target: DomId,
        /// Device address.
        device: PciAddress,
    },
    /// Delegate management of `target` to `manager`.
    DomctlDelegate {
        /// Shard or guest whose management is delegated.
        target: DomId,
        /// The domain receiving management rights.
        manager: DomId,
    },
    /// Set a domain's role (promote a freshly built VM to a shard).
    DomctlSetRole {
        /// Target.
        target: DomId,
        /// Whether the domain becomes a shard (`true`) or a plain guest.
        shard: bool,
    },
    /// Mark `subject` as privileged for `object` (QEMU stub model).
    DomctlSetPrivilegedFor {
        /// The domain receiving the limited mapping privilege.
        subject: DomId,
        /// The domain whose memory may be mapped.
        object: DomId,
    },
    /// Grant `target` access to an I/O port range.
    DomctlIoPortPermission {
        /// Target.
        target: DomId,
        /// Range granted.
        range: IoPortRange,
    },
    /// Grant `target` access to an MMIO region.
    DomctlMmioPermission {
        /// Target.
        target: DomId,
        /// Region granted.
        range: MmioRange,
    },
    /// Route IRQ `irq` to `target`.
    DomctlIrqPermission {
        /// Target.
        target: DomId,
        /// IRQ line.
        irq: u32,
    },
    /// Whitelist `id` for `target`.
    DomctlPermitHypercall {
        /// Target.
        target: DomId,
        /// Call to whitelist.
        id: HypercallId,
    },
    /// Populate `frames` frames of physical memory into a building domain.
    MemoryPopulate {
        /// Target (must be `Building`).
        target: DomId,
        /// Number of frames to allocate.
        frames: u64,
    },
    /// Map one frame of a foreign domain (requires `map_foreign_any` or a
    /// `privileged_for` edge).
    MmuMapForeign {
        /// Domain whose memory is mapped.
        target: DomId,
        /// Target-local frame.
        pfn: Pfn,
    },
    /// Write a page body into a foreign domain's frame (builder path,
    /// page replication).
    MmuWriteForeign {
        /// Domain whose memory is written.
        target: DomId,
        /// Target-local frame.
        pfn: Pfn,
        /// Payload (at most one page), installed as a shared handle.
        data: PageRef,
    },
    /// Snapshot the calling domain (returns nothing; image kept hypervisor-side).
    VmSnapshot,
    /// Roll `target` back to its snapshot image.
    VmRollback {
        /// Target (must have a snapshot).
        target: DomId,
    },
    /// Query host physical info.
    SysctlPhysinfo,
    /// Merge identical page bodies across the host; returns the frames
    /// freed.
    SysctlDedup,
    /// Drive `target`'s log-dirty cursors.
    DomctlShadowOp {
        /// Domain whose writes are tracked.
        target: DomId,
        /// What to do.
        op: ShadowOp,
    },
    /// Yield the CPU.
    SchedYield,
    /// Write a line to the caller's console.
    ConsoleWrite {
        /// Bytes to emit.
        data: Vec<u8>,
    },
    /// Stamp a new domain out of `template` (snapshot-fork cloning).
    /// The template must be sealed (or is sealed on first clone); the
    /// clone starts `Running` with an empty p2m that falls through to
    /// the template's frames copy-on-write.
    DomctlCloneDomain {
        /// Sealed template domain to fork from.
        template: DomId,
        /// Name for the clone.
        name: String,
    },
    /// A vector of sub-calls executed back-to-back with a single
    /// boundary crossing. The caller lookup and liveness screen happen
    /// once; each sub-call is then checked against the caller's
    /// whitelist and executed, yielding per-entry results (Xen
    /// semantics: a failed entry never aborts the rest). Nested
    /// multicalls are rejected.
    Multicall {
        /// Sub-calls, executed in order.
        calls: Vec<Hypercall>,
    },
}

impl Hypercall {
    /// The whitelist class of this call.
    pub fn id(&self) -> HypercallId {
        use Hypercall::*;
        match self {
            EvtchnAllocUnbound { .. } => HypercallId::EvtchnAllocUnbound,
            EvtchnBindInterdomain { .. } => HypercallId::EvtchnBindInterdomain,
            EvtchnBindVirq { .. } => HypercallId::EvtchnBindVirq,
            EvtchnSend { .. } => HypercallId::EvtchnSend,
            EvtchnClose { .. } => HypercallId::EvtchnClose,
            GnttabGrantAccess { .. } | GnttabEndAccess { .. } | GnttabGrantTransfer { .. } => {
                HypercallId::GnttabSetup
            }
            GnttabAcceptTransfer { .. } => HypercallId::GnttabMapGrantRef,
            GnttabMapGrantRef { .. } | GnttabUnmapGrantRef { .. } => HypercallId::GnttabMapGrantRef,
            GnttabMapBatch { .. } | GnttabUnmapBatch { .. } | GnttabCopyBatch { .. } => {
                HypercallId::GnttabMapGrantRef
            }
            GnttabForeignSetup { .. } => HypercallId::GnttabForeignSetup,
            DomctlCreateDomain { .. } => HypercallId::DomctlCreateDomain,
            DomctlCloneDomain { .. } => HypercallId::DomctlCloneDomain,
            DomctlDestroyDomain { .. } => HypercallId::DomctlDestroyDomain,
            DomctlPauseDomain { .. } => HypercallId::DomctlPauseDomain,
            DomctlUnpauseDomain { .. } => HypercallId::DomctlUnpauseDomain,
            DomctlSetMaxMem { .. } => HypercallId::DomctlSetMaxMem,
            DomctlSetVcpus { .. } => HypercallId::DomctlSetVcpus,
            DomctlAssignDevice { .. } => HypercallId::DomctlAssignDevice,
            DomctlDelegate { .. } => HypercallId::DomctlDelegate,
            DomctlSetRole { .. } => HypercallId::DomctlSetRole,
            DomctlSetPrivilegedFor { .. } => HypercallId::DomctlSetPrivilegedFor,
            DomctlIoPortPermission { .. } => HypercallId::DomctlIoPortPermission,
            DomctlMmioPermission { .. } => HypercallId::DomctlMmioPermission,
            DomctlIrqPermission { .. } => HypercallId::DomctlIrqPermission,
            DomctlPermitHypercall { .. } => HypercallId::DomctlPermitHypercall,
            MemoryPopulate { .. } => HypercallId::MemoryPopulate,
            MmuMapForeign { .. } => HypercallId::MmuMapForeign,
            MmuWriteForeign { .. } => HypercallId::MmuWriteForeign,
            VmSnapshot => HypercallId::VmSnapshot,
            VmRollback { .. } => HypercallId::VmRollback,
            SysctlPhysinfo => HypercallId::SysctlPhysinfo,
            SysctlDedup => HypercallId::SysctlDedup,
            DomctlShadowOp { .. } => HypercallId::DomctlShadowOp,
            SchedYield => HypercallId::SchedOp,
            ConsoleWrite { .. } => HypercallId::ConsoleIo,
            Multicall { .. } => HypercallId::Multicall,
        }
    }
}

/// A log-dirty sub-operation of [`Hypercall::DomctlShadowOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowOp {
    /// Open a cursor; returns [`HypercallRet::Cursor`].
    Enable,
    /// Drain a cursor; returns [`HypercallRet::Pfns`], the PFNs written
    /// since it was opened or last drained.
    Clean(u64),
    /// Close a cursor.
    Off(u64),
}

/// The result value of a successful hypercall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypercallRet {
    /// No payload.
    Ok,
    /// A newly created domain ID.
    DomId(DomId),
    /// An event-channel port number.
    Port(u32),
    /// A grant reference.
    GrantRef(GrantRef),
    /// A machine frame number (map operations).
    Mfn(Mfn),
    /// A pseudo-physical frame number (transfer acceptance).
    Pfn(Pfn),
    /// A count (e.g. pages restored by a rollback).
    Count(u64),
    /// A log-dirty cursor id.
    Cursor(u64),
    /// Pseudo-physical frame numbers (a drained log-dirty cursor).
    Pfns(Vec<Pfn>),
    /// Host physical info: (total frames, free frames, nr cpus).
    Physinfo {
        /// Total machine frames.
        total_frames: u64,
        /// Free machine frames.
        free_frames: u64,
        /// Number of physical CPUs.
        cpus: u32,
    },
    /// Per-entry results of a [`Hypercall::Multicall`], in sub-call
    /// order. Entries fail independently (no partial abort).
    Multi(Vec<HvResult<HypercallRet>>),
    /// Compact per-entry statuses of a batched grant operation
    /// (GNTTABOP-style `GNTST_*` array): `Copy`, no heap per entry.
    GrantBatch(Vec<GrantOpStatus>),
}

impl HypercallRet {
    /// The error an extractor returns for the wrong variant.
    fn mismatch<T>(self, want: &str) -> HvResult<T> {
        Err(HvError::InvalidArgument(format!(
            "expected {want}, got {self:?}"
        )))
    }

    /// Extracts a port number, or [`HvError::InvalidArgument`] if the
    /// variant does not match (a caller-side typing mistake).
    pub fn port(self) -> HvResult<u32> {
        match self {
            HypercallRet::Port(p) => Ok(p),
            other => other.mismatch("Port"),
        }
    }

    /// Extracts a grant reference.
    pub fn grant_ref(self) -> HvResult<GrantRef> {
        match self {
            HypercallRet::GrantRef(g) => Ok(g),
            other => other.mismatch("GrantRef"),
        }
    }

    /// Extracts a pseudo-physical frame number.
    pub fn pfn(self) -> HvResult<Pfn> {
        match self {
            HypercallRet::Pfn(p) => Ok(p),
            other => other.mismatch("Pfn"),
        }
    }

    /// Extracts a domain ID.
    pub fn dom_id(self) -> HvResult<DomId> {
        match self {
            HypercallRet::DomId(d) => Ok(d),
            other => other.mismatch("DomId"),
        }
    }

    /// Extracts a log-dirty cursor id.
    pub fn cursor(self) -> HvResult<u64> {
        match self {
            HypercallRet::Cursor(c) => Ok(c),
            other => other.mismatch("Cursor"),
        }
    }

    /// Extracts the PFNs of a drained log-dirty cursor.
    pub fn pfns(self) -> HvResult<Vec<Pfn>> {
        match self {
            HypercallRet::Pfns(v) => Ok(v),
            other => other.mismatch("Pfns"),
        }
    }

    /// Extracts the per-entry results of a multicall.
    pub fn multi(self) -> HvResult<Vec<HvResult<HypercallRet>>> {
        match self {
            HypercallRet::Multi(v) => Ok(v),
            other => other.mismatch("Multi"),
        }
    }

    /// Extracts the per-entry statuses of a batched grant operation.
    pub fn grant_batch(self) -> HvResult<Vec<GrantOpStatus>> {
        match self {
            HypercallRet::GrantBatch(v) => Ok(v),
            other => other.mismatch("GrantBatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privileged_and_unprivileged_partition() {
        for id in HypercallId::all_privileged() {
            assert!(id.is_privileged(), "{id:?} should be privileged");
        }
        for id in HypercallId::all_unprivileged() {
            assert!(!id.is_privileged(), "{id:?} should be unprivileged");
        }
    }

    #[test]
    fn interface_is_narrow() {
        // The paper: "around 40 hypercalls". Our model keeps the same
        // order of magnitude.
        let n = HypercallId::all_privileged().len() + HypercallId::all_unprivileged().len();
        assert!(n >= 30 && n <= 45, "hypercall count {n} out of range");
    }

    #[test]
    fn risk_weights_rank_foreign_mapping_highest() {
        assert!(
            HypercallId::MmuMapForeign.risk_weight() > HypercallId::DomctlPauseDomain.risk_weight()
        );
        assert!(
            HypercallId::MmuWriteForeign.risk_weight()
                > HypercallId::GnttabMapGrantRef.risk_weight()
        );
        assert_eq!(HypercallId::EvtchnSend.risk_weight(), 0);
    }

    #[test]
    fn hypercall_maps_to_id() {
        let hc = Hypercall::DomctlCreateDomain {
            name: "x".into(),
            memory_mib: 64,
            vcpus: 1,
        };
        assert_eq!(hc.id(), HypercallId::DomctlCreateDomain);
        assert!(hc.id().is_privileged());
        let hc = Hypercall::EvtchnSend { port: 1 };
        assert!(!hc.id().is_privileged());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = HypercallId::all_privileged()
            .into_iter()
            .chain(HypercallId::all_unprivileged())
            .map(|h| h.name())
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn ret_extractors_error_on_mismatch() {
        let err = HypercallRet::Ok.port().unwrap_err();
        assert!(
            matches!(&err, HvError::InvalidArgument(m) if m.contains("expected Port")),
            "got {err:?}"
        );
        assert!(HypercallRet::Ok.grant_ref().is_err());
        assert!(HypercallRet::Ok.pfn().is_err());
        assert!(HypercallRet::Ok.dom_id().is_err());
        assert!(HypercallRet::Ok.multi().is_err());
        assert!(HypercallRet::Ok.grant_batch().is_err());
        assert!(HypercallRet::Ok.cursor().is_err());
        assert!(HypercallRet::Ok.pfns().is_err());
        // Matching variants extract cleanly.
        assert_eq!(HypercallRet::Port(7).port().unwrap(), 7);
        assert_eq!(HypercallRet::DomId(DomId(3)).dom_id().unwrap(), DomId(3));
    }

    #[test]
    fn multicall_is_unprivileged_and_batches_map_to_gnttab() {
        let mc = Hypercall::Multicall {
            calls: vec![Hypercall::SchedYield, Hypercall::VmSnapshot],
        };
        assert_eq!(mc.id(), HypercallId::Multicall);
        assert!(!mc.id().is_privileged());
        let batch = Hypercall::GnttabMapBatch {
            granter: DomId(1),
            refs: vec![GrantRef(0)].into(),
        };
        assert_eq!(batch.id(), HypercallId::GnttabMapGrantRef);
    }
}
