//! The assembled virtualization platform, in both configurations.
//!
//! [`Platform::stock_xen`] builds the baseline of Figure 2.1: one
//! monolithic control VM (Dom0) hosting XenStore, the console daemon, the
//! toolstack, the VM builder, device emulation, and both driver backends,
//! holding blanket privileges, and whose failure reboots the host.
//!
//! [`Platform::xoar`] builds the architecture of Figure 5.1: the same
//! services decomposed into least-privilege shards, booted in dependency
//! order by a self-destructing Bootstrapper (§5.2), with PCIBack sealed
//! and destroyed once steady state is reached (§5.3).
//!
//! Everything downstream — the workloads of Chapter 6, the security
//! evaluation of §6.2, the examples — drives one of these two values
//! through the same API, so every measured difference is attributable to
//! the decomposition.

use xoar_devices::blk::{BlkFront, BlkRingHub, Mount};
use xoar_devices::console::ConsoleManager;
use xoar_devices::emu::QemuDeviceModel;
use xoar_devices::fabric::Fabric;
use xoar_devices::hw::{DiskModel, NicModel};
use xoar_devices::net::{NetFront, NetRingHub, WireEndpoint};
use xoar_devices::pci::{PciBack, PciBus, PciClass};
use xoar_devices::xenbus::{self, Connection, DeviceKind};
use xoar_devices::{BlkBack, NetBack, RingHub, RingId};
use xoar_hypervisor::domain::DomainRole;
use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{
    DomId, DomainState, HvError, HvResult, Hypercall, HypercallRet, Hypervisor, PrivilegeSet,
};
use xoar_xenstore::{XenStore, XsPath};

use crate::audit::{AuditEvent, AuditLog};
use crate::builder::{BuildRequest, Builder, KernelSpec};
use crate::shard::{ConstraintTag, ShardKind, ShardSpec};
use crate::xs_plan::XsPlan;

/// Which architecture the platform is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformMode {
    /// Monolithic Dom0 (the paper's baseline).
    StockXen,
    /// Disaggregated shards (the paper's contribution).
    Xoar,
}

/// Configuration for a Xoar platform instance.
#[derive(Debug, Clone)]
pub struct XoarConfig {
    /// Whether to run a Console Manager (commercial hosts often don't:
    /// "console access is largely absent rendering the Console Manager
    /// redundant", §6.1.1).
    pub with_console: bool,
    /// Whether to keep PCIBack alive after boot (needed for hotplug /
    /// SR-IOV provisioning; destroyable otherwise, §5.3).
    pub keep_pciback: bool,
    /// Number of toolstack instances (§5.6: "a configurable number of
    /// toolstacks").
    pub toolstacks: usize,
    /// Default restart interval for restartable driver shards, seconds
    /// (None = no timer restarts).
    pub restart_interval_s: Option<u64>,
}

impl Default for XoarConfig {
    fn default() -> Self {
        XoarConfig {
            with_console: true,
            keep_pciback: false,
            toolstacks: 1,
            restart_interval_s: None,
        }
    }
}

/// Identities of the service domains.
///
/// In stock Xen every field is Dom0; in Xoar each is a distinct shard.
#[derive(Debug, Clone)]
pub struct ServiceDoms {
    /// XenStore-Logic host.
    pub xenstore: DomId,
    /// XenStore-State host (same as `xenstore` in stock Xen).
    pub xenstore_state: DomId,
    /// Console Manager host (if any).
    pub console: Option<DomId>,
    /// Builder host.
    pub builder: DomId,
    /// PCIBack host (until destroyed).
    pub pciback: Option<DomId>,
    /// NetBack hosts, one per NIC.
    pub netbacks: Vec<DomId>,
    /// BlkBack hosts, one per disk controller.
    pub blkbacks: Vec<DomId>,
    /// Toolstack hosts.
    pub toolstacks: Vec<DomId>,
}

/// A guest VM plus its device attachments.
#[derive(Debug)]
pub struct GuestHandle {
    /// The guest domain.
    pub dom: DomId,
    /// Guest name.
    pub name: String,
    /// Sharing constraint.
    pub constraint: ConstraintTag,
    /// Managing toolstack.
    pub toolstack: DomId,
    /// Network frontend, if a vif is attached.
    pub netfront: Option<NetFront>,
    /// Block frontend, if a vbd is attached.
    pub blkfront: Option<BlkFront>,
    /// Serving NetBack domain.
    pub netback: Option<DomId>,
    /// Serving BlkBack domain.
    pub blkback: Option<DomId>,
    /// The per-guest device-model domain (HVM guests on Xoar).
    pub qemu: Option<DomId>,
}

impl GuestHandle {
    /// The backend serving the guest's `kind` device, if it has one.
    fn backend(&self, kind: DeviceKind) -> Option<DomId> {
        match kind {
            DeviceKind::Vif => self.netback,
            _ => self.blkback,
        }
    }

    /// Takes the connection of the guest's `kind` frontend, leaving the
    /// frontend unset.
    fn take_frontend(&mut self, kind: DeviceKind) -> Option<Connection> {
        match kind {
            DeviceKind::Vif => self.netfront.take().map(|f| f.conn),
            _ => self.blkfront.take().map(|f| f.conn),
        }
    }
}

/// Per-guest creation parameters.
#[derive(Debug, Clone)]
pub struct GuestConfig {
    /// Guest name.
    pub name: String,
    /// Memory in MiB (the evaluation guests use 1024).
    pub memory_mib: u64,
    /// VCPUs (the evaluation guests use 2).
    pub vcpus: u32,
    /// Kernel selection.
    pub kernel: KernelSpec,
    /// Sharing constraint (§3.2.1).
    pub constraint: ConstraintTag,
    /// Virtual disk size in bytes (the evaluation guests use 15 GB).
    pub disk_bytes: u64,
    /// Whether the guest is HVM and needs device emulation.
    pub hvm: bool,
}

impl GuestConfig {
    /// The evaluation guest: Ubuntu 10.04, 2 VCPUs, 1 GB RAM, 15 GB disk.
    pub fn evaluation_guest(name: &str) -> Self {
        GuestConfig {
            name: name.to_string(),
            memory_mib: 1024,
            vcpus: 2,
            kernel: KernelSpec::Library("vmlinuz-2.6.31-pvops".into()),
            constraint: ConstraintTag::none(),
            disk_bytes: 15 * 1024 * 1024 * 1024,
            hvm: false,
        }
    }
}

/// The assembled platform.
pub struct Platform {
    /// Architecture.
    pub mode: PlatformMode,
    /// The hypervisor.
    pub hv: Hypervisor,
    /// XenStore.
    pub xs: XenStore,
    /// Service-domain identities.
    pub services: ServiceDoms,
    /// The Builder service.
    pub builder: Builder,
    /// The console service.
    pub console_mgr: ConsoleManager,
    /// PCIBack (present until destroyed).
    pub pciback: Option<PciBack>,
    /// NetBack instances, aligned with `services.netbacks`.
    pub netbacks: Vec<NetBack>,
    /// BlkBack instances, aligned with `services.blkbacks`.
    pub blkbacks: Vec<BlkBack>,
    /// Network ring hub.
    pub net_hub: NetRingHub,
    /// Block ring hub.
    pub blk_hub: BlkRingHub,
    /// The external wire.
    pub wire: WireEndpoint,
    /// The virtual network fabric, once enabled ([`Platform::enable_fabric`]).
    /// `None` means NetBacks terminate straight into the wire, as before.
    pub fabric: Option<Fabric>,
    /// The audit log.
    pub audit: AuditLog,
    /// Per-guest QEMU device models, keyed by guest.
    pub qemus: FastMap<DomId, QemuDeviceModel>,
    /// The Xoar configuration this platform booted with (None for the
    /// stock baseline).
    pub xoar_config: Option<XoarConfig>,
    /// Constraint tags currently adopted by shard instances.
    shard_tags: FastMap<DomId, ConstraintTag>,
    guests: FastMap<DomId, GuestHandle>,
    /// Sealed clone templates, keyed by the template domain.
    templates: FastMap<DomId, GuestTemplate>,
}

/// A sealed snapshot-fork template: everything needed to stamp out new
/// guests without a Builder round-trip.
///
/// The memory image lives in the hypervisor (frozen, refcounted frames
/// armed by `DomctlCloneDomain`), the template's own [`GuestHandle`]
/// names its toolstack, constraint and backends, and BlkBack's mount
/// names the root image every clone shares until its first block write.
/// What remains is the XenStore subtree, compiled.
#[derive(Debug)]
pub struct GuestTemplate {
    /// The template's home and per-guest backend directories, compiled
    /// for stamping: each clone is one `create_subtree` per directory.
    xs: XsPlan,
}

/// One split-device class as the platform links it.
struct DeviceSpec {
    kind: DeviceKind,
    /// Guest-local PFN of the ring page, just past the magic pages the
    /// Builder lays out (start-info, store ring, console ring, kernel).
    ring_pfn: u64,
    /// The backend's shard class, as the audit log names it.
    shard: ShardKind,
    /// Software release recorded in the audit log at link time.
    release: &'static str,
}

/// The vif, then the vbd: the order every guest's devices are linked and
/// unlinked in.
const DEVICES: [DeviceSpec; 2] = [
    DeviceSpec {
        kind: DeviceKind::Vif,
        ring_pfn: 4,
        shard: ShardKind::NetBack,
        release: "netback-2.6.31",
    },
    DeviceSpec {
        kind: DeviceKind::Vbd,
        ring_pfn: 6,
        shard: ShardKind::BlkBack,
        release: "blkback-2.6.31",
    },
];

/// How [`Platform::link`] obtains a device's connection.
#[derive(Clone, Copy)]
enum Obtain {
    /// The full xenbus handshake, driven by this toolstack.
    Negotiate(DomId),
    /// The ring grant `DomctlCloneDomain` stamped for a clone, with fresh
    /// event channels: no renegotiation.
    Adopt,
}

impl Obtain {
    /// Obtains the connection of `guest`'s `dev` device to `backend`,
    /// its ring registered with `hub`.
    fn connect<Req, Resp>(
        self,
        hv: &mut Hypervisor,
        xs: &mut XenStore,
        hub: &mut RingHub<Req, Resp>,
        guest: DomId,
        backend: DomId,
        dev: &DeviceSpec,
    ) -> HvResult<Connection> {
        let (kind, ring_pfn) = (dev.kind, Pfn(dev.ring_pfn));
        match self {
            Obtain::Negotiate(toolstack) => {
                xenbus::negotiate(hv, xs, hub, toolstack, guest, backend, kind, 0, ring_pfn)
                    .map_err(|e| {
                        HvError::InvalidArgument(format!("{} negotiation: {e}", kind.name()))
                    })
            }
            Obtain::Adopt => {
                let gref = hv
                    .grant_table(guest)
                    .ok_or(HvError::NoSuchDomain(guest))?
                    .granted_to(backend)
                    .into_iter()
                    .find(|(_, e)| e.pfn == ring_pfn)
                    .map(|(gref, _)| gref)
                    .ok_or_else(|| {
                        HvError::InvalidArgument(format!("no stamped {} ring grant", kind.name()))
                    })?;
                let front_port = hv
                    .hypercall(guest, Hypercall::EvtchnAllocUnbound { remote: backend })?
                    .port()?;
                let back_port = hv
                    .hypercall(
                        backend,
                        Hypercall::EvtchnBindInterdomain {
                            remote: guest,
                            remote_port: front_port,
                        },
                    )?
                    .port()?;
                let ring = RingId {
                    granter: guest,
                    gref,
                };
                hub.create(ring);
                Ok(Connection {
                    guest,
                    backend,
                    kind,
                    index: 0,
                    ring,
                    front_port,
                    back_port,
                })
            }
        }
    }
}

impl Platform {
    // ================= construction =================

    /// Builds the stock Xen baseline: one Dom0 with everything in it.
    pub fn stock_xen() -> Self {
        let mut hv = Hypervisor::with_default_host();
        hv.dom0_failure_is_fatal = true;
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 750, PrivilegeSet::dom0())
            .expect("fresh hypervisor accepts dom0");
        let mut xs = XenStore::new();
        xs.set_privileged(dom0, true);

        let bus = PciBus::testbed();
        let nic_addr = bus.of_class(PciClass::Network)[0];
        let disk_addr = bus.of_class(PciClass::Storage)[0];
        let mut pciback = PciBack::new(dom0, bus);
        pciback.assign(nic_addr, dom0).expect("testbed NIC");
        pciback.assign(disk_addr, dom0).expect("testbed disk");

        let mut console_mgr = ConsoleManager::new(dom0);
        console_mgr.register_guest(dom0);

        Platform {
            mode: PlatformMode::StockXen,
            services: ServiceDoms {
                xenstore: dom0,
                xenstore_state: dom0,
                console: Some(dom0),
                builder: dom0,
                pciback: Some(dom0),
                netbacks: vec![dom0],
                blkbacks: vec![dom0],
                toolstacks: vec![dom0],
            },
            builder: Builder::new(dom0),
            console_mgr,
            pciback: Some(pciback),
            netbacks: vec![NetBack::new(dom0, NicModel::gigabit(nic_addr))],
            blkbacks: vec![BlkBack::new(dom0, DiskModel::sata_7200(disk_addr))],
            net_hub: NetRingHub::new(),
            blk_hub: BlkRingHub::new(),
            wire: WireEndpoint::new(),
            fabric: None,
            audit: AuditLog::new(),
            qemus: FastMap::default(),
            xoar_config: None,
            shard_tags: FastMap::default(),
            guests: FastMap::default(),
            templates: FastMap::default(),
            hv,
            xs,
        }
    }

    /// Builds the Xoar platform, executing the boot sequence of §5.2.
    pub fn xoar(cfg: XoarConfig) -> Self {
        Self::xoar_on(Hypervisor::with_default_host(), cfg)
    }

    /// [`Self::xoar`] on a caller-supplied fresh hypervisor, so gate
    /// observers attached beforehand see the boot sequence from the
    /// Bootstrapper's first call.
    pub fn xoar_on(mut hv: Hypervisor, cfg: XoarConfig) -> Self {
        // §5.8: the hypervisor no longer treats a DomId-0 failure as
        // fatal, "to allow the Bootstrapper to complete execution and
        // quit".
        hv.dom0_failure_is_fatal = false;

        // Xen creates the Bootstrapper at host boot.
        let mut boot_privs = PrivilegeSet::default();
        for id in ShardSpec::of(ShardKind::Bootstrapper).hypercall_whitelist() {
            boot_privs.permit_hypercall(id);
        }
        boot_privs.map_foreign_any = true; // nanOS boot builder rights.
        let bootstrapper = hv
            .create_boot_domain("bootstrapper", DomainRole::ControlVm, 32, boot_privs)
            .expect("fresh hypervisor accepts bootstrapper");

        let mut xs = XenStore::new();
        xs.set_privileged(bootstrapper, true);

        // Boot order (§5.2): XenStore (State then Logic) → Console Manager
        // → Builder → PCIBack → driver domains → toolstacks.
        let xenstore_state =
            Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::XenStoreState, 0);
        let xenstore =
            Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::XenStoreLogic, 0);
        xs.set_privileged(xenstore, true); // The store trusts its own host.
        let console = cfg.with_console.then(|| {
            Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::ConsoleManager, 0)
        });
        let builder_dom = Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::Builder, 0);
        let pciback_dom = Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::PciBack, 0);

        let bus = PciBus::testbed();
        let nic_addrs = bus.of_class(PciClass::Network);
        let disk_addrs = bus.of_class(PciClass::Storage);
        let mut pciback = PciBack::new(pciback_dom, bus);

        // PCIBack's udev rules request one driver domain per controller.
        let mut netback_doms = Vec::new();
        let mut netbacks = Vec::new();
        for (i, addr) in nic_addrs.iter().enumerate() {
            let dom = Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::NetBack, i);
            hv.hypercall(
                bootstrapper,
                Hypercall::DomctlAssignDevice {
                    target: dom,
                    device: *addr,
                },
            )
            .expect("NIC passthrough");
            pciback.assign(*addr, dom).expect("bus model assign");
            netbacks.push(NetBack::new(dom, NicModel::gigabit(*addr)));
            netback_doms.push(dom);
        }
        let mut blkback_doms = Vec::new();
        let mut blkbacks = Vec::new();
        for (i, addr) in disk_addrs.iter().enumerate() {
            let dom = Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::BlkBack, i);
            hv.hypercall(
                bootstrapper,
                Hypercall::DomctlAssignDevice {
                    target: dom,
                    device: *addr,
                },
            )
            .expect("disk passthrough");
            pciback.assign(*addr, dom).expect("bus model assign");
            blkbacks.push(BlkBack::new(dom, DiskModel::sata_7200(*addr)));
            blkback_doms.push(dom);
        }

        // §5.8: the hardware privileges stock Xen hard-codes to Dom0 are
        // remapped to the correct shards — "Console Manager requiring
        // signals and console I/O-port access, and PCIBack requiring the
        // remaining I/O-port and MMIO privileges, along with access to
        // the PCI bus."
        if let Some(console_dom) = console {
            hv.hypercall(
                bootstrapper,
                Hypercall::DomctlIoPortPermission {
                    target: console_dom,
                    range: xoar_hypervisor::privilege::IoPortRange::new(0x3f8, 0x3ff),
                },
            )
            .expect("console port remap");
        }
        // PCI configuration-space ports and the device MMIO window.
        hv.hypercall(
            bootstrapper,
            Hypercall::DomctlIoPortPermission {
                target: pciback_dom,
                range: xoar_hypervisor::privilege::IoPortRange::new(0xcf8, 0xcff),
            },
        )
        .expect("pci port remap");
        hv.hypercall(
            bootstrapper,
            Hypercall::DomctlMmioPermission {
                target: pciback_dom,
                range: xoar_hypervisor::privilege::MmioRange {
                    start_mfn: 0xf000_0,
                    frames: 0x1000,
                },
            },
        )
        .expect("pci mmio remap");

        // Toolstacks last.
        let mut toolstacks = Vec::new();
        for i in 0..cfg.toolstacks.max(1) {
            let dom = Self::boot_shard(&mut hv, &mut xs, bootstrapper, ShardKind::Toolstack, i);
            xs.set_privileged(dom, true); // Toolstacks write device trees.
                                          // Delegate every service shard to the toolstack (§3.1's
                                          // allow_delegation, used to authorise shard selection).
            for s in netback_doms.iter().chain(&blkback_doms) {
                hv.hypercall(
                    bootstrapper,
                    Hypercall::DomctlDelegate {
                        target: *s,
                        manager: dom,
                    },
                )
                .expect("delegation at boot");
            }
            toolstacks.push(dom);
        }
        xs.set_privileged(builder_dom, true);

        // Steady state: PCIBack seals and is destroyed — unless kept for
        // dynamic provisioning (hotplug / SR-IOV, §5.3), in which case it
        // stays live and unsealed. The Bootstrapper self-destructs either
        // way.
        #[expect(
            clippy::disallowed_methods,
            reason = "boot destroys PCIBack behind the gate (ROADMAP item 9)"
        )]
        let pciback_opt = if cfg.keep_pciback {
            Some(pciback)
        } else {
            pciback.seal();
            hv.crash_domain(pciback_dom).expect("pciback destroyed");
            None
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the Bootstrapper is destroyed behind the gate (ROADMAP item 9)"
        )]
        let () = hv.crash_domain(bootstrapper).expect("bootstrapper exits");

        let mut console_mgr = ConsoleManager::new(console.unwrap_or(builder_dom));
        if let Some(c) = console {
            console_mgr.register_guest(c);
        }

        Platform {
            mode: PlatformMode::Xoar,
            services: ServiceDoms {
                xenstore,
                xenstore_state,
                console,
                builder: builder_dom,
                pciback: cfg.keep_pciback.then_some(pciback_dom),
                netbacks: netback_doms,
                blkbacks: blkback_doms,
                toolstacks,
            },
            builder: Builder::new(builder_dom),
            console_mgr,
            pciback: pciback_opt,
            netbacks,
            blkbacks,
            net_hub: NetRingHub::new(),
            blk_hub: BlkRingHub::new(),
            wire: WireEndpoint::new(),
            fabric: None,
            audit: AuditLog::new(),
            qemus: FastMap::default(),
            xoar_config: Some(cfg),
            shard_tags: FastMap::default(),
            guests: FastMap::default(),
            templates: FastMap::default(),
            hv,
            xs,
        }
    }

    /// Boots one shard with the least privilege of its class.
    #[expect(
        clippy::disallowed_methods,
        reason = "sets map_foreign_any behind the gate (ROADMAP item 4)"
    )]
    fn boot_shard(
        hv: &mut Hypervisor,
        xs: &mut XenStore,
        bootstrapper: DomId,
        kind: ShardKind,
        index: usize,
    ) -> DomId {
        let spec = ShardSpec::of(kind);
        let name = if index == 0 {
            spec.name.to_string()
        } else {
            format!("{}-{}", spec.name, index)
        };
        let dom = hv
            .hypercall(
                bootstrapper,
                Hypercall::DomctlCreateDomain {
                    name,
                    memory_mib: spec.memory_mib,
                    vcpus: 1,
                },
            )
            .expect("boot-time domain creation")
            .dom_id()
            .unwrap();
        hv.hypercall(
            bootstrapper,
            Hypercall::MemoryPopulate {
                target: dom,
                frames: spec.memory_mib.max(4),
            },
        )
        .expect("boot-time populate");
        for id in spec.hypercall_whitelist() {
            hv.hypercall(
                bootstrapper,
                Hypercall::DomctlPermitHypercall { target: dom, id },
            )
            .expect("boot-time whitelist");
        }
        hv.hypercall(bootstrapper, Hypercall::DomctlUnpauseDomain { target: dom })
            .expect("boot-time unpause");
        // Shards are marked as such via the role hypercall — "from the
        // perspective of the hypervisor shards are the only virtual
        // machines capable of invoking privileged functionality".
        hv.hypercall(
            bootstrapper,
            Hypercall::DomctlSetRole {
                target: dom,
                shard: true,
            },
        )
        .expect("boot-time role");
        // §6.2: the Builder alone retains arbitrary guest-memory access.
        hv.domain_mut(dom)
            .expect("just created")
            .privileges
            .map_foreign_any = spec.arbitrary_memory_access();
        let _ = xs.create_domain_home(bootstrapper, dom);
        dom
    }

    // ================= introspection =================

    /// The guest handles, sorted by domain ID.
    pub fn guests(&self) -> Vec<&GuestHandle> {
        let mut v: Vec<&GuestHandle> = self.guest_handles().collect();
        v.sort_by_key(|g| g.dom.0);
        v
    }

    /// Every guest's handle, in no particular order (no listing is built).
    pub(crate) fn guest_handles(&self) -> impl Iterator<Item = &GuestHandle> {
        self.guests.values()
    }

    /// One guest's handle.
    pub fn guest(&self, dom: DomId) -> Option<&GuestHandle> {
        self.guests.get(&dom)
    }

    /// Total platform memory consumed by service components, MiB.
    ///
    /// For stock Xen this is Dom0's reservation; for Xoar the sum of live
    /// shard reservations — the quantity Table 6.1 reports.
    pub fn service_memory_mib(&self) -> u64 {
        match self.mode {
            PlatformMode::StockXen => self
                .hv
                .domain(self.services.toolstacks[0])
                .map(|d| d.memory_mib)
                .unwrap_or(0),
            PlatformMode::Xoar => self
                .hv
                .domain_ids()
                .into_iter()
                .filter_map(|id| self.hv.domain(id).ok())
                .filter(|d| d.role == DomainRole::Shard && d.state != DomainState::Dead)
                .map(|d| d.memory_mib)
                .sum(),
        }
    }

    /// The constraint tag a shard instance has adopted, if any.
    pub fn shard_tag(&self, shard: DomId) -> Option<&ConstraintTag> {
        self.shard_tags.get(&shard)
    }

    // ================= guest lifecycle =================

    /// Creates a guest VM through `toolstack`, wiring its devices.
    ///
    /// This is the full §5 flow: constraint-checked shard selection, a
    /// Builder request, XenStore device wiring, split-driver negotiation,
    /// BlkBack image provisioning via the proxy daemon, and audit-log
    /// entries for every link.
    pub fn create_guest(&mut self, toolstack: DomId, cfg: GuestConfig) -> HvResult<DomId> {
        if !self.services.toolstacks.contains(&toolstack) {
            return Err(HvError::PermissionDenied {
                caller: toolstack,
                privilege: "toolstack role".into(),
            });
        }
        // Constraint-checked shard selection (§3.2.1): fail VM creation
        // rather than force an undesired sharing configuration.
        let netback = self.select_shard(&self.services.netbacks.clone(), &cfg.constraint)?;
        let blkback = self.select_shard(&self.services.blkbacks.clone(), &cfg.constraint)?;

        // A toolstack may only use shards delegated to it (§5.6).
        for shard in [netback, blkback] {
            let d = self.hv.domain(shard)?;
            let delegated = d.privileges.delegated_to.contains(&toolstack) || d.id == toolstack; // Stock Xen: dom0 is its own backend.
            if !delegated {
                return Err(HvError::PermissionDenied {
                    caller: toolstack,
                    privilege: format!("use of undelegated shard {shard}"),
                });
            }
        }

        let built = self.builder.build(
            &mut self.hv,
            &mut self.xs,
            self.services.xenstore,
            self.services.console.unwrap_or(self.services.xenstore),
            &BuildRequest {
                name: cfg.name.clone(),
                memory_mib: cfg.memory_mib,
                vcpus: cfg.vcpus,
                kernel: cfg.kernel.clone(),
                on_behalf_of: toolstack,
            },
        )?;
        let guest = built.guest;
        {
            #[expect(
                clippy::disallowed_methods,
                reason = "sets constraint_group and delegated_shards behind the gate (ROADMAP item 4)"
            )]
            let d = self.hv.domain_mut(guest)?;
            d.constraint_group = cfg.constraint.group.clone();
            d.delegated_shards.insert(self.services.xenstore);
            if let Some(c) = self.services.console {
                d.delegated_shards.insert(c);
            }
            d.delegated_shards.insert(netback);
            d.delegated_shards.insert(blkback);
            d.delegated_shards.insert(toolstack);
        }
        let now = self.hv.now_ns();
        self.audit.append(
            now,
            AuditEvent::VmCreated {
                guest,
                name: cfg.name.clone(),
                toolstack,
            },
        );

        // The root image, provisioned through BlkBack's proxy daemon.
        let image = format!("{}-root.img", cfg.name);
        let bb = self
            .backend_index(DeviceKind::Vbd, blkback)
            .ok_or(HvError::NoSuchDomain(blkback))?;
        self.blkbacks[bb]
            .images
            .create_image(&image, cfg.disk_bytes)
            .map_err(HvError::InvalidArgument)?;

        // Adopt constraint tags on first use.
        self.adopt_tag(netback, &cfg.constraint);
        self.adopt_tag(blkback, &cfg.constraint);
        self.guests.insert(
            guest,
            GuestHandle {
                dom: guest,
                name: cfg.name,
                constraint: cfg.constraint,
                toolstack,
                netfront: None,
                blkfront: None,
                netback: Some(netback),
                blkback: Some(blkback),
                qemu: None,
            },
        );
        self.link(
            guest,
            Obtain::Negotiate(toolstack),
            Some(Mount::Exclusive(image)),
            Some(now),
        )?;
        self.console_mgr.register_guest(guest);

        // Device emulation for HVM guests.
        if cfg.hvm {
            let qemu = self.spawn_device_model(guest)?;
            self.guests.get_mut(&guest).expect("inserted above").qemu = Some(qemu);
        }
        Ok(guest)
    }

    /// Spawns the device model for an HVM guest: a per-guest stub QemuVM
    /// in Xoar, or an in-Dom0 process in stock Xen.
    fn spawn_device_model(&mut self, guest: DomId) -> HvResult<DomId> {
        match self.mode {
            PlatformMode::StockXen => {
                let dom0 = self.services.builder;
                self.qemus.insert(guest, QemuDeviceModel::new(dom0, guest));
                Ok(dom0)
            }
            PlatformMode::Xoar => {
                let builder = self.services.builder;
                let spec = ShardSpec::of(ShardKind::QemuVm);
                let qemu_dom = self
                    .hv
                    .hypercall(
                        builder,
                        Hypercall::DomctlCreateDomain {
                            name: format!("qemu-{}", guest.0),
                            memory_mib: spec.memory_mib,
                            vcpus: 1,
                        },
                    )?
                    .dom_id()?;
                self.hv.hypercall(
                    builder,
                    Hypercall::MemoryPopulate {
                        target: qemu_dom,
                        frames: 16,
                    },
                )?;
                for id in spec.hypercall_whitelist() {
                    self.hv.hypercall(
                        builder,
                        Hypercall::DomctlPermitHypercall {
                            target: qemu_dom,
                            id,
                        },
                    )?;
                }
                // The "privileged for another VM" flag of §5.6.
                self.hv.hypercall(
                    builder,
                    Hypercall::DomctlSetPrivilegedFor {
                        subject: qemu_dom,
                        object: guest,
                    },
                )?;
                self.hv
                    .hypercall(builder, Hypercall::DomctlUnpauseDomain { target: qemu_dom })?;
                self.hv.hypercall(
                    builder,
                    Hypercall::DomctlSetRole {
                        target: qemu_dom,
                        shard: true,
                    },
                )?;
                self.qemus
                    .insert(guest, QemuDeviceModel::new(qemu_dom, guest));
                Ok(qemu_dom)
            }
        }
    }

    /// Destroys a guest through its managing toolstack.
    pub fn destroy_guest(&mut self, toolstack: DomId, guest: DomId) -> HvResult<()> {
        // The hypercall enforces the parent-toolstack check.
        self.hv
            .hypercall(toolstack, Hypercall::DomctlDestroyDomain { target: guest })?;
        let now = self.hv.now_ns();
        if let Some(mut handle) = self.guests.remove(&guest) {
            for dev in &DEVICES {
                let Some(backend) = handle.backend(dev.kind) else {
                    continue;
                };
                self.unlink(guest, dev.kind, backend, handle.take_frontend(dev.kind));
                // The guest's own root image is deleted with it (the
                // toolstack proxies the request to BlkBack's daemon,
                // §5.4); a clone only drops its copy-on-write view.
                if let (DeviceKind::Vbd, Some(bb)) =
                    (dev.kind, self.backend_index(dev.kind, backend))
                {
                    if let Some(Mount::Exclusive(image)) = self.blkbacks[bb].detach_guest(guest) {
                        let _ = self.blkbacks[bb].images.delete_image(&image);
                    }
                }
                let _ = self
                    .xs
                    .rm(toolstack, &xenbus::backend_dir(backend, dev.kind, guest));
                self.audit.append(
                    now,
                    AuditEvent::ShardUnlinked {
                        guest,
                        shard: backend,
                    },
                );
                self.release_tag_if_unused(backend);
            }
            if let Some(q) = handle.qemu {
                if self.mode == PlatformMode::Xoar {
                    let builder = self.services.builder;
                    let _ = self
                        .hv
                        .hypercall(builder, Hypercall::DomctlDestroyDomain { target: q });
                }
                self.qemus.remove(&guest);
            }
        }
        self.console_mgr.remove_guest(guest);
        let _ = self.xs.remove_domain(self.services.xenstore, guest);
        self.templates.remove(&guest);
        self.audit.append(now, AuditEvent::VmDestroyed { guest });
        Ok(())
    }

    // ================= snapshot-fork cloning =================

    /// The sealed template captured from `dom`, if any.
    pub fn template(&self, dom: DomId) -> Option<&GuestTemplate> {
        self.templates.get(&dom)
    }

    /// Captures a pre-booted guest as a clone template.
    ///
    /// The guest is paused in place; its XenStore subtrees (its home and
    /// its rows in each backend's directory) are read with every node's
    /// ACL and compiled, so clones can be stamped without the toolstack
    /// re-deriving any of it. The memory image is sealed lazily
    /// by the first `DomctlCloneDomain` (frozen, refcounted frames).
    pub fn capture_template(&mut self, toolstack: DomId, guest: DomId) -> HvResult<()> {
        let handle = self
            .guests
            .get(&guest)
            .ok_or(HvError::NoSuchDomain(guest))?;
        if handle.toolstack != toolstack {
            return Err(HvError::PermissionDenied {
                caller: toolstack,
                privilege: format!("capture of guest {guest} managed elsewhere"),
            });
        }
        if handle.qemu.is_some() {
            return Err(HvError::InvalidArgument(
                "HVM guests with device models cannot be templates".into(),
            ));
        }
        let (netback, blkback) = (handle.netback, handle.blkback);
        if self.hv.domain(guest)?.state == DomainState::Running {
            self.hv
                .hypercall(toolstack, Hypercall::DomctlPauseDomain { target: guest })?;
        }
        // Read the guest's home, then each backend's per-guest directory,
        // in one range pass each (toolstacks are XenStore-privileged, so
        // every node is readable), and compile them for stamping.
        let xs_err = |e| HvError::InvalidArgument(format!("xenstore: {e}"));
        let mut roots = vec![XsPath::domain_home(guest.0).to_string()];
        for (backend, kind) in [(netback, DeviceKind::Vif), (blkback, DeviceKind::Vbd)] {
            if let Some(backend) = backend {
                roots.push(xenbus::backend_dir(backend, kind, guest));
            }
        }
        let mut subtrees = Vec::with_capacity(roots.len());
        for root in roots {
            let (layout, nodes) = self.xs.read_subtree(toolstack, &root).map_err(xs_err)?;
            subtrees.push((root, layout, nodes));
        }
        let xs = XsPlan::compile(guest, subtrees);
        self.templates.insert(guest, GuestTemplate { xs });
        Ok(())
    }

    /// Snapshot-fork fast path: stamps a new guest from a sealed template.
    ///
    /// No Builder round-trip and no page copies: the hypervisor forks the
    /// address space copy-on-write (`DomctlCloneDomain`, which also
    /// replays the template's grant entries against privatised ring
    /// pages), then this method stamps the compiled XenStore subtrees,
    /// binds fresh event channels, and attaches the clone to the
    /// template's backends — sharing its root image CoW.
    pub fn clone_guest(
        &mut self,
        toolstack: DomId,
        template: DomId,
        name: &str,
    ) -> HvResult<DomId> {
        let tpl = self
            .guests
            .get(&template)
            .filter(|_| self.templates.contains_key(&template))
            .ok_or(HvError::NoSuchDomain(template))?;
        if tpl.toolstack != toolstack {
            return Err(HvError::PermissionDenied {
                caller: toolstack,
                privilege: format!("clone of template {template} captured elsewhere"),
            });
        }
        let (constraint, netback, blkback) = (tpl.constraint.clone(), tpl.netback, tpl.blkback);
        // The template's root image, which its clones read copy-on-write.
        let cow = match blkback {
            Some(bb) => {
                let bb = self
                    .backend_index(DeviceKind::Vbd, bb)
                    .ok_or(HvError::NoSuchDomain(bb))?;
                let mount = self.blkbacks[bb].mount_of(template).ok_or_else(|| {
                    HvError::InvalidArgument(format!("template {template} has no image"))
                })?;
                Some(Mount::Cow(mount.image().to_string()))
            }
            None => None,
        };
        let clone = self
            .hv
            .hypercall(
                toolstack,
                Hypercall::DomctlCloneDomain {
                    template,
                    name: name.to_string(),
                },
            )?
            .dom_id()?;
        let now = self.hv.now_ns();
        self.audit.append(
            now,
            AuditEvent::VmCloned {
                guest: clone,
                template,
                toolstack,
            },
        );

        // Stamp the template's compiled subtrees: the clone's home (with
        // its own name) and its rows in each backend's directory, one
        // request each.
        let xs_err = |e| HvError::InvalidArgument(format!("xenstore: {e}"));
        for (root, layout, nodes) in self.templates[&template].xs.stamp(clone, name) {
            self.xs
                .create_subtree(toolstack, &root, layout, nodes)
                .map_err(xs_err)?;
        }

        self.guests.insert(
            clone,
            GuestHandle {
                dom: clone,
                name: name.to_string(),
                constraint,
                toolstack,
                netfront: None,
                blkfront: None,
                netback,
                blkback,
                qemu: None,
            },
        );
        self.link(clone, Obtain::Adopt, cow, Some(now))?;
        self.console_mgr.register_guest(clone);
        Ok(clone)
    }

    // ================= split-device lifecycle =================

    /// `dom`'s index in the backend table for `kind` (`netbacks` for a
    /// vif, `blkbacks` for a vbd), if it hosts one.
    pub(crate) fn backend_index(&self, kind: DeviceKind, dom: DomId) -> Option<usize> {
        let doms = match kind {
            DeviceKind::Vif => &self.services.netbacks,
            _ => &self.services.blkbacks,
        };
        doms.iter().position(|&d| d == dom)
    }

    /// Links each of `guest`'s split devices, vif then vbd, to the backend
    /// its handle names: obtains the connection, attaches it to the
    /// backend (a vbd with `vbd_mount`, or, given `None`, to the image it
    /// still holds), and sets the guest's frontend. Given a time, each
    /// link is audited.
    fn link(
        &mut self,
        guest: DomId,
        obtain: Obtain,
        mut vbd_mount: Option<Mount>,
        audit_at: Option<u64>,
    ) -> HvResult<()> {
        for dev in &DEVICES {
            let Some(backend) = self.guests.get(&guest).and_then(|h| h.backend(dev.kind)) else {
                continue;
            };
            let idx = self
                .backend_index(dev.kind, backend)
                .ok_or(HvError::NoSuchDomain(backend))?;
            let (hv, xs) = (&mut self.hv, &mut self.xs);
            let conn = match dev.kind {
                DeviceKind::Vif => obtain.connect(hv, xs, &mut self.net_hub, guest, backend, dev),
                _ => obtain.connect(hv, xs, &mut self.blk_hub, guest, backend, dev),
            }?;
            let h = self.guests.get_mut(&guest).expect("backend read above");
            match dev.kind {
                DeviceKind::Vif => {
                    self.netbacks[idx].attach(conn);
                    h.netfront = Some(NetFront::new(conn));
                }
                _ => {
                    let bb = &mut self.blkbacks[idx];
                    match vbd_mount.take() {
                        Some(mount) => bb.attach(conn, mount),
                        None => bb.reconnect(conn),
                    }
                    .map_err(HvError::InvalidArgument)?;
                    h.blkfront = Some(BlkFront::new(conn));
                }
            }
            if let Some(now) = audit_at {
                self.audit.append(
                    now,
                    AuditEvent::ShardLinked {
                        guest,
                        shard: backend,
                        kind: dev.shard,
                        release: dev.release.into(),
                    },
                );
            }
        }
        Ok(())
    }

    /// Unlinks one of `guest`'s split devices from `backend`: detaches the
    /// connection from the backend, drops the ring of `frontend` (the
    /// guest's connection, if it still had one) and the backend's mapping
    /// of its grant. A vbd keeps its image mounted, for a relink or for
    /// destroy to release.
    fn unlink(
        &mut self,
        guest: DomId,
        kind: DeviceKind,
        backend: DomId,
        frontend: Option<Connection>,
    ) {
        let Some(idx) = self.backend_index(kind, backend) else {
            return;
        };
        if let Some(conn) = &frontend {
            // A negotiated ring is grant-mapped by its backend; a clone's
            // adopted ring is not. The unmap also reaches a dead guest's
            // table, which lives on until this last mapping goes.
            let mapped = self
                .hv
                .grant_table(guest)
                .and_then(|t| t.entry(conn.ring.gref))
                .is_some_and(|e| e.map_count > 0);
            if mapped {
                let _ = self.hv.hypercall(
                    backend,
                    Hypercall::GnttabUnmapGrantRef {
                        granter: guest,
                        gref: conn.ring.gref,
                    },
                );
            }
        }
        match kind {
            DeviceKind::Vif => {
                self.netbacks[idx].detach_guest(guest);
                if let Some(conn) = frontend {
                    self.net_hub.destroy(conn.ring);
                }
            }
            _ => {
                self.blkbacks[idx].disconnect(guest);
                if let Some(conn) = frontend {
                    self.blk_hub.destroy(conn.ring);
                }
            }
        }
    }

    // ================= constraint groups =================

    fn select_shard(&self, candidates: &[DomId], tag: &ConstraintTag) -> HvResult<DomId> {
        // Prefer a shard already serving this tag, then an unadopted one.
        for c in candidates {
            if self.shard_tags.get(c).is_some_and(|t| t.compatible(tag)) {
                return Ok(*c);
            }
        }
        for c in candidates {
            if !self.shard_tags.contains_key(c) {
                return Ok(*c);
            }
        }
        Err(HvError::LimitExceeded(
            "no shard satisfies the constraint group; VM creation fails rather than \
             forcing an undesired sharing configuration",
        ))
    }

    fn adopt_tag(&mut self, shard: DomId, tag: &ConstraintTag) {
        self.shard_tags.entry(shard).or_insert_with(|| tag.clone());
    }

    fn release_tag_if_unused(&mut self, shard: DomId) {
        let still_used = self
            .guests
            .values()
            .any(|g| g.netback == Some(shard) || g.blkback == Some(shard));
        if !still_used {
            self.shard_tags.remove(&shard);
        }
    }

    // ================= data-path convenience =================
    //
    // Workload drivers need a frontend and the ring hub at once; these
    // helpers split the borrows internally.

    /// Transmits an aggregate of `bytes` on `flow` from `guest`'s vif.
    pub fn net_transmit(
        &mut self,
        guest: DomId,
        flow: u64,
        bytes: usize,
    ) -> Result<u64, xoar_devices::ring::RingError> {
        let h = self
            .guests
            .get_mut(&guest)
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        let nf = h
            .netfront
            .as_mut()
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        nf.transmit(&mut self.net_hub, flow, bytes)
    }

    /// Transmits the page at `guest`'s `pfn` on `flow` as a shared handle:
    /// the body is read out of machine memory once and then moves through
    /// the ring, the backend, and onto the wire by refcount — zero copies.
    pub fn net_transmit_page(
        &mut self,
        guest: DomId,
        flow: u64,
        pfn: u64,
    ) -> Result<u64, xoar_devices::ring::RingError> {
        let page = self
            .hv
            .mem
            .read(guest, xoar_hypervisor::memory::Pfn(pfn))
            .map_err(|_| xoar_devices::ring::RingError::NotFound)?;
        let h = self
            .guests
            .get_mut(&guest)
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        let nf = h
            .netfront
            .as_mut()
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        nf.transmit_page(&mut self.net_hub, flow, page)
    }

    /// Receives the next frame delivered to `guest`'s vif.
    pub fn net_receive(&mut self, guest: DomId) -> Option<xoar_devices::net::NetPacket> {
        let h = self.guests.get_mut(&guest)?;
        h.netfront.as_mut()?.receive(&mut self.net_hub)
    }

    /// Writes the page at `guest`'s `pfn` to its vbd at `sector`, passing
    /// the body as a shared handle end to end.
    pub fn blk_write_page(
        &mut self,
        guest: DomId,
        sector: u64,
        pfn: u64,
    ) -> Result<u64, xoar_devices::ring::RingError> {
        let page = self
            .hv
            .mem
            .read(guest, xoar_hypervisor::memory::Pfn(pfn))
            .map_err(|_| xoar_devices::ring::RingError::NotFound)?;
        let h = self
            .guests
            .get_mut(&guest)
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        let bf = h
            .blkfront
            .as_mut()
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        bf.submit_write_page(&mut self.blk_hub, sector, page)
    }

    /// Submits a block request from `guest`'s vbd.
    pub fn blk_submit(
        &mut self,
        guest: DomId,
        op: xoar_devices::blk::BlkOp,
        sector: u64,
        count: u64,
    ) -> Result<u64, xoar_devices::ring::RingError> {
        let h = self
            .guests
            .get_mut(&guest)
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        let bf = h
            .blkfront
            .as_mut()
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        bf.submit(&mut self.blk_hub, op, sector, count)
    }

    /// Submits a batch of block requests from `guest`'s vbd: one ring
    /// operation for the whole batch, then a single trailing
    /// [`Hypercall::EvtchnSend`]. Returns the contiguous correlation IDs.
    /// All-or-nothing: a ring without room queues nothing (`Full`).
    pub fn blk_submit_batch(
        &mut self,
        guest: DomId,
        ops: &[(xoar_devices::blk::BlkOp, u64, u64)],
    ) -> Result<Vec<u64>, xoar_devices::ring::RingError> {
        let h = self
            .guests
            .get_mut(&guest)
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        let bf = h
            .blkfront
            .as_mut()
            .ok_or(xoar_devices::ring::RingError::NotFound)?;
        let ids = bf.submit_batch(&mut self.blk_hub, ops)?;
        let port = bf.conn.front_port;
        let _ = self.hv.hypercall(guest, Hypercall::EvtchnSend { port });
        Ok(ids)
    }

    /// Polls one block completion for `guest`.
    pub fn blk_poll(&mut self, guest: DomId) -> Option<xoar_devices::blk::BlkResponse> {
        let h = self.guests.get_mut(&guest)?;
        h.blkfront.as_mut()?.poll(&mut self.blk_hub)
    }

    /// Resubmits `guest`'s in-flight block requests, in id order, after
    /// its ring was recreated under the same connection (a BlkBack
    /// microreboot dropped them): "virtual machine protocols … are
    /// designed to cache and retransmit failed requests" (§3.3).
    pub(crate) fn blk_retransmit(&mut self, guest: DomId) {
        let h = self.guests.get_mut(&guest);
        if let Some(bf) = h.and_then(|h| h.blkfront.as_mut()) {
            let retry = bf.reconnect(bf.conn);
            bf.retransmit(&mut self.blk_hub, retry);
        }
    }

    /// Runs one processing pass of every NetBack, returning aggregate
    /// statistics. With the fabric enabled, backends terminate into the
    /// switch, a switching pass delivers the batch, and each destination
    /// backend is notified exactly once.
    pub fn process_netbacks(&mut self) -> xoar_devices::net::NetBackStats {
        let mut agg = xoar_devices::net::NetBackStats::default();
        for nb in &mut self.netbacks {
            agg += match self.fabric.as_mut() {
                Some(fab) => nb.process_with_fabric(&mut self.net_hub, fab, &mut self.wire),
                None => nb.process(&mut self.net_hub, &mut self.wire),
            };
        }
        if let Some(fab) = self.fabric.as_mut() {
            fab.switch(&self.netbacks, &mut self.net_hub, &mut self.wire);
            // One EvtchnSend per destination backend: the backend
            // signals its frontends' rx work on its own port.
            for &(backend, port) in fab.notify_targets() {
                let _ = self.hv.hypercall(backend, Hypercall::EvtchnSend { port });
            }
        }
        agg
    }

    // ================= virtual network fabric =================

    /// Enables the virtual network fabric, hosted by the first NetBack
    /// shard. The switch reads its ports from the NetBacks' vif
    /// attachments, so every vif, attached before or after, is a port.
    /// Idempotent; appends nothing to the audit log (the fabric is a
    /// data-path reconfiguration inside the NetBack shard, not a new
    /// trust link).
    pub fn enable_fabric(&mut self) {
        let host = self.services.netbacks[0];
        self.fabric.get_or_insert_with(|| Fabric::new(host));
    }

    /// Opens a fabric connection `flow: src → dst` (see
    /// [`Fabric::open_flow`]). Returns false when the fabric is disabled
    /// or NAT ports are exhausted.
    pub fn fabric_open_flow(&mut self, flow: u64, src: DomId, dst: DomId) -> bool {
        self.fabric
            .as_mut()
            .is_some_and(|f| f.open_flow(flow, src, dst).is_some())
    }

    /// Runs one processing pass of every BlkBack, returning aggregate
    /// statistics.
    pub fn process_blkbacks(&mut self) -> xoar_devices::blk::BlkBackStats {
        let mut agg = xoar_devices::blk::BlkBackStats::default();
        for bb in &mut self.blkbacks {
            agg += bb.process(&mut self.blk_hub);
        }
        agg
    }

    /// Runs one content-based page-deduplication pass over the whole
    /// host (the memory-density feature of the paper's introduction:
    /// "further packing density is achieved by sharing identical pages of
    /// memory between VMs"). Issued through the gate by the first
    /// toolstack; returns the number of frames reclaimed (0 if refused).
    pub fn dedup_memory(&mut self) -> u64 {
        let ts = self.services.toolstacks[0];
        match self.hv.hypercall(ts, Hypercall::SysctlDedup) {
            Ok(HypercallRet::Count(freed)) => freed,
            _ => 0,
        }
    }

    // ================= hypervisor replacement (§7.1) =================

    /// Replaces the hypervisor under executing VMs — the ReHype-style
    /// controlled reboot the paper proposes as future work: "using
    /// controlled reboots to safely replace Xen, allowing the complete
    /// virtualization platform to be upgraded and restarted without
    /// disturbing the hosted VMs."
    ///
    /// Persistent state (domains, their memory, privileges, XenStore,
    /// BlkBack's image mounts) survives; volatile state (event channels,
    /// ring mappings) is lost, every guest's devices are unlinked, and
    /// each running guest's are renegotiated through the standard xenbus
    /// handshake — the same renegotiation the microreboot machinery
    /// already relies on. Paused guests stay unlinked. Returns the
    /// number of guests recovered.
    pub fn rehype_restart(&mut self) -> HvResult<u64> {
        // 1. Gracefully tear down and unlink every device connection while
        //    the old hypervisor's channel state is still coherent.
        let mut guests: Vec<DomId> = self.guests.keys().copied().collect();
        guests.sort_unstable_by_key(|g| g.0);
        for &g in &guests {
            for dev in &DEVICES {
                let h = self.guests.get_mut(&g).expect("listed");
                let Some(backend) = h.backend(dev.kind) else {
                    continue;
                };
                let frontend = h.take_frontend(dev.kind);
                if let Some(conn) = &frontend {
                    let (hv, xs) = (&mut self.hv, &mut self.xs);
                    let _ = match dev.kind {
                        DeviceKind::Vif => xenbus::teardown(hv, xs, &mut self.net_hub, conn),
                        _ => xenbus::teardown(hv, xs, &mut self.blk_hub, conn),
                    };
                }
                self.unlink(g, dev.kind, backend, frontend);
            }
        }

        // 2. The hypervisor restart: volatile channel state vanishes.
        self.hv.reset_event_channels();
        self.net_hub = NetRingHub::new();
        self.blk_hub = BlkRingHub::new();

        // 3. Relink every running guest's devices against the new
        //    hypervisor; each vbd reconnects to the image it still holds.
        //    A paused guest (a sealed template) cannot run its frontend's
        //    half of the handshake, so it stays unlinked.
        let mut recovered = 0;
        for &g in &guests {
            if self.hv.domain(g)?.state != DomainState::Running {
                continue;
            }
            let toolstack = self.guests[&g].toolstack;
            self.link(g, Obtain::Negotiate(toolstack), None, None)?;
            recovered += 1;
        }
        let now = self.hv.now_ns();
        self.audit.append(
            now,
            AuditEvent::HypervisorRestarted {
                guests_recovered: recovered,
            },
        );
        Ok(recovered)
    }

    // ================= time =================

    /// Current simulated time.
    pub fn now_ns(&self) -> u64 {
        self.hv.now_ns()
    }

    /// Advances simulated time.
    pub fn advance_time(&mut self, delta_ns: u64) {
        self.hv.advance_time(delta_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::memory::{Mfn, PageRef};

    fn xoar() -> Platform {
        Platform::xoar(XoarConfig::default())
    }

    #[test]
    fn stock_xen_is_monolithic() {
        let p = Platform::stock_xen();
        let dom0 = p.services.builder;
        assert_eq!(dom0, DomId::DOM0);
        assert_eq!(p.services.xenstore, dom0);
        assert_eq!(p.services.netbacks, vec![dom0]);
        assert_eq!(p.services.blkbacks, vec![dom0]);
        assert_eq!(p.services.toolstacks, vec![dom0]);
        assert!(p.hv.dom0_failure_is_fatal);
        assert_eq!(p.service_memory_mib(), 750, "XenServer default Dom0");
    }

    #[test]
    fn xoar_is_disaggregated() {
        let p = xoar();
        let s = &p.services;
        let mut doms = vec![s.xenstore, s.xenstore_state, s.console.unwrap(), s.builder];
        doms.extend(&s.netbacks);
        doms.extend(&s.blkbacks);
        doms.extend(&s.toolstacks);
        let unique: std::collections::BTreeSet<_> = doms.iter().collect();
        assert_eq!(unique.len(), doms.len(), "every service in its own domain");
        assert!(!p.hv.dom0_failure_is_fatal);
        // Bootstrapper (dom0) destroyed after boot, PCIBack destroyed too.
        assert_eq!(p.hv.domain(DomId::DOM0).unwrap().state, DomainState::Dead);
        assert!(s.pciback.is_none());
    }

    #[test]
    fn xoar_memory_in_table_6_1_range() {
        let p = xoar();
        let mem = p.service_memory_mib();
        // Full config minus destroyed PCIBack (256) and Bootstrapper:
        // 32+32+128+64+128+128+128 = 640.
        assert_eq!(mem, 640);
        // With console dropped: 512 (the table's lower bound).
        let p2 = Platform::xoar(XoarConfig {
            with_console: false,
            ..Default::default()
        });
        assert_eq!(p2.service_memory_mib(), 512);
        // With PCIBack retained: 896 (the upper bound).
        let p3 = Platform::xoar(XoarConfig {
            keep_pciback: true,
            ..Default::default()
        });
        assert_eq!(p3.service_memory_mib(), 640 + 256);
    }

    #[test]
    fn create_guest_wires_devices_on_both_platforms() {
        for mut p in [Platform::stock_xen(), xoar()] {
            let ts = p.services.toolstacks[0];
            let g = p
                .create_guest(ts, GuestConfig::evaluation_guest("guest-a"))
                .unwrap();
            let h = p.guest(g).unwrap();
            assert!(h.netfront.is_some());
            assert!(h.blkfront.is_some());
            assert_eq!(p.hv.domain(g).unwrap().parent_toolstack, Some(ts));
            // Audit has creation + two links.
            assert!(p.audit.len() >= 3);
            let deps = p.audit.dependency_graph_at(u64::MAX);
            assert!(deps.contains(&(g, h.netback.unwrap())));
            assert!(deps.contains(&(g, h.blkback.unwrap())));
        }
    }

    #[test]
    fn guest_io_flows_end_to_end() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("io-guest"))
            .unwrap();
        // Block write through the split driver.
        let h = p.guests.get_mut(&g).unwrap();
        let bf = h.blkfront.as_mut().unwrap();
        bf.submit(&mut p.blk_hub, xoar_devices::blk::BlkOp::Write, 0, 8)
            .unwrap();
        let stats = p.blkbacks[0].process(&mut p.blk_hub);
        assert_eq!(stats.completed, 1);
        // Network transmit to the wire.
        let h = p.guests.get_mut(&g).unwrap();
        let nf = h.netfront.as_mut().unwrap();
        nf.transmit(&mut p.net_hub, 1, 1500).unwrap();
        let stats = p.netbacks[0].process(&mut p.net_hub, &mut p.wire);
        assert_eq!(stats.tx_frames, 1);
        assert_eq!(p.wire.take_outbound().len(), 1);
    }

    #[test]
    fn foreign_toolstack_cannot_destroy() {
        let mut p = Platform::xoar(XoarConfig {
            toolstacks: 2,
            ..Default::default()
        });
        let ts1 = p.services.toolstacks[0];
        let ts2 = p.services.toolstacks[1];
        let g = p
            .create_guest(ts1, GuestConfig::evaluation_guest("g"))
            .unwrap();
        let err = p.destroy_guest(ts2, g).unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
        // The refused destroy leaves the devices linked.
        let h = p.guest(g).unwrap();
        assert!(h.netfront.is_some() && h.blkfront.is_some());
        for mfn in ring_frames(&p, g) {
            assert_eq!(p.hv.mem.mapping_count(mfn).unwrap(), 1, "backend maps");
        }
        p.destroy_guest(ts1, g).unwrap();
        assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Dead);
        assert!(p.guest(g).is_none());
    }

    /// The MFNs behind `g`'s vif and vbd ring PFNs.
    fn ring_frames(p: &Platform, g: DomId) -> Vec<Mfn> {
        DEVICES
            .iter()
            .map(|dev| p.hv.mem.translate(g, Pfn(dev.ring_pfn)).unwrap())
            .collect()
    }

    #[test]
    fn destroy_frees_the_ring_frames_of_a_built_guest() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("g"))
            .unwrap();
        let rings: Vec<(Mfn, u32)> = ring_frames(&p, g)
            .into_iter()
            .map(|mfn| (mfn, p.hv.mem.generation(mfn)))
            .collect();
        p.destroy_guest(ts, g).unwrap();
        for (mfn, gen) in rings {
            assert!(p.hv.mem.owner(mfn).is_err(), "{mfn} freed");
            assert_ne!(p.hv.mem.generation(mfn), gen);
        }
        assert!(
            p.hv.grant_table(g).is_none(),
            "no table outlives its mappings"
        );
    }

    #[test]
    fn create_destroy_cycles_hold_machine_frames_flat() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        p.create_guest(ts, GuestConfig::evaluation_guest("resident"))
            .unwrap();
        let cycle = |p: &mut Platform, i: usize| {
            let g = p
                .create_guest(ts, GuestConfig::evaluation_guest(&format!("g{i}")))
                .unwrap();
            p.destroy_guest(ts, g).unwrap();
        };
        cycle(&mut p, 0); // warm-up: the store's shared directories
        let frames = |p: &Platform| (p.hv.mem.free_frames(), p.hv.mem.frame_table_len());
        let warm = frames(&p);
        for i in 1..=100 {
            cycle(&mut p, i);
        }
        assert_eq!(frames(&p), warm);
        p.hv.mem.check_consistency().unwrap();
    }

    #[test]
    fn non_toolstack_cannot_create() {
        let mut p = xoar();
        let rogue = p.services.netbacks[0];
        let err = p
            .create_guest(rogue, GuestConfig::evaluation_guest("evil"))
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn constraint_groups_isolate_tenants() {
        // One NetBack/BlkBack on the testbed: tenant A adopts them, tenant
        // B with a different tag must be refused.
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let mut cfg_a = GuestConfig::evaluation_guest("tenant-a");
        cfg_a.constraint = ConstraintTag::group("a");
        let ga = p.create_guest(ts, cfg_a).unwrap();
        assert_eq!(
            p.shard_tag(p.services.netbacks[0]).unwrap(),
            &ConstraintTag::group("a")
        );
        let mut cfg_b = GuestConfig::evaluation_guest("tenant-b");
        cfg_b.constraint = ConstraintTag::group("b");
        let err = p.create_guest(ts, cfg_b.clone()).unwrap_err();
        assert!(
            matches!(err, HvError::LimitExceeded(_)),
            "creation fails, no forced sharing"
        );
        // Same group shares fine.
        let mut cfg_a2 = GuestConfig::evaluation_guest("tenant-a2");
        cfg_a2.constraint = ConstraintTag::group("a");
        p.create_guest(ts, cfg_a2).unwrap();
        // After both A guests die, B can be placed.
        let a2 = p.guests().last().unwrap().dom;
        p.destroy_guest(ts, ga).unwrap();
        p.destroy_guest(ts, a2).unwrap();
        p.create_guest(ts, cfg_b).unwrap();
    }

    #[test]
    fn hvm_guest_gets_stub_domain_in_xoar() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest("windows");
        cfg.hvm = true;
        let g = p.create_guest(ts, cfg).unwrap();
        let q = p.guest(g).unwrap().qemu.unwrap();
        assert_ne!(q, p.services.builder, "stub domain, not the builder");
        // The stub may DMA into its guest…
        let model = p.qemus.get_mut(&g).unwrap();
        model.dma_to_guest(&mut p.hv, Pfn(6), b"bios").unwrap();
        // …and its privileged_for edge names exactly that guest.
        assert!(p.hv.domain(q).unwrap().privileged_for.contains(&g));
        assert_eq!(p.hv.domain(q).unwrap().privileged_for.len(), 1);
    }

    #[test]
    fn hvm_guest_in_stock_xen_uses_dom0_model() {
        let mut p = Platform::stock_xen();
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest("windows");
        cfg.hvm = true;
        let g = p.create_guest(ts, cfg).unwrap();
        assert_eq!(p.guest(g).unwrap().qemu, Some(DomId::DOM0));
    }

    #[test]
    fn dom0_crash_kills_guests_only_in_stock_xen() {
        let mut p = Platform::stock_xen();
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("victim"))
            .unwrap();
        p.hv.crash_domain(DomId::DOM0).unwrap();
        assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Dead);
        assert_eq!(p.hv.host_reboot_count(), 1);
    }

    #[test]
    fn netback_crash_leaves_guests_running_in_xoar() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("survivor"))
            .unwrap();
        let nb = p.services.netbacks[0];
        p.hv.crash_domain(nb).unwrap();
        assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Running);
        assert_eq!(p.hv.host_reboot_count(), 0);
    }

    #[test]
    fn page_dedup_reclaims_identical_guest_pages_safely() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let a = p
            .create_guest(ts, GuestConfig::evaluation_guest("a"))
            .unwrap();
        let b = p
            .create_guest(ts, GuestConfig::evaluation_guest("b"))
            .unwrap();
        // Same kernel image ⇒ identical pages.
        for g in [a, b] {
            for pfn in 10..20u64 {
                p.hv.mem.write(g, Pfn(pfn), b"shared-library-text").unwrap();
            }
        }
        let freed = p.dedup_memory();
        assert!(freed >= 19, "20 identical pages collapse: freed {freed}");
        // Density without interference: a write by one guest never leaks.
        p.hv.mem.write(a, Pfn(10), b"a-owned").unwrap();
        assert_eq!(p.hv.mem.read(b, Pfn(10)).unwrap(), b"shared-library-text");
        // And I/O still works after dedup (ring pages were never merged).
        p.blk_submit(a, xoar_devices::blk::BlkOp::Write, 0, 8)
            .unwrap();
        assert_eq!(p.process_blkbacks().completed, 1);
    }

    #[test]
    fn guest_page_reaches_wire_and_disk_by_shared_handle() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("zc"))
            .unwrap();
        p.hv.mem.write(g, Pfn(40), b"payload-body").unwrap();
        let page = p.hv.mem.read(g, Pfn(40)).unwrap();

        // Network: the frame on the wire holds the guest's page body.
        p.net_transmit_page(g, 7, 40).unwrap();
        assert_eq!(p.process_netbacks().tx_frames, 1);
        let out = p.wire.take_outbound();
        assert!(PageRef::ptr_eq(&page, out[0].payload.as_ref().unwrap()));

        // Block: the stored image page is that same allocation.
        p.blk_write_page(g, 8, 40).unwrap();
        assert_eq!(p.process_blkbacks().completed, 1);
        while p.blk_poll(g).is_some() {}
        p.blk_submit(g, xoar_devices::blk::BlkOp::Read, 8, 8)
            .unwrap();
        p.process_blkbacks();
        let resp = p.blk_poll(g).unwrap();
        assert!(PageRef::ptr_eq(&page, resp.payload.as_ref().unwrap()));
    }

    #[test]
    fn audit_exposure_query_spans_guest_lifetime() {
        let mut p = xoar();
        let ts = p.services.toolstacks[0];
        let g1 = p
            .create_guest(ts, GuestConfig::evaluation_guest("g1"))
            .unwrap();
        p.advance_time(1_000_000_000);
        let g2 = p
            .create_guest(ts, GuestConfig::evaluation_guest("g2"))
            .unwrap();
        let nb = p.services.netbacks[0];
        // Compromise window covering only g2's creation still exposes g1
        // (linked before, still live).
        let exposed = p.audit.guests_exposed_to(nb, 500_000_000, 2_000_000_000);
        assert!(exposed.contains(&g1));
        assert!(exposed.contains(&g2));
    }

    #[test]
    fn fabric_drops_frames_to_a_destroyed_guest() {
        let mut p = xoar();
        p.enable_fabric();
        let ts = p.services.toolstacks[0];
        let a = p
            .create_guest(ts, GuestConfig::evaluation_guest("a"))
            .unwrap();
        let b = p
            .create_guest(ts, GuestConfig::evaluation_guest("b"))
            .unwrap();
        assert!(p.fabric_open_flow(1, a, b));
        p.destroy_guest(ts, b).unwrap();
        p.net_transmit(a, 1, 1500).unwrap();
        p.process_netbacks();
        let stats = p.fabric.as_ref().unwrap().lifetime_stats();
        assert_eq!(
            (stats.dropped, stats.to_guests),
            (1, 0),
            "pushed to no ring"
        );
        // The sender's ring holds only its tx completion.
        assert_eq!(p.net_receive(a).map(|f| f.flow), Some(1));
        assert!(p.net_receive(a).is_none());
    }

    #[test]
    fn fabric_reaches_the_resident_over_create_destroy_cycles() {
        let mut p = xoar();
        p.enable_fabric();
        let ts = p.services.toolstacks[0];
        let r = p
            .create_guest(ts, GuestConfig::evaluation_guest("resident"))
            .unwrap();
        for i in 0..100 {
            let g = p
                .create_guest(ts, GuestConfig::evaluation_guest(&format!("g{i}")))
                .unwrap();
            p.destroy_guest(ts, g).unwrap();
        }
        let s = p
            .create_guest(ts, GuestConfig::evaluation_guest("sender"))
            .unwrap();
        assert!(p.fabric_open_flow(7, s, r));
        p.net_transmit(s, 7, 1500).unwrap();
        p.process_netbacks();
        let stats = p.fabric.as_ref().unwrap().lifetime_stats();
        assert_eq!((stats.to_guests, stats.dropped), (1, 0));
        let got = p.net_receive(r).expect("the frame reached the resident");
        assert_eq!((got.flow, got.bytes), (7, 1500));
    }
}

#[cfg(test)]
mod section_5_8_tests {
    use super::*;

    #[test]
    fn io_port_privileges_remapped_to_correct_shards() {
        let p = Platform::xoar(XoarConfig::default());
        let console = p.services.console.unwrap();
        let nb = p.services.netbacks[0];
        // The Console Manager holds the COM1 ports…
        p.hv.check_io_port(console, 0x3f8).unwrap();
        p.hv.check_io_port(console, 0x3ff).unwrap();
        // …and nothing else.
        assert!(p.hv.check_io_port(console, 0xcf8).is_err());
        // PCIBack would hold the PCI config ports; it is destroyed after
        // boot in the default configuration, so verify on a kept one.
        let kept = Platform::xoar(XoarConfig {
            keep_pciback: true,
            ..Default::default()
        });
        let pb = kept.services.pciback.unwrap();
        kept.hv.check_io_port(pb, 0xcf8).unwrap();
        kept.hv.check_mmio(pb, 0xf0010).unwrap();
        // Ordinary shards and guests hold neither.
        assert!(p.hv.check_io_port(nb, 0x3f8).is_err());
        assert!(p.hv.check_mmio(nb, 0xf0010).is_err());
    }

    #[test]
    fn stock_xen_dom0_holds_all_ports() {
        let p = Platform::stock_xen();
        // The monolithic arrangement: every port, one domain.
        p.hv.check_io_port(DomId::DOM0, 0x3f8).unwrap();
        p.hv.check_io_port(DomId::DOM0, 0xcf8).unwrap();
        p.hv.check_io_port(DomId::DOM0, 0x1f0).unwrap();
    }
}

#[cfg(test)]
mod rehype_tests {
    use super::*;
    use xoar_devices::blk::BlkOp;

    #[test]
    fn guests_survive_a_hypervisor_replacement() {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let g1 = p
            .create_guest(ts, GuestConfig::evaluation_guest("a"))
            .unwrap();
        let g2 = p
            .create_guest(ts, GuestConfig::evaluation_guest("b"))
            .unwrap();
        // Application state in guest memory.
        p.hv.mem.write(g1, Pfn(30), b"in-memory-db").unwrap();

        let recovered = p.rehype_restart().unwrap();
        assert_eq!(recovered, 2);

        // Domains never stopped running; memory intact.
        for g in [g1, g2] {
            assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Running);
        }
        assert_eq!(p.hv.mem.read(g1, Pfn(30)).unwrap(), b"in-memory-db");

        // Devices renegotiated and serving on the new hypervisor.
        p.blk_submit(g1, BlkOp::Write, 0, 8).unwrap();
        p.blk_submit(g2, BlkOp::Write, 0, 8).unwrap();
        assert_eq!(p.process_blkbacks().completed, 2);
        p.net_transmit(g1, 1, 1500).unwrap();
        assert_eq!(p.process_netbacks().tx_frames, 1);

        // The event channels are fresh (new hypervisor): ports reconnect.
        let conn = p.guest(g1).unwrap().netfront.as_ref().unwrap().conn;
        assert!(p.hv.event_connected(g1, conn.front_port));
        // And the audit log recorded the platform upgrade.
        assert!(p.audit.records().iter().any(|r| matches!(
            r.event,
            AuditEvent::HypervisorRestarted {
                guests_recovered: 2
            }
        )));
        assert_eq!(p.audit.verify_chain(), Ok(()));
    }

    #[test]
    fn rehype_keeps_clones_on_the_template_image() {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let a = p
            .create_guest(ts, GuestConfig::evaluation_guest("A"))
            .unwrap();
        let t = p
            .create_guest(ts, GuestConfig::evaluation_guest("T"))
            .unwrap();
        p.capture_template(ts, t).unwrap();
        let c = p.clone_guest(ts, t, "C").unwrap();

        // The paused template is unlinked but cannot renegotiate, so only
        // A and C count as recovered.
        assert_eq!(p.rehype_restart().unwrap(), 2);
        let d = p.clone_guest(ts, t, "D").unwrap();

        for g in [a, c, d] {
            p.blk_submit(g, BlkOp::Write, 0, 8).unwrap();
            p.net_transmit(g, 1, 1500).unwrap();
        }
        assert_eq!(p.process_blkbacks().completed, 3);
        assert_eq!(p.process_netbacks().tx_frames, 3);
        // Both clones stay copy-on-write readers of the template's image.
        let images = p.blkbacks[0].images.list();
        assert!(images.contains(&"T-root.img".to_string()));
        for clone_image in ["C-root.img", "D-root.img"] {
            assert!(!images.contains(&clone_image.to_string()), "{images:?}");
        }
    }

    #[test]
    fn rehype_fabric_delivers_into_the_renegotiated_ring() {
        let mut p = Platform::xoar(XoarConfig::default());
        p.enable_fabric();
        let ts = p.services.toolstacks[0];
        let a = p
            .create_guest(ts, GuestConfig::evaluation_guest("a"))
            .unwrap();
        let b = p
            .create_guest(ts, GuestConfig::evaluation_guest("b"))
            .unwrap();
        let ring_of = |p: &Platform| p.guest(a).unwrap().netfront.as_ref().unwrap().conn.ring;
        let before = ring_of(&p);
        assert_eq!(p.rehype_restart().unwrap(), 2);
        let after = ring_of(&p);
        assert_ne!(after, before, "renegotiation granted a new ring");
        assert!(p.fabric_open_flow(3, b, a));
        p.net_transmit(b, 3, 1500).unwrap();
        p.process_netbacks();
        assert_eq!(p.fabric.as_ref().unwrap().lifetime_stats().to_guests, 1);
        assert!(p.net_hub.get(before).is_err(), "the old ring is gone");
        let got = p.net_hub.get_mut(after).unwrap().pop_response();
        assert_eq!(got.map(|f| f.flow), Some(3));
    }

    #[test]
    fn rehype_with_no_guests_is_a_noop() {
        let mut p = Platform::xoar(XoarConfig::default());
        assert_eq!(p.rehype_restart().unwrap(), 0);
    }

    #[test]
    fn repeated_replacements_are_stable() {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("steady"))
            .unwrap();
        for round in 0..5 {
            assert_eq!(p.rehype_restart().unwrap(), 1, "round {round}");
            p.blk_submit(g, BlkOp::Write, round * 8, 8).unwrap();
            assert_eq!(p.process_blkbacks().completed, 1);
        }
    }
}
