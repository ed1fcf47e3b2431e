//! The shard abstraction (§3.1, §5.1, Tables 5.1 and 6.1).
//!
//! Shards are "isolated, self-contained virtual machines hosting
//! components of the control VM": regular guest VMs that differ only in
//! being allowed to invoke privileged functionality and to own inter-VM
//! communication channels. This module enumerates Xoar's nine shard
//! classes with the exact attributes of Table 5.1 (privilege, lifetime,
//! OS, parent, dependencies) and Table 6.1 (memory reservation), plus the
//! per-VM `shard` configuration block of §3.1.

use xoar_hypervisor::{HypercallId, PciAddress};

/// The nine shard classes of Xoar's decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ShardKind {
    /// Coordinates booting of the rest of the system; self-destructs.
    Bootstrapper,
    /// Processes XenStore requests (restartable half).
    XenStoreLogic,
    /// Holds the in-memory contents of XenStore (long-lived half).
    XenStoreState,
    /// Exposes the physical console as virtual consoles.
    ConsoleManager,
    /// Instantiates non-boot VMs (the only arbitrarily privileged shard).
    Builder,
    /// Initialises hardware, enumerates the PCI bus, proxies config space.
    PciBack,
    /// Physical network driver exported to guests.
    NetBack,
    /// Physical block driver exported to guests.
    BlkBack,
    /// Administrative toolstack.
    Toolstack,
    /// Per-guest device-emulation stub domain.
    QemuVm,
}

xoar_codec::impl_json_enum!(ShardKind {
    Bootstrapper,
    XenStoreLogic,
    XenStoreState,
    ConsoleManager,
    Builder,
    PciBack,
    NetBack,
    BlkBack,
    Toolstack,
    QemuVm,
});

/// Shard lifetime classes from Table 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifetime {
    /// Alive only during system boot, then destroyed (self-destructing).
    BootUp,
    /// Lives forever, not restartable.
    Forever,
    /// Lives forever, microrebooted per policy ("Forever (R)").
    ForeverRestartable,
    /// Tied to one guest VM's lifetime.
    GuestVm,
}

xoar_codec::impl_json_enum!(Lifetime {
    BootUp,
    Forever,
    ForeverRestartable,
    GuestVm,
});

/// The OS a shard is built on (§5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOs {
    /// nanOS: minimal, single-threaded, amenable to static analysis.
    NanOs,
    /// miniOS: the multithreaded stub-domain environment.
    MiniOs,
    /// A full paravirtualised Linux.
    Linux,
}

xoar_codec::impl_json_enum!(ShardOs {
    NanOs,
    MiniOs,
    Linux
});

/// Static description of one shard class (one row of Table 5.1 + 6.1).
///
/// # Examples
///
/// ```
/// use xoar_core::shard::{ShardKind, ShardSpec};
///
/// let netback = ShardSpec::of(ShardKind::NetBack);
/// assert_eq!(netback.memory_mib, 128);
/// assert!(netback.restartable());
/// assert!(netback.hypercall_whitelist().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The class.
    pub kind: ShardKind,
    /// Human-readable component name.
    pub name: &'static str,
    /// Whether the shard holds privileged hypercalls ("P" column).
    pub privileged: bool,
    /// Lifetime class.
    pub lifetime: Lifetime,
    /// Guest OS.
    pub os: ShardOs,
    /// The component that requests its creation.
    pub parent: Option<ShardKind>,
    /// Runtime dependencies (Table 5.1 "Depends on").
    pub depends_on: &'static [ShardKind],
    /// Memory reservation in MiB (Table 6.1).
    pub memory_mib: u64,
    /// One-line functionality description.
    pub functionality: &'static str,
}

// Encode-only: the `&'static` fields cannot be materialised by a decoder.
xoar_codec::impl_to_json_struct!(ShardSpec {
    kind,
    name,
    privileged,
    lifetime,
    os,
    parent,
    depends_on,
    memory_mib,
    functionality,
});

impl ShardSpec {
    /// The full decomposition of Table 5.1 with Table 6.1 memory figures.
    pub fn all() -> Vec<ShardSpec> {
        use ShardKind::*;
        vec![
            ShardSpec {
                kind: Bootstrapper,
                name: "Bootstrapper",
                privileged: true,
                lifetime: Lifetime::BootUp,
                os: ShardOs::NanOs,
                parent: None,
                depends_on: &[],
                memory_mib: 32,
                functionality: "Instantiate boot shards",
            },
            ShardSpec {
                kind: XenStoreLogic,
                name: "XenStore-Logic",
                privileged: false,
                lifetime: Lifetime::ForeverRestartable,
                os: ShardOs::MiniOs,
                parent: Some(Bootstrapper),
                depends_on: &[XenStoreState],
                memory_mib: 32,
                functionality: "Process requests for inter-VM comms and config state",
            },
            ShardSpec {
                kind: XenStoreState,
                name: "XenStore-State",
                privileged: false,
                lifetime: Lifetime::Forever,
                os: ShardOs::MiniOs,
                parent: Some(Bootstrapper),
                depends_on: &[],
                memory_mib: 32,
                functionality: "In-memory contents of XenStore",
            },
            ShardSpec {
                kind: ConsoleManager,
                name: "Console Manager",
                privileged: false,
                lifetime: Lifetime::Forever,
                os: ShardOs::Linux,
                parent: Some(Bootstrapper),
                depends_on: &[XenStoreLogic],
                memory_mib: 128,
                functionality: "Expose physical console as virtual consoles to VMs",
            },
            ShardSpec {
                kind: Builder,
                name: "Builder",
                privileged: true,
                lifetime: Lifetime::ForeverRestartable,
                os: ShardOs::NanOs,
                parent: Some(Bootstrapper),
                depends_on: &[XenStoreLogic, ConsoleManager],
                memory_mib: 64,
                functionality: "Instantiate non-boot VMs",
            },
            ShardSpec {
                kind: PciBack,
                name: "PCIBack",
                privileged: true,
                lifetime: Lifetime::BootUp,
                os: ShardOs::Linux,
                parent: Some(Bootstrapper),
                depends_on: &[XenStoreLogic, ConsoleManager, Builder],
                memory_mib: 256,
                functionality: "Initialize hardware and PCI bus, pass through PCI devices",
            },
            ShardSpec {
                kind: NetBack,
                name: "NetBack",
                privileged: false,
                lifetime: Lifetime::ForeverRestartable,
                os: ShardOs::Linux,
                parent: Some(PciBack),
                depends_on: &[XenStoreLogic, ConsoleManager],
                memory_mib: 128,
                functionality: "Expose physical network device as virtual devices to VMs",
            },
            ShardSpec {
                kind: BlkBack,
                name: "BlkBack",
                privileged: false,
                lifetime: Lifetime::ForeverRestartable,
                os: ShardOs::Linux,
                parent: Some(PciBack),
                depends_on: &[XenStoreLogic, ConsoleManager],
                memory_mib: 128,
                functionality: "Expose physical block device as virtual devices to VMs",
            },
            ShardSpec {
                kind: Toolstack,
                name: "Toolstack",
                privileged: false,
                lifetime: Lifetime::ForeverRestartable,
                os: ShardOs::Linux,
                parent: Some(Bootstrapper),
                depends_on: &[XenStoreLogic, ConsoleManager, Builder],
                memory_mib: 128,
                functionality: "Admin toolstack to manage VMs",
            },
            ShardSpec {
                kind: QemuVm,
                name: "QemuVM",
                privileged: false,
                lifetime: Lifetime::GuestVm,
                os: ShardOs::MiniOs,
                parent: Some(Toolstack),
                depends_on: &[XenStoreLogic, NetBack, BlkBack],
                memory_mib: 64,
                functionality: "Device emulation for a single guest VM",
            },
        ]
    }

    /// Looks up one class.
    pub fn of(kind: ShardKind) -> ShardSpec {
        Self::all()
            .into_iter()
            .find(|s| s.kind == kind)
            .expect("every kind has a spec")
    }

    /// Whether the shard is microrebootable.
    pub fn restartable(&self) -> bool {
        self.lifetime == Lifetime::ForeverRestartable
    }

    /// The privileged hypercalls this shard class needs — the whitelist
    /// handed to `permit_hypercall` at build time (Figure 3.1, least
    /// privilege).
    ///
    /// These sets are pinned to the *observed-use minimum*: every entry is
    /// exercised by some code path in the simulation, and the
    /// `xoar-analysis` over-privilege report (static whitelist vs recorded
    /// hypercall trace) is what keeps them honest. PCIBack is the one
    /// declared exception — its whitelist covers hotplug/SR-IOV paths the
    /// simulation never drives, kept because the shard is sealed and
    /// destroyed after boot anyway.
    pub fn hypercall_whitelist(&self) -> Vec<HypercallId> {
        use HypercallId::*;
        match self.kind {
            // The Bootstrapper builds boot shards with MemoryPopulate only
            // (no start-info writes, no foreign grants) and hands out
            // device/port/MMIO rights; IRQ wiring and foreign memory never
            // appear on its trace.
            ShardKind::Bootstrapper => vec![
                DomctlCreateDomain,
                DomctlUnpauseDomain,
                DomctlAssignDevice,
                DomctlSetRole,
                DomctlPermitHypercall,
                DomctlDelegate,
                DomctlIoPortPermission,
                DomctlMmioPermission,
                MemoryPopulate,
            ],
            // The Builder writes start info (MmuWriteForeign) and seeds
            // grant entries (GnttabForeignSetup) but never *maps* foreign
            // pages itself; pause/resize/device-assignment are toolstack
            // and boot-time duties respectively.
            ShardKind::Builder => vec![
                DomctlCreateDomain,
                DomctlDestroyDomain,
                DomctlUnpauseDomain,
                DomctlDelegate,
                DomctlSetRole,
                DomctlSetPrivilegedFor,
                DomctlPermitHypercall,
                MemoryPopulate,
                MmuWriteForeign,
                GnttabForeignSetup,
                VmRollback,
            ],
            ShardKind::PciBack => vec![
                DomctlAssignDevice,
                DomctlIrqPermission,
                DomctlIoPortPermission,
                DomctlMmioPermission,
                SysctlPhysinfo,
            ],
            // Grant mapping is unprivileged (the grant entry is the
            // capability), so the data-path shards need *no* privileged
            // hypercalls at all: their authority is the PCI passthrough.
            ShardKind::NetBack | ShardKind::BlkBack => vec![],
            // Microreboots (VmRollback) go through the Builder, not the
            // toolstack; migration/HA cursors and dedup are its to drive.
            ShardKind::Toolstack => vec![
                DomctlPauseDomain,
                DomctlUnpauseDomain,
                DomctlSetMaxMem,
                DomctlSetVcpus,
                DomctlDestroyDomain,
                DomctlCloneDomain,
                SysctlPhysinfo,
                DomctlShadowOp,
                SysctlDedup,
            ],
            ShardKind::QemuVm => vec![MmuMapForeign, MmuWriteForeign],
            ShardKind::XenStoreLogic | ShardKind::XenStoreState | ShardKind::ConsoleManager => {
                vec![]
            }
        }
    }

    /// Whether this class holds the blanket "map any guest's memory"
    /// privilege. §6.2: "only a single, small nanOS shard has the
    /// privileges required to arbitrarily access a guest's memory" — the
    /// Builder (the Bootstrapper holds it too, but only until boot
    /// completes and it self-destructs).
    pub fn arbitrary_memory_access(&self) -> bool {
        matches!(self.kind, ShardKind::Builder | ShardKind::Bootstrapper)
    }

    /// PCI devices this shard class receives by passthrough, given the
    /// host's controllers.
    pub fn pci_assignment(&self, nics: &[PciAddress], disks: &[PciAddress]) -> Vec<PciAddress> {
        match self.kind {
            // One NetBack per NIC, one BlkBack per disk controller: the
            // caller instantiates per device, so the first of each list is
            // taken by convention here.
            ShardKind::NetBack => nics.first().copied().into_iter().collect(),
            ShardKind::BlkBack => disks.first().copied().into_iter().collect(),
            _ => Vec::new(),
        }
    }
}

/// The `shard` block of a VM config file (§3.1): "This block indicates
/// that the VM can be assigned additional privileges and contains
/// parameters that describe these capabilities."
#[derive(Debug, Clone, Default)]
pub struct ShardConfigBlock {
    /// `assign_pci_device(domain, bus, slot)` entries.
    pub pci_devices: Vec<PciAddress>,
    /// `permit_hypercall(id)` entries.
    pub hypercalls: Vec<HypercallId>,
    /// `allow_delegation(guest)` entries, by domain name.
    pub delegate_to: Vec<String>,
}

xoar_codec::impl_json_struct!(ShardConfigBlock {
    pci_devices,
    hypercalls,
    delegate_to
});

/// Per-guest sharing constraints (§3.2.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintTag {
    /// The `constrain_group` parameter: shards serving this VM may only be
    /// shared with VMs carrying the same tag.
    pub group: Option<String>,
}

xoar_codec::impl_json_struct!(ConstraintTag { group });

impl ConstraintTag {
    /// A tag restricting sharing to `group`.
    pub fn group(name: &str) -> Self {
        ConstraintTag {
            group: Some(name.to_string()),
        }
    }

    /// No constraint: shareable with anyone.
    pub fn none() -> Self {
        ConstraintTag::default()
    }

    /// Whether two tags permit sharing a shard.
    ///
    /// Xoar "ensur\[es\] that no two VMs with differing constraints share
    /// the same shard"; untagged VMs share only with untagged VMs.
    pub fn compatible(&self, other: &ConstraintTag) -> bool {
        self.group == other.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_shard_classes() {
        let all = ShardSpec::all();
        assert_eq!(all.len(), 10, "nine control-VM classes + per-guest QemuVM");
        // No duplicate kinds.
        let mut kinds: Vec<ShardKind> = all.iter().map(|s| s.kind).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 10);
    }

    #[test]
    fn table_6_1_memory_totals() {
        // Table 6.1: memory ranges from 512 MB (no console, no pciback)
        // to 896 MB (everything), with one NetBack and one BlkBack.
        let always = [
            ShardKind::XenStoreLogic,
            ShardKind::XenStoreState,
            ShardKind::Builder,
            ShardKind::NetBack,
            ShardKind::BlkBack,
            ShardKind::Toolstack,
        ];
        let min: u64 = always.iter().map(|k| ShardSpec::of(*k).memory_mib).sum();
        assert_eq!(min, 512);
        let max = min
            + ShardSpec::of(ShardKind::ConsoleManager).memory_mib
            + ShardSpec::of(ShardKind::PciBack).memory_mib;
        assert_eq!(max, 896);
    }

    #[test]
    fn only_builder_and_boot_components_privileged() {
        for s in ShardSpec::all() {
            let expect = matches!(
                s.kind,
                ShardKind::Bootstrapper | ShardKind::Builder | ShardKind::PciBack
            );
            assert_eq!(s.privileged, expect, "{:?} privilege flag", s.kind);
        }
    }

    #[test]
    fn restartable_matches_table_5_1() {
        let restartable: Vec<ShardKind> = ShardSpec::all()
            .into_iter()
            .filter(|s| s.restartable())
            .map(|s| s.kind)
            .collect();
        assert_eq!(
            restartable,
            vec![
                ShardKind::XenStoreLogic,
                ShardKind::Builder,
                ShardKind::NetBack,
                ShardKind::BlkBack,
                ShardKind::Toolstack,
            ]
        );
    }

    #[test]
    fn self_destructing_components() {
        assert_eq!(
            ShardSpec::of(ShardKind::Bootstrapper).lifetime,
            Lifetime::BootUp
        );
        assert_eq!(ShardSpec::of(ShardKind::PciBack).lifetime, Lifetime::BootUp);
    }

    #[test]
    fn nanos_hosts_only_privileged_boot_components() {
        // §5.7: "the only privileged VM in Xoar is based on nanOS".
        for s in ShardSpec::all() {
            if s.os == ShardOs::NanOs {
                assert!(s.privileged);
            }
        }
    }

    #[test]
    fn driver_domains_need_no_privileged_hypercalls() {
        // Least privilege: the data-path shards derive all their authority
        // from PCI passthrough; grant mapping is unprivileged.
        for kind in [ShardKind::NetBack, ShardKind::BlkBack] {
            let wl = ShardSpec::of(kind).hypercall_whitelist();
            assert!(wl.is_empty(), "{kind:?} whitelist should be empty: {wl:?}");
        }
    }

    #[test]
    fn xenstore_needs_no_privileged_hypercalls() {
        // §5.6: grant tables let XenStore "function without any special
        // privileges".
        assert!(ShardSpec::of(ShardKind::XenStoreLogic)
            .hypercall_whitelist()
            .is_empty());
        assert!(ShardSpec::of(ShardKind::XenStoreState)
            .hypercall_whitelist()
            .is_empty());
        assert!(ShardSpec::of(ShardKind::ConsoleManager)
            .hypercall_whitelist()
            .is_empty());
    }

    #[test]
    fn builder_holds_the_dangerous_calls() {
        let wl = ShardSpec::of(ShardKind::Builder).hypercall_whitelist();
        assert!(wl.contains(&HypercallId::MmuWriteForeign));
        assert!(wl.contains(&HypercallId::GnttabForeignSetup));
        // But the toolstack does not.
        let ts = ShardSpec::of(ShardKind::Toolstack).hypercall_whitelist();
        assert!(!ts.contains(&HypercallId::MmuWriteForeign));
        assert!(
            !ts.contains(&HypercallId::DomctlCreateDomain),
            "creation goes through the Builder"
        );
    }

    #[test]
    fn whitelists_pinned_to_observed_use_minimum() {
        // Exact pins for every class: any widening must be justified here
        // AND survive the xoar-analysis over-privilege report, which diffs
        // these static sets against a recorded simulation trace.
        use HypercallId::*;
        let pin = |kind: ShardKind, expect: &[HypercallId]| {
            let mut wl = ShardSpec::of(kind).hypercall_whitelist();
            wl.sort_by_key(|id| id.index());
            let mut want = expect.to_vec();
            want.sort_by_key(|id| id.index());
            assert_eq!(wl, want, "{kind:?} whitelist drifted");
        };
        pin(
            ShardKind::Bootstrapper,
            &[
                DomctlCreateDomain,
                DomctlUnpauseDomain,
                DomctlAssignDevice,
                DomctlSetRole,
                DomctlPermitHypercall,
                DomctlDelegate,
                DomctlIoPortPermission,
                DomctlMmioPermission,
                MemoryPopulate,
            ],
        );
        pin(
            ShardKind::Builder,
            &[
                DomctlCreateDomain,
                DomctlDestroyDomain,
                DomctlUnpauseDomain,
                DomctlDelegate,
                DomctlSetRole,
                DomctlSetPrivilegedFor,
                DomctlPermitHypercall,
                MemoryPopulate,
                MmuWriteForeign,
                GnttabForeignSetup,
                VmRollback,
            ],
        );
        pin(
            ShardKind::Toolstack,
            &[
                DomctlPauseDomain,
                DomctlUnpauseDomain,
                DomctlSetMaxMem,
                DomctlSetVcpus,
                DomctlDestroyDomain,
                DomctlCloneDomain,
                SysctlPhysinfo,
                DomctlShadowOp,
                SysctlDedup,
            ],
        );
        pin(
            ShardKind::PciBack,
            &[
                DomctlAssignDevice,
                DomctlIrqPermission,
                DomctlIoPortPermission,
                DomctlMmioPermission,
                SysctlPhysinfo,
            ],
        );
        pin(ShardKind::QemuVm, &[MmuMapForeign, MmuWriteForeign]);
        for kind in [
            ShardKind::NetBack,
            ShardKind::BlkBack,
            ShardKind::XenStoreLogic,
            ShardKind::XenStoreState,
            ShardKind::ConsoleManager,
        ] {
            pin(kind, &[]);
        }
    }

    #[test]
    fn builder_never_maps_foreign_pages_itself() {
        // The Builder *writes* start info into fresh domains but never
        // maps foreign pages for ongoing access — that capability belongs
        // to per-guest QemuVM stubs (scoped by privileged_for).
        let wl = ShardSpec::of(ShardKind::Builder).hypercall_whitelist();
        assert!(!wl.contains(&HypercallId::MmuMapForeign));
        assert!(wl.contains(&HypercallId::MmuWriteForeign));
    }

    #[test]
    fn dependency_graph_is_acyclic() {
        // Kahn's algorithm over the depends_on edges.
        let all = ShardSpec::all();
        let mut order = Vec::new();
        let mut remaining: Vec<&ShardSpec> = all.iter().collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|s| {
                let ready = s.depends_on.iter().all(|d| order.contains(d));
                if ready {
                    order.push(s.kind);
                }
                !ready
            });
            assert!(remaining.len() < before, "cycle in shard dependencies");
        }
        // XenStore-State first among dependencies, QemuVM last-ish.
        assert!(
            order
                .iter()
                .position(|k| *k == ShardKind::XenStoreState)
                .unwrap()
                < order
                    .iter()
                    .position(|k| *k == ShardKind::XenStoreLogic)
                    .unwrap()
        );
    }

    #[test]
    fn constraint_tags() {
        let a = ConstraintTag::group("customer-a");
        let b = ConstraintTag::group("customer-b");
        let none = ConstraintTag::none();
        assert!(a.compatible(&a));
        assert!(!a.compatible(&b));
        assert!(!a.compatible(&none));
        assert!(none.compatible(&none));
    }

    #[test]
    fn pci_assignment_per_class() {
        let nics = [PciAddress::new(0, 2, 0)];
        let disks = [PciAddress::new(0, 3, 0)];
        assert_eq!(
            ShardSpec::of(ShardKind::NetBack).pci_assignment(&nics, &disks),
            vec![nics[0]]
        );
        assert_eq!(
            ShardSpec::of(ShardKind::BlkBack).pci_assignment(&nics, &disks),
            vec![disks[0]]
        );
        assert!(ShardSpec::of(ShardKind::Toolstack)
            .pci_assignment(&nics, &disks)
            .is_empty());
    }
}
