//! Domains: the unit of isolation managed by the hypervisor.
//!
//! A *domain* is a virtual machine as seen from the hypervisor: an ID, a
//! lifecycle state, a set of virtual CPUs, a memory reservation, and — in
//! Xoar — a set of explicitly assigned privileges (see
//! [`crate::privilege`]).
//!
//! In stock Xen exactly one domain, Dom0, holds blanket control privileges;
//! in Xoar every service VM ("shard") is a regular domain whose extra
//! capabilities are whitelisted individually.

use std::collections::BTreeSet;
use std::fmt;

use crate::privilege::PrivilegeSet;

/// A domain identifier.
///
/// `DomId(0)` is reserved: in stock Xen it denotes the control VM (Dom0)
/// and several legacy interfaces hard-code comparisons against it
/// (§5.8 of the paper). Xoar keeps the numbering but removes the implicit
/// privileges attached to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomId(pub u32);

xoar_codec::impl_json_newtype!(DomId(u32));

impl DomId {
    /// The well-known ID of the control VM in stock Xen.
    pub const DOM0: DomId = DomId(0);

    /// Returns `true` for the legacy control-VM ID.
    pub fn is_dom0(self) -> bool {
        self == Self::DOM0
    }
}

impl fmt::Display for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Lifecycle state of a domain.
///
/// Mirrors Xen's domain states. A snapshot is no state of its own: a
/// domain keeps running after `VmSnapshot`, and its frozen image lives in
/// the memory manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainState {
    /// Memory image being constructed by the builder; not yet runnable.
    Building,
    /// Eligible to be scheduled.
    Running,
    /// Explicitly paused by a toolstack.
    Paused,
    /// Fully destroyed; the ID may linger until the last reference drops.
    Dead,
}

xoar_codec::impl_json_enum!(DomainState {
    Building,
    Running,
    Paused,
    Dead,
});

impl DomainState {
    /// Whether the domain can issue hypercalls in this state.
    pub fn can_issue_hypercalls(self) -> bool {
        matches!(self, DomainState::Running)
    }

    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, DomainState::Dead)
    }
}

/// A virtual CPU belonging to a domain.
#[derive(Debug, Clone)]
pub struct Vcpu {
    /// Index of this VCPU within its domain.
    pub id: u32,
    /// Whether the VCPU is online (brought up by the guest).
    pub online: bool,
}

xoar_codec::impl_json_struct!(Vcpu { id, online });

impl Vcpu {
    /// Creates a new offline VCPU.
    pub fn new(id: u32) -> Self {
        Vcpu { id, online: false }
    }
}

/// The kind of workload a domain hosts.
///
/// This is descriptive metadata used by the platform layers and the audit
/// log; the hypervisor itself enforces nothing based on it (trust derives
/// solely from the [`PrivilegeSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainRole {
    /// The monolithic control VM of stock Xen.
    ControlVm,
    /// A Xoar service VM.
    Shard,
    /// A tenant guest VM.
    Guest,
}

xoar_codec::impl_json_enum!(DomainRole {
    ControlVm,
    Shard,
    Guest,
});

/// Per-domain bookkeeping held by the hypervisor.
#[derive(Debug, Clone)]
pub struct Domain {
    /// The domain's identifier.
    pub id: DomId,
    /// Human-readable name (as registered in XenStore).
    pub name: String,
    /// Current lifecycle state.
    pub state: DomainState,
    /// Role metadata.
    pub role: DomainRole,
    /// Virtual CPUs.
    pub vcpus: Vec<Vcpu>,
    /// Memory reservation in MiB (the figure reported in Table 6.1).
    pub memory_mib: u64,
    /// Assigned privileges. Empty for ordinary guests.
    pub privileges: PrivilegeSet,
    /// The toolstack that built this domain and is allowed to manage it
    /// (§5.6: "we add a flag marking the parent Toolstack for every guest
    /// VM, which is set during VM creation").
    pub parent_toolstack: Option<DomId>,
    /// Shards this domain has been delegated to use as service providers.
    pub delegated_shards: BTreeSet<DomId>,
    /// Domains whose memory this domain may map for device emulation
    /// (the QEMU stub-domain flag of §5.6).
    pub privileged_for: BTreeSet<DomId>,
    /// Constraint-group tag for controlled sharing (§3.2.1).
    pub constraint_group: Option<String>,
    /// Simulated boot epoch (nanoseconds); used by the audit log.
    pub created_at_ns: u64,
    /// Number of times this domain has been microrebooted: its
    /// successful `VmRollback`s, the one rollback counter.
    pub restart_count: u64,
}

impl Domain {
    /// Creates a new domain record in the `Building` state.
    pub fn new(id: DomId, name: impl Into<String>, role: DomainRole, memory_mib: u64) -> Self {
        Domain {
            id,
            name: name.into(),
            state: DomainState::Building,
            role,
            vcpus: vec![Vcpu::new(0)],
            memory_mib,
            privileges: PrivilegeSet::default(),
            parent_toolstack: None,
            delegated_shards: BTreeSet::new(),
            privileged_for: BTreeSet::new(),
            constraint_group: None,
            created_at_ns: 0,
            restart_count: 0,
        }
    }

    /// Whether this domain is a shard (set via the `shard` config block).
    pub fn is_shard(&self) -> bool {
        self.role == DomainRole::Shard || self.role == DomainRole::ControlVm
    }

    /// Sets the number of VCPUs (used at build time).
    pub fn set_vcpus(&mut self, n: u32) {
        self.vcpus = (0..n.max(1)).map(Vcpu::new).collect();
    }

    /// Marks the domain runnable, bringing every configured VCPU online
    /// (a multi-vcpu guest occupies several runqueue slots at once).
    pub fn unpause(&mut self) {
        self.state = DomainState::Running;
        for v in &mut self.vcpus {
            v.online = true;
        }
    }

    /// References to this domain's online VCPUs, for runqueue placement.
    pub fn online_vcpus(&self) -> impl Iterator<Item = u32> + '_ {
        self.vcpus.iter().filter(|v| v.online).map(|v| v.id)
    }

    /// Whether `other` is allowed to manage this domain.
    ///
    /// Stock Xen answers "is `other` Dom0"; Xoar answers "is `other` the
    /// parent toolstack recorded at creation".
    pub fn managed_by(&self, other: DomId) -> bool {
        self.parent_toolstack == Some(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_is_special_only_by_convention() {
        assert!(DomId::DOM0.is_dom0());
        assert!(!DomId(5).is_dom0());
        assert_eq!(DomId::DOM0.to_string(), "dom0");
    }

    #[test]
    fn new_domain_starts_building_with_one_vcpu() {
        let d = Domain::new(DomId(3), "guest-a", DomainRole::Guest, 1024);
        assert_eq!(d.state, DomainState::Building);
        assert_eq!(d.vcpus.len(), 1);
        assert!(!d.vcpus[0].online);
        assert!(!d.state.can_issue_hypercalls());
    }

    #[test]
    fn unpause_transitions_to_running() {
        let mut d = Domain::new(DomId(3), "guest-a", DomainRole::Guest, 1024);
        d.unpause();
        assert_eq!(d.state, DomainState::Running);
        assert!(d.vcpus[0].online);
        assert!(d.state.can_issue_hypercalls());
    }

    #[test]
    fn unpause_brings_all_vcpus_online() {
        let mut d = Domain::new(DomId(3), "smp", DomainRole::Guest, 1024);
        d.set_vcpus(4);
        d.unpause();
        assert!(d.vcpus.iter().all(|v| v.online));
        assert_eq!(d.online_vcpus().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_vcpus_clamps_to_at_least_one() {
        let mut d = Domain::new(DomId(3), "g", DomainRole::Guest, 64);
        d.set_vcpus(0);
        assert_eq!(d.vcpus.len(), 1);
        d.set_vcpus(4);
        assert_eq!(d.vcpus.len(), 4);
    }

    #[test]
    fn management_requires_parent_toolstack() {
        let mut d = Domain::new(DomId(9), "g", DomainRole::Guest, 64);
        assert!(!d.managed_by(DomId(2)));
        d.parent_toolstack = Some(DomId(2));
        assert!(d.managed_by(DomId(2)));
        assert!(
            !d.managed_by(DomId(0)),
            "even dom0 is not implicitly a manager in Xoar"
        );
    }

    #[test]
    fn shard_roles() {
        let g = Domain::new(DomId(1), "g", DomainRole::Guest, 64);
        let s = Domain::new(DomId(2), "netback", DomainRole::Shard, 128);
        let c = Domain::new(DomId(0), "dom0", DomainRole::ControlVm, 750);
        assert!(!g.is_shard());
        assert!(s.is_shard());
        assert!(c.is_shard());
    }

    #[test]
    fn terminal_state() {
        assert!(DomainState::Dead.is_terminal());
        assert!(!DomainState::Running.is_terminal());
    }
}
