//! The Xoar privilege-assignment model (§3.1, Figure 3.1).
//!
//! A VM is configured as a shard via a `shard` block in its config file,
//! which makes three kinds of capability assignable:
//!
//! 1. `assign_pci_device(PCI domain, bus, slot)` — direct hardware access;
//! 2. `permit_hypercall(hypercall id)` — whitelisting individual privileged
//!    hypercalls beyond the default unprivileged set;
//! 3. `allow_delegation(guest id)` — delegating the shard to another VM,
//!    a toolstack that may then place its guests on it (used for per-user
//!    toolstacks in private clouds, §3.4.2). A shard shared by several
//!    toolstacks is managed by none of them: the hypervisor's management
//!    check reads the parent-toolstack flag, not this set.
//!
//! The [`PrivilegeSet`] records exactly these assignments plus the handful
//! of hardware privileges (I/O ports, MMIO ranges, IRQ lines) that §5.8
//! shows were implicitly granted to Dom0 by hard-coded checks in Xen.

use std::collections::BTreeSet;
use std::fmt;

use crate::domain::DomId;
use crate::hypercall::HypercallId;

/// Address of a device on the PCI bus: `(domain, bus, slot)` as in the
/// paper's `assign_pci_device(PCI domain, bus, slot)` API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PciAddress {
    /// PCI segment/domain.
    pub domain: u16,
    /// Bus number.
    pub bus: u8,
    /// Slot (device) number.
    pub slot: u8,
}

xoar_codec::impl_json_struct!(PciAddress { domain, bus, slot });

impl PciAddress {
    /// Creates a PCI address.
    pub fn new(domain: u16, bus: u8, slot: u8) -> Self {
        PciAddress { domain, bus, slot }
    }
}

impl fmt::Display for PciAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}:{:02x}:{:02x}", self.domain, self.bus, self.slot)
    }
}

/// An inclusive range of x86 I/O ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct IoPortRange {
    /// First port in the range.
    pub start: u16,
    /// Last port in the range (inclusive).
    pub end: u16,
}

xoar_codec::impl_json_struct!(IoPortRange { start, end });

impl IoPortRange {
    /// Creates a range; `start` must not exceed `end`.
    pub fn new(start: u16, end: u16) -> Self {
        assert!(start <= end, "inverted I/O port range");
        IoPortRange { start, end }
    }

    /// Whether `port` lies within the range.
    pub fn contains(&self, port: u16) -> bool {
        (self.start..=self.end).contains(&port)
    }
}

/// An MMIO region expressed in machine frame numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MmioRange {
    /// First frame of the region.
    pub start_mfn: u64,
    /// Number of frames.
    pub frames: u64,
}

xoar_codec::impl_json_struct!(MmioRange { start_mfn, frames });

impl MmioRange {
    /// Whether `mfn` lies within the region.
    pub fn contains(&self, mfn: u64) -> bool {
        mfn >= self.start_mfn && mfn < self.start_mfn + self.frames
    }
}

/// Fixed-size bitset over [`HypercallId`]: the hypercall whitelist.
///
/// `permits_hypercall` sits on every hypercall dispatch, so membership
/// must be a single bit test rather than an ordered-set probe. Iteration
/// and the JSON encoding follow declaration (= `Ord`) order, keeping the
/// encoding byte-identical to the `BTreeSet<HypercallId>` this replaced
/// (the audit-log hash chains pin those bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HypercallSet {
    bits: u64,
}

impl HypercallSet {
    /// Creates an empty whitelist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id`; returns whether it was newly added.
    pub fn insert(&mut self, id: HypercallId) -> bool {
        let m = 1u64 << id.index();
        let fresh = self.bits & m == 0;
        self.bits |= m;
        fresh
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: HypercallId) -> bool {
        let m = 1u64 << id.index();
        let had = self.bits & m != 0;
        self.bits &= !m;
        had
    }

    /// Whether `id` is whitelisted. One bit test.
    pub fn contains(&self, id: HypercallId) -> bool {
        self.bits & (1u64 << id.index()) != 0
    }

    /// Number of whitelisted calls.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the whitelist is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Whitelisted IDs in `Ord` order.
    pub fn iter(&self) -> impl Iterator<Item = HypercallId> + '_ {
        HypercallId::ALL
            .iter()
            .copied()
            .filter(move |id| self.contains(*id))
    }
}

impl FromIterator<HypercallId> for HypercallSet {
    fn from_iter<I: IntoIterator<Item = HypercallId>>(iter: I) -> Self {
        let mut s = HypercallSet::default();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

impl xoar_codec::ToJson for HypercallSet {
    fn to_json(&self) -> xoar_codec::Json {
        xoar_codec::Json::Arr(self.iter().map(|id| id.to_json()).collect())
    }
}

impl xoar_codec::FromJson for HypercallSet {
    fn from_json(value: &xoar_codec::Json) -> Result<Self, xoar_codec::JsonError> {
        match value {
            xoar_codec::Json::Arr(items) => items.iter().map(HypercallId::from_json).collect(),
            _ => Err(xoar_codec::JsonError::expected("array", "HypercallSet")),
        }
    }
}

/// An ordered set of [`IoPortRange`]s answering point queries by binary
/// search.
///
/// Ranges are kept sorted by `(start, end)`; `prefix_max_end[i]` holds the
/// largest inclusive end among `ranges[..=i]`, so a port check is a
/// partition-point search plus one comparison even when ranges overlap
/// (Dom0 holds `0..=0xffff` alongside narrower grants). Inserts are
/// config-time and rebuild the prefix array; checks are the hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoPortSet {
    ranges: Vec<IoPortRange>,
    prefix_max_end: Vec<u16>,
}

impl IoPortSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `range`; returns whether it was newly added.
    pub fn insert(&mut self, range: IoPortRange) -> bool {
        match self.ranges.binary_search(&range) {
            Ok(_) => false,
            Err(pos) => {
                self.ranges.insert(pos, range);
                self.rebuild_prefix();
                true
            }
        }
    }

    /// Whether any range contains `port`.
    pub fn contains_port(&self, port: u16) -> bool {
        let n = self.ranges.partition_point(|r| r.start <= port);
        n > 0 && self.prefix_max_end[n - 1] >= port
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the set has no ranges.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Ranges in `(start, end)` order.
    pub fn iter(&self) -> impl Iterator<Item = &IoPortRange> {
        self.ranges.iter()
    }

    fn rebuild_prefix(&mut self) {
        self.prefix_max_end.clear();
        let mut max = 0u16;
        for r in &self.ranges {
            max = max.max(r.end);
            self.prefix_max_end.push(max);
        }
    }
}

impl FromIterator<IoPortRange> for IoPortSet {
    fn from_iter<I: IntoIterator<Item = IoPortRange>>(iter: I) -> Self {
        let mut s = IoPortSet::default();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl xoar_codec::ToJson for IoPortSet {
    fn to_json(&self) -> xoar_codec::Json {
        xoar_codec::Json::Arr(self.iter().map(|r| r.to_json()).collect())
    }
}

impl xoar_codec::FromJson for IoPortSet {
    fn from_json(value: &xoar_codec::Json) -> Result<Self, xoar_codec::JsonError> {
        match value {
            xoar_codec::Json::Arr(items) => items.iter().map(IoPortRange::from_json).collect(),
            _ => Err(xoar_codec::JsonError::expected("array", "IoPortSet")),
        }
    }
}

/// An ordered set of [`MmioRange`]s answering frame queries by binary
/// search, mirroring [`IoPortSet`] (ends here are exclusive:
/// `start_mfn + frames`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MmioSet {
    ranges: Vec<MmioRange>,
    prefix_max_end: Vec<u64>,
}

impl MmioSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `range`; returns whether it was newly added.
    pub fn insert(&mut self, range: MmioRange) -> bool {
        match self.ranges.binary_search(&range) {
            Ok(_) => false,
            Err(pos) => {
                self.ranges.insert(pos, range);
                self.rebuild_prefix();
                true
            }
        }
    }

    /// Whether any region contains `mfn`.
    pub fn contains_mfn(&self, mfn: u64) -> bool {
        let n = self.ranges.partition_point(|r| r.start_mfn <= mfn);
        n > 0 && self.prefix_max_end[n - 1] > mfn
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the set has no regions.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Regions in `(start_mfn, frames)` order.
    pub fn iter(&self) -> impl Iterator<Item = &MmioRange> {
        self.ranges.iter()
    }

    fn rebuild_prefix(&mut self) {
        self.prefix_max_end.clear();
        let mut max = 0u64;
        for r in &self.ranges {
            max = max.max(r.start_mfn + r.frames);
            self.prefix_max_end.push(max);
        }
    }
}

impl FromIterator<MmioRange> for MmioSet {
    fn from_iter<I: IntoIterator<Item = MmioRange>>(iter: I) -> Self {
        let mut s = MmioSet::default();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl xoar_codec::ToJson for MmioSet {
    fn to_json(&self) -> xoar_codec::Json {
        xoar_codec::Json::Arr(self.iter().map(|r| r.to_json()).collect())
    }
}

impl xoar_codec::FromJson for MmioSet {
    fn from_json(value: &xoar_codec::Json) -> Result<Self, xoar_codec::JsonError> {
        match value {
            xoar_codec::Json::Arr(items) => items.iter().map(MmioRange::from_json).collect(),
            _ => Err(xoar_codec::JsonError::expected("array", "MmioSet")),
        }
    }
}

/// The complete set of extra privileges assigned to a domain.
///
/// An ordinary guest has `PrivilegeSet::default()`: no assigned devices, no
/// privileged hypercalls, no delegation. Stock Xen's Dom0 is modelled by
/// [`PrivilegeSet::dom0`], which holds everything — the "monolithic trust
/// domain" of Figure 2.1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrivilegeSet {
    /// PCI devices passed through to this domain.
    pub pci_devices: BTreeSet<PciAddress>,
    /// Privileged hypercalls this domain may issue beyond the unprivileged
    /// default set.
    pub hypercalls: HypercallSet,
    /// Toolstacks this shard is delegated to: each may use it for its
    /// guests. Delegation gives use, not management.
    pub delegated_to: BTreeSet<DomId>,
    /// I/O port ranges this domain may access.
    pub io_ports: IoPortSet,
    /// MMIO regions this domain may map.
    pub mmio: MmioSet,
    /// Physical IRQ lines routed to this domain.
    pub irqs: BTreeSet<u32>,
    /// Whether the domain may map arbitrary guest memory (the blanket
    /// "Dom0 privilege"; in Xoar only the Builder holds this).
    pub map_foreign_any: bool,
}

xoar_codec::impl_json_struct!(PrivilegeSet {
    pci_devices,
    hypercalls,
    delegated_to,
    io_ports,
    mmio,
    irqs,
    map_foreign_any,
});

impl PrivilegeSet {
    /// The blanket privilege set of stock Xen's Dom0.
    pub fn dom0() -> Self {
        PrivilegeSet {
            map_foreign_any: true,
            hypercalls: HypercallId::ALL
                .into_iter()
                .filter(|id| id.is_privileged())
                .collect(),
            io_ports: [IoPortRange::new(0, u16::MAX)].into_iter().collect(),
            ..Default::default()
        }
    }

    /// Implements `assign_pci_device` from Figure 3.1.
    pub fn assign_pci_device(&mut self, addr: PciAddress) {
        self.pci_devices.insert(addr);
    }

    /// Implements `permit_hypercall` from Figure 3.1.
    pub fn permit_hypercall(&mut self, id: HypercallId) {
        self.hypercalls.insert(id);
    }

    /// Implements `allow_delegation` from Figure 3.1.
    pub fn allow_delegation(&mut self, guest: DomId) {
        self.delegated_to.insert(guest);
    }

    /// Whether the domain may issue privileged hypercall `id` — one bit
    /// test on the whitelist bitset.
    pub fn permits_hypercall(&self, id: HypercallId) -> bool {
        !id.is_privileged() || self.hypercalls.contains(id)
    }

    /// Whether the domain may access I/O port `port` — binary search over
    /// the sorted ranges.
    pub fn permits_io_port(&self, port: u16) -> bool {
        self.io_ports.contains_port(port)
    }

    /// Whether the domain may map MMIO frame `mfn` — binary search over
    /// the sorted regions.
    pub fn permits_mmio(&self, mfn: u64) -> bool {
        self.mmio.contains_mfn(mfn)
    }

    /// Whether the set is completely empty (a plain guest).
    pub fn is_unprivileged(&self) -> bool {
        self.pci_devices.is_empty()
            && self.hypercalls.is_empty()
            && self.delegated_to.is_empty()
            && self.io_ports.is_empty()
            && self.mmio.is_empty()
            && self.irqs.is_empty()
            && !self.map_foreign_any
    }

    /// A coarse scalar measure of how much authority the set carries; used
    /// by the security-evaluation crate to compare configurations.
    pub fn authority_score(&self) -> u64 {
        let mut score = 0u64;
        score += self.pci_devices.len() as u64 * 10;
        score += self
            .hypercalls
            .iter()
            .map(|h| h.risk_weight() as u64)
            .sum::<u64>();
        score += self.delegated_to.len() as u64;
        score += self.io_ports.len() as u64 * 2;
        score += self.mmio.len() as u64 * 2;
        score += self.irqs.len() as u64;
        if self.map_foreign_any {
            score += 100;
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_is_unprivileged() {
        let p = PrivilegeSet::default();
        assert!(p.is_unprivileged());
        assert_eq!(p.authority_score(), 0);
    }

    #[test]
    fn dom0_set_is_maximal() {
        let p = PrivilegeSet::dom0();
        assert!(p.map_foreign_any);
        assert!(p.permits_io_port(0x3f8));
        assert!(p.permits_hypercall(HypercallId::DomctlCreateDomain));
        assert!(p.authority_score() > 100);
    }

    #[test]
    fn figure_3_1_api() {
        let mut p = PrivilegeSet::default();
        p.assign_pci_device(PciAddress::new(0, 2, 0));
        p.permit_hypercall(HypercallId::GnttabMapGrantRef);
        p.allow_delegation(DomId(5));
        assert!(p.pci_devices.contains(&PciAddress::new(0, 2, 0)));
        assert!(p.permits_hypercall(HypercallId::GnttabMapGrantRef));
        assert!(p.delegated_to.contains(&DomId(5)));
        assert!(!p.is_unprivileged());
    }

    #[test]
    fn unprivileged_hypercalls_always_permitted() {
        let p = PrivilegeSet::default();
        assert!(p.permits_hypercall(HypercallId::EvtchnSend));
        assert!(!p.permits_hypercall(HypercallId::DomctlDestroyDomain));
    }

    #[test]
    fn io_port_ranges() {
        let r = IoPortRange::new(0x3f8, 0x3ff);
        assert!(r.contains(0x3f8));
        assert!(r.contains(0x3ff));
        assert!(!r.contains(0x400));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_io_range_panics() {
        IoPortRange::new(10, 5);
    }

    #[test]
    fn mmio_ranges() {
        let r = MmioRange {
            start_mfn: 100,
            frames: 4,
        };
        assert!(r.contains(100));
        assert!(r.contains(103));
        assert!(!r.contains(104));
        assert!(!r.contains(99));
    }

    #[test]
    fn pci_address_display() {
        let a = PciAddress::new(0, 2, 1);
        assert_eq!(a.to_string(), "0000:02:01");
    }
}
