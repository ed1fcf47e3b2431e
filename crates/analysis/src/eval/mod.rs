//! The security evaluation of §6.2: the vulnerability census of §2.2.1
//! ([`corpus`](mod@corpus)), attack replay with blast-radius analysis, TCB
//! accounting, the attack-surface survey of §2.1/§4.1, and the temporal
//! exposure of §3.3 ([`freshness`]).
//!
//! Containment, TCB and surface are read off one [`ModelSnapshot`] and
//! its [`Reachability`] matrix — the model the analyzer audits — and
//! classify reach by path label:
//!
//! * a [`MemPath::BlanketForeign`] or [`MemPath::PrivilegedFor`] path
//!   is memory compromise: the accessor may map any frame of the owner;
//! * a [`MemPath::Grant`] path reaches only the ring pages a backend
//!   serves, which carry the owner's traffic, not its memory;
//! * the guests a toolstack manages are those whose
//!   [`DomainInfo::parent_toolstack`](crate::snapshot::DomainInfo::parent_toolstack)
//!   names it.
//!
//! Each public function takes a live [`Platform`], captures it once and
//! computes reach once.

use std::collections::BTreeSet;

use xoar_core::platform::{Platform, PlatformMode};
use xoar_hypervisor::{DomId, DomainRole};

use crate::reach::{MemPath, Reachability};
use crate::snapshot::ModelSnapshot;

pub mod corpus;
pub mod freshness;

pub use corpus::{census, corpus, AttackVector, Vulnerability};
pub use freshness::{exposure, TemporalExposure};

/// The live guests `toolstack` manages.
fn managed(snap: &ModelSnapshot, toolstack: DomId) -> impl Iterator<Item = DomId> + '_ {
    snap.live_domains()
        .filter(move |d| d.role == DomainRole::Guest && d.parent_toolstack == Some(toolstack))
        .map(|d| d.id)
}

// ----- containment (§6.2.1): an attack lands in the component its
// vector names and gains that component's reach row.

/// The blast radius of a successful exploit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastRadius {
    /// The domain the attacker now controls.
    pub compromised: DomId,
    /// Domains whose memory the attacker can map at will (a blanket or
    /// `privileged_for` path). Grant paths are not counted: they reach
    /// only the granted ring pages, and count as traffic.
    pub memory_of: BTreeSet<DomId>,
    /// Domains whose I/O the attacker can intercept: the owners of the
    /// grants it holds, plus the guests it manages as their toolstack.
    pub traffic_of: BTreeSet<DomId>,
    /// Whether the attacker can manage (create/destroy) other VMs.
    pub can_manage_vms: bool,
    /// Whether the compromise takes down the entire host.
    pub host_compromised: bool,
}

/// The §6.2.1 verdict classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The attacker owns the platform (stock Xen control-VM attacks).
    FullPlatformCompromise,
    /// Contained entirely to the component; "no rights over any other
    /// VM" beyond the attacking guest itself.
    ContainedToComponent,
    /// Limited to the guests sharing the compromised component.
    LimitedToSharers,
    /// Mitigable by deprivileging guests (debug registers) — on either
    /// platform.
    Mitigable,
    /// Already fixed in the baseline version (the XenStore bugs).
    FixedInBaseline,
    /// Not protected: the hypervisor itself is compromised.
    NotProtected,
}

/// Resolves which domain an attack vector lands in on `platform`,
/// launched from `attacker`.
pub fn landing_domain(platform: &Platform, attacker: DomId, vector: AttackVector) -> Option<DomId> {
    let s = &platform.services;
    match vector {
        AttackVector::DeviceEmulation => {
            // The attacker's own device model (stub domain on Xoar, Dom0
            // on stock Xen).
            platform.guest(attacker).and_then(|g| g.qemu).or({
                // PV guests have no device model; the vector is moot, but
                // the census replays it against a platform with HVM
                // guests, so fall back to the platform's model host.
                match platform.mode {
                    PlatformMode::StockXen => Some(s.builder),
                    PlatformMode::Xoar => None,
                }
            })
        }
        AttackVector::VirtualizedDevice => platform.guest(attacker).and_then(|g| g.netback),
        AttackVector::Management => platform.guest(attacker).map(|g| g.toolstack),
        AttackVector::XenStore => Some(s.xenstore),
        AttackVector::DebugRegister | AttackVector::Hypervisor => None,
    }
}

/// Computes the blast radius of controlling `dom` on `platform`.
pub fn blast_radius(platform: &Platform, dom: DomId) -> BlastRadius {
    let snap = ModelSnapshot::capture(platform);
    radius(&snap, &Reachability::compute(&snap), dom)
}

/// The blast radius of controlling `dom`, read off its reach row.
fn radius(snap: &ModelSnapshot, reach: &Reachability, dom: DomId) -> BlastRadius {
    let d = snap.domains.get(&dom).expect("live domain");
    let blanket = d.privileges.map_foreign_any;
    let mut traffic_of: BTreeSet<DomId> = managed(snap, dom).collect();
    let can_manage_vms = blanket
        || !traffic_of.is_empty()
        || !d.privileges.delegated_to.is_empty() && d.kind == "toolstack";
    let mut memory_of = BTreeSet::new();
    for (owner, paths) in reach.row(dom) {
        if paths.iter().any(|p| p.maps_at_will()) {
            memory_of.insert(owner);
        }
        if paths.iter().any(|p| matches!(p, MemPath::Grant { .. })) {
            traffic_of.insert(owner);
        }
    }
    let host_compromised = dom.is_dom0() && snap.dom0_failure_is_fatal
        || blanket && snap.mode == Some(PlatformMode::StockXen);
    BlastRadius {
        compromised: dom,
        memory_of,
        traffic_of,
        can_manage_vms,
        host_compromised,
    }
}

/// Replays one vulnerability from `attacker` and classifies the outcome.
fn replay(
    platform: &Platform,
    snap: &ModelSnapshot,
    reach: &Reachability,
    attacker: DomId,
    vuln: &Vulnerability,
) -> Verdict {
    if vuln.fixed_in_baseline {
        return Verdict::FixedInBaseline;
    }
    match vuln.vector {
        AttackVector::Hypervisor => Verdict::NotProtected,
        AttackVector::DebugRegister => Verdict::Mitigable,
        vector => {
            let Some(dom) = landing_domain(platform, attacker, vector) else {
                return Verdict::ContainedToComponent;
            };
            let radius = radius(snap, reach, dom);
            if radius.host_compromised {
                return Verdict::FullPlatformCompromise;
            }
            // Does the attacker reach anything beyond itself?
            if radius.memory_of.iter().any(|d| *d != attacker) {
                // Memory of other domains: on Xoar only the Builder has
                // that, and it is not on any attack vector.
                Verdict::FullPlatformCompromise
            } else if radius.traffic_of.iter().any(|d| *d != attacker) {
                Verdict::LimitedToSharers
            } else {
                Verdict::ContainedToComponent
            }
        }
    }
}

/// The containment table: per-verdict counts for one platform.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContainmentReport {
    /// (verdict, count) pairs in a stable order.
    pub counts: Vec<(Verdict, usize)>,
}

/// Replays every guest-originated Xen attack from `attacker` against
/// `platform` and tabulates the verdicts.
pub fn evaluate(
    platform: &Platform,
    attacker: DomId,
    corpus: &[Vulnerability],
) -> ContainmentReport {
    use Verdict::*;
    let snap = ModelSnapshot::capture(platform);
    let reach = Reachability::compute(&snap);
    let mut counts = vec![
        (FullPlatformCompromise, 0),
        (ContainedToComponent, 0),
        (LimitedToSharers, 0),
        (Mitigable, 0),
        (FixedInBaseline, 0),
        (NotProtected, 0),
    ];
    for vuln in corpus
        .iter()
        .filter(|v| v.guest_originated && v.targets_xen && v.attack_count > 0)
    {
        let verdict = replay(platform, &snap, &reach, attacker, vuln);
        counts
            .iter_mut()
            .find(|(v, _)| *v == verdict)
            .expect("all verdicts enumerated")
            .1 += vuln.attack_count as usize;
    }
    ContainmentReport { counts }
}

impl ContainmentReport {
    /// Count for one verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.counts
            .iter()
            .find(|(k, _)| *k == v)
            .map_or(0, |(_, c)| *c)
    }
}

// ----- TCB accounting (§6.2): "the set of components that S trusts
// not to violate the security of S", 7.6 M lines of Linux on stock Xen
// against 13 K of nanOS on Xoar, both above Xen's 280 K.

/// Line-count figures for a software component (source, compiled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// Source lines of code.
    pub source: u64,
    /// Lines reachable in the compiled configuration.
    pub compiled: u64,
}

/// A trusted component with its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// Its size.
    pub loc: Loc,
}

/// The paper's code-size figures.
pub mod sizes {
    use super::Loc;

    /// The Xen hypervisor.
    pub const XEN: Loc = Loc {
        source: 280_000,
        compiled: 70_000,
    };
    /// A full Dom0 Linux.
    pub const LINUX: Loc = Loc {
        source: 7_600_000,
        compiled: 400_000,
    };
    /// nanOS plus the Builder logic.
    pub const NANOS: Loc = Loc {
        source: 13_000,
        compiled: 8_000,
    };
}

/// A guest's TCB on a given platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbReport {
    /// The trusted components.
    pub components: Vec<Component>,
    /// Total source lines.
    pub total_source: u64,
    /// Total compiled lines.
    pub total_compiled: u64,
}

/// Computes the TCB of `guest` on `platform`.
///
/// The hypervisor is always trusted. Beyond it, every live domain with
/// a blanket or `privileged_for` path to the guest is trusted with the
/// line count of its OS stack.
pub fn tcb_of_guest(platform: &Platform, guest: DomId) -> TcbReport {
    let snap = ModelSnapshot::capture(platform);
    let reach = Reachability::compute(&snap);
    // The Builder runs nanOS; a per-guest QemuVM runs miniOS (counted
    // within the nanOS-scale figure as the paper attributes the
    // arbitrary-access TCB to nanOS alone).
    let loc = match snap.mode {
        Some(PlatformMode::StockXen) => sizes::LINUX,
        _ => sizes::NANOS,
    };
    let mut components = vec![Component {
        name: "xen-hypervisor".into(),
        loc: sizes::XEN,
    }];
    for d in snap.live_domains() {
        if reach.maps_at_will(d.id, guest) {
            components.push(Component {
                name: d.name.clone(),
                loc,
            });
        }
    }
    let total_source = components.iter().map(|c| c.loc.source).sum();
    let total_compiled = components.iter().map(|c| c.loc.compiled).sum();
    TcbReport {
        components,
        total_source,
        total_compiled,
    }
}

impl TcbReport {
    /// Source lines on top of the hypervisor.
    pub fn above_hypervisor_source(&self) -> u64 {
        self.total_source - sizes::XEN.source
    }

    /// Compiled lines on top of the hypervisor.
    pub fn above_hypervisor_compiled(&self) -> u64 {
        self.total_compiled - sizes::XEN.compiled
    }
}

// ----- attack surface (§2.1, §4.1): per component, (interfaces exposed
// to guests) × (authority held). Disaggregation keeps the interface
// total but collapses the weakest-link product: stock Xen puts every
// guest-facing interface in the domain that also holds blanket authority.

/// The guest-facing interface count and authority of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSurface {
    /// The component's domain.
    pub dom: DomId,
    /// Component name.
    pub name: String,
    /// Event-channel connections to guest domains.
    pub guest_event_channels: usize,
    /// Grant entries guests have extended to this component (ring pages
    /// it can map).
    pub guest_grants: usize,
    /// Guests this component serves on a data or control path: those it
    /// reaches by a grant or `privileged_for` path, or manages.
    pub guests_served: usize,
    /// The component's privilege authority score
    /// ([`xoar_hypervisor::PrivilegeSet::authority_score`]).
    pub authority: u64,
}

impl ComponentSurface {
    /// Total guest-facing interface count.
    pub fn interfaces(&self) -> usize {
        self.guest_event_channels + self.guest_grants + self.guests_served
    }

    /// The risk product: interfaces × authority.
    pub fn risk_product(&self) -> u64 {
        self.interfaces() as u64 * self.authority.max(1)
    }
}

/// The whole platform's surface survey.
#[derive(Debug, Clone)]
pub struct SurfaceSurvey {
    /// Per-component rows, sorted by risk product (highest first).
    pub components: Vec<ComponentSurface>,
}

impl SurfaceSurvey {
    /// The weakest link: the component with the highest risk product.
    pub fn weakest_link(&self) -> Option<&ComponentSurface> {
        self.components.first()
    }

    /// Sum of guest-facing interfaces across all components.
    pub fn total_interfaces(&self) -> usize {
        self.components.iter().map(|c| c.interfaces()).sum()
    }
}

/// Surveys every live service component of `platform`.
pub fn survey(platform: &Platform) -> SurfaceSurvey {
    let snap = ModelSnapshot::capture(platform);
    let reach = Reachability::compute(&snap);
    let is_guest = |id: DomId| {
        snap.domains
            .get(&id)
            .is_some_and(|d| d.role == DomainRole::Guest)
    };
    let mut components: Vec<ComponentSurface> = snap
        .live_domains()
        .filter(|d| d.role != DomainRole::Guest)
        .map(|d| {
            let id = d.id;
            let guest_event_channels = snap
                .channels
                .iter()
                .filter(|&&(a, b)| a == id && is_guest(b) || b == id && is_guest(a))
                .count();
            let guest_grants = snap
                .grants
                .iter()
                .filter(|g| g.grantee == id && is_guest(g.granter))
                .count();
            let mut served: BTreeSet<DomId> = managed(&snap, id).collect();
            served.extend(reach.row(id).filter_map(|(owner, paths)| {
                let serves = paths.iter().any(|p| *p != MemPath::BlanketForeign);
                (serves && is_guest(owner)).then_some(owner)
            }));
            ComponentSurface {
                dom: id,
                name: d.name.clone(),
                guest_event_channels,
                guest_grants,
                guests_served: served.len(),
                authority: d.privileges.authority_score(),
            }
        })
        .collect();
    components.sort_by_key(|c| std::cmp::Reverse(c.risk_product()));
    SurfaceSurvey { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_core::platform::{GuestConfig, XoarConfig};

    fn hvm_guest(p: &mut Platform, name: &str) -> DomId {
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest(name);
        cfg.hvm = true;
        p.create_guest(ts, cfg).unwrap()
    }

    fn guest_on(p: &mut Platform) -> DomId {
        let ts = p.services.toolstacks[0];
        p.create_guest(ts, GuestConfig::evaluation_guest("g"))
            .unwrap()
    }

    fn populate(p: &mut Platform, n: usize) {
        let ts = p.services.toolstacks[0];
        for i in 0..n {
            p.create_guest(ts, GuestConfig::evaluation_guest(&format!("g{i}")))
                .unwrap();
        }
    }

    // ----- containment -----

    #[test]
    fn stock_xen_control_vm_attacks_own_the_host() {
        let mut p = Platform::stock_xen();
        let attacker = hvm_guest(&mut p, "attacker");
        let _victim = hvm_guest(&mut p, "victim");
        for vector in [
            AttackVector::DeviceEmulation,
            AttackVector::VirtualizedDevice,
            AttackVector::Management,
            AttackVector::XenStore,
        ] {
            let dom = landing_domain(&p, attacker, vector).unwrap();
            assert_eq!(dom, DomId::DOM0, "{vector:?} lands in Dom0");
            let radius = blast_radius(&p, dom);
            assert!(
                radius.host_compromised,
                "{vector:?} owns the host on stock Xen"
            );
        }
    }

    #[test]
    fn xoar_device_emulation_contained() {
        let mut p = Platform::xoar(XoarConfig::default());
        let attacker = hvm_guest(&mut p, "attacker");
        let victim = hvm_guest(&mut p, "victim");
        let qemu = landing_domain(&p, attacker, AttackVector::DeviceEmulation).unwrap();
        let radius = blast_radius(&p, qemu);
        assert!(!radius.host_compromised);
        // "An attacker exploiting a vulnerability in the emulated device
        // model will now have the full privileges of the QemuVM … and has
        // no rights over any other VM."
        assert_eq!(radius.memory_of.iter().collect::<Vec<_>>(), vec![&attacker]);
        assert!(!radius.memory_of.contains(&victim));
        assert!(!radius.can_manage_vms);
    }

    #[test]
    fn xoar_netback_compromise_limited_to_sharers() {
        let mut p = Platform::xoar(XoarConfig::default());
        let attacker = hvm_guest(&mut p, "attacker");
        let victim = hvm_guest(&mut p, "victim");
        let nb = landing_domain(&p, attacker, AttackVector::VirtualizedDevice).unwrap();
        let radius = blast_radius(&p, nb);
        assert!(!radius.host_compromised);
        // "compromising NetBack would allow intercepting the network
        // traffic of another VM relying on the same NetBack, but not
        // reading or writing its memory."
        assert!(radius.traffic_of.contains(&victim));
        assert!(radius.memory_of.is_empty());
    }

    #[test]
    fn section_6_2_1_verdicts_on_xoar() {
        let mut p = Platform::xoar(XoarConfig::default());
        let attacker = hvm_guest(&mut p, "attacker");
        let _victim = hvm_guest(&mut p, "victim");
        let report = evaluate(&p, attacker, &corpus::corpus());
        // 7 device-emulation attacks entirely contained.
        assert_eq!(report.count(Verdict::ContainedToComponent), 7);
        // "The 6 attacks on the virtualized device layer and the 1 attack
        // on the toolstack would yield control only over those VMs that
        // shared the same BlkBack, NetBack and Toolstack components."
        assert_eq!(report.count(Verdict::LimitedToSharers), 7);
        // 2 debug-register exploits mitigable.
        assert_eq!(report.count(Verdict::Mitigable), 2);
        // 2 XenStore bugs already fixed.
        assert_eq!(report.count(Verdict::FixedInBaseline), 2);
        // 1 hypervisor exploit not protected.
        assert_eq!(report.count(Verdict::NotProtected), 1);
        // Nothing yields a full platform compromise on Xoar.
        assert_eq!(report.count(Verdict::FullPlatformCompromise), 0);
    }

    #[test]
    fn same_attacks_on_stock_xen_are_catastrophic() {
        let mut p = Platform::stock_xen();
        let attacker = hvm_guest(&mut p, "attacker");
        let report = evaluate(&p, attacker, &corpus::corpus());
        // All 14 control-VM attacks (7 emulation + 6 virtualized-device +
        // 1 toolstack) own the host on stock Xen.
        assert_eq!(report.count(Verdict::FullPlatformCompromise), 14);
        assert_eq!(report.count(Verdict::ContainedToComponent), 0);
        assert_eq!(report.count(Verdict::LimitedToSharers), 0);
    }

    #[test]
    fn toolstack_compromise_reaches_only_its_vms() {
        let mut p = Platform::xoar(XoarConfig {
            toolstacks: 2,
            ..Default::default()
        });
        let ts1 = p.services.toolstacks[0];
        let ts2 = p.services.toolstacks[1];
        let g1 = p
            .create_guest(ts1, GuestConfig::evaluation_guest("a"))
            .unwrap();
        let g2 = p
            .create_guest(ts2, GuestConfig::evaluation_guest("b"))
            .unwrap();
        let radius = blast_radius(&p, ts1);
        assert!(radius.traffic_of.contains(&g1));
        assert!(
            !radius.traffic_of.contains(&g2),
            "other toolstack's guests unreachable"
        );
        assert!(radius.can_manage_vms);
        assert!(!radius.host_compromised);
    }

    #[test]
    fn builder_is_the_remaining_crown_jewel() {
        // §6.2: only the Builder retains arbitrary memory access — the
        // analysis must reflect that it is the one shard whose compromise
        // would be platform-fatal, which is why it runs nanOS.
        let mut p = Platform::xoar(XoarConfig::default());
        let _g = hvm_guest(&mut p, "g");
        let radius = blast_radius(&p, p.services.builder);
        assert!(!radius.memory_of.is_empty());
        assert!(radius.can_manage_vms);
        // But no §6.2.1 attack vector lands in the Builder.
        for vector in [
            AttackVector::DeviceEmulation,
            AttackVector::VirtualizedDevice,
            AttackVector::Management,
            AttackVector::XenStore,
        ] {
            assert_ne!(
                landing_domain(&p, DomId(99), vector),
                Some(p.services.builder)
            );
        }
    }

    // ----- TCB -----

    #[test]
    fn stock_xen_tcb_is_linux_plus_xen() {
        let mut p = Platform::stock_xen();
        let g = guest_on(&mut p);
        let tcb = tcb_of_guest(&p, g);
        assert_eq!(tcb.above_hypervisor_source(), 7_600_000);
        assert_eq!(tcb.above_hypervisor_compiled(), 400_000);
        assert_eq!(tcb.components.len(), 2, "xen + dom0");
    }

    #[test]
    fn xoar_tcb_is_nanos_plus_xen() {
        let mut p = Platform::xoar(XoarConfig::default());
        let g = guest_on(&mut p);
        let tcb = tcb_of_guest(&p, g);
        // Only the Builder (nanOS) retains arbitrary access.
        assert_eq!(tcb.above_hypervisor_source(), 13_000);
        assert_eq!(tcb.above_hypervisor_compiled(), 8_000);
        let names: Vec<&str> = tcb.components.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"Builder"), "{names:?}");
        assert!(
            !names.iter().any(|n| n.contains("NetBack")),
            "drivers not in the memory TCB"
        );
    }

    #[test]
    fn paper_headline_reduction_factor() {
        let mut stock = Platform::stock_xen();
        let gs = guest_on(&mut stock);
        let mut xoar = Platform::xoar(XoarConfig::default());
        let gx = guest_on(&mut xoar);
        let before = tcb_of_guest(&stock, gs).above_hypervisor_source();
        let after = tcb_of_guest(&xoar, gx).above_hypervisor_source();
        let factor = before as f64 / after as f64;
        assert!((factor - 584.6).abs() < 1.0, "7.6M/13K ≈ 585×: {factor:.1}");
    }

    #[test]
    fn hvm_guest_additionally_trusts_its_own_stub() {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest("hvm");
        cfg.hvm = true;
        let g = p.create_guest(ts, cfg).unwrap();
        let other = guest_on(&mut p);
        let tcb_hvm = tcb_of_guest(&p, g);
        let tcb_pv = tcb_of_guest(&p, other);
        assert_eq!(
            tcb_hvm.components.len(),
            tcb_pv.components.len() + 1,
            "the stub QemuVM is in its own guest's TCB only"
        );
    }

    #[test]
    fn hypervisor_always_included() {
        let p = Platform::xoar(XoarConfig::default());
        let tcb = tcb_of_guest(&p, DomId(999));
        assert_eq!(tcb.components[0].name, "xen-hypervisor");
        assert!(tcb.total_source >= sizes::XEN.source);
    }

    // ----- attack surface -----

    #[test]
    fn stock_xen_concentrates_everything_in_dom0() {
        let mut p = Platform::stock_xen();
        populate(&mut p, 3);
        let s = survey(&p);
        assert_eq!(s.components.len(), 1, "one service component: Dom0");
        let dom0 = &s.components[0];
        assert!(
            dom0.guest_event_channels >= 3,
            "event channels to every guest"
        );
        assert!(dom0.guest_grants >= 6, "net + blk ring grants per guest");
        assert_eq!(dom0.guests_served, 3);
        assert!(dom0.authority > 100, "blanket privileges");
    }

    #[test]
    fn xoar_splits_the_surface_across_shards() {
        let mut p = Platform::xoar(XoarConfig::default());
        populate(&mut p, 3);
        let s = survey(&p);
        assert!(
            s.components.len() >= 6,
            "many service components: {}",
            s.components.len()
        );
        // No single Xoar component touches every interface class.
        for c in &s.components {
            assert!(
                c.interfaces() < s.total_interfaces(),
                "{} holds the whole surface",
                c.name
            );
        }
    }

    #[test]
    fn weakest_link_product_collapses_under_xoar() {
        let mut stock = Platform::stock_xen();
        populate(&mut stock, 3);
        let mut xoar = Platform::xoar(XoarConfig::default());
        populate(&mut xoar, 3);
        let worst_stock = survey(&stock).weakest_link().unwrap().risk_product();
        let worst_xoar = survey(&xoar).weakest_link().unwrap().risk_product();
        assert!(
            worst_stock > 10 * worst_xoar,
            "weakest link must collapse by an order of magnitude: {worst_stock} vs {worst_xoar}"
        );
    }

    #[test]
    fn total_interfaces_comparable_across_platforms() {
        // Disaggregation redistributes the surface; it does not magically
        // shrink the services guests need.
        let mut stock = Platform::stock_xen();
        populate(&mut stock, 3);
        let mut xoar = Platform::xoar(XoarConfig::default());
        populate(&mut xoar, 3);
        let t_stock = survey(&stock).total_interfaces() as f64;
        let t_xoar = survey(&xoar).total_interfaces() as f64;
        assert!(t_xoar / t_stock > 0.7, "ratio {}", t_xoar / t_stock);
        assert!(t_xoar / t_stock < 2.0, "ratio {}", t_xoar / t_stock);
    }

    #[test]
    fn data_path_shards_carry_interfaces_but_little_authority() {
        let mut p = Platform::xoar(XoarConfig::default());
        populate(&mut p, 2);
        let s = survey(&p);
        let netback = s
            .components
            .iter()
            .find(|c| c.name == "NetBack")
            .expect("netback surveyed");
        assert!(netback.interfaces() > 0, "guests talk to it");
        // Its authority is the PCI passthrough only.
        assert!(netback.authority <= 15, "authority {}", netback.authority);
        // The Builder is the mirror image: huge authority, no guest
        // interfaces.
        let builder = s.components.iter().find(|c| c.name == "Builder").unwrap();
        assert_eq!(builder.guest_event_channels, 0);
        assert!(builder.authority > netback.authority);
    }
}
