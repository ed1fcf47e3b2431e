//! The frame table's run paths against a frame-by-frame model.
//!
//! `populate` and the clone stamp take their frames as one run of the
//! frame table, a vacant-set word at a time, and every free path edits
//! and frees a frame in one slot access. The model below is the
//! reference they must match: one frame at a time, each allocation
//! taking the lowest vacant slot (a sorted set) or a new slot past the
//! end, each free bumping its slot's generation. Every case drives a
//! hypervisor and the model through the same random ops: populate,
//! destroy, guest writes that break copy-on-write sharing, dedup
//! sweeps, clones whose stamp privatises their granted pages, and
//! grant map and unmap. After each op it compares the op's outcome,
//! every domain's p2m, every slot's generation and liveness, the free
//! count, the table length and `check_consistency`, and at the end of
//! each case every live frame's owner, mappers, mapping count and body.
//!
//! Each case starts with a guest of more than 4,096 frames, so its
//! release leaves a vacant set spanning more than one selector word.
//! Granted frames survive their owner's release until the last unmap,
//! deduplicated frames survive one mapper's release, and an
//! `OutOfFrames` refusal must leave every compared value unchanged.

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::grant::{GrantAccess, GrantRef};
use xoar_hypervisor::memory::{Mfn, Pfn};
use xoar_hypervisor::{
    DomId, DomainRole, HostConfig, HvResult, Hypercall, Hypervisor, PrivilegeSet,
};
use xoar_sim::prop::{Gen, Runner};

/// The first MFN of the frame table.
const BASE: u64 = 0x1000;

/// Host memory: 6,144 frames, room for one guest past 4,096 frames.
const HOST_MIB: u64 = 24;

/// Dom0's memory; it holds a quarter of this in frames.
const DOM0_MIB: u64 = 64;

/// A guest's declared memory; creation needs a quarter of it in frames
/// free.
const GUEST_MIB: u64 = 16;

/// Frames per MiB, and the share of a domain's declared memory its
/// creation admits or its boot populates.
const ADMIT: u64 = 256 / 64;

/// One live frame of the model.
#[derive(Debug, Clone)]
struct Frame {
    owner: DomId,
    /// `(dom, pfn)` mappers.
    refs: Vec<(DomId, u64)>,
    /// Grant and foreign mappings.
    mappings: u32,
    /// The body's tag, or `None` for the empty page.
    body: Option<u8>,
}

/// One grant entry of the model.
#[derive(Debug, Clone)]
struct Grant {
    pfn: u64,
    slot: usize,
    gen: u32,
    maps: u32,
}

/// What the model knows of a domain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Created, possibly populated, not yet running.
    Building,
    Running,
    /// Sealed, with this many live clones.
    Template(u64),
    Clone(DomId),
}

/// The frame-by-frame reference.
#[derive(Debug, Clone, Default)]
struct Model {
    /// `(generation, frame)` per slot.
    slots: Vec<(u32, Option<Frame>)>,
    vacant: BTreeSet<usize>,
    free: u64,
    p2m: BTreeMap<DomId, BTreeMap<u64, usize>>,
    next_pfn: BTreeMap<DomId, u64>,
    live: BTreeMap<DomId, Kind>,
    /// Grant tables by granter, in grant-ref order. A dead granter's
    /// table stays while one of its entries is mapped.
    grants: BTreeMap<DomId, Vec<Grant>>,
    /// A template's granted PFNs, fixed at its first clone.
    plans: BTreeMap<DomId, Vec<u64>>,
}

impl Model {
    fn frame(&mut self, slot: usize) -> &mut Frame {
        self.slots[slot].1.as_mut().expect("model frame is live")
    }

    /// Takes the lowest vacant slot, or a new one, for one frame.
    fn alloc(&mut self, owner: DomId, pfn: u64, body: Option<u8>) -> usize {
        let slot = self.vacant.pop_first().unwrap_or_else(|| {
            self.slots.push((0, None));
            self.slots.len() - 1
        });
        self.slots[slot].1 = Some(Frame {
            owner,
            refs: vec![(owner, pfn)],
            mappings: 0,
            body,
        });
        self.free -= 1;
        slot
    }

    fn free(&mut self, slot: usize) -> Frame {
        let (gen, frame) = &mut self.slots[slot];
        *gen += 1;
        self.vacant.insert(slot);
        self.free += 1;
        frame.take().expect("model frees a live frame")
    }

    fn populate(&mut self, dom: DomId, n: u64) -> bool {
        if n > self.free {
            return false;
        }
        let next = self.next_pfn.entry(dom).or_default();
        let first = *next;
        *next += n;
        for pfn in first..first + n {
            let slot = self.alloc(dom, pfn, None);
            self.p2m.entry(dom).or_default().insert(pfn, slot);
        }
        true
    }

    fn create(&mut self, id: DomId) -> bool {
        if self.free < GUEST_MIB * ADMIT {
            return false;
        }
        self.live.insert(id, Kind::Building);
        true
    }

    fn is_template(&self, dom: DomId) -> bool {
        matches!(self.live.get(&dom), Some(Kind::Template(_)))
    }

    /// The frame (`dom`, `pfn`) reads, through a clone's template.
    fn translate(&self, dom: DomId, pfn: u64) -> Option<usize> {
        let own = self.p2m.get(&dom).and_then(|m| m.get(&pfn));
        own.or_else(|| match self.live.get(&dom) {
            Some(&Kind::Clone(tpl)) => self.p2m.get(&tpl)?.get(&pfn),
            _ => None,
        })
        .copied()
    }

    /// The CoW break: (`dom`, `pfn`) on a frame of its own.
    fn exclusive(&mut self, dom: DomId, pfn: u64) -> Option<usize> {
        let slot = self.translate(dom, pfn)?;
        let own = self.p2m.get(&dom).is_some_and(|m| m.contains_key(&pfn));
        if own && self.frame(slot).refs.len() <= 1 {
            return Some(slot);
        }
        if self.free == 0 {
            return None;
        }
        let body = self.frame(slot).body;
        let new = self.alloc(dom, pfn, body);
        self.frame(slot).refs.retain(|&r| r != (dom, pfn));
        self.p2m.entry(dom).or_default().insert(pfn, new);
        Some(new)
    }

    fn write(&mut self, dom: DomId, pfn: u64, body: u8) -> bool {
        if self.is_template(dom) {
            return false;
        }
        let Some(slot) = self.exclusive(dom, pfn) else {
            return false;
        };
        self.frame(slot).body = Some(body);
        true
    }

    fn grant(&mut self, owner: DomId, pfn: u64) -> Option<GrantRef> {
        let slot = self.exclusive(owner, pfn)?;
        let gen = self.slots[slot].0;
        let table = self.grants.entry(owner).or_default();
        table.push(Grant {
            pfn,
            slot,
            gen,
            maps: 0,
        });
        Some(GrantRef(table.len() as u32 - 1))
    }

    fn map(&mut self, granter: DomId, gref: usize) -> bool {
        let g = &self.grants[&granter][gref];
        let (slot, gen) = (g.slot, g.gen);
        if self.slots[slot].0 != gen || self.slots[slot].1.is_none() {
            return false;
        }
        self.frame(slot).mappings += 1;
        self.grants.get_mut(&granter).unwrap()[gref].maps += 1;
        true
    }

    fn unmap(&mut self, granter: DomId, gref: usize) -> bool {
        let table = self.grants.get_mut(&granter).unwrap();
        table[gref].maps -= 1;
        let slot = table[gref].slot;
        let f = self.frame(slot);
        f.mappings -= 1;
        if f.mappings == 0 && f.refs.is_empty() {
            self.free(slot);
        }
        self.drop_unheld_table(granter);
        true
    }

    fn drop_unheld_table(&mut self, dom: DomId) {
        let held = |t: &Vec<Grant>| t.iter().any(|g| g.maps > 0);
        if !self.live.contains_key(&dom) && !self.grants.get(&dom).is_some_and(held) {
            self.grants.remove(&dom);
        }
    }

    /// Seals `tpl` for a clone and returns the PFNs the clone's stamp
    /// takes, or `None` if the clone is refused: `tpl` has nothing to
    /// fork, or too few frames are free for the stamp.
    fn admit_clone(&mut self, tpl: DomId) -> Option<Vec<u64>> {
        if self.p2m.get(&tpl).is_none_or(|m| m.is_empty()) {
            return None;
        }
        let clones = match self.live[&tpl] {
            Kind::Template(n) => n,
            _ => 0,
        };
        self.live.insert(tpl, Kind::Template(clones));
        let table = self.grants.get(&tpl).map_or(&[][..], |t| t.as_slice());
        let plan: Vec<u64> = table.iter().map(|g| g.pfn).collect();
        let plan = self.plans.entry(tpl).or_insert(plan).clone();
        let missing: BTreeSet<u64> = plan.iter().copied().collect();
        (missing.len() as u64 <= self.free).then_some(plan)
    }

    fn clone_of(&mut self, tpl: DomId, id: DomId, plan: &[u64]) {
        if let Some(Kind::Template(n)) = self.live.get_mut(&tpl) {
            *n += 1;
        }
        self.live.insert(id, Kind::Clone(tpl));
        self.p2m.insert(id, BTreeMap::new());
        // Stamped in plan order, a repeated PFN once.
        for &pfn in plan {
            let slot = match self.p2m[&id].get(&pfn) {
                Some(&slot) => slot,
                None => {
                    let slot = self.alloc(id, pfn, None);
                    self.p2m.get_mut(&id).unwrap().insert(pfn, slot);
                    slot
                }
            };
            let gen = self.slots[slot].0;
            let table = self.grants.entry(id).or_default();
            table.push(Grant {
                pfn,
                slot,
                gen,
                maps: 0,
            });
        }
    }

    fn destroy(&mut self, dom: DomId) -> bool {
        match self.live.get(&dom) {
            None | Some(Kind::Template(1..)) => return false,
            Some(&Kind::Clone(tpl)) => {
                if let Some(Kind::Template(n)) = self.live.get_mut(&tpl) {
                    *n -= 1;
                }
            }
            Some(_) => {}
        }
        self.live.remove(&dom);
        self.plans.remove(&dom);
        for (pfn, slot) in self.p2m.remove(&dom).unwrap_or_default() {
            let f = self.frame(slot);
            f.refs.retain(|&r| r != (dom, pfn));
            if f.refs.is_empty() && f.mappings == 0 {
                self.free(slot);
            }
        }
        self.drop_unheld_table(dom);
        true
    }

    fn dedup(&mut self) {
        let mut granted = BTreeSet::new();
        for g in self.grants.values().flatten() {
            if self.slots[g.slot].0 == g.gen {
                granted.insert(g.slot);
            }
        }
        let mut groups: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
        for (slot, (_, f)) in self.slots.iter().enumerate() {
            let Some(f) = f else { continue };
            let template = f.refs.iter().any(|&(d, _)| self.is_template(d));
            if f.mappings > 0 || template || granted.contains(&slot) {
                continue;
            }
            if let Some(body) = f.body {
                groups.entry(body).or_default().push(slot);
            }
        }
        for group in groups.values() {
            let canonical = group[0];
            for &dup in &group[1..] {
                let f = self.free(dup);
                for &(d, p) in &f.refs {
                    self.p2m.get_mut(&d).unwrap().insert(p, canonical);
                }
                self.frame(canonical).refs.extend(f.refs);
            }
        }
    }
}

/// The bytes of a body tag.
fn body(tag: u8) -> Vec<u8> {
    format!("body-{tag}").into_bytes()
}

/// One case: a hypervisor, its model, and Dom0.
struct Case {
    hv: Hypervisor,
    model: Model,
    dom0: DomId,
}

impl Case {
    fn new() -> Case {
        let config = HostConfig {
            memory_mib: HOST_MIB,
            cpus: 1,
        };
        let mut hv = Hypervisor::new(config);
        let dom0 = hv
            .create_boot_domain(
                "dom0",
                DomainRole::ControlVm,
                DOM0_MIB,
                PrivilegeSet::dom0(),
            )
            .unwrap();
        let mut model = Model {
            free: hv.mem.total_frames(),
            ..Model::default()
        };
        model.live.insert(dom0, Kind::Running);
        assert!(model.populate(dom0, DOM0_MIB * ADMIT));
        Case { hv, model, dom0 }
    }

    fn call(&mut self, call: Hypercall) -> HvResult<xoar_hypervisor::HypercallRet> {
        self.hv.hypercall(self.dom0, call)
    }

    /// Creates a guest and populates `n` frames.
    fn create(&mut self, n: u64) {
        let create = Hypercall::DomctlCreateDomain {
            name: "guest".into(),
            memory_mib: GUEST_MIB,
            vcpus: 1,
        };
        let made = self.call(create);
        let Ok(ret) = made else {
            assert!(!self.model.create(DomId(u32::MAX)), "create refused");
            return;
        };
        let id = ret.dom_id().unwrap();
        assert!(self.model.create(id), "create admitted");
        self.populate(id, n);
    }

    fn populate(&mut self, target: DomId, frames: u64) {
        let done = self.call(Hypercall::MemoryPopulate { target, frames });
        assert_eq!(
            done.is_ok(),
            self.model.populate(target, frames),
            "populate {frames}"
        );
    }

    fn destroy(&mut self, target: DomId) {
        let done = self.call(Hypercall::DomctlDestroyDomain { target });
        assert_eq!(done.is_ok(), self.model.destroy(target), "destroy {target}");
    }

    fn write(&mut self, dom: DomId, pfn: u64, tag: u8) {
        let done = self.hv.mem.write(dom, Pfn(pfn), &body(tag));
        let want = self.model.write(dom, pfn, tag);
        assert_eq!(done.is_ok(), want, "write {dom} {pfn}: {done:?}");
    }

    fn grant(&mut self, owner: DomId, pfn: u64) {
        let setup = Hypercall::GnttabForeignSetup {
            owner,
            grantee: self.dom0,
            pfn: Pfn(pfn),
            access: GrantAccess::ReadWrite,
        };
        let done = self.call(setup).and_then(|r| r.grant_ref()).ok();
        assert_eq!(done, self.model.grant(owner, pfn), "grant {owner} {pfn}");
    }

    fn map(&mut self, granter: DomId, gref: usize) {
        let map = Hypercall::GnttabMapGrantRef {
            granter,
            gref: GrantRef(gref as u32),
        };
        let done = self.call(map);
        assert_eq!(
            done.is_ok(),
            self.model.map(granter, gref),
            "map {granter} {gref}"
        );
    }

    fn unmap(&mut self, granter: DomId, gref: usize) {
        let unmap = Hypercall::GnttabUnmapGrantRef {
            granter,
            gref: GrantRef(gref as u32),
        };
        let done = self.call(unmap);
        assert_eq!(
            done.is_ok(),
            self.model.unmap(granter, gref),
            "unmap {granter} {gref}"
        );
    }

    fn clone_of(&mut self, template: DomId) {
        if self.model.live[&template] == Kind::Building {
            self.call(Hypercall::DomctlUnpauseDomain { target: template })
                .unwrap();
            self.model.live.insert(template, Kind::Running);
        }
        let clone = Hypercall::DomctlCloneDomain {
            template,
            name: "clone".into(),
        };
        let live = self.hv.domain_ids();
        let clones = self.hv.mem.template_clones(template).unwrap_or(0);
        let done = self.call(clone).and_then(|r| r.dom_id());
        let plan = self.model.admit_clone(template);
        assert_eq!(
            done.is_ok(),
            plan.is_some(),
            "clone of {template}: {done:?}"
        );
        match (done, plan) {
            (Ok(id), Some(plan)) => self.model.clone_of(template, id, &plan),
            // A refused clone is torn down again: no domain is left live
            // and the template counts the clones it had.
            _ => {
                assert_eq!(self.hv.domain_ids(), live, "refused clone of {template}");
                let now = self.hv.mem.template_clones(template).unwrap_or(0);
                assert_eq!(now, clones, "clone count of {template}");
            }
        }
    }

    fn dedup(&mut self) {
        self.call(Hypercall::SysctlDedup).unwrap();
        self.model.dedup();
    }

    /// Compares what every op must leave equal.
    fn compare(&self, op: &str) {
        let (hv, model) = (&self.hv, &self.model);
        assert_eq!(hv.mem.free_frames(), model.free, "{op}: free count");
        assert_eq!(
            hv.mem.frame_table_len(),
            model.slots.len(),
            "{op}: table length"
        );
        for (slot, (gen, f)) in model.slots.iter().enumerate() {
            let mfn = Mfn(BASE + slot as u64);
            assert_eq!(hv.mem.generation(mfn), *gen, "{op}: generation of {mfn}");
            assert_eq!(
                hv.mem.owner(mfn).ok(),
                f.as_ref().map(|f| f.owner),
                "{op}: {mfn}"
            );
        }
        let doms: BTreeSet<DomId> = model.p2m.keys().chain(model.live.keys()).copied().collect();
        for dom in doms {
            let want: Vec<(Pfn, Mfn)> = model.p2m.get(&dom).map_or(Vec::new(), |m| {
                m.iter()
                    .map(|(&p, &s)| (Pfn(p), Mfn(BASE + s as u64)))
                    .collect()
            });
            assert_eq!(hv.mem.p2m_entries(dom), want, "{op}: p2m of {dom}");
        }
        hv.mem
            .check_consistency()
            .unwrap_or_else(|e| panic!("{op}: {e}"));
    }

    /// Compares every live frame's mappers, mapping count and body.
    fn compare_frames(&self) {
        for (slot, (_, f)) in self.model.slots.iter().enumerate() {
            let Some(f) = f else { continue };
            let mfn = Mfn(BASE + slot as u64);
            let mut refs: Vec<(DomId, Pfn)> = f.refs.iter().map(|&(d, p)| (d, Pfn(p))).collect();
            refs.sort_by_key(|&(d, p)| (d.0, p.0));
            assert_eq!(self.hv.mem.mappers(mfn), refs, "mappers of {mfn}");
            assert_eq!(self.hv.mem.mapping_count(mfn).unwrap(), f.mappings, "{mfn}");
            let want = f.body.map(body).unwrap_or_default();
            assert_eq!(self.hv.mem.read_mfn(mfn).unwrap(), want, "body of {mfn}");
        }
    }

    /// A live domain other than Dom0 matching `keep`, if any.
    fn pick(&self, g: &mut Gen, keep: impl Fn(&Kind) -> bool) -> Option<DomId> {
        let doms: Vec<DomId> = (self.model.live.iter())
            .filter(|&(&d, k)| d != self.dom0 && keep(k))
            .map(|(&d, _)| d)
            .collect();
        (!doms.is_empty()).then(|| *g.choose(&doms))
    }

    /// A grant entry of a live table whose entry `mapped` says.
    fn pick_grant(&self, g: &mut Gen, mapped: bool) -> Option<(DomId, usize)> {
        let live = |&(d, _): &(DomId, usize)| mapped || self.model.live.contains_key(&d);
        let entries: Vec<(DomId, usize)> = (self.model.grants.iter())
            .flat_map(|(&d, t)| t.iter().enumerate().map(move |(i, e)| (d, i, e.maps)))
            .filter(|&(_, _, maps)| !mapped || maps > 0)
            .map(|(d, i, _)| (d, i))
            .filter(live)
            .collect();
        (!entries.is_empty()).then(|| *g.choose(&entries))
    }

    /// What an op with nothing to act on does instead: a small guest.
    fn fallback(&mut self, g: &mut Gen) -> String {
        let n = g.u64(1..24);
        self.create(n);
        format!("create+populate {n}")
    }

    /// Draws and runs one op; returns its name.
    fn step(&mut self, g: &mut Gen) -> String {
        match g.u32(0..16) {
            0 | 1 => {
                let n = if g.u64(0..5) == 0 {
                    self.model.free + g.u64(0..3)
                } else {
                    g.u64(1..48)
                };
                self.create(n);
                format!("create+populate {n}")
            }
            2 => {
                let Some(dom) = self.pick(g, |k| *k == Kind::Building) else {
                    return self.fallback(g);
                };
                let n = if g.bool() {
                    self.model.free + 1
                } else {
                    g.u64(1..16)
                };
                self.populate(dom, n);
                format!("populate {dom} {n}")
            }
            3 | 4 => {
                let Some(dom) = self.pick(g, |_| true) else {
                    return self.fallback(g);
                };
                self.destroy(dom);
                format!("destroy {dom}")
            }
            5..=8 => {
                let dom = self.pick(g, |_| true).unwrap_or(self.dom0);
                let (pfn, tag) = (g.u64(0..12), g.u8(0..3));
                self.write(dom, pfn, tag);
                format!("write {dom} {pfn} {tag}")
            }
            9 => {
                self.dedup();
                "dedup".into()
            }
            10 => {
                let plain = |k: &Kind| matches!(k, Kind::Building | Kind::Running);
                let Some(tpl) = self.pick(g, |k| plain(k) || matches!(k, Kind::Template(_))) else {
                    return self.fallback(g);
                };
                self.clone_of(tpl);
                format!("clone {tpl}")
            }
            11 | 12 => {
                let Some(owner) = self.pick(g, |k| !matches!(k, Kind::Template(_))) else {
                    return self.fallback(g);
                };
                let pfn = g.u64(0..10);
                self.grant(owner, pfn);
                format!("grant {owner} {pfn}")
            }
            13 | 14 => {
                let Some((granter, gref)) = self.pick_grant(g, false) else {
                    return self.fallback(g);
                };
                self.map(granter, gref);
                format!("map {granter} {gref}")
            }
            _ => {
                let Some((granter, gref)) = self.pick_grant(g, true) else {
                    return self.fallback(g);
                };
                self.unmap(granter, gref);
                format!("unmap {granter} {gref}")
            }
        }
    }
}

#[test]
fn run_paths_match_the_frame_by_frame_model() {
    Runner::cases(32).run("frame runs match the model", |g| {
        let mut case = Case::new();
        // A guest past one selector word's 4,096 slots, granted and
        // mapped on one page, then released: its vacancies span two
        // selector words, and the mapped frame outlives it.
        let big = DomId(1);
        case.create(g.u64(4097..5000));
        case.grant(big, g.u64(0..8));
        case.map(big, 0);
        case.compare("big guest");
        case.destroy(big);
        case.compare("big release");
        for _ in 0..g.usize(8..48) {
            let op = case.step(g);
            case.compare(&op);
        }
        case.compare_frames();
    });
}

#[test]
fn a_refused_run_changes_nothing() {
    let mut case = Case::new();
    case.create(4500);
    let tpl = DomId(1);
    case.grant(tpl, 2);
    case.grant(tpl, 5);
    case.grant(tpl, 2);
    case.destroy(DomId(1));
    case.create(5);
    let tpl = DomId(2);
    for pfn in [1, 3, 1] {
        case.grant(tpl, pfn);
    }
    case.create(case.model.free - 1);
    case.compare("one frame left");
    let before = (case.hv.mem.free_frames(), case.hv.mem.frame_table_len());
    // Two distinct PFNs to stamp, one frame free.
    case.clone_of(tpl);
    case.compare("refused stamp");
    case.populate(DomId(3), 2);
    case.compare("refused populate");
    assert_eq!(
        before,
        (case.hv.mem.free_frames(), case.hv.mem.frame_table_len())
    );
    case.destroy(DomId(3));
    case.clone_of(tpl);
    case.compare("stamp");
    case.compare_frames();
    // Only the stamped clone holds the template: once it is gone, the
    // template can be destroyed.
    let clone = *case.hv.domain_ids().last().unwrap();
    assert_eq!(case.model.live[&clone], Kind::Clone(tpl));
    case.destroy(clone);
    case.destroy(tpl);
    assert!(!case.hv.domain_ids().contains(&tpl));
    case.compare("template destroyed");
}
