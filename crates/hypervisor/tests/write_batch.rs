//! A batched `MmuWriteForeign` is the same as one call per page.
//!
//! The gate checks a batch once and the memory manager resolves the
//! target once per run of exclusive frames, so nothing but the pages'
//! own order may decide the outcome. Each case builds the same scene
//! twice, writes a random page set into one copy as one batch and into
//! the other one call per page, and compares what the gate returned,
//! the integrity digest, every domain's pages, each open log-dirty
//! cursor's drained PFNs and, on a frozen target, what a rollback
//! restores, and checks the batch against a model of what its pages
//! must do. The scenes cover exclusive frames, frames deduplicated
//! with another guest, a clone reading through its template, a frozen
//! target and open cursors. Refusals must match too: an oversized body
//! and a caller without foreign access write nothing, a sealed template
//! is refused whole, and a bad PFN mid-batch keeps the pages before it.

use xoar_hypervisor::memory::{PageRef, Pfn, PAGE_SIZE};
use xoar_hypervisor::{
    DomId, DomainRole, Hypercall, HypercallId, Hypervisor, PrivilegeSet, RecoveryBox, ShadowOp,
};
use xoar_sim::prop::{Gen, Runner};

/// Frames each guest populates.
const FRAMES: u64 = 16;

/// How the gate's answer to a write that landed prints.
const OK: &str = "Ok(Ok)";

/// How a case's target is set up.
#[derive(Debug, Clone)]
struct Spec {
    /// The target is a clone of a sealed template.
    clone: bool,
    /// Bodies written before the batch, per PFN (`None`: never written).
    seed: Vec<Option<Body>>,
    /// A dedup sweep runs before the batch.
    dedup: bool,
    /// The target snapshots itself before the batch, with this box.
    frozen: Option<Option<RecoveryBox>>,
    /// Log-dirty cursors open on the target (and one on the other guest
    /// when any is).
    cursors: usize,
}

/// A page body, as a generator choice.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// One of two bodies the other guest also holds (dedup fodder).
    Shared(u8),
    /// A body no other page holds.
    Unique(u64),
    /// The empty page.
    Empty,
    /// A page of zeros.
    Zero,
    /// One byte past a page.
    Oversized,
}

impl Body {
    fn page(self) -> PageRef {
        match self {
            Body::Shared(k) => PageRef::new(format!("shared-{k}").as_bytes()),
            Body::Unique(n) => PageRef::new(format!("unique-{n}").as_bytes()),
            Body::Empty => PageRef::new(b""),
            Body::Zero => PageRef::new(&[0; PAGE_SIZE]),
            Body::Oversized => PageRef::new(&[7; PAGE_SIZE + 1]),
        }
    }

    fn gen(g: &mut Gen) -> Body {
        match g.u64(0..8) {
            0 | 1 => Body::Shared(g.u8(0..2)),
            2 => Body::Empty,
            3 => Body::Zero,
            _ => Body::Unique(g.u64(0..1 << 20)),
        }
    }
}

/// What goes wrong with a case's batch, if anything.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// One body is larger than a page.
    Oversized(usize),
    /// One PFN is outside the target.
    BadPfn(usize),
    /// The caller may issue the call but not write the target.
    NoForeignAccess,
    /// The batch targets the sealed template.
    SealedTemplate,
}

/// Every page of a scene's domains, in order (`None`: no such PFN).
type Pages = Vec<Option<Vec<u8>>>;

/// One built copy of a case's scene.
struct Scene {
    hv: Hypervisor,
    dom0: DomId,
    /// Holds `MmuWriteForeign` but no foreign-access right.
    stub: DomId,
    target: DomId,
    other: DomId,
    template: Option<DomId>,
    /// `(domain, cursor id)` of every open cursor.
    cursors: Vec<(DomId, u64)>,
}

fn guest(hv: &mut Hypervisor, dom0: DomId, name: &str) -> DomId {
    let create = Hypercall::DomctlCreateDomain {
        name: name.into(),
        memory_mib: 64,
        vcpus: 1,
    };
    let id = hv.hypercall(dom0, create).unwrap().dom_id().unwrap();
    let populate = Hypercall::MemoryPopulate {
        target: id,
        frames: FRAMES,
    };
    hv.hypercall(dom0, populate).unwrap();
    hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: id })
        .unwrap();
    id
}

fn write_seed(hv: &mut Hypervisor, dom: DomId, seed: &[Option<Body>]) {
    for (pfn, body) in seed.iter().enumerate() {
        if let Some(body) = body {
            hv.mem.write(dom, Pfn(pfn as u64), &body.page()).unwrap();
        }
    }
}

fn enable(hv: &mut Hypervisor, dom0: DomId, target: DomId) -> u64 {
    let op = ShadowOp::Enable;
    let ret = hv.hypercall(dom0, Hypercall::DomctlShadowOp { target, op });
    ret.unwrap().cursor().unwrap()
}

impl Scene {
    fn build(spec: &Spec) -> Scene {
        let mut hv = Hypervisor::with_default_host();
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 750, PrivilegeSet::dom0())
            .unwrap();
        let mut privs = PrivilegeSet::default();
        privs.permit_hypercall(HypercallId::MmuWriteForeign);
        let stub = hv
            .create_boot_domain("stub", DomainRole::Shard, 64, privs)
            .unwrap();
        let other = guest(&mut hv, dom0, "other");
        let shared = [Some(Body::Shared(0)), Some(Body::Shared(1))];
        write_seed(&mut hv, other, &shared);
        let (target, template) = if spec.clone {
            let tpl = guest(&mut hv, dom0, "template");
            // The template holds the seed's odd pages; the clone writes
            // the even ones itself, privatising them.
            let odd: Vec<_> = (spec.seed.iter().enumerate())
                .map(|(i, b)| b.filter(|_| i % 2 == 1))
                .collect();
            write_seed(&mut hv, tpl, &odd);
            let clone = Hypercall::DomctlCloneDomain {
                template: tpl,
                name: "clone".into(),
            };
            let c = hv.hypercall(dom0, clone).unwrap().dom_id().unwrap();
            let even: Vec<_> = (spec.seed.iter().enumerate())
                .map(|(i, b)| b.filter(|_| i % 2 == 0))
                .collect();
            write_seed(&mut hv, c, &even);
            (c, Some(tpl))
        } else {
            let t = guest(&mut hv, dom0, "target");
            write_seed(&mut hv, t, &spec.seed);
            (t, None)
        };
        if spec.dedup {
            hv.hypercall(dom0, Hypercall::SysctlDedup).unwrap();
        }
        if let Some(recovery_box) = spec.frozen {
            hv.hypercall(target, Hypercall::VmSnapshot { recovery_box })
                .unwrap();
        }
        let mut cursors = Vec::new();
        for _ in 0..spec.cursors {
            cursors.push((target, enable(&mut hv, dom0, target)));
        }
        if spec.cursors > 0 {
            cursors.push((other, enable(&mut hv, dom0, other)));
        }
        Scene {
            hv,
            dom0,
            stub,
            target,
            other,
            template,
            cursors,
        }
    }

    /// The caller and target a fault calls for.
    fn parties(&self, fault: Fault) -> (DomId, DomId) {
        match fault {
            Fault::NoForeignAccess => (self.stub, self.target),
            Fault::SealedTemplate => (self.dom0, self.template.unwrap()),
            _ => (self.dom0, self.target),
        }
    }

    fn write(&mut self, caller: DomId, target: DomId, pages: Vec<(Pfn, PageRef)>) -> String {
        let ret = self
            .hv
            .hypercall(caller, Hypercall::MmuWriteForeign { target, pages });
        format!("{ret:?}")
    }

    /// The same writes one call per page. Bodies are size-checked
    /// before any is written, so an oversized body is the one call made.
    fn write_singly(&mut self, caller: DomId, target: DomId, pages: &[(Pfn, PageRef)]) -> String {
        if let Some(big) = pages.iter().find(|(_, p)| p.len() > PAGE_SIZE) {
            return self.write(caller, target, vec![big.clone()]);
        }
        for page in pages {
            let ret = self.write(caller, target, vec![page.clone()]);
            if ret != OK {
                return ret;
            }
        }
        OK.to_string()
    }

    /// Everything a batch could have changed, read out. Drains the
    /// cursors and rolls a frozen target back, so call it once.
    fn observe(&mut self, frozen: bool) -> Observed {
        self.hv.mem.check_consistency().unwrap();
        let digest = self.hv.mem.verify_integrity();
        let pages = self.pages();
        let baseline = self.hv.mem.frozen_baseline_len(self.target);
        let drained = self
            .cursors
            .iter()
            .map(|&(target, id)| {
                let op = ShadowOp::Clean(id);
                let ret = self
                    .hv
                    .hypercall(self.dom0, Hypercall::DomctlShadowOp { target, op });
                ret.unwrap().pfns().unwrap()
            })
            .collect();
        let rollback = frozen.then(|| {
            let target = self.target;
            let ret = self
                .hv
                .hypercall(self.dom0, Hypercall::VmRollback { target });
            self.hv.mem.check_consistency().unwrap();
            (
                format!("{ret:?}"),
                self.hv.mem.verify_integrity(),
                self.pages(),
            )
        });
        Observed {
            digest,
            pages,
            baseline,
            drained,
            rollback,
        }
    }

    /// Every page of the target, the other guest and the template.
    fn pages(&self) -> Pages {
        let doms = [Some(self.target), Some(self.other), self.template];
        doms.into_iter()
            .flatten()
            .flat_map(|d| (0..FRAMES).map(move |p| (d, Pfn(p))))
            .map(|(d, p)| self.hv.mem.read(d, p).ok().map(|b| b.to_vec()))
            .collect()
    }
}

#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    pages: Pages,
    baseline: Option<usize>,
    drained: Vec<Vec<Pfn>>,
    rollback: Option<(String, u64, Pages)>,
}

fn gen_case(g: &mut Gen) -> (Spec, Vec<(Pfn, PageRef)>, Fault) {
    let clone = g.bool();
    let seed = (0..FRAMES)
        .map(|_| g.bool().then(|| Body::gen(g)))
        .collect();
    let frozen = g.bool().then(|| {
        g.bool().then(|| RecoveryBox {
            start: Pfn(g.u64(0..FRAMES)),
            frames: g.u64(1..4),
        })
    });
    let spec = Spec {
        clone,
        seed,
        dedup: g.bool(),
        frozen,
        cursors: g.usize(0..3),
    };
    // PFNs repeat: a batch may write one page twice.
    let mut pages = g.vec(1..40, |g| (Pfn(g.u64(0..FRAMES)), Body::gen(g).page()));
    let at = g.usize(0..pages.len());
    let fault = match g.u64(0..8) {
        0 => Fault::Oversized(at),
        1 => Fault::BadPfn(at),
        2 => Fault::NoForeignAccess,
        3 if clone => Fault::SealedTemplate,
        _ => Fault::None,
    };
    match fault {
        Fault::Oversized(i) => pages[i].1 = Body::Oversized.page(),
        Fault::BadPfn(i) => pages[i].0 = Pfn(FRAMES + g.u64(0..4)),
        _ => {}
    }
    (spec, pages, fault)
}

/// Checks `seen` against what the pages that `landed` must have done,
/// worked out without the memory manager (both sides of the
/// differential share its install routine): each written PFN of the
/// target reads as its last body and no other page changes, each target
/// cursor drains the written PFNs and the other guest's drains none, a
/// snapshot captured one pre-image per written PFN, and a rollback
/// restores the written PFNs outside the recovery box.
fn check_model(spec: &Spec, before: &Pages, landed: &[(Pfn, PageRef)], seen: &Observed) {
    let mut after = before.clone();
    for (pfn, body) in landed {
        after[pfn.0 as usize] = Some(body.to_vec());
    }
    assert_eq!(seen.pages, after, "pages after the batch");
    let mut written: Vec<Pfn> = landed.iter().map(|&(pfn, _)| pfn).collect();
    written.sort_unstable();
    written.dedup();
    let mut drained = vec![written.clone(); spec.cursors];
    if spec.cursors > 0 {
        drained.push(Vec::new());
    }
    assert_eq!(seen.drained, drained, "drained cursors");
    if let Some(rbox) = spec.frozen {
        assert_eq!(seen.baseline, Some(written.len()), "pre-images");
        let mut rolled = after;
        let mut restored = 0;
        for pfn in written
            .iter()
            .filter(|&&p| !rbox.is_some_and(|b| b.contains(p)))
        {
            rolled[pfn.0 as usize] = before[pfn.0 as usize].clone();
            restored += 1;
        }
        let (ret, _, pages) = seen.rollback.as_ref().unwrap();
        assert_eq!(ret, &format!("Ok(Count({restored}))"));
        assert_eq!(pages, &rolled, "pages after the rollback");
    }
}

#[test]
fn a_batch_leaves_the_state_one_call_per_page_leaves() {
    Runner::cases(192).run("batch ≡ one call per page", |g| {
        let (spec, pages, fault) = gen_case(g);
        let mut batched = Scene::build(&spec);
        let mut single = Scene::build(&spec);
        let before = batched.pages();
        let (caller, target) = batched.parties(fault);
        let got = batched.write(caller, target, pages.clone());
        let want = single.write_singly(caller, target, &pages);
        assert_eq!(got, want, "{spec:?} {fault:?}");
        let frozen = spec.frozen.is_some();
        let observed = batched.observe(frozen);
        assert_eq!(observed, single.observe(frozen), "{spec:?} {fault:?}");
        let landed = match fault {
            Fault::None => {
                assert_eq!(got, OK);
                &pages[..]
            }
            Fault::BadPfn(i) => {
                assert!(got.contains("BadPfn"), "{got}");
                &pages[..i]
            }
            // Refused whole: the state is the untouched scene's.
            Fault::Oversized(_) | Fault::NoForeignAccess | Fault::SealedTemplate => {
                assert!(got.starts_with("Err"), "{got}");
                assert_eq!(observed, Scene::build(&spec).observe(frozen));
                &[]
            }
        };
        check_model(&spec, &before, landed, &observed);
    });
}
