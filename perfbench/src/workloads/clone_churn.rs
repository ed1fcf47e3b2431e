//! `clone_churn`: serverless warm starts by snapshot-fork cloning.
//!
//! Four sealed 64 MiB function templates. Each op clones a seeded
//! template through the toolstack and writes four pages of warm state
//! (copy-on-write breaks). The oldest instance beyond a live window of 64
//! is destroyed, and a dedup sweep runs every 256 ops. `op_p50_us` is
//! the warm start (clone plus writes); `ops_per_s` also pays for the
//! destroys and sweeps.

use std::collections::VecDeque;
use std::fmt::Write;
use std::time::Instant;

use xoar_core::platform::{GuestConfig, Platform};
use xoar_core::toolstack::Toolstack;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::DomId;

use super::{boot, check_platform};
use crate::trace::{Span, Tracer};
use crate::{Check, Rng, Step, Workload};

const TEMPLATES: usize = 4;
const TEMPLATE_MIB: u64 = 64;
const LIVE: usize = 64;
const DEDUP_EVERY: u64 = 256;
/// Warm writes per op, into `WARM_PFN..WARM_PFN + WARM_PAGES`.
const WARM_WRITES: usize = 4;
const WARM_PFN: u64 = 8;
const WARM_PAGES: u64 = 32;
/// Pages each template is sealed with, at `TPL_PFN..TPL_PFN + TPL_PAGES`.
const TPL_PFN: u64 = 40;
const TPL_PAGES: u64 = 8;

/// Warm state: identical across instances of one function, so the dedup
/// sweep can fold it back together.
fn warm_page(f: usize, pfn: u64) -> Vec<u8> {
    format!("warm-state fn{f} pfn{pfn}").into_bytes()
}

fn template_page(f: usize, pfn: u64) -> Vec<u8> {
    format!("sealed template fn{f} pfn{pfn}").into_bytes()
}

/// A live clone: its domain, function, and the pages it warmed.
struct Instance {
    dom: DomId,
    f: usize,
    pfns: [u64; WARM_WRITES],
}

/// The workload's state.
pub struct CloneChurn {
    p: Platform,
    ts: Toolstack,
    templates: [DomId; TEMPLATES],
    /// Warm pages, by function and page offset from `WARM_PFN`.
    warm: Vec<Vec<Vec<u8>>>,
    /// Sealed template pages, by function and offset from `TPL_PFN`.
    sealed: Vec<Vec<Vec<u8>>>,
    live: VecDeque<Instance>,
    rng: Rng,
    ops: u64,
    name: String,
    dedup_frames: u64,
    audit_at_setup: usize,
}

impl CloneChurn {
    /// Whether `inst` still reads back its warm state and, through
    /// copy-on-write, its template's sealed pages.
    fn intact(&self, inst: &Instance) -> bool {
        let mem = &self.p.hv.mem;
        let warm = inst.pfns.iter().all(|&pfn| {
            mem.read(inst.dom, Pfn(pfn))
                .is_ok_and(|pg| pg.as_slice() == self.warm[inst.f][(pfn - WARM_PFN) as usize])
        });
        let shared = mem
            .read(inst.dom, Pfn(TPL_PFN))
            .is_ok_and(|pg| pg.as_slice() == self.sealed[inst.f][0]);
        warm && shared
    }
}

impl Workload for CloneChurn {
    const NAME: &'static str = "clone_churn";
    /// 256 ops (about 40 ms): one dedup sweep per window.
    const WINDOW_STEPS: u64 = 256;
    const TRACED_STEPS: u64 = 4 * 256;
    /// 1024 clones per platform: the heap stays under ~10 MiB.
    const LIFETIME_WINDOWS: u64 = 4;
    const PHASE_EXPONENT: f64 = 1.26;

    fn setup<T: Tracer>(seed: u64, t: &mut T) -> Self {
        let rng = Rng::new(seed);
        let mut p = boot(t);
        let mut ts = Toolstack::new(&p, 0);
        let mut templates = [DomId(0); TEMPLATES];
        let sealed: Vec<Vec<Vec<u8>>> = (0..TEMPLATES)
            .map(|f| {
                (0..TPL_PAGES)
                    .map(|i| template_page(f, TPL_PFN + i))
                    .collect()
            })
            .collect();
        for (f, tpl) in templates.iter_mut().enumerate() {
            let mut gc = GuestConfig::evaluation_guest(&format!("fn{f}"));
            gc.memory_mib = TEMPLATE_MIB;
            gc.vcpus = 1;
            gc.disk_bytes = 1 << 30;
            let o = t.begin(Span::SetupCreateGuest);
            *tpl = ts.create(&mut p, gc).expect("function guest boots");
            t.end(o, 1, 1);
            for (i, page) in sealed[f].iter().enumerate() {
                p.hv.mem
                    .write(*tpl, Pfn(TPL_PFN + i as u64), page)
                    .expect("template owns its pages");
            }
            let o = t.begin(Span::SetupCaptureTemplate);
            ts.capture_template(&mut p, *tpl)
                .expect("fresh guest seals as a template");
            t.end(o, 1, 1);
        }
        let warm = (0..TEMPLATES)
            .map(|f| {
                (0..WARM_PAGES)
                    .map(|i| warm_page(f, WARM_PFN + i))
                    .collect()
            })
            .collect();
        let audit_at_setup = p.audit.len();
        CloneChurn {
            p,
            ts,
            templates,
            warm,
            sealed,
            live: VecDeque::with_capacity(LIVE + 1),
            rng,
            ops: 0,
            name: String::with_capacity(32),
            dedup_frames: 0,
            audit_at_setup,
        }
    }

    fn step<T: Tracer>(&mut self, t: &mut T, check: &mut Check) -> Step {
        let o = t.begin(Span::ClientInputs);
        let f = self.rng.below(TEMPLATES as u64) as usize;
        let pfns = self
            .rng
            .distinct::<WARM_WRITES>(WARM_PAGES)
            .map(|i| WARM_PFN + i);
        self.ops += 1;
        self.name.clear();
        let _ = write!(self.name, "fn{f}-{}", self.ops);
        t.end(o, 1, 1);

        let start = Instant::now();
        let o = t.begin(Span::ToolstackClone);
        let cloned = self.ts.clone(&mut self.p, self.templates[f], &self.name);
        t.end(o, 1, 1);
        let Ok(dom) = cloned else {
            check.op(false, "clone from a sealed template");
            return Step {
                ops: 0,
                latency_ns: Some(start.elapsed().as_nanos() as u64),
            };
        };
        let mut wrote = true;
        let o = t.begin(Span::MemWarmWrite);
        for &pfn in &pfns {
            let page = &self.warm[f][(pfn - WARM_PFN) as usize];
            wrote &= self.p.hv.mem.write(dom, Pfn(pfn), page).is_ok();
        }
        t.end(o, WARM_WRITES as u64, WARM_WRITES as u64);
        let warm_ns = start.elapsed().as_nanos() as u64;

        let o = t.begin(Span::ClientCheck);
        let inst = Instance { dom, f, pfns };
        let good = wrote && self.intact(&inst);
        check.op(good, "clone reads back its warm state over its template");
        self.live.push_back(inst);
        let retire = (self.live.len() > LIVE).then(|| {
            let old = self.live.pop_front().expect("window is over-full");
            check.holds(self.intact(&old), "retiring clone kept its state");
            old
        });
        t.end(o, 1, 1);

        if let Some(old) = retire {
            let o = t.begin(Span::ToolstackDestroy);
            let r = self.ts.destroy(&mut self.p, old.dom);
            t.end(o, 1, 1);
            check.holds(r.is_ok(), "oldest clone destroyed");
        }
        if self.ops.is_multiple_of(DEDUP_EVERY) {
            let o = t.begin(Span::MemDedup);
            let frames = self.p.dedup_memory();
            t.end(o, 1, 1);
            self.dedup_frames += frames;
        }
        Step {
            ops: u64::from(good),
            latency_ns: Some(warm_ns),
        }
    }

    fn finish(&mut self, check: &mut Check) {
        for inst in &self.live {
            check.holds(self.intact(inst), "live clone kept its state");
        }
        for (f, &tpl) in self.templates.iter().enumerate() {
            for (i, page) in self.sealed[f].iter().enumerate() {
                let same = self
                    .p
                    .hv
                    .mem
                    .read(tpl, Pfn(TPL_PFN + i as u64))
                    .is_ok_and(|pg| pg.as_slice() == page.as_slice());
                check.holds(same, "template frames untouched by their clones");
            }
        }
        self.p.dedup_memory();
        check_platform(&mut self.p, check);
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mem = &self.p.hv.mem;
        vec![
            ("mem.dedup_frames", self.dedup_frames as f64),
            (
                "mem.frames_in_use",
                (mem.total_frames() - mem.free_frames()) as f64,
            ),
            (
                "audit.records_per_op",
                (self.p.audit.len() - self.audit_at_setup) as f64 / self.ops.max(1) as f64,
            ),
        ]
    }
}
