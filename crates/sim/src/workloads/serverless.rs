//! Serverless-density experiment: snapshot-fork clones under function churn.
//!
//! The paper's microreboot machinery makes *restarting* a domain cheap;
//! this experiment measures the complementary claim for *creating* one.
//! A fleet of serverless functions receives invocations over the DES
//! clock. The first invocation of a function pays the cold path — a full
//! Builder round-trip plus template capture — while every scale-out
//! after that is a snapshot-fork clone stamped from the sealed template.
//! Idle instances expire and are harvested; duplicate warm state across
//! idle instances of one function is reclaimed by a dedup sweep once
//! the last request completes, so steady-state memory grows with
//! *written* pages, not with instance count.

use std::time::Instant;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::toolstack::Toolstack;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, Hypercall};

use crate::des::Engine;
use crate::rng::SimRng;

/// Shape of one churn run.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// Distinct functions in the fleet.
    pub functions: usize,
    /// Total invocation arrivals to simulate.
    pub invocations: usize,
    /// Mean interarrival gap on the DES clock, ns.
    pub mean_interarrival_ns: u64,
    /// How long an instance is busy serving one invocation, ns.
    pub service_ns: u64,
    /// Idle grace before an instance is harvested, ns.
    pub keep_warm_ns: u64,
    /// Memory of each function instance, MiB.
    pub memory_mib: u64,
}

impl Default for ServerlessConfig {
    fn default() -> Self {
        ServerlessConfig {
            functions: 8,
            invocations: 400,
            mean_interarrival_ns: 2_000_000, // 2 ms between arrivals
            service_ns: 10_000_000,          // 10 ms of work each
            keep_warm_ns: 50_000_000,        // 50 ms idle grace
            memory_mib: 64,
        }
    }
}

/// Host-measured latency samples for one start class.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    /// Raw samples, ns, in completion order.
    pub samples: Vec<u64>,
}

impl LatencyStats {
    fn push(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Median sample, 0 when empty.
    pub fn median(&self) -> u64 {
        percentile(&self.samples, 50)
    }

    /// 95th-percentile sample, 0 when empty.
    pub fn p95(&self) -> u64 {
        percentile(&self.samples, 95)
    }
}

fn percentile(samples: &[u64], pct: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Outcome of one churn run.
#[derive(Debug)]
pub struct ServerlessResult {
    /// Invocations served.
    pub invocations: u64,
    /// Builder round-trips (first sight of a function).
    pub cold_starts: u64,
    /// Snapshot-fork clones (scale-out and post-expiry restarts).
    pub warm_starts: u64,
    /// Invocations absorbed by an already-idle warm instance.
    pub warm_reuses: u64,
    /// Idle instances harvested by the keep-warm timer.
    pub harvested: u64,
    /// Most instances live at once (templates excluded).
    pub peak_instances: usize,
    /// Host-measured cold-path latency (build + capture + first clone).
    pub cold_start_ns: LatencyStats,
    /// Host-measured warm-path latency (one clone stamp).
    pub warm_start_ns: LatencyStats,
    /// Frames the fleet holds at the end of the run.
    pub frames_used: u64,
    /// Frames the same fleet would hold had every live instance been
    /// built instead of cloned.
    pub built_equivalent_frames: u64,
    /// Frames reclaimed by the dedup harvest of idle warm state, run
    /// once the last request completes.
    pub dedup_frames: u64,
    /// Simulated time elapsed, ns.
    pub horizon_ns: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum Ev {
    /// An invocation of function `f` arrives.
    Arrive { f: usize },
    /// Instance `dom` of function `f` finishes its request.
    Complete { f: usize, dom: DomId },
    /// Keep-warm timer for `dom`, armed when it went idle at `since`.
    Expire { f: usize, dom: DomId, since: u64 },
}

#[derive(Debug, Default)]
struct FnState {
    template: Option<DomId>,
    /// Idle warm instances: (dom, idle-since).
    idle: Vec<(DomId, u64)>,
    busy: usize,
}

/// Runs `cfg.invocations` arrivals of function churn on `platform`,
/// driving every start, completion, and harvest through the live
/// toolstack. Deterministic for a given `seed` (latency samples are
/// host-measured and excluded from determinism).
pub fn run(platform: &mut Platform, cfg: &ServerlessConfig, seed: u64) -> ServerlessResult {
    let mut ts = Toolstack::new(platform, 0);
    let mut rng = SimRng::new(seed);
    let mut des: Engine<Ev> = Engine::new();
    let mut fns: Vec<FnState> = (0..cfg.functions).map(|_| FnState::default()).collect();

    // Pre-roll all arrivals so the churn profile is independent of how
    // the run unfolds.
    let mut at = 0u64;
    for _ in 0..cfg.invocations {
        at += rng.range(
            cfg.mean_interarrival_ns / 2,
            cfg.mean_interarrival_ns * 3 / 2,
        );
        let f = rng.below(cfg.functions as u64) as usize;
        des.schedule(at, Ev::Arrive { f });
    }

    let free_at_boot = platform.hv.mem.free_frames();
    let mut r = ServerlessResult {
        invocations: 0,
        cold_starts: 0,
        warm_starts: 0,
        warm_reuses: 0,
        harvested: 0,
        peak_instances: 0,
        cold_start_ns: LatencyStats::default(),
        warm_start_ns: LatencyStats::default(),
        frames_used: 0,
        built_equivalent_frames: 0,
        dedup_frames: 0,
        horizon_ns: 0,
    };
    let mut live = 0usize;
    let mut completed = 0usize;

    while let Some((now, ev)) = des.next() {
        match ev {
            Ev::Arrive { f } => {
                r.invocations += 1;
                let dom = if let Some((dom, _)) = fns[f].idle.pop() {
                    r.warm_reuses += 1;
                    dom
                } else if let Some(tpl) = fns[f].template {
                    let t0 = Instant::now();
                    let dom = ts
                        .clone(platform, tpl, &format!("fn{f}-i{}", r.invocations))
                        .expect("clone within quota");
                    r.warm_start_ns.push(t0.elapsed().as_nanos() as u64);
                    r.warm_starts += 1;
                    live += 1;
                    dom
                } else {
                    // Cold path: build the golden instance, seal it as the
                    // function's template, and serve from the first clone.
                    let t0 = Instant::now();
                    let mut gc = GuestConfig::evaluation_guest(&format!("fn{f}-golden"));
                    gc.memory_mib = cfg.memory_mib;
                    gc.vcpus = 1;
                    gc.disk_bytes = 1 << 30;
                    let tpl = ts.create(platform, gc).expect("cold start within quota");
                    ts.capture_template(platform, tpl)
                        .expect("fresh guest seals");
                    let dom = ts
                        .clone(platform, tpl, &format!("fn{f}-i{}", r.invocations))
                        .expect("first clone");
                    r.cold_start_ns.push(t0.elapsed().as_nanos() as u64);
                    r.cold_starts += 1;
                    fns[f].template = Some(tpl);
                    live += 1;
                    dom
                };
                // Warm state: identical across instances of one function,
                // so the dedup harvest below can fold it back together.
                platform
                    .hv
                    .mem
                    .write(dom, Pfn(8), format!("warm-state-fn{f}").as_bytes())
                    .expect("instance frames");
                fns[f].busy += 1;
                r.peak_instances = r.peak_instances.max(live);
                des.schedule(now + cfg.service_ns, Ev::Complete { f, dom });
            }
            Ev::Complete { f, dom } => {
                fns[f].busy -= 1;
                fns[f].idle.push((dom, now));
                des.schedule(now + cfg.keep_warm_ns, Ev::Expire { f, dom, since: now });
                completed += 1;
                if completed == cfg.invocations {
                    // Idle-memory harvesting: fold identical warm-state
                    // pages across the instances still kept warm back
                    // into shared frames.
                    r.dedup_frames = platform.dedup_memory();
                }
            }
            Ev::Expire { f, dom, since } => {
                // Only harvest if the instance is still idle from the same
                // idle period the timer was armed in.
                if let Some(pos) = fns[f]
                    .idle
                    .iter()
                    .position(|&(d, s)| d == dom && s == since)
                {
                    fns[f].idle.remove(pos);
                    ts.destroy(platform, dom).expect("idle instance dies");
                    r.harvested += 1;
                    live -= 1;
                }
            }
        }
        r.horizon_ns = now;
    }

    r.frames_used = free_at_boot - platform.hv.mem.free_frames();
    // A built guest populates memory_mib frames up front; templates are
    // real builds either way, so only instances differ.
    r.built_equivalent_frames =
        (r.cold_starts + live as u64) * cfg.memory_mib.max(4) * frames_per_mib_model();
    r
}

/// Builder populate granularity: one frame per MiB at model scale.
fn frames_per_mib_model() -> u64 {
    1
}

/// One row of the memory-density table.
#[derive(Debug, Clone, Copy)]
pub struct DensityRow {
    /// Clones stamped from the single template.
    pub clones: usize,
    /// Frames actually held by template + clones.
    pub actual_frames: u64,
    /// Frames the same population of *built* guests would hold.
    pub built_equivalent_frames: u64,
    /// `built_equivalent_frames / actual_frames`.
    pub density: f64,
}

/// Stamps `count` clones of one small template directly through
/// `DomctlCloneDomain` — no device wiring, no XenStore stamping — and
/// measures frame consumption against the built-guest equivalent. This
/// is the hypervisor-level density ceiling: each clone holds only its
/// privatized I/O ring pages until first write.
pub fn density_row(count: usize) -> DensityRow {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut gc = GuestConfig::evaluation_guest("lambda-golden");
    gc.memory_mib = 64;
    gc.vcpus = 1;
    gc.disk_bytes = 1 << 30;
    let tpl = p.create_guest(ts, gc).expect("template builds");
    let free_before = p.hv.mem.free_frames();
    for i in 0..count {
        p.hv.hypercall(
            ts,
            Hypercall::DomctlCloneDomain {
                template: tpl,
                name: format!("fx-{i}"),
            },
        )
        .expect("hypervisor-level clone");
    }
    let actual = free_before - p.hv.mem.free_frames();
    let built = count as u64 * 64 * frames_per_mib_model();
    DensityRow {
        clones: count,
        actual_frames: actual,
        built_equivalent_frames: built,
        density: if actual == 0 {
            f64::INFINITY
        } else {
            built as f64 / actual as f64
        },
    }
}

/// Runs [`density_row`] for each count, smallest first.
pub fn density_sweep(counts: &[usize]) -> Vec<DensityRow> {
    let mut counts = counts.to_vec();
    counts.sort_unstable();
    counts.into_iter().map(density_row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_pays_one_cold_start_per_function() {
        let mut p = Platform::xoar(XoarConfig::default());
        let cfg = ServerlessConfig::default();
        let r = run(&mut p, &cfg, 7);
        assert_eq!(r.invocations, cfg.invocations as u64);
        assert_eq!(
            r.cold_starts, cfg.functions as u64,
            "one build per function"
        );
        assert_eq!(
            r.cold_starts + r.warm_starts + r.warm_reuses,
            r.invocations,
            "every arrival is served"
        );
        assert!(
            r.warm_starts + r.warm_reuses > r.cold_starts * 10,
            "churn is dominated by the warm path"
        );
    }

    #[test]
    fn churn_is_deterministic_for_a_seed() {
        let mut a = Platform::xoar(XoarConfig::default());
        let mut b = Platform::xoar(XoarConfig::default());
        let cfg = ServerlessConfig::default();
        let ra = run(&mut a, &cfg, 42);
        let rb = run(&mut b, &cfg, 42);
        assert_eq!(ra.cold_starts, rb.cold_starts);
        assert_eq!(ra.warm_starts, rb.warm_starts);
        assert_eq!(ra.warm_reuses, rb.warm_reuses);
        assert_eq!(ra.harvested, rb.harvested);
        assert_eq!(ra.peak_instances, rb.peak_instances);
        assert_eq!(ra.frames_used, rb.frames_used);
    }

    #[test]
    fn warm_starts_undercut_cold_starts() {
        let mut p = Platform::xoar(XoarConfig::default());
        let r = run(&mut p, &ServerlessConfig::default(), 3);
        assert!(
            r.warm_start_ns.median() < r.cold_start_ns.median(),
            "clone stamp {} ns must beat builder round-trip {} ns",
            r.warm_start_ns.median(),
            r.cold_start_ns.median()
        );
    }

    #[test]
    fn keep_warm_timer_harvests_idle_instances() {
        let mut p = Platform::xoar(XoarConfig::default());
        let cfg = ServerlessConfig {
            // Sparse arrivals with a short grace: instances die between
            // invocations instead of being reused.
            functions: 2,
            invocations: 40,
            mean_interarrival_ns: 40_000_000,
            service_ns: 5_000_000,
            keep_warm_ns: 10_000_000,
            memory_mib: 64,
        };
        let r = run(&mut p, &cfg, 9);
        assert!(r.harvested > 20, "harvested only {}", r.harvested);
        // Everything died back: what remains is the two sealed templates,
        // not the 40 instances that passed through the fleet.
        assert!(
            r.frames_used <= cfg.functions as u64 * cfg.memory_mib,
            "footprint {} exceeds the template-only floor",
            r.frames_used
        );
    }

    #[test]
    fn dedup_harvests_identical_warm_state() {
        let mut p = Platform::xoar(XoarConfig::default());
        let cfg = ServerlessConfig {
            // A burst so wide every invocation runs concurrently: maximal
            // live instances with identical warm state.
            functions: 2,
            invocations: 60,
            mean_interarrival_ns: 1_000,
            service_ns: 1_000_000_000,
            keep_warm_ns: 1_000_000_000,
            memory_mib: 64,
        };
        let r = run(&mut p, &cfg, 11);
        assert!(
            r.dedup_frames > 0,
            "identical warm-state pages must fold together"
        );
    }

    #[test]
    fn density_row_shows_order_of_magnitude_gain() {
        let row = density_row(256);
        assert_eq!(row.clones, 256);
        assert!(
            row.density >= 10.0,
            "clones must be ≥10x denser than builds: {:.1}x",
            row.density
        );
    }

    /// The full memory-density sweep behind EXPERIMENTS.md's table; run
    /// by ci.sh in release mode. Prints the rows so the CI log doubles
    /// as the table's data source.
    #[test]
    #[ignore = "release-mode smoke; run via scripts/ci.sh"]
    fn density_sweep_smoke() {
        for row in density_sweep(&[1_000, 10_000, 100_000]) {
            println!(
                "density: {} clones, {} frames actual, {} frames built-equivalent, {:.1}x",
                row.clones, row.actual_frames, row.built_equivalent_frames, row.density
            );
            assert!(
                row.density >= 10.0,
                "{} clones only {:.1}x dense",
                row.clones,
                row.density
            );
        }
    }
}
