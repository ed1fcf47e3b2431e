//! End-to-end wall-clock benchmark of the Xoar platform.
//!
//! Four workloads drive the platform through its public API, each in a
//! closed loop (one client issues its next op only once the previous one
//! has completed). The untraced run gives the end-to-end metrics; a
//! separate traced run times each call into a layer's public function
//! (see [`trace`]) and gives the per-layer metrics. `perfbench/README.md`
//! records why each workload exists and which end-to-end metric each
//! layer metric should move.

pub mod alloc;
mod gauge;
pub mod harness;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use trace::Tracer;

/// The benchmark's own input generator (splitmix64): inputs depend only
/// on the seed, never on the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// `n` distinct values from `0..bound`.
    pub fn distinct<const N: usize>(&mut self, bound: u64) -> [u64; N] {
        let mut out = [0u64; N];
        let mut i = 0;
        while i < N {
            let v = self.below(bound);
            if !out[..i].contains(&v) {
                out[i] = v;
                i += 1;
            }
        }
        out
    }
}

/// Output checks: ops attempted and failed, and any broken invariant.
#[derive(Debug, Default)]
pub struct Check {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
}

impl Check {
    /// Records one attempted op and whether it succeeded with the right
    /// result.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    /// Records an invariant that must hold at the end of a run.
    pub fn holds(&mut self, ok: bool, what: &str) {
        if !ok {
            self.note(what);
        }
    }

    fn note(&mut self, what: &str) {
        if self.problems.len() < 8 {
            self.problems.push(what.to_string());
        }
    }

    /// Whether every op succeeded and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// What one closed-loop step did.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Ops completed.
    pub ops: u64,
    /// The latency sample this step gives, when it is not the step's own
    /// wall time.
    pub latency_ns: Option<u64>,
}

/// A benchmark workload: a starting state and a closed-loop step on it.
pub trait Workload: Sized {
    /// The name given on the command line.
    const NAME: &'static str;
    /// Steps per throughput window: a whole number of every periodic
    /// action the workload runs (restart, dedup sweep, guest round).
    const WINDOW_STEPS: u64;
    /// Steps of the traced run, fixed so its counts repeat exactly; at
    /// most one lifetime.
    const TRACED_STEPS: u64;
    /// Windows one starting state serves before it is rebuilt, untimed.
    /// Workloads that create domains need this: the platform never reuses
    /// a machine frame number, so its frame table, and with it the heap
    /// and the cost of whole-memory sweeps, grows with every domain built.
    const LIFETIME_WINDOWS: u64 = u64::MAX;
    /// How the workload's speed follows the machine's: in a phase where
    /// the speed gauge reads a slowdown `s`, the workload runs `s` to this
    /// power slower. Fitted from windows of the machine's fast and slow
    /// phases (`README.md`); 1 when the two move alike.
    const PHASE_EXPONENT: f64 = 1.0;

    /// Builds the starting state for `seed`.
    fn setup<T: Tracer>(seed: u64, t: &mut T) -> Self;
    /// Runs one closed-loop step and checks its outputs.
    fn step<T: Tracer>(&mut self, t: &mut T, check: &mut Check) -> Step;
    /// End-of-run checks of the whole state.
    fn finish(&mut self, check: &mut Check);
    /// The workload's per-layer counts since set-up, by metric name.
    fn counts(&self) -> Vec<(&'static str, f64)>;
}
