//! Runs a workload's phases and turns them into metrics.
//!
//! Each run is cut into windows of a fixed number of steps, each spanning
//! whole periods of the workload's periodic actions, so their cost is in
//! every window. End-to-end times are taken at the speed gauge's reference
//! speed (`gauge.rs`): the gauge is read after every window and every
//! timed build, and each time is divided by the slowdown it reads. On the
//! shared machine this benchmark was built on, the same code speeds up and
//! slows down by up to ~1.8× in phases of seconds to minutes, so no
//! statistic of one run's raw windows tells a slower program from a slower
//! phase.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use xoar_codec::Json;

use crate::gauge::Gauge;
use crate::trace::{Off, Span, SpanLog, Tracer};
use crate::{alloc, stats, Check, Workload};

/// `setup_s` is the median of many timed builds of the starting state:
/// this many before the run, then more spread over it, taking
/// [`SETUP_SHARE`] of its time. One build of a few milliseconds varies by
/// a third from run to run.
const SETUP_REPEATS: usize = 5;
const SETUP_SHARE: f64 = 0.05;

/// Windows after which `peak_heap_mib` is read. A fixed op count, so the
/// figure repeats exactly for a seed whatever the machine's speed; no
/// workload rebuilds its state sooner.
pub const HEAP_WINDOWS: usize = 4;

/// Share of an untraced run's first windows left out of its end-to-end
/// statistics: the caches, the allocator and the timed builds, which
/// crowd the run's start, are still settling in them.
const WARM_UP_SHARE: f64 = 0.1;

/// Share of the traced run's time budget given to its untraced half.
const UNTRACED_SHARE: f64 = 0.5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (shared across workloads).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub check: Check,
    /// Every metric of the run's kind.
    pub metrics: Vec<Metric>,
}

/// What a measured phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Steps run.
    pub steps: u64,
    /// Ops completed.
    pub ops: u64,
    /// Ops per second of each window.
    pub window_rates: Vec<f64>,
    /// The machine's slowdown against the gauge's reference speed, read
    /// after each window of an untraced phase.
    pub window_slowdown: Vec<f64>,
    /// Live heap bytes at the end of each window.
    pub window_heap: Vec<isize>,
    /// Ops completed by the end of each window.
    pub window_ops: Vec<u64>,
    /// One latency sample per step, ns: the current window's, or every
    /// window's when the phase keeps them for the tail.
    pub latencies_ns: Vec<u32>,
    keep_samples: bool,
    /// Median latency of each window, ns.
    pub window_p50_ns: Vec<f64>,
    /// Scratch for one window's samples.
    window_samples: Vec<u32>,
    /// Peak heap bytes after [`HEAP_WINDOWS`] windows.
    pub heap_peak: isize,
    /// Windows the current starting state has served.
    state_windows: u64,
}

impl Phase {
    /// A phase with room reserved up front, so the harness's own growth
    /// stays out of the first windows' heap figures. `keep_samples` keeps
    /// every latency sample (for the tail) instead of each window's only.
    pub fn with_room(window_steps: u64, keep_samples: bool) -> Self {
        Phase {
            keep_samples,
            window_rates: Vec::with_capacity(4096),
            window_slowdown: Vec::with_capacity(4096),
            window_heap: Vec::with_capacity(4096),
            window_ops: Vec::with_capacity(4096),
            latencies_ns: Vec::with_capacity(window_steps as usize * (HEAP_WINDOWS + 1)),
            window_p50_ns: Vec::with_capacity(4096),
            window_samples: Vec::with_capacity(window_steps as usize),
            ..Phase::default()
        }
    }

    /// Windows counted by the end-to-end statistics: all but the first
    /// [`WARM_UP_SHARE`] of them.
    fn counted(&self) -> std::ops::RangeFrom<usize> {
        (self.window_slowdown.len() as f64 * WARM_UP_SHARE) as usize..
    }

    /// Median window throughput at the gauge's reference speed, ops/s.
    pub fn ops_per_s(&self) -> f64 {
        let mut at_reference: Vec<f64> = self.window_rates[self.counted()]
            .iter()
            .zip(&self.window_slowdown[self.counted()])
            .map(|(rate, slowdown)| rate * slowdown)
            .collect();
        stats::median(&mut at_reference)
    }

    /// Median over windows of their median op latency at the gauge's
    /// reference speed, µs.
    pub fn op_p50_us(&self) -> f64 {
        let mut at_reference: Vec<f64> = self.window_p50_ns[self.counted()]
            .iter()
            .zip(&self.window_slowdown[self.counted()])
            .map(|(p50, slowdown)| p50 / slowdown)
            .collect();
        stats::median(&mut at_reference) / 1e3
    }

    /// The `q` quantile of step latency over the whole phase, µs (sorts
    /// the samples).
    pub fn latency_us(&mut self, q: f64) -> f64 {
        stats::quantile(&mut self.latencies_ns, q) / 1e3
    }
}

/// Runs `windows` windows of closed-loop steps of `w`. A state that has
/// served `W::LIFETIME_WINDOWS` windows is checked and rebuilt first,
/// untimed.
pub fn run_windows<W: Workload, T: Tracer>(
    w: &mut W,
    t: &mut T,
    check: &mut Check,
    p: &mut Phase,
    seed: u64,
    windows: u64,
) {
    for _ in 0..windows {
        if p.state_windows == W::LIFETIME_WINDOWS {
            w.finish(check);
            let lifetime = p.window_rates.len() as u64 / W::LIFETIME_WINDOWS;
            *w = W::setup(
                seed ^ lifetime.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                &mut Off,
            );
            p.state_windows = 0;
        }
        let window_start = Instant::now();
        let mut window_ops = 0;
        for _ in 0..W::WINDOW_STEPS {
            t.set_op(p.steps);
            let t0 = Instant::now();
            let s = w.step(t, check);
            let dt = t0.elapsed().as_nanos() as u64;
            p.steps += 1;
            p.ops += s.ops;
            window_ops += s.ops;
            p.latencies_ns
                .push(u32::try_from(s.latency_ns.unwrap_or(dt)).unwrap_or(u32::MAX));
        }
        p.window_rates
            .push(window_ops as f64 / window_start.elapsed().as_secs_f64());
        // The latency samples are the harness's, not the program's.
        let samples = p.latencies_ns.capacity() * std::mem::size_of::<u32>();
        p.window_heap.push(alloc::live_bytes() - samples as isize);
        p.window_ops.push(p.ops);
        let from = p.latencies_ns.len() - W::WINDOW_STEPS as usize;
        p.window_samples.clear();
        p.window_samples.extend_from_slice(&p.latencies_ns[from..]);
        p.window_p50_ns.push(stats::median(&mut p.window_samples));
        if !p.keep_samples {
            p.latencies_ns.clear();
        }
        p.state_windows += 1;
        if p.window_rates.len() <= HEAP_WINDOWS {
            p.heap_peak = alloc::peak_bytes();
        }
    }
}

/// Builds and drops one starting state; returns the wall time it took and
/// that time at the gauge's reference speed, s.
fn time_setup<W: Workload>(seed: u64, gauge: &mut Gauge) -> (f64, f64) {
    let t0 = Instant::now();
    drop(W::setup(seed, &mut Off));
    let took = t0.elapsed().as_secs_f64();
    (took, took / gauge.slowdown())
}

/// Runs untraced windows of `w` for `seconds`, reading `gauge` after each.
/// With `setup_s`, also times a fresh build of the starting state between
/// windows, spending about [`SETUP_SHARE`] of the run on it, so set-up is
/// sampled across the run like the ops are.
fn run_untraced<W: Workload>(
    w: &mut W,
    check: &mut Check,
    seed: u64,
    seconds: f64,
    gauge: &mut Gauge,
    mut setup_s: Option<&mut Vec<f64>>,
) -> Phase {
    // The tail is reported only by the traced run's untraced half.
    let mut p = Phase::with_room(W::WINDOW_STEPS, setup_s.is_none());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut setup_spent = 0.0;
    loop {
        run_windows(w, &mut Off, check, &mut p, seed, 1);
        p.window_slowdown
            .push(gauge.slowdown().powf(W::PHASE_EXPONENT));
        let now = Instant::now();
        if now >= deadline {
            return p;
        }
        let elapsed = (now - start).as_secs_f64();
        if let Some(samples) = setup_s.as_deref_mut() {
            // After the heap figure is read, so a spare state never counts.
            if p.window_rates.len() > HEAP_WINDOWS && setup_spent < SETUP_SHARE * elapsed {
                let (took, at_reference) = time_setup::<W>(seed, gauge);
                setup_spent += took;
                samples.push(at_reference);
            }
        }
    }
}

/// What [`steady_state`] saw.
#[derive(Debug)]
pub struct Steady {
    /// Output checks.
    pub check: Check,
    /// Median window rate of the first and of the last tenth of windows.
    pub first_rate: f64,
    /// See `first_rate`.
    pub last_rate: f64,
    /// Growth of the most heap held in a tenth of the windows, from the
    /// first tenth to the last, per op completed in between (bytes).
    pub heap_growth_per_op: f64,
}

/// Runs `windows` untraced windows of `W` from one seed and compares the
/// first tenth of them with the last: a workload whose per-op cost or heap
/// drifts with run length shows it here, not as noise between runs.
pub fn steady_state<W: Workload>(seed: u64, windows: u64) -> Steady {
    let mut check = Check::default();
    let mut p = Phase::with_room(W::WINDOW_STEPS, false);
    let mut w = W::setup(seed, &mut Off);
    run_windows(&mut w, &mut Off, &mut check, &mut p, seed, windows);
    w.finish(&mut check);
    let n = p.window_rates.len();
    let tenth = (n / 10).max(1);
    let max_heap = |r: std::ops::Range<usize>| p.window_heap[r].iter().copied().max().unwrap_or(0);
    let ops_between = p.window_ops[n - 1] - p.window_ops[tenth - 1];
    Steady {
        first_rate: stats::median(&mut p.window_rates[..tenth].to_vec()),
        last_rate: stats::median(&mut p.window_rates[n - tenth..].to_vec()),
        heap_growth_per_op: (max_heap(n - tenth..n) - max_heap(0..tenth)) as f64
            / ops_between.max(1) as f64,
        check,
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Every end-to-end metric as (name, unit, better), in output order.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_heap_mib", "MiB", "lower"),
];

/// The untraced run: every end-to-end metric, times at the gauge's
/// reference speed.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut check = Check::default();
    let mut gauge = Gauge::new();
    let mut setup_s = Vec::with_capacity(1024);
    for _ in 0..SETUP_REPEATS {
        setup_s.push(time_setup::<W>(seed, &mut gauge).1);
    }
    // The measured state is built once more, with the heap counted.
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let mut w = W::setup(seed, &mut Off);
    let phase = run_untraced(
        &mut w,
        &mut check,
        seed,
        seconds,
        &mut gauge,
        Some(&mut setup_s),
    );
    w.finish(&mut check);
    let values = [
        phase.ops_per_s(),
        phase.op_p50_us(),
        stats::median(&mut setup_s),
        (phase.heap_peak - base) as f64 / (1u64 << 20) as f64,
    ];
    Outcome {
        check,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| metric(name, unit, value))
            .collect(),
    }
}

/// Per-layer counts a workload may report; the others read 0 for it.
pub const COUNTS: &[(&str, &str, &str)] = &[
    ("blkback.errors", "count", "lower"),
    ("ring.full_per_attempt", "ratio", "lower"),
    ("blk.read_hits_per_read", "ratio", "higher"),
    ("fabric.dropped", "count", "lower"),
    ("fabric.requeued", "count", "lower"),
    ("restart.pages_restored", "count", "lower"),
    ("restart.requests_lost", "count", "lower"),
    ("mem.dedup_frames", "count", "higher"),
    ("mem.frames_in_use", "count", "lower"),
    ("audit.records_per_op", "count", "lower"),
    ("migration.rounds", "count", "lower"),
    ("migration.pages_total", "count", "lower"),
    ("migration.pages_final", "count", "lower"),
    ("migration.sim_downtime_ms", "ms", "lower"),
];

/// Every per-layer metric as (name, unit, better), in output order.
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for s in Span::ALL {
        let per = if s.is_setup() { "setup" } else { "op" };
        out.push((format!("{}.ns_per_call", s.name()), "ns", "lower"));
        out.push((format!("{}.calls_per_{per}", s.name()), "count", "lower"));
        out.push((format!("{}.allocs_per_call", s.name()), "count", "lower"));
    }
    for &(name, unit, better) in COUNTS {
        out.push((name.to_string(), unit, better));
    }
    out.push(("op_p99_us".into(), "us", "lower"));
    out.push(("op_samples".into(), "count", "higher"));
    out.push(("unattributed_share".into(), "ratio", "lower"));
    out.push(("trace_overhead".into(), "ratio", "higher"));
    out
}

/// Where the traced run writes its spans; each traced run of a workload
/// replaces the last one's file, which records the seed.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.json"))
}

/// The traced run: an untraced half for reference, then a fixed number of
/// traced steps from a fresh starting state. Gives every per-layer metric.
pub fn per_layer<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut check = Check::default();

    let mut w = W::setup(seed, &mut Off);
    let mut untraced = run_untraced(
        &mut w,
        &mut check,
        seed,
        seconds * UNTRACED_SHARE,
        &mut Gauge::new(),
        None,
    );
    w.finish(&mut check);
    drop(w);

    let mut log = SpanLog::new(1 << 16);
    let mut traced = Phase::with_room(W::WINDOW_STEPS, false);
    let mut w = W::setup(seed, &mut log);
    let setup_spans = log.len();
    let windows = W::TRACED_STEPS / W::WINDOW_STEPS;
    run_windows(&mut w, &mut log, &mut check, &mut traced, seed, windows);
    let counts = w.counts();
    w.finish(&mut check);
    let trace = log.finish();

    let path = trace_path(W::NAME);
    let written = std::fs::create_dir_all(path.parent().expect("file in a directory"))
        .and_then(|()| trace.write_json(&path, W::NAME, seed));
    check.holds(written.is_ok(), "trace file written");

    let setup_stats = trace.summarize(0..setup_spans);
    let op_stats = trace.summarize(setup_spans..trace.recs.len());
    let mut values: Vec<f64> = Vec::new();
    for (i, s) in Span::ALL.iter().enumerate() {
        let (st, per) = if s.is_setup() {
            (&setup_stats[i], 1.0)
        } else {
            (&op_stats[i], traced.ops.max(1) as f64)
        };
        values.extend([st.ns_per_call, st.calls as f64 / per, st.allocs_per_call]);
    }
    for &(name, _, _) in COUNTS {
        let v = counts.iter().find(|(n, _)| *n == name).map_or(0.0, |c| c.1);
        values.push(v);
    }
    values.push(untraced.latency_us(0.99));
    values.push(untraced.latencies_ns.len() as f64);
    values.push(trace.unattributed_share(setup_spans));
    // Raw median window rates: the traced run reads no gauge.
    let median_rate = |p: &mut Phase| stats::median(&mut p.window_rates);
    values.push(median_rate(&mut traced) / median_rate(&mut untraced));

    let metrics = per_layer_names()
        .into_iter()
        .zip(values)
        .map(|((name, unit, _), value)| metric(name, unit, value))
        .collect();
    Outcome { check, metrics }
}

/// The run's last output line: one JSON object.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::F64(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(o.check.correct())),
        ("attempted".into(), Json::U64(o.check.attempted)),
        ("failed".into(), Json::U64(o.check.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    xoar_codec::to_string(&line)
}
