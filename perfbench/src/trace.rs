//! Spans recorded by the benchmark around each call into a layer's
//! public API, and the per-layer numbers derived from them.
//!
//! A span has a name, start, end, parent and op id. The traced run keeps
//! every span in memory and writes them out as xoar-codec JSON when it
//! ends; the untraced run uses [`Off`], whose methods compile to nothing.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use xoar_codec::{Json, ToJson};

use crate::alloc;

/// Op id given to spans recorded while the starting state is built.
pub const SETUP_OP: u64 = u64::MAX;

/// Declares [`Span`] with the public call each variant times.
macro_rules! spans {
    ($($variant:ident => $name:literal,)+) => {
        /// One layer boundary: a public call of the platform, or the
        /// benchmark client's own work around those calls (`client.*`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        impl Span {
            /// Every span, in declaration order.
            pub const ALL: &'static [Span] = &[$(Span::$variant),+];

            /// The span's metric prefix.
            pub fn name(self) -> &'static str {
                match self {
                    $(Span::$variant => $name,)+
                }
            }
        }
    };
}

spans! {
    BlkSubmitBatch => "blk.submit_batch",
    BlkWritePage => "blk.write_page",
    BlkbackProcess => "blkback.process",
    BlkPoll => "blk.poll",
    NetTransmit => "net.transmit",
    NetbackProcess => "netback.process",
    NetReceive => "net.receive",
    RestartNetback => "restart.netback",
    ToolstackClone => "toolstack.clone",
    MemWarmWrite => "mem.warm_write",
    ToolstackDestroy => "toolstack.destroy",
    MemDedup => "mem.dedup",
    MigrationMigrate => "migration.migrate",
    MemDirtyWrite => "mem.dirty_write",
    ClientInputs => "client.inputs",
    ClientCheck => "client.check",
    SetupPlatformBoot => "setup.platform_boot",
    SetupCreateGuest => "setup.create_guest",
    SetupCaptureTemplate => "setup.capture_template",
    SetupOpenFlow => "setup.open_flow",
}

impl Span {
    /// Whether the span times building the starting state rather than an op.
    pub fn is_setup(self) -> bool {
        self.name().starts_with("setup.")
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Where a workload reports the calls it makes.
pub trait Tracer {
    /// Opens a span around calls that are about to start.
    fn begin(&mut self, span: Span) -> Open;
    /// Closes `open` after `calls` public calls that did `units` of work
    /// (requests, frames); `ns_per_call` is reported per unit.
    fn end(&mut self, open: Open, calls: u64, units: u64);
    /// Sets the op id carried by the spans that follow.
    fn set_op(&mut self, op: u64);
}

/// The untraced run's tracer: records nothing.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _span: Span) -> Open {
        Open(0)
    }

    #[inline(always)]
    fn end(&mut self, _open: Open, _calls: u64, _units: u64) {}

    #[inline(always)]
    fn set_op(&mut self, _op: u64) {}
}

/// A cheap monotonic tick: the time-stamp counter on x86_64 (about half
/// the cost of `Instant::now` here), else nanoseconds since first use.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC has no preconditions; it only reads the time-stamp
    // counter, which every x86_64 CPU provides.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Which call.
    pub span: Span,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op the calls were made for ([`SETUP_OP`] during set-up).
    pub op: u64,
    /// Start: ticks while recording, ns since the log began in a [`Trace`].
    pub start: u64,
    /// End, in the same unit as `start`.
    pub end: u64,
    /// Public calls made inside the span.
    pub calls: u64,
    /// Work those calls did.
    pub units: u64,
    /// Allocations made during the span, children included.
    pub allocs: u64,
}

impl ToJson for SpanRec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.span.name().into())),
            ("start_ns".into(), Json::U64(self.start)),
            ("end_ns".into(), Json::U64(self.end)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::U64(p.into())),
            ),
            ("op".into(), Json::U64(self.op)),
            ("calls".into(), Json::U64(self.calls)),
            ("units".into(), Json::U64(self.units)),
            ("allocs".into(), Json::U64(self.allocs)),
        ])
    }
}

/// The traced run's tracer: every span, in memory.
pub struct SpanLog {
    recs: Vec<SpanRec>,
    stack: Vec<u32>,
    op: u64,
    epoch: Instant,
    tick0: u64,
    /// Tracer cost inside each span and between spans, in ticks.
    inside: f64,
    outside: f64,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans, calibrated for its
    /// own cost.
    pub fn new(capacity: usize) -> Self {
        let mut log = SpanLog {
            recs: Vec::with_capacity(capacity.max(CAL_PAIRS)),
            stack: Vec::with_capacity(16),
            op: SETUP_OP,
            epoch: Instant::now(),
            tick0: ticks(),
            inside: 0.0,
            outside: 0.0,
        };
        log.calibrate();
        log
    }

    /// Measures what an empty span costs inside its bounds and outside
    /// them, so both can be taken out of the layers' times. Takes the
    /// median of several batches, which an interrupt cannot skew.
    fn calibrate(&mut self) {
        let mut pair = Vec::with_capacity(CAL_BATCHES);
        let mut inside = Vec::with_capacity(CAL_BATCHES);
        for _ in 0..CAL_BATCHES {
            self.recs.clear();
            let t0 = ticks();
            for _ in 0..CAL_PAIRS / CAL_BATCHES {
                let o = self.begin(Span::BlkPoll);
                self.end(o, 0, 0);
            }
            let n = self.recs.len() as f64;
            pair.push((ticks() - t0) as f64 / n);
            inside.push(
                self.recs
                    .iter()
                    .map(|r| (r.end - r.start) as f64)
                    .sum::<f64>()
                    / n,
            );
        }
        self.recs.clear();
        self.inside = crate::stats::median(&mut inside);
        self.outside = (crate::stats::median(&mut pair) - self.inside).max(0.0);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Ends recording and converts every time to nanoseconds.
    pub fn finish(mut self) -> Trace {
        let ns_per_tick =
            self.epoch.elapsed().as_nanos() as f64 / (ticks() - self.tick0).max(1) as f64;
        let ns = |t: u64| (t.saturating_sub(self.tick0) as f64 * ns_per_tick) as u64;
        for r in &mut self.recs {
            (r.start, r.end) = (ns(r.start), ns(r.end));
        }
        Trace {
            inside_ns: self.inside * ns_per_tick,
            outside_ns: self.outside * ns_per_tick,
            recs: self.recs,
        }
    }
}

/// Empty spans timed by [`SpanLog::calibrate`], over this many batches.
const CAL_PAIRS: usize = 16 * 1024;
const CAL_BATCHES: usize = 16;

impl Tracer for SpanLog {
    #[inline]
    fn begin(&mut self, span: Span) -> Open {
        // Grow before reading the allocation count, so the log's own
        // growth is never charged to a span.
        if self.recs.len() == self.recs.capacity() {
            self.recs.reserve(self.recs.len());
        }
        let idx = self.recs.len() as u32;
        self.recs.push(SpanRec {
            span,
            parent: self.stack.last().copied(),
            op: self.op,
            start: 0,
            end: 0,
            calls: 0,
            units: 0,
            allocs: alloc::allocs(),
        });
        self.stack.push(idx);
        // The clock is read last on the way in and first on the way out.
        self.recs[idx as usize].start = ticks();
        Open(idx)
    }

    #[inline]
    fn end(&mut self, open: Open, calls: u64, units: u64) {
        let end = ticks();
        let allocs = alloc::allocs();
        let rec = &mut self.recs[open.0 as usize];
        rec.end = end;
        rec.calls = calls;
        rec.units = units;
        rec.allocs = allocs - rec.allocs;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
    }

    fn set_op(&mut self, op: u64) {
        self.op = op;
    }
}

/// A finished log, in nanoseconds.
#[derive(Debug)]
pub struct Trace {
    /// Every span, in start order.
    pub recs: Vec<SpanRec>,
    /// Tracer cost inside each span's bounds, ns.
    pub inside_ns: f64,
    /// Tracer cost outside each span's bounds, ns.
    pub outside_ns: f64,
}

/// What one span name cost over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Public calls made.
    pub calls: u64,
    /// Median self time per unit of work, ns.
    pub ns_per_call: f64,
    /// Self allocations per call.
    pub allocs_per_call: f64,
}

impl Trace {
    /// Writes the spans as one xoar-codec JSON object.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        write!(
            out,
            "{{\"workload\":{},\"seed\":{seed},\"tracer_inside_ns\":{},\"tracer_outside_ns\":{},\"spans\":[",
            xoar_codec::to_string(workload),
            xoar_codec::to_string(&self.inside_ns),
            xoar_codec::to_string(&self.outside_ns),
        )?;
        for (i, rec) in self.recs.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            out.write_all(xoar_codec::to_string(rec).as_bytes())?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }

    /// Per-span self time and allocations over `recs[range]`, indexed
    /// like [`Span::ALL`].
    ///
    /// Self time is a span's duration minus the part its children cover
    /// and minus the tracer's own cost: its inside cost once, and the
    /// outside cost of each child.
    pub fn summarize(&self, range: Range<usize>) -> Vec<LayerStats> {
        let mut child_ns = vec![0u64; self.recs.len()];
        let mut children = vec![0u32; self.recs.len()];
        let mut child_allocs = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p as usize] += r.end - r.start;
                children[p as usize] += 1;
                child_allocs[p as usize] += r.allocs;
            }
        }
        let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); Span::ALL.len()];
        let mut calls = vec![0u64; Span::ALL.len()];
        let mut allocs = vec![0u64; Span::ALL.len()];
        for (i, r) in self
            .recs
            .iter()
            .enumerate()
            .take(range.end)
            .skip(range.start)
        {
            let k = r.span as usize;
            let self_ns = (r.end - r.start - child_ns[i]) as f64
                - self.inside_ns
                - f64::from(children[i]) * self.outside_ns;
            per_unit[k].push(self_ns.max(0.0) / r.units.max(1) as f64);
            calls[k] += r.calls;
            allocs[k] += r.allocs - child_allocs[i];
        }
        per_unit
            .into_iter()
            .zip(calls.into_iter().zip(allocs))
            .map(|(mut samples, (calls, allocs))| LayerStats {
                calls,
                ns_per_call: crate::stats::median(&mut samples),
                allocs_per_call: allocs as f64 / calls.max(1) as f64,
            })
            .collect()
    }

    /// Share of op time that no span covers, over `recs[from..]`. An op's
    /// time runs from its first span's start to its last span's end (the
    /// harness's own step bookkeeping is not op time), and the tracer's
    /// own cost is taken out of both the op time and the gaps.
    pub fn unattributed_share(&self, from: usize) -> f64 {
        let (mut op_ns, mut uncovered) = (0.0, 0.0);
        let mut recs = &self.recs[from..];
        while let Some(first) = recs.first() {
            let len = recs.iter().take_while(|r| r.op == first.op).count();
            let (op, rest) = recs.split_at(len);
            recs = rest;
            let roots = || op.iter().filter(|r| r.parent.is_none());
            let extent = roots().map(|r| r.end).max().unwrap_or(first.end) - first.start;
            let covered: u64 = roots().map(|r| r.end - r.start).sum();
            let gaps = roots().count().saturating_sub(1) as f64;
            op_ns += extent as f64 - op.len() as f64 * (self.inside_ns + self.outside_ns)
                + self.outside_ns;
            uncovered += (extent - covered) as f64 - gaps * self.outside_ns;
        }
        (uncovered / op_ns).max(0.0)
    }
}
