//! `fabric_fanout`: a load balancer fanning frames out over the virtual
//! network fabric while its NetBack microreboots.
//!
//! One LB guest and four web guests, with 100k LB→web flows and 1k NAT'd
//! external flows open. Each tick the LB sends 32 × 1500 B frames, the
//! NetBacks and the switch run once, and the webs receive. 90% of frames
//! go to 8 hot flows, 10% spread over all 100k. Every 16th tick starts
//! with a fast-path NetBack microreboot, so the ticks that cross one make
//! up the tail. An op is one delivered frame.

use xoar_core::platform::{GuestConfig, Platform};
use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
use xoar_devices::fabric::UPLINK;
use xoar_hypervisor::DomId;

use super::{boot, check_platform};
use crate::trace::{Span, Tracer};
use crate::{Check, Rng, Step, Workload};

const WEBS: usize = 4;
const FLOWS: u64 = 100_000;
const NAT_FLOWS: u64 = 1_000;
/// Flow ids of the external connections, disjoint from the fan-out ids.
const NAT_FLOW_BASE: u64 = 1 << 32;
const HOT_FLOWS: usize = 8;
const FRAMES: usize = 32;
const FRAME_BYTES: usize = 1500;
const RESTART_EVERY: u64 = 16;

/// The web a fan-out flow is opened to.
fn web_of(flow: u64) -> usize {
    (flow % WEBS as u64) as usize
}

/// The workload's state.
pub struct FabricFanout {
    p: Platform,
    lb: DomId,
    webs: [DomId; WEBS],
    netback: DomId,
    engine: RestartEngine,
    hot: [u64; HOT_FLOWS],
    rng: Rng,
    tick: u64,
    sent: [u64; WEBS],
    delivered: [u64; WEBS],
    bytes: [u64; WEBS],
    dropped_at_setup: u64,
    requeued_at_setup: u64,
    pages_restored: u64,
    requests_lost: u64,
}

impl FabricFanout {
    fn fabric_stats(&self) -> (u64, u64) {
        let s = self
            .p
            .fabric
            .as_ref()
            .expect("enabled at set-up")
            .lifetime_stats();
        (s.dropped, s.requeued)
    }
}

impl Workload for FabricFanout {
    const NAME: &'static str = "fabric_fanout";
    /// 8192 ticks (about 40 ms): 512 microreboots per window.
    const WINDOW_STEPS: u64 = 8192;
    const TRACED_STEPS: u64 = 2 * 8192;
    const PHASE_EXPONENT: f64 = 1.14;

    fn setup<T: Tracer>(seed: u64, t: &mut T) -> Self {
        let mut rng = Rng::new(seed);
        let mut p = boot(t);
        let ts = p.services.toolstacks[0];
        let mut create = |p: &mut Platform, name: &str| {
            let o = t.begin(Span::SetupCreateGuest);
            let dom = p
                .create_guest(ts, GuestConfig::evaluation_guest(name))
                .expect("evaluation guest boots");
            t.end(o, 1, 1);
            dom
        };
        let lb = create(&mut p, "lb");
        let webs: [DomId; WEBS] = std::array::from_fn(|i| create(&mut p, &format!("web-{i}")));
        p.enable_fabric();
        let flows = (0..FLOWS)
            .map(|f| (f, webs[web_of(f)]))
            .chain((0..NAT_FLOWS).map(|f| (NAT_FLOW_BASE + f, UPLINK)));
        for (flow, dst) in flows {
            let o = t.begin(Span::SetupOpenFlow);
            let opened = p.fabric_open_flow(flow, lb, dst);
            t.end(o, 1, 1);
            assert!(opened, "flow {flow} opens");
        }
        let netback = p.services.netbacks[0];
        let mut engine = RestartEngine::new();
        engine
            .register(&mut p, netback, RestartPolicy::Never, RestartPath::Fast)
            .expect("netback registers for restarts");
        let hot = rng.distinct::<HOT_FLOWS>(FLOWS);
        let mut w = FabricFanout {
            p,
            lb,
            webs,
            netback,
            engine,
            hot,
            rng,
            tick: 0,
            sent: [0; WEBS],
            delivered: [0; WEBS],
            bytes: [0; WEBS],
            dropped_at_setup: 0,
            requeued_at_setup: 0,
            pages_restored: 0,
            requests_lost: 0,
        };
        (w.dropped_at_setup, w.requeued_at_setup) = w.fabric_stats();
        w
    }

    fn step<T: Tracer>(&mut self, t: &mut T, check: &mut Check) -> Step {
        self.tick += 1;
        if self.tick.is_multiple_of(RESTART_EVERY) {
            let o = t.begin(Span::RestartNetback);
            let r = self.engine.restart(&mut self.p, self.netback);
            t.end(o, 1, 1);
            match r {
                Ok(out) => {
                    self.pages_restored += out.pages_restored;
                    self.requests_lost += out.requests_lost as u64;
                }
                Err(_) => check.holds(false, "netback microreboot succeeds"),
            }
        }

        let o = t.begin(Span::ClientInputs);
        let mut flows = [0u64; FRAMES];
        for flow in &mut flows {
            *flow = if self.rng.below(10) < 9 {
                self.hot[self.rng.below(HOT_FLOWS as u64) as usize]
            } else {
                self.rng.below(FLOWS)
            };
        }
        t.end(o, 1, 1);
        let mut queued = [false; FRAMES];
        let o = t.begin(Span::NetTransmit);
        for (q, &flow) in queued.iter_mut().zip(&flows) {
            *q = self.p.net_transmit(self.lb, flow, FRAME_BYTES).is_ok();
        }
        t.end(o, FRAMES as u64, FRAMES as u64);
        let o = t.begin(Span::ClientCheck);
        let mut sent = 0usize;
        for (&q, &flow) in queued.iter().zip(&flows) {
            if q {
                self.sent[web_of(flow)] += 1;
                sent += 1;
            } else {
                check.op(false, "frame refused by the LB's ring");
            }
        }
        t.end(o, 1, 1);

        let o = t.begin(Span::NetbackProcess);
        self.p.process_netbacks();
        t.end(o, 1, sent as u64);

        // Each web drains its ring, then the LB drains its completions.
        let mut arrived = [(0usize, 0u64, 0usize); FRAMES];
        let (mut got, mut calls) = (0, 0);
        let o = t.begin(Span::NetReceive);
        for (w, &dom) in self.webs.iter().enumerate() {
            loop {
                calls += 1;
                let Some(pkt) = self.p.net_receive(dom) else {
                    break;
                };
                if let Some(a) = arrived.get_mut(got) {
                    *a = (w, pkt.flow, pkt.bytes);
                }
                got += 1;
            }
        }
        loop {
            calls += 1;
            if self.p.net_receive(self.lb).is_none() {
                break;
            }
        }
        t.end(o, calls, calls);

        let o = t.begin(Span::ClientCheck);
        for &(w, flow, bytes) in &arrived[..got.min(FRAMES)] {
            self.delivered[w] += 1;
            self.bytes[w] += bytes as u64;
            check.op(
                bytes == FRAME_BYTES && web_of(flow) == w,
                "frame delivered intact to its flow's web",
            );
        }
        for _ in got.min(FRAMES)..got {
            check.op(false, "more frames delivered than were sent");
        }
        for _ in got..sent {
            check.op(false, "frame sent this tick was not delivered");
        }
        t.end(o, 1, 1);
        Step {
            ops: got.min(sent) as u64,
            latency_ns: None,
        }
    }

    fn finish(&mut self, check: &mut Check) {
        for w in 0..WEBS {
            check.holds(
                self.delivered[w] == self.sent[w],
                "every web received exactly the frames sent to it",
            );
            check.holds(
                self.bytes[w] == self.sent[w] * FRAME_BYTES as u64,
                "every web received exactly the bytes sent to it",
            );
        }
        check.holds(
            self.p.hv.rollback_count(self.netback) == self.engine.total_restarts(),
            "every microreboot rolled the netback back",
        );
        check_platform(&mut self.p, check);
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let (dropped, requeued) = self.fabric_stats();
        vec![
            ("fabric.dropped", (dropped - self.dropped_at_setup) as f64),
            (
                "fabric.requeued",
                (requeued - self.requeued_at_setup) as f64,
            ),
            ("restart.pages_restored", self.pages_restored as f64),
            ("restart.requests_lost", self.requests_lost as f64),
        ]
    }
}
