//! Pins the control-plane cost of each guest-lifecycle call.
//!
//! For one `create_guest`, one `clone_guest` and one `destroy_guest` (of a
//! clone and of a built guest) this records, exactly: the XenStore-State
//! operations served, the hypercalls crossing the gate (counted by a
//! [`GateObserver`], with an FNV-1a fingerprint of every call and its
//! outcome, in order), and the audit records appended (with the chain
//! hash of the last one, which covers every record's bytes). A change to
//! how devices are linked or unlinked must leave every number here as
//! it is.

use std::cell::RefCell;
use std::rc::Rc;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::{DomId, GateObserver, HvResult, Hypercall, HypercallRet, Hypervisor};

/// Hypercalls seen by the gate: how many, how many succeeded, and a
/// running FNV-1a hash of each `caller call outcome` line.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
struct Calls {
    total: u64,
    ok: u64,
    fingerprint: u64,
}

struct Counter(Rc<RefCell<Calls>>);

impl GateObserver for Counter {
    fn observe(
        &mut self,
        _hv: &Hypervisor,
        caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
    ) {
        let mut c = self.0.borrow_mut();
        c.total += 1;
        c.ok += u64::from(result.is_ok());
        let line = format!("{caller:?} {call:?} {result:?}\n");
        let mut h = if c.fingerprint == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            c.fingerprint
        };
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        c.fingerprint = h;
    }
}

/// What one lifecycle call cost the control plane.
#[derive(Debug, PartialEq, Eq)]
struct Cost {
    xs_ops: u64,
    hypercalls: u64,
    hypercalls_ok: u64,
    audit_records: usize,
}

struct Meter {
    calls: Rc<RefCell<Calls>>,
    xs_ops: u64,
    seen: Calls,
    audit: usize,
}

impl Meter {
    fn attach(p: &mut Platform) -> Self {
        let calls = Rc::new(RefCell::new(Calls::default()));
        p.hv.attach_observer(Box::new(Counter(calls.clone())));
        Meter {
            calls,
            xs_ops: p.xs.state_ops(),
            seen: Calls::default(),
            audit: p.audit.len(),
        }
    }

    /// The cost since the last reading.
    fn take(&mut self, p: &Platform) -> Cost {
        let now = *self.calls.borrow();
        let cost = Cost {
            xs_ops: p.xs.state_ops() - self.xs_ops,
            hypercalls: now.total - self.seen.total,
            hypercalls_ok: now.ok - self.seen.ok,
            audit_records: p.audit.len() - self.audit,
        };
        self.xs_ops = p.xs.state_ops();
        self.seen = now;
        self.audit = p.audit.len();
        cost
    }

    fn fingerprint(&self) -> u64 {
        self.calls.borrow().fingerprint
    }
}

fn cost(xs_ops: u64, hypercalls: u64, hypercalls_ok: u64, audit_records: usize) -> Cost {
    Cost {
        xs_ops,
        hypercalls,
        hypercalls_ok,
        audit_records,
    }
}

/// Runs create → capture → clone → destroy(clone) → create → destroy on
/// `p`, checking each pinned call's cost (the first create also makes
/// the store's shared parent directories), then returns the hypercall
/// fingerprint and the audit log's last chain hash.
fn run(mut p: Platform, want: [Cost; 5]) -> (u64, u64) {
    let ts = p.services.toolstacks[0];
    let mut m = Meter::attach(&mut p);

    let tpl = p
        .create_guest(ts, GuestConfig::evaluation_guest("tpl"))
        .unwrap();
    assert_eq!(m.take(&p), want[0], "create_guest");

    p.capture_template(ts, tpl).unwrap();
    m.take(&p);
    let c = p.clone_guest(ts, tpl, "c1").unwrap();
    assert_eq!(m.take(&p), want[1], "clone_guest");

    p.destroy_guest(ts, c).unwrap();
    assert_eq!(m.take(&p), want[2], "destroy_guest (clone)");

    let b = p
        .create_guest(ts, GuestConfig::evaluation_guest("b"))
        .unwrap();
    assert_eq!(m.take(&p), want[3], "create_guest (second)");
    p.destroy_guest(ts, b).unwrap();
    assert_eq!(m.take(&p), want[4], "destroy_guest (built)");

    let last = p.audit.records().last().unwrap().hash;
    (m.fingerprint(), last)
}

#[test]
fn xoar_lifecycle_cost_is_pinned() {
    let got = run(
        Platform::xoar(XoarConfig::default()),
        [
            cost(90, 16, 16, 3),
            cost(33, 5, 5, 3),
            cost(34, 1, 1, 3),
            cost(82, 16, 16, 3),
            cost(34, 3, 3, 3),
        ],
    );
    assert_eq!(got, (6339892766364807174, 1423198959263562079));
}

#[test]
fn stock_xen_lifecycle_cost_is_pinned() {
    let got = run(
        Platform::stock_xen(),
        [
            cost(93, 16, 16, 3),
            cost(33, 5, 5, 3),
            cost(34, 1, 1, 3),
            cost(82, 16, 16, 3),
            cost(34, 3, 3, 3),
        ],
    );
    assert_eq!(got, (7768588926791706833, 17101591157104898375));
}
