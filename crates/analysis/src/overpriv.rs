//! Static-versus-used privilege diffing.
//!
//! The paper sizes each shard's whitelist by need; this module *checks*
//! that sizing. [`Usage`] is a gate observer that keeps, per domain,
//! the hypercalls that succeeded and the ones the gate refused, with
//! Multicall entries unpacked from the batch's per-entry results.
//! [`traced_scenario`] attaches it to a fresh hypervisor before the Xoar
//! platform boots on it, so the Bootstrapper's first call is seen, and
//! drives one representative pass over every management and data-path
//! operation the platform supports (guest creation — PV and HVM —,
//! toolstack pause/resume/resize, a log-dirty replication cursor and a
//! dedup pass, device-model DMA, network and block I/O, template
//! capture and snapshot-fork cloning, a driver microreboot, guest
//! destruction). [`report`] then diffs every
//! domain's *static* privileged-hypercall whitelist against the calls it
//! *actually issued*: whatever remains unused is over-privilege the
//! whitelist could shed.
//!
//! The scenario is fully deterministic (simulated time, no randomness),
//! so the resulting table is stable across runs and is committed to
//! EXPERIMENTS.md.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::privilege::HypercallSet;
use xoar_hypervisor::{
    DomId, GateObserver, HvError, HvResult, Hypercall, HypercallId, HypercallRet, Hypervisor,
    ShadowOp,
};

/// One domain's hypercalls as the gate decided them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    /// Calls that succeeded.
    pub used: HypercallSet,
    /// Calls refused with a permission denial (whitelist or argument
    /// check).
    pub refused: HypercallSet,
}

/// Per-domain hypercall usage, recorded at the gate.
///
/// Clones share one record: the clone attached to the gate writes it,
/// the one the driver keeps reads it.
#[derive(Clone, Default)]
pub struct Usage(Rc<RefCell<BTreeMap<DomId, Calls>>>);

impl Usage {
    /// What `dom` has issued so far.
    pub fn of(&self, dom: DomId) -> Calls {
        self.0.borrow().get(&dom).copied().unwrap_or_default()
    }
}

impl GateObserver for Usage {
    fn observe(
        &mut self,
        hv: &Hypervisor,
        caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
    ) {
        if let (Hypercall::Multicall { calls }, Ok(HypercallRet::Multi(results))) = (call, result) {
            for (sub, r) in calls.iter().zip(results) {
                self.observe(hv, caller, sub, r);
            }
        }
        let Ok(mut usage) = self.0.try_borrow_mut() else {
            return;
        };
        let calls = usage.entry(caller).or_default();
        match result {
            Ok(_) => calls.used.insert(call.id()),
            Err(HvError::PermissionDenied { .. }) => calls.refused.insert(call.id()),
            Err(_) => false,
        };
    }
}

/// One row of the over-privilege table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverprivEntry {
    /// The domain.
    pub dom: DomId,
    /// Its name (shard class or guest name).
    pub name: String,
    /// Statically whitelisted privileged calls, `Ord` order.
    pub declared: Vec<HypercallId>,
    /// Privileged calls actually issued (and successful).
    pub used: Vec<HypercallId>,
    /// `declared - used`: the shedding candidates.
    pub unused: Vec<HypercallId>,
}

/// Boots an observed platform and drives the representative workload.
///
/// Returns the platform with its [`Usage`] observer (boot included)
/// still attached; pass both to [`report`].
pub fn traced_scenario() -> HvResult<(Platform, Usage)> {
    let usage = Usage::default();
    let mut hv = Hypervisor::with_default_host();
    hv.attach_observer(Box::new(usage.clone()));
    let mut p = Platform::xoar_on(hv, XoarConfig::default());
    let ts = p.services.toolstacks[0];

    // Guest lifecycle: one PV guest, one HVM guest (exercises the
    // Builder's stub-domain path and the QemuVm whitelist).
    let pv = p.create_guest(ts, GuestConfig::evaluation_guest("pv-guest"))?;
    let mut hvm_cfg = GuestConfig::evaluation_guest("hvm-guest");
    hvm_cfg.hvm = true;
    let hvm = p.create_guest(ts, hvm_cfg)?;

    // Toolstack management surface.
    p.hv.hypercall(ts, Hypercall::DomctlPauseDomain { target: pv })?;
    p.hv.hypercall(ts, Hypercall::DomctlUnpauseDomain { target: pv })?;
    p.hv.hypercall(
        ts,
        Hypercall::DomctlSetMaxMem {
            target: pv,
            memory_mib: 1536,
        },
    )?;
    p.hv.hypercall(
        ts,
        Hypercall::DomctlSetVcpus {
            target: pv,
            vcpus: 2,
        },
    )?;
    p.hv.hypercall(ts, Hypercall::SysctlPhysinfo)?;

    // Replication surface: a log-dirty cursor over the PV guest (the
    // migration/HA engine's drain), then one host-wide dedup pass.
    let shadow_op = |op| Hypercall::DomctlShadowOp { target: pv, op };
    let cursor = p.hv.hypercall(ts, shadow_op(ShadowOp::Enable))?.cursor()?;
    p.hv.hypercall(ts, shadow_op(ShadowOp::Clean(cursor)))?;
    p.hv.hypercall(ts, shadow_op(ShadowOp::Off(cursor)))?;
    p.dedup_memory();

    // Device-model DMA into its guest (MmuWriteForeign under the
    // privileged_for edge).
    if let Some(model) = p.qemus.get_mut(&hvm) {
        model.dma_to_guest(&mut p.hv, Pfn(6), b"bios-shadow")?;
    }

    // Data path: network transmit and block write, both serviced.
    p.net_transmit(pv, 1, 1500)
        .map_err(|e| HvError::InvalidArgument(format!("net: {e:?}")))?;
    p.process_netbacks();
    p.blk_submit(pv, xoar_devices::blk::BlkOp::Write, 0, 8)
        .map_err(|e| HvError::InvalidArgument(format!("blk: {e:?}")))?;
    p.process_blkbacks();

    // Virtual network fabric: the NetBack terminates into the software
    // switch, and a flow nobody opened conn-tracks to the uplink with a
    // held NAT port. Switching adds no privilege — the fabric shard's
    // only memory reach stays the frontends' ring grants, which the
    // audit checks under its own `fabric` label.
    p.enable_fabric();
    p.net_transmit(pv, 2, 1500)
        .map_err(|e| HvError::InvalidArgument(format!("fabric: {e:?}")))?;
    p.process_netbacks();

    // Snapshot-fork lifecycle: seal a golden template and stamp one
    // clone from it (`DomctlCloneDomain`, the toolstack's fast-create
    // whitelist entry). Both stay alive so the analyzer sees the
    // template-backed sharing as declared edges.
    let golden = p.create_guest(ts, GuestConfig::evaluation_guest("golden"))?;
    p.capture_template(ts, golden)?;
    let _fx = p.clone_guest(ts, golden, "fx-0")?;

    // Driver microreboot: the shard snapshots itself, the Builder rolls
    // it back (the §3.3 restart pair).
    let nb = p.services.netbacks[0];
    p.hv.hypercall(nb, Hypercall::VmSnapshot)?;
    let builder = p.services.builder;
    p.hv.hypercall(builder, Hypercall::VmRollback { target: nb })?;

    // Teardown of the HVM guest (toolstack destroy + stub reclamation).
    p.destroy_guest(ts, hvm)?;
    Ok((p, usage))
}

/// Diffs each domain's whitelist against its recorded usage.
///
/// Rows appear for every domain that either declares or used at least
/// one privileged call — including domains already destroyed (the
/// Bootstrapper's boot-time activity is the most interesting row).
pub fn report(p: &Platform, usage: &Usage) -> Vec<OverprivEntry> {
    let mut ids: BTreeSet<DomId> = p.hv.domain_ids().into_iter().collect();
    ids.extend(usage.0.borrow().keys());
    let mut rows = Vec::new();
    for dom in ids {
        let Ok(d) = p.hv.domain(dom) else { continue };
        let declared: Vec<HypercallId> = d.privileges.hypercalls.iter().collect();
        let used: Vec<HypercallId> = usage
            .of(dom)
            .used
            .iter()
            .filter(|id| id.is_privileged())
            .collect();
        if declared.is_empty() && used.is_empty() {
            continue;
        }
        let unused: Vec<HypercallId> = declared
            .iter()
            .copied()
            .filter(|id| !used.contains(id))
            .collect();
        rows.push(OverprivEntry {
            dom,
            name: d.name.clone(),
            declared,
            used,
            unused,
        });
    }
    rows
}

/// Deterministic text rendering of the table.
pub fn render(rows: &[OverprivEntry]) -> String {
    let names = |ids: &[HypercallId]| ids.iter().map(|i| i.name()).collect::<Vec<_>>().join(",");
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "overpriv {} {} declared={} used={} unused=[{}]\n",
            r.dom,
            r.name,
            r.declared.len(),
            r.used.len(),
            names(&r.unused),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_and_traces_boot() {
        let (p, usage) = traced_scenario().unwrap();
        let rows = report(&p, &usage);
        // The Bootstrapper (dom0, long destroyed) has a row: its
        // boot-time activity was seen because the observer is attached
        // before the first shard is created.
        let boot = rows.iter().find(|r| r.dom == DomId(0)).unwrap();
        assert_eq!(boot.name, "bootstrapper");
        assert!(boot.used.contains(&HypercallId::DomctlCreateDomain));
        assert!(boot.used.contains(&HypercallId::DomctlPermitHypercall));
    }

    #[test]
    fn tightened_shards_show_no_dead_weight_on_core_rows() {
        let (p, usage) = traced_scenario().unwrap();
        let ts = p.services.toolstacks[0];
        let builder = p.services.builder;
        let rows = report(&p, &usage);
        // Satellite check for the shard.rs tightening: the scenario
        // exercises the toolstack's and bootstrapper's whitelists
        // completely — every declared call is observed in use.
        for dom in [ts, DomId(0)] {
            let row = rows.iter().find(|r| r.dom == dom).unwrap();
            assert_eq!(
                row.unused,
                vec![],
                "{} still over-privileged: {:?}",
                row.name,
                row.unused
            );
        }
        // The Builder's whitelist is exercised except for delegation
        // (issued only when booting extra toolstacks) — pinned so any
        // new dead weight fails this test.
        let b = rows.iter().find(|r| r.dom == builder).unwrap();
        assert!(
            b.unused.is_empty() || b.unused == vec![HypercallId::DomctlDelegate],
            "builder unused grew: {:?}",
            b.unused
        );
    }

    #[test]
    fn report_is_deterministic() {
        let render_once = || {
            let (p, usage) = traced_scenario().unwrap();
            render(&report(&p, &usage))
        };
        assert_eq!(render_once(), render_once());
    }
}
