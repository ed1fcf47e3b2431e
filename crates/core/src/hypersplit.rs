//! Hypervisor-split analysis (§7.1, future work).
//!
//! "The hypervisor itself remains unpartitioned, with all the code
//! running with heightened privileges. While operations like guest page
//! table updates, I/O-port management, trap and emulate handlers, etc.,
//! require these capabilities, operations like domain management,
//! profiling and tracing and so on function correctly even when run in a
//! lower privileged hardware protection domain."
//!
//! This module classifies every hypercall the model implements into the
//! ring-0-required set and the deprivilegeable set, and computes how much
//! of the hypercall interface's *risk weight* could move out of ring 0 —
//! the quantitative version of the paper's proposal to split the
//! hypervisor into privileged and non-privileged components communicating
//! over an IPC boundary.

use xoar_hypervisor::HypercallId;

/// Where a hypercall's implementation must live after the split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitSide {
    /// Must stay in ring 0: touches page tables, interrupt routing, or
    /// the machine-memory map directly.
    Ring0,
    /// Can move to the deprivileged component: bookkeeping over
    /// hypervisor-internal data structures, reachable via IPC.
    Deprivileged,
}

/// Classifies one hypercall per §7.1's criteria.
pub fn classify(id: HypercallId) -> SplitSide {
    use HypercallId::*;
    match id {
        // Memory-map and interrupt plumbing: ring 0.
        MmuMapForeign
        | MmuWriteForeign
        | MmuUpdateSelf
        | MemoryPopulate
        | GnttabSetup
        | GnttabMapGrantRef
        | GnttabForeignSetup
        | DomctlIrqPermission
        | DomctlIoPortPermission
        | DomctlMmioPermission
        | DomctlAssignDevice
        | VmSnapshot
        | VmRollback
        | DomctlShadowOp
        | SysctlDedup
        | PlatformReboot
        // A multicall dispatches any sub-call; a clone aliases frames.
        | Multicall
        | DomctlCloneDomain => SplitSide::Ring0,
        // "Operations like domain management, profiling and tracing and
        // so on function correctly even when run in a lower privileged
        // hardware protection domain."
        DomctlCreateDomain
        | DomctlDestroyDomain
        | DomctlPauseDomain
        | DomctlUnpauseDomain
        | DomctlSetMaxMem
        | DomctlSetVcpus
        | DomctlSetRole
        | DomctlDelegate
        | DomctlSetPrivilegedFor
        | DomctlPermitHypercall
        | SysctlPhysinfo
        | XenVersion
        | SchedOp
        | ConsoleIo
        | EvtchnSend
        | EvtchnAllocUnbound
        | EvtchnBindInterdomain
        | EvtchnBindVirq
        | EvtchnClose => SplitSide::Deprivileged,
    }
}

/// The split's bottom line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitAnalysis {
    /// Hypercalls that must remain in ring 0.
    pub ring0_calls: usize,
    /// Hypercalls that can be deprivileged.
    pub deprivileged_calls: usize,
    /// Total risk weight remaining in ring 0.
    pub ring0_risk: u64,
    /// Total risk weight moved out.
    pub deprivileged_risk: u64,
}

impl SplitAnalysis {
    /// Fraction of the hypercall interface (by count) leaving ring 0.
    pub fn call_fraction_moved(&self) -> f64 {
        self.deprivileged_calls as f64 / (self.ring0_calls + self.deprivileged_calls) as f64
    }
}

/// Analyses the full hypercall interface.
pub fn analyse() -> SplitAnalysis {
    let mut a = SplitAnalysis {
        ring0_calls: 0,
        deprivileged_calls: 0,
        ring0_risk: 0,
        deprivileged_risk: 0,
    };
    for id in HypercallId::ALL {
        match classify(id) {
            SplitSide::Ring0 => {
                a.ring0_calls += 1;
                a.ring0_risk += id.risk_weight() as u64;
            }
            SplitSide::Deprivileged => {
                a.deprivileged_calls += 1;
                a.deprivileged_risk += id.risk_weight() as u64;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_and_interrupt_paths_stay_in_ring0() {
        for id in [
            HypercallId::MmuMapForeign,
            HypercallId::MmuUpdateSelf,
            HypercallId::DomctlIrqPermission,
            HypercallId::MemoryPopulate,
        ] {
            assert_eq!(classify(id), SplitSide::Ring0, "{id:?}");
        }
    }

    #[test]
    fn domain_management_deprivileges() {
        for id in [
            HypercallId::DomctlCreateDomain,
            HypercallId::DomctlPauseDomain,
            HypercallId::SysctlPhysinfo,
            HypercallId::SchedOp,
        ] {
            assert_eq!(classify(id), SplitSide::Deprivileged, "{id:?}");
        }
    }

    #[test]
    fn a_majority_of_calls_can_leave_ring0() {
        let a = analyse();
        assert!(a.deprivileged_calls > a.ring0_calls, "{a:?}");
        assert!(a.call_fraction_moved() > 0.5);
        // But the highest-risk machinery remains privileged: per-call,
        // the mean risk left in ring 0 exceeds the mean risk moved out.
        let mean_ring0 = a.ring0_risk as f64 / a.ring0_calls as f64;
        let mean_moved = a.deprivileged_risk as f64 / a.deprivileged_calls as f64;
        assert!(
            mean_ring0 > mean_moved,
            "ring0 {mean_ring0:.1} vs moved {mean_moved:.1}"
        );
    }

    #[test]
    fn split_totals_are_pinned() {
        assert_eq!(
            analyse(),
            SplitAnalysis {
                ring0_calls: 18,
                deprivileged_calls: 19,
                ring0_risk: 89,
                deprivileged_risk: 61,
            }
        );
    }

    #[test]
    fn every_call_is_classified() {
        let a = analyse();
        assert_eq!(a.ring0_calls + a.deprivileged_calls, HypercallId::ALL.len());
    }
}
