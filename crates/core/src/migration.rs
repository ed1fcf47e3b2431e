//! Live migration, and the page-replication engine it shares with HA.
//!
//! The paper leans on live migration repeatedly: it is one of the
//! enterprise features a security redesign must not sacrifice ("the
//! virtualization layer could no longer be used for interposition, which
//! is necessary for live migration" is the argument *against* NoHype,
//! §2.3.1), and the snapshot machinery of §3.3 notes that "virtual
//! machine protocols frequently deal with disconnection and renegotiation
//! of connections during live migration".
//!
//! `Replica` is the one engine: a guest shell on the destination (built
//! by its Builder, devices negotiated), a log-dirty cursor of its own on
//! the source (`DomctlShadowOp` through the gate, issued by the guest's
//! toolstack), and pages shipped as `MmuWriteForeign` page handles.
//! [`migrate`] drives it through the pre-copy algorithm of Clark et al.
//! \[12\]: (1) round 0 copies every page; (2) pre-copy rounds ship what
//! the still-running guest dirtied since the previous round; (3) when the
//! dirty set stops shrinking (or a round budget is reached) the guest
//! pauses and the residue is copied; (4) the cursor closes, the source is
//! destroyed and both hosts' audit logs record the move.
//! [`crate::ha::HaSession`] drives it forever instead (Remus).

use xoar_hypervisor::memory::{Pfn, PAGE_SIZE};
use xoar_hypervisor::{DomId, HvError, HvResult, Hypercall, HypercallRet, ShadowOp};

use crate::audit::AuditEvent;
use crate::platform::{GuestConfig, Platform};

/// Migration tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Maximum pre-copy rounds before forcing stop-and-copy.
    pub max_rounds: u32,
    /// Stop early when a round's dirty set is at most this many pages.
    pub dirty_threshold: usize,
    /// Wire bandwidth for page transfer, bytes/second (the management
    /// network).
    pub wire_bps: u64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            max_rounds: 8,
            dirty_threshold: 8,
            wire_bps: 117_000_000,
        }
    }
}

/// The outcome of a migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The guest's domain ID on the destination host.
    pub new_dom: DomId,
    /// Pre-copy rounds executed (excluding the stop-and-copy).
    pub rounds: u32,
    /// Pages moved in total, across all rounds.
    pub pages_total: u64,
    /// Pages moved during the stop-and-copy (the downtime driver).
    pub pages_final: u64,
    /// Guest-visible downtime in nanoseconds.
    pub downtime_ns: u64,
}

fn transfer_ns(pages: u64, wire_bps: u64) -> u64 {
    (pages as u128 * PAGE_SIZE as u128 * 1_000_000_000 / wire_bps.max(1) as u128) as u64
}

/// A guest replicated page by page into a shell on another host.
#[derive(Debug)]
pub(crate) struct Replica {
    /// The guest, and its toolstack (which drives the cursor), on the
    /// source host.
    guest: DomId,
    toolstack: DomId,
    cursor: u64,
    /// The shell on the destination host.
    pub(crate) shell: DomId,
}

impl Replica {
    /// Builds a shell for `guest` on `dst` (named after it plus
    /// `suffix`), opens the cursor, and ships every written page.
    /// Returns the replica, the pages mapped and the pages shipped.
    pub(crate) fn start(
        src: &mut Platform,
        dst: &mut Platform,
        guest: DomId,
        dst_toolstack: DomId,
        suffix: &str,
    ) -> HvResult<(Replica, u64, u64)> {
        let handle = src.guest(guest).ok_or(HvError::NoSuchDomain(guest))?;
        let mut cfg = GuestConfig::evaluation_guest(&format!("{}{suffix}", handle.name));
        cfg.constraint = handle.constraint.clone();
        let d = src.hv.domain(guest)?;
        (cfg.memory_mib, cfg.vcpus) = (d.memory_mib, d.vcpus.len() as u32);
        let mut rep = Replica {
            guest,
            toolstack: handle.toolstack,
            cursor: 0,
            shell: dst.create_guest(dst_toolstack, cfg)?,
        };
        rep.cursor = rep.shadow(src, ShadowOp::Enable)?.cursor()?;
        let pfns: Vec<Pfn> = src.hv.mem.p2m_entries(guest).iter().map(|e| e.0).collect();
        let shipped = rep.ship(src, dst, &pfns, true)?;
        Ok((rep, pfns.len() as u64, shipped))
    }

    /// Issues a log-dirty op on the guest, as its toolstack.
    fn shadow(&self, src: &mut Platform, op: ShadowOp) -> HvResult<HypercallRet> {
        let target = self.guest;
        src.hv
            .hypercall(self.toolstack, Hypercall::DomctlShadowOp { target, op })
    }

    /// Drains the cursor: the pages written since the last drain.
    pub(crate) fn dirty(&self, src: &mut Platform) -> HvResult<Vec<Pfn>> {
        self.shadow(src, ShadowOp::Clean(self.cursor))?.pfns()
    }

    /// Ships `pfns` to the shell, skipping never-written pages if
    /// `skip_empty` (a fresh shell reads them empty already). Returns the
    /// pages shipped.
    pub(crate) fn ship(
        &self,
        src: &Platform,
        dst: &mut Platform,
        pfns: &[Pfn],
        skip_empty: bool,
    ) -> HvResult<u64> {
        let (builder, target) = (dst.services.builder, self.shell);
        let mut shipped = 0;
        for &pfn in pfns {
            let data = src.hv.mem.read(self.guest, pfn)?;
            if !(skip_empty && data.is_empty()) {
                let write = Hypercall::MmuWriteForeign { target, pfn, data };
                dst.hv.hypercall(builder, write)?;
                shipped += 1;
            }
        }
        Ok(shipped)
    }
}

/// Live-migrates `guest` from `src` to `dst`.
///
/// # Examples
///
/// ```
/// use xoar_core::migration::{migrate, MigrationConfig};
/// use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
///
/// let mut src = Platform::xoar(XoarConfig::default());
/// let mut dst = Platform::xoar(XoarConfig::default());
/// let ts_src = src.services.toolstacks[0];
/// let ts_dst = dst.services.toolstacks[0];
/// let g = src.create_guest(ts_src, GuestConfig::evaluation_guest("m")).unwrap();
/// let report = migrate(&mut src, &mut dst, g, ts_dst,
///                      MigrationConfig::default(), |_, _| {}).unwrap();
/// assert!(dst.guest(report.new_dom).is_some());
/// ```
///
/// `workload` is invoked between pre-copy rounds to model the guest still
/// executing (it may dirty source pages through `src.hv.mem`); pass a
/// no-op closure for an idle guest. The guest keeps its name, sizing,
/// and constraint tag; devices are renegotiated on the destination — the
/// renegotiation-friendly protocols of §3.3 are exactly what makes this
/// legal.
pub fn migrate(
    src: &mut Platform,
    dst: &mut Platform,
    guest: DomId,
    dst_toolstack: DomId,
    cfg: MigrationConfig,
    mut workload: impl FnMut(&mut Platform, DomId),
) -> HvResult<MigrationReport> {
    let (rep, mapped, _) = Replica::start(src, dst, guest, dst_toolstack, "")?;
    let copied: HvResult<_> = (|| {
        let (mut rounds, mut pages_total) = (0u32, mapped);
        loop {
            // The guest keeps running between rounds.
            workload(src, guest);
            let mut dirty = rep.dirty(src)?;
            if dirty.len() <= cfg.dirty_threshold || rounds >= cfg.max_rounds {
                // Stop-and-copy.
                let pause = Hypercall::DomctlPauseDomain { target: guest };
                src.hv.hypercall(rep.toolstack, pause)?;
                dirty.extend(rep.dirty(src)?);
                let pages_final = rep.ship(src, dst, &dirty, false)?;
                return Ok((rounds, pages_total + pages_final, pages_final));
            }
            pages_total += rep.ship(src, dst, &dirty, false)?;
            rounds += 1;
        }
    })();
    // The cursor closes whether or not the copy finished.
    let stopped = rep.shadow(src, ShadowOp::Off(rep.cursor));
    let (rounds, pages_total, pages_final) = copied?;
    stopped?;
    let downtime_ns = transfer_ns(pages_final, cfg.wire_bps) + 2_000_000; // + handover.
    let name = format!("{} (migrated in)", src.guest(guest).map_or("", |h| &h.name));
    src.destroy_guest(rep.toolstack, guest)?;
    let now_src = src.now_ns();
    src.audit.append(now_src, AuditEvent::VmDestroyed { guest });
    let now_dst = dst.now_ns();
    dst.audit.append(
        now_dst,
        AuditEvent::VmCreated {
            guest: rep.shell,
            name,
            toolstack: dst_toolstack,
        },
    );
    Ok(MigrationReport {
        new_dom: rep.shell,
        rounds,
        pages_total,
        pages_final,
        downtime_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::XoarConfig;
    use xoar_hypervisor::memory::Pfn;
    use xoar_hypervisor::DomainState;

    fn two_hosts() -> (Platform, Platform, DomId, DomId) {
        let src = Platform::xoar(XoarConfig::default());
        let dst = Platform::xoar(XoarConfig::default());
        let ts_src = src.services.toolstacks[0];
        let ts_dst = dst.services.toolstacks[0];
        (src, dst, ts_src, ts_dst)
    }

    #[test]
    fn idle_guest_migrates_with_tiny_downtime() {
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("mover"))
            .unwrap();
        src.hv.mem.write(g, Pfn(10), b"application state").unwrap();
        let report = migrate(
            &mut src,
            &mut dst,
            g,
            ts_dst,
            MigrationConfig::default(),
            |_, _| {},
        )
        .unwrap();
        // Source gone, destination running with the memory intact.
        assert_eq!(src.hv.domain(g).unwrap().state, DomainState::Dead);
        let nd = report.new_dom;
        assert_eq!(dst.hv.domain(nd).unwrap().state, DomainState::Running);
        assert_eq!(dst.hv.mem.read(nd, Pfn(10)).unwrap(), b"application state");
        // Idle guest: no pre-copy rounds beyond round zero, tiny residue.
        assert_eq!(report.rounds, 0);
        assert!(report.pages_final <= 8);
        assert!(report.downtime_ns < 10_000_000, "{} ns", report.downtime_ns);
    }

    #[test]
    fn busy_guest_needs_more_rounds_and_converges() {
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("busy"))
            .unwrap();
        // Dirty 40 pages per round for the first 3 rounds, then go idle.
        let mut round = 0;
        let report = migrate(
            &mut src,
            &mut dst,
            g,
            ts_dst,
            MigrationConfig::default(),
            |p, g| {
                round += 1;
                if round <= 3 {
                    for i in 0..40u64 {
                        p.hv.mem
                            .write(g, Pfn(100 + i), format!("r{round}p{i}").as_bytes())
                            .unwrap();
                    }
                }
            },
        )
        .unwrap();
        assert!(report.rounds >= 3, "rounds {}", report.rounds);
        // The last written values arrived.
        assert_eq!(dst.hv.mem.read(report.new_dom, Pfn(100)).unwrap(), b"r3p0");
    }

    #[test]
    fn hot_guest_is_forced_to_stop_and_copy() {
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("hot"))
            .unwrap();
        let cfg = MigrationConfig {
            max_rounds: 4,
            ..Default::default()
        };
        // Dirties 100 pages every round forever: never converges.
        let report = migrate(&mut src, &mut dst, g, ts_dst, cfg, |p, g| {
            for i in 0..100u64 {
                p.hv.mem.write(g, Pfn(200 + i), b"hot").unwrap();
            }
        })
        .unwrap();
        assert_eq!(report.rounds, 4, "round budget enforced");
        assert!(report.pages_final >= 100, "stop-and-copy moved the hot set");
        assert!(
            report.downtime_ns > MigrationConfig::default().wire_bps / 1_000_000,
            "hot migrations pay visible downtime"
        );
    }

    #[test]
    fn migrated_guest_gets_working_devices() {
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("io"))
            .unwrap();
        let report = migrate(
            &mut src,
            &mut dst,
            g,
            ts_dst,
            MigrationConfig::default(),
            |_, _| {},
        )
        .unwrap();
        let nd = report.new_dom;
        // Devices were renegotiated on the destination: I/O works.
        dst.blk_submit(nd, xoar_devices::blk::BlkOp::Write, 0, 8)
            .unwrap();
        assert_eq!(dst.process_blkbacks().completed, 1);
        dst.net_transmit(nd, 1, 1500).unwrap();
        assert_eq!(dst.process_netbacks().tx_frames, 1);
    }

    #[test]
    fn migration_respects_destination_constraints() {
        use crate::shard::ConstraintTag;
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        // Destination shards already adopted by a different tenant group.
        let mut other = GuestConfig::evaluation_guest("occupier");
        other.constraint = ConstraintTag::group("other");
        dst.create_guest(ts_dst, other).unwrap();
        // Tagged source guest cannot land there.
        let mut cfg = GuestConfig::evaluation_guest("tagged");
        cfg.constraint = ConstraintTag::group("mine");
        let g = src.create_guest(ts_src, cfg).unwrap();
        let err = migrate(
            &mut src,
            &mut dst,
            g,
            ts_dst,
            MigrationConfig::default(),
            |_, _| {},
        );
        assert!(err.is_err(), "constraint groups hold across hosts");
        // And the source guest is untouched by the failed attempt.
        assert_eq!(src.hv.domain(g).unwrap().state, DomainState::Running);
    }

    #[test]
    fn migrating_nonexistent_guest_fails() {
        let (mut src, mut dst, _ts_src, ts_dst) = two_hosts();
        assert!(matches!(
            migrate(
                &mut src,
                &mut dst,
                DomId(99),
                ts_dst,
                MigrationConfig::default(),
                |_, _| {}
            ),
            Err(HvError::NoSuchDomain(_))
        ));
    }
}
