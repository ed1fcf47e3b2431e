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
//! toolstack), and pages shipped as page handles in `MmuWriteForeign`
//! batches of up to 256, so a shipped set of n pages crosses the
//! destination's gate ⌈n/256⌉ times, each crossing checked whole.
//! [`migrate`] drives it through the pre-copy algorithm of Clark et al.
//! \[12\]: (1) round 0 copies every page; (2) pre-copy rounds ship what
//! the still-running guest dirtied since the previous round; (3) when the
//! dirty set stops shrinking (or a round budget is reached) the guest
//! pauses and the residue is copied; (4) the cursor closes, the source is
//! destroyed and both hosts' audit logs record the move.
//! [`crate::ha::HaSession`] drives it forever instead (Remus).

use xoar_hypervisor::memory::{Pfn, PAGE_SIZE};
use xoar_hypervisor::{DomId, HvError, HvResult, Hypercall, HypercallRet, ShadowOp};

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

/// Pages per `MmuWriteForeign` batch. A batch of 256 `(Pfn, PageRef)`
/// pairs is 6 KiB: one gate crossing and one lookup of the shell's
/// memory maps amortised over 256 pages, while the batch stays small
/// beside the guest's own memory (the model's heap high-water mark does
/// not move). Not a tuning knob: nothing depends on it but the crossings.
const BATCH_PAGES: usize = 256;

fn transfer_ns(pages: u64, wire_bps: u64) -> u64 {
    (pages as u128 * PAGE_SIZE as u128 * 1_000_000_000 / wire_bps.max(1) as u128) as u64
}

/// A guest replicated into a shell on another host.
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
    /// Returns the replica, the pages mapped and the pages shipped. A
    /// start that fails after building the shell leaves nothing behind:
    /// the cursor is closed and the shell destroyed.
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
        let mapped = src.hv.mem.p2m_entries(guest);
        let copied = rep
            .shadow(src, ShadowOp::Enable)
            .and_then(|ret| ret.cursor())
            .and_then(|cursor| {
                rep.cursor = cursor;
                rep.ship(src, dst, mapped.iter().map(|e| e.0), true)
            });
        match copied {
            Ok(shipped) => Ok((rep, mapped.len() as u64, shipped)),
            Err(e) => {
                rep.abandon(src, dst, dst_toolstack);
                Err(e)
            }
        }
    }

    /// Undoes a replica that will not finish: closes its cursor (if one
    /// was opened) and destroys the shell. Best effort — the caller is
    /// already reporting the failure that got here.
    fn abandon(&self, src: &mut Platform, dst: &mut Platform, dst_toolstack: DomId) {
        if self.cursor != 0 {
            let _ = self.shadow(src, ShadowOp::Off(self.cursor));
        }
        let _ = dst.destroy_guest(dst_toolstack, self.shell);
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
    ///
    /// The one copy loop of migration and HA: it reads up to
    /// [`BATCH_PAGES`] pages and ships them as one `MmuWriteForeign`
    /// from the destination's Builder, so the gate checks the Builder
    /// once per batch and the hypervisor looks the shell's memory up
    /// once per batch, not per page. The first page that fails to read
    /// or install ends the shipment with its error; the pages installed
    /// before it stay on the shell.
    pub(crate) fn ship(
        &self,
        src: &Platform,
        dst: &mut Platform,
        pfns: impl IntoIterator<Item = Pfn>,
        skip_empty: bool,
    ) -> HvResult<u64> {
        let (builder, target) = (dst.services.builder, self.shell);
        let mut pfns = pfns.into_iter();
        let mut shipped = 0;
        loop {
            let mut pages = Vec::with_capacity(pfns.size_hint().0.min(BATCH_PAGES));
            for pfn in pfns.by_ref() {
                let data = src.hv.mem.read(self.guest, pfn)?;
                if !(skip_empty && data.is_empty()) {
                    pages.push((pfn, data));
                    if pages.len() == BATCH_PAGES {
                        break;
                    }
                }
            }
            if pages.is_empty() {
                return Ok(shipped);
            }
            let batch = pages.len() as u64;
            dst.hv
                .hypercall(builder, Hypercall::MmuWriteForeign { target, pages })?;
            shipped += batch;
        }
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
                let pages_final = rep.ship(src, dst, dirty, false)?;
                return Ok((rounds, pages_total + pages_final, pages_final));
            }
            pages_total += rep.ship(src, dst, dirty, false)?;
            rounds += 1;
        }
    })();
    let (rounds, pages_total, pages_final) = match copied {
        Ok(done) => done,
        Err(e) => {
            rep.abandon(src, dst, dst_toolstack);
            return Err(e);
        }
    };
    rep.shadow(src, ShadowOp::Off(rep.cursor))?;
    let downtime_ns = transfer_ns(pages_final, cfg.wire_bps) + 2_000_000; // + handover.

    // Each host's log already holds the move: `destroy_guest` records the
    // source's `VmDestroyed`, and the shell's `create_guest` recorded the
    // destination's `VmCreated` under the guest's own name.
    src.destroy_guest(rep.toolstack, guest)?;
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
    fn migration_records_each_event_once() {
        use crate::audit::AuditEvent;
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("mover"))
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
        let destroyed = src
            .audit
            .records()
            .iter()
            .filter(|r| r.event == AuditEvent::VmDestroyed { guest: g })
            .count();
        assert_eq!(destroyed, 1, "the source records the guest's end once");
        let created: Vec<&str> = dst
            .audit
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                AuditEvent::VmCreated { guest, name, .. } if *guest == report.new_dom => {
                    Some(name.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(created, ["mover"], "the destination records the shell once");
        assert_eq!(src.audit.verify_chain(), Ok(()));
        assert_eq!(dst.audit.verify_chain(), Ok(()));
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
    fn failed_start_destroys_the_shell_and_closes_the_cursor() {
        use xoar_hypervisor::error::MemError;
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("oversized"))
            .unwrap();
        // Eight frames past the guest's configured size: the shell, built
        // from `memory_mib`, has no PFN to take the first of them.
        let beyond = src.hv.mem.populate(g, 8).unwrap();
        src.hv.mem.write(g, beyond, b"past the end").unwrap();
        let domains = dst.hv.domain_ids();
        let err = migrate(
            &mut src,
            &mut dst,
            g,
            ts_dst,
            MigrationConfig::default(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(
            matches!(err, HvError::Memory(MemError::BadPfn(p)) if p == beyond.0),
            "{err:?}"
        );
        assert_eq!(dst.hv.domain_ids(), domains, "the shell is destroyed");
        // The one cursor the attempt opened is closed: draining it fails.
        let drain = Hypercall::DomctlShadowOp {
            target: g,
            op: ShadowOp::Clean(1),
        };
        assert!(src.hv.hypercall(ts_src, drain).is_err(), "cursor left open");
        assert_eq!(src.hv.domain(g).unwrap().state, DomainState::Running);
    }

    #[test]
    fn failed_pre_copy_destroys_the_shell_and_closes_the_cursor() {
        use xoar_hypervisor::error::MemError;
        let (mut src, mut dst, ts_src, ts_dst) = two_hosts();
        let g = src
            .create_guest(ts_src, GuestConfig::evaluation_guest("grower"))
            .unwrap();
        let domains = dst.hv.domain_ids();
        // Round 0 ships fine. Then the guest dirties a full batch and
        // grows eight frames past the shell's size: the first pre-copy
        // batch lands, the second has no PFN for its page.
        let mut beyond = None;
        let err = migrate(
            &mut src,
            &mut dst,
            g,
            ts_dst,
            MigrationConfig::default(),
            |p, g| {
                if beyond.is_none() {
                    for i in 0..256u64 {
                        p.hv.mem.write(g, Pfn(16 + i), b"dirty").unwrap();
                    }
                    let pfn = p.hv.mem.populate(g, 8).unwrap();
                    p.hv.mem.write(g, pfn, b"past the end").unwrap();
                    beyond = Some(pfn);
                }
            },
        )
        .unwrap_err();
        let beyond = beyond.expect("the guest grew during pre-copy");
        assert!(
            matches!(err, HvError::Memory(MemError::BadPfn(p)) if p == beyond.0),
            "{err:?}"
        );
        assert_eq!(dst.hv.domain_ids(), domains, "the shell is destroyed");
        let drain = Hypercall::DomctlShadowOp {
            target: g,
            op: ShadowOp::Clean(1),
        };
        assert!(src.hv.hypercall(ts_src, drain).is_err(), "cursor left open");
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
