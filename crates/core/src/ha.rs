//! Remus-style high availability: asynchronous checkpoint replication.
//!
//! The paper's introduction lists high availability among the enterprise
//! features a virtualization platform must support ("live migration …
//! is used to provide high availability in the face of unexpected
//! failures" — Remus, Cully et al. \[16\]), and interposition-dependent
//! features like this are exactly what §2.3.1 says a security redesign
//! must not sacrifice.
//!
//! [`HaSession`] keeps a paused shadow of a protected guest on a backup
//! host and periodically replicates the primary's dirty pages into it,
//! on the same engine live migration uses ([`crate::migration`]: one
//! log-dirty cursor of its own, pages shipped through the gate). On
//! primary failure, [`HaSession::failover`] resumes the shadow from the
//! last committed checkpoint — bounded state loss, zero shared storage.

use xoar_hypervisor::{DomId, HvError, HvResult, Hypercall};

use crate::migration::Replica;
use crate::platform::Platform;

/// A protection session for one guest.
#[derive(Debug)]
pub struct HaSession {
    /// The protected guest on the primary host.
    pub guest: DomId,
    /// The paused shadow on the backup host.
    pub shadow: DomId,
    /// The managing toolstack on the backup host.
    backup_toolstack: DomId,
    /// The engine feeding the shadow.
    replica: Replica,
    /// Committed checkpoint epochs.
    pub epochs: u64,
    /// Pages replicated across all epochs.
    pub pages_replicated: u64,
    failed_over: bool,
}

impl HaSession {
    /// Starts protecting `guest`: builds the shadow on `backup` (devices
    /// negotiated), takes the initial full checkpoint, and pauses it.
    pub fn protect(
        primary: &mut Platform,
        backup: &mut Platform,
        guest: DomId,
        backup_toolstack: DomId,
    ) -> HvResult<HaSession> {
        let (replica, _, shipped) =
            Replica::start(primary, backup, guest, backup_toolstack, "-shadow")?;
        let shadow = replica.shell;
        // The shadow must not execute until failover.
        let pause = Hypercall::DomctlPauseDomain { target: shadow };
        backup.hv.hypercall(backup_toolstack, pause)?;
        Ok(HaSession {
            guest,
            shadow,
            backup_toolstack,
            replica,
            epochs: 1,
            pages_replicated: shipped,
            failed_over: false,
        })
    }

    /// Commits one checkpoint epoch: the primary's dirty pages since the
    /// previous epoch are copied to the shadow. Returns the number of
    /// pages shipped.
    pub fn checkpoint(&mut self, primary: &mut Platform, backup: &mut Platform) -> HvResult<u64> {
        if self.failed_over {
            return Err(HvError::InvalidDomainState {
                dom: self.shadow,
                expected: "not yet failed over",
            });
        }
        let dirty = self.replica.dirty(primary)?;
        let shipped = self.replica.ship(primary, backup, &dirty, false)?;
        self.epochs += 1;
        self.pages_replicated += shipped;
        Ok(shipped)
    }

    /// Fails over after the primary died: the shadow resumes from the
    /// last committed epoch.
    pub fn failover(&mut self, backup: &mut Platform) -> HvResult<DomId> {
        let target = self.shadow;
        let unpause = Hypercall::DomctlUnpauseDomain { target };
        backup.hv.hypercall(self.backup_toolstack, unpause)?;
        self.failed_over = true;
        Ok(self.shadow)
    }

    /// Whether failover has happened.
    pub fn is_failed_over(&self) -> bool {
        self.failed_over
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{GuestConfig, XoarConfig};
    use xoar_devices::blk::BlkOp;
    use xoar_hypervisor::memory::Pfn;
    use xoar_hypervisor::DomainState;

    fn hosts() -> (Platform, Platform, DomId, DomId) {
        let primary = Platform::xoar(XoarConfig::default());
        let backup = Platform::xoar(XoarConfig::default());
        let ts_p = primary.services.toolstacks[0];
        let ts_b = backup.services.toolstacks[0];
        (primary, backup, ts_p, ts_b)
    }

    #[test]
    fn shadow_stays_paused_until_failover() {
        let (mut p, mut b, ts_p, ts_b) = hosts();
        let g = p
            .create_guest(ts_p, GuestConfig::evaluation_guest("db"))
            .unwrap();
        let s = HaSession::protect(&mut p, &mut b, g, ts_b).unwrap();
        assert_eq!(b.hv.domain(s.shadow).unwrap().state, DomainState::Paused);
        assert_eq!(s.epochs, 1);
    }

    #[test]
    fn checkpoints_ship_only_dirty_pages() {
        let (mut p, mut b, ts_p, ts_b) = hosts();
        let g = p
            .create_guest(ts_p, GuestConfig::evaluation_guest("db"))
            .unwrap();
        let mut s = HaSession::protect(&mut p, &mut b, g, ts_b).unwrap();
        // Idle epoch: nothing to ship.
        assert_eq!(s.checkpoint(&mut p, &mut b).unwrap(), 0);
        // Three writes, three pages.
        for pfn in [10u64, 11, 12] {
            p.hv.mem.write(g, Pfn(pfn), b"txn-log").unwrap();
        }
        assert_eq!(s.checkpoint(&mut p, &mut b).unwrap(), 3);
        assert_eq!(b.hv.mem.read(s.shadow, Pfn(10)).unwrap(), b"txn-log");
    }

    #[test]
    fn failover_resumes_from_last_epoch() {
        let (mut p, mut b, ts_p, ts_b) = hosts();
        let g = p
            .create_guest(ts_p, GuestConfig::evaluation_guest("db"))
            .unwrap();
        let mut s = HaSession::protect(&mut p, &mut b, g, ts_b).unwrap();
        p.hv.mem.write(g, Pfn(20), b"committed").unwrap();
        s.checkpoint(&mut p, &mut b).unwrap();
        // Post-checkpoint write: lost by design (bounded staleness).
        p.hv.mem.write(g, Pfn(21), b"uncommitted").unwrap();
        // Primary host dies.
        p.hv.crash_domain(g).unwrap();
        let survivor = s.failover(&mut b).unwrap();
        assert_eq!(b.hv.domain(survivor).unwrap().state, DomainState::Running);
        assert_eq!(b.hv.mem.read(survivor, Pfn(20)).unwrap(), b"committed");
        assert_eq!(
            b.hv.mem.read(survivor, Pfn(21)).unwrap(),
            Vec::<u8>::new(),
            "the uncheckpointed write is lost, as Remus semantics dictate"
        );
        // The survivor serves I/O on the backup host.
        b.blk_submit(survivor, BlkOp::Write, 0, 8).unwrap();
        assert_eq!(b.process_blkbacks().completed, 1);
    }

    #[test]
    fn no_checkpoints_after_failover() {
        let (mut p, mut b, ts_p, ts_b) = hosts();
        let g = p
            .create_guest(ts_p, GuestConfig::evaluation_guest("db"))
            .unwrap();
        let mut s = HaSession::protect(&mut p, &mut b, g, ts_b).unwrap();
        s.failover(&mut b).unwrap();
        assert!(s.is_failed_over());
        assert!(s.checkpoint(&mut p, &mut b).is_err());
    }

    #[test]
    fn protecting_missing_guest_fails() {
        let (mut p, mut b, _ts_p, ts_b) = hosts();
        assert!(matches!(
            HaSession::protect(&mut p, &mut b, DomId(99), ts_b),
            Err(HvError::NoSuchDomain(_))
        ));
    }
}
