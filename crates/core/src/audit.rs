//! The secure audit log (§3.2.2).
//!
//! "Events such as the creation, destruction and migration of VMs, along
//! with all the shards linked to the VM are stored in an off-host,
//! append-only audit log." The log supports the two forensic queries the
//! paper motivates:
//!
//! 1. after a shard compromise, enumerate every guest that relied on it
//!    during the compromise window ([`AuditLog::guests_exposed_to`]);
//! 2. after a vulnerability disclosure, find every guest serviced by a
//!    shard running the vulnerable release
//!    ([`AuditLog::guests_serviced_by_release`]).
//!
//! Records are serialized to JSON lines — the minimal faithful encoding of
//! an off-host serialized event stream (see DESIGN.md).

use std::collections::BTreeSet;

use xoar_codec::ToJson;
use xoar_hypervisor::DomId;

use crate::shard::ShardKind;

/// One audit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A guest VM was created by a toolstack.
    VmCreated {
        /// The new guest.
        guest: DomId,
        /// Guest name.
        name: String,
        /// The managing toolstack domain.
        toolstack: DomId,
    },
    /// A guest VM was destroyed.
    VmDestroyed {
        /// The guest.
        guest: DomId,
    },
    /// A guest VM was snapshot-forked from a sealed template.
    VmCloned {
        /// The new clone.
        guest: DomId,
        /// The template it was forked from.
        template: DomId,
        /// The managing toolstack domain.
        toolstack: DomId,
    },
    /// A guest was linked to a service shard (device attach).
    ShardLinked {
        /// The guest.
        guest: DomId,
        /// The shard domain.
        shard: DomId,
        /// The shard's class.
        kind: ShardKind,
        /// The software release the shard runs (for vulnerability
        /// retrospectives).
        release: String,
    },
    /// A guest was unlinked from a shard.
    ShardUnlinked {
        /// The guest.
        guest: DomId,
        /// The shard domain.
        shard: DomId,
    },
    /// A shard was microrebooted.
    ShardRestarted {
        /// The shard domain.
        shard: DomId,
        /// Pages restored by the rollback.
        pages_restored: u64,
    },
    /// A shard was upgraded in place to a new release.
    ShardUpgraded {
        /// The shard domain.
        shard: DomId,
        /// New release identifier.
        release: String,
    },
    /// A compromise was detected (input to forensics).
    CompromiseDetected {
        /// The compromised domain.
        dom: DomId,
    },
    /// The hypervisor itself was replaced under executing VMs (§7.1,
    /// ReHype-style controlled reboot).
    HypervisorRestarted {
        /// Guests whose device connections were renegotiated.
        guests_recovered: u64,
    },
}

xoar_codec::impl_json_enum!(AuditEvent {
    VmCreated { guest, name, toolstack },
    VmDestroyed { guest },
    VmCloned { guest, template, toolstack },
    ShardLinked { guest, shard, kind, release },
    ShardUnlinked { guest, shard },
    ShardRestarted { shard, pages_restored },
    ShardUpgraded { shard, release },
    CompromiseDetected { dom },
    HypervisorRestarted { guests_recovered },
});

/// A timestamped, sequenced, hash-chained audit record.
///
/// Each record carries the hash of its predecessor and its own hash over
/// `(seq, at_ns, event, prev_hash)`, making the off-host log
/// tamper-evident: altering, removing, or reordering any record breaks
/// every subsequent link (verified by [`AuditLog::verify_chain`]). This
/// is the "securely log" property §3.2.2 requires of the audit sink.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// Monotonic sequence number (append-only ordering).
    pub seq: u64,
    /// Simulated time of the event (ns).
    pub at_ns: u64,
    /// The event.
    pub event: AuditEvent,
    /// Hash of the preceding record (0 for the genesis record).
    pub prev_hash: u64,
    /// This record's chained hash.
    pub hash: u64,
}

xoar_codec::impl_json_struct!(AuditRecord {
    seq,
    at_ns,
    event,
    prev_hash,
    hash
});

/// FNV-1a over the canonical encoding of a record's content. The event
/// is written into `buf`, which the caller reuses across records.
fn chain_hash(seq: u64, at_ns: u64, event: &AuditEvent, prev_hash: u64, buf: &mut String) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    buf.clear();
    event.write_json(buf);
    let mut h = OFFSET;
    for chunk in [
        seq.to_le_bytes().as_slice(),
        at_ns.to_le_bytes().as_slice(),
        prev_hash.to_le_bytes().as_slice(),
        buf.as_bytes(),
    ] {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// The append-only audit log.
///
/// The store is modelled as the off-host sink: records can be appended
/// and queried, never modified or removed.
///
/// # Examples
///
/// ```
/// use xoar_core::audit::{AuditEvent, AuditLog};
/// use xoar_hypervisor::DomId;
///
/// let mut log = AuditLog::new();
/// log.append(100, AuditEvent::CompromiseDetected { dom: DomId(6) });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.verify_chain(), Ok(()));
/// ```
#[derive(Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    /// The encoding buffer every append reuses.
    buf: String,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event at simulated time `at_ns`, extending the hash
    /// chain.
    pub fn append(&mut self, at_ns: u64, event: AuditEvent) {
        let seq = self.records.len() as u64;
        let prev_hash = self.records.last().map_or(0, |r| r.hash);
        let hash = chain_hash(seq, at_ns, &event, prev_hash, &mut self.buf);
        self.records.push(AuditRecord {
            seq,
            at_ns,
            event,
            prev_hash,
            hash,
        });
    }

    /// Verifies the hash chain end to end. Returns the sequence number of
    /// the first corrupted record, or `Ok(())` for an intact log.
    pub fn verify_chain(&self) -> Result<(), u64> {
        let mut prev = 0u64;
        let mut buf = String::new();
        for r in &self.records {
            if r.prev_hash != prev {
                return Err(r.seq);
            }
            let expect = chain_hash(r.seq, r.at_ns, &r.event, r.prev_hash, &mut buf);
            if r.hash != expect {
                return Err(r.seq);
            }
            prev = r.hash;
        }
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read-only record access.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Serialises the whole log as JSON lines (the off-host wire format).
    pub fn to_json_lines(&self) -> String {
        self.records
            .iter()
            .map(xoar_codec::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Forensic query 1: every guest linked to `shard` at any point in
    /// `[from_ns, to_ns]` — "enumerating all guest VMs that relied on that
    /// particular service at any point of time during the compromise".
    pub fn guests_exposed_to(&self, shard: DomId, from_ns: u64, to_ns: u64) -> BTreeSet<DomId> {
        let mut linked_before: BTreeSet<DomId> = BTreeSet::new();
        let mut exposed: BTreeSet<DomId> = BTreeSet::new();
        for r in &self.records {
            match &r.event {
                AuditEvent::ShardLinked {
                    guest, shard: s, ..
                } if *s == shard => {
                    if r.at_ns <= to_ns {
                        if r.at_ns >= from_ns {
                            exposed.insert(*guest);
                        } else {
                            linked_before.insert(*guest);
                        }
                    }
                }
                AuditEvent::ShardUnlinked { guest, shard: s } if *s == shard => {
                    if r.at_ns < from_ns {
                        linked_before.remove(guest);
                    }
                }
                AuditEvent::VmDestroyed { guest } => {
                    if r.at_ns < from_ns {
                        linked_before.remove(guest);
                    }
                }
                _ => {}
            }
        }
        // Guests linked before the window and not unlinked before it were
        // exposed for its whole duration.
        exposed.extend(linked_before);
        exposed
    }

    /// Forensic query 2: every guest ever serviced by a shard while it ran
    /// `release` — "the audit log may be used to identify all guest VMs
    /// that were serviced by a vulnerable shard".
    pub fn guests_serviced_by_release(&self, release: &str) -> BTreeSet<DomId> {
        let mut out = BTreeSet::new();
        for r in &self.records {
            if let AuditEvent::ShardLinked {
                guest,
                release: rel,
                ..
            } = &r.event
            {
                if rel == release {
                    out.insert(*guest);
                }
            }
        }
        out
    }

    /// The dependency graph at time `at_ns`: edges `(guest, shard)` live
    /// at that instant (Taser-style reconstruction \[19\]).
    pub fn dependency_graph_at(&self, at_ns: u64) -> Vec<(DomId, DomId)> {
        let mut live: BTreeSet<(DomId, DomId)> = BTreeSet::new();
        for r in &self.records {
            if r.at_ns > at_ns {
                break;
            }
            match &r.event {
                AuditEvent::ShardLinked { guest, shard, .. } => {
                    live.insert((*guest, *shard));
                }
                AuditEvent::ShardUnlinked { guest, shard } => {
                    live.remove(&(*guest, *shard));
                }
                AuditEvent::VmDestroyed { guest } => {
                    live.retain(|(g, _)| g != guest);
                }
                _ => {}
            }
        }
        live.into_iter().collect()
    }

    /// Restart count of a shard (patching/freshness metric).
    pub fn restart_count(&self, shard: DomId) -> u64 {
        self.records
            .iter()
            .filter(
                |r| matches!(&r.event, AuditEvent::ShardRestarted { shard: s, .. } if *s == shard),
            )
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u32) -> DomId {
        DomId(n)
    }

    fn linked(log: &mut AuditLog, at: u64, guest: u32, shard: u32, release: &str) {
        log.append(
            at,
            AuditEvent::ShardLinked {
                guest: g(guest),
                shard: g(shard),
                kind: ShardKind::NetBack,
                release: release.to_string(),
            },
        );
    }

    #[test]
    fn append_only_sequencing() {
        let mut log = AuditLog::new();
        log.append(10, AuditEvent::VmDestroyed { guest: g(1) });
        log.append(20, AuditEvent::VmDestroyed { guest: g(2) });
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].seq, 0);
        assert_eq!(log.records()[1].seq, 1);
    }

    #[test]
    fn json_lines_round_trip() {
        let mut log = AuditLog::new();
        linked(&mut log, 5, 7, 2, "netback-1.0");
        let text = log.to_json_lines();
        let parsed: AuditRecord = xoar_codec::from_str(&text).unwrap();
        assert!(matches!(parsed.event, AuditEvent::ShardLinked { .. }));
    }

    #[test]
    fn exposure_window_query() {
        let mut log = AuditLog::new();
        linked(&mut log, 100, 1, 9, "r1"); // Linked before window, still live.
        linked(&mut log, 150, 2, 9, "r1"); // Linked before window, unlinked before it.
        log.append(
            200,
            AuditEvent::ShardUnlinked {
                guest: g(2),
                shard: g(9),
            },
        );
        linked(&mut log, 400, 3, 9, "r1"); // Linked inside window.
        linked(&mut log, 900, 4, 9, "r1"); // Linked after window.
        let exposed = log.guests_exposed_to(g(9), 300, 800);
        assert!(exposed.contains(&g(1)), "still linked at window start");
        assert!(!exposed.contains(&g(2)), "unlinked before the window");
        assert!(exposed.contains(&g(3)));
        assert!(!exposed.contains(&g(4)), "linked after the window");
    }

    #[test]
    fn destroyed_guests_not_exposed() {
        let mut log = AuditLog::new();
        linked(&mut log, 100, 1, 9, "r1");
        log.append(150, AuditEvent::VmDestroyed { guest: g(1) });
        let exposed = log.guests_exposed_to(g(9), 300, 800);
        assert!(exposed.is_empty());
    }

    #[test]
    fn vulnerable_release_query() {
        let mut log = AuditLog::new();
        linked(&mut log, 10, 1, 9, "netback-1.0");
        linked(&mut log, 20, 2, 9, "netback-1.0");
        log.append(
            30,
            AuditEvent::ShardUpgraded {
                shard: g(9),
                release: "netback-1.1".into(),
            },
        );
        linked(&mut log, 40, 3, 9, "netback-1.1");
        let affected = log.guests_serviced_by_release("netback-1.0");
        assert_eq!(affected.into_iter().collect::<Vec<_>>(), vec![g(1), g(2)]);
    }

    #[test]
    fn dependency_graph_reconstruction() {
        let mut log = AuditLog::new();
        linked(&mut log, 10, 1, 9, "r");
        linked(&mut log, 20, 1, 8, "r");
        log.append(
            30,
            AuditEvent::ShardUnlinked {
                guest: g(1),
                shard: g(9),
            },
        );
        assert_eq!(
            log.dependency_graph_at(25),
            vec![(g(1), g(8)), (g(1), g(9))]
        );
        assert_eq!(log.dependency_graph_at(35), vec![(g(1), g(8))]);
        assert!(log.dependency_graph_at(5).is_empty());
    }

    #[test]
    fn restart_counting() {
        let mut log = AuditLog::new();
        log.append(
            1,
            AuditEvent::ShardRestarted {
                shard: g(9),
                pages_restored: 3,
            },
        );
        log.append(
            2,
            AuditEvent::ShardRestarted {
                shard: g(9),
                pages_restored: 1,
            },
        );
        log.append(
            3,
            AuditEvent::ShardRestarted {
                shard: g(8),
                pages_restored: 2,
            },
        );
        assert_eq!(log.restart_count(g(9)), 2);
        assert_eq!(log.restart_count(g(8)), 1);
        assert_eq!(log.restart_count(g(7)), 0);
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;

    fn log_with(n: u64) -> AuditLog {
        let mut log = AuditLog::new();
        for i in 0..n {
            log.append(
                i * 10,
                AuditEvent::VmDestroyed {
                    guest: DomId(i as u32),
                },
            );
        }
        log
    }

    #[test]
    fn intact_chain_verifies() {
        assert_eq!(log_with(0).verify_chain(), Ok(()));
        assert_eq!(log_with(10).verify_chain(), Ok(()));
    }

    #[test]
    fn tampered_payload_detected() {
        let mut log = log_with(5);
        log.records[2].event = AuditEvent::VmDestroyed { guest: DomId(99) };
        assert_eq!(log.verify_chain(), Err(2));
    }

    #[test]
    fn tampered_timestamp_detected() {
        let mut log = log_with(5);
        log.records[3].at_ns = 0;
        assert_eq!(log.verify_chain(), Err(3));
    }

    #[test]
    fn removed_record_detected() {
        let mut log = log_with(5);
        log.records.remove(1);
        assert!(log.verify_chain().is_err());
    }

    #[test]
    fn reordered_records_detected() {
        let mut log = log_with(5);
        log.records.swap(1, 2);
        assert!(log.verify_chain().is_err());
    }

    #[test]
    fn recomputing_one_hash_is_not_enough() {
        // An attacker who fixes up a tampered record's own hash still
        // breaks the next record's prev_hash link.
        let mut log = log_with(5);
        log.records[2].event = AuditEvent::VmDestroyed { guest: DomId(99) };
        let r = &log.records[2];
        let fixed = chain_hash(r.seq, r.at_ns, &r.event, r.prev_hash, &mut String::new());
        log.records[2].hash = fixed;
        assert_eq!(
            log.verify_chain(),
            Err(3),
            "the break moves to the successor"
        );
    }
}

#[cfg(test)]
mod chain_proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// Tampering with any field of any record is always detected.
    #[test]
    fn any_tamper_detected() {
        Runner::cases(64).run("any tamper is detected", |g| {
            let n = g.u64(2..20);
            let victim_frac = g.f64(0.0..1.0);
            let field = g.u8(0..3);
            let mut log = AuditLog::new();
            for i in 0..n {
                log.append(
                    i * 7,
                    AuditEvent::VmDestroyed {
                        guest: DomId(i as u32),
                    },
                );
            }
            assert_eq!(log.verify_chain(), Ok(()));
            let victim = ((n as f64 * victim_frac) as usize).min(n as usize - 1);
            match field {
                0 => log.records[victim].at_ns += 1,
                1 => log.records[victim].event = AuditEvent::CompromiseDetected { dom: DomId(0) },
                _ => log.records[victim].prev_hash ^= 1,
            }
            assert!(log.verify_chain().is_err());
        });
    }
}
