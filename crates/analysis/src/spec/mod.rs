//! Executable isolation spec: lockstep refinement checker over the
//! analyzer's reachability matrix.
//!
//! The paper's security argument says Xoar's decomposition bounds what
//! a compromised shard can reach. The static rules ([`crate::rules`])
//! check that claim against a frozen snapshot; this module checks it
//! *while the hypervisor runs*, against the same definition of reach.
//! The spec ([`model::SpecState`]) has two layers. Its abstract machine
//! is [`crate::reach::Reachability`], computed by the analyzer's own
//! function over a hypervisor snapshot: who may see whose memory, and
//! by which path. Its concrete machine keeps only what reach cannot
//! express: grant facts with the `mfn`/generation they named, revoked
//! capabilities, foreign-mapped frames, clone links, the declared
//! ledger and the exact per-MFN owner map. Both are advanced in
//! lockstep with the real hypervisor on every hypercall, as one of the
//! gate's observers ([`xoar_hypervisor::GateObserver`]). It sees denied
//! calls too, and checks that they changed nothing. With no observer
//! attached the gate pays one untaken branch, so bench and production
//! paths are unaffected.
//!
//! After each step the checker ([`checker::SpecCore`]) asserts the
//! refinement relation: every real grant entry, frame-ownership change,
//! CoW alias, and clone fall-through must be justified by the model,
//! a foreign map needs a blanket or `privileged_for` path, and a raw
//! frame alias needs a memory path between its mappers. A divergence
//! is recorded sticky with the op trace that produced it; the drivers
//! ([`drive`]) shrink failing sequences to a minimal reproducing trace
//! with the in-tree property harness and render a copy-pasteable
//! regression test.
//!
//! Three entry points:
//! * [`checker::SpecHandle::attach`] — wire the checker onto any live
//!   hypervisor (used by the noninterference integration tests);
//! * [`drive::exhaustive`] / [`drive::random_sweep`] — small-scope
//!   enumeration over grant/map/unmap/transfer/copy/snapshot/rollback/
//!   clone/microreboot sequences (the `--spec-exhaustive` CI gate);
//! * [`drive::selftest`] — injects known violations (revoked-grant
//!   resurrection, backdoor clone fall-through, raw alias, a granted
//!   frame freed and reused) and proves each fires its rule
//!   (`--spec-selftest`).

pub mod checker;
pub mod drive;
pub mod model;

pub use checker::{Divergence, SpecChecker, SpecHandle};
pub use model::{GrantFact, SpecState};
