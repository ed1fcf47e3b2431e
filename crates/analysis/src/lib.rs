//! # xoar-analysis
//!
//! Static privilege-flow audit for the Xoar workspace — the tooling
//! counterpart to the paper's §3.1 claim that every component runs with
//! the least privilege its function needs.
//!
//! Two independent passes:
//!
//! * **Pass A — model-level privilege flow** (`xoar-analyzer` binary):
//!   [`snapshot`] freezes a running [`xoar_core::platform::Platform`]
//!   into a [`snapshot::ModelSnapshot`] (domains + privilege sets, grant
//!   table, event channels, XenStore ACLs); [`reach`] derives the
//!   domain×resource reachability matrix (who reads/writes whose frames
//!   and by which path, who signals whom, who may issue which
//!   hypercalls); [`rules`] checks least-privilege invariants as
//!   declarative rules with stable IDs; [`overpriv`] diffs each shard's
//!   *static* whitelist against the hypercalls it *actually* issued in a
//!   recorded simulation trace.
//!
//! * **Pass B — source boundaries, held by the compiler and clippy** (no
//!   code in this crate): split-borrow primitives and memory mutators
//!   are private to the hypervisor crate; `crates/core/clippy.toml` and
//!   `crates/devices/clippy.toml` deny the remaining memory and grant
//!   internals and the ungated `Hypervisor` mutators; the hypervisor
//!   crate denies panics in non-test code and wildcard arms in
//!   `Hypercall::id` and the dispatcher. `scripts/ci.sh` runs the
//!   clippy step.
//!
//! Every report is deterministic: all collections are ordered
//! (`BTreeMap` / sorted `Vec`s) so two runs over the same platform
//! produce byte-identical output.
//!
//! A third, *dynamic* pass complements the static rules: [`spec`] is an
//! executable isolation specification whose abstract machine is the
//! [`reach`] matrix itself, recomputed after every hypercall the gate
//! observer sees, plus the concrete facts reach cannot express (grant
//! facts, revocations, foreign maps, clone links, the ledger and the
//! per-frame owner map). After each step it asserts that the
//! implementation refines the model (every mapping, grant, CoW alias,
//! and clone fall-through is justified; no frame is raw-aliased between
//! domains with no memory path between them). Divergences carry a minimal
//! reproducing op trace shrunk by the in-tree property harness.
//!
//! [`eval`] is the paper's §6.2 security evaluation — containment
//! verdicts, guest TCB and attack surface — read off the same snapshot
//! and reachability matrix as Pass A, so the analyzer and the
//! evaluation share one definition of reach.

#![warn(missing_docs)]

pub mod eval;
pub mod overpriv;
pub mod reach;
pub mod rules;
pub mod snapshot;
pub mod spec;
