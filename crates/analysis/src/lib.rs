//! # xoar-analysis
//!
//! Static privilege-flow audit and source-boundary linter for the Xoar
//! workspace — the tooling counterpart to the paper's §3.1 claim that
//! every component runs with the least privilege its function needs.
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
//! * **Pass B — token-level source boundaries** (`xoar-lint` binary):
//!   [`lint`] scans `crates/*/src` with a comment/string-aware token
//!   scanner (no rustc, no external parser) and enforces the workspace's
//!   layering rules: no `unwrap`/`expect`/`panic!` in non-test
//!   hypervisor code, devices/core reach memory and grant internals only
//!   through the hypercall layer, and the `HypercallId` bookkeeping
//!   tables stay exhaustive.
//!
//! Every report is deterministic: all collections are ordered
//! (`BTreeMap` / sorted `Vec`s) so two runs over the same platform or
//! tree produce byte-identical output.
//!
//! A third, *dynamic* pass complements the static rules: [`spec`] is an
//! executable isolation specification — a small memory-ownership model
//! advanced in lockstep with the real hypervisor on every hypercall via
//! the dispatch hook, asserting after each step that the implementation
//! refines the model (every mapping, grant, CoW alias, and
//! clone fall-through is justified; no frame is cross-domain
//! read-visible without a declared edge). Divergences carry a minimal
//! reproducing op trace shrunk by the in-tree property harness.
//!
//! [`eval`] is the paper's §6.2 security evaluation — containment
//! verdicts, guest TCB and attack surface — read off the same snapshot
//! and reachability matrix as Pass A, so the analyzer and the
//! evaluation share one definition of reach.

#![warn(missing_docs)]

pub mod eval;
pub mod lint;
pub mod overpriv;
pub mod reach;
pub mod rules;
pub mod snapshot;
pub mod spec;
