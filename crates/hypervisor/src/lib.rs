//! # xoar-hypervisor
//!
//! A deterministic, user-space model of a Xen-like Type-1 hypervisor — the
//! substrate on which the Xoar platform (SOSP 2011, "Breaking Up is Hard
//! to Do") is reproduced.
//!
//! The crate models every mechanism the paper's security argument rests
//! on, with the same semantics and enforced at the same boundary (the
//! hypercall gate):
//!
//! * [`domain`] — domains, lifecycle, roles, and the parent-toolstack /
//!   delegation flags of §5.6;
//! * [`memory`] — machine frames, ownership, pseudo-physical maps, and
//!   dirty tracking;
//! * [`grant`] — grant tables: capability-style page sharing (§4.3);
//! * [`event`] — event channels and VIRQs (§4.2);
//! * [`hypercall`] — the ~40-call interface with privileged/unprivileged
//!   partition (§4.1);
//! * [`privilege`] — the Figure 3.1 privilege-assignment API
//!   (`assign_pci_device`, `permit_hypercall`, `allow_delegation`);
//! * [`sched`] — a credit-scheduler model for simulated time accounting,
//!   plus per-pcpu runqueues with work stealing;
//! * [`snapshot`] — the snapshot/rollback microreboot mechanism with
//!   copy-on-write dirty tracking and recovery boxes (§3.3);
//! * [`region`] — per-domain state regions: each domain's grant table,
//!   event ports, and console ring behind one owner;
//! * [`xregion`] — the cross-region operations, each naming the domains
//!   whose regions it touches: the only paths touching two regions at
//!   once;
//! * [`hypervisor`] — the monitor itself, tying the pieces together and
//!   making every access-control decision.
//!
//! # Examples
//!
//! ```
//! use xoar_hypervisor::{
//!     domain::DomainRole,
//!     hypercall::Hypercall,
//!     hypervisor::Hypervisor,
//!     privilege::PrivilegeSet,
//! };
//!
//! let mut hv = Hypervisor::with_default_host();
//! let dom0 = hv
//!     .create_boot_domain("dom0", DomainRole::ControlVm, 750, PrivilegeSet::dom0())
//!     .unwrap();
//! let guest = hv
//!     .hypercall(
//!         dom0,
//!         Hypercall::DomctlCreateDomain {
//!             name: "guest".into(),
//!             memory_mib: 1024,
//!             vcpus: 2,
//!         },
//!     )
//!     .unwrap()
//!     .dom_id()
//!     .unwrap();
//! assert_eq!(hv.domain(guest).unwrap().name, "guest");
//! ```

#![warn(missing_docs)]

mod bitmap;
pub mod domain;
pub mod error;
pub mod event;
pub mod fasthash;
pub mod grant;
pub mod hypercall;
pub mod hypervisor;
pub mod memory;
pub mod privilege;
pub mod region;
pub mod sched;
pub mod snapshot;
pub mod xregion;

pub use domain::{DomId, Domain, DomainRole, DomainState};
pub use error::{HvError, HvResult};
pub use hypercall::{Hypercall, HypercallId, HypercallRet, ShadowOp};
pub use hypervisor::{GateObserver, HostConfig, Hypervisor};
pub use privilege::{PciAddress, PrivilegeSet};
pub use region::Region;
