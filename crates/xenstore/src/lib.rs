//! # xoar-xenstore
//!
//! XenStore — the hierarchical key-value registry and naming service of
//! the Xen platform (§4.4) — implemented with Xoar's Logic/State split
//! (§5.1):
//!
//! * [`state::XenStoreState`] is the long-lived component holding all
//!   durable data behind a narrow key-value protocol;
//! * [`logic::XenStoreLogic`] implements the full store semantics
//!   (hierarchy, ACLs, watches, transactions, quotas) statelessly and can
//!   be microrebooted at any time;
//! * [`proto::XenStore`] is the assembled service plus the wire-protocol
//!   frames guests exchange over the store ring.
//!
//! # Examples
//!
//! ```
//! use xoar_hypervisor::DomId;
//! use xoar_xenstore::XenStore;
//!
//! let mut xs = XenStore::new();
//! let toolstack = DomId(1);
//! let guest = DomId(5);
//! xs.set_privileged(toolstack, true);
//! xs.create_domain_home(toolstack, guest).unwrap();
//! xs.write_str(guest, "/local/domain/5/name", "web").unwrap();
//!
//! // The Logic half can be microrebooted without losing the write.
//! xs.restart_logic();
//! assert_eq!(xs.read_str(guest, "/local/domain/5/name").unwrap(), "web");
//! ```

#![warn(missing_docs)]
// Every request comes from a guest or a ring: non-test code returns an
// `XsError` and never panics. Enforced by `cargo clippy`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

pub mod error;
pub mod logic;
pub mod path;
pub mod perm;
pub mod proto;
pub mod ring;
pub mod state;
pub mod watch;

pub use error::{XsError, XsResult};
pub use logic::{NodeData, Quotas, SubtreeLayout, XenStoreLogic};
pub use path::XsPath;
pub use perm::{NodePerms, PermEntry, PermLevel};
pub use proto::{Request, Response, XenStore};
pub use ring::{XsRingError, XsRingTransport};
pub use state::XenStoreState;
pub use watch::WatchEvent;
