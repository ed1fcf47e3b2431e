//! # xoar
//!
//! The facade crate of the Xoar reproduction (SOSP 2011, *"Breaking Up
//! is Hard to Do: Security and Functionality in a Commodity
//! Hypervisor"*): one `use` pulls in the whole public API.
//!
//! * [`codec`] — the zero-dependency JSON codec behind the audit log's
//!   wire format and XenStore-State persistence;
//! * [`hypervisor`] — the Xen-like machine monitor substrate;
//! * [`xenstore`] — the split (Logic/State) XenStore registry;
//! * [`devices`] — I/O rings, split drivers, PCI, device emulation;
//! * [`platform`] — the assembled platforms, shards, builder, restarts,
//!   audit, migration (re-export of `xoar_core`);
//! * [`sim`] — deterministic workloads reproducing Chapter 6;
//! * [`analysis`] — the privilege-flow analyzer, the isolation spec,
//!   and the §6.2 census, containment, TCB and surface evaluation read
//!   off the analyzer's model.
//!
//! # Examples
//!
//! ```
//! use xoar::platform::platform::{GuestConfig, Platform, XoarConfig};
//!
//! let mut p = Platform::xoar(XoarConfig::default());
//! let ts = p.services.toolstacks[0];
//! let guest = p
//!     .create_guest(ts, GuestConfig::evaluation_guest("demo"))
//!     .unwrap();
//! assert!(p.guest(guest).is_some());
//! ```

#![warn(missing_docs)]

pub use xoar_analysis as analysis;
pub use xoar_codec as codec;
pub use xoar_core as platform;
pub use xoar_devices as devices;
pub use xoar_hypervisor as hypervisor;
pub use xoar_sim as sim;
pub use xoar_xenstore as xenstore;
