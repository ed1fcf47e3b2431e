//! # xoar-devices
//!
//! The virtual-device substrate of the platform (§4.3–§4.5, §5.3–§5.5):
//!
//! * [`ring`] — shared-memory I/O rings, the producer/consumer channels
//!   every split driver is built on;
//! * [`xenbus`] — the XenStore-mediated handshake that connects frontend
//!   and backend halves (grant + event-channel rendezvous);
//! * [`hw`] — parameterised physical-hardware models (Gigabit NIC,
//!   7200 RPM disk, UART) substituting for the paper's testbed silicon;
//! * [`net`] / [`blk`] — the NetBack/NetFront and BlkBack/BlkFront split
//!   drivers, including BlkBack's image-store proxy daemon;
//! * [`fabric`] — the virtual network fabric: a switch over NetBack's
//!   vifs with a per-flow connection table and NAT port allocation,
//!   giving guests an inter-guest network beside the physical uplink;
//! * [`console`] — the Console Manager (xenconsoled) virtual console
//!   service;
//! * [`pci`] — the PCI bus, configuration space, and PCIBack multiplexer
//!   with its steady-state sealing;
//! * [`emu`] — the QEMU device model for HVM guests, hosted either in
//!   Dom0 (stock Xen) or a per-guest stub domain (Xoar);
//! * [`sriov`] — SR-IOV virtual functions and the §5.3 sharing analysis.

#![warn(missing_docs)]
// Backends parse what guests put on their rings and in the store: non-test
// code returns an error and never panics. Enforced by `cargo clippy`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

pub mod blk;
pub mod console;
pub mod emu;
pub mod fabric;
pub mod hw;
pub mod net;
pub mod pci;
pub mod ring;
pub mod sriov;
pub mod xenbus;

pub use blk::{BlkBack, BlkFront, BlkRingHub};
pub use console::ConsoleManager;
pub use emu::QemuDeviceModel;
pub use fabric::{Fabric, FlowKey, NatAlloc, SwitchStats};
pub use hw::{DiskModel, NicModel};
pub use net::{NetBack, NetFront, NetRingHub, WireEndpoint};
pub use pci::{PciBack, PciBus};
pub use ring::{Ring, RingHub, RingId};
pub use sriov::SrIovNic;
pub use xenbus::{Connection, DeviceKind, XenbusState};
