//! Device emulation: the QEMU device model (§4.5.2).
//!
//! Unmodified (HVM) guests expect a standard PC platform, provided by a
//! per-guest QEMU process that emulates the BIOS, serial ports, and block
//! and network controllers. In stock Xen that process runs *in Dom0* with
//! the privilege to map any page of the guest's memory; the paper's attack
//! census found device emulation to be the single largest vector (14 of
//! 23 guest-originated attacks).
//!
//! Xoar hosts each device model in its own stub-domain VM (`QemuVM`),
//! privileged *only for its single guest* via the `privileged_for` flag
//! (§5.6) — so a compromised device model "has the full privileges of the
//! QemuVM, rather than Dom0 privileges and has no rights over any other
//! VM" (§6.2).
//!
//! The emulation here is behavioural: trapped port I/O is dispatched to
//! tiny emulated-device state machines, and DMA is performed with real
//! foreign-mapping hypercalls so the privilege boundary is exercised.

use xoar_hypervisor::memory::{PageRef, Pfn};
use xoar_hypervisor::{DomId, HvError, Hypercall, Hypervisor};

/// Emulated device selected by the trapped I/O port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmulatedDevice {
    /// IDE controller (ports 0x1f0–0x1f7).
    Ide,
    /// RTL8139-style NIC (ports 0xc000–0xc0ff in the model).
    Nic,
    /// 16550 UART (ports 0x3f8–0x3ff).
    Serial,
}

impl EmulatedDevice {
    /// Decodes a port to a device.
    pub fn decode(port: u16) -> Option<Self> {
        match port {
            0x1f0..=0x1f7 => Some(EmulatedDevice::Ide),
            0xc000..=0xc0ff => Some(EmulatedDevice::Nic),
            0x3f8..=0x3ff => Some(EmulatedDevice::Serial),
            _ => None,
        }
    }

    /// Approximate emulation cost per I/O exit, in nanoseconds. Device
    /// emulation is roughly an order of magnitude costlier per operation
    /// than the paravirtual path (VM exit + process dispatch).
    pub fn exit_cost_ns(self) -> u64 {
        match self {
            EmulatedDevice::Ide => 12_000,
            EmulatedDevice::Nic => 10_000,
            EmulatedDevice::Serial => 5_000,
        }
    }
}

/// Statistics of one device model.
#[derive(Debug, Default, Clone, Copy)]
pub struct QemuStats {
    /// Trapped I/O operations dispatched.
    pub io_exits: u64,
    /// DMA transfers performed (foreign map + copy).
    pub dma_ops: u64,
    /// Total simulated emulation time (ns).
    pub emul_ns: u64,
}

/// A per-guest QEMU device model.
#[derive(Debug)]
pub struct QemuDeviceModel {
    /// The domain hosting the model: Dom0 in stock Xen, a stub QemuVM in
    /// Xoar.
    pub host_dom: DomId,
    /// The HVM guest being emulated.
    pub guest: DomId,
    stats: QemuStats,
    /// Tiny IDE state machine: the currently latched sector register.
    ide_sector: u32,
    /// Serial output captured by the model.
    serial_out: Vec<u8>,
}

impl QemuDeviceModel {
    /// Creates a device model for `guest`, hosted in `host_dom`.
    pub fn new(host_dom: DomId, guest: DomId) -> Self {
        QemuDeviceModel {
            host_dom,
            guest,
            stats: QemuStats::default(),
            ide_sector: 0,
            serial_out: Vec::new(),
        }
    }

    /// Handles one trapped port write from the guest.
    pub fn io_write(&mut self, port: u16, value: u32) -> Option<u64> {
        let dev = EmulatedDevice::decode(port)?;
        self.stats.io_exits += 1;
        let cost = dev.exit_cost_ns();
        self.stats.emul_ns += cost;
        match dev {
            EmulatedDevice::Ide => {
                if port == 0x1f3 {
                    self.ide_sector = value;
                }
            }
            EmulatedDevice::Serial => {
                if port == 0x3f8 {
                    self.serial_out.push(value as u8);
                }
            }
            EmulatedDevice::Nic => {}
        }
        Some(cost)
    }

    /// Handles one trapped port read.
    pub fn io_read(&mut self, port: u16) -> Option<(u32, u64)> {
        let dev = EmulatedDevice::decode(port)?;
        self.stats.io_exits += 1;
        let cost = dev.exit_cost_ns();
        self.stats.emul_ns += cost;
        let value = match dev {
            EmulatedDevice::Ide if port == 0x1f3 => self.ide_sector,
            EmulatedDevice::Ide if port == 0x1f7 => 0x40, // Status: ready.
            _ => 0,
        };
        Some((value, cost))
    }

    /// Emulates a DMA transfer into the guest: maps the guest frame via a
    /// real foreign-mapping hypercall (exercising the privilege boundary)
    /// and writes the payload.
    ///
    /// In stock Xen `host_dom` is Dom0 and the call always succeeds; in
    /// Xoar it succeeds only for the one guest this QemuVM is
    /// `privileged_for`.
    pub fn dma_to_guest(
        &mut self,
        hv: &mut Hypervisor,
        pfn: Pfn,
        data: &[u8],
    ) -> Result<u64, HvError> {
        hv.hypercall(
            self.host_dom,
            Hypercall::MmuWriteForeign {
                target: self.guest,
                pages: vec![(pfn, PageRef::new(data))],
            },
        )?;
        self.stats.dma_ops += 1;
        let cost = EmulatedDevice::Ide.exit_cost_ns() + data.len() as u64 / 8;
        self.stats.emul_ns += cost;
        Ok(cost)
    }

    /// Captured serial output.
    pub fn serial_output(&self) -> &[u8] {
        &self.serial_out
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QemuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::domain::DomainRole;
    use xoar_hypervisor::{HypercallId, PrivilegeSet};

    fn platform() -> (Hypervisor, DomId, DomId, DomId) {
        let mut hv = Hypervisor::with_default_host();
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 512, PrivilegeSet::dom0())
            .unwrap();
        let mut qp = PrivilegeSet::default();
        qp.permit_hypercall(HypercallId::MmuWriteForeign);
        qp.permit_hypercall(HypercallId::MmuMapForeign);
        let qemu = hv
            .create_boot_domain("qemu-hvm1", DomainRole::Shard, 64, qp)
            .unwrap();
        let guest = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: "hvm1".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::MemoryPopulate {
                target: guest,
                frames: 8,
            },
        )
        .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: guest })
            .unwrap();
        (hv, dom0, qemu, guest)
    }

    #[test]
    fn port_decode() {
        assert_eq!(EmulatedDevice::decode(0x1f0), Some(EmulatedDevice::Ide));
        assert_eq!(EmulatedDevice::decode(0x3f8), Some(EmulatedDevice::Serial));
        assert_eq!(EmulatedDevice::decode(0xc010), Some(EmulatedDevice::Nic));
        assert_eq!(EmulatedDevice::decode(0x9999), None);
    }

    #[test]
    fn ide_register_round_trip() {
        let (_hv, _d0, qemu, guest) = platform();
        let mut q = QemuDeviceModel::new(qemu, guest);
        q.io_write(0x1f3, 0x55).unwrap();
        let (v, _) = q.io_read(0x1f3).unwrap();
        assert_eq!(v, 0x55);
        let (status, _) = q.io_read(0x1f7).unwrap();
        assert_eq!(status, 0x40);
        assert_eq!(q.stats().io_exits, 3);
        assert!(q.stats().emul_ns > 0);
    }

    #[test]
    fn serial_capture() {
        let (_hv, _d0, qemu, guest) = platform();
        let mut q = QemuDeviceModel::new(qemu, guest);
        for b in b"SeaBIOS" {
            q.io_write(0x3f8, *b as u32);
        }
        assert_eq!(q.serial_output(), b"SeaBIOS");
    }

    #[test]
    fn stub_dma_requires_privileged_for() {
        let (mut hv, dom0, qemu, guest) = platform();
        let mut q = QemuDeviceModel::new(qemu, guest);
        // Without the flag: the Xoar policy refuses.
        assert!(q.dma_to_guest(&mut hv, Pfn(0), b"boot sector").is_err());
        hv.hypercall(
            dom0,
            Hypercall::DomctlSetPrivilegedFor {
                subject: qemu,
                object: guest,
            },
        )
        .unwrap();
        q.dma_to_guest(&mut hv, Pfn(0), b"boot sector").unwrap();
        assert_eq!(hv.mem.read(guest, Pfn(0)).unwrap(), b"boot sector");
        assert_eq!(q.stats().dma_ops, 1);
    }

    #[test]
    fn dom0_hosted_model_can_dma_anywhere() {
        let (mut hv, dom0, _qemu, guest) = platform();
        // The stock-Xen arrangement: the model runs in Dom0.
        let mut q = QemuDeviceModel::new(dom0, guest);
        q.dma_to_guest(&mut hv, Pfn(1), b"anything").unwrap();
        assert_eq!(hv.mem.read(guest, Pfn(1)).unwrap(), b"anything");
    }

    #[test]
    fn emulation_costs_exceed_pv_notification() {
        // The per-exit cost of emulation dwarfs an event-channel send,
        // which is the paper's justification for the PV path.
        assert!(EmulatedDevice::Ide.exit_cost_ns() > 5_000);
    }

    #[test]
    fn unknown_port_ignored() {
        let (_hv, _d0, qemu, guest) = platform();
        let mut q = QemuDeviceModel::new(qemu, guest);
        assert!(q.io_write(0x9999, 1).is_none());
        assert!(q.io_read(0x9999).is_none());
        assert_eq!(q.stats().io_exits, 0);
    }
}
