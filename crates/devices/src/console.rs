//! The virtual console: Console Manager / xenconsoled (§5.5).
//!
//! Xen keeps the serial port for itself and shares the physical console
//! with one domain over shared memory and a dedicated VIRQ; that domain
//! runs a user-space daemon (`xenconsoled`) which exposes *virtual*
//! consoles to every other guest over per-guest rings.
//!
//! In Xoar the daemon lives in its own deprivileged shard — the Console
//! Manager — which boots before any other Linux VM and, notably, "modifies
//! the boot process to skip device enumeration" so it does not steal PCI
//! devices from PCIBack (§5.5). That boot shortcut is why Xoar reaches a
//! login prompt 1.5× faster (Table 6.2); the boot model in `xoar-core`
//! consumes [`ConsoleManager::SKIPS_PCI_ENUMERATION`].

use xoar_hypervisor::event::VirqKind;
use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::{DomId, Hypervisor};

use crate::hw::SerialModel;

/// A per-guest virtual console: output log plus pending input.
#[derive(Debug, Default)]
struct VirtualConsole {
    output: Vec<u8>,
    input: Vec<u8>,
}

/// The Console Manager service.
#[derive(Debug)]
pub struct ConsoleManager {
    /// The hosting domain.
    pub dom: DomId,
    /// The physical serial port (owned by Xen; shared with this shard).
    pub serial: SerialModel,
    consoles: FastMap<DomId, VirtualConsole>,
    /// Bytes relayed to the physical serial console.
    physical_bytes: u64,
}

impl ConsoleManager {
    /// The Console Manager's modified kernel skips PCI enumeration and
    /// jumps straight to I/O-port initialisation (§5.5).
    pub const SKIPS_PCI_ENUMERATION: bool = true;

    /// Creates the manager hosted in `dom`.
    pub fn new(dom: DomId) -> Self {
        ConsoleManager {
            dom,
            serial: SerialModel::com1(),
            consoles: FastMap::default(),
            physical_bytes: 0,
        }
    }

    /// Registers a guest's virtual console.
    pub fn register_guest(&mut self, guest: DomId) {
        self.consoles.entry(guest).or_default();
    }

    /// Removes a guest.
    pub fn remove_guest(&mut self, guest: DomId) {
        self.consoles.remove(&guest);
    }

    /// One daemon pass: drain every registered guest's console ring from
    /// the hypervisor into the virtual console logs. Returns the simulated
    /// serial time consumed (only Dom0/boot output goes to the physical
    /// port; guest output just lands in logs).
    pub fn process(&mut self, hv: &mut Hypervisor) -> u64 {
        let mut serial_ns = 0;
        for (&g, console) in &mut self.consoles {
            let data = hv.console_take(g);
            if data.is_empty() {
                continue;
            }
            if g == self.dom {
                serial_ns += self.serial.tx_time_ns(data.len());
                self.physical_bytes += data.len() as u64;
            }
            console.output.extend(data);
        }
        serial_ns
    }

    /// Reads (without consuming) a guest's console log.
    pub fn log_of(&self, guest: DomId) -> &[u8] {
        self.consoles
            .get(&guest)
            .map(|c| c.output.as_slice())
            .unwrap_or(&[])
    }

    /// Queues operator input for a guest and raises its console VIRQ.
    pub fn send_input(&mut self, hv: &mut Hypervisor, guest: DomId, data: &[u8]) -> bool {
        let Some(c) = self.consoles.get_mut(&guest) else {
            return false;
        };
        c.input.extend_from_slice(data);
        hv.raise_virq(guest, VirqKind::Console)
    }

    /// Guest-side: takes pending input.
    pub fn take_input(&mut self, guest: DomId) -> Vec<u8> {
        self.consoles
            .get_mut(&guest)
            .map(|c| std::mem::take(&mut c.input))
            .unwrap_or_default()
    }

    /// Bytes relayed to the physical serial port.
    pub fn physical_bytes(&self) -> u64 {
        self.physical_bytes
    }

    /// Number of registered virtual consoles.
    pub fn guest_count(&self) -> usize {
        self.consoles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::domain::DomainRole;
    use xoar_hypervisor::{Hypercall, PrivilegeSet};

    fn setup() -> (Hypervisor, ConsoleManager, DomId) {
        let mut hv = Hypervisor::with_default_host();
        let cm_dom = hv
            .create_boot_domain(
                "console-mgr",
                DomainRole::Shard,
                128,
                PrivilegeSet::default(),
            )
            .unwrap();
        let guest = hv
            .create_boot_domain("guest", DomainRole::Guest, 64, PrivilegeSet::default())
            .unwrap();
        let mut cm = ConsoleManager::new(cm_dom);
        cm.register_guest(cm_dom);
        cm.register_guest(guest);
        (hv, cm, guest)
    }

    #[test]
    fn guest_output_lands_in_log() {
        let (mut hv, mut cm, guest) = setup();
        hv.hypercall(
            guest,
            Hypercall::ConsoleWrite {
                data: b"booting...\n".to_vec(),
            },
        )
        .unwrap();
        let serial_ns = cm.process(&mut hv);
        assert_eq!(serial_ns, 0, "guest output does not hit the physical port");
        assert_eq!(cm.log_of(guest), b"booting...\n");
        // Idempotent: ring drained.
        cm.process(&mut hv);
        assert_eq!(cm.log_of(guest), b"booting...\n");
    }

    #[test]
    fn own_output_costs_serial_time() {
        let (mut hv, mut cm, _) = setup();
        hv.hypercall(
            cm.dom,
            Hypercall::ConsoleWrite {
                data: vec![b'x'; 100],
            },
        )
        .unwrap();
        let serial_ns = cm.process(&mut hv);
        assert!(serial_ns > 0);
        assert_eq!(cm.physical_bytes(), 100);
    }

    #[test]
    fn input_raises_console_virq() {
        let (mut hv, mut cm, guest) = setup();
        let port = hv
            .hypercall(
                guest,
                Hypercall::EvtchnBindVirq {
                    virq: VirqKind::Console,
                },
            )
            .unwrap()
            .port()
            .unwrap();
        assert!(cm.send_input(&mut hv, guest, b"ls\n"));
        assert_eq!(hv.poll_event(guest).unwrap().port, port);
        assert_eq!(cm.take_input(guest), b"ls\n");
        assert!(cm.take_input(guest).is_empty());
    }

    #[test]
    fn unregistered_guest_refused() {
        let (mut hv, mut cm, _) = setup();
        assert!(!cm.send_input(&mut hv, DomId(99), b"x"));
        assert_eq!(cm.log_of(DomId(99)), b"");
    }

    #[test]
    fn remove_guest_drops_console() {
        let (mut hv, mut cm, guest) = setup();
        cm.remove_guest(guest);
        assert_eq!(cm.guest_count(), 1);
        hv.hypercall(
            guest,
            Hypercall::ConsoleWrite {
                data: b"late".to_vec(),
            },
        )
        .unwrap();
        cm.process(&mut hv);
        assert_eq!(cm.log_of(guest), b"");
    }
}
