//! SR-IOV: hardware-multiplexed virtual functions (§5.3).
//!
//! "Hardware virtualization techniques like SR-IOV allow the creation of
//! virtualized devices, where the multiplexing is performed in hardware,
//! thereby obviating the need for driver domains. However, provisioning
//! new virtual devices on the fly requires a persistent shard to assign
//! interrupts and multiplex accesses to the PCI configuration space.
//! Ironically, although appearing to reduce the amount of sharing in the
//! system, such techniques may increase the number of shared, trusted
//! components."
//!
//! This module models that trade-off concretely: a [`SrIovNic`] exposes
//! virtual functions that are passed through to guests directly (no
//! NetBack on the data path), but every VF *provisioning* operation goes
//! through PCIBack's configuration space — so PCIBack can no longer be
//! destroyed after boot, and the number of persistent shared components
//! goes up. [`sharing_analysis`] quantifies the irony.

use xoar_hypervisor::{DomId, PciAddress};

use crate::pci::{PciBack, PciError};

/// One virtual function of an SR-IOV device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualFunction {
    /// The VF's own PCI address (function number above the PF).
    pub addr: PciAddress,
    /// The guest it is passed through to, if any.
    pub assigned_to: Option<DomId>,
    /// The interrupt vector PCIBack routed for it.
    pub irq: Option<u32>,
}

/// An SR-IOV capable NIC: one physical function, many virtual functions.
#[derive(Debug)]
pub struct SrIovNic {
    /// The physical function's address.
    pub pf: PciAddress,
    /// Hardware limit on VFs.
    pub max_vfs: u8,
    vfs: Vec<VirtualFunction>,
    enabled: bool,
}

/// Errors from SR-IOV provisioning.
#[derive(Debug, PartialEq, Eq)]
pub enum SrIovError {
    /// SR-IOV not yet enabled on the PF.
    NotEnabled,
    /// All VFs are provisioned.
    NoFreeVfs,
    /// The VF index is invalid or unassigned.
    BadVf(u8),
    /// The configuration-space operation failed — typically because
    /// PCIBack has been sealed/destroyed (the §5.3 irony).
    Pci(PciError),
}

impl std::fmt::Display for SrIovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SrIovError::NotEnabled => write!(f, "SR-IOV not enabled on the PF"),
            SrIovError::NoFreeVfs => write!(f, "no free virtual functions"),
            SrIovError::BadVf(i) => write!(f, "bad VF index {i}"),
            SrIovError::Pci(e) => write!(f, "config space: {e}"),
        }
    }
}

impl std::error::Error for SrIovError {}

impl From<PciError> for SrIovError {
    fn from(e: PciError) -> Self {
        SrIovError::Pci(e)
    }
}

/// SR-IOV capability config-space offsets (model).
const SRIOV_CTRL: u16 = 0x168;
const SRIOV_NUM_VFS: u16 = 0x170;

impl SrIovNic {
    /// Creates an SR-IOV NIC over physical function `pf`.
    pub fn new(pf: PciAddress, max_vfs: u8) -> Self {
        SrIovNic {
            pf,
            max_vfs,
            vfs: Vec::new(),
            enabled: false,
        }
    }

    /// Enables SR-IOV: writes the capability registers through PCIBack
    /// (which must therefore still be alive) and instantiates the VFs.
    pub fn enable(&mut self, pciback: &mut PciBack, num_vfs: u8) -> Result<(), SrIovError> {
        let n = num_vfs.min(self.max_vfs);
        pciback.config_write(pciback.dom, self.pf, SRIOV_CTRL, 1)?;
        pciback.config_write(pciback.dom, self.pf, SRIOV_NUM_VFS, n as u32)?;
        self.vfs = (0..n)
            .map(|i| VirtualFunction {
                addr: PciAddress::new(self.pf.domain, self.pf.bus, self.pf.slot + 1 + i),
                assigned_to: None,
                irq: None,
            })
            .collect();
        self.enabled = true;
        Ok(())
    }

    /// Provisions a free VF for `guest`: PCIBack assigns an interrupt and
    /// exposes the VF's config space — "provisioning new virtual devices
    /// on the fly requires a persistent shard".
    pub fn assign_vf(
        &mut self,
        pciback: &mut PciBack,
        guest: DomId,
    ) -> Result<PciAddress, SrIovError> {
        if !self.enabled {
            return Err(SrIovError::NotEnabled);
        }
        let idx = self
            .vfs
            .iter()
            .position(|vf| vf.assigned_to.is_none())
            .ok_or(SrIovError::NoFreeVfs)?;
        // Interrupt routing through the (shared) configuration space.
        let irq = 48 + idx as u32;
        pciback.config_write(pciback.dom, self.pf, 0x180 + idx as u16, irq)?;
        let vf = self.vfs.get_mut(idx).ok_or(SrIovError::NoFreeVfs)?;
        vf.assigned_to = Some(guest);
        vf.irq = Some(irq);
        Ok(vf.addr)
    }

    /// Releases a guest's VF.
    pub fn release_vf(&mut self, guest: DomId) -> Result<(), SrIovError> {
        let vf = self
            .vfs
            .iter_mut()
            .find(|vf| vf.assigned_to == Some(guest))
            .ok_or(SrIovError::BadVf(0))?;
        vf.assigned_to = None;
        vf.irq = None;
        Ok(())
    }

    /// Currently assigned VFs.
    pub fn assigned(&self) -> Vec<(PciAddress, DomId)> {
        self.vfs
            .iter()
            .filter_map(|vf| vf.assigned_to.map(|d| (vf.addr, d)))
            .collect()
    }

    /// Free VFs remaining.
    pub fn free_vfs(&self) -> usize {
        self.vfs
            .iter()
            .filter(|vf| vf.assigned_to.is_none())
            .count()
    }
}

/// The §5.3 sharing comparison: persistent shared trusted components on
/// the I/O path, with driver domains versus SR-IOV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingAnalysis {
    /// Persistent shared components with a NetBack driver domain
    /// (NetBack itself; PCIBack is destroyed after boot).
    pub with_driver_domain: usize,
    /// Persistent shared components with SR-IOV (no NetBack, but PCIBack
    /// must persist for on-the-fly provisioning — plus the hardware
    /// multiplexer itself is now shared and trusted).
    pub with_sriov: usize,
}

/// Computes the §5.3 comparison for a host with `guests` guests.
pub fn sharing_analysis(dynamic_provisioning: bool) -> SharingAnalysis {
    // Driver-domain path: NetBack is the one persistent shared component
    // (PCIBack seals and dies at steady state).
    let with_driver_domain = 1;
    // SR-IOV path: the hardware multiplexer (the PF) is shared by every
    // VF holder, and if VFs are provisioned dynamically PCIBack must
    // stay resident too.
    let with_sriov = 1 + usize::from(dynamic_provisioning);
    SharingAnalysis {
        with_driver_domain,
        with_sriov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pci::PciBus;

    fn setup() -> (PciBack, SrIovNic) {
        let pciback = PciBack::new(DomId(1), PciBus::testbed());
        let nic = SrIovNic::new(PciAddress::new(0, 2, 0), 8);
        (pciback, nic)
    }

    #[test]
    fn enable_and_assign_vfs() {
        let (mut pb, mut nic) = setup();
        nic.enable(&mut pb, 4).unwrap();
        assert_eq!(nic.free_vfs(), 4);
        let vf1 = nic.assign_vf(&mut pb, DomId(5)).unwrap();
        let vf2 = nic.assign_vf(&mut pb, DomId(6)).unwrap();
        assert_ne!(vf1, vf2);
        assert_eq!(nic.free_vfs(), 2);
        assert_eq!(nic.assigned().len(), 2);
    }

    #[test]
    fn vf_exhaustion() {
        let (mut pb, mut nic) = setup();
        nic.enable(&mut pb, 2).unwrap();
        nic.assign_vf(&mut pb, DomId(5)).unwrap();
        nic.assign_vf(&mut pb, DomId(6)).unwrap();
        assert_eq!(nic.assign_vf(&mut pb, DomId(7)), Err(SrIovError::NoFreeVfs));
        nic.release_vf(DomId(5)).unwrap();
        nic.assign_vf(&mut pb, DomId(7)).unwrap();
    }

    #[test]
    fn assignment_requires_enable() {
        let (mut pb, mut nic) = setup();
        assert_eq!(
            nic.assign_vf(&mut pb, DomId(5)),
            Err(SrIovError::NotEnabled)
        );
    }

    #[test]
    fn vf_count_capped_by_hardware() {
        let (mut pb, mut nic) = setup();
        nic.enable(&mut pb, 200).unwrap();
        assert_eq!(nic.free_vfs(), 8, "hardware max");
    }

    #[test]
    fn provisioning_fails_after_pciback_destroyed() {
        // The §5.3 irony, mechanised: once PCIBack is sealed/destroyed,
        // no new VF can be provisioned — keeping dynamic SR-IOV means
        // keeping a persistent privileged shard.
        let (mut pb, mut nic) = setup();
        nic.enable(&mut pb, 4).unwrap();
        nic.assign_vf(&mut pb, DomId(5)).unwrap();
        pb.seal();
        let err = nic.assign_vf(&mut pb, DomId(6)).unwrap_err();
        assert!(matches!(err, SrIovError::Pci(PciError::Sealed)));
        // Already-assigned VFs keep working (release needs no config
        // space).
        nic.release_vf(DomId(5)).unwrap();
    }

    #[test]
    fn sharing_analysis_matches_the_papers_irony() {
        // Static partitioning: SR-IOV matches the driver domain count.
        let static_cfg = sharing_analysis(false);
        assert_eq!(static_cfg.with_sriov, static_cfg.with_driver_domain);
        // Dynamic provisioning: SR-IOV *increases* the persistent shared
        // component count.
        let dynamic = sharing_analysis(true);
        assert!(dynamic.with_sriov > dynamic.with_driver_domain);
    }
}
