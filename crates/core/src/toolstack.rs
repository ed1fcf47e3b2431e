//! The Toolstack: the administrative front end (§4.6, §5.6).
//!
//! Xoar runs "a configurable number of toolstacks", each a shard built on
//! the xenlight library (libxl). A toolstack creates guests *by passing
//! parameters to the Builder* — it holds no memory-mapping privileges of
//! its own — and is thereafter "assigned VM-management privileges … for
//! all VMs that it requests built. A toolstack can only manage these VMs,
//! and an attempt to manage any other guests is blocked by the
//! hypervisor."
//!
//! [`Toolstack`] is the libxl-flavoured facade over those rights: VM
//! listing, lifecycle operations, per-user resource quotas (§3.4.2:
//! "resource usage quotas enforced by the virtualization platform"), and
//! proxied disk-image administration via BlkBack's daemon (§5.4).

use xoar_hypervisor::domain::Domain;
use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::{DomId, DomainState, HvError, HvResult, Hypercall};

use crate::platform::{GuestConfig, GuestHandle, Platform};

/// Per-toolstack resource quotas (private-cloud slices, §3.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceQuota {
    /// Maximum concurrently running VMs.
    pub max_vms: usize,
    /// Maximum total memory across this toolstack's VMs, MiB.
    pub max_memory_mib: u64,
    /// Maximum total virtual disk bytes.
    pub max_disk_bytes: u64,
}

xoar_codec::impl_json_struct!(ResourceQuota {
    max_vms,
    max_memory_mib,
    max_disk_bytes
});

impl ResourceQuota {
    /// An effectively unlimited quota (public-cloud single toolstack).
    pub fn unlimited() -> Self {
        ResourceQuota {
            max_vms: usize::MAX,
            max_memory_mib: u64::MAX,
            max_disk_bytes: u64::MAX,
        }
    }
}

/// A row of `xl list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmInfo {
    /// Domain ID.
    pub dom: DomId,
    /// Guest name.
    pub name: String,
    /// Lifecycle state.
    pub state: DomainState,
    /// Memory reservation, MiB.
    pub memory_mib: u64,
    /// VCPU count.
    pub vcpus: usize,
    /// Restart count (microreboots of this VM, if any).
    pub restarts: u64,
}

/// The administrative toolstack facade.
///
/// Holds no references into the platform: every operation takes
/// `&mut Platform` and issues hypercalls *as the toolstack's domain*, so
/// the hypervisor's parent-toolstack check — not this struct — is what
/// enforces the management boundary.
#[derive(Debug)]
pub struct Toolstack {
    /// The shard domain this toolstack runs in.
    pub dom: DomId,
    quota: ResourceQuota,
    /// Accumulated usage counted against the quota.
    used_memory_mib: u64,
    used_disk_bytes: u64,
    /// What each live guest was actually charged at creation time
    /// (memory MiB, disk bytes), so destroy releases exactly that —
    /// clones charge zero disk, and resizes keep the books straight.
    reservations: FastMap<DomId, (u64, u64)>,
}

impl Toolstack {
    /// Wraps toolstack instance `index` of `platform`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the platform's toolstacks.
    pub fn new(platform: &Platform, index: usize) -> Self {
        Toolstack {
            dom: platform.services.toolstacks[index],
            quota: ResourceQuota::unlimited(),
            used_memory_mib: 0,
            used_disk_bytes: 0,
            reservations: FastMap::default(),
        }
    }

    /// Applies a resource quota (private-cloud slice).
    pub fn with_quota(mut self, quota: ResourceQuota) -> Self {
        self.quota = quota;
        self
    }

    /// The current quota.
    pub fn quota(&self) -> ResourceQuota {
        self.quota
    }

    /// `xl create` — requests a build from the Builder, after checking
    /// this toolstack's resource quota.
    pub fn create(&mut self, platform: &mut Platform, cfg: GuestConfig) -> HvResult<DomId> {
        if self.running(platform) >= self.quota.max_vms {
            return Err(HvError::LimitExceeded("toolstack VM quota"));
        }
        if self.used_memory_mib.saturating_add(cfg.memory_mib) > self.quota.max_memory_mib {
            return Err(HvError::LimitExceeded("toolstack memory quota"));
        }
        if self.used_disk_bytes.saturating_add(cfg.disk_bytes) > self.quota.max_disk_bytes {
            return Err(HvError::LimitExceeded("toolstack disk quota"));
        }
        let mem = cfg.memory_mib;
        let disk = cfg.disk_bytes;
        let guest = platform.create_guest(self.dom, cfg)?;
        self.used_memory_mib += mem;
        self.used_disk_bytes += disk;
        self.reservations.insert(guest, (mem, disk));
        Ok(guest)
    }

    /// `xl snapshot-capture` — seals a running guest as a clone template.
    pub fn capture_template(&self, platform: &mut Platform, guest: DomId) -> HvResult<()> {
        platform.capture_template(self.dom, guest)
    }

    /// `xl clone` — the snapshot-fork fast path: stamps a new guest from
    /// a sealed template with no Builder round-trip. Clones are charged
    /// their memory reservation but zero disk (they share the template's
    /// root image copy-on-write).
    pub fn clone(
        &mut self,
        platform: &mut Platform,
        template: DomId,
        name: &str,
    ) -> HvResult<DomId> {
        if self.running(platform) >= self.quota.max_vms {
            return Err(HvError::LimitExceeded("toolstack VM quota"));
        }
        platform
            .template(template)
            .ok_or(HvError::NoSuchDomain(template))?;
        let mem = platform.hv.domain(template)?.memory_mib;
        if self.used_memory_mib.saturating_add(mem) > self.quota.max_memory_mib {
            return Err(HvError::LimitExceeded("toolstack memory quota"));
        }
        let guest = platform.clone_guest(self.dom, template, name)?;
        self.used_memory_mib += mem;
        self.reservations.insert(guest, (mem, 0));
        Ok(guest)
    }

    /// `xl destroy`.
    pub fn destroy(&mut self, platform: &mut Platform, guest: DomId) -> HvResult<()> {
        platform.destroy_guest(self.dom, guest)?;
        // Release exactly what this guest was charged — not an assumed
        // config — so quotas don't drift across create/destroy churn.
        let (mem, disk) = self.reservations.remove(&guest).unwrap_or((0, 0));
        self.used_memory_mib = self.used_memory_mib.saturating_sub(mem);
        self.used_disk_bytes = self.used_disk_bytes.saturating_sub(disk);
        Ok(())
    }

    /// `xl pause`.
    pub fn pause(&self, platform: &mut Platform, guest: DomId) -> HvResult<()> {
        platform
            .hv
            .hypercall(self.dom, Hypercall::DomctlPauseDomain { target: guest })
            .map(|_| ())
    }

    /// `xl unpause`.
    pub fn unpause(&self, platform: &mut Platform, guest: DomId) -> HvResult<()> {
        platform
            .hv
            .hypercall(self.dom, Hypercall::DomctlUnpauseDomain { target: guest })
            .map(|_| ())
    }

    /// `xl mem-set`.
    pub fn set_memory(&mut self, platform: &mut Platform, guest: DomId, mib: u64) -> HvResult<()> {
        let old = platform.hv.domain(guest)?.memory_mib;
        let new_used = self.used_memory_mib.saturating_sub(old).saturating_add(mib);
        if new_used > self.quota.max_memory_mib {
            return Err(HvError::LimitExceeded("toolstack memory quota"));
        }
        platform.hv.hypercall(
            self.dom,
            Hypercall::DomctlSetMaxMem {
                target: guest,
                memory_mib: mib,
            },
        )?;
        self.used_memory_mib = new_used;
        if let Some(r) = self.reservations.get_mut(&guest) {
            r.0 = mib;
        }
        Ok(())
    }

    /// `xl vcpu-set`.
    pub fn set_vcpus(&self, platform: &mut Platform, guest: DomId, vcpus: u32) -> HvResult<()> {
        platform
            .hv
            .hypercall(
                self.dom,
                Hypercall::DomctlSetVcpus {
                    target: guest,
                    vcpus,
                },
            )
            .map(|_| ())
    }

    /// `xl list` — only the VMs this toolstack manages.
    pub fn list(&self, platform: &Platform) -> Vec<VmInfo> {
        let mut rows: Vec<VmInfo> = self
            .managed(platform)
            .map(|(g, d)| VmInfo {
                dom: g.dom,
                name: g.name.clone(),
                state: d.state,
                memory_mib: d.memory_mib,
                vcpus: d.vcpus.len(),
                restarts: d.restart_count,
            })
            .collect();
        rows.sort_by_key(|r| r.dom.0);
        rows
    }

    /// How many VMs `list` would show, counted without building it: the
    /// quota check on every create and clone.
    fn running(&self, platform: &Platform) -> usize {
        self.managed(platform).count()
    }

    /// The live (not `Dead`) guests this toolstack manages, unordered.
    fn managed<'p>(
        &self,
        platform: &'p Platform,
    ) -> impl Iterator<Item = (&'p GuestHandle, &'p Domain)> + 'p {
        let dom = self.dom;
        platform
            .guest_handles()
            .filter(move |g| g.toolstack == dom)
            .filter_map(|g| {
                let d = platform.hv.domain(g.dom).ok()?;
                (d.state != DomainState::Dead).then_some((g, d))
            })
    }

    /// Proxy to BlkBack's image daemon (§5.4): "administrators create new
    /// files or partitions from the Toolstack to back new guest VMs …
    /// BlkBack runs a lightweight daemon that acts as a proxy for
    /// requests of the Toolstacks."
    pub fn create_image(
        &self,
        platform: &mut Platform,
        blkback_index: usize,
        name: &str,
        bytes: u64,
    ) -> Result<(), String> {
        // A toolstack may only drive shards delegated to it.
        let bb_dom = *platform
            .services
            .blkbacks
            .get(blkback_index)
            .ok_or("no such blkback")?;
        let delegated = platform
            .hv
            .domain(bb_dom)
            .map(|d| d.privileges.delegated_to.contains(&self.dom) || bb_dom == self.dom)
            .unwrap_or(false);
        if !delegated {
            return Err(format!("blkback {bb_dom} not delegated to {}", self.dom));
        }
        platform.blkbacks[blkback_index]
            .images
            .create_image(name, bytes)
    }

    /// Lists images on a delegated BlkBack via the proxy daemon.
    pub fn list_images(&self, platform: &Platform, blkback_index: usize) -> Vec<String> {
        platform
            .blkbacks
            .get(blkback_index)
            .map(|bb| bb.images.list())
            .unwrap_or_default()
    }

    /// Memory currently counted against this toolstack's quota.
    pub fn used_memory_mib(&self) -> u64 {
        self.used_memory_mib
    }

    /// Disk bytes currently counted against this toolstack's quota.
    pub fn used_disk_bytes(&self) -> u64 {
        self.used_disk_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::XoarConfig;

    fn platform2() -> Platform {
        Platform::xoar(XoarConfig {
            toolstacks: 2,
            ..Default::default()
        })
    }

    fn cfg(name: &str) -> GuestConfig {
        GuestConfig::evaluation_guest(name)
    }

    #[test]
    fn create_list_destroy() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0);
        let g = ts.create(&mut p, cfg("a")).unwrap();
        let list = ts.list(&p);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "a");
        assert_eq!(list[0].state, DomainState::Running);
        assert_eq!(list[0].memory_mib, 1024);
        assert_eq!(list[0].vcpus, 2);
        ts.destroy(&mut p, g).unwrap();
        assert!(ts.list(&p).is_empty());
        assert_eq!(ts.used_memory_mib(), 0, "quota accounting returns to zero");
    }

    #[test]
    fn list_shows_only_own_vms() {
        let mut p = platform2();
        let mut red = Toolstack::new(&p, 0);
        let mut blue = Toolstack::new(&p, 1);
        red.create(&mut p, cfg("red-1")).unwrap();
        blue.create(&mut p, cfg("blue-1")).unwrap();
        assert_eq!(red.list(&p).len(), 1);
        assert_eq!(red.list(&p)[0].name, "red-1");
        assert_eq!(blue.list(&p)[0].name, "blue-1");
    }

    #[test]
    fn cross_toolstack_management_blocked_by_hypervisor() {
        let mut p = platform2();
        let mut red = Toolstack::new(&p, 0);
        let blue = Toolstack::new(&p, 1);
        let g = red.create(&mut p, cfg("red-1")).unwrap();
        assert!(matches!(
            blue.pause(&mut p, g),
            Err(HvError::PermissionDenied { .. })
        ));
        assert!(matches!(
            blue.set_vcpus(&mut p, g, 1),
            Err(HvError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn vm_count_quota() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0).with_quota(ResourceQuota {
            max_vms: 2,
            ..ResourceQuota::unlimited()
        });
        ts.create(&mut p, cfg("a")).unwrap();
        ts.create(&mut p, cfg("b")).unwrap();
        assert!(matches!(
            ts.create(&mut p, cfg("c")),
            Err(HvError::LimitExceeded("toolstack VM quota"))
        ));
        // Destroying one frees a slot.
        let g = ts.list(&p)[0].dom;
        ts.destroy(&mut p, g).unwrap();
        ts.create(&mut p, cfg("c")).unwrap();
    }

    #[test]
    fn memory_quota_spans_create_and_resize() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0).with_quota(ResourceQuota {
            max_memory_mib: 2048,
            ..ResourceQuota::unlimited()
        });
        let g = ts.create(&mut p, cfg("a")).unwrap(); // 1024.
        assert!(matches!(
            ts.create(&mut p, {
                let mut c = cfg("b");
                c.memory_mib = 1536;
                c
            }),
            Err(HvError::LimitExceeded("toolstack memory quota"))
        ));
        // Growing within quota succeeds; past it fails.
        ts.set_memory(&mut p, g, 2048).unwrap();
        assert!(ts.set_memory(&mut p, g, 4096).is_err());
        assert_eq!(p.hv.domain(g).unwrap().memory_mib, 2048);
    }

    #[test]
    fn disk_quota() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0).with_quota(ResourceQuota {
            max_disk_bytes: 20 << 30,
            ..ResourceQuota::unlimited()
        });
        ts.create(&mut p, cfg("a")).unwrap(); // 15 GiB.
        assert!(matches!(
            ts.create(&mut p, cfg("b")),
            Err(HvError::LimitExceeded("toolstack disk quota"))
        ));
    }

    #[test]
    fn disk_accounting_releases_actual_reservation() {
        // Regression: destroy used to release a hardcoded 15 GiB instead
        // of the guest's real disk_bytes, so quotas drifted with every
        // create/destroy cycle of a non-default guest.
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0).with_quota(ResourceQuota {
            max_disk_bytes: 64 << 30,
            ..ResourceQuota::unlimited()
        });
        for i in 0..4 {
            let mut c = cfg(&format!("churn-{i}"));
            c.disk_bytes = 20 << 30; // Not the 15 GiB default.
            let g = ts.create(&mut p, c).unwrap();
            assert_eq!(ts.used_disk_bytes(), 20 << 30);
            ts.destroy(&mut p, g).unwrap();
            assert_eq!(
                ts.used_disk_bytes(),
                0,
                "books must return to zero after churn round {i}"
            );
        }
        // After the churn the full quota is still available.
        let mut big = cfg("big");
        big.disk_bytes = 60 << 30;
        ts.create(&mut p, big).unwrap();
    }

    #[test]
    fn clones_charge_memory_but_no_disk() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0);
        let tpl = ts.create(&mut p, cfg("golden")).unwrap();
        ts.capture_template(&mut p, tpl).unwrap();
        let disk_before = ts.used_disk_bytes();
        let c = ts.clone(&mut p, tpl, "fn-0").unwrap();
        assert_eq!(ts.used_disk_bytes(), disk_before, "clones share the image");
        assert_eq!(ts.used_memory_mib(), 2048, "clone charged its reservation");
        ts.destroy(&mut p, c).unwrap();
        assert_eq!(ts.used_memory_mib(), 1024);
        assert_eq!(ts.used_disk_bytes(), disk_before);
    }

    #[test]
    fn clone_quota_enforced() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0).with_quota(ResourceQuota {
            max_vms: 3,
            ..ResourceQuota::unlimited()
        });
        let tpl = ts.create(&mut p, cfg("golden")).unwrap();
        ts.capture_template(&mut p, tpl).unwrap();
        ts.clone(&mut p, tpl, "fn-0").unwrap();
        ts.clone(&mut p, tpl, "fn-1").unwrap();
        assert!(matches!(
            ts.clone(&mut p, tpl, "fn-2"),
            Err(HvError::LimitExceeded("toolstack VM quota"))
        ));
    }

    #[test]
    fn template_with_live_clones_refuses_destroy_via_facade() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0);
        let tpl = ts.create(&mut p, cfg("golden")).unwrap();
        ts.capture_template(&mut p, tpl).unwrap();
        let c = ts.clone(&mut p, tpl, "fn-0").unwrap();
        assert!(ts.destroy(&mut p, tpl).is_err());
        ts.destroy(&mut p, c).unwrap();
        ts.destroy(&mut p, tpl).unwrap();
        assert_eq!(ts.used_memory_mib(), 0);
        assert_eq!(ts.used_disk_bytes(), 0);
    }

    #[test]
    fn pause_unpause_via_facade() {
        let mut p = platform2();
        let mut ts = Toolstack::new(&p, 0);
        let g = ts.create(&mut p, cfg("a")).unwrap();
        ts.pause(&mut p, g).unwrap();
        assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Paused);
        ts.unpause(&mut p, g).unwrap();
        assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Running);
    }

    #[test]
    fn image_administration_via_proxy() {
        let mut p = platform2();
        let ts = Toolstack::new(&p, 0);
        ts.create_image(&mut p, 0, "scratch.img", 1 << 30).unwrap();
        assert!(ts.list_images(&p, 0).contains(&"scratch.img".to_string()));
        assert!(
            ts.create_image(&mut p, 0, "scratch.img", 1).is_err(),
            "no duplicates"
        );
        assert!(ts.create_image(&mut p, 9, "x.img", 1).is_err(), "bad index");
    }
}
