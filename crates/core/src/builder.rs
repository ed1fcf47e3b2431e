//! The Builder: the only arbitrarily privileged shard in Xoar (§5.1–5.2).
//!
//! The Builder performs "the hypervisor and guest memory related
//! operations necessary when creating a VM": creating the domain shell,
//! populating its memory, writing the page tables and start-info page,
//! and installing the boot-time grant entries that let the deprivileged
//! XenStore and Console Manager communicate with the new guest (§5.6).
//!
//! "To avoid having the privileged Builder parse user-provided data, like
//! kernels and file systems, it only builds VMs from a library of known
//! good images. If a guest needs to run its own kernel, the Builder
//! instantiates a VM with a special bootloader, which loads the user's
//! kernel from within the guest VM."

use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::memory::{PageRef, Pfn};
use xoar_hypervisor::{DomId, HvError, HvResult, Hypercall, Hypervisor};
use xoar_xenstore::XenStore;

/// A kernel image in the Builder's library of known-good images.
#[derive(Debug, Clone)]
pub struct KernelImage {
    /// Image name (e.g. `vmlinuz-2.6.31-pvops`).
    pub name: String,
    /// Image size in bytes (drives build-time cost modelling).
    pub size_bytes: u64,
}

/// How the guest's kernel is selected.
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// A named image from the trusted library.
    Library(String),
    /// A user-supplied kernel: the Builder never parses it; it boots the
    /// trusted bootloader image which loads the kernel *inside* the guest.
    UserProvided {
        /// A label for audit purposes only.
        label: String,
    },
}

/// A request issued by a Toolstack to the Builder.
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// Guest name.
    pub name: String,
    /// Memory reservation in MiB.
    pub memory_mib: u64,
    /// VCPU count.
    pub vcpus: u32,
    /// Kernel selection.
    pub kernel: KernelSpec,
    /// The requesting toolstack, which receives management rights.
    pub on_behalf_of: DomId,
}

/// The result of a successful build.
#[derive(Debug, Clone, Copy)]
pub struct BuiltVm {
    /// The new guest's domain ID.
    pub guest: DomId,
    /// The PFN holding the start-info page.
    pub start_info_pfn: Pfn,
    /// The PFN of the XenStore ring page (granted to the store).
    pub xenstore_ring_pfn: Pfn,
    /// The PFN of the console ring page (granted to the console shard).
    pub console_ring_pfn: Pfn,
}

/// The name of the trusted bootloader image.
pub const BOOTLOADER_IMAGE: &str = "pv-bootloader";

/// The Builder service.
#[derive(Debug)]
pub struct Builder {
    /// The hosting (privileged, nanOS-based) domain.
    pub dom: DomId,
    library: Vec<KernelImage>,
    builds: u64,
}

impl Builder {
    /// Creates a Builder hosted in `dom` with the default image library.
    pub fn new(dom: DomId) -> Self {
        Builder {
            dom,
            library: vec![
                KernelImage {
                    name: "vmlinuz-2.6.31-pvops".into(),
                    size_bytes: 4 * 1024 * 1024,
                },
                KernelImage {
                    name: "vmlinuz-2.6.32-pvops".into(),
                    size_bytes: 4 * 1024 * 1024,
                },
                KernelImage {
                    name: "mini-os".into(),
                    size_bytes: 512 * 1024,
                },
                KernelImage {
                    name: "nanos".into(),
                    size_bytes: 64 * 1024,
                },
                KernelImage {
                    name: BOOTLOADER_IMAGE.into(),
                    size_bytes: 256 * 1024,
                },
            ],
            builds: 0,
        }
    }

    /// Adds an image to the trusted library.
    pub fn add_image(&mut self, image: KernelImage) {
        self.library.push(image);
    }

    /// Library lookup.
    pub fn image(&self, name: &str) -> Option<&KernelImage> {
        self.library.iter().find(|i| i.name == name)
    }

    /// Total successful builds.
    pub fn build_count(&self) -> u64 {
        self.builds
    }

    /// Resolves the image the Builder will actually load for `spec`.
    ///
    /// User-provided kernels resolve to the trusted bootloader — the
    /// Builder refuses to parse untrusted bytes.
    pub fn resolve_image(&self, spec: &KernelSpec) -> HvResult<&KernelImage> {
        let name = match spec {
            KernelSpec::Library(n) => n.as_str(),
            KernelSpec::UserProvided { .. } => BOOTLOADER_IMAGE,
        };
        self.image(name).ok_or_else(|| {
            HvError::InvalidArgument(format!("no image {name} in the trusted library"))
        })
    }

    /// Builds a guest VM.
    ///
    /// Every step is a real hypercall issued *as the Builder domain*, so
    /// the whole flow is subject to the Builder's whitelist — the tests in
    /// `crates/core/src/platform.rs` verify that no other shard can follow
    /// this path.
    pub fn build(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut XenStore,
        xenstore_dom: DomId,
        console_dom: DomId,
        req: &BuildRequest,
    ) -> HvResult<BuiltVm> {
        let image = self.resolve_image(&req.kernel)?.clone();
        let guest = hv
            .hypercall(
                self.dom,
                Hypercall::DomctlCreateDomain {
                    name: req.name.clone(),
                    memory_mib: req.memory_mib,
                    vcpus: req.vcpus,
                },
            )?
            .dom_id()?;
        // Populate a model-scale number of frames: 1 frame per MiB keeps
        // simulations cheap while preserving proportionality.
        let frames = req.memory_mib.max(4);
        hv.hypercall(
            self.dom,
            Hypercall::MemoryPopulate {
                target: guest,
                frames,
            },
        )?;

        // Lay out the magic pages.
        let start_info_pfn = Pfn(0);
        let xenstore_ring_pfn = Pfn(1);
        let console_ring_pfn = Pfn(2);
        let kernel_pfn = Pfn(3);
        let kernel = format!("kernel:{}", image.name);
        hv.hypercall(
            self.dom,
            Hypercall::MmuWriteForeign {
                target: guest,
                pages: vec![(kernel_pfn, PageRef::new(kernel.as_bytes()))],
            },
        )?;
        let start_info = format!(
            "start-info: nr_pages={frames} store_pfn={} console_pfn={}",
            xenstore_ring_pfn.0, console_ring_pfn.0
        );
        hv.hypercall(
            self.dom,
            Hypercall::MmuWriteForeign {
                target: guest,
                pages: vec![(start_info_pfn, PageRef::new(start_info.as_bytes()))],
            },
        )?;
        // §5.6: "The Builder adds a step to the regular VM creation code —
        // to automatically create grant table entries for this shared
        // memory, allowing these tools to use grant tables and function
        // without any special privileges."
        hv.hypercall(
            self.dom,
            Hypercall::GnttabForeignSetup {
                owner: guest,
                grantee: xenstore_dom,
                pfn: xenstore_ring_pfn,
                access: GrantAccess::ReadWrite,
            },
        )?;
        hv.hypercall(
            self.dom,
            Hypercall::GnttabForeignSetup {
                owner: guest,
                grantee: console_dom,
                pfn: console_ring_pfn,
                access: GrantAccess::ReadWrite,
            },
        )?;
        // Hand management to the requesting toolstack (§5.6's parent flag).
        hv.hypercall(
            self.dom,
            Hypercall::DomctlDelegate {
                target: guest,
                manager: req.on_behalf_of,
            },
        )?;
        // Register with XenStore and unpause.
        xs.create_domain_home(self.dom, guest)
            .map_err(|e| HvError::InvalidArgument(format!("xenstore: {e}")))?;
        let _ = xs.write_str(
            self.dom,
            &format!("/local/domain/{}/name", guest.0),
            &req.name,
        );
        hv.hypercall(self.dom, Hypercall::DomctlUnpauseDomain { target: guest })?;
        self.builds += 1;
        Ok(BuiltVm {
            guest,
            start_info_pfn,
            xenstore_ring_pfn,
            console_ring_pfn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::domain::DomainRole;
    use xoar_hypervisor::{HypercallId, PrivilegeSet};

    use crate::shard::{ShardKind, ShardSpec};

    fn platform() -> (Hypervisor, XenStore, Builder, DomId, DomId, DomId) {
        let mut hv = Hypervisor::with_default_host();
        // Bootstrapper stands in as creator of the boot shards.
        let mut builder_privs = PrivilegeSet::default();
        for id in ShardSpec::of(ShardKind::Builder).hypercall_whitelist() {
            builder_privs.permit_hypercall(id);
        }
        builder_privs.map_foreign_any = true;
        let builder_dom = hv
            .create_boot_domain("builder", DomainRole::Shard, 64, builder_privs)
            .unwrap();
        let xenstore_dom = hv
            .create_boot_domain(
                "xenstore-logic",
                DomainRole::Shard,
                32,
                PrivilegeSet::default(),
            )
            .unwrap();
        let console_dom = hv
            .create_boot_domain(
                "console-mgr",
                DomainRole::Shard,
                128,
                PrivilegeSet::default(),
            )
            .unwrap();
        let toolstack_dom = hv
            .create_boot_domain("toolstack", DomainRole::Shard, 128, PrivilegeSet::default())
            .unwrap();
        let mut xs = XenStore::new();
        xs.set_privileged(builder_dom, true);
        (
            hv,
            xs,
            Builder::new(builder_dom),
            xenstore_dom,
            console_dom,
            toolstack_dom,
        )
    }

    fn req(ts: DomId) -> BuildRequest {
        BuildRequest {
            name: "guest-a".into(),
            memory_mib: 64,
            vcpus: 2,
            kernel: KernelSpec::Library("vmlinuz-2.6.31-pvops".into()),
            on_behalf_of: ts,
        }
    }

    #[test]
    fn build_produces_running_guest() {
        let (mut hv, mut xs, mut b, xsd, cod, tsd) = platform();
        let built = b.build(&mut hv, &mut xs, xsd, cod, &req(tsd)).unwrap();
        let d = hv.domain(built.guest).unwrap();
        assert_eq!(d.state, xoar_hypervisor::DomainState::Running);
        assert_eq!(d.vcpus.len(), 2);
        assert_eq!(
            d.parent_toolstack,
            Some(tsd),
            "management delegated to the toolstack"
        );
        assert_eq!(b.build_count(), 1);
        // Start-info page written.
        let si = hv.mem.read(built.guest, built.start_info_pfn).unwrap();
        assert!(String::from_utf8(si.to_vec())
            .unwrap()
            .contains("store_pfn=1"));
        // Name registered in XenStore.
        assert_eq!(
            xs.read_str(b.dom, &format!("/local/domain/{}/name", built.guest.0))
                .unwrap(),
            "guest-a"
        );
    }

    #[test]
    fn boot_grants_let_deprivileged_services_map() {
        let (mut hv, mut xs, mut b, xsd, cod, tsd) = platform();
        let built = b.build(&mut hv, &mut xs, xsd, cod, &req(tsd)).unwrap();
        // The XenStore shard can map the store ring without any privilege.
        let table = hv.grant_table(built.guest).unwrap();
        let to_xs = table.granted_to(xsd);
        assert_eq!(to_xs.len(), 1);
        let gref = to_xs[0].0;
        hv.hypercall(
            xsd,
            Hypercall::GnttabMapGrantRef {
                granter: built.guest,
                gref,
            },
        )
        .expect("unprivileged grant map must succeed");
        // And the console shard its ring.
        assert_eq!(
            hv.grant_table(built.guest).unwrap().granted_to(cod).len(),
            1
        );
    }

    #[test]
    fn user_kernel_resolves_to_bootloader() {
        let (_, _, b, ..) = platform();
        let img = b
            .resolve_image(&KernelSpec::UserProvided {
                label: "custom-4.4".into(),
            })
            .unwrap();
        assert_eq!(img.name, BOOTLOADER_IMAGE);
    }

    #[test]
    fn unknown_library_image_refused() {
        let (_, _, b, ..) = platform();
        assert!(b
            .resolve_image(&KernelSpec::Library("evil.bin".into()))
            .is_err());
    }

    #[test]
    fn unprivileged_domain_cannot_build() {
        let (mut hv, mut xs, _b, xsd, cod, tsd) = platform();
        // A rogue "builder" living in the toolstack domain (which lacks
        // DomctlCreateDomain) must fail at the very first hypercall.
        let mut rogue = Builder::new(tsd);
        let err = rogue
            .build(&mut hv, &mut xs, xsd, cod, &req(tsd))
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn library_can_be_extended() {
        let (_, _, mut b, ..) = platform();
        b.add_image(KernelImage {
            name: "vmlinuz-3.0".into(),
            size_bytes: 5 << 20,
        });
        assert!(b.image("vmlinuz-3.0").is_some());
        assert!(b
            .resolve_image(&KernelSpec::Library("vmlinuz-3.0".into()))
            .is_ok());
    }

    #[test]
    fn builder_whitelist_is_sufficient_and_tight() {
        // The builder whitelist covers exactly the calls `build` issues.
        let wl = ShardSpec::of(ShardKind::Builder).hypercall_whitelist();
        for needed in [
            HypercallId::DomctlCreateDomain,
            HypercallId::MemoryPopulate,
            HypercallId::MmuWriteForeign,
            HypercallId::GnttabForeignSetup,
            HypercallId::DomctlDelegate,
            HypercallId::DomctlUnpauseDomain,
        ] {
            assert!(
                wl.contains(&needed),
                "{needed:?} missing from builder whitelist"
            );
        }
        assert!(!wl.contains(&HypercallId::PlatformReboot));
        // §4.3: "Dom0 tools such as the VM builder … directly map the
        // target VM's memory during VM creation" — in this model the
        // Builder *writes* start info (MmuWriteForeign) but never takes
        // ongoing foreign mappings; that scoped right belongs to QemuVM
        // stubs, so MmuMapForeign stays off the Builder's whitelist.
        assert!(!wl.contains(&HypercallId::MmuMapForeign));
    }
}
