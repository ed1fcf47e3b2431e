//! VM-density extension experiment.
//!
//! Not a numbered figure, but the workload the paper's introduction
//! motivates: "Best practices in virtual desktop deployments involve
//! deploying 10 VMs per CPU core. Further packing density is achieved by
//! sharing identical pages of memory … between VMs." This experiment
//! packs a fleet of small guests onto the 4-core testbed, measures how
//! the platform's service-memory overhead amortises, how much page
//! deduplication reclaims, and that the credit scheduler divides each
//! core fairly ten ways.

use xoar_core::platform::{GuestConfig, Platform};
use xoar_core::KernelSpec;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::DomId;

/// Result of one density run.
#[derive(Debug, Clone)]
pub struct DensityResult {
    /// Guests successfully packed.
    pub guests: usize,
    /// Platform service memory, MiB (fixed cost being amortised).
    pub service_memory_mib: u64,
    /// Frames reclaimed by page deduplication.
    pub dedup_frames: u64,
    /// Frames reclaimed relative to the kernel frames the workload wrote
    /// (can exceed 1.0: the Builder's identical start-info/kernel-stub
    /// pages across guests deduplicate too).
    pub dedup_fraction: f64,
    /// CPU time each guest received in one scheduler period, ns.
    pub per_guest_cpu_ns: Vec<(DomId, u64)>,
}

/// Number of identical "kernel image" pages each guest carries.
const KERNEL_PAGES: u64 = 24;

/// Packs `count` desktop-class guests onto `platform` and measures
/// density characteristics.
///
/// Deduplication runs as one bulk `dedup_memory` pass after all guests
/// have written their kernel images.
pub fn run(platform: &mut Platform, count: usize) -> DensityResult {
    let ts = platform.services.toolstacks[0];
    let mut guests = Vec::new();
    for i in 0..count {
        let mut cfg = GuestConfig::evaluation_guest(&format!("desktop-{i}"));
        cfg.memory_mib = 64; // Thin desktop VMs.
        cfg.vcpus = 1;
        cfg.disk_bytes = 1 << 30;
        cfg.kernel = KernelSpec::Library("vmlinuz-2.6.31-pvops".into());
        match platform.create_guest(ts, cfg) {
            Ok(g) => guests.push(g),
            Err(_) => break,
        }
    }
    // Identical guest images: every desktop maps the same kernel and
    // shared-library pages.
    for &g in &guests {
        for page in 0..KERNEL_PAGES {
            platform
                .hv
                .mem
                .write(g, Pfn(30 + page), format!("kernel-text-{page}").as_bytes())
                .expect("guest frames populated");
        }
    }
    let dedup_frames = platform.dedup_memory();
    let total_kernel_frames = guests.len() as u64 * KERNEL_PAGES;
    let dedup_fraction = if total_kernel_frames == 0 {
        0.0
    } else {
        dedup_frames as f64 / total_kernel_frames as f64
    };
    // One 30 ms scheduler accounting period with every guest runnable.
    for &g in &guests {
        platform.hv.sched.set_runnable(g, true);
    }
    let granted = platform.hv.sched.account(30_000_000);
    let per_guest_cpu_ns = guests
        .iter()
        .map(|g| (*g, granted.get(g).copied().unwrap_or(0)))
        .collect();
    DensityResult {
        guests: guests.len(),
        service_memory_mib: platform.service_memory_mib(),
        dedup_frames,
        dedup_fraction,
        per_guest_cpu_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_core::platform::XoarConfig;

    #[test]
    fn packs_forty_desktops_on_four_cores() {
        // The intro's best practice: 10 VMs per core on the 4-core box.
        let mut p = Platform::xoar(XoarConfig::default());
        let r = run(&mut p, 40);
        assert_eq!(r.guests, 40, "all forty desktops placed");
    }

    #[test]
    fn dedup_reclaims_nearly_all_duplicate_kernel_pages() {
        let mut p = Platform::xoar(XoarConfig::default());
        let r = run(&mut p, 10);
        // 10 copies of each kernel page collapse to 1: (n-1)/n reclaimed.
        assert!(r.dedup_fraction > 0.85, "fraction {}", r.dedup_fraction);
    }

    #[test]
    fn scheduler_divides_cores_fairly() {
        let mut p = Platform::xoar(XoarConfig::default());
        let r = run(&mut p, 40);
        let times: Vec<u64> = r.per_guest_cpu_ns.iter().map(|(_, t)| *t).collect();
        let min = *times.iter().min().unwrap();
        let max = *times.iter().max().unwrap();
        assert!(min > 0, "every guest was scheduled");
        assert!(max <= min * 2, "fair shares: min {min} max {max}");
        // ~1/10 of a core each (shards idle in this experiment).
        let period = 30_000_000u64;
        assert!(
            max <= period / 5,
            "densely packed guests get fractional cores"
        );
    }

    #[test]
    fn service_memory_amortises_with_density() {
        let mut p = Platform::xoar(XoarConfig::default());
        let r = run(&mut p, 40);
        // 640 MiB of service shards over 40 guests = 16 MiB per guest,
        // well under the 750 MiB a Dom0 would cost regardless of count.
        let per_guest = r.service_memory_mib as f64 / r.guests as f64;
        assert!(
            per_guest < 20.0,
            "per-guest service memory {per_guest:.1} MiB"
        );
    }
}
