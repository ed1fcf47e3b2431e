//! Golden pin of the over-privilege table.
//!
//! The reference scenario is deterministic, so the exact rendered table
//! and every row's used-call list are fixed. Any change to how the gate
//! is observed, or to which calls the scenario issues, shows up here as
//! a diff against these literals.

use xoar_analysis::overpriv;
use xoar_hypervisor::HypercallId;

const GOLDEN: &str = "\
overpriv dom0 bootstrapper declared=9 used=9 unused=[]
overpriv dom4 Builder declared=11 used=11 unused=[]
overpriv dom8 Toolstack declared=7 used=7 unused=[]
overpriv dom11 qemu-10 declared=2 used=1 unused=[mmu.map_foreign]
";

fn rows() -> Vec<overpriv::OverprivEntry> {
    let (p, usage) = overpriv::traced_scenario().unwrap();
    overpriv::report(&p, &usage)
}

#[test]
fn overpriv_render_matches_golden() {
    assert_eq!(overpriv::render(&rows()), GOLDEN);
}

#[test]
fn overpriv_used_lists_match_golden() {
    let used: Vec<(String, Vec<&str>)> = rows()
        .iter()
        .map(|r| {
            (
                r.dom.to_string(),
                r.used.iter().map(|id: &HypercallId| id.name()).collect(),
            )
        })
        .collect();
    let expect = |dom: &str, names: &[&'static str]| (dom.to_string(), names.to_vec());
    assert_eq!(
        used,
        vec![
            expect(
                "dom0",
                &[
                    "domctl.create",
                    "domctl.unpause",
                    "domctl.set_role",
                    "domctl.assign_device",
                    "domctl.delegate",
                    "domctl.ioport_permission",
                    "domctl.mmio_permission",
                    "domctl.permit_hypercall",
                    "memory.populate",
                ],
            ),
            expect(
                "dom4",
                &[
                    "domctl.create",
                    "domctl.destroy",
                    "domctl.unpause",
                    "domctl.set_role",
                    "domctl.delegate",
                    "domctl.set_privileged_for",
                    "domctl.permit_hypercall",
                    "mmu.write_foreign",
                    "memory.populate",
                    "gnttab.foreign_setup",
                    "vm.rollback",
                ],
            ),
            expect(
                "dom8",
                &[
                    "domctl.destroy",
                    "domctl.pause",
                    "domctl.unpause",
                    "domctl.set_max_mem",
                    "domctl.set_vcpus",
                    "sysctl.physinfo",
                    "domctl.clone",
                ],
            ),
            expect("dom11", &["mmu.write_foreign"]),
        ]
    );
}
