//! `xoar-lint` — Pass B entry point.
//!
//! Scans every `crates/*/src/**/*.rs` file in the workspace, applies the
//! layering rules from [`xoar_analysis::lint`], and prints every finding
//! in stable sorted order. Exits nonzero iff there is any finding: no
//! suppression mechanism exists.
//!
//! Usage: `xoar-lint [--root <repo-root>]` — the root defaults to the
//! workspace this binary was built from, so `cargo run -p xoar-analysis
//! --bin xoar-lint` works offline from any cwd.

use std::path::PathBuf;
use std::process::ExitCode;

use xoar_analysis::lint::{lint_sources, load_tree};

fn main() -> ExitCode {
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                let Some(v) = args.next() else {
                    eprintln!("xoar-lint: --root needs a value");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(v);
            }
            other => {
                eprintln!("xoar-lint: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    let files = match load_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xoar-lint: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = lint_sources(&files);
    for f in &findings {
        println!("{}", f.render());
    }
    println!(
        "xoar-lint: {} file(s), {} finding(s)",
        files.len(),
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
