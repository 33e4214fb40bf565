//! The real workspace must scan clean: this is `gauge-audit --check`
//! enforced from the tier-1 test suite, so a violation fails `cargo
//! test` even when CI's dedicated audit job is skipped.
//!
//! "Clean" means the full contract: no surviving finding from any token
//! rule or semantic pass, and no stale allowlist entry (`--strict` in
//! CI).

use audit::passes::cycles::CycleManifest;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_model_lint_violations() {
    let report = audit::scan_workspace(&workspace_root()).expect("scan must succeed");
    assert!(
        report.files_checked > 50,
        "scan looked at too few files ({}) — wrong root?",
        report.files_checked
    );
    assert!(
        report.findings.is_empty(),
        "model-lint violations:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_allow.is_empty(),
        "stale allowlist entries (matched nothing):\n{}",
        report.stale_allow.join("\n")
    );
    assert_eq!(audit::exit_code(&report, true), 0);
}

#[test]
fn semantic_suppressions_are_in_active_use() {
    // The cycle-routing manifest exists because real code needs it:
    // scanned without it, the simulator's counter-mutating functions
    // must surface as findings. If none do, the pass silently stopped
    // seeing the workspace (wrong scope filter, parser regression, ...).
    let root = workspace_root();
    let ctx = audit::load_context(&root).expect("context");
    let manifest = audit::load_manifest(&root).expect("manifest");
    assert!(
        !manifest.entries.is_empty(),
        "the cycle-routing manifest is empty"
    );
    let sources = audit::read_sources(&root).expect("sources");
    let unmanifested = audit::scan_sources(
        &sources,
        &ctx,
        &audit::Allowlist::default(),
        &CycleManifest::default(),
    );
    let unrouted = unmanifested
        .findings
        .iter()
        .filter(|f| f.rule == audit::rules::CYCLE_ROUTING)
        .count();
    assert!(
        unrouted >= manifest.entries.len(),
        "without the manifest the cycle-routing pass found {unrouted} unrouted mutations for \
         {} manifest entries — is it still reading the simulator crates?",
        manifest.entries.len()
    );
}

#[test]
fn shim_costs_are_canonical_cost_values() {
    // The LibOS shim's costs live in sgx-sim::costs, so the cost-literals
    // rule guards them like the paper's cited costs: a restated 3 500
    // anywhere else in the workspace is a finding.
    let ctx = audit::load_context(&workspace_root()).expect("context");
    for (value, name) in [
        (1_500, "SHIM_DISPATCH_CYCLES"),
        (3_500, "SHIM_OCALL_WORK_CYCLES"),
    ] {
        assert_eq!(
            ctx.cost_values.get(&value).map(String::as_str),
            Some(name),
            "{value} is not a canonical cost value"
        );
    }
}
