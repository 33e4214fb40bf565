//! Fixture tests: each rule must fire on a seeded violation (driving a
//! nonzero `--check` exit code) and stay quiet on the equivalent clean
//! or test-gated code.

use audit::rules::{self, RuleContext};
use audit::{exit_code, Allowlist, ScanReport};

/// A miniature canonical costs module, standing in for sgx-sim::costs.
const COSTS: &str = r#"
/// EWB.
pub const EWB_CYCLES: u64 = 12_000;
/// Round trip.
pub const ECALL_ROUND_TRIP_CYCLES: u64 = 17_000;
/// Derived: not a canonical literal of its own.
pub const EENTER_CYCLES: u64 = ECALL_ROUND_TRIP_CYCLES / 2;
/// Too small to claim (the eviction batch).
pub const EVICT_BATCH_PAGES: usize = 16;
"#;

/// A miniature counters module, standing in for mem-sim::counters.
const COUNTERS: &str = r#"
pub struct Counters {
    /// Walk cycles.
    pub walk_cycles: u64,
    /// Stalls.
    pub stall_cycles: u64,
}
"#;

fn ctx() -> RuleContext {
    RuleContext::from_sources(COSTS, COUNTERS)
}

#[test]
fn context_extracts_canonical_values_and_fields() {
    let c = ctx();
    assert_eq!(
        c.cost_values.get(&12_000).map(String::as_str),
        Some("EWB_CYCLES")
    );
    assert_eq!(
        c.cost_values.get(&17_000).map(String::as_str),
        Some("ECALL_ROUND_TRIP_CYCLES")
    );
    assert!(
        !c.cost_values.contains_key(&16),
        "batch size is below threshold"
    );
    assert_eq!(c.cost_values.len(), 2, "derived constants are not literals");
    assert!(c.counter_fields.contains("walk_cycles"));
    assert!(c.counter_fields.contains("stall_cycles"));
}

#[test]
fn seeded_cost_literal_is_caught_and_drives_nonzero_exit() {
    let src = "fn f() -> u64 { 12_000 }";
    let findings = rules::check_source("crates/core/src/env.rs", src, &ctx());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, rules::COST_LITERALS);
    assert!(findings[0].message.contains("EWB_CYCLES"));
    let report = ScanReport {
        findings,
        files_checked: 1,
        ..ScanReport::default()
    };
    assert_eq!(exit_code(&report, false), 1, "--check must exit nonzero");
}

#[test]
fn cost_literal_in_comment_string_or_test_is_fine() {
    let src = r#"
// A comment may cite 12_000 cycles freely.
fn f() -> &'static str { "12_000" }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::g(), 12_000); }
}
"#;
    assert!(rules::check_source("crates/core/src/env.rs", src, &ctx()).is_empty());
}

#[test]
fn cost_literal_in_canonical_module_or_tests_dir_is_fine() {
    let src = "pub const EWB_CYCLES: u64 = 12_000;";
    assert!(rules::check_source("crates/sgx-sim/src/costs.rs", src, &ctx()).is_empty());
    assert!(rules::check_source("tests/counters_consistency.rs", src, &ctx()).is_empty());
    assert!(rules::check_source("crates/sgx-sim/tests/properties.rs", src, &ctx()).is_empty());
}

#[test]
fn seeded_counter_cast_is_caught() {
    let src = "fn f(c: &Counters) -> u32 { c.walk_cycles as u32 }";
    let findings = rules::check_source("crates/mem-sim/src/report.rs", src, &ctx());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, rules::COUNTER_CAST);
    // Widening to u128 and float math outside the sim crates are fine.
    let ok = "fn f(c: &Counters) -> u128 { c.walk_cycles as u128 }";
    assert!(rules::check_source("crates/mem-sim/src/report.rs", ok, &ctx()).is_empty());
    assert!(rules::check_source("crates/gauge-stats/src/lib.rs", src, &ctx()).is_empty());
}

#[test]
fn allowlist_suppresses_by_path_and_message() {
    let src = "fn g() -> u64 { 12_000 }";
    let findings = rules::check_source("crates/mem-sim/src/latency.rs", src, &ctx());
    assert_eq!(findings.len(), 1);
    let allow = Allowlist::from_str_for_rule(
        rules::COST_LITERALS,
        "crates/mem-sim/src/latency.rs literal 12000",
    );
    assert!(allow.permits(&findings[0]));
    let other = Allowlist::from_str_for_rule(rules::COST_LITERALS, "latency.rs literal 17000");
    assert!(!other.permits(&findings[0]));
}
