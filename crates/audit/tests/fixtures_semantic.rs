//! Fixture tests for the semantic passes: each pass must fire on a
//! seeded violation (known positive) and stay quiet on the equivalent
//! clean code (known negative), end to end through [`audit::scan_sources`]
//! — i.e. through the same parser → pass → suppression pipeline the CLI
//! runs, not through pass internals.

use audit::passes::cycles::CycleManifest;
use audit::rules::{self, RuleContext};
use audit::{scan_sources, Allowlist, Finding};

/// A miniature canonical costs module, standing in for sgx-sim::costs.
const COSTS: &str = "pub const EWB_CYCLES: u64 = 12_000;\n\
                     pub const ECALL_ROUND_TRIP_CYCLES: u64 = 17_000;";

/// A miniature counters module, standing in for mem-sim::counters.
const COUNTERS: &str = "pub struct Counters {\n\
                            pub walk_cycles: u64,\n\
                            pub epc_faults: u64,\n\
                        }";

fn ctx() -> RuleContext {
    RuleContext::from_sources(COSTS, COUNTERS)
}

/// Scans sources with no suppression planes and returns the findings
/// for `rule` only (the mini fixtures can trip unrelated token rules).
fn findings_for(sources: &[(&str, &str)], rule: &str) -> Vec<Finding> {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    let report = scan_sources(
        &owned,
        &ctx(),
        &Allowlist::default(),
        &CycleManifest::default(),
    );
    report
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

// ---- cycle-routing (cycle-conservation pass) -----------------------

#[test]
fn cycle_routing_positive_unrouted_counter_mutation() {
    let f = findings_for(
        &[(
            "crates/sgx-sim/src/machine.rs",
            "impl SgxMachine { fn tick(&mut self) { self.counters.epc_faults += 1; } }",
        )],
        rules::CYCLE_ROUTING,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("SgxMachine::tick"));
}

#[test]
fn cycle_routing_negative_costs_routed_or_manifested() {
    // Routed through the canonical constants: clean.
    let routed = findings_for(
        &[(
            "crates/sgx-sim/src/machine.rs",
            "impl SgxMachine { fn fault(&mut self) { self.walk_cycles += costs::EWB_CYCLES; } }",
        )],
        rules::CYCLE_ROUTING,
    );
    assert!(routed.is_empty(), "{routed:?}");
    // Declared in the manifest: clean, and the entry is not stale.
    let sources = vec![(
        "crates/sgx-sim/src/machine.rs".to_string(),
        "impl SgxMachine { fn flush(&mut self) { self.counters.epc_faults += 1; } }".to_string(),
    )];
    let manifest = CycleManifest::parse(
        "crates/audit/manifests/cycle-routing.manifest",
        "crates/sgx-sim/src/machine.rs SgxMachine::flush\n",
    );
    let report = scan_sources(&sources, &ctx(), &Allowlist::default(), &manifest);
    let f: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == rules::CYCLE_ROUTING)
        .collect();
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn cycle_routing_stale_manifest_entry_fails_the_scan() {
    let sources = vec![(
        "crates/sgx-sim/src/machine.rs".to_string(),
        "impl SgxMachine { fn quiet(&self) {} }".to_string(),
    )];
    let manifest = CycleManifest::parse(
        "crates/audit/manifests/cycle-routing.manifest",
        "crates/sgx-sim/src/machine.rs SgxMachine::gone\n",
    );
    let report = scan_sources(&sources, &ctx(), &Allowlist::default(), &manifest);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == rules::CYCLE_ROUTING && f.message.contains("stale manifest entry")),
        "{:?}",
        report.findings
    );
    assert_eq!(audit::exit_code(&report, false), 1);
}

// ---- phase-balance --------------------------------------------------

#[test]
fn phase_balance_positive_unclosed_span() {
    let f = findings_for(
        &[(
            "crates/workloads/src/btree.rs",
            "fn run(env: &mut Env) { env.phase(\"build\"); work(env); }",
        )],
        rules::PHASE_BALANCE,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("\"build\""));
}

#[test]
fn phase_balance_negative_balanced_and_with_phase() {
    let f = findings_for(
        &[(
            "crates/workloads/src/btree.rs",
            "fn run(env: &mut Env) {\n\
                 env.phase(\"build\"); work(env); env.phase_end(\"build\")?;\n\
                 env.with_phase(\"query\", |e| probe(e))?;\n\
             }",
        )],
        rules::PHASE_BALANCE,
    );
    assert!(f.is_empty(), "{f:?}");
}
