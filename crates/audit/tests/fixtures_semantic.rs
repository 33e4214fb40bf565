//! Fixture tests for the semantic passes: each pass must fire on a
//! seeded violation (known positive) and stay quiet on the equivalent
//! clean code (known negative), end to end through [`audit::scan_sources`]
//! — i.e. through the same parser → call graph → pass → suppression
//! pipeline the CLI runs, not through pass internals.
//!
//! The `planted_*` tests at the bottom run against the *real* workspace
//! sources: they prove the hot-path pass actually covers the
//! `access_stream` call graph (the finding set changes when an
//! allocation is planted in a function reachable from it) and that the
//! determinism pass watches the real emission plane.

use audit::passes::cycles::CycleManifest;
use audit::rules::{self, RuleContext};
use audit::{scan_sources, Allowlist, Baseline, Finding, ScanReport};
use std::fs;
use std::path::{Path, PathBuf};

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
        &Baseline::default(),
        &CycleManifest::default(),
    );
    report
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

// ---- hash-iter (determinism pass) ----------------------------------

#[test]
fn hash_iter_positive_emission_reachable_hash_iteration() {
    let f = findings_for(
        &[
            (
                "crates/core/src/emit.rs",
                "impl Emitter { pub fn emit(&self) {} }",
            ),
            (
                "crates/core/src/stats.rs",
                "use std::collections::HashMap;\n\
                 fn render_all(rows: &HashMap<String, u64>, e: &Emitter) {\n\
                     for (k, v) in rows.iter() { push_row(k, v); }\n\
                     e.emit();\n\
                 }\n\
                 fn push_row(_k: &str, _v: &u64) {}",
            ),
        ],
        rules::HASH_ITER,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("rows"));
    assert_eq!(f[0].file, "crates/core/src/stats.rs");
}

/// Clippy's `iter_over_hash_type` flags only `for` loops; collecting a
/// hash map's keys into a `Vec` leaks the same hash order into the
/// artifact without one. This is why `hash-iter` stays a custom pass.
#[test]
fn hash_iter_positive_collected_keys_without_a_for_loop() {
    let f = findings_for(
        &[
            (
                "crates/core/src/emit.rs",
                "impl Emitter { pub fn emit(&self) {} }",
            ),
            (
                "crates/core/src/stats.rs",
                "use std::collections::HashMap;\n\
                 fn render_names(rows: &HashMap<String, u64>, e: &Emitter) {\n\
                     let names: Vec<String> = rows.keys().cloned().collect();\n\
                     e.emit();\n\
                 }",
            ),
        ],
        rules::HASH_ITER,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("rows"), "{f:?}");
}

#[test]
fn hash_iter_negative_sorted_and_unreachable_iterations() {
    // Sorted before use: clean even though emission-reachable.
    let sorted = findings_for(
        &[
            (
                "crates/core/src/emit.rs",
                "impl Emitter { pub fn emit(&self) {} }",
            ),
            (
                "crates/core/src/stats.rs",
                "use std::collections::HashMap;\n\
                 fn render_all(rows: &HashMap<String, u64>, e: &Emitter) {\n\
                     let mut keys: Vec<_> = rows.iter().collect();\n\
                     keys.sort();\n\
                     e.emit();\n\
                 }",
            ),
        ],
        rules::HASH_ITER,
    );
    assert!(sorted.is_empty(), "{sorted:?}");
    // Unsorted but nowhere near an emission sink: clean.
    let unreachable = findings_for(
        &[(
            "crates/mem-sim/src/scratch.rs",
            "use std::collections::HashMap;\n\
             fn tally(rows: &HashMap<String, u64>) -> u64 {\n\
                 let mut t = 0; for (_, v) in rows.iter() { t += *v; } t\n\
             }",
        )],
        rules::HASH_ITER,
    );
    assert!(unreachable.is_empty(), "{unreachable:?}");
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
    let report = scan_sources(
        &sources,
        &ctx(),
        &Allowlist::default(),
        &Baseline::default(),
        &manifest,
    );
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
    let report = scan_sources(
        &sources,
        &ctx(),
        &Allowlist::default(),
        &Baseline::default(),
        &manifest,
    );
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

// ---- hot-path (purity pass) ----------------------------------------

#[test]
fn hot_path_positive_allocation_in_reachable_helper() {
    let f = findings_for(
        &[(
            "crates/mem-sim/src/machine.rs",
            "impl Machine {\n\
                 pub fn access(&mut self, a: u64) { self.walk(a); }\n\
                 fn walk(&mut self, a: u64) { let mut v = Vec::new(); v.push(a); }\n\
             }",
        )],
        rules::HOT_PATH,
    );
    assert!(
        f.iter().any(|x| x.message.contains("Machine::walk")),
        "{f:?}"
    );
}

#[test]
fn hot_path_negative_unreachable_and_gated_code() {
    // Same allocation, but in a function the hot path never calls.
    let cold = findings_for(
        &[(
            "crates/mem-sim/src/machine.rs",
            "impl Machine {\n\
                 pub fn access(&mut self, a: u64) { self.step(a); }\n\
                 fn step(&mut self, _a: u64) {}\n\
                 pub fn report(&self) -> Vec<u64> { let mut v = Vec::new(); v.push(1); v }\n\
             }",
        )],
        rules::HOT_PATH,
    );
    assert!(cold.is_empty(), "{cold:?}");
    // Audit-gated diagnostics are compiled out of release: clean.
    let gated = findings_for(
        &[(
            "crates/mem-sim/src/machine.rs",
            "impl Machine {\n\
                 pub fn access(&mut self, a: u64) { self.step(a); }\n\
                 #[cfg(feature = \"audit\")]\n\
                 fn step(&mut self, a: u64) { assert!(a > 0); let _ = format!(\"{a}\"); }\n\
                 #[cfg(not(feature = \"audit\"))]\n\
                 fn step(&mut self, _a: u64) {}\n\
             }",
        )],
        rules::HOT_PATH,
    );
    assert!(gated.is_empty(), "{gated:?}");
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

// ---- planted-violation tests over the real workspace ----------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

/// Reads the real simulator sources the semantic passes analyze.
fn real_sources() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("read workspace dir") {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, fs::read_to_string(&path).expect("read source")));
            }
        }
    }
    out.sort();
    out
}

fn scan_real(sources: &[(String, String)]) -> ScanReport {
    let root = workspace_root();
    let ctx = audit::load_context(&root).expect("context");
    let allow = Allowlist::load(&root.join("crates/audit/allowlists")).expect("allowlists");
    let baseline = Baseline::load(&root.join(audit::BASELINE_PATH)).expect("baseline");
    let manifest = audit::load_manifest(&root).expect("manifest");
    scan_sources(sources, &ctx, &allow, &baseline, &manifest)
}

/// The acceptance check from the issue: the hot-path pass demonstrably
/// covers the `access_stream` call graph. Planting an allocation in a
/// function transitively reachable from `Machine::access_stream` (the
/// TLB probe, two hops down) must change the finding set; removing it
/// must restore the clean scan.
#[test]
fn planted_allocation_in_real_tlb_probe_changes_the_finding_set() {
    let clean = real_sources();
    let before = scan_real(&clean);
    assert!(
        before.findings.is_empty(),
        "workspace must start clean:\n{:?}",
        before.findings
    );
    let mut planted = clean.clone();
    let tlb = planted
        .iter_mut()
        .find(|(p, _)| p == "crates/mem-sim/src/tlb.rs")
        .expect("tlb.rs exists");
    // Plant next to `Tlb::translate`, which access_stream reaches
    // through its translate! macro; `leak_probe` is a marker we can
    // assert on.
    let needle = "pub fn translate(";
    assert!(tlb.1.contains(needle), "Tlb::translate moved?");
    tlb.1 = tlb.1.replace(
        needle,
        "pub fn leak_probe(&self) -> Vec<u64> { let mut v = Vec::new(); v.push(1); v }\n    pub fn translate(",
    );
    // Defined but never called: not reachable, finding set unchanged.
    let after_no_call = scan_real(&planted);
    assert!(
        after_no_call.findings.is_empty(),
        "an uncalled helper is not hot-path reachable:\n{:?}",
        after_no_call.findings
    );
    let tlb = planted
        .iter_mut()
        .find(|(p, _)| p == "crates/mem-sim/src/tlb.rs")
        .expect("tlb.rs exists");
    let body_marker = "pub fn translate(";
    let idx = tlb.1.find(body_marker).expect("translate present");
    let brace = tlb.1[idx..].find('{').expect("translate body") + idx + 1;
    tlb.1
        .insert_str(brace, " let _planted = self.leak_probe(); ");
    let after = scan_real(&planted);
    let planted_findings: Vec<_> = after
        .findings
        .iter()
        .filter(|f| f.rule == rules::HOT_PATH && f.message.contains("leak_probe"))
        .collect();
    assert!(
        !planted_findings.is_empty(),
        "planted allocation must surface once called from the hot path:\n{:?}",
        after.findings
    );
}

/// Planting an unsorted hash iteration into the real sweep plane must
/// trip the determinism pass — but only once it is wired to reach the
/// real emission sinks, which proves the reverse-reachability edge, not
/// just the pattern match.
#[test]
fn planted_hash_iteration_in_real_sweep_path_is_caught() {
    let mut sources = real_sources();
    let sweep_rs = sources
        .iter_mut()
        .find(|(p, _)| p == "crates/core/src/sweep.rs")
        .expect("sweep.rs exists");
    // Stage 1: the planted rollup only feeds a local stub — it cannot
    // reach an emission sink, so the determinism pass stays quiet. The
    // body deliberately avoids method names the workspace defines
    // (push, insert, ...): the call graph's method-name fan-out would
    // make even the unwired version reach a sink through them.
    sweep_rs.1.push_str(
        "\npub fn planted_rollup(planted_rows: &std::collections::HashMap<String, u64>) -> u64 {\n\
             let mut t = 0u64;\n\
             for (_k, v) in planted_rows.iter() { t = t.wrapping_add(*v); }\n\
             planted_sink_stub(t);\n\
             t\n\
         }\n\
         fn planted_sink_stub(_t: u64) {}\n",
    );
    let after = scan_real(&sources);
    assert!(
        !after
            .findings
            .iter()
            .any(|f| f.rule == rules::HASH_ITER && f.message.contains("planted_rows")),
        "not yet emission-reachable:\n{:?}",
        after.findings
    );
    // Stage 2: route the stub into the real render plane; the same
    // iteration is now emission-reachable and must be flagged.
    let sweep_rs = sources
        .iter_mut()
        .find(|(p, _)| p == "crates/core/src/sweep.rs")
        .expect("sweep.rs exists");
    sweep_rs.1 = sweep_rs.1.replace(
        "fn planted_sink_stub(_t: u64) {}",
        "fn planted_sink_stub(_t: u64) { render(); }",
    );
    let wired = scan_real(&sources);
    assert!(
        wired
            .findings
            .iter()
            .any(|f| f.rule == rules::HASH_ITER && f.message.contains("planted_rows")),
        "hash iteration feeding the render plane must be flagged:\n{:?}",
        wired.findings
    );
}
