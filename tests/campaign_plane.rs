//! Integration: the campaign resilience plane. Declarative chaos
//! campaigns must be deterministic run-to-run, shed load through the
//! typed supervision vocabulary (breakers, retry budgets, SLOs), and —
//! the tentpole claim — converge to byte-identical artifacts after
//! repeated kill/resume cycles under a combined fault storm.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use sgxgauge::campaign::{run_campaign, run_soak, CampaignConfig};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sgxgauge-campaign-{}-{name}", std::process::id()));
    p
}

fn fresh(name: &str) -> PathBuf {
    let p = scratch(name);
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Two uninterrupted runs of the same campaign config produce
/// byte-identical compared artifacts — the precondition for every
/// other claim in this file.
#[test]
fn campaign_runs_are_byte_deterministic() {
    let cfg = CampaignConfig::parse(
        r#"
[campaign]
name = "det"
seed = 11
scale = 4096
reps = 2
jobs = 2
retries = 1
breaker_threshold = 2
breaker_cooldown = 1

[[stage]]
name = "mixed"
modes = ["vanilla"]
settings = ["low"]
workloads = ["HashJoin", "BTree"]
faults = "syscall=250"
"#,
    )
    .expect("config parses");
    let a = fresh("det-a");
    let b = fresh("det-b");
    run_campaign(&cfg, &a, true, None).expect("first run");
    run_campaign(&cfg, &b, true, None).expect("second run");
    for artifact in ["report.csv", "trace.jsonl", "checkpoint.json"] {
        let left = read(&a.join("mixed").join(artifact));
        let right = read(&b.join("mixed").join(artifact));
        assert_eq!(left, right, "{artifact} must be byte-identical");
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("list dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// A clean run leaves only its published artifacts: no temp sibling
/// outlives a publish unless a crash interrupted it, and no run writes
/// a recovery journal.
#[test]
fn clean_campaign_leaves_no_temps_or_journals() {
    let cfg = CampaignConfig::parse(
        r#"
[campaign]
name = "tidy"
seed = 5
scale = 4096
jobs = 2

[[stage]]
name = "first"
modes = ["vanilla", "native"]
settings = ["low"]
workloads = ["BTree"]

[[stage]]
name = "second"
modes = ["vanilla"]
settings = ["low"]
workloads = ["HashJoin"]
"#,
    )
    .expect("config parses");
    let out = fresh("tidy");
    run_campaign(&cfg, &out, true, None).expect("clean run");
    let files = files_under(&out);
    for stage in ["first", "second"] {
        for artifact in ["report.csv", "trace.jsonl", "checkpoint.json"] {
            let path = out.join(stage).join(artifact);
            assert!(files.contains(&path), "{} published", path.display());
        }
    }
    let residue: Vec<_> = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "journal" || e == "tmp"))
        .collect();
    assert!(residue.is_empty(), "left behind: {residue:?}");
    let _ = std::fs::remove_dir_all(&out);
}

/// A workload that fails transiently on every attempt trips its
/// breaker, sheds cooldown cells, sends half-open probes, and re-opens
/// on probe failure — all visible as typed trace events and degraded
/// rows in the report.
#[test]
fn breaker_transitions_are_typed_trace_events() {
    let cfg = CampaignConfig::parse(
        r#"
[campaign]
name = "breaker"
seed = 3
scale = 4096
reps = 6
jobs = 1
retries = 0
breaker_threshold = 2
breaker_cooldown = 1

[[stage]]
name = "storm"
modes = ["native"]
settings = ["low"]
workloads = ["Blockchain"]
faults = "syscall=1000"
"#,
    )
    .expect("config parses");
    let out = fresh("breaker");
    let report = run_campaign(&cfg, &out, true, None).expect("campaign completes");
    let stage = &report.stages[0];
    assert!(stage.shed > 0, "open breaker must shed cells");
    assert!(
        report.health.breaker_trips >= 2,
        "initial trip plus probe-failure re-trip"
    );
    let trace = read(&out.join("storm").join("trace.jsonl"));
    assert!(
        trace.contains("\"event\":\"breaker\"") && trace.contains("\"to\":\"open\""),
        "breaker transitions must be trace events:\n{trace}"
    );
    assert!(
        trace.contains("\"to\":\"half_open\""),
        "cooldown expiry must be visible"
    );
    assert!(
        trace.contains("\"event\":\"probe\"") && trace.contains("\"ok\":false"),
        "failed probes must be visible"
    );
    // Reps 0 and 1 open the breaker, rep 2 is the cooldown, rep 3 is
    // the first probe: its event names the cell, not the workload.
    assert!(
        trace.contains("\"probe\",\"cell\":\"0/Native/Low/3\",\"workload\":\"Blockchain\""),
        "a probe event carries its cell key:\n{trace}"
    );
    assert!(
        trace.contains("\"reason\":\"breaker_open\""),
        "shed cells must carry their reason"
    );
    let csv = read(&out.join("storm").join("report.csv"));
    assert!(
        csv.lines().any(|l| l.contains(",degraded,")),
        "shed cells must appear as degraded rows:\n{csv}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

/// Draining the global retry budget flips the campaign into degraded
/// mode: repetitions beyond the first are shed, and a reached
/// antagonist stage is skipped whole — with empty artifacts so the
/// tree shape stays run-independent.
#[test]
fn drained_budget_degrades_and_skips_antagonists() {
    let cfg = CampaignConfig::parse(
        r#"
[campaign]
name = "degraded"
seed = 5
scale = 4096
reps = 3
jobs = 1
retries = 1
retry_budget_cycles = 1

[[stage]]
name = "drain"
modes = ["native"]
settings = ["low"]
workloads = ["Blockchain"]
faults = "syscall=1000"

[[stage]]
name = "hostile"
modes = ["vanilla"]
settings = ["low"]
workloads = ["BTree"]
antagonist = true
"#,
    )
    .expect("config parses");
    let out = fresh("degraded");
    let report = run_campaign(&cfg, &out, true, None).expect("campaign completes");
    assert!(
        report.health.degraded,
        "one backoff must drain a 1-cycle budget"
    );
    let drain = &report.stages[0];
    assert_eq!(drain.shed, 2, "reps 1 and 2 are shed once degraded");
    let trace = read(&out.join("drain").join("trace.jsonl"));
    assert!(trace.contains("\"event\":\"retry_budget_drained\""));
    assert!(trace.contains("\"reason\":\"retry_budget_drained\""));
    let hostile = &report.stages[1];
    assert!(hostile.skipped, "degraded campaigns skip antagonist stages");
    let skipped_trace = read(&out.join("hostile").join("trace.jsonl"));
    assert!(skipped_trace.contains("\"event\":\"stage_skipped\""));
    assert!(skipped_trace.contains("\"reason\":\"antagonist_skipped\""));
    let skipped_csv = read(&out.join("hostile").join("report.csv"));
    assert_eq!(
        skipped_csv.lines().count(),
        2,
        "header plus integrity footer only:\n{skipped_csv}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

/// A stage deadline sheds the remainder of the stage but not the next
/// stage (the SLO ledger is per-stage).
#[test]
fn stage_deadline_sheds_only_its_own_remainder() {
    let cfg = CampaignConfig::parse(
        r#"
[campaign]
name = "slo"
seed = 9
scale = 4096
reps = 3
jobs = 1
retries = 0

[[stage]]
name = "tight"
modes = ["vanilla"]
settings = ["low"]
workloads = ["BTree"]
deadline_cycles = 1

[[stage]]
name = "roomy"
modes = ["vanilla"]
settings = ["low"]
workloads = ["BTree"]
"#,
    )
    .expect("config parses");
    let out = fresh("slo");
    let report = run_campaign(&cfg, &out, true, None).expect("campaign completes");
    let tight = &report.stages[0];
    assert_eq!(
        tight.executed, 1,
        "the first cell runs before the ledger trips"
    );
    assert_eq!(tight.shed, 2, "the rest of the stage is shed");
    let roomy = &report.stages[1];
    assert_eq!(roomy.shed, 0, "the SLO ledger resets at the stage boundary");
    assert_eq!(roomy.executed, 3);
    let trace = read(&out.join("tight").join("trace.jsonl"));
    assert!(trace.contains("\"reason\":\"slo_exceeded\""));
    let _ = std::fs::remove_dir_all(&out);
}

/// The tentpole: a campaign under a combined simulated-fault and
/// host-I/O fault storm, killed and resumed at three seeded points,
/// converges to artifacts byte-identical to a never-interrupted clean
/// plane run.
#[test]
fn soak_converges_after_three_kill_resume_cycles() {
    let cfg = CampaignConfig::parse(
        r#"
[campaign]
name = "soak"
seed = 42
scale = 4096
reps = 2
jobs = 2
retries = 2
breaker_threshold = 3
breaker_cooldown = 1

[[stage]]
name = "join"
modes = ["vanilla"]
settings = ["low"]
workloads = ["HashJoin"]
faults = "syscall=250"
io_faults = "eio=30,torn=15"

[[stage]]
name = "btree"
modes = ["vanilla"]
settings = ["low"]
workloads = ["BTree"]
io_faults = "eio=30"
"#,
    )
    .expect("config parses");
    let out = fresh("soak");
    let outcome = run_soak(&cfg, &out, 3).expect("soak completes");
    assert_eq!(outcome.kills_fired, 3, "every scheduled kill must land");
    assert!(
        outcome.converged,
        "diverged artifacts: {:?}",
        outcome.mismatches
    );
    assert!(outcome.golden_cycles > 0);
    let _ = std::fs::remove_dir_all(&out);
}
