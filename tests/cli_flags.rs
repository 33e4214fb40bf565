//! The CLI rejects flags a subcommand does not read, flags given twice,
//! and a `--scale` below 1, with exit code 2 and the offending name;
//! `cotenancy` refuses sizes it cannot run with exit code 1.
//! Every flag set the CI jobs pass to the binary must still be accepted.

use std::process::{Command, Output};

/// Runs the binary on `cmdline` split at whitespace, with `{tmp}`
/// standing for cargo's scratch directory for integration tests (reruns
/// overwrite rather than accumulate files) and `{ex}` for `examples/`.
fn sgxgauge(cmdline: &str) -> Output {
    let args = cmdline.split_whitespace().map(|a| {
        a.replace("{tmp}", env!("CARGO_TARGET_TMPDIR"))
            .replace("{ex}", concat!(env!("CARGO_MANIFEST_DIR"), "/examples"))
    });
    Command::new(env!("CARGO_BIN_EXE_sgxgauge"))
        .args(args)
        .output()
        .expect("spawn sgxgauge")
}

fn assert_usage_error(cmdline: &str, needle: &str) {
    let out = sgxgauge(cmdline);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{cmdline}: {err}");
    assert!(err.contains(needle), "{cmdline}: no `{needle}` in: {err}");
}

fn assert_runs(cmdline: &str) {
    let out = sgxgauge(cmdline);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{cmdline}: {err}");
}

#[test]
fn misspelled_flag_fails_with_its_name() {
    // Ignoring `--fault` would run fault-free and exit 0.
    assert_usage_error(
        "run --workload BTree --mode native --setting low --scale 256 \
         --fault seed=7,aex=2@50000",
        "unknown flag `--fault` for `run`",
    );
}

#[test]
fn repeated_flag_fails_instead_of_keeping_the_last() {
    // Keeping the last would silently drop the first plan.
    assert_usage_error(
        "run --workload BTree --mode native --setting low \
         --faults seed=7,aex=2@50000 --faults seed=1",
        "flag `--faults` given twice",
    );
}

#[test]
fn flags_of_other_subcommands_are_unknown() {
    assert_usage_error("list --bogus 1", "unknown flag `--bogus` for `list`");
    // A retired command is refused by name, not run as a no-op.
    assert_usage_error("mpc", "unknown command `mpc`");
    assert_usage_error(
        "campaign {ex}/soak_campaign.toml --jobs 2",
        "unknown flag `--jobs` for `campaign`",
    );
}

#[test]
fn zero_scale_is_a_usage_error() {
    // Reading `--scale 0` as `1` would run paper scale without a word.
    assert_usage_error(
        "run --workload BTree --mode native --setting low --scale 0",
        "bad --scale",
    );
    assert_usage_error("suite --setting low --scale 0", "bad --scale");
}

#[test]
fn cotenancy_rejects_degenerate_sizes() {
    // `--ops 0` would divide by zero into a `NaN` fault-rate column.
    for (cmdline, needle) in [
        ("cotenancy --tenants 2 --ops 0", "--ops must be at least 1"),
        (
            "cotenancy --tenants 2 --epc-pages 8",
            "--epc-pages must be at least 16",
        ),
    ] {
        let out = sgxgauge(cmdline);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmdline}: {err}");
        assert!(err.contains(needle), "{cmdline}: no `{needle}` in: {err}");
    }
}

/// The flag sets of the `faults` and `io-chaos` CI jobs.
#[test]
fn ci_suite_flag_sets_are_accepted() {
    let suite = "suite --setting low --scale 64 --modes vanilla,native";
    let faults = "--faults seed=7,aex=2@50000 --retries 2 --jobs 2";
    assert_runs(&format!(
        "{suite} {faults} --checkpoint {{tmp}}/cli-sweep.json"
    ));
    assert_runs(&format!("{suite} {faults} --resume {{tmp}}/cli-sweep.json"));
    assert_runs(&format!(
        "{suite} --jobs 1 --checkpoint {{tmp}}/cli-chaotic.json --io-faults seed=4,eio=25,torn=10"
    ));
    let out = sgxgauge(&format!(
        "{suite} --jobs 1 --checkpoint {{tmp}}/cli-crash.json --io-faults seed=2,crash_rename=2"
    ));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("injected crash at rename #2"), "{err}");
    assert_runs(&format!("{suite} --jobs 1 --resume {{tmp}}/cli-crash.json"));
}

/// The flag sets of the `trace`, `cotenancy` and `soak` CI jobs.
#[test]
fn ci_trace_cotenancy_and_campaign_flag_sets_are_accepted() {
    assert_runs(
        "trace btree --mode native --setting low --scale 64 --jobs 1 \
         --out {tmp}/cli-trace.jsonl",
    );
    assert_runs(
        "trace lighttpd --mode libos --setting low --scale 64 --pf --switchless 2 \
         --faults seed=3,aex=2@50000 --jobs 1 --out {tmp}/cli-trace-lh.jsonl",
    );
    assert_runs(
        "cotenancy --tenants 4 --jobs 1 --out {tmp}/cli-cot.csv \
         --timeline {tmp}/cli-cot.jsonl",
    );
    assert_runs("campaign {ex}/soak_campaign.toml --out {tmp}/cli-soak --soak 3");
}
