//! Command-line entry point:
//! `gauge-audit [--check] [--json] [--strict] [--root DIR] [--explain RULE]`.
//!
//! * `--check` — exit nonzero when any violation survives the
//!   suppression planes (CI mode).
//! * `--json` — SARIF-shaped machine-readable output.
//! * `--strict` — also fail `--check` on stale *allowlist* entries
//!   (they only warn by default).
//! * `--root DIR` — scan the workspace rooted at `DIR` instead of
//!   discovering it from the current directory.
//! * `--explain RULE` — print the long-form explanation for a rule id
//!   and exit.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

/// The `--help` text, including the exit-code contract.
const HELP: &str = "\
usage: gauge-audit [--check] [--json] [--strict] [--root DIR] [--explain RULE]

  --check         exit nonzero on surviving violations (CI mode)
  --json          SARIF-shaped JSON on stdout (runs[0].properties carries
                  per-rule suppressed counts and stale suppression entries)
  --strict        with --check, also fail on stale allowlist entries
  --root DIR      workspace root (default: discovered from cwd)
  --explain RULE  print what a rule enforces, why, and how to suppress

exit codes:
  0  clean (or --check not given)
  1  violations survived the allowlists, or --strict and an allowlist
     entry matched nothing
  2  usage or I/O error";

fn main() -> ExitCode {
    let mut check = false;
    let mut json = false;
    let mut strict = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--strict" => strict = true,
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("gauge-audit: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("gauge-audit: --explain requires a rule id");
                    return ExitCode::from(2);
                };
                let Some(info) = audit::rules::rule_info(&rule) else {
                    eprintln!(
                        "gauge-audit: unknown rule `{rule}` (rules: {})",
                        audit::rules::ALL_RULES.join(", ")
                    );
                    return ExitCode::from(2);
                };
                println!("{} — {}\n\n{}", info.id, info.summary, info.explain);
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                println!("\nrules: {}", audit::rules::ALL_RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("gauge-audit: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| audit::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("gauge-audit: no workspace root found (try --root DIR)");
            return ExitCode::from(2);
        }
    };
    let report = match audit::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gauge-audit: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", audit::to_json(&report));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for e in &report.stale_allow {
            eprintln!("gauge-audit: stale allowlist entry (matched nothing): {e}");
        }
        eprintln!(
            "gauge-audit: {} violation(s), {} suppressed by allowlists, {} files checked",
            report.findings.len(),
            report.suppressed,
            report.files_checked
        );
    }
    if check {
        ExitCode::from(audit::exit_code(&report, strict) as u8)
    } else {
        ExitCode::SUCCESS
    }
}
