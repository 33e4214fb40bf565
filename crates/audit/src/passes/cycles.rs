//! Rule `cycle-routing`: the cycle-conservation pass.
//!
//! The decomposition identity behind every figure sweep — total cycles
//! = transitions + paging + walks + stalls + compute — is only provable
//! from source if each counter-field mutation and cycle accumulation in
//! the simulator crates is *routed*: either its right-hand side derives
//! from the canonical `sgx_sim::costs` constants, or the enclosing
//! function is declared in the checked manifest
//! (`crates/audit/manifests/cycle-routing.manifest`) and therefore
//! covered by the runtime decomposition audits (`--features audit`).
//!
//! The pass flags every `LHS += RHS` in `mem-sim`/`sgx-sim` whose LHS is
//! a counter field (from `mem_sim::counters`) or a cycle accumulator
//! (`cycles`, `*_cycles`) when the enclosing function is not in the
//! manifest and the RHS does not reference `costs` or an ALL_CAPS
//! `*_CYCLES` constant. It also reports *stale* manifest entries —
//! functions that no longer exist or whose every mutation is already
//! costs-routed — so the manifest cannot rot into a blanket waiver.

use super::{statement_end, Workspace};
use crate::lexer::Tok;
use crate::parser::FileIr;
use crate::rules::{RuleContext, CYCLE_ROUTING};
use crate::Finding;

/// Crates whose counter mutations the pass checks.
const SCOPE: &[&str] = &["crates/mem-sim/src/", "crates/sgx-sim/src/"];

/// One manifest entry: the function `qual` defined in a file ending
/// with `path_suffix` is audited by hand (and by the runtime identity
/// checks) and may mutate counters freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Path suffix of the defining file.
    pub path_suffix: String,
    /// Qualified function name (`Type::name` or bare).
    pub qual: String,
}

/// The checked manifest of counter-mutating functions.
#[derive(Debug, Clone, Default)]
pub struct CycleManifest {
    /// Entries in file order.
    pub entries: Vec<ManifestEntry>,
    /// Workspace-relative path of the manifest file (for findings).
    pub source: String,
}

impl CycleManifest {
    /// Parses manifest text: one `path-suffix qualified::fn` pair per
    /// line; `#` comments and blank lines ignored.
    pub fn parse(source: &str, text: &str) -> CycleManifest {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                let path_suffix = parts.next()?.to_string();
                let qual = parts.next()?.to_string();
                Some(ManifestEntry { path_suffix, qual })
            })
            .collect();
        CycleManifest {
            entries,
            source: source.to_string(),
        }
    }

    fn covers(&self, file: &str, qual: &str) -> bool {
        self.entries
            .iter()
            .any(|e| file.ends_with(&e.path_suffix) && e.qual == qual)
    }
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace, ctx: &RuleContext, manifest: &CycleManifest) -> Vec<Finding> {
    let mut out = Vec::new();
    // Manifest entries that cover a function with an unrouted mutation.
    let mut used = vec![false; manifest.entries.len()];
    for file in &ws.files {
        if !SCOPE.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let mut unrouted = false;
            for (s, e) in file.own_ranges(ni) {
                scan_range(file, s, e, ctx, &mut unrouted, manifest, &f.qual, &mut out);
            }
            if unrouted {
                for (k, entry) in manifest.entries.iter().enumerate() {
                    if file.path.ends_with(&entry.path_suffix) && entry.qual == f.qual {
                        used[k] = true;
                    }
                }
            }
        }
    }
    // Stale manifest entries are findings on the manifest file itself.
    for (k, entry) in manifest.entries.iter().enumerate() {
        if !used[k] {
            out.push(Finding {
                rule: CYCLE_ROUTING,
                file: manifest.source.clone(),
                line: 1,
                message: format!(
                    "stale manifest entry `{} {}`: no such function has a counter mutation \
                     that is not routed through sgx_sim::costs; remove the entry",
                    entry.path_suffix, entry.qual
                ),
            });
        }
    }
    out
}

/// Scans `[s, e]` for `+=` mutations of counter/cycle accumulators,
/// setting `unrouted` when one is not routed through the costs.
#[allow(clippy::too_many_arguments)]
fn scan_range(
    file: &FileIr,
    s: usize,
    e: usize,
    ctx: &RuleContext,
    unrouted: &mut bool,
    manifest: &CycleManifest,
    fn_qual: &str,
    out: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    for i in s..e {
        if toks[i].tok != Tok::Punct('+')
            || toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('='))
        {
            continue;
        }
        // LHS: the identifier immediately before `+=`.
        let Some(Tok::Ident(lhs)) = i.checked_sub(1).and_then(|k| toks.get(k)).map(|t| &t.tok)
        else {
            continue;
        };
        if !is_cycle_lhs(lhs, ctx) {
            continue;
        }
        if file.in_test(i) || rhs_routed(file, i + 2, e) {
            continue;
        }
        *unrouted = true;
        if manifest.covers(&file.path, fn_qual) {
            continue;
        }
        out.push(Finding {
            rule: CYCLE_ROUTING,
            file: file.path.clone(),
            line: toks[i].line,
            message: format!(
                "`{lhs} += ..` in `{fn_qual}` is not routed through sgx_sim::costs and \
                 `{fn_qual}` is not in the cycle-routing manifest; the decomposition identity \
                 is no longer provable from source"
            ),
        });
    }
}

/// Whether `lhs` names a counter field or cycle accumulator.
fn is_cycle_lhs(lhs: &str, ctx: &RuleContext) -> bool {
    ctx.counter_fields.contains(lhs) || lhs == "cycles" || lhs.ends_with("_cycles")
}

/// Whether the right-hand side starting at token `rhs_start` references
/// the canonical costs: the `costs` module or an ALL_CAPS `*_CYCLES`
/// constant.
fn rhs_routed(file: &FileIr, rhs_start: usize, range_end: usize) -> bool {
    let end = statement_end(file, rhs_start).min(range_end);
    file.tokens[rhs_start..=end.min(file.tokens.len() - 1)]
        .iter()
        .any(|t| match &t.tok {
            Tok::Ident(id) => {
                id == "costs"
                    || (id.ends_with("_CYCLES")
                        && id.chars().all(|c| c.is_ascii_uppercase() || c == '_'))
            }
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleContext;

    fn ctx() -> RuleContext {
        RuleContext::from_sources(
            "pub const EWB_CYCLES: u64 = 12_000;",
            "pub struct Counters { pub walk_cycles: u64, pub epc_faults: u64 }",
        )
    }

    fn ws(src: &str) -> Workspace {
        Workspace::build(&[("crates/sgx-sim/src/machine.rs".to_string(), src.to_string())])
    }

    #[test]
    fn unrouted_counter_add_outside_manifest_is_flagged() {
        let w = ws("impl SgxMachine { fn tick(&mut self) { self.counters.epc_faults += 1; } }");
        let f = run(&w, &ctx(), &CycleManifest::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SgxMachine::tick"));
    }

    #[test]
    fn costs_routed_add_is_clean() {
        let w = ws(
            "impl SgxMachine { fn fault(&mut self) { self.fault_cycles += costs::EWB_CYCLES; } }",
        );
        assert!(run(&w, &ctx(), &CycleManifest::default()).is_empty());
    }

    #[test]
    fn const_routed_add_is_clean() {
        let w = ws("fn charge(c: &mut u64) { *c += 1; cycles += STLB_HIT_CYCLES; }");
        let f = run(&w, &ctx(), &CycleManifest::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn manifest_covers_the_function() {
        let w = ws("impl SgxMachine { fn tick(&mut self) { self.counters.epc_faults += 1; } }");
        let m = CycleManifest::parse(
            "m.manifest",
            "# audited\ncrates/sgx-sim/src/machine.rs SgxMachine::tick\n",
        );
        assert!(run(&w, &ctx(), &m).is_empty());
    }

    #[test]
    fn stale_manifest_entry_is_reported() {
        let w = ws("impl SgxMachine { fn quiet(&self) {} }");
        let m = CycleManifest::parse(
            "m.manifest",
            "crates/sgx-sim/src/machine.rs SgxMachine::gone\n",
        );
        let f = run(&w, &ctx(), &m);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("stale manifest entry"));
        assert_eq!(f[0].file, "m.manifest");
    }

    #[test]
    fn entry_for_a_costs_routed_function_is_stale() {
        let w = ws(
            "impl SgxMachine { fn fault(&mut self) { self.fault_cycles += costs::EWB_CYCLES; } }",
        );
        let m = CycleManifest::parse(
            "m.manifest",
            "crates/sgx-sim/src/machine.rs SgxMachine::fault\n",
        );
        let f = run(&w, &ctx(), &m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("stale manifest entry"));
    }

    #[test]
    fn mutations_outside_sim_crates_are_ignored() {
        let w = Workspace::build(&[(
            "crates/core/src/sweep.rs".to_string(),
            "fn agg(total_cycles: &mut u64, c: u64) { *total_cycles += c; }".to_string(),
        )]);
        assert!(run(&w, &ctx(), &CycleManifest::default()).is_empty());
    }

    #[test]
    fn non_cycle_adds_are_ignored() {
        let w = ws("fn f(x: &mut u64) { *x += 3; let mut hits = 0; hits += 1; }");
        assert!(run(&w, &ctx(), &CycleManifest::default()).is_empty());
    }
}
