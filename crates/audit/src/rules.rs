//! The lint rules `gauge-audit` enforces, and the model-derived context
//! (canonical cost values, counter field names) they check against.
//!
//! Each rule guards one way the simulator has been observed to drift from
//! the paper it reproduces:
//!
//! * [`COST_LITERALS`] — a cycle cost restated as a literal outside
//!   `sgx-sim::costs` silently decouples from recalibration (§2.2, §2.3,
//!   Appendix A all cite exact costs).
//! * [`COUNTER_CAST`] — the perf-counter fields are `u64` event totals;
//!   a truncating `as` cast or float accumulation loses counts exactly
//!   when workloads are large enough to matter.
//!
//! The wall-clock, `std::fs`, hash-map, lock, `unwrap`/`expect`, panic
//! and print bans are not here: clippy enforces them (`clippy.toml` at
//! the workspace root, plus `#![deny(..)]` in the simulator crates), and
//! `tests/hot_path_alloc.rs` checks that the access path does not
//! allocate. What stays in this crate is what clippy cannot express.

use crate::lexer::{test_spans, Tok};
use crate::Finding;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Rule id: duplicated canonical cycle-cost literals.
pub const COST_LITERALS: &str = "cost-literals";
/// Rule id: truncating casts on counter fields.
pub const COUNTER_CAST: &str = "counter-cast";
/// Rule id (semantic): counter/cycle mutations outside the checked
/// manifest. See [`crate::passes::cycles`].
pub const CYCLE_ROUTING: &str = "cycle-routing";
/// Rule id (semantic): unbalanced `Env::phase`/`phase_end` spans.
/// See [`crate::passes::phase`].
pub const PHASE_BALANCE: &str = "phase-balance";

/// All rule ids, in reporting order: the two token rules, then the
/// two semantic passes.
pub const ALL_RULES: &[&str] = &[COST_LITERALS, COUNTER_CAST, CYCLE_ROUTING, PHASE_BALANCE];

/// One rule's registry entry: id, one-line summary, and the long-form
/// text `gauge-audit --explain <RULE>` prints.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The stable rule id.
    pub id: &'static str,
    /// One-line summary (used in SARIF `shortDescription` and `--help`).
    pub summary: &'static str,
    /// Long-form explanation: what fires, why it matters, how to fix
    /// or suppress.
    pub explain: &'static str,
}

/// The rule registry, in [`ALL_RULES`] order.
pub const RULE_INFO: &[RuleInfo] = &[
    RuleInfo {
        id: COST_LITERALS,
        summary: "canonical cycle-cost literal duplicated outside sgx-sim::costs",
        explain: "A cycle cost the paper cites (EWB, ECALL round trip, ...) appears as an \
integer literal outside crates/sgx-sim/src/costs.rs. Duplicated constants silently decouple \
from recalibration: the model changes, the copy does not, and every figure built from the \
copy is wrong without a test failing.\nFix: reference the sgx_sim::costs constant. \
Suppress: crates/audit/allowlists/cost-literals.allow with a recorded reason.",
    },
    RuleInfo {
        id: COUNTER_CAST,
        summary: "perf-counter field cast to a narrower or floating type",
        explain: "A mem_sim::counters field is cast with `as` to a truncating integer or \
float inside the simulator crates. Counters are u64 event totals; narrowing loses events \
exactly when workloads are large enough to matter.\nFix: keep u64 end to end; convert at \
the presentation layer. Suppress: allowlists/counter-cast.allow.",
    },
    RuleInfo {
        id: CYCLE_ROUTING,
        summary: "counter/cycle mutation outside the checked manifest",
        explain: "A `+=` on a counter field or cycle accumulator in crates/mem-sim or \
crates/sgx-sim is neither routed through sgx_sim::costs (RHS references `costs` or an \
ALL_CAPS *_CYCLES constant) nor inside a function declared in \
crates/audit/manifests/cycle-routing.manifest. The manifest is the reviewed list of \
functions allowed to account cycles; it is what makes the cycle-decomposition identity \
provable from source. Stale manifest entries (functions with no unrouted mutation left) \
are also reported, so the manifest cannot rot into a blanket waiver.\nFix: route through \
costs, or add the function to the manifest with a reason comment.",
    },
    RuleInfo {
        id: PHASE_BALANCE,
        summary: "Env::phase/phase_end spans unbalanced within one function body",
        explain: "A function opens a trace phase span (.phase(\"name\")) it never closes, or \
closes one it never opened. Unbalanced spans surface as WorkloadError::Trace only in traced \
runs — exactly how an instrumented workload ships broken while untraced tests pass. \
Non-literal span names pair by count; with_phase(..) is self-balancing and ignored.\nFix: \
balance within the body or use with_phase.",
    },
];

/// Looks up a rule's registry entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULE_INFO.iter().find(|r| r.id == id)
}

/// Cost literals below this value are too common to claim as canonical
/// (e.g. the 16-page eviction batch); only the big cycle costs are.
const MIN_CANONICAL_COST: u64 = 500;

/// Cast targets that can truncate or round a `u64` counter.
const NARROWING_CASTS: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "i64", "isize", "usize", "f32", "f64",
];

/// Crates whose `src/` trees count as simulator code (`counter-cast`).
const SIM_SRC: &[&str] = &[
    "crates/sgx-sim/src/",
    "crates/mem-sim/src/",
    "crates/libos-sim/src/",
];

/// Model-derived context shared by all rules.
#[derive(Debug, Clone, Default)]
pub struct RuleContext {
    /// Canonical cycle-cost value → constant name, extracted from
    /// `sgx-sim::costs` (the single source of truth; this tool never
    /// hard-codes the values themselves).
    pub cost_values: BTreeMap<u64, String>,
    /// Counter field names extracted from `mem-sim::counters`.
    pub counter_fields: BTreeSet<String>,
}

impl RuleContext {
    /// Builds the context from the sources of the two canonical modules.
    pub fn from_sources(costs_src: &str, counters_src: &str) -> RuleContext {
        RuleContext {
            cost_values: extract_cost_values(costs_src),
            counter_fields: extract_counter_fields(counters_src),
        }
    }
}

/// Extracts `pub const NAME: <ty> = <int>;` values ≥ [`MIN_CANONICAL_COST`]
/// from the canonical costs module. Derived constants (initialized by an
/// expression, not a literal) are intentionally skipped: their *source*
/// values are the canonical ones.
pub fn extract_cost_values(src: &str) -> BTreeMap<u64, String> {
    let toks = crate::lexer::lex(src);
    let mut out = BTreeMap::new();
    for w in toks.windows(7) {
        if let [a, b, name, colon, _ty, eq, val] = w {
            if a.tok == Tok::Ident("pub".into())
                && b.tok == Tok::Ident("const".into())
                && colon.tok == Tok::Punct(':')
                && eq.tok == Tok::Punct('=')
            {
                if let (Tok::Ident(n), Tok::Int(v)) = (&name.tok, &val.tok) {
                    if *v >= MIN_CANONICAL_COST {
                        out.insert(*v, n.clone());
                    }
                }
            }
        }
    }
    out
}

/// Extracts the `pub <field>: u64` names from the counters module.
pub fn extract_counter_fields(src: &str) -> BTreeSet<String> {
    let toks = crate::lexer::lex(src);
    let mut out = BTreeSet::new();
    for w in toks.windows(4) {
        if let [p, name, colon, ty] = w {
            if p.tok == Tok::Ident("pub".into())
                && colon.tok == Tok::Punct(':')
                && ty.tok == Tok::Ident("u64".into())
            {
                if let Tok::Ident(n) = &name.tok {
                    out.insert(n.clone());
                }
            }
        }
    }
    out
}

/// Runs every rule whose scope covers `rel` (workspace-relative path with
/// `/` separators) over `src`, returning the raw findings (allowlists are
/// applied by the caller).
pub fn check_source(rel: &str, src: &str, ctx: &RuleContext) -> Vec<Finding> {
    let toks = crate::lexer::lex(src);
    let spans = test_spans(&toks);
    let in_test = |idx: usize| spans.iter().any(|&(s, e)| idx >= s && idx <= e);
    let mut findings = Vec::new();

    if cost_literal_scope(rel) {
        for (idx, t) in toks.iter().enumerate() {
            if in_test(idx) {
                continue;
            }
            if let Tok::Int(v) = t.tok {
                if let Some(name) = ctx.cost_values.get(&v) {
                    findings.push(Finding {
                        rule: COST_LITERALS,
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "cycle-cost literal {v} duplicates sgx_sim::costs::{name}; \
                             use the constant"
                        ),
                    });
                }
            }
        }
    }

    if sim_src_scope(rel) {
        for (idx, w) in toks.windows(4).enumerate() {
            if in_test(idx) {
                continue;
            }
            if let [dot, field, as_kw, ty] = w {
                if dot.tok == Tok::Punct('.') && as_kw.tok == Tok::Ident("as".into()) {
                    if let (Tok::Ident(f), Tok::Ident(t)) = (&field.tok, &ty.tok) {
                        if ctx.counter_fields.contains(f) && NARROWING_CASTS.contains(&t.as_str()) {
                            findings.push(Finding {
                                rule: COUNTER_CAST,
                                file: rel.to_string(),
                                line: dot.line,
                                message: format!(
                                    "counter field `{f}` cast to `{t}` can lose events; \
                                     keep counters in u64"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    findings
}

/// Whether `rel` is checked for duplicated cost literals: the whole
/// workspace minus the canonical module itself and test trees (vendored
/// stubs and build output never reach this function).
fn cost_literal_scope(rel: &str) -> bool {
    rel != "crates/sgx-sim/src/costs.rs" && !rel.starts_with("tests/") && !rel.contains("/tests/")
}

/// Whether `rel` lies in one of the simulator crates' `src/` trees.
fn sim_src_scope(rel: &str) -> bool {
    SIM_SRC.iter().any(|p| rel.starts_with(p))
}
