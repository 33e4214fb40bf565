//! The semantic passes: analyses that need the parsed item tree (which
//! function a token belongs to) rather than a flat token stream.
//!
//! Each pass owns one rule id:
//!
//! * [`cycles`] — `cycle-routing`: counter/cycle mutations outside the
//!   checked manifest and not routed through `sgx_sim::costs`.
//! * [`phase`] — `phase-balance`: `Env::phase`/`phase_end` spans that a
//!   single function body opens and closes unevenly.
//!
//! The passes share one [`Workspace`]: every scanned file parsed to
//! [`FileIr`]. They run on *raw* sources (test-gated spans are skipped
//! internally); the caller applies the allowlists afterwards, exactly
//! as for the token rules.

pub mod cycles;
pub mod phase;

use crate::lexer::Tok;
use crate::parser::FileIr;
use crate::rules::RuleContext;
use crate::Finding;

/// The parsed workspace the semantic passes analyze.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files, in the order given.
    pub files: Vec<FileIr>,
}

impl Workspace {
    /// Parses `(rel_path, source)` pairs. Only `.rs` files under a
    /// `src/` tree participate (tests, benches and fixtures describe
    /// behavior, not the shipped model).
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let files = sources
            .iter()
            .filter(|(rel, _)| semantic_scope(rel))
            .map(|(rel, src)| FileIr::parse(rel, src))
            .collect();
        Workspace { files }
    }

    /// Runs both semantic passes, returning raw findings in pass order
    /// (the caller applies the allowlists).
    pub fn run_passes(&self, ctx: &RuleContext, manifest: &cycles::CycleManifest) -> Vec<Finding> {
        let mut out = cycles::run(self, ctx, manifest);
        out.extend(phase::run(self));
        out
    }
}

/// Whether `rel` participates in semantic analysis: library/binary
/// source trees only.
pub fn semantic_scope(rel: &str) -> bool {
    rel.ends_with(".rs")
        && (rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")))
}

/// Scans forward from token `i` to the end of the enclosing statement:
/// the first `;` at bracket depth zero, or the point where the
/// enclosing block closes. Returns an inclusive end index.
pub(crate) fn statement_end(file: &FileIr, i: usize) -> usize {
    let toks = &file.tokens;
    let mut depth = 0i64;
    let mut k = i;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return k.saturating_sub(1).max(i);
                }
            }
            Tok::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    toks.len() - 1
}
