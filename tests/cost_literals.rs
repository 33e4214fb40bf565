//! Every cycle cost the paper cites (EWB 12 000, ECALL round trip
//! 17 000, ...) lives in `sgx_sim::costs` and only there. A cost
//! restated as a literal elsewhere silently decouples from
//! recalibration: the model changes, the copy does not, and every
//! figure built from the copy is wrong without a test failing.
//!
//! This test reads the costs module, takes every `pub const NAME: T =
//! <int>;` of at least [`MIN_CANONICAL_COST`], and fails on any integer
//! literal with one of those values in the workspace's non-test Rust
//! source: everything outside `vendor/`, `target/`, hidden directories,
//! `tests/` directories and the costs module itself, with comments,
//! string literals and `#[cfg(test)]`/`#[test]` items stripped.

#![allow(clippy::disallowed_methods)] // reads the workspace's sources on purpose

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The one module allowed to spell the costs out.
const COSTS: &str = "crates/sgx-sim/src/costs.rs";

/// Smaller constants (the 16-page eviction batch) are too common to
/// claim; only the big cycle costs are canonical.
const MIN_CANONICAL_COST: u64 = 500;

/// Directories never scanned, besides hidden ones.
const SKIP_DIRS: &[&str] = &["vendor", "target", "tests"];

/// Literals that equal a canonical value without restating it:
/// (workspace-relative path, value, reason).
const ALLOWED: &[(&str, u64, &str)] = &[
    (
        "crates/mem-sim/src/latency.rs",
        1_800,
        "the OS minor-fault latency equals HOST_SYSCALL_CYCLES (a fault is a kernel round trip \
         on the Table 3 platform), but mem-sim sits below sgx-sim and calibrates it on its own",
    ),
    (
        "perfbench/src/recorded.rs",
        17_000,
        "recorded cell fingerprints are simulator output: a cell whose measured region is one \
         ECALL round trip records 17 000 transition cycles",
    ),
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Canonical value -> constant name: every `pub const NAME: T = <int>;`
/// of the costs module at or above [`MIN_CANONICAL_COST`]. Derived
/// constants (`ECALL_ROUND_TRIP_CYCLES / 2`) are not literals.
fn canonical_costs() -> BTreeMap<u64, String> {
    let src = read(&workspace_root().join(COSTS));
    let mut out = BTreeMap::new();
    for line in src.lines() {
        let Some(decl) = line.trim().strip_prefix("pub const ") else {
            continue;
        };
        let (Some((name, _)), Some((_, init))) = (decl.split_once(':'), decl.split_once('='))
        else {
            continue;
        };
        let init = init.trim().trim_end_matches(';');
        if let Some(value) = int_literal(init).filter(|&v| v >= MIN_CANONICAL_COST) {
            out.insert(value, name.trim().to_string());
        }
    }
    out
}

/// The value of an integer literal token (`1_800`, `0x20`, `17_000u64`);
/// `None` for floats and anything else.
fn int_literal(tok: &str) -> Option<u64> {
    let tok = tok.replace('_', "");
    let (radix, digits) = match tok.get(..2) {
        Some("0x") => (16, &tok[2..]),
        Some("0o") => (8, &tok[2..]),
        Some("0b") => (2, &tok[2..]),
        _ => (10, &tok[..]),
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    let suffix = &digits[end..];
    let int_suffixes = [
        "", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    if end == 0 || !int_suffixes.contains(&suffix) {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `src` with comments and string and char literals blanked to spaces.
/// Newlines stay, so line numbers survive.
fn blank_comments_and_literals(src: &[char]) -> Vec<char> {
    let mut out = src.to_vec();
    let at = |i: usize| src.get(i).copied().unwrap_or('\0');
    let mut i = 0;
    while i < src.len() {
        let boundary = i == 0 || !is_ident(src[i - 1]);
        let end = if at(i) == '/' && at(i + 1) == '/' {
            (i..src.len())
                .find(|&j| src[j] == '\n')
                .unwrap_or(src.len())
        } else if at(i) == '/' && at(i + 1) == '*' {
            let (mut j, mut depth) = (i + 2, 1);
            while j < src.len() && depth > 0 {
                if at(j) == '/' && at(j + 1) == '*' {
                    depth += 1;
                    j += 2;
                } else if at(j) == '*' && at(j + 1) == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            j
        } else if boundary && (at(i) == 'r' || (at(i) == 'b' && at(i + 1) == 'r')) {
            // Raw string: r"..", r#".."#, br"..".
            let mut j = i + if at(i) == 'r' { 1 } else { 2 };
            let hashes = (j..src.len()).take_while(|&k| src[k] == '#').count();
            j += hashes;
            if at(j) != '"' {
                i += 1;
                continue;
            }
            let close: Vec<char> = format!("\"{}", "#".repeat(hashes)).chars().collect();
            (j + 1..src.len())
                .find(|&k| src[k..].starts_with(&close))
                .map_or(src.len(), |k| k + close.len())
        } else if at(i) == '"' {
            let mut j = i + 1;
            while j < src.len() && src[j] != '"' {
                j += if src[j] == '\\' { 2 } else { 1 };
            }
            j + 1
        } else if at(i) == '\'' && at(i + 1) == '\\' {
            (i + 3..src.len())
                .find(|&j| src[j] == '\'')
                .map_or(src.len(), |j| j + 1)
        } else if at(i) == '\'' && at(i + 2) == '\'' {
            i + 3
        } else {
            // Code, or a lifetime's quote.
            i += 1;
            continue;
        };
        let end = end.min(src.len());
        for c in &mut out[i..end] {
            if *c != '\n' {
                *c = ' ';
            }
        }
        i = end;
    }
    out
}

/// Blanks every item behind `#[cfg(test)]` or `#[test]`: its further
/// attributes, then through its matching `}` or its `;`.
fn blank_test_items(code: &mut [char]) {
    for attr in ["#[cfg(test)]", "#[test]"] {
        let attr: Vec<char> = attr.chars().collect();
        let mut i = 0;
        while i + attr.len() <= code.len() {
            if !code[i..].starts_with(&attr) {
                i += 1;
                continue;
            }
            let mut j = i + attr.len();
            let mut depth = 0usize;
            while j < code.len() {
                match code[j] {
                    '{' | '[' => depth += 1,
                    '}' | ']' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 && code[j] == '}' {
                            break;
                        }
                    }
                    ';' if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let end = (j + 1).min(code.len());
            for c in &mut code[i..end] {
                if *c != '\n' {
                    *c = ' ';
                }
            }
            i = end;
        }
    }
}

/// Every integer literal of `src`'s non-test code, with its 1-based line.
fn int_literals(src: &str) -> Vec<(usize, u64)> {
    let chars: Vec<char> = src.chars().collect();
    let mut code = blank_comments_and_literals(&chars);
    blank_test_items(&mut code);
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < code.len() {
        let c = code[i];
        if c == '\n' {
            line += 1;
        }
        if !c.is_ascii_digit() || (i > 0 && is_ident(code[i - 1])) {
            i += 1;
            continue;
        }
        let end = (i..code.len())
            .find(|&j| !is_ident(code[j]))
            .unwrap_or(code.len());
        let tok: String = code[i..end].iter().collect();
        if code.get(end) == Some(&'.') && code.get(end + 1).is_some_and(char::is_ascii_digit) {
            // A float: skip its fraction too.
            i = (end + 1..code.len())
                .find(|&j| !is_ident(code[j]))
                .unwrap_or(code.len());
            continue;
        }
        if let Some(v) = int_literal(&tok) {
            out.push((line, v));
        }
        i = end;
    }
    out
}

/// The workspace's `.rs` files, relative to the root with `/`
/// separators, minus the skipped directories and the costs module.
fn scanned_sources() -> Vec<String> {
    let root = workspace_root();
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("list dir") {
            let path: PathBuf = entry.expect("dir entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under root");
                let rel = rel.to_string_lossy().replace('\\', "/");
                if rel != COSTS {
                    out.push(rel);
                }
            }
        }
    }
    out.sort();
    out
}

#[test]
fn no_canonical_cost_is_restated_as_a_literal() {
    let costs = canonical_costs();
    assert!(
        costs.len() >= 10,
        "only {} canonical costs read from {COSTS}",
        costs.len()
    );
    let files = scanned_sources();
    assert!(files.len() > 50, "scanned too few files ({})", files.len());
    let mut used = vec![false; ALLOWED.len()];
    let mut findings = Vec::new();
    for rel in &files {
        for (line, value) in int_literals(&read(&workspace_root().join(rel))) {
            let Some(name) = costs.get(&value) else {
                continue;
            };
            match ALLOWED.iter().position(|&(p, v, _)| p == rel && v == value) {
                Some(k) => used[k] = true,
                None => findings.push(format!(
                    "{rel}:{line}: literal {value} duplicates sgx_sim::costs::{name}; use the constant"
                )),
            }
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
    for (&(path, value, _), used) in ALLOWED.iter().zip(used) {
        assert!(
            used,
            "stale allowance: {path} no longer has literal {value}"
        );
    }
}

#[test]
fn shim_costs_are_canonical_cost_values() {
    // The LibOS shim's costs live in sgx_sim::costs, so this scan guards
    // them like the paper's cited costs: a restated 3 500 anywhere else
    // in the workspace is a finding.
    let costs = canonical_costs();
    for (value, name) in [
        (1_500, "SHIM_DISPATCH_CYCLES"),
        (3_500, "SHIM_OCALL_WORK_CYCLES"),
    ] {
        assert_eq!(
            costs.get(&value).map(String::as_str),
            Some(name),
            "{value} is not a canonical cost value"
        );
    }
}

#[test]
fn scanner_sees_code_literals_only() {
    let src = r##"
// 12_000 in a comment, /* 12_000 */ in a block
fn f() -> u64 { 12_000 + 0x2EE0 + 17_000u64 }
fn g() -> &'static str { "12_000" }
fn h() -> &'static str { r#"12_000"# }
fn k() -> f64 { 12_000.5 }
fn l() -> char { '"' }
fn n() -> char { '\'' }
#[cfg(test)]
mod tests {
    fn t() -> u64 { 12_000 }
}
fn m() -> u64 { 10_345 }
"##;
    assert_eq!(
        int_literals(src),
        vec![(3, 12_000), (3, 12_000), (3, 17_000), (13, 10_345)]
    );
}
