//! Declarative host-I/O fault plans and their spec-string grammar.
//!
//! The plans in [`crate::plan`] perturb the *simulated* machine; this
//! module describes faults of the **host** filesystem the harness writes
//! its artifacts (reports, checkpoints, traces) to. The chaos backend in
//! `sgxgauge-core::io` compiles an [`IoFaultPlan`] into a deterministic
//! fault stream over artifact operations, reusing the same seeded
//! xorshift discipline as the simulated-fault plane: the same plan and
//! seed produce the same injection sequence on every run.

use crate::plan::{parse_permille, parse_u64, split_spec};

/// A seeded, declarative host-I/O fault plan.
///
/// Parsed from a comma-separated spec string sharing the strict item
/// grammar (positioned errors, no duplicate keys, no trailing commas)
/// of [`crate::FaultPlan`]:
///
/// ```text
/// seed=<u64>            PRNG seed (default 1)
/// enospc=<permille>     each artifact write fails with ENOSPC with p/1000
/// eio=<permille>        each artifact write fails transiently with p/1000
/// torn=<permille>       each artifact write lands only a prefix with p/1000
/// crash_rename=<n>      the n-th rename (1-based) crashes the harness:
///                       the rename does not happen and every later
///                       operation fails (the process is "dead")
/// ```
///
/// ```
/// use faults::IoFaultPlan;
/// let p = IoFaultPlan::parse("seed=9,enospc=10,torn=5,crash_rename=3").unwrap();
/// assert_eq!(p.seed, 9);
/// assert_eq!(p.enospc_permille, 10);
/// assert_eq!(p.crash_rename, Some(3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Base PRNG seed for the per-operation draws.
    pub seed: u64,
    /// Per-write ENOSPC (disk full) probability in permille (0–1000).
    pub enospc_permille: u32,
    /// Per-write transient-EIO probability in permille (0–1000).
    pub eio_permille: u32,
    /// Per-write torn-write (prefix only lands) probability in permille.
    pub torn_permille: u32,
    /// Crash the harness at the n-th rename (1-based), if set.
    pub crash_rename: Option<u64>,
}

impl IoFaultPlan {
    /// Parses the spec grammar documented on the type.
    ///
    /// # Errors
    ///
    /// Returns a positioned (`line 1, column C`) message naming the
    /// offending item, with the same strictness as
    /// [`crate::FaultPlan::parse`].
    pub fn parse(spec: &str) -> Result<IoFaultPlan, String> {
        let mut plan = IoFaultPlan {
            seed: 1,
            ..IoFaultPlan::default()
        };
        for item in split_spec(spec)? {
            let (key, val, col) = (item.key, item.val, item.col);
            match key {
                "seed" => plan.seed = parse_u64("seed", val)?,
                "enospc" => plan.enospc_permille = parse_permille("enospc", val)?,
                "eio" => plan.eio_permille = parse_permille("eio", val)?,
                "torn" => plan.torn_permille = parse_permille("torn", val)?,
                "crash_rename" => {
                    let n = parse_u64("crash_rename", val)?;
                    if n == 0 {
                        return Err("crash_rename is 1-based; use crash_rename=1".into());
                    }
                    plan.crash_rename = Some(n);
                }
                other => {
                    return Err(format!(
                        "line 1, column {col}: unknown io fault item `{other}`"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.enospc_permille == 0
            && self.eio_permille == 0
            && self.torn_permille == 0
            && self.crash_rename.is_none()
    }

    /// The same plan with its seed deterministically re-derived from
    /// `salt` — the host-I/O twin of [`crate::FaultPlan::salted`], so a
    /// campaign stage's artifact chaos stream is as reproducible and
    /// stage-local as its simulated faults. `crash_rename` is *not*
    /// salted: kill points are scheduled by the soak driver, not drawn.
    #[must_use]
    pub fn salted(&self, salt: u64) -> IoFaultPlan {
        let mut plan = self.clone();
        plan.seed = crate::prng::splitmix64(self.seed ^ salt.rotate_left(32));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p = IoFaultPlan::parse("seed=4,enospc=10,eio=20,torn=5,crash_rename=2").unwrap();
        assert_eq!(p.seed, 4);
        assert_eq!(p.enospc_permille, 10);
        assert_eq!(p.eio_permille, 20);
        assert_eq!(p.torn_permille, 5);
        assert_eq!(p.crash_rename, Some(2));
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_spec_defaults_to_seed_one_and_no_faults() {
        let p = IoFaultPlan::parse("").unwrap();
        assert_eq!(p.seed, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn rejects_malformed_items() {
        assert!(IoFaultPlan::parse("bogus").is_err());
        assert!(IoFaultPlan::parse("enospc=1001").is_err());
        assert!(IoFaultPlan::parse("crash_rename=0").is_err());
        assert!(IoFaultPlan::parse("volcano=7").is_err());
        assert!(IoFaultPlan::parse("seed=notanumber").is_err());
    }

    #[test]
    fn rejects_duplicate_keys_with_position() {
        // Letting the last value win would silently run eio=10,eio=0 fault-free.
        let err = IoFaultPlan::parse("eio=10,eio=0").unwrap_err();
        assert!(err.contains("line 1, column 8"), "got: {err}");
        assert!(err.contains("duplicate fault item `eio`"), "got: {err}");
    }

    #[test]
    fn rejects_trailing_and_doubled_commas_with_position() {
        let err = IoFaultPlan::parse("eio=10,").unwrap_err();
        assert!(err.contains("line 1, column 8"), "got: {err}");
        assert!(err.contains("empty fault item"), "got: {err}");
        let err = IoFaultPlan::parse("seed=2,,torn=5").unwrap_err();
        assert!(err.contains("line 1, column 8"), "got: {err}");
    }

    #[test]
    fn unknown_and_malformed_items_carry_their_column() {
        let err = IoFaultPlan::parse("seed=1, volcano=7").unwrap_err();
        assert!(err.contains("line 1, column 9"), "got: {err}");
        assert!(
            err.contains("unknown io fault item `volcano`"),
            "got: {err}"
        );
        let err = IoFaultPlan::parse("eio=1,bogus").unwrap_err();
        assert!(err.contains("line 1, column 7"), "got: {err}");
    }
}
