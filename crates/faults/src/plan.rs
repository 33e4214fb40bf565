//! Declarative fault plans and their spec-string grammar.

use crate::hook::FaultHook;

/// One `key=value` item of a comma-separated spec, with the 1-based
/// column at which the key starts (specs are single-line, so positioned
/// errors report `line 1, column C`).
pub(crate) struct SpecItem<'a> {
    /// The trimmed key.
    pub key: &'a str,
    /// The trimmed value.
    pub val: &'a str,
    /// 1-based column of the key's first character.
    pub col: usize,
}

/// Splits a comma-separated spec into `key=value` items with the same
/// error discipline as the campaign TOML parser: empty items (a
/// trailing, leading, or doubled comma) and duplicate keys are
/// positioned errors, never silent tolerance. A whole-empty spec is
/// legal and yields no items.
pub(crate) fn split_spec(spec: &str) -> Result<Vec<SpecItem<'_>>, String> {
    let mut items: Vec<SpecItem<'_>> = Vec::new();
    if spec.trim().is_empty() {
        return Ok(items);
    }
    let mut col = 1usize;
    for raw in spec.split(',') {
        let item_col = col;
        col += raw.chars().count() + 1;
        let key_col = item_col + raw.chars().count() - raw.trim_start().chars().count();
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Err(format!(
                "line 1, column {item_col}: empty fault item \
                 (trailing or doubled comma)"
            ));
        }
        let (key, val) = trimmed.split_once('=').ok_or_else(|| {
            format!("line 1, column {key_col}: fault item `{trimmed}` is not key=value")
        })?;
        let key = key.trim();
        let val = val.trim();
        if items.iter().any(|it| it.key == key) {
            return Err(format!(
                "line 1, column {key_col}: duplicate fault item `{key}` \
                 (the earlier value would be silently overridden)"
            ));
        }
        items.push(SpecItem {
            key,
            val,
            col: key_col,
        });
    }
    Ok(items)
}

/// A scheduled burst of asynchronous enclave exits: every
/// `period_cycles`, the victim thread takes `exits` extra AEX round trips
/// (AEX + ERESUME with the mandatory TLB flush, §2.3) if it is inside an
/// enclave at that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AexStorm {
    /// Extra enclave exits injected per burst.
    pub exits: u32,
    /// Simulated cycles between bursts.
    pub period_cycles: u64,
}

/// A periodic EPC pressure spike: every `period_cycles`, `frames` EPC
/// frames are reserved (as if a co-tenant enclave grabbed them) for
/// `duration_cycles`, forcing EWB churn on the victim's working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcSpike {
    /// Frames withdrawn from the usable EPC while the spike is active.
    pub frames: usize,
    /// Simulated cycles between spike onsets.
    pub period_cycles: u64,
    /// Simulated cycles a spike lasts.
    pub duration_cycles: u64,
}

/// A seeded, declarative fault-injection plan.
///
/// Parsed from a comma-separated spec string:
///
/// ```text
/// seed=<u64>                 PRNG seed (default 1)
/// aex=<exits>@<period>       AEX storm: exits per burst @ cycle period
/// epc=<frames>@<period>:<duration>   EPC pressure spikes
/// syscall=<permille>         each host syscall fails with p/1000
/// bitflip=<permille>         each file read is corrupted with p/1000
/// ```
///
/// ```
/// use faults::FaultPlan;
/// let p = FaultPlan::parse("seed=42,aex=3@50000,syscall=20").unwrap();
/// assert_eq!(p.seed, 42);
/// assert_eq!(p.aex.unwrap().exits, 3);
/// assert_eq!(p.syscall_fail_permille, 20);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base PRNG seed; every compiled hook mixes it with its salt.
    pub seed: u64,
    /// Scheduled AEX storms, if any.
    pub aex: Option<AexStorm>,
    /// Periodic EPC pressure spikes, if any.
    pub epc: Option<EpcSpike>,
    /// Per-syscall transient failure probability in permille (0–1000).
    pub syscall_fail_permille: u32,
    /// Per-file-read bit-flip probability in permille (0–1000).
    pub bitflip_permille: u32,
}

impl FaultPlan {
    /// Parses the spec grammar documented on the type.
    ///
    /// # Errors
    ///
    /// Returns a positioned (`line 1, column C`) message naming the
    /// offending item. Duplicate keys and trailing/doubled commas are
    /// rejected rather than silently tolerated, matching the campaign
    /// TOML parser's error discipline.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        for item in split_spec(spec)? {
            let (key, val, col) = (item.key, item.val, item.col);
            match key {
                "seed" => plan.seed = parse_u64("seed", val)?,
                "aex" => {
                    let (exits, period) = val
                        .split_once('@')
                        .ok_or_else(|| format!("aex=`{val}` is not <exits>@<period>"))?;
                    let storm = AexStorm {
                        exits: parse_u32("aex exits", exits)?,
                        period_cycles: parse_u64("aex period", period)?,
                    };
                    if storm.exits == 0 || storm.period_cycles == 0 {
                        return Err("aex storm needs non-zero exits and period".into());
                    }
                    plan.aex = Some(storm);
                }
                "epc" => {
                    let (frames, rest) = val.split_once('@').ok_or_else(|| {
                        format!("epc=`{val}` is not <frames>@<period>:<duration>")
                    })?;
                    let (period, duration) = rest.split_once(':').ok_or_else(|| {
                        format!("epc=`{val}` is not <frames>@<period>:<duration>")
                    })?;
                    let spike = EpcSpike {
                        frames: parse_u64("epc frames", frames)? as usize,
                        period_cycles: parse_u64("epc period", period)?,
                        duration_cycles: parse_u64("epc duration", duration)?,
                    };
                    if spike.frames == 0 || spike.period_cycles == 0 || spike.duration_cycles == 0 {
                        return Err("epc spike needs non-zero frames, period and duration".into());
                    }
                    plan.epc = Some(spike);
                }
                "syscall" => plan.syscall_fail_permille = parse_permille("syscall", val)?,
                "bitflip" => plan.bitflip_permille = parse_permille("bitflip", val)?,
                other => {
                    return Err(format!(
                        "line 1, column {col}: unknown fault item `{other}`"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.aex.is_none()
            && self.epc.is_none()
            && self.syscall_fail_permille == 0
            && self.bitflip_permille == 0
    }

    /// The same plan with its seed deterministically re-derived from
    /// `salt`: campaign runners call this once per stage so every stage
    /// of one campaign seed faces an unrelated — but exactly
    /// reproducible — fault stream. One splitmix64 round decorrelates
    /// adjacent stage ordinals.
    #[must_use]
    pub fn salted(&self, salt: u64) -> FaultPlan {
        let mut plan = self.clone();
        plan.seed = crate::prng::splitmix64(self.seed ^ salt.rotate_left(32));
        plan
    }

    /// Compiles the plan into a per-run hook. `salt` distinguishes runs
    /// that must see *different* fault outcomes — the sweep executor
    /// derives it from the grid coordinate and the attempt number, so a
    /// retried cell faces a fresh draw while the overall sweep stays
    /// deterministic.
    pub fn compile(&self, salt: u64) -> FaultHook {
        FaultHook::new(self, salt)
    }

    /// An order-sensitive FNV-1a digest of the plan, used to guard
    /// checkpoints: resuming a sweep under a different plan would splice
    /// incompatible cells together.
    pub fn digest(&self) -> u64 {
        let mut h = crate::Fnv::default();
        h.u64(self.seed);
        match self.aex {
            Some(s) => {
                h.u64(1);
                h.u64(u64::from(s.exits));
                h.u64(s.period_cycles);
            }
            None => h.u64(0),
        }
        match self.epc {
            Some(s) => {
                h.u64(1);
                h.u64(s.frames as u64);
                h.u64(s.period_cycles);
                h.u64(s.duration_cycles);
            }
            None => h.u64(0),
        }
        h.u64(u64::from(self.syscall_fail_permille));
        h.u64(u64::from(self.bitflip_permille));
        h.finish()
    }
}

/// Parses an unsigned integer item value; `_` digit separators are
/// allowed. Shared by every fault-spec parser in this crate.
pub(crate) fn parse_u64(what: &str, s: &str) -> Result<u64, String> {
    s.trim()
        .replace('_', "")
        .parse()
        .map_err(|_| format!("{what}: `{s}` is not a number"))
}

/// [`parse_u64`] for `u32` fields: a value that does not fit is an
/// error, never silently truncated.
pub(crate) fn parse_u32(what: &str, s: &str) -> Result<u32, String> {
    let v = parse_u64(what, s)?;
    u32::try_from(v).map_err(|_| format!("{what}: {v} exceeds {}", u32::MAX))
}

/// Parses a probability in permille (0–1000).
pub(crate) fn parse_permille(what: &str, s: &str) -> Result<u32, String> {
    let v = parse_u64(what, s)?;
    u32::try_from(v)
        .ok()
        .filter(|&p| p <= 1000)
        .ok_or_else(|| format!("{what}: permille {v} exceeds 1000"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p = FaultPlan::parse("seed=9,aex=2@10_000,epc=32@80000:20000,syscall=15,bitflip=3")
            .unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(
            p.aex,
            Some(AexStorm {
                exits: 2,
                period_cycles: 10_000
            })
        );
        assert_eq!(
            p.epc,
            Some(EpcSpike {
                frames: 32,
                period_cycles: 80_000,
                duration_cycles: 20_000
            })
        );
        assert_eq!(p.syscall_fail_permille, 15);
        assert_eq!(p.bitflip_permille, 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_spec_defaults_to_seed_one_and_no_faults() {
        let p = FaultPlan::parse("").unwrap();
        assert_eq!(p.seed, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn rejects_malformed_items() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("aex=3").is_err());
        assert!(FaultPlan::parse("aex=0@100").is_err());
        assert!(FaultPlan::parse("epc=8@100").is_err());
        assert!(FaultPlan::parse("epc=0@100:50").is_err());
        assert!(FaultPlan::parse("syscall=1001").is_err());
        assert!(FaultPlan::parse("volcano=7").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
    }

    #[test]
    fn rejects_duplicate_keys_with_position() {
        let err = FaultPlan::parse("seed=1,aex=2@1000,seed=9").unwrap_err();
        assert!(err.contains("line 1, column 19"), "got: {err}");
        assert!(err.contains("duplicate fault item `seed`"), "got: {err}");
    }

    #[test]
    fn rejects_trailing_and_doubled_commas_with_position() {
        let err = FaultPlan::parse("seed=1,").unwrap_err();
        assert!(err.contains("line 1, column 8"), "got: {err}");
        assert!(err.contains("empty fault item"), "got: {err}");

        let err = FaultPlan::parse("seed=1,,bitflip=3").unwrap_err();
        assert!(err.contains("line 1, column 8"), "got: {err}");

        let err = FaultPlan::parse(",seed=1").unwrap_err();
        assert!(err.contains("line 1, column 1"), "got: {err}");
    }

    #[test]
    fn positions_account_for_leading_whitespace() {
        let err = FaultPlan::parse("seed=1,  volcano=7").unwrap_err();
        assert!(err.contains("line 1, column 10"), "got: {err}");
        assert!(err.contains("unknown fault item `volcano`"), "got: {err}");
    }

    #[test]
    fn rejects_aex_exits_beyond_u32_instead_of_truncating() {
        // Truncation would run 2^32 + 1 as 1 exit and misreport 2^32 as 0.
        let err = FaultPlan::parse("aex=4294967297@50000").unwrap_err();
        assert!(
            err.contains("aex exits: 4294967297 exceeds 4294967295"),
            "got: {err}"
        );
        let err = FaultPlan::parse("aex=4294967296@50000").unwrap_err();
        assert!(err.contains("exceeds 4294967295"), "got: {err}");
        let p = FaultPlan::parse("aex=4294967295@50000").unwrap();
        assert_eq!(p.aex.unwrap().exits, u32::MAX);
    }

    #[test]
    fn digest_distinguishes_plans() {
        let a = FaultPlan::parse("seed=1,aex=2@1000").unwrap();
        let b = FaultPlan::parse("seed=2,aex=2@1000").unwrap();
        let c = FaultPlan::parse("seed=1,aex=3@1000").unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(
            a.digest(),
            FaultPlan::parse("seed=1,aex=2@1000").unwrap().digest()
        );
    }

    /// The digest guards checkpoint grid fingerprints, so its value is
    /// part of the checkpoint format: a changed hash would orphan every
    /// checkpoint written under a fault plan.
    #[test]
    fn digest_value_is_pinned() {
        assert_eq!(
            FaultPlan::parse("seed=1,aex=2@1000").unwrap().digest(),
            0x2cd3_5de9_65e8_a04a
        );
    }
}
