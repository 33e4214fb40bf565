//! The campaign config grammar: a hand-rolled TOML subset.
//!
//! The build is fully offline (no `toml` crate), so campaigns are
//! described in a deliberately small grammar the parser below covers
//! completely: `[campaign]` and repeated `[[stage]]` tables, and
//! `key = value` lines where a value is an integer, a `"string"`, a
//! boolean, or an array of strings. `#` starts a comment (outside
//! strings). Everything else is a parse error with a line number —
//! never a silent default.
//!
//! ```toml
//! [campaign]
//! name = "storm"
//! seed = 42
//! scale = 64            # input divisor (0 = paper scale)
//! profile = "quick"     # "quick" (test platform) or "paper"
//! reps = 2
//! jobs = 2              # wave width = worker threads (determinism!)
//! retries = 2
//! retry_budget_cycles = 2000000
//! breaker_threshold = 3
//! breaker_cooldown = 2
//! max_quarantine = 8
//!
//! [[stage]]
//! name = "baseline"
//! modes = ["vanilla", "native"]
//! settings = ["low"]
//! workloads = ["Blockchain", "BTree"]
//! faults = "aex=2@50000"
//! io_faults = "eio=25,torn=10"
//! deadline_cycles = 0
//! antagonist = false
//! ```

use faults::{FaultPlan, IoFaultPlan};
use sgxgauge_core::{ExecMode, InputSetting};

/// A parsed campaign: global policy plus ordered stages.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Campaign name (path-safe; names the output tree).
    pub name: String,
    /// Campaign seed: salts every stage's fault and io-fault plans and
    /// the soak kill schedule.
    pub seed: u64,
    /// Workload input divisor (`0` = paper scale).
    pub scale: u64,
    /// Platform profile: `true` = the scaled-down quick-test machine.
    pub quick_profile: bool,
    /// Repetitions per grid combination.
    pub reps: usize,
    /// Wave width *and* worker thread count. Part of the campaign's
    /// deterministic identity: supervision decisions are made at wave
    /// boundaries, so the wave width must come from config, never from
    /// the machine.
    pub jobs: usize,
    /// Per-cell retry budget (extra attempts) while undegraded.
    pub retries: usize,
    /// Campaign-wide retry spend budget in simulated backoff cycles
    /// (`0` = unlimited). Draining it flips the campaign into degraded
    /// mode.
    pub retry_budget_cycles: u64,
    /// Consecutive transient failures that open a workload's breaker
    /// (`0` = breakers disabled).
    pub breaker_threshold: usize,
    /// Cells of that workload shed while the breaker is open, before a
    /// half-open probe is admitted.
    pub breaker_cooldown: usize,
    /// Campaign-wide tolerance for quarantined (fatal/panicked) cells.
    pub max_quarantine: Option<usize>,
    /// Ordered sweep stages.
    pub stages: Vec<StageSpec>,
}

/// One ordered stage of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage name (path-safe; names the per-stage artifact directory).
    pub name: String,
    /// Execution modes swept, in order.
    pub modes: Vec<ExecMode>,
    /// Input settings swept, in order.
    pub settings: Vec<InputSetting>,
    /// Workload names (Table 2 spelling); empty = the full suite.
    pub workloads: Vec<String>,
    /// Simulated-fault plan (seed re-derived per stage from the
    /// campaign seed).
    pub faults: Option<FaultPlan>,
    /// Host-I/O fault plan applied to this stage's artifact writes when
    /// the campaign runs in chaos mode (seed re-derived per stage).
    pub io_faults: Option<IoFaultPlan>,
    /// Simulated-cycle deadline for the whole stage (`0` = none).
    /// Exceeding it sheds the stage's remaining cells.
    pub deadline_cycles: u64,
    /// An antagonist stage exists to *create* stress; it is skipped
    /// entirely when the campaign is already degraded by the time it
    /// is reached.
    pub antagonist: bool,
    /// Co-tenant count sharing the stage's EPC (`0` = the classic
    /// single-tenant stage). When set, every cell key carries the
    /// `tNaM` dimension and the stage's per-tenant EPC share shrinks
    /// accordingly, modeling `tenants` enclaves resident on one
    /// machine.
    pub tenants: u64,
    /// Of those tenants, how many are EPC-thrashing antagonists
    /// (recorded in the key's `aM` half; must not exceed `tenants`).
    pub antagonists: u64,
}

impl Default for StageSpec {
    fn default() -> Self {
        StageSpec {
            name: String::new(),
            modes: vec![ExecMode::Vanilla],
            settings: vec![InputSetting::Low],
            workloads: Vec::new(),
            faults: None,
            io_faults: None,
            deadline_cycles: 0,
            antagonist: false,
            tenants: 0,
            antagonists: 0,
        }
    }
}

/// One parsed `key = value` right-hand side.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(u64),
    Str(String),
    Bool(bool),
    StrArray(Vec<String>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::StrArray(_) => "string array",
        }
    }
}

fn want_int(key: &str, line: usize, v: &Value) -> Result<u64, String> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(format!(
            "line {line}: `{key}` wants an integer, got {}",
            other.type_name()
        )),
    }
}

fn want_str(key: &str, line: usize, v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "line {line}: `{key}` wants a string, got {}",
            other.type_name()
        )),
    }
}

fn want_bool(key: &str, line: usize, v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(format!(
            "line {line}: `{key}` wants a boolean, got {}",
            other.type_name()
        )),
    }
}

fn want_str_array(key: &str, line: usize, v: &Value) -> Result<Vec<String>, String> {
    match v {
        Value::StrArray(items) => Ok(items.clone()),
        other => Err(format!(
            "line {line}: `{key}` wants a string array, got {}",
            other.type_name()
        )),
    }
}

/// Names that become artifact directory components must stay path-safe.
fn path_safe(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl CampaignConfig {
    /// Parses the grammar documented on the module.
    ///
    /// # Errors
    ///
    /// A human-readable message with the offending line number.
    pub fn parse(text: &str) -> Result<CampaignConfig, String> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Campaign,
            Stage,
        }
        let mut cfg = CampaignConfig {
            name: String::new(),
            seed: 1,
            scale: 0,
            quick_profile: false,
            reps: 1,
            jobs: 1,
            retries: 0,
            retry_budget_cycles: 0,
            breaker_threshold: 0,
            breaker_cooldown: 1,
            max_quarantine: None,
            stages: Vec::new(),
        };
        let mut section = Section::None;
        let mut saw_campaign = false;
        for (n, raw) in text.lines().enumerate() {
            let lineno = n + 1;
            let line = strip_comment(raw).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if line == "[campaign]" {
                if saw_campaign {
                    return Err(format!("line {lineno}: duplicate [campaign] table"));
                }
                saw_campaign = true;
                section = Section::Campaign;
                continue;
            }
            if line == "[[stage]]" {
                cfg.stages.push(StageSpec::default());
                section = Section::Stage;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "line {lineno}: unknown table `{line}` (only [campaign] and [[stage]])"
                ));
            }
            let (key, value) = parse_kv(&line, lineno)?;
            match section {
                Section::None => {
                    return Err(format!(
                        "line {lineno}: `{key}` outside any table; start with [campaign]"
                    ));
                }
                Section::Campaign => apply_campaign_key(&mut cfg, &key, &value, lineno)?,
                Section::Stage => {
                    let stage = cfg
                        .stages
                        .last_mut()
                        .ok_or_else(|| format!("line {lineno}: no open [[stage]]"))?;
                    apply_stage_key(stage, &key, &value, lineno)?;
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), String> {
        if !path_safe(&self.name) {
            return Err(format!(
                "campaign name `{}` must be non-empty and [A-Za-z0-9_-] (it names a directory)",
                self.name
            ));
        }
        if self.stages.is_empty() {
            return Err("a campaign needs at least one [[stage]]".to_owned());
        }
        if self.reps == 0 {
            return Err("reps must be at least 1".to_owned());
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1 (it is the deterministic wave width)".to_owned());
        }
        if self.breaker_threshold > 0 && self.breaker_cooldown == 0 {
            return Err("breaker_cooldown must be at least 1 when breakers are enabled".to_owned());
        }
        let mut seen = Vec::new();
        for stage in &self.stages {
            if !path_safe(&stage.name) {
                return Err(format!(
                    "stage name `{}` must be non-empty and [A-Za-z0-9_-] (it names a directory)",
                    stage.name
                ));
            }
            if seen.contains(&stage.name.as_str()) {
                return Err(format!(
                    "duplicate stage name `{}` (stage directories would collide)",
                    stage.name
                ));
            }
            seen.push(stage.name.as_str());
            if stage.modes.is_empty() {
                return Err(format!("stage `{}` sweeps no modes", stage.name));
            }
            if stage.settings.is_empty() {
                return Err(format!("stage `{}` sweeps no settings", stage.name));
            }
            if stage.tenants > u64::from(u8::MAX) {
                return Err(format!(
                    "stage `{}`: tenants {} exceeds the key dimension's limit of {}",
                    stage.name,
                    stage.tenants,
                    u8::MAX
                ));
            }
            if stage.antagonists > stage.tenants {
                return Err(format!(
                    "stage `{}`: {} antagonists among only {} tenants",
                    stage.name, stage.antagonists, stage.tenants
                ));
            }
        }
        Ok(())
    }
}

fn apply_campaign_key(
    cfg: &mut CampaignConfig,
    key: &str,
    value: &Value,
    line: usize,
) -> Result<(), String> {
    match key {
        "name" => cfg.name = want_str(key, line, value)?,
        "seed" => cfg.seed = want_int(key, line, value)?,
        "scale" => cfg.scale = want_int(key, line, value)?,
        "profile" => {
            let profile = want_str(key, line, value)?;
            cfg.quick_profile = match profile.as_str() {
                "quick" => true,
                "paper" => false,
                other => {
                    return Err(format!(
                        "line {line}: profile `{other}` (want \"quick\" or \"paper\")"
                    ));
                }
            };
        }
        "reps" => cfg.reps = want_int(key, line, value)? as usize,
        "jobs" => cfg.jobs = want_int(key, line, value)? as usize,
        "retries" => cfg.retries = want_int(key, line, value)? as usize,
        "retry_budget_cycles" => cfg.retry_budget_cycles = want_int(key, line, value)?,
        "breaker_threshold" => cfg.breaker_threshold = want_int(key, line, value)? as usize,
        "breaker_cooldown" => cfg.breaker_cooldown = want_int(key, line, value)? as usize,
        "max_quarantine" => cfg.max_quarantine = Some(want_int(key, line, value)? as usize),
        other => return Err(format!("line {line}: unknown [campaign] key `{other}`")),
    }
    Ok(())
}

fn apply_stage_key(
    stage: &mut StageSpec,
    key: &str,
    value: &Value,
    line: usize,
) -> Result<(), String> {
    match key {
        "name" => stage.name = want_str(key, line, value)?,
        "modes" => {
            let mut modes = Vec::new();
            for item in want_str_array(key, line, value)? {
                modes.push(
                    item.parse::<ExecMode>()
                        .map_err(|e| format!("line {line}: {e}"))?,
                );
            }
            stage.modes = modes;
        }
        "settings" => {
            let mut settings = Vec::new();
            for item in want_str_array(key, line, value)? {
                settings.push(
                    item.parse::<InputSetting>()
                        .map_err(|e| format!("line {line}: {e}"))?,
                );
            }
            stage.settings = settings;
        }
        "workloads" => stage.workloads = want_str_array(key, line, value)?,
        "faults" => {
            let spec = want_str(key, line, value)?;
            stage.faults = Some(FaultPlan::parse(&spec).map_err(|e| format!("line {line}: {e}"))?);
        }
        "io_faults" => {
            let spec = want_str(key, line, value)?;
            stage.io_faults =
                Some(IoFaultPlan::parse(&spec).map_err(|e| format!("line {line}: {e}"))?);
        }
        "deadline_cycles" => stage.deadline_cycles = want_int(key, line, value)?,
        "antagonist" => stage.antagonist = want_bool(key, line, value)?,
        "tenants" => stage.tenants = want_int(key, line, value)?,
        "antagonists" => stage.antagonists = want_int(key, line, value)?,
        other => return Err(format!("line {line}: unknown [[stage]] key `{other}`")),
    }
    Ok(())
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_kv(line: &str, lineno: usize) -> Result<(String, Value), String> {
    let (key, rest) = line
        .split_once('=')
        .ok_or_else(|| format!("line {lineno}: expected `key = value`, got `{line}`"))?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("line {lineno}: bad key `{key}`"));
    }
    Ok((key.to_owned(), parse_value(rest.trim(), lineno)?))
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, String> {
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let s = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string {text}"))?;
        if s.contains('"') {
            return Err(format!(
                "line {lineno}: embedded quote in {text} (escapes are not part of the grammar)"
            ));
        }
        return Ok(Value::Str(s.to_owned()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let body = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("line {lineno}: unterminated array {text}"))?;
        let mut items = Vec::new();
        for piece in body.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            match parse_value(piece, lineno)? {
                Value::Str(s) => items.push(s),
                other => {
                    return Err(format!(
                        "line {lineno}: arrays hold strings only, got {}",
                        other.type_name()
                    ));
                }
            }
        }
        return Ok(Value::StrArray(items));
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    cleaned
        .parse::<u64>()
        .map(Value::Int)
        .map_err(|_| format!("line {lineno}: `{text}` is not an integer, string, bool, or array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# A two-stage storm campaign.
[campaign]
name = "storm"          # output tree name
seed = 42
scale = 64
profile = "quick"
reps = 2
jobs = 2
retries = 2
retry_budget_cycles = 2_000_000
breaker_threshold = 3
breaker_cooldown = 2

[[stage]]
name = "baseline"
modes = ["vanilla", "native"]
settings = ["low"]
workloads = ["Blockchain", "BTree"]

[[stage]]
name = "syscall-storm"
modes = ["vanilla"]
settings = ["low"]
faults = "syscall=300"
io_faults = "eio=25,torn=10"
deadline_cycles = 900000000
antagonist = true
"#;

    #[test]
    fn parses_the_documented_example() {
        let cfg = CampaignConfig::parse(EXAMPLE).expect("example parses");
        assert_eq!(cfg.name, "storm");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.scale, 64);
        assert!(cfg.quick_profile);
        assert_eq!(cfg.jobs, 2);
        assert_eq!(cfg.retry_budget_cycles, 2_000_000);
        assert_eq!(cfg.stages.len(), 2);
        assert_eq!(
            cfg.stages[0].modes,
            vec![ExecMode::Vanilla, ExecMode::Native]
        );
        assert_eq!(cfg.stages[0].workloads, vec!["Blockchain", "BTree"]);
        let storm = &cfg.stages[1];
        assert_eq!(storm.faults.as_ref().unwrap().syscall_fail_permille, 300);
        assert_eq!(storm.io_faults.as_ref().unwrap().eio_permille, 25);
        assert_eq!(storm.deadline_cycles, 900_000_000);
        assert!(storm.antagonist);
    }

    #[test]
    fn parses_and_validates_cotenancy_keys() {
        let base = "[campaign]\nname = \"x\"\n[[stage]]\nname = \"s\"\n";
        let cfg = CampaignConfig::parse(&format!("{base}tenants = 4\nantagonists = 3\n"))
            .expect("co-tenant stage parses");
        assert_eq!(cfg.stages[0].tenants, 4);
        assert_eq!(cfg.stages[0].antagonists, 3);
        // Default stays the classic single-tenant stage.
        let plain = CampaignConfig::parse(base).expect("plain stage parses");
        assert_eq!(plain.stages[0].tenants, 0);
        assert!(
            CampaignConfig::parse(&format!("{base}tenants = 2\nantagonists = 3\n"))
                .unwrap_err()
                .contains("antagonists")
        );
        assert!(CampaignConfig::parse(&format!("{base}tenants = 300\n"))
            .unwrap_err()
            .contains("limit"));
    }

    #[test]
    fn retired_stage_keys_are_unknown() {
        let base = "[campaign]\nname = \"x\"\n[[stage]]\nname = \"s\"\n";
        for (line, key) in [
            ("parties = 5", "parties"),
            ("threshold = 3", "threshold"),
            ("net_faults = \"drop=50\"", "net_faults"),
        ] {
            let err = CampaignConfig::parse(&format!("{base}{line}\n")).unwrap_err();
            assert_eq!(err, format!("line 5: unknown [[stage]] key `{key}`"));
        }
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment("a = \"x#y\""), "a = \"x#y\"");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[campaign]\nname = \"x\"\nbogus_key = 3\n[[stage]]\nname = \"s\"\n";
        let err = CampaignConfig::parse(bad).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("bogus_key"), "{err}");
    }

    #[test]
    fn rejects_unsafe_and_duplicate_stage_names() {
        let unsafe_name = "[campaign]\nname = \"x\"\n[[stage]]\nname = \"a/b\"\n";
        assert!(CampaignConfig::parse(unsafe_name)
            .unwrap_err()
            .contains("names a directory"));
        let dup = "[campaign]\nname = \"x\"\n[[stage]]\nname = \"s\"\n[[stage]]\nname = \"s\"\n";
        assert!(CampaignConfig::parse(dup)
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn rejects_keys_outside_tables_and_bad_values() {
        assert!(CampaignConfig::parse("name = \"x\"\n")
            .unwrap_err()
            .contains("outside any table"));
        assert!(CampaignConfig::parse("[campaign]\nseed = \"q\"\n")
            .unwrap_err()
            .contains("integer"));
        assert!(CampaignConfig::parse(
            "[campaign]\nname = \"x\"\n[[stage]]\nname = \"s\"\nmodes = [\"warp\"]\n"
        )
        .is_err());
    }
}
