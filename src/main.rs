//! `sgxgauge` — command-line driver for the benchmark suite.
//!
//! ```text
//! sgxgauge list
//! sgxgauge run --workload BTree --mode native --setting high [--scale 8]
//! sgxgauge compare --workload HashJoin --setting medium [--scale 8]
//! sgxgauge suite [--setting low] [--scale 16] [--modes vanilla,libos]
//! ```

use sgxgauge::campaign::{run_campaign, run_soak, CampaignConfig};
use sgxgauge::core::io as artifact_io;
use sgxgauge::core::report::{
    cycle_breakdown, humanize, quarantine_table, sweep_table, RatioRow, ReportTable,
};
use sgxgauge::core::{
    fan_out, ArtifactIo, ChaosFs, EnvConfig, ExecMode, InputSetting, RealFs, RunReport,
    RunnerConfig, SuiteRunner, TraceConfig, Workload,
};
use sgxgauge::faults::{FaultPlan, IoFaultPlan};
use sgxgauge::mem::PAGE_SIZE;
use sgxgauge::sgx::{Host, SgxConfig, TenantId, TenantOp, TenantReport, TenantSpec};
use sgxgauge::stats::BarChart;
use sgxgauge::trace::TimelinePoint;
use sgxgauge::workloads::{suite, suite_scaled};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  sgxgauge list
  sgxgauge run     --workload <name> --mode <vanilla|native|libos> --setting <low|medium|high>
                   [--scale <divisor>] [--switchless <workers>] [--pf]
                   [--faults <spec>] [--cell-budget <cycles>]
  sgxgauge compare --workload <name> --setting <low|medium|high> [--scale <divisor>]
  sgxgauge suite   [--setting <low|medium|high>] [--scale <divisor>] [--modes <m1,m2,..>]
                   [--reps <n>] [--jobs <n>] [--faults <spec>] [--cell-budget <cycles>]
                   [--retries <n>] [--max-quarantine <n>] [--checkpoint <path>]
                   [--resume <path>] [--report <file.csv>] [--io-faults <spec>]
  sgxgauge trace   <workload> --mode <vanilla|native|libos> --setting <low|medium|high>
                   [--scale <divisor>] [--out <file.jsonl|file.csv>] [--jobs <n>]
                   [--sample <cycles>] [--capacity <records>] [--switchless <workers>]
                   [--pf] [--faults <spec>] [--cell-budget <cycles>] [--io-faults <spec>]
  sgxgauge campaign <config.toml> [--out <dir>] [--soak <kills>]
                   runs a declarative chaos campaign (stages, breakers, retry
                   budgets, degraded mode); --soak adds <kills> seeded
                   kill/resume cycles and verifies byte-identical convergence
  sgxgauge cotenancy [--tenants <n>] [--wave <cycles>] [--epc-pages <n>] [--ops <n>]
                   [--jobs <n>] [--out <file.csv>] [--timeline <file.jsonl>]
                   sweeps antagonist count 0..n-1 against one all-resident victim
                   on a shared-EPC co-tenant host, emitting noisy-neighbor curves
                   (victim slowdown, per-tenant fault rates); output is
                   byte-identical across --jobs

fault spec (comma-separated, e.g. \"seed=7,aex=3@50000,syscall=20\"):
  seed=<u64>                   PRNG seed (default 1)
  aex=<exits>@<period>         AEX storm: <exits> forced exits every <period> cycles
  epc=<frames>@<period>:<dur>  EPC pressure: reserve <frames> for <dur> cycles every <period>
  syscall=<permille>           transient host-syscall failure rate (0..=1000)
  bitflip=<permille>           per-read file bit-flip rate (0..=1000)

host io fault spec (comma-separated, e.g. \"seed=7,eio=20,torn=5,crash_rename=3\"):
  seed=<u64>                   PRNG seed (default 1)
  enospc=<permille>            artifact write fails with ENOSPC (0..=1000)
  eio=<permille>               artifact write fails transiently (0..=1000)
  torn=<permille>              artifact write silently lands a prefix (0..=1000)
  crash_rename=<n>             crash the harness at the n-th artifact rename

--max-quarantine <n>  tolerate at most n quarantined (fatal/panicked) cells,
                      then fail fast; completed cells stay checkpointed
--resume <path>       quarantines a temp file an interrupted write left behind
                      (<path>.tmp.quarantine) and verifies the checkpoint's
                      CRC32 integrity footer before adopting completed cells
--report <file.csv>   emit the suite table as CSV sealed with an integrity
                      footer"
    );
    ExitCode::from(2)
}

/// The flags each subcommand reads (`run`, `compare`, `suite` and
/// `trace` include those of [`runner`]); `None` for an unknown one.
fn known_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "list" => "",
        "run" => "scale workload mode setting switchless pf faults cell-budget",
        "compare" => "scale workload setting switchless pf faults cell-budget",
        "suite" => {
            "scale setting reps jobs modes retries max-quarantine checkpoint resume report \
             io-faults switchless pf faults cell-budget"
        }
        "trace" => {
            "scale mode setting jobs sample capacity out io-faults \
             switchless pf faults cell-budget"
        }
        "campaign" => "out soak",
        "cotenancy" => "tenants wave epc-pages ops jobs out timeline io-faults",
        _ => return None,
    })
}

/// Parses `--name value` pairs (and the valueless `--pf`) for `cmd`. A
/// flag `cmd` does not read, or one given twice, is an error naming it:
/// silently ignoring a misspelled `--fault` would run fault-free.
fn parse_flags(cmd: &str, args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let known = known_flags(cmd).ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        if !known.split_whitespace().any(|k| k == name) {
            return Err(format!("unknown flag `--{name}` for `{cmd}`"));
        }
        let v = match name {
            "pf" => "true",
            _ => args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?,
        };
        i += if name == "pf" { 1 } else { 2 };
        if flags.insert(name.to_owned(), v.to_owned()).is_some() {
            return Err(format!("flag `--{name}` given twice"));
        }
    }
    Ok(flags)
}

/// `--jobs <n>`: worker threads, where `0` (the default) means one per
/// core — resolved by [`fan_out`], the one worker pool.
fn parse_jobs(flags: &BTreeMap<String, String>) -> Result<usize, String> {
    flags
        .get("jobs")
        .map_or(Ok(0), |s| s.parse())
        .map_err(|_| "bad --jobs".to_owned())
}

/// `--scale <divisor>`: workload inputs and the platform shrink by the
/// divisor, as under `SGXGAUGE_SCALE` ([`EnvConfig::scaled`]); `1` (the
/// default) is paper scale. `0` is refused rather than read as `1`.
fn parse_scale(flags: &BTreeMap<String, String>) -> Result<u64, String> {
    match flags.get("scale").map(|s| s.parse::<u64>()) {
        None => Ok(1),
        Some(Ok(d)) if d >= 1 => Ok(d),
        Some(_) => Err("bad --scale: needs a divisor of at least 1".to_owned()),
    }
}

/// Runs `cell(i)` for every grid index `i < n` on `jobs` workers and
/// returns the cells in grid order, or the first failure in grid order.
fn run_grid<T: Send>(
    n: usize,
    jobs: usize,
    cell: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    fan_out(
        n,
        jobs,
        |i| (i, cell(i)),
        |pool| {
            (0..n).for_each(|i| pool.submit(i));
            pool.for_each(|(i, out)| slots[i] = Some(out));
        },
    );
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err("cell never ran (internal error)".to_owned())))
        .collect()
}

fn parse_mode(s: &str) -> Result<ExecMode, String> {
    s.parse()
}

fn parse_setting(s: &str) -> Result<InputSetting, String> {
    s.parse()
}

fn find_workload(scale: u64, name: &str) -> Result<Box<dyn Workload>, String> {
    suite_scaled(scale)
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<_> = suite().iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}`; available: {}", names.join(", "))
        })
}

/// The sweep runner every cell-running subcommand starts from: the
/// platform scaled by `--scale`, with `--switchless`, `--pf`, `--faults`
/// and `--cell-budget` applied, `reps` repetitions per cell.
fn suite_runner(flags: &BTreeMap<String, String>, reps: usize) -> Result<SuiteRunner, String> {
    let mut env = EnvConfig::scaled(ExecMode::Vanilla, parse_scale(flags)?);
    if let Some(w) = flags.get("switchless") {
        let workers: usize = w
            .parse()
            .map_err(|_| "--switchless needs a number".to_owned())?;
        env = env.with_switchless(workers);
    }
    if flags.contains_key("pf") {
        env = env.with_protected_files();
    }
    let mut runner = SuiteRunner::new(RunnerConfig {
        env,
        repetitions: reps,
    });
    if let Some(spec) = flags.get("faults") {
        runner = runner.faults(FaultPlan::parse(spec)?);
    }
    if let Some(b) = flags.get("cell-budget") {
        runner = runner.cell_budget(b.parse().map_err(|_| "bad --cell-budget".to_owned())?);
    }
    Ok(runner)
}

fn print_report(r: &RunReport) {
    println!("workload : {}", r.workload);
    println!("mode     : {}", r.mode);
    println!("setting  : {}", r.setting);
    println!(
        "runtime  : {} cycles ({:.3} s at {:.1} GHz)",
        r.runtime_cycles,
        r.runtime_seconds(),
        r.clock_ghz()
    );
    println!("ops      : {}", r.output.ops);
    println!("checksum : {:#018x}", r.output.checksum);
    println!("-- hardware counters --");
    for (name, v) in r.counters.fields() {
        println!("  {name:<16} {}", humanize(v));
    }
    println!("-- sgx counters --");
    for (name, v) in r.sgx.fields() {
        println!("  {name:<16} {}", humanize(v));
    }
    if let Some(s) = r.libos_startup {
        println!("-- libos startup (excluded from runtime) --");
        println!(
            "  ecalls {} | ocalls {} | aex {} | evictions {} | loadbacks {}",
            s.ecalls,
            s.ocalls,
            s.aex_exits,
            humanize(s.epc_evictions),
            s.epc_loadbacks
        );
    }
    for (name, v) in &r.output.metrics {
        println!("metric   : {name} = {v:.2}");
    }
    println!("-- cycle breakdown (summed over threads) --");
    let mut chart = BarChart::new("cycles by category", 40);
    for (name, v) in cycle_breakdown(r) {
        chart.push(name, v as f64);
    }
    println!("{chart}");
}

fn cmd_list() -> Result<(), String> {
    let mut table = ReportTable::new(
        "SGXGauge workloads (Table 2)",
        &["workload", "property", "modes", "low", "medium", "high"],
    );
    for wl in suite() {
        let modes: Vec<String> = ExecMode::ALL
            .iter()
            .filter(|m| wl.supports(**m))
            .map(|m| m.to_string())
            .collect();
        table.push_row(vec![
            wl.name().to_owned(),
            wl.property().to_owned(),
            modes.join("+"),
            wl.spec(InputSetting::Low).params,
            wl.spec(InputSetting::Medium).params,
            wl.spec(InputSetting::High).params,
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_run(flags: &BTreeMap<String, String>, scale: u64) -> Result<(), String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let mode = parse_mode(flags.get("mode").ok_or("--mode is required")?)?;
    let setting = parse_setting(flags.get("setting").ok_or("--setting is required")?)?;
    let wl = find_workload(scale, name)?;
    let r = suite_runner(flags, 1)?
        .runner()
        .run_once(wl.as_ref(), mode, setting)
        .map_err(|e| e.to_string())?;
    print_report(&r);
    Ok(())
}

fn cmd_compare(flags: &BTreeMap<String, String>, scale: u64) -> Result<(), String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let setting = parse_setting(flags.get("setting").ok_or("--setting is required")?)?;
    let wl = find_workload(scale, name)?;
    let suite_runner = suite_runner(flags, 1)?;
    let runner = suite_runner.runner();
    let vanilla = runner
        .run_once(wl.as_ref(), ExecMode::Vanilla, setting)
        .map_err(|e| e.to_string())?;
    let mut chart = BarChart::new("runtime overhead vs Vanilla (x)", 40);
    let mut table = ReportTable::new(
        &format!("{} ({setting}) across modes, ratios vs Vanilla", wl.name()),
        &[
            "mode",
            "runtime",
            "overhead",
            "dtlb",
            "walk",
            "stall",
            "llc",
            "evictions",
        ],
    );
    for mode in ExecMode::ALL {
        if !wl.supports(mode) {
            continue;
        }
        let r = if mode == ExecMode::Vanilla {
            vanilla.clone()
        } else {
            runner
                .run_once(wl.as_ref(), mode, setting)
                .map_err(|e| e.to_string())?
        };
        let ratio = RatioRow::from_reports(&r, &vanilla);
        chart.push(&mode.to_string(), ratio.overhead);
        table.push_row(vec![
            mode.to_string(),
            humanize(r.runtime_cycles),
            format!("{:.2}x", ratio.overhead),
            format!("{:.2}x", ratio.dtlb_misses),
            format!("{:.2}x", ratio.walk_cycles),
            format!("{:.2}x", ratio.stall_cycles),
            format!("{:.2}x", ratio.llc_misses),
            humanize(r.sgx.epc_evictions),
        ]);
    }
    println!("{table}");
    println!("{chart}");
    Ok(())
}

fn cmd_suite(flags: &BTreeMap<String, String>, scale: u64) -> Result<(), String> {
    let setting = flags
        .get("setting")
        .map_or(Ok(InputSetting::Low), |s| parse_setting(s))?;
    let reps: usize = flags
        .get("reps")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|_| "bad --reps")?;
    let jobs = parse_jobs(flags)?;
    let modes: Vec<ExecMode> = match flags.get("modes") {
        None => ExecMode::ALL.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(parse_mode)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let retries: usize = flags
        .get("retries")
        .map_or(Ok(0), |s| s.parse())
        .map_err(|_| "bad --retries")?;
    let mut suite_runner = suite_runner(flags, reps.max(1))?
        .modes(&modes)
        .settings(&[setting])
        .threads(jobs)
        .retries(retries);
    if let Some(max) = flags.get("max-quarantine") {
        let max: usize = max.parse().map_err(|_| "bad --max-quarantine")?;
        suite_runner = suite_runner.max_quarantine(max);
    }
    let io = artifact_backend(flags)?;
    let workloads = suite_scaled(scale);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let checkpoint = flags.get("checkpoint").map(PathBuf::from);
    let resume = flags.get("resume").map(PathBuf::from);
    let sweep = match (&checkpoint, &resume) {
        (Some(c), Some(r)) if c != r => {
            return Err("--checkpoint and --resume must name the same file".to_owned())
        }
        (_, Some(path)) => suite_runner
            .run_with_checkpoint_io(&refs, path, true, io.as_ref())
            .map_err(|e| e.to_string())?,
        (Some(path), None) => suite_runner
            .run_with_checkpoint_io(&refs, path, false, io.as_ref())
            .map_err(|e| e.to_string())?,
        (None, None) => suite_runner.try_run(&refs).map_err(|e| e.to_string())?,
    };
    for (cell, err) in sweep.errors() {
        if cell.attempts > 1 {
            eprintln!(
                "{} in {}: {err} (after {} attempts)",
                cell.workload, cell.cell.mode, cell.attempts
            );
        } else {
            eprintln!("{} in {}: {err}", cell.workload, cell.cell.mode);
        }
    }
    let quarantine = quarantine_table(&sweep);
    if !quarantine.rows.is_empty() {
        eprintln!("{quarantine}");
    }
    let mut table = ReportTable::new(
        &format!("Suite at {setting} (scale 1/{scale})"),
        &[
            "workload",
            "mode",
            "runtime",
            "dtlb_misses",
            "epc_evictions",
            "ecalls",
            "ocalls",
        ],
    );
    for cell in &sweep.cells {
        let Ok(r) = &cell.result else { continue };
        table.push_row(vec![
            cell.workload.to_owned(),
            cell.cell.mode.to_string(),
            humanize(r.runtime_cycles),
            humanize(r.counters.dtlb_misses),
            humanize(r.sgx.epc_evictions),
            humanize(r.sgx.ecalls),
            humanize(r.sgx.ocalls + r.sgx.switchless_ocalls),
        ]);
    }
    println!("{table}");
    if reps > 1 {
        println!(
            "{}",
            sweep_table("Suite aggregate (geomean over reps)", &sweep)
        );
    }
    if let Some(out) = flags.get("report") {
        let path = PathBuf::from(out);
        artifact_io::write_atomic_with(io.as_ref(), &path, &artifact_io::seal(&table.render()))
            .map_err(|e| e.to_string())?;
        println!("[report] {}", path.display());
    }
    Ok(())
}

/// The artifact I/O backend the CLI should publish through: the real
/// filesystem, or a deterministic chaos wrapper when `--io-faults` is given.
fn artifact_backend(flags: &BTreeMap<String, String>) -> Result<Box<dyn ArtifactIo>, String> {
    match flags.get("io-faults") {
        None => Ok(Box::new(RealFs)),
        Some(spec) => {
            let plan = IoFaultPlan::parse(spec)?;
            if plan.is_empty() {
                Ok(Box::new(RealFs))
            } else {
                Ok(Box::new(ChaosFs::over_real(plan)))
            }
        }
    }
}

fn cmd_trace(name: &str, flags: &BTreeMap<String, String>, scale: u64) -> Result<(), String> {
    let mode = parse_mode(flags.get("mode").ok_or("--mode is required")?)?;
    let setting = parse_setting(flags.get("setting").ok_or("--setting is required")?)?;
    let jobs = parse_jobs(flags)?;
    let mut tc = TraceConfig::default();
    if let Some(s) = flags.get("sample") {
        tc.sample_interval_cycles = s.parse().map_err(|_| "bad --sample".to_owned())?;
    }
    if let Some(s) = flags.get("capacity") {
        tc.capacity = s.parse().map_err(|_| "bad --capacity".to_owned())?;
        if tc.capacity == 0 {
            return Err("--capacity must be at least 1".to_owned());
        }
    }
    let wl = find_workload(scale, name)?;
    // Route through the sweep executor: traces come from per-cell private
    // sinks keyed on simulated clocks, so `--jobs` provably cannot change
    // a single byte of the output.
    let suite_runner = suite_runner(flags, 1)?
        .modes(&[mode])
        .settings(&[setting])
        .threads(jobs)
        .tracing(tc);
    let sweep = suite_runner.run(&[wl.as_ref()]);
    let cell = sweep.cells.first().ok_or("empty sweep")?;
    let r = cell.result.as_ref().map_err(|e| e.to_string())?;
    let sink = r
        .trace
        .as_ref()
        .ok_or("run produced no trace (internal error)")?;
    let timeline = sink.timeline();

    println!(
        "workload : {} | mode {} | setting {}",
        r.workload, r.mode, r.setting
    );
    println!(
        "runtime  : {} cycles ({:.3} s at {:.1} GHz)",
        r.runtime_cycles,
        r.runtime_seconds(),
        r.clock_ghz()
    );
    println!(
        "trace    : {} records retained of {} emitted ({} dropped), {} timeline points",
        humanize(sink.len() as u64),
        humanize(sink.emitted()),
        humanize(sink.dropped()),
        timeline.len()
    );
    let mut table = ReportTable::new(
        "Per-phase cycle attribution",
        &[
            "phase",
            "cycles",
            "app",
            "transition",
            "paging",
            "mee",
            "epc_faults",
        ],
    );
    for p in sink.phase_attribution() {
        table.push_row(vec![
            p.phase.clone(),
            humanize(p.total_cycles()),
            humanize(p.app_cycles),
            humanize(p.transition_cycles),
            humanize(p.paging_cycles),
            humanize(p.mee_cycles),
            humanize(p.epc_faults),
        ]);
    }
    println!("{table}");
    if let Some(out) = flags.get("out") {
        let path = PathBuf::from(out);
        let io = artifact_backend(flags)?;
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase);
        let body = match ext.as_deref() {
            Some("jsonl") => sink.render_jsonl(),
            Some("csv") => timeline_table(r, &timeline).render(),
            _ => {
                return Err(format!(
                    "--out `{out}`: use a .jsonl (event stream) or .csv (timeline) extension"
                ))
            }
        };
        artifact_io::write_atomic_with(io.as_ref(), &path, &body).map_err(|e| e.to_string())?;
        println!("[out] {}", path.display());
    }
    Ok(())
}

/// The sampled counter timeline of a traced report as a CSV-ready table.
fn timeline_table(r: &RunReport, timeline: &[TimelinePoint]) -> ReportTable {
    let mut headers = vec!["cycles"];
    if let Some(first) = timeline.first() {
        headers.extend(first.snap.fields().map(|(name, _)| name));
    }
    let mut table = ReportTable::new(
        &format!("{} {} {} counter timeline", r.workload, r.mode, r.setting),
        &headers,
    );
    for point in timeline {
        let mut row = vec![point.cycles.to_string()];
        row.extend(point.snap.fields().map(|(_, v)| v.to_string()));
        table.push_row(row);
    }
    table
}

/// One completed cell of the co-tenancy sweep: the per-tenant reports
/// plus the cell's rendered JSONL trace (empty when untraced).
struct CotenancyCell {
    /// The `cell` column: `0/Native/High/0/t{tenants}a{antagonists}`.
    key: String,
    reports: Vec<TenantReport>,
    jsonl: String,
}

/// Runs one co-tenancy cell: an all-resident victim plus `antagonists`
/// EPC-thrashing neighbors on one shared host. Pure function of its
/// arguments — the sweep fans cells across threads and aggregates in
/// grid order, so `--jobs` provably cannot change a byte of output.
fn run_cotenancy_cell(
    antagonists: u8,
    wave: u64,
    epc_pages: u64,
    ops: u64,
    traced: bool,
) -> Result<CotenancyCell, String> {
    let key = format!("0/Native/High/0/t{}a{antagonists}", antagonists + 1);
    let thrash_pages = epc_pages * 2;
    let victim = TenantSpec {
        name: "victim".to_owned(),
        enclave_bytes: 32 * PAGE_SIZE,
        content_bytes: 0,
        heap_bytes: 8 * PAGE_SIZE,
    };
    let antagonist_specs = (0..antagonists).map(|i| TenantSpec {
        name: format!("antagonist{i}"),
        enclave_bytes: (thrash_pages + 16) * PAGE_SIZE,
        content_bytes: 0,
        heap_bytes: thrash_pages * PAGE_SIZE,
    });
    let mut host = Host::builder()
        .sgx(SgxConfig::with_tiny_epc(
            usize::try_from(epc_pages).map_err(|_| "bad --epc-pages")?,
            4,
        ))
        .wave_cycles(wave)
        .build(std::iter::once(victim).chain(antagonist_specs))
        .map_err(|e| e.to_string())?;
    if traced {
        host.machine_mut()
            .mem_mut()
            .set_trace_sink(sgxgauge::trace::TraceSink::with_config(1 << 14, 0));
    }
    let victim_ops: Vec<TenantOp> = (0..ops)
        .flat_map(|i| {
            [
                TenantOp::Access {
                    offset: (i % 8) * PAGE_SIZE,
                    len: 64,
                    write: false,
                },
                TenantOp::Compute { cycles: 500 },
            ]
        })
        .collect();
    host.push_ops(TenantId(0), victim_ops);
    for t in 0..antagonists {
        // Offset each antagonist's stream so they sweep different parts
        // of the shared pool in the same wave.
        let phase = u64::from(t) * 17;
        let antagonist_ops: Vec<TenantOp> = (0..ops)
            .map(|i| TenantOp::Access {
                offset: ((i + phase) % thrash_pages) * PAGE_SIZE,
                len: 64,
                write: true,
            })
            .collect();
        host.push_ops(TenantId(usize::from(t) + 1), antagonist_ops);
    }
    host.run().map_err(|e| e.to_string())?;
    host.machine()
        .check_invariants()
        .map_err(|e| format!("cell {key}: {e}"))?;
    let jsonl = host
        .machine_mut()
        .mem_mut()
        .take_trace_sink()
        .map(|sink| sink.render_jsonl())
        .unwrap_or_default();
    Ok(CotenancyCell {
        key,
        reports: host.tenant_reports(),
        jsonl,
    })
}

fn cmd_cotenancy(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let tenants: u8 = flags
        .get("tenants")
        .map_or(Ok(4), |s| s.parse())
        .map_err(|_| "bad --tenants (1..=255)")?;
    if tenants == 0 {
        return Err("--tenants must be at least 1 (the victim)".to_owned());
    }
    let wave: u64 = flags
        .get("wave")
        .map_or(Ok(5_000), |s| s.parse())
        .map_err(|_| "bad --wave")?;
    let epc_pages: u64 = flags
        .get("epc-pages")
        .map_or(Ok(64), |s| s.parse())
        .map_err(|_| "bad --epc-pages")?;
    if epc_pages < 16 {
        return Err("--epc-pages must be at least 16".to_owned());
    }
    let ops: u64 = flags
        .get("ops")
        .map_or(Ok(1_000), |s| s.parse())
        .map_err(|_| "bad --ops")?;
    if ops == 0 {
        return Err("--ops must be at least 1".to_owned());
    }
    let jobs = parse_jobs(flags)?;
    let traced = flags.contains_key("timeline");

    // Fan the cells (antagonist counts 0..tenants) across workers;
    // aggregate strictly in grid order.
    let cells = run_grid(usize::from(tenants), jobs, |i| {
        run_cotenancy_cell(i as u8, wave, epc_pages, ops, traced)
    })?;

    // Noisy-neighbor curve: victim slowdown is relative to the
    // antagonist-free cell, which is always grid index 0.
    let quiet = cells[0].reports[0].cycles.max(1);
    let mut table = ReportTable::new(
        &format!(
            "Co-tenancy noisy-neighbor sweep (epc {epc_pages} pages, wave {wave} cycles, \
             {ops} ops/tenant)"
        ),
        &[
            "cell",
            "tenant",
            "cycles",
            "waves",
            "slowdown",
            "resident",
            "allocs",
            "loadbacks",
            "victimizations",
            "charged_faults",
            "charged_evictions",
            "fault_rate",
        ],
    );
    for cell in &cells {
        for r in &cell.reports {
            let slowdown = if r.tenant == TenantId(0) {
                format!("{:.4}", r.cycles as f64 / quiet as f64)
            } else {
                "-".to_owned()
            };
            table.push_row(vec![
                cell.key.clone(),
                r.name.clone(),
                r.cycles.to_string(),
                r.waves.to_string(),
                slowdown,
                r.epc.resident_frames.to_string(),
                r.epc.allocs.to_string(),
                r.epc.loadbacks.to_string(),
                r.epc.victimizations.to_string(),
                r.charged.epc_faults.to_string(),
                r.charged.epc_evictions.to_string(),
                format!("{:.4}", r.charged.epc_faults as f64 / ops as f64),
            ]);
        }
    }
    emit_grid(
        flags,
        &table,
        cells.iter().map(|c| (c.key.as_str(), c.jsonl.as_str())),
    )
}

/// Prints a grid command's table, writes it sealed to `--out`, and
/// writes the per-cell JSONL streams to `--timeline`, concatenated in
/// grid order, each preceded by a `{"cell":…}` line naming its cell.
fn emit_grid<'a, S: AsRef<str>>(
    flags: &BTreeMap<String, String>,
    table: &ReportTable,
    streams: impl Iterator<Item = (&'a str, S)>,
) -> Result<(), String> {
    println!("{table}");
    let io = artifact_backend(flags)?;
    if let Some(out) = flags.get("out") {
        let path = PathBuf::from(out);
        artifact_io::write_atomic_with(io.as_ref(), &path, &artifact_io::seal(&table.render()))
            .map_err(|e| e.to_string())?;
        println!("[report] {}", path.display());
    }
    if let Some(out) = flags.get("timeline") {
        let path = PathBuf::from(out);
        let mut body = String::new();
        for (key, jsonl) in streams {
            body.push_str(&format!("{{\"cell\":\"{key}\"}}\n"));
            body.push_str(jsonl.as_ref());
        }
        artifact_io::write_atomic_with(io.as_ref(), &path, &body).map_err(|e| e.to_string())?;
        println!("[timeline] {}", path.display());
    }
    Ok(())
}

fn cmd_campaign(config_path: &str, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let text = RealFs
        .read(std::path::Path::new(config_path))
        .map_err(|e| e.to_string())?;
    let cfg = CampaignConfig::parse(&text)?;
    let out = flags
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("campaign-{}", cfg.name)));
    if let Some(soak) = flags.get("soak") {
        let kills: usize = soak.parse().map_err(|_| "bad --soak")?;
        let outcome = run_soak(&cfg, &out, kills).map_err(|e| e.to_string())?;
        println!(
            "soak     : {} kill/resume cycles fired (requested {kills})",
            outcome.kills_fired
        );
        println!(
            "cycles   : golden {} | storm {}",
            humanize(outcome.golden_cycles),
            humanize(outcome.storm_cycles)
        );
        if outcome.converged {
            println!("converged: every compared artifact is byte-identical to golden");
        } else {
            for m in &outcome.mismatches {
                eprintln!("mismatch : {m}");
            }
            return Err(format!(
                "soak did not converge: {} artifacts diverged",
                outcome.mismatches.len()
            ));
        }
        if outcome.kills_fired < kills {
            return Err(format!(
                "only {} of {kills} scheduled kills fired — enlarge the campaign",
                outcome.kills_fired
            ));
        }
        return Ok(());
    }
    let report = run_campaign(&cfg, &out, true, None).map_err(|e| e.to_string())?;
    let mut table = ReportTable::new(
        &format!("campaign {}", cfg.name),
        &[
            "stage",
            "executed",
            "adopted",
            "shed",
            "quarantined",
            "runtime_cycles",
            "backoff_cycles",
        ],
    );
    for s in &report.stages {
        table.push_row(vec![
            if s.skipped {
                format!("{} (skipped)", s.name)
            } else {
                s.name.clone()
            },
            s.executed.to_string(),
            s.adopted.to_string(),
            s.shed.to_string(),
            s.quarantined.to_string(),
            humanize(s.runtime_cycles),
            humanize(s.backoff_cycles),
        ]);
    }
    println!("{table}");
    let h = report.health;
    println!(
        "health   : retry spend {} cycles | degraded {} | breaker trips {} | cells shed {}",
        humanize(h.retry_spent_cycles),
        h.degraded,
        h.breaker_trips,
        h.cells_shed
    );
    println!("artifacts: {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // `trace` and `campaign` take a positional argument before the flags.
    let (positional, flag_args) = if cmd == "trace" || cmd == "campaign" {
        match args.get(1).filter(|a| !a.starts_with("--")) {
            Some(name) => (Some(name.clone()), &args[2..]),
            None => {
                eprintln!(
                    "error: {cmd} needs a {}",
                    if cmd == "trace" {
                        "workload name"
                    } else {
                        "config file path"
                    }
                );
                return usage();
            }
        }
    } else {
        (None, &args[1..])
    };
    let (flags, scale) =
        match parse_flags(cmd, flag_args).and_then(|f| parse_scale(&f).map(|scale| (f, scale))) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
    let result = match cmd.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&flags, scale),
        "compare" => cmd_compare(&flags, scale),
        "suite" => cmd_suite(&flags, scale),
        "trace" => cmd_trace(positional.as_deref().unwrap_or_default(), &flags, scale),
        "campaign" => cmd_campaign(positional.as_deref().unwrap_or_default(), &flags),
        "cotenancy" => cmd_cotenancy(&flags),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
