//! `deterrent-campaign` — run a netlists × θ × seeds sweep from the CLI.
//!
//! The deterministic report (TSV by default, `--format markdown` for a
//! table) goes to **stdout** — byte-identical at any thread count and
//! across warm cache restarts, so CI can `cmp` two runs. Progress lines
//! and the per-stage `[store]` cache counters go to **stderr**.
//!
//! Flags:
//!
//! | flag | meaning | default |
//! |---|---|---|
//! | `--netlists A,B` | benchmark names (see `campaign::profile_by_name`) | `c2670,c5315` |
//! | `--scale N` | divisor applied to the paper-sized profiles | `20` |
//! | `--thetas A,B` | rareness thresholds θ | `0.15,0.2` |
//! | `--seeds A,B` | master pipeline seeds | `1,2` |
//! | `--episodes N` | PPO episodes per cell | `40` |
//! | `--threads N` | campaign workers (0 = `DETERRENT_THREADS` / cores) | `0` |
//! | `--cell-threads N` | session workers inside each cell | `1` |
//! | `--cache-dir DIR` | persistent cache (else `DETERRENT_CACHE_DIR`) | memory-only |
//! | `--cache-max-bytes N[k\|m\|g]` | cache budget (else `DETERRENT_CACHE_MAX_BYTES`) | unbounded |
//! | `--per-stage-max N[k\|m\|g]` | per-stage-directory budget | unbounded |
//! | `--format tsv\|markdown` | report format on stdout | `tsv` |
//! | `--quiet` | suppress per-cell progress on stderr | off |
//! | `--expect-warm` | assert every stage was served from the cache | off |
//! | `--checkpoint FILE` | record completed cells; resume skips them | off |
//! | `--max-retries N` | retries per cell after a failed attempt | `2` |
//! | `--cell-deadline-secs F` | per-attempt wall-clock budget | unlimited |
//! | `--max-failures N` | cancel unstarted cells after N ≥ 1 terminal failures | never |
//! | `--fail-fast` | shorthand for `--max-failures 1` | off |
//! | `--fault-plan SPEC` | inject faults (else `DETERRENT_FAULT_PLAN`) | none |
//! | `--trace-out FILE` | machine-readable JSONL trace (else `DETERRENT_TRACE_OUT`) | off |
//! | `--metrics-out FILE` | Prometheus-text metric dump after the run | off |
//!
//! Telemetry is strictly out-of-band: arming `--trace-out` /
//! `--metrics-out` changes nothing on stdout, so a traced report still
//! `cmp`s clean against an untraced one.
//!
//! The exit code is `0` only when every cell recovered (outcome `ok` or
//! `retried:N`); any `timeout`/`failed` row exits `1`, flag errors exit `2`
//! before any stage runs. The grid flags parse into a `campaign::PlanSpec`,
//! so an unknown netlist, an empty axis, or a θ outside `(0, 0.5]` is a flag
//! error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use campaign::{CampaignPlan, PlanSpec, RunPolicy, StderrTraceSink};
use deterrent_core::{parse_bytes, ArtifactStore, FaultPlan};
use exec::Exec;
use telemetry::{JsonlSink, Telemetry, TraceSink, TRACE_OUT_ENV_VAR};

struct Args {
    threads: usize,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    per_stage_max: Option<u64>,
    markdown: bool,
    quiet: bool,
    expect_warm: bool,
    checkpoint: Option<PathBuf>,
    max_retries: u32,
    cell_deadline: Option<Duration>,
    max_failures: Option<usize>,
    fault_plan: Option<FaultPlan>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_dir: None,
            cache_max_bytes: None,
            per_stage_max: None,
            markdown: false,
            quiet: false,
            expect_warm: false,
            checkpoint: None,
            max_retries: RunPolicy::default().max_retries,
            cell_deadline: None,
            max_failures: None,
            fault_plan: None,
            trace_out: None,
            metrics_out: None,
        }
    }
}

fn parse_list<T, F: Fn(&str) -> Option<T>>(raw: &str, parse: F) -> Option<Vec<T>> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Option<Vec<T>>>()
        .filter(|v| !v.is_empty())
}

fn parse_args() -> Result<(Args, CampaignPlan), String> {
    let mut args = Args::default();
    let mut spec = PlanSpec::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--netlists" => {
                spec.netlists = parse_list(&value(&mut i)?, |s| Some(s.to_string()))
                    .ok_or("bad --netlists (comma-separated benchmark names)")?;
            }
            "--scale" => spec.scale = value(&mut i)?.parse().map_err(|_| "bad --scale")?,
            "--thetas" => {
                spec.thetas = parse_list(&value(&mut i)?, |s| s.parse().ok())
                    .ok_or("bad --thetas (comma-separated floats)")?;
            }
            "--seeds" => {
                spec.seeds = parse_list(&value(&mut i)?, |s| s.parse().ok())
                    .ok_or("bad --seeds (comma-separated integers)")?;
            }
            "--episodes" => {
                spec.episodes = value(&mut i)?.parse().map_err(|_| "bad --episodes")?;
            }
            "--threads" => args.threads = value(&mut i)?.parse().map_err(|_| "bad --threads")?,
            "--cell-threads" => {
                spec.cell_threads = value(&mut i)?.parse().map_err(|_| "bad --cell-threads")?;
            }
            "--cache-dir" => args.cache_dir = Some(value(&mut i)?),
            "--cache-max-bytes" => {
                args.cache_max_bytes =
                    Some(parse_bytes(&value(&mut i)?).ok_or("bad --cache-max-bytes")?);
            }
            "--per-stage-max" => {
                args.per_stage_max =
                    Some(parse_bytes(&value(&mut i)?).ok_or("bad --per-stage-max")?);
            }
            "--format" => {
                args.markdown = match value(&mut i)?.as_str() {
                    "tsv" => false,
                    "markdown" | "md" => true,
                    _ => return Err("bad --format (tsv|markdown)".into()),
                };
            }
            "--quiet" => args.quiet = true,
            "--expect-warm" => args.expect_warm = true,
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value(&mut i)?)),
            "--max-retries" => {
                args.max_retries = value(&mut i)?.parse().map_err(|_| "bad --max-retries")?;
            }
            "--cell-deadline-secs" => {
                let secs: f64 = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --cell-deadline-secs")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("bad --cell-deadline-secs (finite, non-negative)".into());
                }
                args.cell_deadline = Some(Duration::from_secs_f64(secs));
            }
            "--fail-fast" => args.max_failures = Some(1),
            "--max-failures" => {
                let limit: usize = value(&mut i)?.parse().map_err(|_| "bad --max-failures")?;
                if limit == 0 {
                    return Err("bad --max-failures (at least 1)".into());
                }
                args.max_failures = Some(limit);
            }
            "--fault-plan" => args.fault_plan = Some(FaultPlan::parse(&value(&mut i)?)?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value(&mut i)?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value(&mut i)?)),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.fault_plan.is_none() {
        args.fault_plan = FaultPlan::from_env()?;
    }
    if args.trace_out.is_none() {
        if let Ok(path) = std::env::var(TRACE_OUT_ENV_VAR) {
            if !path.trim().is_empty() {
                args.trace_out = Some(PathBuf::from(path));
            }
        }
    }
    let plan = spec.to_plan()?;
    Ok((args, plan))
}

fn main() -> ExitCode {
    let (args, mut plan) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("deterrent-campaign: {message}");
            return ExitCode::from(2);
        }
    };

    let base = &mut plan.base;
    if let Some(dir) = &args.cache_dir {
        base.cache_dir = Some(dir.into());
    }
    if let Some(max_bytes) = args.cache_max_bytes {
        base.cache_policy.max_bytes = Some(max_bytes);
    }
    base.cache_policy.per_stage_max = args.per_stage_max;

    // Flag → env → memory-only, exactly like sessions resolve it. The
    // fault plan (if any) is shared between the disk tier and the cell
    // failure domains, so one seeded schedule drives both.
    let store = match base.resolved_cache_dir() {
        Some(dir) => ArtifactStore::with_disk_policy_faults(
            dir,
            base.resolved_cache_policy(),
            args.fault_plan.clone(),
        ),
        None => ArtifactStore::new(),
    };

    eprintln!(
        "[campaign] {} cells ({} netlists × {} θ × {} seeds)",
        plan.len(),
        plan.netlists.len(),
        plan.thetas.len(),
        plan.seeds.len()
    );

    // Progress, traces, and metrics all flow through one telemetry
    // pipeline: the stderr sink renders the classic progress lines, the
    // JSONL sink records the machine-readable trace. With neither armed
    // the handle is disabled and the run pays nothing.
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
    if !args.quiet {
        sinks.push(Box::new(StderrTraceSink::new()));
    }
    if let Some(path) = &args.trace_out {
        match JsonlSink::create(path) {
            Ok(sink) => sinks.push(Box::new(sink)),
            Err(e) => {
                eprintln!("deterrent-campaign: cannot create {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let tele = if sinks.is_empty() && args.metrics_out.is_none() {
        Telemetry::disabled()
    } else {
        Telemetry::new(sinks)
    };

    let policy = RunPolicy {
        max_retries: args.max_retries,
        cell_deadline: args.cell_deadline,
        max_failures: args.max_failures,
        faults: args.fault_plan.clone(),
        checkpoint: args.checkpoint.clone(),
        telemetry: tele.clone(),
    };
    let mut exec = Exec::new(args.threads);
    exec.set_telemetry(tele.clone(), None);
    let report = plan.run_with_policy(&store, &exec, &policy);
    eprintln!("[campaign] outcomes: {}", report.outcome_summary());
    if let Some(faults) = &args.fault_plan {
        eprintln!("[campaign] injected faults: {:?}", faults.counts());
    }

    print!(
        "{}",
        if args.markdown {
            report.to_markdown()
        } else {
            report.to_tsv()
        }
    );
    eprint!("{}", store.summary());

    if tele.is_enabled() {
        tele.flush_metrics();
        if let Some(path) = &args.metrics_out {
            let text = tele.metrics().map(|m| m.render_text()).unwrap_or_default();
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("deterrent-campaign: cannot write {}: {e}", path.display());
            }
        }
        tele.flush();
    }

    if args.expect_warm {
        let counters = store.counters();
        if store.disk_dir().is_none() {
            eprintln!("[campaign] --expect-warm requires --cache-dir (or DETERRENT_CACHE_DIR)");
            return ExitCode::FAILURE;
        }
        if counters.total_misses() != 0 || counters.total_disk_corrupt() != 0 {
            eprintln!("[campaign] --expect-warm failed: a stage recomputed or hit a corrupt file");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[campaign] --expect-warm satisfied: {} disk hit(s), 0 recomputations",
            counters.total_disk_hits()
        );
    }
    if !report.all_recovered() {
        eprintln!("[campaign] unrecovered cell failures (see the outcome column)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
