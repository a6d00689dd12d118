//! `deterrent-cache` — inspect and maintain a persistent artifact cache.
//!
//! ```text
//! deterrent-cache stats  [--cache-dir DIR] [--max-bytes N[k|m|g]] [--json]
//! deterrent-cache gc     [--cache-dir DIR] [--max-bytes N[k|m|g]] [--per-stage-max N[k|m|g]]
//! deterrent-cache verify [--cache-dir DIR] [--no-heal] [--json]
//! ```
//!
//! `stats` also estimates the last campaign's working set from the
//! per-stage file counts and sizes, and warns on stderr when the resolved
//! byte budget (`--max-bytes`, else `DETERRENT_CACHE_MAX_BYTES`) is below
//! it — a budget in that range churns the cache on every rerun (the LRU
//! scan anomaly). The estimate is also in the `--json` output as
//! `working_set_estimate`.
//!
//! `--json` switches `stats` / `verify` from the human table to a single
//! JSON object on stdout, built from the same report structs (the exit
//! codes are unchanged).
//!
//! The cache directory comes from `--cache-dir`, else the
//! `DETERRENT_CACHE_DIR` environment variable. `gc` budgets come from the
//! flags, else `DETERRENT_CACHE_MAX_BYTES`; with no budget at all, `gc`
//! still prunes corrupt files and stale ones (torn-write temp files, and
//! the `.lru` sidecars and `gen.ctr` file older format versions kept).
//!
//! Exit codes — deliberately distinct so CI can gate on them:
//!
//! * `0` — clean: every artifact file's header and payload checksum
//!   validated (or, for `gc`/`stats`, the operation completed).
//! * `1` — `verify` found corrupt files. With healing (the default) they
//!   were deleted and will simply recompute on the next run; `--no-heal`
//!   only reports them.
//! * `2` — an I/O error prevented inspecting the cache (unreadable
//!   directory or file, missing `--cache-dir`/`DETERRENT_CACHE_DIR`, bad
//!   flags). Corruption was *not* established.

use std::path::PathBuf;
use std::process::ExitCode;

use deterrent_core::cache::{cache_stats, gc, verify, CachePolicy};
use deterrent_core::{parse_bytes, DeterrentConfig};
use telemetry::{obj, Value};

struct Args {
    command: String,
    cache_dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    per_stage_max: Option<u64>,
    heal: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let command = argv
        .get(1)
        .filter(|c| ["stats", "gc", "verify"].contains(&c.as_str()))
        .ok_or("usage: deterrent-cache <stats|gc|verify> [--cache-dir DIR] ...")?
        .clone();
    let mut args = Args {
        command,
        cache_dir: None,
        max_bytes: None,
        per_stage_max: None,
        heal: true,
        json: false,
    };
    let mut i = 2;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value(&mut i)?)),
            "--max-bytes" => {
                args.max_bytes = Some(parse_bytes(&value(&mut i)?).ok_or("bad --max-bytes")?);
            }
            "--per-stage-max" => {
                args.per_stage_max =
                    Some(parse_bytes(&value(&mut i)?).ok_or("bad --per-stage-max")?);
            }
            "--no-heal" => args.heal = false,
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("deterrent-cache: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(dir) = args.cache_dir.clone().or_else(|| {
        std::env::var_os(DeterrentConfig::CACHE_DIR_ENV)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    }) else {
        eprintln!(
            "deterrent-cache: no cache directory (--cache-dir or {})",
            DeterrentConfig::CACHE_DIR_ENV
        );
        return ExitCode::from(2);
    };

    match args.command.as_str() {
        "stats" => match cache_stats(&dir) {
            Ok(stats) => {
                // Budget to check against: the explicit flag, else the
                // environment the next run would resolve.
                let budget = args.max_bytes.or_else(|| {
                    std::env::var(DeterrentConfig::CACHE_MAX_BYTES_ENV)
                        .ok()
                        .as_deref()
                        .and_then(parse_bytes)
                });
                let estimate = stats.working_set_estimate();
                if args.json {
                    // The same struct the table renders from, as one JSON
                    // object per invocation.
                    let value = obj([
                        ("cache_dir", Value::str(dir.display().to_string())),
                        (
                            "stages",
                            Value::Arr(
                                stats
                                    .stages
                                    .iter()
                                    .map(|usage| {
                                        obj([
                                            ("stage", Value::str(usage.stage.name())),
                                            ("files", Value::u64(usage.files)),
                                            ("bytes", Value::u64(usage.bytes)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("total_files", Value::u64(stats.total_files())),
                        ("total_bytes", Value::u64(stats.total_bytes())),
                        ("working_set_estimate", Value::u64(estimate)),
                    ]);
                    println!("{}", value.to_json());
                } else {
                    println!("cache {}", dir.display());
                    for usage in stats.stages {
                        println!(
                            "  {:<12} {:>6} file(s) {:>12} bytes",
                            usage.stage.name(),
                            usage.files,
                            usage.bytes
                        );
                    }
                    println!(
                        "  {:<12} {:>6} file(s) {:>12} bytes",
                        "total",
                        stats.total_files(),
                        stats.total_bytes()
                    );
                }
                if budget.is_some_and(|max_bytes| max_bytes < estimate) {
                    eprintln!(
                        "deterrent-cache: warning: max_bytes {} is below the last \
                         campaign's estimated working set ({estimate} bytes) — reruns \
                         will churn the cache (LRU scan anomaly); raise the budget or \
                         use --per-stage-max to shed only the train stage",
                        budget.unwrap_or(0)
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("deterrent-cache: stats failed: {e}");
                ExitCode::from(2)
            }
        },
        "gc" => {
            let env_budget = std::env::var(DeterrentConfig::CACHE_MAX_BYTES_ENV)
                .ok()
                .as_deref()
                .and_then(parse_bytes);
            let policy = CachePolicy {
                max_bytes: args.max_bytes.or(env_budget),
                per_stage_max: args.per_stage_max,
            };
            match gc(&dir, &policy) {
                Ok(report) => {
                    println!(
                        "gc {}: evicted {} file(s) ({} bytes), removed {} corrupt, \
                         {} stale file(s); {} bytes remain",
                        dir.display(),
                        report.evicted_files,
                        report.evicted_bytes,
                        report.corrupt_removed,
                        report.stale_removed,
                        report.bytes_remaining
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("deterrent-cache: gc failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "verify" => {
            let report = verify(&dir, args.heal);
            if args.json {
                let value = obj([
                    ("cache_dir", Value::str(dir.display().to_string())),
                    ("valid", Value::u64(report.valid)),
                    (
                        "corrupt",
                        Value::Arr(
                            report
                                .corrupt
                                .iter()
                                .map(|p| Value::str(p.display().to_string()))
                                .collect(),
                        ),
                    ),
                    ("healed", Value::Bool(report.healed)),
                    (
                        "io_errors",
                        Value::Arr(
                            report
                                .io_errors
                                .iter()
                                .map(|(path, error)| {
                                    obj([
                                        ("path", Value::str(path.display().to_string())),
                                        ("error", Value::str(error)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                println!("{}", value.to_json());
            } else {
                println!(
                    "verify {}: {} valid, {} corrupt{}",
                    dir.display(),
                    report.valid,
                    report.corrupt.len(),
                    if report.healed && !report.corrupt.is_empty() {
                        " (healed)"
                    } else {
                        ""
                    }
                );
                for path in &report.corrupt {
                    println!("  corrupt: {}", path.display());
                }
                for (path, error) in &report.io_errors {
                    eprintln!("  io error: {}: {error}", path.display());
                }
            }
            if !report.io_errors.is_empty() {
                ExitCode::from(2)
            } else if !report.corrupt.is_empty() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => unreachable!("validated at parse time"),
    }
}
