//! Paper-scale benchmark of the DETERRENT reproduction.
//!
//! One run measures one workload for `--seconds` and prints two lines on
//! stdout: a context record (commit, cores, threads, workload shape, and
//! every user-facing output by name and unit), then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` re-drives the workload layer by layer
//! and reports the per-layer split. See `README.md` for the workloads.

mod digest;
mod layers;
mod report;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match workload::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", workload::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match workload::setup_only(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match workload::run(&args) {
        Ok(outcome) => {
            if args.record {
                if let Some(line) = &outcome.reference_line {
                    eprintln!("{line}");
                }
            }
            println!("{}", outcome.context);
            println!("{}", outcome.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fast self-test of the benchmark itself, at toy scale.
#[cfg(test)]
mod selftest {
    use std::path::{Path, PathBuf};

    use crate::report::{END_TO_END, PER_LAYER};
    use crate::workload::{run, Args, Outcome, Workload};

    fn work_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/selftest")
            .join(name)
    }

    fn toy(workload: Workload, trace: bool, reference: Option<PathBuf>) -> Outcome {
        let mut argv: Vec<String> = [
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            if trace { "1" } else { "0" },
            "--toy",
            "--setup-processes",
            "0",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        argv.push("--work-dir".into());
        argv.push(
            work_dir(&format!(
                "{}-{trace}-{}",
                workload.name(),
                reference.is_some()
            ))
            .display()
            .to_string(),
        );
        if let Some(path) = reference {
            argv.push("--reference".into());
            argv.push(path.display().to_string());
        }
        run(&Args::parse(argv.into_iter()).expect("valid arguments")).expect("the run completes")
    }

    fn metric(result: &str, name: &str) -> Option<f64> {
        let at = result.find(&format!("\"{name}\": {{\"value\": "))?;
        let rest = &result[at + name.len() + 14..];
        rest[..rest.find(',')?].parse().ok()
    }

    fn count(result: &str, key: &str) -> u64 {
        let at = result.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        let rest = &result[at..];
        rest[..rest.find(',').unwrap()].parse().unwrap()
    }

    #[test]
    fn every_metric_is_emitted_and_checks_pass() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let outcome = toy(workload, trace, None);
                let what = format!("{} trace={trace}", workload.name());
                assert!(count(&outcome.result, "attempted") >= 1, "{what}");
                assert_eq!(
                    count(&outcome.result, "failed"),
                    0,
                    "{what}: {}",
                    outcome.result
                );
                assert!(outcome.result.starts_with("{\"correct\": true"), "{what}");
                let table = if trace { PER_LAYER } else { END_TO_END };
                for (name, _) in table {
                    let value = metric(&outcome.result, name);
                    assert!(value.is_some_and(f64::is_finite), "{what}: {name} missing");
                }
                for name in ["patterns", "coverage_pct", "warm_p95_ms", "ops_failed"] {
                    assert!(
                        outcome.context.contains(name),
                        "{what}: context lacks {name}"
                    );
                }
                if trace && workload != Workload::Warm {
                    // The re-drive attributes time to layers; the residue
                    // is a share of the traced wall.
                    let residue = metric(&outcome.result, "unattributed_pct").unwrap();
                    assert!(residue.abs() < 100.0, "{what}: unattributed {residue}");
                    assert!(metric(&outcome.result, "compat.build_s").unwrap() > 0.0);
                }
            }
        }
    }

    #[test]
    fn a_corrupted_reference_digest_is_a_failed_operation() {
        for workload in Workload::ALL {
            let line = toy(workload, false, None)
                .reference_line
                .expect("a successful run records its digests");
            let dir = work_dir(&format!("reference-{}", workload.name()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("reference.tsv");

            std::fs::write(&path, format!("{line}\n")).unwrap();
            let clean = toy(workload, false, Some(path.clone()));
            assert_eq!(count(&clean.result, "failed"), 0, "{}", clean.result);
            assert!(clean.context.contains("\"reference\": \"matched\""));

            // Flip one hex digit of the adjacency digest.
            let mut fields: Vec<String> = line.split(' ').map(String::from).collect();
            let digit = fields[4].pop().unwrap();
            fields[4].push(if digit == '0' { '1' } else { '0' });
            std::fs::write(&path, fields.join(" ") + "\n").unwrap();
            let corrupted = toy(workload, false, Some(path));
            assert!(
                count(&corrupted.result, "failed") >= 1,
                "{}",
                corrupted.result
            );
            assert!(corrupted.result.starts_with("{\"correct\": false"));
            assert!(metric(&corrupted.result, "setup_s").is_some());
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
