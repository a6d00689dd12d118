//! Facade crate for the DETERRENT reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so the root-level examples
//! and integration tests (and downstream users who prefer a single
//! dependency) can write `use deterrent_repro::deterrent_core::Deterrent;`.
//!
//! The individual crates are:
//!
//! * [`exec`] — deterministic parallel execution runtime (seed-split RNG
//!   streams, scoped thread pool, scratch reuse).
//! * [`netlist`] — gate-level netlist model, `.bench` I/O, synthetic
//!   benchmark generation.
//! * [`sim`] — bit-parallel logic simulation and rare-net analysis.
//! * [`sat`] — CDCL SAT solver, Tseitin encoding, justification oracle.
//! * [`rl`] — MLP + Adam + masked-categorical PPO.
//! * [`trojan`] — Trojan insertion and trigger-coverage evaluation.
//! * [`deterrent_core`] — the DETERRENT pipeline itself.
//! * [`baselines`] — Random, MERO, TARMAC, TGRL-like, and ATPG baselines.
//! * [`campaign`] — netlists × θ × seeds sweep driver over one bounded
//!   artifact cache, plus the `deterrent-campaign`/`deterrent-cache` CLIs.
//!
//! # Quick start
//!
//! ```
//! use deterrent_repro::deterrent_core::{DeterrentConfig, DeterrentSession};
//! use deterrent_repro::netlist::synth::BenchmarkProfile;
//!
//! let netlist = BenchmarkProfile::c2670().scaled(30).generate(7);
//! let mut session = DeterrentSession::new(&netlist, DeterrentConfig::fast_preset());
//! let result = session.run();
//! println!("{} patterns generated", result.test_length());
//! ```
//!
//! Drive the stages individually (`analyze`, `build_graph`, `train`,
//! `select`, `generate`) to reuse cached artifacts across configurations —
//! see the `deterrent_core` crate docs and the `quickstart` example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use campaign;
pub use deterrent_core;
pub use exec;
pub use netlist;
pub use rl;
pub use sat;
pub use sim;
pub use trojan;

/// The value following `--cache-dir` in this process's arguments, when
/// given — the one flag every root example shares, wiring
/// [`deterrent_core::DeterrentConfig::with_cache_dir`] to the persistent
/// artifact cache (the `DETERRENT_CACHE_DIR` environment variable works
/// without any flag).
#[must_use]
pub fn cache_dir_arg() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--cache-dir")?;
    args.get(i + 1).map(std::path::PathBuf::from)
}
