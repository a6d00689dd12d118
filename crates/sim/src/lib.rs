//! Gate-level logic simulation and rare-net analysis.
//!
//! This crate is the stand-in for the commercial logic simulator (Synopsys
//! VCS) used in the DETERRENT paper. It provides:
//!
//! * [`TestPattern`] — an assignment to the scan inputs of a netlist.
//! * [`simulate`] / [`Simulator`] — a 64-way bit-parallel gate-level
//!   simulator under the full-scan assumption.
//! * [`PatternSource`] — the one definition of the random and exhaustive
//!   pattern streams, chunk by chunk; every pass over a stream simulates it
//!   through [`Simulator::run_chunk_into`].
//! * [`SignalProbabilities`] — Monte-Carlo signal-probability estimation from
//!   random patterns, and exact probabilities by exhaustive enumeration.
//! * [`rare`] — extraction of *rare nets*: nets whose probability of taking
//!   one of the two logic values falls below a rareness threshold. These are
//!   the candidate trigger nets an adversary would use and the action space
//!   of the DETERRENT RL agent. [`RareNetEstimate`] and
//!   [`rare::RareNetAnalysis::exhaustive`] run one compacting pass that
//!   counts probabilities and keeps a [`WitnessBank`] row for every rare net.
//! * [`witness`] — the [`WitnessBank`] of per-pattern witness bits, which
//!   proves pairwise compatibility of rare nets without SAT.
//!
//! # Example
//!
//! ```
//! use netlist::samples;
//! use sim::{rare::RareNetAnalysis, Simulator, TestPattern};
//!
//! let nl = samples::rare_chain(6);
//! let sim = Simulator::new(&nl);
//! let all_ones = TestPattern::ones(nl.num_scan_inputs());
//! let values = sim.run(&all_ones);
//! // The AND-chain root is activated only by the all-ones pattern.
//! let root = nl.net_by_name("and5").unwrap();
//! assert!(values.value(root));
//!
//! let analysis = RareNetAnalysis::estimate(&nl, 0.1, 2000, 42);
//! assert!(analysis.rare_nets().iter().any(|r| r.net == root));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
pub mod cone_sim;
mod pattern;
pub mod probability;
pub mod rare;
mod simulator;
pub mod witness;

pub use cone_sim::ConeSimulator;
pub use pattern::TestPattern;
pub use probability::SignalProbabilities;
pub use rare::RareNetEstimate;
pub use simulator::{simulate, NetValues, PackedValues, Simulator};
pub use witness::{PatternSource, WitnessBank};
