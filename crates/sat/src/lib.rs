//! Boolean satisfiability substrate for the DETERRENT reproduction.
//!
//! The original DETERRENT implementation uses `pycosat` (PicoSAT) for two
//! tasks: checking whether a set of rare nets is *compatible* (an input
//! pattern exists that drives them all to their rare values), and generating
//! the final test patterns from the maximal compatible sets found by the RL
//! agent. This crate provides those capabilities from scratch:
//!
//! * [`Cnf`], [`Lit`], [`Var`] — clause database primitives.
//! * [`Solver`] — a CDCL SAT solver (two-watched literals, first-UIP clause
//!   learning, VSIDS-style activities, phase saving, Luby restarts,
//!   activity-based learned-clause deletion, incremental solving under
//!   assumptions, propagation-only probes) configured through
//!   [`SolverConfig`]. [`Solver::solve_within`] runs the same search but
//!   branches only on a given variable set — a circuit query's cone inputs
//!   — and stops once those are assigned.
//! * [`dimacs`] — DIMACS CNF reading/writing for interoperability.
//! * [`CircuitOracle`] — the high-level interface used by the rest of the
//!   workspace: "give me an input pattern that justifies these `(net, value)`
//!   targets, or prove none exists". It Tseitin-encodes a
//!   [`netlist::Netlist`] either whole up front ([`CircuitOracle::new`]) or
//!   cone by cone on demand ([`CircuitOracle::lazy`], the workhorse of the
//!   offline compatibility funnel, whose sweep asks
//!   [`CircuitOracle::justify_within`] to decide only a pair's input
//!   support).
//!
//! # Example
//!
//! ```
//! use netlist::samples;
//! use sat::CircuitOracle;
//!
//! let nl = samples::rare_chain(4);
//! let mut oracle = CircuitOracle::new(&nl);
//! let root = nl.net_by_name("and3").unwrap();
//! // Justify the rare value of the AND-chain root.
//! let pattern = oracle.justify(&[(root, true)]).expect("satisfiable");
//! assert!(pattern.iter().all(|&b| b), "only the all-ones pattern works");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dimacs;
mod encoder;
mod oracle;
mod order;
mod solver;
mod types;

pub use oracle::CircuitOracle;
pub use solver::{luby, SolveResult, Solver, SolverConfig, SolverStats};
pub use types::{Clause, Cnf, Lit, Var};
