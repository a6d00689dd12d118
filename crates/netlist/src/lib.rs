//! Gate-level netlist substrate for the DETERRENT reproduction.
//!
//! This crate provides the circuit representation shared by every other crate
//! in the workspace:
//!
//! * [`Netlist`] — an immutable, topologically ordered gate-level netlist in
//!   which every gate drives exactly one net (identified by a [`NetId`]).
//! * [`NetlistBuilder`] — an ergonomic way to construct netlists by hand or
//!   from a parser.
//! * [`bench`](mod@bench) — a reader/writer for the ISCAS `.bench` format used by the
//!   original DETERRENT artifact (c2670, c5315, …, s35932).
//! * [`synth`] — a deterministic synthetic benchmark generator producing
//!   circuits whose size and rare-net profile match the benchmarks evaluated
//!   in the paper (used because the proprietary benchmark distribution is not
//!   shipped with this repository; see `DESIGN.md`).
//!
//! Sequential elements are modelled under the *full-scan* assumption used by
//! the paper and the prior work it compares against: every D flip-flop output
//! is treated as a pseudo primary input and every flip-flop input as a pseudo
//! primary output, so that test generation reduces to a combinational problem.
//!
//! # Example
//!
//! ```
//! use netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("toy");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let g = b.gate(GateKind::And, "g", &[a, bb])?;
//! b.output(g);
//! let nl = b.build()?;
//! assert_eq!(nl.num_inputs(), 2);
//! assert_eq!(nl.num_gates(), 3); // two inputs + one AND
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod bits;
mod builder;
pub mod cone;
mod error;
mod gate;
mod netlist;
pub mod samples;
pub mod synth;

pub use bits::BitMatrix;
pub use builder::NetlistBuilder;
pub use cone::{input_supports, transitive_fanin};
pub use error::NetlistError;
pub use gate::{GateKind, Logic};
pub use netlist::{Gate, NetId, Netlist};
