//! Error type shared across the netlist crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building, parsing, or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was given a name that already exists in the design.
    DuplicateName(String),
    /// A gate references a net id that does not exist.
    UnknownNet(u32),
    /// A gate references a signal name that was never defined.
    UnknownName(String),
    /// The gate's fanin count is outside the allowed arity for its kind.
    BadFanin {
        /// Name of the offending gate (or its id rendered as text).
        gate: String,
        /// Fanin count supplied by the caller.
        got: usize,
        /// Minimum allowed fanin.
        min: usize,
        /// Maximum allowed fanin.
        max: usize,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle(String),
    /// A `.bench` line could not be parsed.
    ParseBench {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The design declares no primary output.
    NoOutputs,
    /// The design declares no primary input (and no scan flip-flops).
    NoInputs,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(name) => write!(f, "duplicate signal name `{name}`"),
            NetlistError::UnknownNet(id) => write!(f, "reference to unknown net id {id}"),
            NetlistError::UnknownName(name) => write!(f, "reference to undefined signal `{name}`"),
            NetlistError::BadFanin {
                gate,
                got,
                min,
                max,
            } if *max == usize::MAX => {
                write!(f, "gate `{gate}` has {got} fanins, expected at least {min}")
            }
            NetlistError::BadFanin {
                gate,
                got,
                min,
                max,
            } => write!(
                f,
                "gate `{gate}` has {got} fanins, expected between {min} and {max}"
            ),
            NetlistError::CombinationalCycle(name) => {
                write!(f, "combinational cycle detected through `{name}`")
            }
            NetlistError::ParseBench { line, message } => {
                write!(f, "bench parse error at line {line}: {message}")
            }
            NetlistError::NoOutputs => write!(f, "netlist declares no primary outputs"),
            NetlistError::NoInputs => write!(f, "netlist declares no primary inputs"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = NetlistError::DuplicateName("n1".into());
        assert!(err.to_string().contains("n1"));
        let err = NetlistError::BadFanin {
            gate: "g7".into(),
            got: 0,
            min: 1,
            max: 1,
        };
        let text = err.to_string();
        assert!(text.contains("g7") && text.contains('0') && text.contains('1'));
        let unbounded = NetlistError::BadFanin {
            gate: "g8".into(),
            got: 0,
            min: 1,
            max: usize::MAX,
        };
        assert_eq!(
            unbounded.to_string(),
            "gate `g8` has 0 fanins, expected at least 1"
        );
    }
}
