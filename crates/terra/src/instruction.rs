//! Circuit instructions: gates, measurements, resets, barriers.

use crate::gate::Gate;
use crate::hash::FnvHasher;
use std::fmt;

/// The operation performed by an [`Instruction`].
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// A unitary gate from the standard library.
    Gate(Gate),
    /// Projective Z-basis measurement of one qubit into one classical bit.
    Measure,
    /// Reset one qubit to `|0⟩`.
    Reset,
    /// A barrier: no-op that blocks transpiler optimization across it.
    Barrier,
}

impl Operation {
    /// The OpenQASM keyword / gate name for this operation.
    pub fn name(&self) -> &'static str {
        match self {
            Operation::Gate(g) => g.name(),
            Operation::Measure => "measure",
            Operation::Reset => "reset",
            Operation::Barrier => "barrier",
        }
    }

    /// Returns `true` for unitary operations.
    pub fn is_gate(&self) -> bool {
        matches!(self, Operation::Gate(_))
    }
}

/// A classical condition attached to an instruction (OpenQASM
/// `if (c == value) ...`).
///
/// The instruction executes only when the named classical register currently
/// holds `value` (bits read little-endian: `creg[0]` is bit 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Flat indices of the classical bits that form the condition register,
    /// least-significant first.
    pub clbits: Vec<usize>,
    /// The value the register must equal.
    pub value: u64,
}

/// One instruction of a quantum circuit: an operation plus the flat qubit /
/// classical-bit operand indices it acts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation.
    pub op: Operation,
    /// Qubit operands (flat indices). Order matters for controlled gates.
    pub qubits: Vec<usize>,
    /// Classical-bit operands (flat indices); non-empty only for `Measure`.
    pub clbits: Vec<usize>,
    /// Optional classical condition.
    pub condition: Option<Condition>,
}

impl Instruction {
    /// Creates an unconditioned gate instruction.
    pub fn gate(gate: Gate, qubits: Vec<usize>) -> Self {
        Self { op: Operation::Gate(gate), qubits, clbits: vec![], condition: None }
    }

    /// Creates a measurement instruction.
    pub fn measure(qubit: usize, clbit: usize) -> Self {
        Self { op: Operation::Measure, qubits: vec![qubit], clbits: vec![clbit], condition: None }
    }

    /// Creates a reset instruction.
    pub fn reset(qubit: usize) -> Self {
        Self { op: Operation::Reset, qubits: vec![qubit], clbits: vec![], condition: None }
    }

    /// Creates a barrier over the given qubits.
    pub fn barrier(qubits: Vec<usize>) -> Self {
        Self { op: Operation::Barrier, qubits, clbits: vec![], condition: None }
    }

    /// The gate, if this instruction is a gate.
    pub fn as_gate(&self) -> Option<&Gate> {
        match &self.op {
            Operation::Gate(g) => Some(g),
            _ => None,
        }
    }

    /// Returns `true` when this is an (unconditioned) unitary gate —
    /// the transpiler only reorders/merges these.
    pub fn is_plain_gate(&self) -> bool {
        self.op.is_gate() && self.condition.is_none()
    }

    /// Returns `true` when the instruction touches qubit `q`.
    pub fn acts_on(&self, q: usize) -> bool {
        self.qubits.contains(&q)
    }

    /// Feeds the instruction into `hasher` as data: the op name (which
    /// fixes the parameter count), the parameters' bit patterns, the
    /// qubits, the clbits and the condition.
    pub(crate) fn hash_fields(&self, hasher: &mut FnvHasher) {
        hasher.field(self.op.name().as_bytes());
        if let Operation::Gate(gate) = &self.op {
            let (slots, len) = gate.param_slots();
            slots[..len].iter().for_each(|&p| hasher.f64(p));
        }
        for operands in [&self.qubits, &self.clbits] {
            hasher.u64(operands.len() as u64);
            operands.iter().for_each(|&i| hasher.u64(i as u64));
        }
        match &self.condition {
            None => hasher.field(&[0]),
            Some(condition) => {
                hasher.field(&[1]);
                hasher.u64(condition.clbits.len() as u64);
                condition.clbits.iter().for_each(|&c| hasher.u64(c as u64));
                hasher.u64(condition.value);
            }
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            Operation::Gate(g) => {
                write!(f, "{g} ")?;
                let q: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
                write!(f, "{}", q.join(","))
            }
            Operation::Measure => {
                write!(f, "measure q{} -> c{}", self.qubits[0], self.clbits[0])
            }
            Operation::Reset => write!(f, "reset q{}", self.qubits[0]),
            Operation::Barrier => {
                let q: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
                write!(f, "barrier {}", q.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let g = Instruction::gate(Gate::CX, vec![0, 1]);
        assert!(g.is_plain_gate());
        assert_eq!(g.as_gate(), Some(&Gate::CX));
        assert!(g.acts_on(0) && g.acts_on(1) && !g.acts_on(2));

        let m = Instruction::measure(2, 0);
        assert!(!m.is_plain_gate());
        assert_eq!(m.op.name(), "measure");

        let r = Instruction::reset(1);
        assert_eq!(r.op.name(), "reset");

        let b = Instruction::barrier(vec![0, 1, 2]);
        assert_eq!(b.op.name(), "barrier");
        assert!(!b.op.is_gate());
    }

    #[test]
    fn conditioned_gate_is_not_plain() {
        let mut g = Instruction::gate(Gate::X, vec![0]);
        g.condition = Some(Condition { clbits: vec![0, 1], value: 3 });
        assert!(!g.is_plain_gate());
        assert!(g.op.is_gate());
    }

    #[test]
    fn display() {
        assert_eq!(Instruction::gate(Gate::H, vec![2]).to_string(), "h q2");
        assert_eq!(Instruction::measure(0, 1).to_string(), "measure q0 -> c1");
        assert_eq!(Instruction::barrier(vec![0, 1]).to_string(), "barrier q0,q1");
        assert_eq!(Instruction::reset(3).to_string(), "reset q3");
    }
}
