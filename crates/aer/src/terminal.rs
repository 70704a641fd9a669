//! The evolve-once decision shared by the dense and tableau engines: a
//! noiseless circuit whose measurements can all be deferred to the end is
//! evolved once and sampled `shots` times, anything else runs per-shot
//! trajectories, and the run span records which and why.

use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::instruction::Operation;
use std::fmt;

/// Why a circuit runs shot by shot: a non-ideal noise model, or the index
/// of the first instruction that stops its measurements from being
/// deferred to the end — a reset, a conditional, a gate on a measured
/// qubit, a second measure of a qubit, or a second write to a clbit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PerShotReason {
    Noise,
    Reset(usize),
    Conditional(usize),
    GateAfterMeasure(usize),
    Remeasure(usize),
    ClbitRewrite(usize),
}

impl fmt::Display for PerShotReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerShotReason::Noise => write!(f, "noise"),
            PerShotReason::Reset(i) => write!(f, "reset@{i}"),
            PerShotReason::Conditional(i) => write!(f, "conditional@{i}"),
            PerShotReason::GateAfterMeasure(i) => write!(f, "gate_after_measure@{i}"),
            PerShotReason::Remeasure(i) => write!(f, "remeasure@{i}"),
            PerShotReason::ClbitRewrite(i) => write!(f, "clbit_rewrite@{i}"),
        }
    }
}

/// The first reason `circuit` cannot be evolved once and sampled, or
/// `None` when its measurements are terminal: no reset or conditional, no
/// measured qubit touched again, no clbit written twice. Gates on other
/// qubits may follow a measure (it commutes with them), so transpiled
/// circuits whose measures interleave with tail gates stay on the
/// evolve-once path. The bookkeeping is sized to the circuit, since the
/// tableau engine has no qubit cap.
pub(crate) fn per_shot_reason(circuit: &QuantumCircuit) -> Option<PerShotReason> {
    let mut measured = vec![false; circuit.num_qubits()];
    let mut written = vec![false; circuit.num_clbits()];
    for (i, inst) in circuit.instructions().iter().enumerate() {
        if inst.condition.is_some() {
            return Some(PerShotReason::Conditional(i));
        }
        match inst.op {
            Operation::Measure => {
                if std::mem::replace(&mut measured[inst.qubits[0]], true) {
                    return Some(PerShotReason::Remeasure(i));
                }
                if std::mem::replace(&mut written[inst.clbits[0]], true) {
                    return Some(PerShotReason::ClbitRewrite(i));
                }
            }
            Operation::Reset => return Some(PerShotReason::Reset(i)),
            Operation::Gate(_) => {
                if inst.qubits.iter().any(|&q| measured[q]) {
                    return Some(PerShotReason::GateAfterMeasure(i));
                }
            }
            Operation::Barrier => {}
        }
    }
    None
}

/// Opens the run span of a shot-based engine, recording its decision:
/// `mode=sampled`, or `mode=trajectory reason=<why>`.
pub(crate) fn run_span(
    name: &'static str,
    qubits: usize,
    shots: usize,
    reason: Option<PerShotReason>,
) -> qukit_obs::Span {
    if !qukit_obs::enabled() {
        return qukit_obs::Span::inert();
    }
    let decision = match reason {
        None => "mode=sampled".to_owned(),
        Some(reason) => format!("mode=trajectory reason={reason}"),
    };
    qukit_obs::Span::new(name, format!("qubits={qubits} shots={shots} {decision}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit_terra::gate::Gate;

    #[test]
    fn wide_measured_ghz_is_terminal() {
        // 100 qubits and 100 clbits: past the 64 bits a single-word mask
        // could hold.
        let n = 100;
        let mut ghz = QuantumCircuit::with_size(n, n);
        ghz.h(0).unwrap();
        for q in 1..n {
            ghz.cx(q - 1, q).unwrap();
        }
        for q in 0..n {
            ghz.measure(q, q).unwrap();
        }
        assert_eq!(per_shot_reason(&ghz), None);
    }

    #[test]
    fn reasons_name_the_first_offending_instruction() {
        let mut gate_after = QuantumCircuit::with_size(70, 2);
        gate_after.measure(66, 0).unwrap();
        gate_after.h(1).unwrap();
        gate_after.x(66).unwrap();
        assert_eq!(per_shot_reason(&gate_after), Some(PerShotReason::GateAfterMeasure(2)));

        let mut rewrite = QuantumCircuit::with_size(2, 70);
        rewrite.measure(0, 65).unwrap();
        rewrite.measure(1, 65).unwrap();
        assert_eq!(per_shot_reason(&rewrite), Some(PerShotReason::ClbitRewrite(1)));

        let mut remeasure = QuantumCircuit::with_size(1, 2);
        remeasure.measure(0, 0).unwrap();
        remeasure.measure(0, 1).unwrap();
        assert_eq!(per_shot_reason(&remeasure), Some(PerShotReason::Remeasure(1)));

        let mut conditional = QuantumCircuit::with_size(2, 2);
        conditional.h(0).unwrap();
        conditional.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        conditional.reset(0).unwrap();
        assert_eq!(per_shot_reason(&conditional), Some(PerShotReason::Conditional(1)));
        assert_eq!(PerShotReason::Conditional(1).to_string(), "conditional@1");
        assert_eq!(PerShotReason::Reset(17).to_string(), "reset@17");
        assert_eq!(PerShotReason::Noise.to_string(), "noise");
    }
}
