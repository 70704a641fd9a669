//! # qukit-bench
//!
//! Shared workload generators for the benchmark harness that regenerates
//! every figure and quantitative claim of *"IBM's Qiskit Tool Chain"*
//! (DATE 2019). The bench targets live in `benches/` — one per
//! figure/claim; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results.

pub mod baseline;
pub mod load;

/// Baseline and load runs both mutate the global metrics registry (and
/// executors running inside one are counted by the other); every test in
/// this crate's binary that runs either takes this one lock.
#[cfg(test)]
fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

use qukit::terra::circuit::QuantumCircuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An n-qubit GHZ preparation circuit.
pub fn ghz(n: usize) -> QuantumCircuit {
    qukit::aqua::circuits::ghz_circuit(n)
}

/// An n-qubit QFT circuit.
pub fn qft(n: usize) -> QuantumCircuit {
    qukit::aqua::circuits::qft_circuit(n)
}

/// An n-qubit layered entangler: Ry rotations + CX ladder
/// (structured but not Clifford).
pub fn entangler(n: usize, layers: usize) -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(n);
    circ.set_name(format!("entangler_{n}x{layers}"));
    for layer in 0..layers {
        for q in 0..n {
            circ.ry(0.1 + 0.37 * (layer * n + q) as f64, q).expect("valid");
        }
        for q in 0..n.saturating_sub(1) {
            circ.cx(q, q + 1).expect("valid");
        }
    }
    circ
}

/// A seeded random circuit over `{H, T, Rx, CX}` — the unstructured
/// workload where dense arrays beat decision diagrams.
pub fn random_circuit(n: usize, gates: usize, seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circ = QuantumCircuit::new(n);
    circ.set_name(format!("random_{n}x{gates}"));
    for _ in 0..gates {
        match rng.gen_range(0..4) {
            0 => {
                circ.h(rng.gen_range(0..n)).expect("valid");
            }
            1 => {
                circ.t(rng.gen_range(0..n)).expect("valid");
            }
            2 => {
                circ.rx(rng.gen::<f64>() * std::f64::consts::TAU, rng.gen_range(0..n))
                    .expect("valid");
            }
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                circ.cx(a, b).expect("valid");
            }
        }
    }
    circ
}

/// A Toffoli cascade (deep, mapping-hostile benchmark).
pub fn toffoli_cascade(n: usize) -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(n);
    circ.set_name(format!("toffoli_cascade_{n}"));
    for q in 0..n.saturating_sub(2) {
        circ.ccx(q, q + 1, q + 2).expect("valid");
    }
    circ
}

/// The named benchmark suite used by the mapping comparison
/// (name, circuit).
pub fn mapping_suite(num_qubits: usize) -> Vec<(String, QuantumCircuit)> {
    let adder_bits = (num_qubits.saturating_sub(2) / 2).clamp(1, 4);
    let adder = {
        let layout = qukit::aqua::arithmetic::AdderLayout::new(adder_bits);
        let mut circ = QuantumCircuit::new(layout.num_qubits());
        circ.set_name(format!("adder_{adder_bits}"));
        qukit::aqua::arithmetic::append_cuccaro_adder(&mut circ, layout).expect("valid");
        circ
    };
    vec![
        (format!("ghz_{num_qubits}"), ghz(num_qubits)),
        (format!("qft_{}", num_qubits.min(8)), qft(num_qubits.min(8))),
        (format!("entangler_{num_qubits}x3"), entangler(num_qubits, 3)),
        (format!("random_{num_qubits}x40"), random_circuit(num_qubits, 40, 1234)),
        (format!("toffoli_cascade_{}", num_qubits.min(8)), toffoli_cascade(num_qubits.min(8))),
        (format!("adder_{adder_bits}"), adder),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_expected_sizes() {
        assert_eq!(ghz(5).num_qubits(), 5);
        assert_eq!(qft(4).num_qubits(), 4);
        assert_eq!(entangler(4, 3).count_ops()["cx"], 9);
        assert_eq!(random_circuit(4, 30, 1).num_gates(), 30);
        assert_eq!(toffoli_cascade(5).count_ops()["ccx"], 3);
        assert_eq!(mapping_suite(8).len(), 6);
    }

    #[test]
    fn random_circuits_are_reproducible() {
        let a = random_circuit(4, 20, 99);
        let b = random_circuit(4, 20, 99);
        assert_eq!(a.instructions(), b.instructions());
        let c = random_circuit(4, 20, 100);
        assert_ne!(a.instructions(), c.instructions());
    }
}
