//! Output checks. Each returns `Err(reason)` for an output that is wrong;
//! the workloads count such ops as failed, which lowers `ok_share`.
//!
//! None of these checks uses the compiler or the engine under test to
//! produce the expected answer: compiled circuits are checked by evolving a
//! seeded random state with aer's `Statevector` (not the transpiler), and
//! counts are checked against closed-form distributions.

use crate::gen::{Circ, Dist, Rng};
use qukit::Counts;
use qukit_aer::statevector::Statevector;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::coupling::CouplingMap;
use qukit_terra::gate::Gate;
use qukit_terra::instruction::Operation;
use std::collections::BTreeMap;

/// Largest number of device qubits an equivalence check simulates.
pub const MAX_CHECK_QUBITS: usize = 20;

/// Total-variation distance between sampled counts and a distribution.
pub fn tv_distance(counts: &Counts, dist: &Dist) -> f64 {
    let total = counts.total().max(1) as f64;
    let mut diff: BTreeMap<u64, f64> = dist.iter().map(|&(o, p)| (o, -p)).collect();
    for (outcome, n) in counts.iter() {
        *diff.entry(outcome).or_insert(0.0) += n as f64 / total;
    }
    0.5 * diff.values().map(|d| d.abs()).sum::<f64>()
}

/// The total-variation bound for `shots` samples of a distribution with
/// `support` outcomes, exceeded with probability below 1e-9 (the L1
/// concentration bound of Weissman et al.:
/// `P(‖p̂ − p‖₁ ≥ ε) ≤ (2^k − 2)·exp(−nε²/2)`).
pub fn tv_bound(support: usize, shots: usize) -> f64 {
    let subsets = (2f64.powi(support.min(60) as i32) - 2.0).max(1.0);
    let l1 = (2.0 * (subsets.ln() + 1e9f64.ln()) / shots as f64).sqrt();
    0.5 * l1
}

/// Counts must hold `shots` samples within the TV bound of `dist`.
pub fn check_counts(counts: &Counts, dist: &Dist, shots: usize) -> Result<(), String> {
    if counts.total() != shots {
        return Err(format!("{} samples, expected {shots}", counts.total()));
    }
    let tv = tv_distance(counts, dist);
    let bound = tv_bound(dist.len(), shots);
    if tv > bound {
        return Err(format!("total variation {tv:.4} above bound {bound:.4}"));
    }
    Ok(())
}

/// Counts must hold `shots` samples whose most frequent outcome is `answer`.
pub fn check_top(counts: &Counts, answer: u64, shots: usize) -> Result<(), String> {
    if counts.total() != shots {
        return Err(format!("{} samples, expected {shots}", counts.total()));
    }
    match counts.most_frequent() {
        Some(top) if top == answer => Ok(()),
        top => Err(format!("top outcome {top:?}, expected {answer}")),
    }
}

/// Moves every sample of `counts` to `target`: the self-test's corruption
/// of a result.
pub fn move_all_to(counts: &Counts, target: u64) -> Counts {
    let mut out = Counts::new(counts.num_clbits());
    out.record_n(target, counts.total());
    out
}

/// The `clbits`-bit outcome least likely under `dist`: the first one
/// outside its support, if any. Counts that all sit there are at total
/// variation at least `1 − 2^−clbits` from `dist`, which every bound of
/// `tv_bound` at 1024 shots rejects.
pub fn least_likely(dist: &Dist, clbits: usize) -> u64 {
    let support: BTreeMap<u64, f64> = dist.iter().copied().collect();
    let outcomes = 1u64.checked_shl(clbits as u32).unwrap_or(u64::MAX);
    (0..outcomes)
        .find(|o| !support.contains_key(o))
        .unwrap_or_else(|| support.iter().min_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(&o, _)| o))
}

/// A compiled circuit must use only U and CX, put every CX on a coupling
/// map edge, and act like `input` under the initial and final layouts.
pub fn check_compiled(
    input: &Circ,
    output: &QuantumCircuit,
    initial: &[usize],
    final_layout: &[usize],
    coupling: &CouplingMap,
    seed: u64,
) -> Result<(), String> {
    let mut touched = vec![false; coupling.num_qubits()];
    for inst in output.instructions() {
        if inst.condition.is_some() {
            return Err("conditional instruction in compiled output".into());
        }
        match &inst.op {
            Operation::Gate(Gate::U(..)) => {}
            Operation::Gate(Gate::CX) => {
                if !coupling.has_edge(inst.qubits[0], inst.qubits[1]) {
                    return Err(format!("cx {:?} is not a coupling edge", inst.qubits));
                }
            }
            Operation::Barrier => continue,
            other => return Err(format!("{} is outside the U/CX basis", other.name())),
        }
        for &q in &inst.qubits {
            touched[q] = true;
        }
    }
    let n = input.n;
    if initial.len() < n || final_layout.len() < n {
        return Err("layout shorter than the input".into());
    }
    for &q in initial[..n].iter().chain(&final_layout[..n]) {
        touched[q] = true;
    }
    // Restrict the simulation to the qubits the output touches: the others
    // stay in |0⟩ and contribute nothing.
    let mut compact = vec![usize::MAX; touched.len()];
    let mut k = 0;
    for (q, &t) in touched.iter().enumerate() {
        if t {
            compact[q] = k;
            k += 1;
        }
    }
    if k > MAX_CHECK_QUBITS {
        return Err(format!("output touches {k} qubits, more than the check simulates"));
    }

    let mut rng = Rng::new(seed);
    let psi = random_state(n, &mut rng);
    let mut expected = Statevector::from_amplitudes(psi.clone());
    for op in &input.ops {
        let gate = Gate::from_name(op.name, &op.params)
            .ok_or_else(|| format!("unknown generated gate {}", op.name))?;
        expected.apply_gate(gate, &op.qubits);
    }

    let place =
        |layout: &[usize]| -> Vec<usize> { layout[..n].iter().map(|&q| compact[q]).collect() };
    let mut actual = Statevector::from_amplitudes(embed(&psi, &place(initial), k));
    for inst in output.instructions() {
        if let Operation::Gate(gate) = &inst.op {
            let qubits: Vec<usize> = inst.qubits.iter().map(|&q| compact[q]).collect();
            actual.apply_gate(*gate, &qubits);
        }
    }
    let target =
        Statevector::from_amplitudes(embed(expected.amplitudes(), &place(final_layout), k));
    let fidelity = actual.fidelity(&target);
    if fidelity < 1.0 - 1e-6 {
        return Err(format!("fidelity {fidelity:.9} with the input under its layouts"));
    }
    Ok(())
}

fn random_state(n: usize, rng: &mut Rng) -> Vec<Complex> {
    let mut amps: Vec<Complex> =
        (0..1usize << n).map(|_| Complex::new(rng.unit() - 0.5, rng.unit() - 0.5)).collect();
    let norm = amps.iter().map(|a| a.re * a.re + a.im * a.im).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = Complex::new(a.re / norm, a.im / norm);
    }
    amps
}

/// Places logical qubit `i` of `state` at position `positions[i]` of a
/// `k`-qubit register whose other qubits are |0⟩.
fn embed(state: &[Complex], positions: &[usize], k: usize) -> Vec<Complex> {
    let mut out = vec![Complex::new(0.0, 0.0); 1 << k];
    for (idx, &amp) in state.iter().enumerate() {
        let mut phys = 0usize;
        for (l, &p) in positions.iter().enumerate() {
            if (idx >> l) & 1 == 1 {
                phys |= 1 << p;
            }
        }
        out[phys] = amp;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Family};
    use qukit_terra::transpiler::{transpile, InitialLayout, MapperKind, TranspileOptions};

    fn counts_of(pairs: &[(u64, usize)], clbits: usize) -> Counts {
        let mut c = Counts::new(clbits);
        for &(o, n) in pairs {
            c.record_n(o, n);
        }
        c
    }

    #[test]
    fn counts_check_accepts_truth_and_rejects_a_flipped_bit() {
        let dist = vec![(0b00, 0.5), (0b11, 0.5)];
        assert!(check_counts(&counts_of(&[(0, 500), (3, 524)], 2), &dist, 1024).is_ok());
        let flipped = counts_of(&[(1, 500), (3, 524)], 2);
        assert!(check_counts(&flipped, &dist, 1024).is_err());
        assert!(check_counts(&counts_of(&[(0, 500), (3, 500)], 2), &dist, 1024).is_err());
    }

    #[test]
    fn corrupted_counts_fail_even_when_a_bit_flip_would_not() {
        // Bit 0 is uniform here, so flipping it leaves the counts valid;
        // moving every sample to the least likely outcome never does.
        let dist = vec![(0b00, 0.25), (0b01, 0.25), (0b10, 0.25), (0b11, 0.25)];
        let counts = counts_of(&[(0, 256), (1, 256), (2, 256), (3, 256)], 2);
        assert!(check_counts(&counts, &dist, 1024).is_ok());
        let moved = move_all_to(&counts, least_likely(&dist, 2));
        assert!(check_counts(&moved, &dist, 1024).is_err());
        let ghz = vec![(0, 0.5), ((1 << 32) - 1, 0.5)];
        assert_eq!(least_likely(&ghz, 32), 1);
    }

    #[test]
    fn top_check_rejects_a_wrong_answer() {
        let c = counts_of(&[(5, 900), (4, 124)], 3);
        assert!(check_top(&c, 5, 1024).is_ok());
        assert!(check_top(&c, 4, 1024).is_err());
    }

    #[test]
    fn compiled_check_accepts_the_transpiler_and_rejects_a_dropped_gate() {
        let map = CouplingMap::ibm_qx5();
        let input = Family::Qft.build(5, &mut gen::Rng::new(9));
        let circuit = qukit_terra::qasm::parse(&input.qasm()).unwrap();
        let options = TranspileOptions {
            coupling_map: Some(map.clone()),
            mapper: MapperKind::Lookahead,
            optimization_level: 2,
            basis_u: true,
            initial_layout: InitialLayout::Trivial,
        };
        let result = transpile(&circuit, &options).unwrap();
        let check = |out: &QuantumCircuit| {
            check_compiled(&input, out, &result.initial_layout, &result.final_layout, &map, 1)
        };
        assert_eq!(check(&result.circuit), Ok(()));

        let mut broken = result.circuit.clone();
        broken.clear();
        let insts = result.circuit.instructions();
        let cx = insts.iter().position(|i| i.as_gate() == Some(&Gate::CX)).unwrap();
        for (i, inst) in insts.iter().enumerate() {
            if i != cx {
                broken.push(inst.clone()).unwrap();
            }
        }
        assert!(check(&broken).is_err());
    }

    #[test]
    fn tv_bound_shrinks_with_shots() {
        assert!(tv_bound(4, 4096) < tv_bound(4, 1024));
        assert!(tv_bound(1, 1024) < 0.11);
    }
}
