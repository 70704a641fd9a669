//! Density-matrix simulation.
//!
//! [`DensityMatrix`] evolves the full mixed state `ρ`, applying unitary
//! gates as `UρU†` and noise channels *exactly* as `Σ_i K_i ρ K_i†` — the
//! deterministic counterpart to the trajectory sampling in
//! [`crate::simulator::QasmSimulator`]. Exponentially more expensive
//! (`4^n` entries), it is the ground truth the stochastic noise tests are
//! validated against.

use crate::error::{AerError, Result};
use crate::noise::NoiseModel;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::instruction::Operation;
use qukit_terra::matrix::Matrix;

const MAX_QUBITS: usize = 12;

/// The density operator of an `n`-qubit register as a `2^n × 2^n` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: Matrix,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds the dense limit (12).
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= MAX_QUBITS, "density matrix limited to {MAX_QUBITS} qubits");
        let dim = 1usize << num_qubits;
        let mut rho = Matrix::zeros(dim, dim);
        rho[(0, 0)] = Complex::ONE;
        Self { num_qubits, rho }
    }

    /// Builds `ρ = |ψ⟩⟨ψ|` from a statevector.
    ///
    /// # Panics
    ///
    /// Panics if the state length is not a power of two.
    pub fn from_statevector(state: &[Complex]) -> Self {
        assert!(state.len().is_power_of_two(), "state length must be a power of two");
        let num_qubits = state.len().trailing_zeros() as usize;
        let dim = state.len();
        let mut rho = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                rho[(i, j)] = state[i] * state[j].conj();
            }
        }
        Self { num_qubits, rho }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrows the underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.rho
    }

    /// The trace of `ρ` (1 for a normalized state).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        self.rho.matmul(&self.rho).trace().re
    }

    /// Applies a unitary on the given qubits: `ρ → UρU†`.
    ///
    /// Treats the row-major `4^n` array as a `2n`-qubit statevector
    /// (column index = bits `0..n`, row index = bits `n..2n`) and applies
    /// `U` to the row bits and `conj(U)` to the column bits — two
    /// `O(4^n · 2^k)` sweeps instead of the `O(8^n)` embed-and-matmul.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_unitary(&mut self, matrix: &Matrix, qubits: &[usize]) {
        let n = self.num_qubits;
        assert_eq!(matrix.rows(), 1usize << qubits.len(), "operator dimension mismatch");
        let row_qubits: Vec<usize> = qubits.iter().map(|&q| q + n).collect();
        let flat = self.rho.as_mut_slice();
        qukit_terra::reference::apply_gate(flat, matrix, &row_qubits);
        qukit_terra::reference::apply_gate(flat, &matrix.conj(), qubits);
    }

    /// Applies a Kraus channel exactly: `ρ → Σ_i K_i ρ K_i†`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], qubits: &[usize]) {
        let dim = 1usize << self.num_qubits;
        let mut next = Matrix::zeros(dim, dim);
        for k in kraus {
            let full = embed(k, qubits, self.num_qubits);
            next = next.add(&full.matmul(&self.rho).matmul(&full.dagger()));
        }
        self.rho = next;
    }

    /// Probability of measuring qubit `q` as 1 (from the diagonal).
    pub fn probability_one(&self, q: usize) -> f64 {
        let mask = 1usize << q;
        (0..self.rho.rows()).filter(|idx| idx & mask != 0).map(|idx| self.rho[(idx, idx)].re).sum()
    }

    /// The diagonal of `ρ`: computational-basis probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows()).map(|i| self.rho[(i, i)].re).collect()
    }

    /// Expectation value of a Hermitian observable: `Tr(Oρ)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expectation(&self, observable: &Matrix) -> f64 {
        observable.matmul(&self.rho).trace().re
    }
}

/// Embeds a k-qubit operator on `qubits` into the full `n`-qubit space.
fn embed(matrix: &Matrix, qubits: &[usize], num_qubits: usize) -> Matrix {
    let dim = 1usize << num_qubits;
    let k = qubits.len();
    let kdim = 1usize << k;
    assert_eq!(matrix.rows(), kdim, "operator dimension mismatch");
    let mut full = Matrix::zeros(dim, dim);
    let op_mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
    for row in 0..dim {
        let rest = row & !op_mask;
        let mut sub_row = 0usize;
        for (t, &q) in qubits.iter().enumerate() {
            if (row >> q) & 1 == 1 {
                sub_row |= 1 << t;
            }
        }
        for sub_col in 0..kdim {
            let value = matrix[(sub_row, sub_col)];
            if value.is_approx_zero() {
                continue;
            }
            let mut col = rest;
            for (t, &q) in qubits.iter().enumerate() {
                if (sub_col >> t) & 1 == 1 {
                    col |= 1 << q;
                }
            }
            full[(row, col)] = value;
        }
    }
    full
}

/// Exact noisy simulator over density matrices.
///
/// # Examples
///
/// ```
/// use qukit_aer::density::DensityMatrixSimulator;
/// use qukit_aer::noise::NoiseModel;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut bell = QuantumCircuit::new(2);
/// bell.h(0).unwrap();
/// bell.cx(0, 1).unwrap();
/// let rho = DensityMatrixSimulator::new()
///     .with_noise(NoiseModel::depolarizing(0.01, 0.02, 0.0))
///     .run(&bell)?;
/// assert!(rho.purity() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DensityMatrixSimulator {
    noise: Option<NoiseModel>,
    parallel: crate::parallel::ParallelConfig,
}

impl DensityMatrixSimulator {
    /// Creates an ideal simulator (parallel configuration from the
    /// environment, like [`crate::simulator::QasmSimulator`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a noise model (builder style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Sets the parallel/fusion configuration (builder style).
    pub fn with_parallel(mut self, parallel: crate::parallel::ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Evolves the density matrix through the circuit (gates and barriers
    /// only).
    ///
    /// # Errors
    ///
    /// Returns an error for measurement/reset/conditional instructions or
    /// circuits beyond the dense limit.
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<DensityMatrix> {
        if circuit.num_qubits() > MAX_QUBITS {
            return Err(AerError::TooManyQubits {
                requested: circuit.num_qubits(),
                max: MAX_QUBITS,
            });
        }
        let _span = qukit_obs::span!("aer.density_run", qubits = circuit.num_qubits());
        qukit_obs::counter_inc("qukit_aer_density_runs_total");
        let ideal = self.noise.as_ref().is_none_or(NoiseModel::is_ideal);
        if ideal {
            return self.run_fused(circuit);
        }
        let mut rho = DensityMatrix::new(circuit.num_qubits());
        // Each gate rewrites the full `2^n × 2^n` operator.
        let entries = 1u64 << (2 * circuit.num_qubits());
        let mut tally = crate::simulator::GateTally::default();
        for inst in circuit.instructions() {
            match &inst.op {
                Operation::Gate(g) if inst.condition.is_none() => {
                    rho.apply_unitary(&g.matrix(), &inst.qubits);
                    tally.record(entries);
                    if let Some(noise) = &self.noise {
                        if let Some(error) = noise.error_for(g.name(), &inst.qubits) {
                            if error.num_qubits() == inst.qubits.len() {
                                rho.apply_kraus(error.kraus_operators(), &inst.qubits);
                            }
                        }
                    }
                }
                Operation::Barrier => {}
                other => {
                    return Err(AerError::UnsupportedInstruction {
                        name: other.name().to_owned(),
                        simulator: "density matrix simulator",
                    })
                }
            }
        }
        tally.flush("qukit_aer_density_gates_total");
        Ok(rho)
    }

    /// Noiseless evolution: the gate stream runs once through the chunked
    /// two-sided kernels over the flat `4^n` array.
    fn run_fused(&self, circuit: &QuantumCircuit) -> Result<DensityMatrix> {
        let gates = crate::parallel::unitary_gates(circuit, "density matrix simulator")?;
        let n = circuit.num_qubits();
        let mut rho = DensityMatrix::new(n);
        let mut tally = crate::simulator::GateTally::default();
        crate::parallel::evolve_fused_density(
            rho.rho.as_mut_slice(),
            &gates,
            n,
            &self.parallel,
            &mut tally,
        )?;
        tally.flush("qukit_aer_density_gates_total");
        Ok(rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::QuantumError;
    use crate::statevector::Statevector;
    use qukit_terra::gate::Gate;

    #[test]
    fn pure_state_has_unit_purity() {
        let rho = DensityMatrix::new(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_statevector_matches_direct_evolution() {
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::CX, &[0, 1]);
        let rho_sv = DensityMatrix::from_statevector(sv.amplitudes());

        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary(&Gate::H.matrix(), &[0]);
        rho.apply_unitary(&Gate::CX.matrix(), &[0, 1]);
        assert!(rho.matrix().approx_eq(rho_sv.matrix()));
    }

    #[test]
    fn embedding_on_nonadjacent_qubits() {
        // X on qubit 2 of 3: |000> -> |100>.
        let mut rho = DensityMatrix::new(3);
        rho.apply_unitary(&Gate::X.matrix(), &[2]);
        let probs = rho.probabilities();
        assert!((probs[0b100] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary(&Gate::H.matrix(), &[0]);
        let channel = QuantumError::depolarizing(1.0, 1);
        rho.apply_kraus(channel.kraus_operators(), &[0]);
        assert!((rho.purity() - 0.5).abs() < 1e-9, "purity {}", rho.purity());
        assert!((rho.probability_one(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn amplitude_damping_exact_population() {
        let gamma = 0.3;
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary(&Gate::X.matrix(), &[0]);
        let channel = QuantumError::amplitude_damping(gamma);
        rho.apply_kraus(channel.kraus_operators(), &[0]);
        assert!((rho.probability_one(0) - (1.0 - gamma)).abs() < 1e-12);
        // Twice: population (1-γ)².
        rho.apply_kraus(channel.kraus_operators(), &[0]);
        assert!((rho.probability_one(0) - (1.0 - gamma) * (1.0 - gamma)).abs() < 1e-12);
    }

    #[test]
    fn channel_preserves_trace() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary(&Gate::H.matrix(), &[0]);
        rho.apply_unitary(&Gate::CX.matrix(), &[0, 1]);
        for channel in [
            QuantumError::depolarizing(0.2, 1),
            QuantumError::amplitude_damping(0.4),
            QuantumError::phase_damping(0.1),
        ] {
            rho.apply_kraus(channel.kraus_operators(), &[1]);
            assert!((rho.trace() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn simulator_matches_statevector_when_ideal() {
        let circ = qukit_terra::circuit::fig1_circuit();
        let rho = DensityMatrixSimulator::new().run(&circ).unwrap();
        let sv = qukit_terra::reference::statevector(&circ).unwrap();
        let expected = DensityMatrix::from_statevector(&sv);
        assert!(rho.matrix().approx_eq_eps(expected.matrix(), 1e-9));
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_bell_purity_drops_and_matches_trajectories() {
        let mut bell = QuantumCircuit::new(2);
        bell.h(0).unwrap();
        bell.cx(0, 1).unwrap();
        let noise = NoiseModel::depolarizing(0.05, 0.1, 0.0);
        let rho = DensityMatrixSimulator::new().with_noise(noise.clone()).run(&bell).unwrap();
        assert!(rho.purity() < 0.999);

        // Trajectory average of |00| population should approach the exact
        // diagonal entry.
        let mut measured = bell.clone();
        let _ = measured.add_creg("c", 2);
        measured.measure(0, 0).unwrap();
        measured.measure(1, 1).unwrap();
        let counts = crate::simulator::QasmSimulator::new()
            .with_seed(10)
            .with_noise(noise)
            .run(&measured, 6000)
            .unwrap();
        let exact_p00 = rho.probabilities()[0];
        let sampled_p00 = counts.probability(0);
        assert!(
            (exact_p00 - sampled_p00).abs() < 0.03,
            "exact {exact_p00} vs sampled {sampled_p00}"
        );
    }

    #[test]
    fn expectation_of_z_observable() {
        let mut rho = DensityMatrix::new(1);
        let z = Gate::Z.matrix();
        assert!((rho.expectation(&z) - 1.0).abs() < 1e-12);
        rho.apply_unitary(&Gate::X.matrix(), &[0]);
        assert!((rho.expectation(&z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn simulator_rejects_measurement_and_width() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.measure(0, 0).unwrap();
        assert!(DensityMatrixSimulator::new().run(&circ).is_err());
        let wide = QuantumCircuit::new(13);
        assert!(matches!(
            DensityMatrixSimulator::new().run(&wide),
            Err(AerError::TooManyQubits { .. })
        ));
    }
}
