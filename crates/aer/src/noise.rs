//! Noise modelling.
//!
//! The paper's Aer description: *"It will also allow the exploration of the
//! behavior of quantum hardware under controlled conditions e.g. by
//! injecting specific noise processes into the circuits and observing their
//! effect on the results."* This module provides exactly that: CPTP error
//! channels in Kraus form, a per-gate [`NoiseModel`], and classical readout
//! errors.
//!
//! Statevector-based simulation applies channels stochastically (quantum
//! trajectories): Kraus operator `K_i` is selected with probability
//! `‖K_i|ψ⟩‖²` and the state renormalized — which reproduces the density
//! operator `Σ_i K_i ρ K_i†` in expectation. The density-matrix simulator
//! in [`crate::density`] applies the same channels exactly.

use crate::parallel::Kernel;
use qukit_terra::complex::{c64, Complex};
use qukit_terra::hash::FnvHasher;
use qukit_terra::matrix::Matrix;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A CPTP error channel given by its Kraus operators.
///
/// # Examples
///
/// ```
/// use qukit_aer::noise::QuantumError;
///
/// let depol = QuantumError::depolarizing(0.01, 1);
/// assert!(depol.is_cptp());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumError {
    kraus: Vec<Matrix>,
    num_qubits: usize,
    /// When every Kraus operator is a scaled unitary, the channel is a
    /// probabilistic mixture of unitaries: `(probability, unitary)` pairs.
    /// Trajectory simulation then samples the branch without touching the
    /// state (probabilities are state-independent).
    mixed_unitary: Option<Vec<(f64, Matrix)>>,
}

impl QuantumError {
    /// Builds a channel from explicit Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, dimensions are inconsistent, or the
    /// operators do not satisfy the completeness relation
    /// `Σ K†K = I` (within tolerance).
    pub fn from_kraus(kraus: Vec<Matrix>) -> Self {
        assert!(!kraus.is_empty(), "a channel needs at least one Kraus operator");
        let dim = kraus[0].rows();
        assert!(dim.is_power_of_two(), "Kraus dimension must be a power of two");
        let num_qubits = dim.trailing_zeros() as usize;
        for k in &kraus {
            assert_eq!(k.rows(), dim, "inconsistent Kraus dimensions");
            assert_eq!(k.cols(), dim, "Kraus operators must be square");
        }
        let mixed_unitary = detect_mixed_unitary(&kraus);
        let channel = Self { kraus, num_qubits, mixed_unitary };
        assert!(channel.is_cptp(), "Kraus operators do not sum to identity");
        channel
    }

    /// The identity (no-error) channel on `num_qubits`.
    pub fn identity(num_qubits: usize) -> Self {
        Self::from_kraus(vec![Matrix::identity(1 << num_qubits)])
    }

    /// Depolarizing channel: with probability `p` the state is replaced by
    /// the maximally mixed state, implemented by uniform Pauli errors.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` and `num_qubits ∈ {1, 2}`.
    pub fn depolarizing(p: f64, num_qubits: usize) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(num_qubits == 1 || num_qubits == 2, "depolarizing supported on 1 or 2 qubits");
        let paulis_1q = [Matrix::identity(2), pauli_x(), pauli_y(), pauli_z()];
        let mut kraus = Vec::new();
        if num_qubits == 1 {
            let p_each = p / 4.0;
            for (i, m) in paulis_1q.iter().enumerate() {
                let weight = if i == 0 { 1.0 - p + p_each } else { p_each };
                kraus.push(m.scale(c64(weight.sqrt(), 0.0)));
            }
        } else {
            let p_each = p / 16.0;
            for (i, a) in paulis_1q.iter().enumerate() {
                for (j, b) in paulis_1q.iter().enumerate() {
                    let weight = if i == 0 && j == 0 { 1.0 - p + p_each } else { p_each };
                    kraus.push(b.kron(a).scale(c64(weight.sqrt(), 0.0)));
                }
            }
        }
        Self::from_kraus(kraus)
    }

    /// Bit-flip channel: X with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn bit_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self::from_kraus(vec![
            Matrix::identity(2).scale(c64((1.0 - p).sqrt(), 0.0)),
            pauli_x().scale(c64(p.sqrt(), 0.0)),
        ])
    }

    /// Phase-flip channel: Z with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn phase_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self::from_kraus(vec![
            Matrix::identity(2).scale(c64((1.0 - p).sqrt(), 0.0)),
            pauli_z().scale(c64(p.sqrt(), 0.0)),
        ])
    }

    /// Amplitude damping with decay probability `gamma` (energy relaxation
    /// towards `|0⟩`, the T1 process of transmon qubits).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ gamma ≤ 1`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        let k0 = Matrix::from_vec(
            2,
            2,
            vec![Complex::ONE, Complex::ZERO, Complex::ZERO, c64((1.0 - gamma).sqrt(), 0.0)],
        );
        let k1 = Matrix::from_vec(
            2,
            2,
            vec![Complex::ZERO, c64(gamma.sqrt(), 0.0), Complex::ZERO, Complex::ZERO],
        );
        Self::from_kraus(vec![k0, k1])
    }

    /// Phase damping (pure dephasing, the T2 process) with parameter
    /// `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lambda ≤ 1`.
    pub fn phase_damping(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        let k0 = Matrix::from_vec(
            2,
            2,
            vec![Complex::ONE, Complex::ZERO, Complex::ZERO, c64((1.0 - lambda).sqrt(), 0.0)],
        );
        let k1 = Matrix::from_vec(
            2,
            2,
            vec![Complex::ZERO, Complex::ZERO, Complex::ZERO, c64(lambda.sqrt(), 0.0)],
        );
        Self::from_kraus(vec![k0, k1])
    }

    /// Thermal relaxation over a gate of the given duration: energy decay
    /// towards `|0⟩` with time constant `t1` and coherence decay with `t2`
    /// — the T1/T2 model of the paper's transmon hardware. Requires
    /// `t2 <= 2·t1` (physicality) and models the common `t2 <= t1` regime
    /// exactly as amplitude damping composed with pure dephasing.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < t1`, `0 < t2 <= 2·t1` and `time >= 0`.
    pub fn thermal_relaxation(t1: f64, t2: f64, time: f64) -> Self {
        assert!(t1 > 0.0 && t2 > 0.0, "relaxation times must be positive");
        assert!(t2 <= 2.0 * t1 + 1e-12, "t2 must not exceed 2*t1");
        assert!(time >= 0.0, "gate time must be non-negative");
        let gamma = 1.0 - (-time / t1).exp();
        // e^{-t/T2} = e^{-t/(2 T1)} * sqrt(1 - lambda)
        let lambda = (1.0 - (-2.0 * time / t2 + time / t1).exp()).clamp(0.0, 1.0);
        Self::amplitude_damping(gamma).compose(&Self::phase_damping(lambda))
    }

    /// Sequential composition `other ∘ self` (apply `self` first): the
    /// Kraus set is all pairwise products, with negligible-weight products
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if the channels act on different qubit counts.
    pub fn compose(&self, other: &QuantumError) -> QuantumError {
        assert_eq!(self.num_qubits, other.num_qubits, "channel width mismatch");
        let mut kraus = Vec::with_capacity(self.kraus.len() * other.kraus.len());
        for b in &other.kraus {
            for a in &self.kraus {
                let product = b.matmul(a);
                // Keep only operators with non-negligible weight.
                if product.dagger().matmul(&product).trace().re > 1e-14 {
                    kraus.push(product);
                }
            }
        }
        QuantumError::from_kraus(kraus)
    }

    /// The Kraus operators.
    pub fn kraus_operators(&self) -> &[Matrix] {
        &self.kraus
    }

    /// Number of qubits the channel acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Feeds the Kraus operators into `hasher`, each entry as two f64 words.
    fn hash_fields(&self, hasher: &mut FnvHasher) {
        hasher.u64(self.num_qubits as u64);
        hasher.u64(self.kraus.len() as u64);
        for entry in self.kraus.iter().flat_map(Matrix::as_slice) {
            hasher.f64(entry.re);
            hasher.f64(entry.im);
        }
    }

    /// Verifies the completeness relation `Σ K†K = I`.
    pub fn is_cptp(&self) -> bool {
        let dim = 1usize << self.num_qubits;
        let mut sum = Matrix::zeros(dim, dim);
        for k in &self.kraus {
            sum = sum.add(&k.dagger().matmul(k));
        }
        sum.approx_eq_eps(&Matrix::identity(dim), 1e-8)
    }

    /// Applies the channel stochastically to a statevector (quantum
    /// trajectory step): selects Kraus operator `i` with probability
    /// `‖K_i|ψ⟩‖²` and renormalizes.
    ///
    /// Mixed-unitary channels (depolarizing, Pauli errors) take a fast
    /// path: branch probabilities are state-independent, so the branch is
    /// sampled directly and one unitary applied. General channels compute
    /// each branch probability as `⟨ψ|K_i†K_i|ψ⟩` via a local reduction —
    /// no copy of the state is made either way.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != self.num_qubits()`.
    pub fn apply_stochastic(
        &self,
        state: &mut crate::statevector::Statevector,
        qubits: &[usize],
        rng: &mut impl Rng,
    ) {
        assert_eq!(qubits.len(), self.num_qubits, "channel arity mismatch");
        let channel = self.channel(qubits);
        let branch = match &channel {
            Channel::Fixed(_) => 0,
            _ => {
                let uniform = rng.gen::<f64>();
                let mut probabilities = Vec::new();
                channel.probabilities(state, qubits, &mut probabilities);
                Channel::choose(uniform, &probabilities)
            }
        };
        channel.apply_branch(state, qubits, branch);
    }

    /// The channel resolved for trajectory sampling on `qubits`.
    pub(crate) fn channel(&self, qubits: &[usize]) -> Channel<'_> {
        if self.kraus.len() == 1 {
            Channel::Fixed(Kernel::lower(&self.kraus[0], qubits, 0, false))
        } else if let Some(branches) = &self.mixed_unitary {
            Channel::Mixed(branches.iter().map(|(p, unitary)| (*p, Branch::new(unitary))).collect())
        } else {
            Channel::Kraus {
                kraus: self.kraus.iter().map(Branch::new).collect(),
                effects: self.kraus.iter().map(|k| k.dagger().matmul(k)).collect(),
            }
        }
    }
}

/// A [`QuantumError`] resolved once for trajectory sampling on fixed
/// qubits. Every kind but [`Channel::Fixed`] consumes one uniform per
/// application.
pub(crate) enum Channel<'a> {
    /// A single Kraus operator, applied as is: no draw.
    Fixed(Kernel),
    /// Scaled unitaries as `(probability, unitary)`: the branch depends on
    /// the uniform alone.
    Mixed(Vec<(f64, Branch<'a>)>),
    /// General Kraus operators with their effects `K_i†K_i`: branch `i`
    /// has probability `⟨ψ|K_i†K_i|ψ⟩`, and the chosen branch is
    /// renormalized.
    Kraus { kraus: Vec<Branch<'a>>, effects: Vec<Matrix> },
}

/// One operator of a branching channel, lowered to its kernel the first
/// time a trajectory takes the branch: most branches of a weak channel
/// are never taken in a run.
pub(crate) struct Branch<'a> {
    matrix: &'a Matrix,
    kernel: OnceLock<Kernel>,
}

impl<'a> Branch<'a> {
    fn new(matrix: &'a Matrix) -> Self {
        Self { matrix, kernel: OnceLock::new() }
    }

    fn apply(&self, state: &mut crate::statevector::Statevector, qubits: &[usize]) {
        state
            .apply_kernel(self.kernel.get_or_init(|| Kernel::lower(self.matrix, qubits, 0, false)));
    }
}

impl Channel<'_> {
    /// Writes the branch probabilities on `state` into `out`: the mixture
    /// weights, or each Kraus effect's local expectation on `qubits`.
    /// Empty for a fixed channel.
    pub(crate) fn probabilities(
        &self,
        state: &crate::statevector::Statevector,
        qubits: &[usize],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        match self {
            Channel::Fixed(_) => {}
            Channel::Mixed(branches) => out.extend(branches.iter().map(|&(p, _)| p)),
            Channel::Kraus { effects, .. } => {
                out.extend(effects.iter().map(|mu| state.local_expectation(mu, qubits)));
            }
        }
    }

    /// The branch a `uniform` selects: the first `i` with
    /// `u - p_0 - … - p_{i-1} < p_i`, else the last.
    pub(crate) fn choose(uniform: f64, probabilities: &[f64]) -> usize {
        let mut r = uniform;
        for (i, &p) in probabilities.iter().enumerate() {
            if r < p {
                return i;
            }
            r -= p;
        }
        probabilities.len().saturating_sub(1)
    }

    /// Applies branch `branch` to `state`; `qubits` are the ones the
    /// channel was resolved on.
    pub(crate) fn apply_branch(
        &self,
        state: &mut crate::statevector::Statevector,
        qubits: &[usize],
        branch: usize,
    ) {
        match self {
            Channel::Fixed(kernel) => state.apply_kernel(kernel),
            Channel::Mixed(branches) => branches[branch].1.apply(state, qubits),
            Channel::Kraus { kraus, .. } => {
                kraus[branch].apply(state, qubits);
                state.renormalize();
            }
        }
    }
}

/// Detects whether every Kraus operator is a scaled unitary; if so returns
/// the `(probability, unitary)` mixture.
fn detect_mixed_unitary(kraus: &[Matrix]) -> Option<Vec<(f64, Matrix)>> {
    let dim = kraus[0].rows();
    let mut branches = Vec::with_capacity(kraus.len());
    for k in kraus {
        let mu = k.dagger().matmul(k);
        let lambda = mu.trace().re / dim as f64;
        if lambda < 0.0 {
            return None;
        }
        let scaled_identity = Matrix::identity(dim).scale(c64(lambda, 0.0));
        if !mu.approx_eq_eps(&scaled_identity, 1e-9) {
            return None;
        }
        if lambda > 1e-15 {
            branches.push((lambda, k.scale(c64(1.0 / lambda.sqrt(), 0.0))));
        }
    }
    Some(branches)
}

/// Classical readout error: the recorded bit differs from the measured one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    /// Probability of recording 1 when the qubit measured 0.
    pub prob_1_given_0: f64,
    /// Probability of recording 0 when the qubit measured 1.
    pub prob_0_given_1: f64,
}

impl ReadoutError {
    /// A symmetric readout error with flip probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn symmetric(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self { prob_1_given_0: p, prob_0_given_1: p }
    }

    /// Applies the error to a measured bit.
    pub fn apply(&self, measured: bool, rng: &mut impl Rng) -> bool {
        self.record(measured, rng.gen())
    }

    /// The bit recorded for `measured` when the readout draws `uniform`.
    pub(crate) fn record(&self, measured: bool, uniform: f64) -> bool {
        let flip_prob = if measured { self.prob_0_given_1 } else { self.prob_1_given_0 };
        measured != (uniform < flip_prob)
    }

    /// The 2x2 column-stochastic assignment matrix
    /// `A[recorded][actual] = P(recorded | actual)`.
    pub fn assignment_matrix(&self) -> [[f64; 2]; 2] {
        [
            [1.0 - self.prob_1_given_0, self.prob_0_given_1],
            [self.prob_1_given_0, 1.0 - self.prob_0_given_1],
        ]
    }
}

/// A device noise model: error channels attached to gate names, optionally
/// restricted to specific qubit tuples, plus per-qubit readout errors.
///
/// # Examples
///
/// ```
/// use qukit_aer::noise::{NoiseModel, QuantumError, ReadoutError};
///
/// let mut noise = NoiseModel::new();
/// noise.add_all_qubit_error("cx", QuantumError::depolarizing(0.02, 2));
/// noise.add_all_qubit_error("u", QuantumError::depolarizing(0.001, 1));
/// noise.set_readout_error(ReadoutError::symmetric(0.03));
/// assert!(!noise.is_ideal());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NoiseModel {
    /// Shared with every [`NoiseModel::remapped`] copy: relabeling qubits
    /// leaves gate-wide errors as they are.
    gate_errors: Arc<HashMap<String, QuantumError>>,
    /// Keyed by gate name, then by qubit tuple, so a lookup borrows its
    /// key instead of building one. Each error is shared with the
    /// remapped copies, which relabel only the tuples.
    local_errors: HashMap<String, HashMap<Vec<usize>, Arc<QuantumError>>>,
    readout: Option<ReadoutError>,
}

impl NoiseModel {
    /// An empty (ideal) noise model.
    pub fn new() -> Self {
        Self::default()
    }

    /// A uniform depolarizing model: `p1` on every 1-qubit gate, `p2` on
    /// every CX, symmetric readout error `p_meas` — the standard synthetic
    /// stand-in for an IBM QX device.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn depolarizing(p1: f64, p2: f64, p_meas: f64) -> Self {
        let mut model = Self::new();
        let e1 = QuantumError::depolarizing(p1, 1);
        for name in [
            "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "rx", "ry", "rz", "p",
            "u",
        ] {
            model.add_all_qubit_error(name, e1.clone());
        }
        model.add_all_qubit_error("cx", QuantumError::depolarizing(p2, 2));
        if p_meas > 0.0 {
            model.set_readout_error(ReadoutError::symmetric(p_meas));
        }
        model
    }

    /// Attaches `error` to every occurrence of the gate named `name`.
    pub fn add_all_qubit_error(&mut self, name: impl Into<String>, error: QuantumError) {
        Arc::make_mut(&mut self.gate_errors).insert(name.into(), error);
    }

    /// Attaches `error` to the gate named `name` only on the exact qubit
    /// tuple `qubits` (overrides the all-qubit entry).
    pub fn add_local_error(
        &mut self,
        name: impl Into<String>,
        qubits: Vec<usize>,
        error: QuantumError,
    ) {
        self.local_errors.entry(name.into()).or_default().insert(qubits, Arc::new(error));
    }

    /// Sets the readout error applied to every measurement.
    pub fn set_readout_error(&mut self, error: ReadoutError) {
        self.readout = Some(error);
    }

    /// The readout error, if any.
    pub fn readout_error(&self) -> Option<ReadoutError> {
        self.readout
    }

    /// Looks up the error channel for a gate application.
    pub fn error_for(&self, name: &str, qubits: &[usize]) -> Option<&QuantumError> {
        self.local_errors
            .get(name)
            .and_then(|by_qubits| by_qubits.get(qubits))
            .map(|error| &**error)
            .or_else(|| self.gate_errors.get(name))
    }

    /// Returns `true` when the model contains no errors at all.
    pub fn is_ideal(&self) -> bool {
        self.gate_errors.is_empty() && self.local_errors.is_empty() && self.readout.is_none()
    }

    /// Feeds the model into `hasher` field by field: the gate-wide, then
    /// the local errors in sorted key order (map order differs between
    /// equal models), then the readout error.
    pub fn hash_fields(&self, hasher: &mut FnvHasher) {
        let mut gate_errors: Vec<_> = self.gate_errors.iter().collect();
        gate_errors.sort_unstable_by_key(|&(name, _)| name);
        hasher.u64(gate_errors.len() as u64);
        for (name, error) in gate_errors {
            hasher.field(name.as_bytes());
            error.hash_fields(hasher);
        }
        let mut local_errors: Vec<_> = self.local_entries().collect();
        local_errors.sort_unstable_by_key(|&(name, qubits, _)| (name, qubits));
        hasher.u64(local_errors.len() as u64);
        for (name, qubits, error) in local_errors {
            hasher.field(name.as_bytes());
            hasher.u64(qubits.len() as u64);
            qubits.iter().for_each(|&q| hasher.u64(q as u64));
            error.hash_fields(hasher);
        }
        let readout = self.readout.map(|r| [r.prob_1_given_0, r.prob_0_given_1]);
        hasher.field(&[u8::from(readout.is_some())]);
        readout.into_iter().flatten().for_each(|p| hasher.f64(p));
    }

    /// Rewrites the model for a relabeled qubit space: every local error's
    /// qubit tuple is passed through `mapping`; entries whose qubits have
    /// no image are dropped. Gate-wide errors and the readout error are
    /// unchanged. The errors themselves are shared, not copied.
    pub fn remapped(&self, mapping: impl Fn(usize) -> Option<usize>) -> NoiseModel {
        let mut local_errors = HashMap::new();
        for (name, by_qubits) in &self.local_errors {
            let relabeled: HashMap<Vec<usize>, Arc<QuantumError>> = by_qubits
                .iter()
                .filter_map(|(qubits, error)| {
                    let remapped = qubits.iter().map(|&q| mapping(q)).collect::<Option<_>>()?;
                    Some((remapped, Arc::clone(error)))
                })
                .collect();
            if !relabeled.is_empty() {
                local_errors.insert(name.clone(), relabeled);
            }
        }
        NoiseModel {
            gate_errors: Arc::clone(&self.gate_errors),
            local_errors,
            readout: self.readout,
        }
    }

    /// Every local error as `(gate name, qubits, error)`.
    fn local_entries(&self) -> impl Iterator<Item = (&str, &[usize], &Arc<QuantumError>)> {
        self.local_errors.iter().flat_map(|(name, by_qubits)| {
            by_qubits.iter().map(move |(qubits, error)| (name.as_str(), qubits.as_slice(), error))
        })
    }
}

fn pauli_x() -> Matrix {
    Matrix::from_vec(2, 2, vec![Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO])
}

fn pauli_y() -> Matrix {
    Matrix::from_vec(2, 2, vec![Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO])
}

fn pauli_z() -> Matrix {
    Matrix::from_vec(2, 2, vec![Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::ONE])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::Statevector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builtin_channels_are_cptp() {
        for channel in [
            QuantumError::identity(1),
            QuantumError::depolarizing(0.1, 1),
            QuantumError::depolarizing(0.3, 2),
            QuantumError::bit_flip(0.2),
            QuantumError::phase_flip(0.5),
            QuantumError::amplitude_damping(0.15),
            QuantumError::phase_damping(0.25),
        ] {
            assert!(channel.is_cptp(), "{channel:?} not CPTP");
        }
    }

    #[test]
    fn from_kraus_rejects_incomplete_sets() {
        let half = Matrix::identity(2).scale(c64(0.5, 0.0));
        let result = std::panic::catch_unwind(|| QuantumError::from_kraus(vec![half]));
        assert!(result.is_err());
    }

    #[test]
    fn depolarizing_zero_probability_is_identity_channel() {
        let channel = QuantumError::depolarizing(0.0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sv = Statevector::new(1);
        sv.apply_gate(qukit_terra::gate::Gate::H, &[0]);
        let before = sv.clone();
        channel.apply_stochastic(&mut sv, &[0], &mut rng);
        assert!(sv.fidelity(&before) > 1.0 - 1e-12);
    }

    #[test]
    fn bit_flip_statistics() {
        let channel = QuantumError::bit_flip(0.3);
        let mut rng = StdRng::seed_from_u64(21);
        let mut flips = 0;
        let trials = 2000;
        for _ in 0..trials {
            let mut sv = Statevector::new(1);
            channel.apply_stochastic(&mut sv, &[0], &mut rng);
            if sv.probability_one(0) > 0.5 {
                flips += 1;
            }
        }
        let rate = flips as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.04, "flip rate {rate}");
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let gamma = 0.4;
        let channel = QuantumError::amplitude_damping(gamma);
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 3000;
        let mut stayed = 0;
        for _ in 0..trials {
            let mut sv = Statevector::new(1);
            sv.apply_gate(qukit_terra::gate::Gate::X, &[0]);
            channel.apply_stochastic(&mut sv, &[0], &mut rng);
            if sv.probability_one(0) > 0.5 {
                stayed += 1;
            }
        }
        let survival = stayed as f64 / trials as f64;
        assert!((survival - (1.0 - gamma)).abs() < 0.04, "survival {survival}");
    }

    #[test]
    fn thermal_relaxation_population_decay() {
        // Excited-state population after time t is e^{-t/T1}, exactly, on
        // the density-matrix simulator.
        let (t1, t2, time) = (50.0, 30.0, 10.0);
        let channel = QuantumError::thermal_relaxation(t1, t2, time);
        assert!(channel.is_cptp());
        let mut rho = crate::density::DensityMatrix::new(1);
        rho.apply_unitary(&qukit_terra::gate::Gate::X.matrix(), &[0]);
        rho.apply_kraus(channel.kraus_operators(), &[0]);
        let expected = (-time / t1).exp();
        assert!((rho.probability_one(0) - expected).abs() < 1e-9);
    }

    #[test]
    fn thermal_relaxation_coherence_decay() {
        // Off-diagonal of |+><+| decays as e^{-t/T2}.
        let (t1, t2, time) = (80.0, 40.0, 12.0);
        let channel = QuantumError::thermal_relaxation(t1, t2, time);
        let mut rho = crate::density::DensityMatrix::new(1);
        rho.apply_unitary(&qukit_terra::gate::Gate::H.matrix(), &[0]);
        rho.apply_kraus(channel.kraus_operators(), &[0]);
        let coherence = 2.0 * rho.matrix().get(0, 1).unwrap().norm();
        let expected = (-time / t2).exp();
        assert!((coherence - expected).abs() < 1e-9, "coherence {coherence} vs {expected}");
    }

    #[test]
    fn thermal_relaxation_zero_time_is_identity() {
        let channel = QuantumError::thermal_relaxation(50.0, 70.0, 0.0);
        let mut rho = crate::density::DensityMatrix::new(1);
        rho.apply_unitary(&qukit_terra::gate::Gate::H.matrix(), &[0]);
        let before = rho.clone();
        rho.apply_kraus(channel.kraus_operators(), &[0]);
        assert!(rho.matrix().approx_eq_eps(before.matrix(), 1e-10));
    }

    #[test]
    fn compose_matches_sequential_application() {
        let a = QuantumError::amplitude_damping(0.2);
        let b = QuantumError::phase_flip(0.1);
        let composed = a.compose(&b);
        assert!(composed.is_cptp());
        let mut rho1 = crate::density::DensityMatrix::new(1);
        rho1.apply_unitary(&qukit_terra::gate::Gate::H.matrix(), &[0]);
        let mut rho2 = rho1.clone();
        rho1.apply_kraus(a.kraus_operators(), &[0]);
        rho1.apply_kraus(b.kraus_operators(), &[0]);
        rho2.apply_kraus(composed.kraus_operators(), &[0]);
        assert!(rho1.matrix().approx_eq_eps(rho2.matrix(), 1e-10));
    }

    #[test]
    fn unphysical_relaxation_rejected() {
        let result = std::panic::catch_unwind(|| QuantumError::thermal_relaxation(10.0, 25.0, 1.0));
        assert!(result.is_err(), "t2 > 2*t1 must panic");
    }

    #[test]
    fn readout_error_statistics() {
        let err = ReadoutError::symmetric(0.1);
        let mut rng = StdRng::seed_from_u64(77);
        let trials = 5000;
        let flipped = (0..trials).filter(|_| err.apply(false, &mut rng)).count();
        let rate = flipped as f64 / trials as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
        let a = err.assignment_matrix();
        assert!((a[0][0] - 0.9).abs() < 1e-12);
        assert!((a[1][0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_readout() {
        let err = ReadoutError { prob_1_given_0: 0.0, prob_0_given_1: 1.0 };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!err.apply(false, &mut rng));
        assert!(!err.apply(true, &mut rng), "1 always misread as 0");
    }

    #[test]
    fn noise_model_lookup_precedence() {
        let mut model = NoiseModel::new();
        model.add_all_qubit_error("cx", QuantumError::depolarizing(0.1, 2));
        model.add_local_error("cx", vec![0, 1], QuantumError::depolarizing(0.5, 2));
        let global = model.error_for("cx", &[2, 3]).unwrap();
        let local = model.error_for("cx", &[0, 1]).unwrap();
        assert_ne!(global, local, "local error must override");
        assert!(model.error_for("h", &[0]).is_none());
    }

    #[test]
    fn ideal_model_detection() {
        assert!(NoiseModel::new().is_ideal());
        assert!(!NoiseModel::depolarizing(0.001, 0.01, 0.02).is_ideal());
    }

    #[test]
    fn depolarizing_model_covers_u_and_cx() {
        let model = NoiseModel::depolarizing(0.001, 0.01, 0.0);
        assert!(model.error_for("u", &[0]).is_some());
        assert!(model.error_for("cx", &[0, 1]).is_some());
        assert!(model.readout_error().is_none());
    }

    #[test]
    fn remapping_shares_errors_and_keeps_fingerprints() {
        let mut model = NoiseModel::depolarizing(0.001, 0.02, 0.03);
        model.add_local_error("cx", vec![0, 1], QuantumError::depolarizing(0.05, 2));
        model.add_local_error("cx", vec![2, 1], QuantumError::depolarizing(0.07, 2));
        model.add_local_error("u", vec![3], QuantumError::phase_damping(0.2));
        let remapped = model.remapped(|q| (q != 0).then_some(q + 4));
        // Relabeling moves the tuples and drops entries with no image;
        // the error values are the same allocations.
        assert!(Arc::ptr_eq(&model.gate_errors, &remapped.gate_errors));
        let gate_wide = model.error_for("cx", &[7, 8]).unwrap();
        assert!(
            std::ptr::eq(remapped.error_for("cx", &[4, 5]).unwrap(), gate_wide),
            "qubit 0 has no image, so (0, 1) falls back to the gate-wide error"
        );
        assert!(std::ptr::eq(
            model.error_for("cx", &[2, 1]).unwrap(),
            remapped.error_for("cx", &[6, 5]).unwrap()
        ));
        assert!(std::ptr::eq(
            model.error_for("u", &[3]).unwrap(),
            remapped.error_for("u", &[7]).unwrap()
        ));
        // Fingerprint inputs are hashed as before the errors were shared.
        let fingerprint = |model: &NoiseModel| {
            let mut hasher = FnvHasher::default();
            model.hash_fields(&mut hasher);
            hasher.finish64()
        };
        assert_eq!(fingerprint(&model), 1_750_456_327_588_382_172);
        assert_eq!(fingerprint(&remapped), 8_240_193_264_493_314_433);
    }
}
