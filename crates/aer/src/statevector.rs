//! Statevector representation and manipulation.
//!
//! [`Statevector`] is the mutable quantum-state object the simulators in
//! this crate are built on: gate application through the kernels of
//! [`crate::parallel`], projective measurement with collapse, reset,
//! expectation values and fidelities.

use crate::parallel::Kernel;
use crate::simd::simd_default;
use qukit_terra::complex::Complex;
use qukit_terra::gate::Gate;
use qukit_terra::matrix::Matrix;
use rand::Rng;
use std::fmt;

/// The state of an `n`-qubit register as `2^n` complex amplitudes
/// (little-endian: bit `q` of the index is qubit `q`).
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl Statevector {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 30 (the dense representation would
    /// not fit in memory).
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= 30, "dense statevector limited to 30 qubits");
        let mut amplitudes = vec![Complex::ZERO; 1usize << num_qubits];
        amplitudes[0] = Complex::ONE;
        Self { num_qubits, amplitudes }
    }

    /// Builds a statevector from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        assert!(amplitudes.len().is_power_of_two(), "length must be a power of two");
        let num_qubits = amplitudes.len().trailing_zeros() as usize;
        Self { num_qubits, amplitudes }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrows the amplitude vector.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Consumes the state, returning the amplitude vector.
    pub fn into_amplitudes(self) -> Vec<Complex> {
        self.amplitudes
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amplitudes[index]
    }

    /// Applies a k-qubit gate matrix to the given qubits (`qubits[j]` is
    /// bit `j` of the matrix index).
    ///
    /// Runs the same kernels as the fused engine (`parallel::Kernel`), in
    /// the shape the matrix allows: a butterfly on one qubit, a block on
    /// the amplitudes whose control bits are set, a diagonal, or a dense
    /// gather. Amplitudes equal the reference implementation's up to the
    /// sign of a zero.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, repeated or out-of-range qubits.
    pub fn apply_matrix(&mut self, matrix: &Matrix, qubits: &[usize]) {
        self.apply_kernel(&Kernel::lower(matrix, qubits, 0, false));
    }

    /// Applies a standard gate.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies a kernel lowered once and reused (the trajectory engine's
    /// gates and noise branches).
    pub(crate) fn apply_kernel(&mut self, kernel: &Kernel) {
        kernel.apply(&mut self.amplitudes, simd_default());
    }

    /// Multiplies the whole state by `e^{iφ}`.
    pub fn apply_global_phase(&mut self, phase: f64) {
        if phase != 0.0 {
            let factor = Complex::cis(phase);
            for amp in &mut self.amplitudes {
                *amp *= factor;
            }
        }
    }

    /// Probability of measuring qubit `q` as `1`: the squared norms of the
    /// upper half of every `2^(q+1)` block, summed in ascending index
    /// order.
    pub fn probability_one(&self, q: usize) -> f64 {
        let stride = 1usize << q;
        self.amplitudes
            .chunks_exact(stride << 1)
            .flat_map(|block| &block[stride..])
            .map(|amp| amp.norm_sqr())
            .sum()
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|amp| amp.norm_sqr()).collect()
    }

    /// Projectively measures qubit `q`, collapsing the state. Returns the
    /// observed bit.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        let p1 = self.probability_one(q);
        let outcome = rng.gen::<f64>() < p1;
        self.collapse(q, outcome, if outcome { p1 } else { 1.0 - p1 });
        outcome
    }

    /// Forces qubit `q` into the given classical value, renormalizing.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the requested outcome has ~zero
    /// probability.
    pub(crate) fn collapse(&mut self, q: usize, outcome: bool, prob: f64) {
        debug_assert!(prob > 1e-15, "collapsing onto a zero-probability branch");
        let stride = 1usize << q;
        let scale = 1.0 / prob.sqrt();
        for block in self.amplitudes.chunks_exact_mut(stride << 1) {
            let (zeros, ones) = block.split_at_mut(stride);
            let (kept, dropped) = if outcome { (ones, zeros) } else { (zeros, ones) };
            dropped.fill(Complex::ZERO);
            if prob > 0.0 {
                kept.iter_mut().for_each(|amp| *amp = amp.scale(scale));
            } else {
                kept.fill(Complex::ZERO);
            }
        }
    }

    /// Resets qubit `q` to `|0⟩` (measure + conditional flip).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) {
            self.apply_gate(Gate::X, &[q]);
        }
    }

    /// Returns the whole register to `|0…0⟩` in place, keeping the
    /// allocation (trajectory shots reuse one buffer this way).
    pub(crate) fn reset_to_zero(&mut self) {
        self.amplitudes.fill(Complex::ZERO);
        self.amplitudes[0] = Complex::ONE;
    }

    /// Expectation value `⟨ψ|P|ψ⟩` of a Pauli string given as one
    /// character per qubit (`pauli[q] ∈ {I, X, Y, Z}` for qubit `q`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or invalid characters.
    pub fn expectation_pauli(&self, pauli: &str) -> f64 {
        assert_eq!(pauli.len(), self.num_qubits, "pauli string length mismatch");
        let ops: Vec<char> = pauli.chars().collect();
        let mut acc = Complex::ZERO;
        // ⟨ψ|P|ψ⟩ = Σ_j conj(ψ_j) · (P ψ)_j, computed without materializing
        // the full operator: each Pauli string maps basis j to a single
        // basis state with a phase.
        let mut flip_mask = 0usize;
        for (q, &op) in ops.iter().enumerate() {
            match op {
                'X' | 'Y' => flip_mask |= 1 << q,
                'Z' | 'I' => {}
                other => panic!("invalid Pauli character '{other}'"),
            }
        }
        for (j, amp) in self.amplitudes.iter().enumerate() {
            if amp.is_approx_zero() {
                continue;
            }
            let target = j ^ flip_mask;
            let mut phase = Complex::ONE;
            for (q, &op) in ops.iter().enumerate() {
                let bit = (j >> q) & 1;
                match op {
                    'Y' => {
                        // Y|0> = i|1>, Y|1> = -i|0>
                        phase *= if bit == 0 { Complex::I } else { -Complex::I };
                    }
                    'Z' if bit == 1 => {
                        phase = -phase;
                    }
                    _ => {}
                }
            }
            acc += self.amplitudes[target].conj() * phase * *amp;
        }
        acc.re
    }

    /// Local expectation `⟨ψ|M|ψ⟩` of a Hermitian k-qubit operator acting
    /// on `qubits` (no state copy; used by trajectory noise sampling).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or out-of-range qubits.
    pub fn local_expectation(&self, matrix: &Matrix, qubits: &[usize]) -> f64 {
        let n = self.num_qubits;
        let k = qubits.len();
        assert_eq!(matrix.rows(), 1 << k, "operator dimension mismatch");
        for &q in qubits {
            assert!(q < n, "qubit {q} out of range");
        }
        let dim = 1usize << k;
        let mut sorted = qubits.to_vec();
        sorted.sort_unstable();
        let mut acc = 0.0f64;
        let mut gathered = vec![Complex::ZERO; dim];
        for b in 0..(1usize << (n - k)) {
            let mut base = b;
            for &q in &sorted {
                let low = base & ((1 << q) - 1);
                let high = (base >> q) << (q + 1);
                base = high | low;
            }
            for (j, slot) in gathered.iter_mut().enumerate() {
                let mut idx = base;
                for (t, &q) in qubits.iter().enumerate() {
                    if (j >> t) & 1 == 1 {
                        idx |= 1 << q;
                    }
                }
                *slot = self.amplitudes[idx];
            }
            for j in 0..dim {
                let mut mv = Complex::ZERO;
                for (jp, &amp) in gathered.iter().enumerate() {
                    mv += matrix[(j, jp)] * amp;
                }
                acc += (gathered[j].conj() * mv).re;
            }
        }
        acc
    }

    /// Rescales the state to unit norm in place (no-op on a zero state).
    pub fn renormalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for amp in &mut self.amplitudes {
                *amp = amp.scale(inv);
            }
        }
    }

    /// Fidelity `|⟨self|other⟩|²` with another state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fidelity(&self, other: &Statevector) -> f64 {
        qukit_terra::matrix::state_fidelity(&self.amplitudes, &other.amplitudes)
    }

    /// Total probability (should be 1 for a normalized state).
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|amp| amp.norm_sqr()).sum()
    }
}

impl fmt::Display for Statevector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (idx, amp) in self.amplitudes.iter().enumerate() {
            if amp.is_approx_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "({amp})|{:0width$b}⟩", idx, width = self.num_qubits.max(1))?;
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit_terra::complex::c64;
    use qukit_terra::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_and_accessors() {
        let sv = Statevector::new(3);
        assert_eq!(sv.num_qubits(), 3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert!(sv.amplitude(0).is_approx_one());
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimized_1q_matches_generic() {
        let mut fast = Statevector::new(3);
        let mut slow = Statevector::new(3);
        for q in 0..3 {
            fast.apply_gate(Gate::H, &[q]);
            qukit_terra::reference::apply_gate(&mut slow.amplitudes, &Gate::H.matrix(), &[q]);
            fast.apply_gate(Gate::T, &[q]);
            qukit_terra::reference::apply_gate(&mut slow.amplitudes, &Gate::T.matrix(), &[q]);
        }
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b));
        }
    }

    #[test]
    fn optimized_cx_matches_generic() {
        let mut fast = Statevector::new(3);
        let mut slow = Statevector::new(3);
        fast.apply_gate(Gate::H, &[0]);
        qukit_terra::reference::apply_gate(&mut slow.amplitudes, &Gate::H.matrix(), &[0]);
        for (c, t) in [(0, 2), (2, 1), (1, 0)] {
            fast.apply_gate(Gate::CX, &[c, t]);
            qukit_terra::reference::apply_gate(&mut slow.amplitudes, &Gate::CX.matrix(), &[c, t]);
        }
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b));
        }
    }

    #[test]
    fn apply_1q_is_bit_identical_to_scalar_formula() {
        // Whichever shape and lanes the kernel takes (Rx is the
        // real-diagonal, imaginary-off-diagonal butterfly), the result
        // must equal the general butterfly formula as numbers: the shape
        // only drops products with a zero entry.
        let mut sv = Statevector::new(9);
        for q in 0..9 {
            sv.apply_gate(Gate::H, &[q]);
            sv.apply_gate(Gate::T, &[q]);
        }
        for q in [1usize, 4, 8] {
            let m = Gate::Rx(0.7).matrix();
            let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
            let mut expect = sv.amplitudes().to_vec();
            let stride = 1usize << q;
            let mut base = 0usize;
            while base < expect.len() {
                for offset in base..base + stride {
                    let a = expect[offset];
                    let b = expect[offset + stride];
                    expect[offset] = m00 * a + m01 * b;
                    expect[offset + stride] = m10 * a + m11 * b;
                }
                base += stride << 1;
            }
            sv.apply_matrix(&m, &[q]);
            assert_eq!(sv.amplitudes(), &expect[..], "qubit {q}");
        }
    }

    #[test]
    fn probability_one_of_plus_state() {
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::H, &[1]);
        assert!((sv.probability_one(1) - 0.5).abs() < 1e-12);
        assert!(sv.probability_one(0) < 1e-12);
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sv = Statevector::new(1);
        sv.apply_gate(Gate::H, &[0]);
        let outcome = sv.measure(0, &mut rng);
        // After collapse, the state is a basis state.
        let idx = usize::from(outcome);
        assert!(sv.amplitude(idx).norm_sqr() > 1.0 - 1e-12);
        // Repeated measurement is deterministic.
        assert_eq!(sv.measure(0, &mut rng), outcome);
    }

    #[test]
    fn bell_measurements_are_correlated() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let mut sv = Statevector::new(2);
            sv.apply_gate(Gate::H, &[0]);
            sv.apply_gate(Gate::CX, &[0, 1]);
            let a = sv.measure(0, &mut rng);
            let b = sv.measure(1, &mut rng);
            assert_eq!(a, b, "Bell pair must be perfectly correlated");
        }
    }

    #[test]
    fn reset_sends_to_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sv = Statevector::new(1);
        sv.apply_gate(Gate::H, &[0]);
        sv.reset(0, &mut rng);
        assert!(sv.amplitude(0).norm_sqr() > 1.0 - 1e-12);
    }

    #[test]
    fn pauli_expectations_on_known_states() {
        // |0>: <Z>=1, <X>=0. |+>: <X>=1, <Z>=0.
        let sv = Statevector::new(1);
        assert!((sv.expectation_pauli("Z") - 1.0).abs() < 1e-12);
        assert!(sv.expectation_pauli("X").abs() < 1e-12);
        let mut plus = Statevector::new(1);
        plus.apply_gate(Gate::H, &[0]);
        assert!((plus.expectation_pauli("X") - 1.0).abs() < 1e-12);
        assert!(plus.expectation_pauli("Z").abs() < 1e-12);
        // |i> = S|+>: <Y> = 1.
        let mut eye = plus.clone();
        eye.apply_gate(Gate::S, &[0]);
        assert!((eye.expectation_pauli("Y") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_expectation_on_bell_state() {
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::CX, &[0, 1]);
        // String order: pauli[q] is qubit q.
        assert!((sv.expectation_pauli("ZZ") - 1.0).abs() < 1e-12);
        assert!((sv.expectation_pauli("XX") - 1.0).abs() < 1e-12);
        assert!((sv.expectation_pauli("YY") + 1.0).abs() < 1e-12);
        assert!(sv.expectation_pauli("ZI").abs() < 1e-12);
    }

    #[test]
    fn global_phase_does_not_change_probabilities() {
        let mut sv = Statevector::new(1);
        sv.apply_gate(Gate::H, &[0]);
        let before = sv.probabilities();
        sv.apply_global_phase(1.234);
        assert_eq!(sv.probabilities(), before);
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let zero = Statevector::new(1);
        let one = Statevector::from_amplitudes(vec![Complex::ZERO, Complex::ONE]);
        assert!(zero.fidelity(&one) < 1e-12);
        assert!((zero.fidelity(&zero) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_nonzero_terms() {
        let sv = Statevector::from_amplitudes(vec![
            c64(std::f64::consts::FRAC_1_SQRT_2, 0.0),
            Complex::ZERO,
            Complex::ZERO,
            c64(std::f64::consts::FRAC_1_SQRT_2, 0.0),
        ]);
        let text = sv.to_string();
        assert!(text.contains("|00⟩"));
        assert!(text.contains("|11⟩"));
        assert!(!text.contains("|01⟩"));
    }

    #[test]
    #[should_panic(expected = "length must be a power of two")]
    fn from_amplitudes_validates() {
        let _ = Statevector::from_amplitudes(vec![Complex::ONE; 3]);
    }
}
