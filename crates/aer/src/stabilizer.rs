//! Stabilizer (CHP) simulation.
//!
//! The third simulation engine of the Aer layer: Clifford circuits are
//! simulated in `O(n²)` per gate/measurement on the Aaronson-Gottesman
//! tableau (Phys. Rev. A 70, 052328), scaling to *thousands* of qubits
//! where the dense statevector stops at ~30 — the classic example of the
//! "set of simulators and emulators" the paper's Aer section describes,
//! each with its own sweet spot.
//!
//! The tableau stores the destabilizer and stabilizer generators of the
//! state as bit-packed Pauli strings with sign bits; measurement follows
//! the standard three-case update with `rowsum` phase arithmetic.

use crate::counts::Counts;
use crate::error::{AerError, Result};
use crate::terminal;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::gate::Gate;
use qukit_terra::instruction::Operation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stabilizer state over `n` qubits as an Aaronson-Gottesman tableau.
///
/// # Examples
///
/// ```
/// use qukit_aer::stabilizer::StabilizerState;
/// use qukit_terra::gate::Gate;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut state = StabilizerState::new(2);
/// state.apply_gate(Gate::H, &[0]).unwrap();
/// state.apply_gate(Gate::CX, &[0, 1]).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = state.measure(0, &mut rng);
/// let b = state.measure(1, &mut rng);
/// assert_eq!(a, b, "Bell pair is perfectly correlated");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizerState {
    num_qubits: usize,
    words: usize,
    /// `2n + 1` rows (destabilizers, stabilizers, scratch); each row is
    /// `x`-bits then `z`-bits, `words` u64 words each.
    x: Vec<u64>,
    z: Vec<u64>,
    /// Sign bit per row (0 → +1, 1 → −1).
    r: Vec<u8>,
}

impl StabilizerState {
    /// The all-zeros state `|0…0⟩` (stabilizers `Z_i`, destabilizers
    /// `X_i`).
    pub fn new(num_qubits: usize) -> Self {
        let words = num_qubits.div_ceil(64);
        let rows = 2 * num_qubits + 1;
        let mut state = Self {
            num_qubits,
            words,
            x: vec![0; rows * words],
            z: vec![0; rows * words],
            r: vec![0; rows],
        };
        for i in 0..num_qubits {
            state.set_x(i, i, true); // destabilizer i = X_i
            state.set_z(num_qubits + i, i, true); // stabilizer i = Z_i
        }
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    #[inline]
    fn get_x(&self, row: usize, q: usize) -> bool {
        self.x[row * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn get_z(&self, row: usize, q: usize) -> bool {
        self.z[row * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, row: usize, q: usize, value: bool) {
        let idx = row * self.words + q / 64;
        let mask = 1u64 << (q % 64);
        if value {
            self.x[idx] |= mask;
        } else {
            self.x[idx] &= !mask;
        }
    }

    #[inline]
    fn set_z(&mut self, row: usize, q: usize, value: bool) {
        let idx = row * self.words + q / 64;
        let mask = 1u64 << (q % 64);
        if value {
            self.z[idx] |= mask;
        } else {
            self.z[idx] &= !mask;
        }
    }

    /// Applies a Clifford gate.
    ///
    /// # Errors
    ///
    /// Returns [`AerError::UnsupportedInstruction`] for non-Clifford gates.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range operands.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<()> {
        for &q in qubits {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        match gate {
            Gate::I => {}
            Gate::H => self.h(qubits[0]),
            Gate::S => self.s(qubits[0], false),
            Gate::Sdg => self.s(qubits[0], true),
            // A Pauli only flips the sign of the rows it anticommutes with.
            Gate::X => self.flip_signs(qubits[0], |_, z| z),
            Gate::Y => self.flip_signs(qubits[0], |x, z| x ^ z),
            Gate::Z => self.flip_signs(qubits[0], |x, _| x),
            Gate::Sx | Gate::Sxdg => {
                // √X = H S H, √X† = H S† H.
                self.h(qubits[0]);
                self.s(qubits[0], matches!(gate, Gate::Sxdg));
                self.h(qubits[0]);
            }
            Gate::CX => self.cx(qubits[0], qubits[1]),
            Gate::CZ => {
                self.h(qubits[1]);
                self.cx(qubits[0], qubits[1]);
                self.h(qubits[1]);
            }
            Gate::CY => {
                self.s(qubits[1], true);
                self.cx(qubits[0], qubits[1]);
                self.s(qubits[1], false);
            }
            Gate::Swap => {
                self.cx(qubits[0], qubits[1]);
                self.cx(qubits[1], qubits[0]);
                self.cx(qubits[0], qubits[1]);
            }
            other => {
                return Err(AerError::UnsupportedInstruction {
                    name: other.name().to_owned(),
                    simulator: "stabilizer simulator",
                })
            }
        }
        Ok(())
    }

    fn h(&mut self, q: usize) {
        let rows = 2 * self.num_qubits;
        for row in 0..rows {
            let xv = self.get_x(row, q);
            let zv = self.get_z(row, q);
            if xv && zv {
                self.r[row] ^= 1;
            }
            self.set_x(row, q, zv);
            self.set_z(row, q, xv);
        }
    }

    /// `S` (`X → Y`, `Y → −X`) or, with `dagger`, `S†` (`X → −Y`,
    /// `Y → X`).
    fn s(&mut self, q: usize, dagger: bool) {
        for row in 0..2 * self.num_qubits {
            let xv = self.get_x(row, q);
            let zv = self.get_z(row, q);
            if xv && zv != dagger {
                self.r[row] ^= 1;
            }
            self.set_z(row, q, xv ^ zv);
        }
    }

    fn cx(&mut self, control: usize, target: usize) {
        assert_ne!(control, target, "control equals target");
        let rows = 2 * self.num_qubits;
        for row in 0..rows {
            let xc = self.get_x(row, control);
            let zc = self.get_z(row, control);
            let xt = self.get_x(row, target);
            let zt = self.get_z(row, target);
            if xc && zt && (xt == zc) {
                self.r[row] ^= 1;
            }
            self.set_x(row, target, xt ^ xc);
            self.set_z(row, control, zc ^ zt);
        }
    }

    /// Flips the sign of every row whose Pauli on `q` anticommutes with
    /// the applied Pauli; `anticommutes(x, z)` selects them a word at a
    /// time.
    fn flip_signs(&mut self, q: usize, anticommutes: impl Fn(u64, u64) -> u64) {
        let (w, bit) = (q / 64, q % 64);
        for row in 0..2 * self.num_qubits {
            let idx = row * self.words + w;
            self.r[row] ^= (anticommutes(self.x[idx], self.z[idx]) >> bit & 1) as u8;
        }
    }

    /// The exponent of `i` picked up when row `i`'s Pauli string
    /// multiplies row `h`'s: `Σ_q g(x1, z1, x2, z2)` of Aaronson-Gottesman
    /// (`x1, z1` from row `i`), a word at a time. Per qubit `g` is +1, −1
    /// or 0; `plus` and `minus` mark the six (x1, z1, x2, z2) cases that
    /// give ±1, so the sum is `popcount(plus) − popcount(minus)`.
    fn phase_exponent(&self, h: usize, i: usize) -> i64 {
        let (hw, iw) = (h * self.words, i * self.words);
        let mut sum = 0i64;
        for w in 0..self.words {
            let (x1, z1) = (self.x[iw + w], self.z[iw + w]);
            let (x2, z2) = (self.x[hw + w], self.z[hw + w]);
            // Y·Z, X·Y, Z·X give +1; Y·X, X·Z, Z·Y give −1.
            let plus = (x1 & z1 & !x2 & z2) | (x1 & !z1 & x2 & z2) | (!x1 & z1 & x2 & !z2);
            let minus = (x1 & z1 & x2 & !z2) | (x1 & !z1 & !x2 & z2) | (!x1 & z1 & x2 & z2);
            sum += i64::from(plus.count_ones()) - i64::from(minus.count_ones());
        }
        sum
    }

    /// `rowsum(h, i)`: row `h` ← row `i` · row `h` with exact phase
    /// tracking.
    fn rowsum(&mut self, h: usize, i: usize) {
        let phase = 2 * i64::from(self.r[h]) + 2 * i64::from(self.r[i]) + self.phase_exponent(h, i);
        debug_assert_eq!(phase.rem_euclid(2), 0, "rowsum phase must be real");
        self.r[h] = u8::from(phase.rem_euclid(4) != 0);
        for w in 0..self.words {
            self.x[h * self.words + w] ^= self.x[i * self.words + w];
            self.z[h * self.words + w] ^= self.z[i * self.words + w];
        }
    }

    fn clear_row(&mut self, row: usize) {
        for w in 0..self.words {
            self.x[row * self.words + w] = 0;
            self.z[row * self.words + w] = 0;
        }
        self.r[row] = 0;
    }

    fn copy_row(&mut self, dst: usize, src: usize) {
        for w in 0..self.words {
            self.x[dst * self.words + w] = self.x[src * self.words + w];
            self.z[dst * self.words + w] = self.z[src * self.words + w];
        }
        self.r[dst] = self.r[src];
    }

    /// Returns the deterministic Z-measurement outcome of qubit `q`, or
    /// `None` if the outcome is random.
    pub fn deterministic_outcome(&mut self, q: usize) -> Option<bool> {
        let n = self.num_qubits;
        if (n..2 * n).any(|row| self.get_x(row, q)) {
            return None;
        }
        // Deterministic: accumulate into the scratch row.
        let scratch = 2 * n;
        self.clear_row(scratch);
        for i in 0..n {
            if self.get_x(i, q) {
                self.rowsum(scratch, i + n);
            }
        }
        Some(self.r[scratch] == 1)
    }

    /// Projectively measures qubit `q` in the Z basis, collapsing the
    /// state.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        self.measure_with(q, || rng.gen())
    }

    /// [`StabilizerState::measure`] with the outcome of a random
    /// measurement supplied by `random` (called only in that case).
    fn measure_with(&mut self, q: usize, random: impl FnOnce() -> bool) -> bool {
        let n = self.num_qubits;
        // Find a stabilizer anti-commuting with Z_q.
        let pivot = (n..2 * n).find(|&row| self.get_x(row, q));
        match pivot {
            Some(p) => {
                // Random outcome. The destabilizer paired with the pivot
                // (row p−n) anticommutes with it and is overwritten below,
                // so it is skipped rather than multiplied.
                for row in 0..2 * n {
                    if row != p && row != p - n && self.get_x(row, q) {
                        self.rowsum(row, p);
                    }
                }
                self.copy_row(p - n, p);
                self.clear_row(p);
                let outcome = random();
                self.set_z(p, q, true);
                self.r[p] = u8::from(outcome);
                outcome
            }
            None => self
                .deterministic_outcome(q)
                .expect("no anti-commuting stabilizer implies determinism"),
        }
    }

    /// The expectation of `Z_q`: ±1 when deterministic, 0 when random.
    pub fn expectation_z(&mut self, q: usize) -> f64 {
        match self.deterministic_outcome(q) {
            Some(true) => -1.0,
            Some(false) => 1.0,
            None => 0.0,
        }
    }
}

/// Shot-based Clifford-circuit simulator on the stabilizer tableau.
#[derive(Debug, Clone, Default)]
pub struct StabilizerSimulator {
    seed: Option<u64>,
}

impl StabilizerSimulator {
    /// Creates the simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Executes `shots` repetitions of a Clifford circuit (gates,
    /// measurements, resets, barriers, conditionals).
    ///
    /// A measurement-terminal circuit (see
    /// `terminal::per_shot_reason`) is evolved once, and each
    /// shot is drawn from the outcome distribution measured off clones of
    /// that tableau (see `run_sampled`). Gates draw no randomness, so for
    /// a fixed seed the counts equal a per-shot replay of the whole
    /// circuit. Other circuits replay every instruction per shot. The
    /// `aer.stabilizer_run` span records which path ran and, for
    /// trajectories, why.
    ///
    /// # Errors
    ///
    /// Returns an error for non-Clifford gates or more than 64 classical
    /// bits.
    pub fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        if circuit.num_clbits() > 64 {
            return Err(AerError::TooManyClbits { requested: circuit.num_clbits() });
        }
        let mut rng = match self.seed {
            Some(seed) => StdRng::seed_from_u64(seed),
            None => StdRng::from_entropy(),
        };
        let reason = terminal::per_shot_reason(circuit);
        let _span = terminal::run_span("aer.stabilizer_run", circuit.num_qubits(), shots, reason);
        qukit_obs::counter_inc("qukit_aer_stabilizer_runs_total");
        qukit_obs::counter_add("qukit_aer_shots_total", shots as u64);
        let mut gates = 0u64;
        let counts = match reason {
            None => run_sampled(circuit, shots, &mut rng, &mut gates)?,
            Some(_) => {
                let _sample_span =
                    qukit_obs::span!("aer.sample", shots = shots, mode = "stabilizer")
                        .with_metric("qukit_aer_sample_seconds");
                let mut counts = Counts::new(circuit.num_clbits());
                for _ in 0..shots {
                    counts.record(self.run_shot(circuit, &mut rng, &mut gates)?);
                }
                counts
            }
        };
        qukit_obs::counter_add("qukit_aer_stabilizer_gates_total", gates);
        Ok(counts)
    }

    fn run_shot(&self, circuit: &QuantumCircuit, rng: &mut StdRng, gates: &mut u64) -> Result<u64> {
        let mut state = StabilizerState::new(circuit.num_qubits());
        let mut creg = 0u64;
        for inst in circuit.instructions() {
            if let Some(cond) = &inst.condition {
                let mut value = 0u64;
                for (i, &c) in cond.clbits.iter().enumerate() {
                    if (creg >> c) & 1 == 1 {
                        value |= 1 << i;
                    }
                }
                if value != cond.value {
                    continue;
                }
            }
            match &inst.op {
                Operation::Gate(g) => {
                    state.apply_gate(*g, &inst.qubits)?;
                    *gates += 1;
                }
                Operation::Measure => {
                    let bit = state.measure(inst.qubits[0], rng);
                    if bit {
                        creg |= 1 << inst.clbits[0];
                    } else {
                        creg &= !(1 << inst.clbits[0]);
                    }
                }
                Operation::Reset => {
                    if state.measure(inst.qubits[0], rng) {
                        state.apply_gate(Gate::X, &[inst.qubits[0]])?;
                    }
                }
                Operation::Barrier => {}
            }
        }
        Ok(creg)
    }
}

/// Evolve once, sample many: the gates of a measurement-terminal circuit
/// are applied to one tableau, and the outcome distribution is read off
/// clones of it.
///
/// Which measurements are random does not depend on earlier outcomes, and
/// the sign bits evolve affinely, so with `k` random measurements the
/// outcome is `base ⊕ Σ bⱼ·columnⱼ` over the random bits `bⱼ`. Measuring
/// `k + 1` clones (all `bⱼ = 0`, then each alone set) yields `base` and
/// the columns. Each shot draws its `k` bits in measurement order, the
/// RNG stream a per-shot replay consumes, so seeded counts match it.
fn run_sampled(
    circuit: &QuantumCircuit,
    shots: usize,
    rng: &mut StdRng,
    gates: &mut u64,
) -> Result<Counts> {
    let mut state = StabilizerState::new(circuit.num_qubits());
    let mut measures: Vec<(usize, usize)> = Vec::new();
    for inst in circuit.instructions() {
        match &inst.op {
            Operation::Gate(g) => {
                state.apply_gate(*g, &inst.qubits)?;
                *gates += 1;
            }
            Operation::Measure => measures.push((inst.qubits[0], inst.clbits[0])),
            Operation::Barrier => {}
            Operation::Reset => unreachable!("terminal circuits have no reset"),
        }
    }
    // Measures a clone with random outcome `j` forced to `Some(j) == set`;
    // returns the outcome and the number of random measurements.
    let measure_clone = |set: Option<usize>| {
        let mut shot = state.clone();
        let mut k = 0usize;
        let outcome = measures.iter().fold(0u64, |creg, &(q, c)| {
            let bit = shot.measure_with(q, || {
                k += 1;
                set == Some(k - 1)
            });
            creg | u64::from(bit) << c
        });
        (outcome, k)
    };
    let (base, k) = measure_clone(None);
    let columns: Vec<u64> = (0..k).map(|j| measure_clone(Some(j)).0 ^ base).collect();
    let _sample_span = qukit_obs::span!("aer.sample", shots = shots, mode = "stabilizer")
        .with_metric("qukit_aer_sample_seconds");
    let mut counts = Counts::new(circuit.num_clbits());
    for _ in 0..shots {
        counts.record(columns.iter().fold(base, |o, &col| if rng.gen() { o ^ col } else { o }));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::QasmSimulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clifford_gates() -> Vec<Gate> {
        vec![Gate::H, Gate::S, Gate::Sdg, Gate::X, Gate::Y, Gate::Z, Gate::Sx]
    }

    /// A random tableau: `|0…0⟩` scrambled by `4n` random H/S/CX gates.
    fn random_tableau(n: usize, rng: &mut StdRng) -> StabilizerState {
        use rand::Rng;
        let mut state = StabilizerState::new(n);
        for _ in 0..4 * n {
            let a = rng.gen_range(0..n);
            match rng.gen_range(0..3u32) {
                0 => state.h(a),
                1 => state.s(a, false),
                _ if n > 1 => {
                    let b = (a + rng.gen_range(1..n)) % n;
                    state.cx(a, b);
                }
                _ => {}
            }
        }
        state
    }

    #[test]
    fn direct_pauli_and_sdg_updates_match_composite_sequences() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 5, 64, 70] {
            for _ in 0..4 {
                let base = random_tableau(n, &mut rng);
                for q in [0, n / 2, n - 1] {
                    // The H/S sequences these gates used to run as.
                    let composites = [
                        (Gate::X, "hssh"),
                        (Gate::Z, "ss"),
                        (Gate::Y, "sshssh"),
                        (Gate::Sdg, "sss"),
                    ];
                    for (gate, steps) in composites {
                        let mut direct = base.clone();
                        direct.apply_gate(gate, &[q]).unwrap();
                        let mut composite = base.clone();
                        for step in steps.chars() {
                            match step {
                                'h' => composite.h(q),
                                _ => composite.s(q, false),
                            }
                        }
                        assert_eq!(direct, composite, "{} on qubit {q} of {n}", gate.name());
                    }
                }
            }
        }
    }

    /// The per-qubit `g` sum of Aaronson-Gottesman, one bit at a time:
    /// the reference for [`StabilizerState::phase_exponent`].
    fn phase_exponent_per_bit(state: &StabilizerState, h: usize, i: usize) -> i64 {
        let mut sum = 0i64;
        for q in 0..state.num_qubits {
            let x1 = i64::from(state.get_x(i, q));
            let z1 = i64::from(state.get_z(i, q));
            let x2 = i64::from(state.get_x(h, q));
            let z2 = i64::from(state.get_z(h, q));
            sum += match (x1, z1) {
                (0, 0) => 0,
                (1, 1) => z2 - x2,
                (1, 0) => z2 * (2 * x2 - 1),
                _ => x2 * (1 - 2 * z2),
            };
        }
        sum
    }

    #[test]
    fn word_parallel_phase_matches_per_bit_formula() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        for n in [1usize, 63, 64, 65, 130] {
            let mut state = StabilizerState::new(n);
            for _ in 0..50 {
                // Arbitrary (not necessarily commuting) Pauli rows, so
                // every (x1, z1, x2, z2) case and odd sums occur.
                for row in [0, n] {
                    for q in 0..n {
                        state.set_x(row, q, rng.gen_bool(0.5));
                        state.set_z(row, q, rng.gen_bool(0.5));
                    }
                }
                for (h, i) in [(0, n), (n, 0), (0, 0)] {
                    assert_eq!(
                        state.phase_exponent(h, i),
                        phase_exponent_per_bit(&state, h, i),
                        "n={n} rows ({h}, {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_state_measures_zero() {
        let mut state = StabilizerState::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        for q in 0..3 {
            assert!(!state.measure(q, &mut rng));
            assert_eq!(state.expectation_z(q), 1.0);
        }
    }

    #[test]
    fn x_flips_deterministically() {
        let mut state = StabilizerState::new(2);
        state.apply_gate(Gate::X, &[1]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!state.measure(0, &mut rng));
        assert!(state.measure(1, &mut rng));
        assert_eq!(state.expectation_z(1), -1.0);
    }

    #[test]
    fn plus_state_is_random_then_sticky() {
        let mut outcomes = [0usize; 2];
        for seed in 0..40u64 {
            let mut state = StabilizerState::new(1);
            state.apply_gate(Gate::H, &[0]).unwrap();
            assert_eq!(state.expectation_z(0), 0.0, "pre-measurement Z is random");
            let mut rng = StdRng::seed_from_u64(seed);
            let first = state.measure(0, &mut rng);
            outcomes[usize::from(first)] += 1;
            // Repeated measurement must repeat.
            assert_eq!(state.measure(0, &mut rng), first);
        }
        assert!(outcomes[0] > 5 && outcomes[1] > 5, "both outcomes occur: {outcomes:?}");
    }

    #[test]
    fn bell_and_ghz_correlations() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut state = StabilizerState::new(3);
            state.apply_gate(Gate::H, &[0]).unwrap();
            state.apply_gate(Gate::CX, &[0, 1]).unwrap();
            state.apply_gate(Gate::CX, &[1, 2]).unwrap();
            let a = state.measure(0, &mut rng);
            assert_eq!(state.measure(1, &mut rng), a);
            assert_eq!(state.measure(2, &mut rng), a);
        }
    }

    #[test]
    fn matches_statevector_simulator_on_random_clifford_circuits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..6 {
            let n = 4;
            let mut circ = QuantumCircuit::with_size(n, n);
            for _ in 0..25 {
                if rng.gen_bool(0.3) {
                    let a = rng.gen_range(0..n);
                    let mut b = rng.gen_range(0..n);
                    while b == a {
                        b = rng.gen_range(0..n);
                    }
                    circ.cx(a, b).unwrap();
                } else {
                    let g = clifford_gates()[rng.gen_range(0..7usize)];
                    circ.append(g, &[rng.gen_range(0..n)]).unwrap();
                }
            }
            for q in 0..n {
                circ.measure(q, q).unwrap();
            }
            let shots = 4000;
            let dense = QasmSimulator::new().with_seed(trial).run(&circ, shots).unwrap();
            let tableau = StabilizerSimulator::new().with_seed(trial).run(&circ, shots).unwrap();
            let fidelity = dense.hellinger_fidelity(&tableau);
            assert!(fidelity > 0.99, "trial {trial}: fidelity {fidelity}");
        }
    }

    #[test]
    fn scales_to_hundreds_of_qubits() {
        // GHZ-200: far beyond any dense simulator.
        let n = 200;
        let mut circ = QuantumCircuit::with_size(n, n);
        circ.h(0).unwrap();
        for q in 1..n {
            circ.cx(q - 1, q).unwrap();
        }
        for q in 0..n {
            circ.measure(q, q).unwrap();
        }
        let err = StabilizerSimulator::new().with_seed(1).run(&circ, 10);
        // 200 clbits exceed the 64-bit Counts; measure only 3 spread-out
        // qubits instead.
        assert!(err.is_err(), "collapsing 200 clbits into u64 must be rejected");
        let mut circ = QuantumCircuit::with_size(n, 3);
        circ.h(0).unwrap();
        for q in 1..n {
            circ.cx(q - 1, q).unwrap();
        }
        circ.measure(0, 0).unwrap();
        circ.measure(n / 2, 1).unwrap();
        circ.measure(n - 1, 2).unwrap();
        let counts = StabilizerSimulator::new().with_seed(1).run(&circ, 200).unwrap();
        assert_eq!(counts.get_value(0) + counts.get_value(0b111), 200);
        assert!(counts.get_value(0) > 50 && counts.get_value(0b111) > 50);
    }

    #[test]
    fn non_clifford_gate_is_rejected() {
        let mut state = StabilizerState::new(1);
        let err = state.apply_gate(Gate::T, &[0]).unwrap_err();
        assert!(err.to_string().contains("stabilizer"));
    }

    #[test]
    fn conditionals_and_reset_work() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.x(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.reset(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = StabilizerSimulator::new().with_seed(3).run(&circ, 100).unwrap();
        // q0 reset to 0, q1 flipped by the conditional.
        assert_eq!(counts.get_value(0b10), 100);
    }

    /// A seeded measurement-terminal Clifford circuit on `n` qubits whose
    /// outcome support stays small: H on three qubits, then a deep network
    /// of basis-permuting Cliffords, then `min(n, 64)` measurements
    /// spread over the register.
    fn terminal_clifford(n: usize, seed: u64) -> QuantumCircuit {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let measured = n.min(64);
        let mut circ = QuantumCircuit::with_size(n, measured);
        for q in [0, n / 2, n - 1] {
            circ.h(q).unwrap();
        }
        let oneq = [Gate::X, Gate::Y, Gate::Z, Gate::S, Gate::Sdg];
        let twoq = [Gate::CX, Gate::CZ, Gate::CY, Gate::Swap];
        for _ in 0..6 * n {
            let a = rng.gen_range(0..n);
            if rng.gen_bool(0.6) {
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                circ.append(twoq[rng.gen_range(0..twoq.len())], &[a, b]).unwrap();
            } else {
                circ.append(oneq[rng.gen_range(0..oneq.len())], &[a]).unwrap();
            }
        }
        for c in 0..measured {
            circ.measure(c * n / measured, c).unwrap();
        }
        circ
    }

    #[test]
    fn evolve_once_sampling_equals_per_shot_replay() {
        // Random terminal Clifford circuits with H and Sx anywhere, so up
        // to every measurement is random: the affine outcome map must
        // reproduce a per-shot replay of the whole circuit bit for bit.
        use rand::Rng;
        let mut gen = StdRng::seed_from_u64(8);
        for (trial, n) in [3usize, 6, 9, 40, 66].into_iter().enumerate() {
            let measured = n.min(64);
            let mut circ = QuantumCircuit::with_size(n, measured);
            let oneq = [Gate::H, Gate::S, Gate::Sdg, Gate::X, Gate::Y, Gate::Z, Gate::Sx];
            for _ in 0..5 * n {
                let a = gen.gen_range(0..n);
                if n > 1 && gen.gen_bool(0.4) {
                    let b = (a + gen.gen_range(1..n)) % n;
                    circ.cx(a, b).unwrap();
                } else {
                    circ.append(oneq[gen.gen_range(0..oneq.len())], &[a]).unwrap();
                }
            }
            for c in 0..measured {
                circ.measure((c * 7) % n, c).unwrap();
            }
            let sim = StabilizerSimulator::new().with_seed(trial as u64);
            let sampled = sim.run(&circ, 300).unwrap();
            let mut rng = StdRng::seed_from_u64(trial as u64);
            let mut replay = Counts::new(measured);
            for _ in 0..300 {
                replay.record(sim.run_shot(&circ, &mut rng, &mut 0).unwrap());
            }
            assert_eq!(sampled, replay, "n={n}");
        }
    }

    #[test]
    fn seeded_terminal_clifford_counts_are_pinned() {
        // Captured from the per-shot engine (fresh tableau and every gate
        // re-applied each shot). Gates draw no randomness, so evolving
        // once and measuring a clone per shot must reproduce these counts
        // bit for bit — including the two-word rows at 70 qubits.
        type Pin = (usize, u64, [(u64, usize); 8]);
        let pinned: [Pin; 3] = [
            (
                16,
                1,
                [
                    (190, 31),
                    (434, 38),
                    (694, 33),
                    (954, 27),
                    (18679, 37),
                    (18939, 24),
                    (19199, 35),
                    (19443, 31),
                ],
            ),
            (
                32,
                2,
                [
                    (1233304248, 33),
                    (1233566393, 39),
                    (1237498552, 33),
                    (1237760697, 30),
                    (2634039208, 37),
                    (2634301353, 26),
                    (2638233512, 32),
                    (2638495657, 26),
                ],
            ),
            (
                70,
                3,
                [
                    (9709912682910512541, 25),
                    (9709913782422140349, 30),
                    (9714416282537885085, 26),
                    (9714417382049512893, 34),
                    (16627441706254628253, 38),
                    (16627442805766256061, 28),
                    (16631945305882000797, 39),
                    (16631946405393628605, 36),
                ],
            ),
        ];
        for (n, seed, expected) in pinned {
            let circ = terminal_clifford(n, seed);
            let counts = StabilizerSimulator::new().with_seed(seed).run(&circ, 256).unwrap();
            let got: Vec<(u64, usize)> = counts.iter().collect();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn cz_and_swap_tableau_updates() {
        // CZ|++⟩ measured in X basis after H's: reproduces the CZ truth
        // table through H-conjugation into CX behaviour.
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.x(0).unwrap();
        circ.h(1).unwrap();
        circ.cz(0, 1).unwrap();
        circ.h(1).unwrap(); // net effect: CX(0,1)
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = StabilizerSimulator::new().with_seed(4).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b11), 100);

        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.x(0).unwrap();
        circ.swap(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = StabilizerSimulator::new().with_seed(5).run(&circ, 50).unwrap();
        assert_eq!(counts.get_value(0b10), 50);
    }
}
