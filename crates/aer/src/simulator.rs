//! The circuit simulators.
//!
//! * [`QasmSimulator`] — shot-based execution with measurement, reset,
//!   classical conditionals and (optionally) a [`NoiseModel`]; the
//!   workhorse corresponding to Qiskit Aer's `qasm_simulator` used in the
//!   paper's walkthrough (`Aer.get_backend('qasm_simulator')`).
//! * [`StatevectorSimulator`] — exact final-state computation for unitary
//!   circuits.
//! * [`UnitarySimulator`] — full-unitary extraction for verification.

use crate::counts::Counts;
use crate::error::{AerError, Result};
use crate::noise::NoiseModel;
use crate::parallel::{self, ParallelConfig};
use crate::statevector::Statevector;
use crate::terminal::{self, PerShotReason};
use crate::trajectory::{Plan, TreeStats};
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::instruction::{Instruction, Operation};
use qukit_terra::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_QUBITS: usize = 30;

/// Counter of statevector gate applications actually performed: once per
/// gate on the evolve-once path, and once per gate per shot-tree group on
/// the trajectory path, so shots that share a group share its count.
pub(crate) const STATEVECTOR_GATES: &str = "qukit_aer_statevector_gates_total";

/// Local accumulator for apply-gate counts, flushed to the global
/// [`qukit_obs`] registry once per run so the per-gate hot path stays free
/// of locks and atomics.
#[derive(Debug, Default)]
pub(crate) struct GateTally {
    pub(crate) gates: u64,
    amplitudes: u64,
}

impl GateTally {
    /// Records one gate application that touched `amplitudes` entries.
    #[inline]
    pub(crate) fn record(&mut self, amplitudes: u64) {
        self.gates += 1;
        self.amplitudes += amplitudes;
    }

    /// Records `gates` source gates folded into one pass over `amplitudes`
    /// entries (used by the fused kernels).
    #[inline]
    pub(crate) fn record_n(&mut self, gates: u64, amplitudes: u64) {
        self.gates += gates;
        self.amplitudes += amplitudes;
    }

    /// Flushes into the named gate counter plus the shared
    /// amplitudes-touched counter (no-op while recording is disabled).
    pub(crate) fn flush(self, gate_counter: &str) {
        qukit_obs::counter_add(gate_counter, self.gates);
        qukit_obs::counter_add("qukit_aer_amplitudes_touched_total", self.amplitudes);
    }
}

/// Shot-based simulator with optional noise injection.
///
/// # Examples
///
/// ```
/// use qukit_aer::simulator::QasmSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut bell = QuantumCircuit::with_size(2, 2);
/// bell.h(0).unwrap();
/// bell.cx(0, 1).unwrap();
/// bell.measure(0, 0).unwrap();
/// bell.measure(1, 1).unwrap();
///
/// let counts = QasmSimulator::new().with_seed(7).run(&bell, 1000)?;
/// assert_eq!(counts.total(), 1000);
/// assert_eq!(counts.get("01") + counts.get("10"), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QasmSimulator {
    noise: Option<NoiseModel>,
    seed: Option<u64>,
    parallel: ParallelConfig,
}

impl QasmSimulator {
    /// Creates an ideal (noiseless) simulator. The parallel configuration
    /// defaults to [`ParallelConfig::from_env`], so `QUKIT_THREADS` /
    /// `QUKIT_FUSION` steer every default-constructed instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a noise model (builder style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Fixes the RNG seed for reproducible sampling (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the parallel/fusion configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The attached noise model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// The active parallel configuration.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Executes `shots` repetitions of `circuit` and histograms the
    /// classical outcomes.
    ///
    /// A noiseless circuit whose measurements are terminal (see
    /// `terminal::per_shot_reason`) is evolved once through the fused
    /// kernels and its terminal distribution sampled `shots` times: one
    /// probability CDF, then one binary search per shot. Anything else
    /// runs on the shot tree (`trajectory`): shots that make the same
    /// random decisions share one evolution, with the counts a
    /// shot-by-shot replay gives. The `aer.qasm_run` span records which
    /// path ran; for a sampled run, how many operations fusion made of the
    /// gates and how many phases ran tile by tile (`fused=<ops>/<gates>
    /// tiled=<phases>`); for trajectories, why and how many distinct
    /// trajectories (`trajectories=<leaves>`) were evolved.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit is too wide or uses more than 64
    /// classical bits.
    pub fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        check_width(circuit)?;
        let mut rng = match self.seed {
            Some(seed) => StdRng::seed_from_u64(seed),
            None => StdRng::from_entropy(),
        };
        let reason = self.per_shot_reason(circuit);
        let mut span = terminal::run_span("aer.qasm_run", circuit.num_qubits(), shots, reason);
        qukit_obs::counter_inc("qukit_aer_qasm_runs_total");
        qukit_obs::counter_add("qukit_aer_shots_total", shots as u64);
        if reason.is_none() {
            let base_seed = self.seed.unwrap_or_else(|| rng.gen());
            let (counts, evolved) = self.run_sampled(circuit, shots, base_seed, &mut Vec::new())?;
            span.append_detail(format_args!("{evolved}"));
            return Ok(counts);
        }
        let plan = Plan::new(circuit, self.noise.as_ref());
        let mut tally = GateTally::default();
        let (counts, stats) = if self.parallel.threads > 1 && shots > 1 {
            let base_seed = self.seed.unwrap_or_else(|| rng.gen());
            self.run_trajectories_batched(&plan, shots, base_seed, &mut tally)
        } else {
            plan.run(shots, &mut rng, &mut tally)
        };
        tally.flush(STATEVECTOR_GATES);
        span.append_detail(format_args!("trajectories={}", stats.leaves));
        Ok(counts)
    }

    /// Executes a batch of circuits — typically the bindings of one
    /// parameter sweep — with `shots` repetitions each, reusing the
    /// amplitude buffer across bindings so a 64-point sweep allocates one
    /// state instead of 64.
    ///
    /// For a seeded simulator the returned histograms are bit-identical
    /// to calling [`QasmSimulator::run`] once per circuit: each binding
    /// runs the exact same evolution and sampling code with the same
    /// seed derivation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QasmSimulator::run`], for any circuit.
    pub fn run_batch(&self, circuits: &[QuantumCircuit], shots: usize) -> Result<Vec<Counts>> {
        let _span =
            qukit_obs::span!("aer.qasm_run_batch", circuits = circuits.len(), shots = shots,);
        qukit_obs::counter_inc("qukit_aer_batch_runs_total");
        let mut amps: Vec<Complex> = Vec::new();
        circuits
            .iter()
            .map(|circuit| {
                check_width(circuit)?;
                if self.per_shot_reason(circuit).is_some() {
                    return self.run(circuit, shots);
                }
                qukit_obs::counter_inc("qukit_aer_qasm_runs_total");
                qukit_obs::counter_add("qukit_aer_shots_total", shots as u64);
                let base_seed = self.seed.unwrap_or_else(|| rand::thread_rng().gen());
                Ok(self.run_sampled(circuit, shots, base_seed, &mut amps)?.0)
            })
            .collect()
    }

    /// Why `circuit` must run shot by shot on this simulator, if it must.
    fn per_shot_reason(&self, circuit: &QuantumCircuit) -> Option<PerShotReason> {
        if self.noise.as_ref().is_some_and(|noise| !noise.is_ideal()) {
            Some(PerShotReason::Noise)
        } else {
            terminal::per_shot_reason(circuit)
        }
    }

    /// Evolve once through the fused kernels into `amps` (a buffer reused
    /// across the bindings of a batch), then draw every shot from the
    /// terminal CDF in per-batch seeded RNG streams. For a fixed seed the
    /// counts are identical at every thread count and chunk size.
    fn run_sampled(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        base_seed: u64,
        amps: &mut Vec<Complex>,
    ) -> Result<(Counts, parallel::Evolved)> {
        let mut gates: Vec<Instruction> = Vec::new();
        let mut measures: Vec<(usize, usize)> = Vec::new();
        for inst in circuit.instructions() {
            match &inst.op {
                Operation::Gate(_) => gates.push(inst.clone()),
                Operation::Measure => measures.push((inst.qubits[0], inst.clbits[0])),
                Operation::Barrier => {}
                Operation::Reset => unreachable!("terminal circuits have no reset"),
            }
        }
        amps.clear();
        amps.resize(1usize << circuit.num_qubits(), Complex::ZERO);
        amps[0] = Complex::ONE;
        let mut tally = GateTally::default();
        let evolved = parallel::evolve_fused(amps, &gates, &self.parallel, &mut tally)?;
        tally.flush(STATEVECTOR_GATES);
        let _sample_span = qukit_obs::span!("aer.sample", shots = shots, mode = "cdf")
            .with_metric("qukit_aer_sample_seconds");
        let cdf = parallel::probability_cdf(amps);
        let samples = parallel::sample_indices(&cdf, shots, base_seed, self.parallel.threads);
        let mut counts = Counts::new(circuit.num_clbits());
        for basis in samples {
            let mut outcome = 0u64;
            for &(q, c) in &measures {
                if (basis >> q) & 1 == 1 {
                    outcome |= 1 << c;
                }
            }
            counts.record(outcome);
        }
        Ok((counts, evolved))
    }

    /// Shot-parallel trajectories: shots are split into fixed-size batches
    /// with per-batch seeded RNG streams (thread-count-invariant for a
    /// fixed seed), each run through the shot tree; workers claim batches
    /// in a fixed stride.
    fn run_trajectories_batched(
        &self,
        plan: &Plan<'_>,
        shots: usize,
        base_seed: u64,
        tally: &mut GateTally,
    ) -> (Counts, TreeStats) {
        let batch_size = parallel::TRAJECTORY_BATCH;
        let batches = shots.div_ceil(batch_size);
        let threads = self.parallel.threads.clamp(1, parallel::MAX_THREADS).min(batches);
        let run_batch = |batch: usize| -> (Counts, TreeStats, GateTally) {
            let lo = batch * batch_size;
            let hi = ((batch + 1) * batch_size).min(shots);
            let mut rng = StdRng::seed_from_u64(parallel::batch_seed(base_seed, batch as u64));
            let mut tally = GateTally::default();
            let (counts, stats) = plan.run(hi - lo, &mut rng, &mut tally);
            (counts, stats, tally)
        };
        let results: Vec<(Counts, TreeStats, GateTally)> = if threads <= 1 {
            (0..batches).map(run_batch).collect()
        } else {
            std::thread::scope(|scope| {
                let run_batch = &run_batch;
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            let mut batch = w;
                            while batch < batches {
                                local.push(run_batch(batch));
                                batch += threads;
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("trajectory worker panicked"))
                    .collect()
            })
        };
        let mut counts = Counts::new(plan.num_clbits());
        let mut stats = TreeStats::default();
        for (batch_counts, batch_stats, batch_tally) in results {
            for (outcome, n) in batch_counts.iter() {
                counts.record_n(outcome, n);
            }
            stats.merge(batch_stats);
            tally.record_n(batch_tally.gates, batch_tally.amplitudes);
        }
        (counts, stats)
    }
}

/// Rejects circuits wider than the dense limit or with more clbits than
/// one `u64` outcome holds.
fn check_width(circuit: &QuantumCircuit) -> Result<()> {
    if circuit.num_qubits() > MAX_QUBITS {
        return Err(AerError::TooManyQubits { requested: circuit.num_qubits(), max: MAX_QUBITS });
    }
    if circuit.num_clbits() > 64 {
        return Err(AerError::TooManyClbits { requested: circuit.num_clbits() });
    }
    Ok(())
}

/// Exact statevector simulator for unitary circuits, on the fused chunked
/// kernels of [`crate::parallel`]. Its [`ParallelConfig`] picks threads,
/// chunk size, fusion and SIMD; every configuration gives the same
/// amplitudes bit for bit.
///
/// # Examples
///
/// ```
/// use qukit_aer::simulator::StatevectorSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut ghz = QuantumCircuit::new(3);
/// ghz.h(0).unwrap();
/// ghz.cx(0, 1).unwrap();
/// ghz.cx(1, 2).unwrap();
/// let state = StatevectorSimulator::new().run(&ghz)?;
/// assert!((state.amplitude(0).norm_sqr() - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StatevectorSimulator {
    config: ParallelConfig,
}

impl StatevectorSimulator {
    /// Creates the simulator configured by [`ParallelConfig::from_env`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the simulator with an explicit kernel configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use qukit_aer::parallel::ParallelConfig;
    /// use qukit_aer::simulator::StatevectorSimulator;
    /// use qukit_terra::circuit::QuantumCircuit;
    ///
    /// # fn main() -> Result<(), qukit_aer::error::AerError> {
    /// let mut ghz = QuantumCircuit::new(3);
    /// ghz.h(0).unwrap();
    /// ghz.cx(0, 1).unwrap();
    /// ghz.cx(1, 2).unwrap();
    /// let state = StatevectorSimulator::new().run(&ghz)?;
    /// let threaded = StatevectorSimulator::with_config(ParallelConfig::with_threads(2));
    /// assert_eq!(threaded.run(&ghz)?, state);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_config(config: ParallelConfig) -> Self {
        Self { config }
    }

    /// Computes the exact final state of a unitary circuit.
    ///
    /// # Errors
    ///
    /// Returns [`AerError::UnsupportedInstruction`] for measurement, reset
    /// or conditioned gates, and [`AerError::TooManyQubits`] for circuits
    /// beyond the dense limit.
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<Statevector> {
        let _span = qukit_obs::span!(
            "aer.statevector_run",
            qubits = circuit.num_qubits(),
            threads = self.config.threads,
            fusion = if self.config.fusion { "on" } else { "off" },
            simd = if self.config.simd { "on" } else { "off" },
        );
        qukit_obs::counter_inc("qukit_aer_statevector_runs_total");
        parallel::evolve_unitary(circuit, &self.config, "statevector simulator")
    }
}

/// Full-unitary simulator (exponentially expensive; for verification).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitarySimulator;

impl UnitarySimulator {
    /// Creates the simulator.
    pub fn new() -> Self {
        Self
    }

    /// Computes the circuit's unitary matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StatevectorSimulator::run`], with a tighter
    /// width limit (the matrix is `4^n` entries).
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<Matrix> {
        if circuit.num_qubits() > 13 {
            return Err(AerError::TooManyQubits { requested: circuit.num_qubits(), max: 13 });
        }
        for inst in circuit.instructions() {
            let supported = matches!(inst.op, Operation::Gate(_) | Operation::Barrier)
                && inst.condition.is_none();
            if !supported {
                return Err(AerError::UnsupportedInstruction {
                    name: inst.op.name().to_owned(),
                    simulator: "unitary simulator",
                });
            }
        }
        qukit_terra::reference::unitary(circuit).map_err(AerError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoiseModel, QuantumError, ReadoutError};
    use qukit_terra::gate::Gate;

    fn is_measurement_terminal(circuit: &QuantumCircuit) -> bool {
        terminal::per_shot_reason(circuit).is_none()
    }

    fn bell_measured() -> QuantumCircuit {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        circ
    }

    #[test]
    fn bell_counts_are_correlated_and_balanced() {
        let counts = QasmSimulator::new().with_seed(1).run(&bell_measured(), 4000).unwrap();
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.get("01"), 0);
        assert_eq!(counts.get("10"), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = QasmSimulator::new().with_seed(9).run(&bell_measured(), 100).unwrap();
        let b = QasmSimulator::new().with_seed(9).run(&bell_measured(), 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_batch_is_bit_identical_to_per_circuit_runs() {
        let circuits: Vec<QuantumCircuit> = (0..8)
            .map(|i| {
                let mut circ = QuantumCircuit::with_size(3, 3);
                circ.ry(0.1 + 0.2 * i as f64, 0).unwrap();
                circ.cx(0, 1).unwrap();
                circ.ry(0.3 + 0.1 * i as f64, 2).unwrap();
                circ.cx(1, 2).unwrap();
                circ.measure_all();
                circ
            })
            .collect();
        let sim = QasmSimulator::new().with_seed(13).with_parallel(ParallelConfig::with_threads(2));
        let batch = sim.run_batch(&circuits, 512).unwrap();
        assert_eq!(batch.len(), circuits.len());
        for (circ, counts) in circuits.iter().zip(&batch) {
            assert_eq!(&sim.run(circ, 512).unwrap(), counts);
        }
        // The serial front-end also accepts batches (per-run fallback).
        let serial = QasmSimulator::new().with_seed(13);
        let batch = serial.run_batch(&circuits, 64).unwrap();
        for (circ, counts) in circuits.iter().zip(&batch) {
            assert_eq!(&serial.run(circ, 64).unwrap(), counts);
        }
    }

    #[test]
    fn default_counts_match_the_scalar_kernels_bitwise() {
        // 14 qubits: past one default chunk, so the SIMD side runs the
        // cache-blocked tiles. The scalar kernels (`QUKIT_SIMD=off`) must
        // yield the same amplitudes bit for bit, hence the same counts.
        let n = 14;
        let mut circ = QuantumCircuit::with_size(n, n);
        for q in 0..n {
            circ.h(q).unwrap();
            circ.rz(0.1 + 0.2 * q as f64, q).unwrap();
        }
        for q in 0..n - 1 {
            circ.cx(q, q + 1).unwrap();
            circ.ry(0.3, n - 1 - q).unwrap();
        }
        circ.ccx(0, 7, 13).unwrap();
        for q in 0..n {
            circ.measure(q, q).unwrap();
        }
        let default = QasmSimulator::new().with_seed(5).run(&circ, 2048).unwrap();
        let scalar = QasmSimulator::new()
            .with_seed(5)
            .with_parallel(ParallelConfig { simd: false, ..ParallelConfig::from_env() })
            .run(&circ, 2048)
            .unwrap();
        assert_eq!(default, scalar);
    }

    #[test]
    fn unmeasured_qubits_report_zero() {
        let mut circ = QuantumCircuit::with_size(2, 1);
        circ.x(0).unwrap();
        circ.x(1).unwrap();
        circ.measure(1, 0).unwrap();
        let counts = QasmSimulator::new().with_seed(2).run(&circ, 50).unwrap();
        assert_eq!(counts.get_value(1), 50);
    }

    #[test]
    fn mid_circuit_measurement_forces_trajectories() {
        // Measure then apply a conditional X: deterministic teleport-like
        // correction.
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.x(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = QasmSimulator::new().with_seed(3).run(&circ, 200).unwrap();
        assert_eq!(counts.get_value(0b11), 200);
    }

    #[test]
    fn conditional_not_taken_when_register_differs() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.measure(0, 0).unwrap(); // always 0
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = QasmSimulator::new().with_seed(4).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b00), 100);
    }

    #[test]
    fn reset_clears_qubit_state() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.h(0).unwrap();
        circ.reset(0).unwrap();
        circ.measure(0, 0).unwrap();
        let counts = QasmSimulator::new().with_seed(5).run(&circ, 300).unwrap();
        assert_eq!(counts.get_value(0), 300);
    }

    #[test]
    fn depolarizing_noise_degrades_ghz() {
        let mut ghz = QuantumCircuit::with_size(3, 3);
        ghz.h(0).unwrap();
        ghz.cx(0, 1).unwrap();
        ghz.cx(1, 2).unwrap();
        ghz.measure(0, 0).unwrap();
        ghz.measure(1, 1).unwrap();
        ghz.measure(2, 2).unwrap();

        let ideal = QasmSimulator::new().with_seed(6).run(&ghz, 2000).unwrap();
        let noisy = QasmSimulator::new()
            .with_seed(6)
            .with_noise(NoiseModel::depolarizing(0.01, 0.05, 0.0))
            .run(&ghz, 2000)
            .unwrap();
        let ideal_success = ideal.probability(0b000) + ideal.probability(0b111);
        let noisy_success = noisy.probability(0b000) + noisy.probability(0b111);
        assert!(ideal_success > 0.99);
        assert!(noisy_success < ideal_success - 0.02, "noise must visibly degrade results");
        assert!(noisy_success > 0.5, "but not destroy them at these rates");
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.measure(0, 0).unwrap();
        let mut noise = NoiseModel::new();
        noise.set_readout_error(ReadoutError::symmetric(0.2));
        let counts = QasmSimulator::new().with_seed(7).with_noise(noise).run(&circ, 3000).unwrap();
        let flip_rate = counts.probability(1);
        assert!((flip_rate - 0.2).abs() < 0.03, "flip rate {flip_rate}");
    }

    #[test]
    fn local_noise_only_affects_its_qubits() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.id(0).unwrap();
        circ.id(1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let mut noise = NoiseModel::new();
        // 100% bit flip attached to id on qubit 1 only.
        noise.add_local_error("id", vec![1], QuantumError::bit_flip(1.0));
        let counts = QasmSimulator::new().with_seed(8).with_noise(noise).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b10), 100);
    }

    #[test]
    fn statevector_simulator_matches_reference() {
        let circ = qukit_terra::circuit::fig1_circuit();
        let state = StatevectorSimulator::new().run(&circ).unwrap();
        let reference = qukit_terra::reference::statevector(&circ).unwrap();
        for (a, b) in state.amplitudes().iter().zip(&reference) {
            assert!(a.approx_eq(*b));
        }

        // An XX rotation by 4e-11 is the identity only to within rounding:
        // it must still move -1.41e-11i onto basis states 2 and 3, which a
        // kernel that treats near-1 and near-0 entries as exact drops. From
        // |0…0⟩ every kernel performs the reference's operations, so the
        // amplitudes compare equal up to the sign of a zero.
        let mut tiny = QuantumCircuit::new(2);
        tiny.h(0).unwrap();
        tiny.append(Gate::Rxx(4e-11), &[0, 1]).unwrap();
        let state = StatevectorSimulator::new().run(&tiny).unwrap();
        let reference = qukit_terra::reference::statevector(&tiny).unwrap();
        assert!(reference[3].im < -1e-11);
        assert_eq!(state.amplitudes(), &reference[..]);
    }

    #[test]
    fn statevector_simulator_rejects_measurement() {
        let err = StatevectorSimulator::new().run(&bell_measured()).unwrap_err();
        assert!(matches!(err, AerError::UnsupportedInstruction { .. }));
        assert!(err.to_string().contains("measure"));
    }

    #[test]
    fn unitary_simulator_produces_unitary() {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        let u = UnitarySimulator::new().run(&circ).unwrap();
        assert!(u.is_unitary());
        assert_eq!(u.rows(), 4);
    }

    #[test]
    fn terminal_detection() {
        assert!(is_measurement_terminal(&bell_measured()));
        let mut mid = QuantumCircuit::with_size(1, 1);
        mid.measure(0, 0).unwrap();
        mid.h(0).unwrap();
        assert!(!is_measurement_terminal(&mid));
        let mut with_reset = QuantumCircuit::with_size(1, 1);
        with_reset.reset(0).unwrap();
        assert!(!is_measurement_terminal(&with_reset));
    }

    #[test]
    fn terminal_detection_commutes_measures_past_disjoint_gates() {
        // Scheduler-style interleaving: q0 is measured while tail gates
        // still run on q1/q2. No measured qubit is touched again, so the
        // sampled fast path applies.
        let mut interleaved = QuantumCircuit::with_size(3, 3);
        interleaved.h(0).unwrap();
        interleaved.measure(0, 0).unwrap();
        interleaved.h(1).unwrap();
        interleaved.measure(1, 1).unwrap();
        interleaved.h(2).unwrap();
        interleaved.measure(2, 2).unwrap();
        assert!(is_measurement_terminal(&interleaved));

        // A two-qubit gate touching an already-measured qubit disqualifies.
        let mut reuse = QuantumCircuit::with_size(2, 2);
        reuse.measure(0, 0).unwrap();
        reuse.cx(0, 1).unwrap();
        assert!(!is_measurement_terminal(&reuse));

        // Writing the same clbit twice disqualifies (order matters).
        let mut overwrite = QuantumCircuit::with_size(2, 1);
        overwrite.measure(0, 0).unwrap();
        overwrite.measure(1, 0).unwrap();
        assert!(!is_measurement_terminal(&overwrite));
    }

    #[test]
    fn width_limits_are_enforced() {
        let circ = QuantumCircuit::new(31);
        assert!(matches!(QasmSimulator::new().run(&circ, 1), Err(AerError::TooManyQubits { .. })));
        let circ14 = QuantumCircuit::new(14);
        assert!(matches!(
            UnitarySimulator::new().run(&circ14),
            Err(AerError::TooManyQubits { .. })
        ));
    }
}
