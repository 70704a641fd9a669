//! Execution backends.
//!
//! A [`Backend`] is anything a circuit can be submitted to — exactly the
//! role `Aer.get_backend('qasm_simulator')` and `IBMQ.get_backend('ibmqx4')`
//! play in the paper's user walkthrough. Real hardware is not reachable
//! from this reproduction, so the QX devices are provided as *fake
//! backends*: simulated executions that enforce the real devices' coupling
//! constraints and elementary gate set and attach a representative noise
//! model (see DESIGN.md, "Hardware substitution").

use crate::error::{QukitError, Result};
use qukit_aer::counts::Counts;
use qukit_aer::noise::NoiseModel;
use qukit_aer::parallel::ParallelConfig;
use qukit_aer::simulator::QasmSimulator;
use qukit_dd::simulator::DdSimulator;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::coupling::CouplingMap;
use qukit_terra::hash::FnvHasher;
use qukit_terra::transpiler::{satisfies_coupling, MapperKind, TranspileOptions};

/// A target that can execute circuits and return measurement histograms.
///
/// Backends are `Send + Sync` so the [job service](crate::job) can share
/// them across worker threads; every implementation in this crate is
/// plain data (plus interior mutexes where bookkeeping is needed).
pub trait Backend: Send + Sync {
    /// The backend name (`"qasm_simulator"`, `"ibmqx4"`, …).
    fn name(&self) -> &str;

    /// Maximum number of qubits.
    fn num_qubits(&self) -> usize;

    /// The device coupling map, or `None` for all-to-all simulators.
    fn coupling_map(&self) -> Option<&CouplingMap> {
        None
    }

    /// Executes `shots` repetitions of the circuit.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit does not fit the backend or
    /// simulation fails.
    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts>;

    /// Executes a batch of circuits — typically the bindings of one
    /// parameter sweep — with `shots` repetitions each.
    ///
    /// The default maps over [`run`](Backend::run), so results are always
    /// identical to submitting the circuits one at a time. Backends with a
    /// native batch path (the statevector simulator) override this to
    /// reuse state buffers across bindings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Backend::run), for any circuit.
    fn run_batch(&self, circuits: &[QuantumCircuit], shots: usize) -> Result<Vec<Counts>> {
        circuits.iter().map(|circuit| self.run(circuit, shots)).collect()
    }

    /// Transpiles a circuit exactly the way [`run`](Backend::run) would
    /// before executing it, without running it.
    ///
    /// Simulator backends execute circuits as-is, so the default is the
    /// identity. Device backends override this with their transpile
    /// pipeline; the sweep path uses it to transpile a parameterized
    /// template once and patch angles into the result per binding.
    ///
    /// # Errors
    ///
    /// Returns transpilation errors for backends that transpile.
    fn prepare_circuit(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit> {
        Ok(circuit.clone())
    }

    /// Fixes the backend's sampling seed, making subsequent [`run`]
    /// calls deterministic.
    ///
    /// The differential conformance harness relies on this to replay a
    /// reproducer bit-for-bit on any `Box<dyn Backend>`. Backends without
    /// stochastic behaviour may keep the default no-op.
    ///
    /// [`run`]: Backend::run
    fn set_seed(&mut self, _seed: u64) {}

    /// Installs a parallel-execution configuration (threads, chunk size,
    /// gate fusion) for backends that simulate statevectors locally.
    ///
    /// The job service forwards [`crate::job::ExecutorConfig::parallel`]
    /// through this hook; backends without a statevector engine keep the
    /// default no-op.
    fn set_parallel(&mut self, _config: ParallelConfig) {}

    /// The backend that actually served the most recent successful
    /// [`run`](Backend::run), when that can differ from [`name`](Backend::name).
    ///
    /// Composite backends (e.g. [`crate::fault::FallbackChain`]) override
    /// this; plain backends return `None`, meaning "myself". The job
    /// service records the value in the job's metadata.
    fn executed_on(&self) -> Option<String> {
        None
    }

    /// A hash of everything (besides the circuit) that shapes this
    /// backend's outcome **distribution**: seed, noise model,
    /// transpilation strategy. The executor's result cache keys on
    /// `(circuit, name, fingerprint)`, so two backends with the same
    /// name must return different fingerprints whenever their
    /// distributions can differ. The default covers configuration-free
    /// backends.
    fn fingerprint(&self) -> u64 {
        0
    }
}

/// The ideal shot-based simulator backend (`qasm_simulator`).
#[derive(Debug, Clone, Default)]
pub struct QasmSimulatorBackend {
    seed: Option<u64>,
    parallel: Option<ParallelConfig>,
}

impl QasmSimulatorBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the sampling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the parallel/fusion configuration (builder style). Without
    /// this, the simulator falls back to the `QUKIT_THREADS` environment.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = Some(parallel);
        self
    }
}

impl Backend for QasmSimulatorBackend {
    fn name(&self) -> &str {
        "qasm_simulator"
    }

    fn num_qubits(&self) -> usize {
        30
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        qasm_simulator(self.seed, self.parallel).run(circuit, shots).map_err(QukitError::from)
    }

    fn run_batch(&self, circuits: &[QuantumCircuit], shots: usize) -> Result<Vec<Counts>> {
        qasm_simulator(self.seed, self.parallel)
            .run_batch(circuits, shots)
            .map_err(QukitError::from)
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    fn set_parallel(&mut self, config: ParallelConfig) {
        self.parallel = Some(config);
    }

    fn fingerprint(&self) -> u64 {
        seed_fingerprint("qasm", self.seed)
    }
}

/// A decision-diagram simulator backend (the JKU add-on of the paper's
/// Section V-C): unitary circuits only, sampling from the compressed state.
#[derive(Debug, Clone, Default)]
pub struct DdSimulatorBackend {
    seed: Option<u64>,
}

impl DdSimulatorBackend {
    /// Creates the backend. Without [`with_seed`](Self::with_seed) each
    /// run samples with a fresh entropy seed, matching
    /// [`QasmSimulatorBackend`]'s behavior.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the sampling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl Backend for DdSimulatorBackend {
    fn name(&self) -> &str {
        "dd_simulator"
    }

    fn num_qubits(&self) -> usize {
        64
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        // Strip terminal measurements: the DD simulator samples all qubits
        // directly from the final state.
        let mut unitary_part = circuit.clone();
        unitary_part.clear();
        unitary_part.add_global_phase(circuit.global_phase());
        let mut measured: Vec<(usize, usize)> = Vec::new();
        for inst in circuit.instructions() {
            match &inst.op {
                qukit_terra::instruction::Operation::Measure => {
                    measured.push((inst.qubits[0], inst.clbits[0]));
                }
                _ => {
                    unitary_part.push(inst.clone())?;
                }
            }
        }
        let state = DdSimulator::new().run(&unitary_part)?;
        let all_qubit_counts = state.sample_counts(shots, self.seed.unwrap_or_else(rand::random));
        if measured.is_empty() {
            return Ok(all_qubit_counts);
        }
        // Remap qubit outcomes to classical bits.
        let mut counts = Counts::new(circuit.num_clbits());
        for (outcome, n) in all_qubit_counts.iter() {
            let mut mapped = 0u64;
            for &(q, c) in &measured {
                if (outcome >> q) & 1 == 1 {
                    mapped |= 1 << c;
                }
            }
            counts.record_n(mapped, n);
        }
        Ok(counts)
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    fn fingerprint(&self) -> u64 {
        seed_fingerprint("dd", self.seed)
    }
}

/// The stabilizer-tableau backend: Clifford circuits only, but scaling to
/// hundreds of qubits (`O(n²)` per gate instead of `O(2^n)`).
#[derive(Debug, Clone, Default)]
pub struct StabilizerBackend {
    seed: Option<u64>,
}

impl StabilizerBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the sampling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl Backend for StabilizerBackend {
    fn name(&self) -> &str {
        "stabilizer_simulator"
    }

    fn num_qubits(&self) -> usize {
        4096
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        let mut sim = qukit_aer::stabilizer::StabilizerSimulator::new();
        if let Some(seed) = self.seed {
            sim = sim.with_seed(seed);
        }
        sim.run(circuit, shots).map_err(QukitError::from)
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    fn fingerprint(&self) -> u64 {
        seed_fingerprint("stabilizer", self.seed)
    }
}

/// A simulated IBM QX-style device: enforces a coupling map and elementary
/// basis, injects a noise model, and transpiles incoming circuits
/// automatically (the paper's "execution on a real quantum device" step,
/// with the hardware replaced by its faithful constraints + noise).
#[derive(Debug, Clone)]
pub struct FakeDevice {
    name: String,
    coupling: CouplingMap,
    noise: NoiseModel,
    seed: Option<u64>,
    parallel: Option<ParallelConfig>,
    mapper: MapperKind,
    layout: qukit_terra::transpiler::InitialLayout,
    opt_level: u8,
}

impl FakeDevice {
    /// Creates a fake device from a coupling map and noise model.
    pub fn new(name: impl Into<String>, coupling: CouplingMap, noise: NoiseModel) -> Self {
        Self {
            name: name.into(),
            coupling,
            noise,
            seed: None,
            parallel: None,
            mapper: MapperKind::Lookahead,
            layout: qukit_terra::transpiler::InitialLayout::Trivial,
            opt_level: 2,
        }
    }

    /// Installs calibration data: replaces the noise model with the
    /// calibration's per-location errors and switches automatic
    /// transpilation to the noise-aware layout.
    pub fn with_calibration(mut self, calibration: &DeviceCalibration) -> Self {
        self.noise = calibration.noise_model();
        self.layout = calibration.layout_strategy();
        self
    }

    /// The 5-qubit `ibmqx2` device with representative error rates.
    pub fn ibmqx2() -> Self {
        Self::new("ibmqx2", CouplingMap::ibm_qx2(), Self::default_noise())
    }

    /// The 5-qubit `ibmqx4` device (the paper's Fig. 2 topology).
    pub fn ibmqx4() -> Self {
        Self::new("ibmqx4", CouplingMap::ibm_qx4(), Self::default_noise())
    }

    /// The 16-qubit `ibmqx5` device.
    pub fn ibmqx5() -> Self {
        Self::new("ibmqx5", CouplingMap::ibm_qx5(), Self::default_noise())
    }

    /// Representative early-transmon error rates: 1q 0.1%, CX 2%,
    /// readout 3%.
    fn default_noise() -> NoiseModel {
        NoiseModel::depolarizing(0.001, 0.02, 0.03)
    }

    /// Fixes the simulation seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the routing algorithm used by automatic transpilation.
    pub fn with_mapper(mut self, mapper: MapperKind) -> Self {
        self.mapper = mapper;
        self
    }

    /// Overrides the optimization level used by automatic transpilation
    /// (clamped to 0..=3; the default is 2).
    pub fn with_opt_level(mut self, level: u8) -> Self {
        self.opt_level = level.min(3);
        self
    }

    /// Replaces the noise model (e.g. `NoiseModel::new()` for a noiseless
    /// constraint-only device).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// The device noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Transpiles a circuit for this device (decompose → map → direction
    /// fix → optimize → U/CX basis), through the process-wide transpile
    /// cache: resubmitting the same payload to the same device skips the
    /// pass pipeline entirely.
    ///
    /// # Errors
    ///
    /// Returns transpilation errors (e.g. circuit wider than the device).
    pub fn transpile(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit> {
        let options = TranspileOptions {
            coupling_map: Some(self.coupling.clone()),
            mapper: self.mapper,
            optimization_level: self.opt_level,
            basis_u: true,
            initial_layout: self.layout.clone(),
        };
        Ok(qukit_terra::transpiler::transpile_cached(circuit, &options)?.circuit)
    }
}

impl Backend for FakeDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_qubits(&self) -> usize {
        self.coupling.num_qubits()
    }

    fn coupling_map(&self) -> Option<&CouplingMap> {
        Some(&self.coupling)
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        // Transpile unless the circuit already satisfies the constraints.
        let prepared;
        let to_run = if satisfies_coupling(circuit, &self.coupling)
            && circuit.num_qubits() == self.coupling.num_qubits()
        {
            circuit
        } else {
            prepared = self.transpile(circuit)?;
            &prepared
        };
        // Idle physical qubits contribute nothing to the dynamics — drop
        // them before simulating so a small circuit on a large device does
        // not pay the full 2^device cost. Per-location noise entries are
        // relabeled along with the qubits.
        let (compacted, remap) = compact_idle_qubits(to_run)?;
        let noise = self.noise.remapped(|q| remap.get(q).copied().flatten());
        qasm_simulator(self.seed, self.parallel)
            .with_noise(noise)
            .run(&compacted, shots)
            .map_err(QukitError::from)
    }

    fn prepare_circuit(&self, circuit: &QuantumCircuit) -> Result<QuantumCircuit> {
        // Mirrors the condition in `run`: circuits already satisfying the
        // device constraints are executed untouched.
        if satisfies_coupling(circuit, &self.coupling)
            && circuit.num_qubits() == self.coupling.num_qubits()
        {
            Ok(circuit.clone())
        } else {
            self.transpile(circuit)
        }
    }

    fn run_batch(&self, circuits: &[QuantumCircuit], shots: usize) -> Result<Vec<Counts>> {
        // A noiseless device can push the whole batch through the
        // simulator's buffer-reusing batch path: one amplitude buffer
        // shared across all prepared circuits instead of a fresh
        // allocation per run. With noise the per-circuit qubit remap
        // feeds distinct noise models, so fall back to per-circuit runs.
        if !self.noise.is_ideal() {
            return circuits.iter().map(|c| self.run(c, shots)).collect();
        }
        let mut compacted = Vec::with_capacity(circuits.len());
        for circuit in circuits {
            let prepared = self.prepare_circuit(circuit)?;
            compacted.push(compact_idle_qubits(&prepared)?.0);
        }
        qasm_simulator(self.seed, self.parallel)
            .run_batch(&compacted, shots)
            .map_err(QukitError::from)
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    fn set_parallel(&mut self, config: ParallelConfig) {
        self.parallel = Some(config);
    }

    fn fingerprint(&self) -> u64 {
        // The noise model and transpilation strategy shape the outcome
        // distribution; each field is hashed as data, so equal
        // configurations give equal fingerprints.
        let mut hasher = seed_hasher(&self.name, self.seed);
        self.noise.hash_fields(&mut hasher);
        hasher.u64(self.mapper as u64);
        self.layout.hash_fields(&mut hasher);
        hasher.u64(u64::from(self.opt_level));
        hasher.finish64()
    }
}

/// The statevector simulator every statevector backend runs: seeded and
/// parallel-configured when the backend is.
fn qasm_simulator(seed: Option<u64>, parallel: Option<ParallelConfig>) -> QasmSimulator {
    let mut sim = QasmSimulator::new();
    if let Some(seed) = seed {
        sim = sim.with_seed(seed);
    }
    if let Some(parallel) = parallel {
        sim = sim.with_parallel(parallel);
    }
    sim
}

/// Seed-sensitive fingerprint for plain simulator backends: the seed is
/// the only configuration that changes their sampling stream.
fn seed_fingerprint(tag: &str, seed: Option<u64>) -> u64 {
    seed_hasher(tag, seed).finish64()
}

/// A fingerprint hasher fed with a backend tag and its optional seed.
fn seed_hasher(tag: &str, seed: Option<u64>) -> FnvHasher {
    let mut hasher = FnvHasher::default();
    hasher.field(tag.as_bytes());
    hasher.field(&[u8::from(seed.is_some())]);
    hasher.u64(seed.unwrap_or(0));
    hasher
}

/// Rewrites a circuit onto only the qubits it actually touches (barriers
/// excluded from the usage analysis and restricted to surviving qubits).
/// Classical bits are preserved unchanged, so counts are unaffected.
/// Returns the compacted circuit and the old→new qubit table.
fn compact_idle_qubits(circuit: &QuantumCircuit) -> Result<(QuantumCircuit, Vec<Option<usize>>)> {
    use qukit_terra::instruction::Operation;
    let mut used = vec![false; circuit.num_qubits()];
    for inst in circuit.instructions() {
        if matches!(inst.op, Operation::Barrier) {
            continue;
        }
        for &q in &inst.qubits {
            used[q] = true;
        }
    }
    let remap: Vec<Option<usize>> = {
        let mut next = 0usize;
        used.iter()
            .map(|&u| {
                if u {
                    let idx = next;
                    next += 1;
                    Some(idx)
                } else {
                    None
                }
            })
            .collect()
    };
    let num_used = remap.iter().flatten().count();
    if num_used == circuit.num_qubits() {
        return Ok((circuit.clone(), remap));
    }
    let mut out = QuantumCircuit::empty();
    out.set_name(format!("{}_compact", circuit.name()));
    out.add_qreg("q", num_used.max(1))?;
    for creg in circuit.cregs() {
        out.add_creg(creg.name(), creg.len())?;
    }
    out.add_global_phase(circuit.global_phase());
    for inst in circuit.instructions() {
        let mut rewritten = inst.clone();
        if matches!(inst.op, Operation::Barrier) {
            rewritten.qubits = inst.qubits.iter().filter_map(|&q| remap[q]).collect();
            if rewritten.qubits.is_empty() {
                continue;
            }
        } else {
            rewritten.qubits =
                inst.qubits.iter().map(|&q| remap[q].expect("used qubit has a slot")).collect();
        }
        out.push(rewritten)?;
    }
    Ok((out, remap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> QuantumCircuit {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        circ
    }

    #[test]
    fn set_seed_makes_trait_objects_deterministic() {
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(QasmSimulatorBackend::new()),
            Box::new(DdSimulatorBackend::new()),
            Box::new(StabilizerBackend::new()),
            Box::new(FakeDevice::ibmqx4()),
        ];
        for mut backend in backends {
            backend.set_seed(1234);
            let a = backend.run(&bell(), 256).unwrap();
            let b = backend.run(&bell(), 256).unwrap();
            let name = backend.name().to_owned();
            for (outcome, n) in a.iter() {
                assert_eq!(b.get_value(outcome), n, "{name} must replay identically");
            }
        }
    }

    #[test]
    fn qasm_backend_runs_bell() {
        let backend = QasmSimulatorBackend::new().with_seed(1);
        let counts = backend.run(&bell(), 500).unwrap();
        assert_eq!(counts.total(), 500);
        assert_eq!(counts.get("01") + counts.get("10"), 0);
        assert_eq!(backend.name(), "qasm_simulator");
        assert!(backend.coupling_map().is_none());
    }

    #[test]
    fn dd_backend_matches_qasm_backend_statistics() {
        let counts = DdSimulatorBackend::new().with_seed(2).run(&bell(), 2000).unwrap();
        assert_eq!(counts.total(), 2000);
        let p00 = counts.probability(0);
        assert!((p00 - 0.5).abs() < 0.05, "p00 {p00}");
        assert_eq!(counts.get("01") + counts.get("10"), 0);
    }

    #[test]
    fn dd_backend_without_measurements_samples_all_qubits() {
        let mut ghz = QuantumCircuit::new(3);
        ghz.h(0).unwrap();
        ghz.cx(0, 1).unwrap();
        ghz.cx(1, 2).unwrap();
        let counts = DdSimulatorBackend::new().with_seed(3).run(&ghz, 400).unwrap();
        assert_eq!(counts.get_value(0) + counts.get_value(0b111), 400);
    }

    #[test]
    fn stabilizer_backend_runs_clifford_circuits() {
        let backend = StabilizerBackend::new().with_seed(8);
        assert_eq!(backend.name(), "stabilizer_simulator");
        let counts = backend.run(&bell(), 300).unwrap();
        assert_eq!(counts.get("01") + counts.get("10"), 0);
        // Non-Clifford circuits are rejected.
        let mut t_circ = QuantumCircuit::with_size(1, 1);
        t_circ.t(0).unwrap();
        t_circ.measure(0, 0).unwrap();
        assert!(backend.run(&t_circ, 1).is_err());
    }

    #[test]
    fn fake_qx4_transpiles_and_runs() {
        let device = FakeDevice::ibmqx4().with_seed(4);
        assert_eq!(device.num_qubits(), 5);
        assert!(device.coupling_map().is_some());
        let counts = device.run(&bell(), 1000).unwrap();
        assert_eq!(counts.total(), 1000);
        // Noise leaks some weight into 01/10, but correlation dominates.
        let correlated = counts.probability(0b00) + counts.probability(0b11);
        assert!(correlated > 0.85, "correlated mass {correlated}");
    }

    #[test]
    fn fake_device_transpile_respects_constraints() {
        let device = FakeDevice::ibmqx4();
        let circ = qukit_terra::circuit::fig1_circuit();
        let mapped = device.transpile(&circ).unwrap();
        assert!(satisfies_coupling(&mapped, device.coupling_map().unwrap()));
        for inst in mapped.instructions() {
            if let Some(g) = inst.as_gate() {
                assert!(
                    matches!(g, qukit_terra::gate::Gate::U(..) | qukit_terra::gate::Gate::CX),
                    "non-elementary {g:?} left"
                );
            }
        }
    }

    #[test]
    fn noiseless_fake_device_is_exact() {
        let device = FakeDevice::ibmqx4().with_noise(NoiseModel::new()).with_seed(5);
        let counts = device.run(&bell(), 600).unwrap();
        assert_eq!(counts.get("01") + counts.get("10"), 0);
    }

    #[test]
    fn noiseless_fake_device_batch_is_bit_identical_to_per_run() {
        let device = FakeDevice::ibmqx4().with_noise(NoiseModel::new()).with_seed(11);
        let mut rotated = QuantumCircuit::new(3);
        rotated.ry(0.4, 0).unwrap();
        rotated.cx(0, 1).unwrap();
        rotated.ry(1.3, 2).unwrap();
        rotated.measure_all();
        let circuits = vec![bell(), rotated.clone(), bell(), rotated];
        let batched = device.run_batch(&circuits, 700).unwrap();
        let individual: Vec<_> = circuits.iter().map(|c| device.run(c, 700).unwrap()).collect();
        assert_eq!(batched, individual, "batch path must reproduce per-run counts exactly");
    }

    #[test]
    fn noisy_fake_device_batch_falls_back_to_per_run() {
        let device = FakeDevice::ibmqx4().with_seed(13);
        let circuits = vec![bell(), bell()];
        let batched = device.run_batch(&circuits, 300).unwrap();
        let individual: Vec<_> = circuits.iter().map(|c| device.run(c, 300).unwrap()).collect();
        assert_eq!(batched, individual);
    }

    #[test]
    fn calibration_aware_device_avoids_bad_edges() {
        // QX4 with a disastrous (2,1) edge: a 2-qubit circuit must be
        // placed elsewhere, giving visibly better Bell statistics than a
        // trivially-placed device would.
        let calibration = DeviceCalibration::uniform(&CouplingMap::ibm_qx4(), 0.01, 0.0, 1.0)
            .with_cx_error((2, 1), 0.5)
            .with_cx_error((1, 0), 0.5);
        let calibrated = FakeDevice::ibmqx4().with_calibration(&calibration).with_seed(7);
        let trivial = FakeDevice::ibmqx4().with_noise(calibration.noise_model()).with_seed(7);
        // Logical q0-q1 trivially land on physical Q0-Q1 (the bad edge).
        let counts_cal = calibrated.run(&bell(), 3000).unwrap();
        let counts_triv = trivial.run(&bell(), 3000).unwrap();
        let success = |c: &qukit_aer::counts::Counts| c.probability(0) + c.probability(0b11);
        assert!(
            success(&counts_cal) > success(&counts_triv) + 0.05,
            "calibrated {:.3} must beat trivial {:.3}",
            success(&counts_cal),
            success(&counts_triv)
        );
        assert!(success(&counts_cal) > 0.97, "good edges are nearly clean");
    }

    #[test]
    fn calibration_noise_model_is_local() {
        let calibration = DeviceCalibration::uniform(&CouplingMap::line(3), 0.02, 0.001, 0.98);
        let noise = calibration.noise_model();
        assert!(noise.error_for("cx", &[0, 1]).is_some());
        assert!(noise.error_for("cx", &[0, 2]).is_none(), "uncalibrated pair has no entry");
        assert!(noise.error_for("u", &[2]).is_some());
        assert!(noise.readout_error().is_some());
    }

    #[test]
    fn equal_configurations_have_equal_fingerprints() {
        let a = FakeDevice::ibmqx4().with_seed(7);
        let b = FakeDevice::ibmqx4().with_seed(7);
        assert_eq!(a.fingerprint(), b.fingerprint(), "separately built, same configuration");
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        let seeded = || QasmSimulatorBackend::new().with_seed(3);
        assert_eq!(seeded().fingerprint(), seeded().fingerprint());
    }

    #[test]
    fn noise_fingerprint_ignores_insertion_order() {
        let x = qukit_aer::noise::QuantumError::depolarizing(0.01, 1);
        let cx = qukit_aer::noise::QuantumError::depolarizing(0.02, 2);
        let mut forward = NoiseModel::new();
        forward.add_all_qubit_error("x", x.clone());
        forward.add_all_qubit_error("cx", cx.clone());
        forward.add_local_error("cx", vec![0, 1], cx.clone());
        forward.add_local_error("x", vec![2], x.clone());
        let mut backward = NoiseModel::new();
        backward.add_local_error("x", vec![2], x.clone());
        backward.add_local_error("cx", vec![0, 1], cx.clone());
        backward.add_all_qubit_error("cx", cx);
        backward.add_all_qubit_error("x", x);
        assert_eq!(
            FakeDevice::ibmqx4().with_noise(forward).fingerprint(),
            FakeDevice::ibmqx4().with_noise(backward).fingerprint()
        );
    }

    #[test]
    fn every_configuration_field_changes_the_fingerprint() {
        let base = FakeDevice::ibmqx4().with_seed(7);
        let calibration = DeviceCalibration::uniform(&CouplingMap::ibm_qx4(), 0.01, 0.001, 0.97);
        let variants = [
            ("name", FakeDevice::ibmqx2().with_seed(7)),
            ("seed", base.clone().with_seed(8)),
            ("no seed", FakeDevice::ibmqx4()),
            ("gate noise", base.clone().with_noise(NoiseModel::depolarizing(0.001, 0.03, 0.03))),
            ("readout", base.clone().with_noise(NoiseModel::depolarizing(0.001, 0.02, 0.04))),
            ("no noise", base.clone().with_noise(NoiseModel::new())),
            ("local noise", base.clone().with_noise(calibration.noise_model())),
            ("mapper", base.clone().with_mapper(MapperKind::Sabre)),
            (
                "layout",
                base.clone().with_calibration(&calibration).with_noise(base.noise().clone()),
            ),
            ("opt level", base.clone().with_opt_level(3)),
        ];
        let mut seen = vec![base.fingerprint()];
        for (field, variant) in &variants {
            let fingerprint = variant.fingerprint();
            assert!(
                !seen.contains(&fingerprint),
                "changing the {field} must change the fingerprint"
            );
            seen.push(fingerprint);
        }
        let simulators = [
            QasmSimulatorBackend::new().fingerprint(),
            QasmSimulatorBackend::new().with_seed(1).fingerprint(),
            QasmSimulatorBackend::new().with_seed(2).fingerprint(),
            DdSimulatorBackend::new().with_seed(1).fingerprint(),
            StabilizerBackend::new().with_seed(1).fingerprint(),
        ];
        for (i, a) in simulators.iter().enumerate() {
            assert!(
                simulators[i + 1..].iter().all(|b| a != b),
                "simulator fingerprint {i} repeats"
            );
        }
    }

    #[test]
    fn count_corruption_salts_the_fingerprint() {
        use crate::fault::{FaultInjectingBackend, FaultMode};
        let clean = FakeDevice::ibmqx4().with_seed(7);
        let wrap = |mode, seed| {
            FaultInjectingBackend::new(Box::new(clean.clone()), mode).with_seed(seed).fingerprint()
        };
        assert_ne!(wrap(FaultMode::CorruptCounts, 4), clean.fingerprint());
        assert_ne!(wrap(FaultMode::CorruptCounts, 4), wrap(FaultMode::CorruptCounts, 5));
        assert_eq!(wrap(FaultMode::CorruptCounts, 4), wrap(FaultMode::CorruptCounts, 4));
        assert_eq!(wrap(FaultMode::FailTimes(2), 4), clean.fingerprint(), "pass-through faults");
    }

    #[test]
    fn too_wide_circuit_is_rejected() {
        let device = FakeDevice::ibmqx4();
        let circ = QuantumCircuit::new(6);
        assert!(device.run(&circ, 1).is_err());
    }
}

/// Per-device calibration data, as published for real IBM Q devices: CX
/// error per directed edge, single-qubit error and readout fidelity per
/// qubit. Drives both the noise model of a [`FakeDevice`] and the
/// noise-aware layout of its transpiler.
#[derive(Debug, Clone, Default)]
pub struct DeviceCalibration {
    /// `((control, target), error)` per calibrated CX edge.
    pub cx_error: Vec<((usize, usize), f64)>,
    /// Per-qubit single-qubit gate error.
    pub single_qubit_error: Vec<f64>,
    /// Per-qubit readout assignment fidelity.
    pub readout_fidelity: Vec<f64>,
}

impl DeviceCalibration {
    /// A uniform calibration over a coupling map.
    pub fn uniform(map: &CouplingMap, cx_error: f64, sq_error: f64, readout: f64) -> Self {
        Self {
            cx_error: map.edges().map(|e| (e, cx_error)).collect(),
            single_qubit_error: vec![sq_error; map.num_qubits()],
            readout_fidelity: vec![readout; map.num_qubits()],
        }
    }

    /// Overrides the error of one CX edge (builder style).
    pub fn with_cx_error(mut self, edge: (usize, usize), error: f64) -> Self {
        if let Some(entry) = self.cx_error.iter_mut().find(|(e, _)| *e == edge) {
            entry.1 = error;
        } else {
            self.cx_error.push((edge, error));
        }
        self
    }

    /// Builds the per-location noise model implied by the calibration.
    pub fn noise_model(&self) -> NoiseModel {
        let mut noise = NoiseModel::new();
        for (q, &e) in self.single_qubit_error.iter().enumerate() {
            if e > 0.0 {
                let channel = qukit_aer::noise::QuantumError::depolarizing(e, 1);
                for name in [
                    "u", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "p", "sx",
                    "sxdg", "id",
                ] {
                    noise.add_local_error(name, vec![q], channel.clone());
                }
            }
        }
        for &((c, t), e) in &self.cx_error {
            if e > 0.0 {
                noise.add_local_error(
                    "cx",
                    vec![c, t],
                    qukit_aer::noise::QuantumError::depolarizing(e, 2),
                );
            }
        }
        // Readout: the NoiseModel supports a single global readout error;
        // use the worst qubit as the conservative device-wide figure.
        if let Some(worst) = self
            .readout_fidelity
            .iter()
            .copied()
            .fold(None::<f64>, |acc, f| Some(acc.map_or(f, |a| a.min(f))))
        {
            if worst < 1.0 {
                noise.set_readout_error(qukit_aer::noise::ReadoutError::symmetric(1.0 - worst));
            }
        }
        noise
    }

    /// The layout strategy implied by the calibration.
    pub fn layout_strategy(&self) -> qukit_terra::transpiler::InitialLayout {
        qukit_terra::transpiler::InitialLayout::NoiseAware {
            edge_fidelity: self
                .cx_error
                .iter()
                .map(|&((a, b), e)| ((a, b), (1.0 - e).clamp(0.0, 1.0)))
                .collect(),
            qubit_fidelity: self.readout_fidelity.clone(),
        }
    }
}
