//! The committed JSON bench baseline (`BENCH_PR3.json`).
//!
//! [`run_baseline`] sweeps a fixed circuit suite across every engine
//! that can run it and records wall time plus the key `qukit_*` metrics
//! of each run. The output is a stable, schema-versioned JSON document
//! (`qukit-bench-baseline/v1`) that CI regenerates and validates and
//! that `qukit stats <file>.json` renders as a table — the regression
//! anchor for "did an engine get slower or busier".

use qukit::backend::Backend;
use qukit::terra::circuit::QuantumCircuit;
use qukit_obs::json::{escape, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier stamped into every baseline document.
pub const BASELINE_SCHEMA: &str = "qukit-bench-baseline/v1";

/// Wall-time floor (seconds) below which [`Baseline::compare`] treats a
/// measurement as noise: both sides of a ratio are clamped up to this
/// before comparing, so sub-half-millisecond jitter never reads as a
/// regression.
pub const MIN_COMPARE_WALL: f64 = 0.0005;

/// Knobs of a baseline sweep.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Shots per (circuit, engine) run.
    pub shots: usize,
    /// Seed threaded into every seedable backend.
    pub seed: u64,
    /// Record `qukit_*` metrics per entry (disable to measure the
    /// uninstrumented wall time — the overhead comparison knob).
    pub collect_metrics: bool,
    /// Timed repetitions per (circuit, engine); the entry records the
    /// minimum wall time, which is far more stable than a single sample
    /// on a noisy machine.
    pub repeats: usize,
    /// Thread counts swept by the `parallel_statevector[t=N]` engines on
    /// the wide (12-qubit) circuits. Empty disables the parallel sweep.
    /// Defaults to [`thread_sweep`] up to the host's core count: more
    /// workers than cores would only measure oversubscription.
    pub threads: Vec<usize>,
    /// Also run the 22–26-qubit statevector entries (`ghz_24`, `qft_22`,
    /// `qft_24`, `random_26x40`) on the parallel engine with SIMD on and
    /// off. Off by default: each run sweeps a ≥64 MiB state.
    pub large_statevector: bool,
    /// Bindings in the parameter-sweep entries (`sweep[batch]` vs
    /// `sweep[independent]`). 0 disables the sweep comparison.
    pub sweep_bindings: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            shots: 1024,
            seed: 7,
            collect_metrics: true,
            repeats: 5,
            threads: thread_sweep(host_threads()),
            large_statevector: false,
            sweep_bindings: 64,
        }
    }
}

/// The cores this process may run on (1 when the host cannot say).
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The thread counts a sweep capped at `max_threads` visits: every power
/// of two below the cap, then the cap itself.
pub fn thread_sweep(max_threads: usize) -> Vec<usize> {
    let mut threads: Vec<usize> = std::iter::successors(Some(1usize), |t| t.checked_mul(2))
        .take_while(|t| *t < max_threads)
        .collect();
    threads.push(max_threads);
    threads
}

/// One (circuit, engine) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Circuit name (e.g. `ghz_8`).
    pub circuit: String,
    /// Engine/backend name (e.g. `dd_simulator`).
    pub engine: String,
    /// Circuit width.
    pub qubits: usize,
    /// Gate count before backend-side transpilation.
    pub gates: usize,
    /// Shots sampled.
    pub shots: usize,
    /// End-to-end wall time of the run, seconds.
    pub wall_seconds: f64,
    /// Key metrics observed during the run (counters and gauges,
    /// flattened to f64). Empty when metric collection is off.
    pub metrics: BTreeMap<String, f64>,
}

/// A full baseline document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Every (circuit, engine) measurement, in sweep order.
    pub entries: Vec<BaselineEntry>,
}

/// Builds one backend instance by name with the sweep seed applied.
///
/// `parallel_statevector[t=N]` names the qasm simulator with `N` worker
/// threads and gate fusion on; the plain `qasm_simulator` is the same
/// simulator with one thread and fusion off, fixed here so its entries
/// do not depend on `QUKIT_THREADS` in the measuring environment. The
/// names stay as they are so fresh runs compare against committed
/// baselines.
fn make_engine(name: &str, seed: u64) -> Box<dyn Backend> {
    use qukit::aer::parallel::ParallelConfig;
    use qukit::backend::{DdSimulatorBackend, FakeDevice, QasmSimulatorBackend, StabilizerBackend};
    if let Some((threads, simd)) = parse_parallel_engine(name) {
        let mut config = ParallelConfig::with_threads(threads);
        config.simd = simd;
        return Box::new(QasmSimulatorBackend::new().with_seed(seed).with_parallel(config));
    }
    match name {
        "qasm_simulator" => Box::new(
            QasmSimulatorBackend::new().with_seed(seed).with_parallel(ParallelConfig::serial()),
        ),
        "dd_simulator" => Box::new(DdSimulatorBackend::new().with_seed(seed)),
        "stabilizer_simulator" => Box::new(StabilizerBackend::new().with_seed(seed)),
        "ibmqx4" => Box::new(FakeDevice::ibmqx4().with_seed(seed)),
        other => unreachable!("unknown baseline engine '{other}'"),
    }
}

/// Parses `parallel_statevector[t=N]` into `Some((N, true))` and
/// `parallel_statevector[t=N,simd=off]` into `Some((N, false))`.
fn parse_parallel_engine(name: &str) -> Option<(usize, bool)> {
    let inner = name.strip_prefix("parallel_statevector[t=")?.strip_suffix(']')?;
    let (threads, simd) = match inner.strip_suffix(",simd=off") {
        Some(threads) => (threads, false),
        None => (inner, true),
    };
    threads.parse().ok().map(|t| (t, simd))
}

/// The fixed sweep: circuit × engines able to run it. The GHZ circuits
/// are Clifford (stabilizer-eligible); only the ≤5-qubit circuits fit
/// the ibmqx4 device model. The 12-qubit circuits additionally run on
/// the parallel chunked/fused engine at every requested thread count —
/// the speedup anchor for the parallel execution layer.
fn sweep(threads: &[usize], large_statevector: bool) -> Vec<(String, QuantumCircuit, Vec<String>)> {
    let bell = {
        let mut circ = QuantumCircuit::new(2);
        circ.set_name("bell");
        circ.h(0).expect("valid");
        circ.cx(0, 1).expect("valid");
        circ
    };
    let owned = |names: &[&str]| names.iter().map(|n| (*n).to_owned()).collect::<Vec<_>>();
    let mut wide_engines = owned(&["qasm_simulator"]);
    for &t in threads {
        wide_engines.push(format!("parallel_statevector[t={t}]"));
    }
    // DD last: its 12-qubit runs are allocation-heavy (unstructured
    // circuits blow the diagram up) and would pollute the caches under
    // the dense-engine timings measured right after.
    wide_engines.push("dd_simulator".to_owned());
    let mut suite = vec![
        (
            "ghz_8".to_owned(),
            crate::ghz(8),
            owned(&["qasm_simulator", "dd_simulator", "stabilizer_simulator"]),
        ),
        ("qft_6".to_owned(), crate::qft(6), owned(&["qasm_simulator", "dd_simulator"])),
        (
            "entangler_6x3".to_owned(),
            crate::entangler(6, 3),
            owned(&["qasm_simulator", "dd_simulator"]),
        ),
        (
            "random_6x40".to_owned(),
            crate::random_circuit(6, 40, 1234),
            owned(&["qasm_simulator", "dd_simulator"]),
        ),
        ("ghz_5".to_owned(), crate::ghz(5), owned(&["ibmqx4"])),
        ("bell".to_owned(), bell, owned(&["qasm_simulator", "ibmqx4"])),
        ("qft_12".to_owned(), crate::qft(12), wide_engines.clone()),
        ("random_12x200".to_owned(), crate::random_circuit(12, 200, 4242), wide_engines),
        // DD-scaling entries: structured circuits far past dense reach
        // (2^24 amplitudes would be 256 MiB; the DD stays tiny). Only the
        // DD engine runs them — the compact-representation headline of
        // the paper's Fig. 3.
        ("ghz_24".to_owned(), crate::ghz(24), owned(&["dd_simulator"])),
        ("qft_16".to_owned(), crate::qft(16), owned(&["dd_simulator"])),
    ];
    if large_statevector {
        // Dense 22–26-qubit statevector entries (64 MiB–1 GiB states),
        // SIMD against scalar kernels on the single-threaded parallel
        // engine: the speedup anchor for the SIMD lane kernels and the
        // cache-blocked traversal of high-qubit-index gates. GHZ and QFT
        // put their heaviest gates on the top qubit indices, exactly the
        // strided-access pattern the blocked traversal exists for. The
        // QFT entries are the compute-bound anchor (the controlled-phase
        // ladder keeps the lanes full); GHZ and the shallow random
        // circuit are the honest memory-bound counterpoints where the
        // walk is dominated by DRAM traffic and lanes gain less.
        let dense = owned(&["parallel_statevector[t=1]", "parallel_statevector[t=1,simd=off]"]);
        suite.push(("ghz_24".to_owned(), crate::ghz(24), dense.clone()));
        suite.push(("qft_22".to_owned(), crate::qft(22), dense.clone()));
        suite.push(("qft_24".to_owned(), crate::qft(24), dense.clone()));
        suite.push(("random_26x40".to_owned(), crate::random_circuit(26, 40, 2626), dense));
    }
    suite
}

/// Runs the full sweep and returns the baseline.
///
/// When `collect_metrics` is on, each run records into a fresh
/// [`qukit_obs::Scope`], so each entry's `metrics` map reflects that run
/// alone; the process-wide registry and its switch are left alone.
pub fn run_baseline(config: &BaselineConfig) -> Baseline {
    let mut entries = Vec::new();
    for (circuit_name, circuit, engines) in sweep(&config.threads, config.large_statevector) {
        for engine_name in engines {
            let engine = make_engine(&engine_name, config.seed);
            let measured = prepared(&circuit);
            // The engine is seeded, so every repeat samples the same counts
            // and the last repeat's counts and metrics stand for all.
            let (wall_seconds, (counts, scope)) = min_wall(config.repeats, || {
                let scope = config.collect_metrics.then(qukit_obs::Scope::new);
                let installed = scope.as_ref().map(qukit_obs::Scope::install);
                let counts = engine.run(&measured, config.shots).expect("baseline run");
                drop(installed);
                (counts, scope)
            });
            assert_eq!(counts.total(), config.shots, "baseline runs sample every shot");
            let mut metrics = BTreeMap::new();
            if let Some(scope) = scope {
                let snapshot = scope.snapshot();
                for (name, value) in &snapshot.counters {
                    metrics.insert(name.clone(), *value as f64);
                }
                for (name, value) in &snapshot.gauges {
                    metrics.insert(name.clone(), *value);
                }
            }
            entries.push(BaselineEntry {
                circuit: circuit_name.clone(),
                engine: engine_name,
                qubits: circuit.num_qubits(),
                gates: circuit.num_gates(),
                shots: config.shots,
                wall_seconds,
                metrics,
            });
        }
    }
    annotate_simd_speedups(&mut entries);
    entries.extend(transpiler_entries(config));
    entries.extend(sweep_entries(config));
    Baseline { entries }
}

/// Minimum-resolution wall clock: nanosecond ticks widened to f64
/// seconds, so sub-microsecond timings (cache hits, tiny circuits)
/// never flush to zero in the JSON document.
fn elapsed_seconds(start: std::time::Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e9
}

/// Runs `run` `repeats` times (at least once) and returns the minimum
/// wall time in seconds, far more stable than a single sample on a noisy
/// machine, with the last repeat's output.
pub fn min_wall<T>(repeats: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut wall_seconds = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = std::time::Instant::now();
        let output = run();
        wall_seconds = wall_seconds.min(elapsed_seconds(start));
        last = Some(output);
    }
    (wall_seconds, last.expect("at least one repeat ran"))
}

/// Stamps each SIMD parallel-engine entry with `simd_speedup`: the ratio
/// of its scalar twin's wall time to its own (same circuit, same thread
/// count, `simd=off`). This is the committed evidence for the SIMD
/// kernel claim — `BENCH_PR10.json` carries ≥2× on the large
/// high-qubit-index entries.
fn annotate_simd_speedups(entries: &mut [BaselineEntry]) {
    let scalars: Vec<(String, usize, f64)> = entries
        .iter()
        .filter_map(|e| match parse_parallel_engine(&e.engine) {
            Some((threads, false)) => Some((e.circuit.clone(), threads, e.wall_seconds)),
            _ => None,
        })
        .collect();
    for entry in entries.iter_mut() {
        let Some((threads, true)) = parse_parallel_engine(&entry.engine) else { continue };
        let Some((_, _, scalar_wall)) = scalars.iter().find(|(circuit, scalar_threads, _)| {
            *circuit == entry.circuit && *scalar_threads == threads
        }) else {
            continue;
        };
        entry
            .metrics
            .insert("simd_speedup".to_owned(), scalar_wall / entry.wall_seconds.max(1e-12));
    }
}

/// Transpiler baseline entries: both production routers on the 12-qubit
/// circuits over a 3×4 grid device, plus a cold/warm pair through the
/// transpile cache proving that a hit skips the pipeline entirely.
///
/// Engine names follow the `transpile[router]` / `transpile_cache[side]`
/// convention so `stats --compare` gates them like any other entry (the
/// warm-hit wall time sits below [`MIN_COMPARE_WALL`] by design — the
/// committed regression gate for the cache is the speedup ratio stored
/// in the warm entry's metrics and asserted by this crate's tests).
fn transpiler_entries(config: &BaselineConfig) -> Vec<BaselineEntry> {
    use qukit::terra::coupling::CouplingMap;
    use qukit::terra::transpiler::{self, MapperKind, TranspileOptions};

    let mut entries = Vec::new();
    let suite = [
        ("qft_12".to_owned(), crate::qft(12)),
        ("random_12x200".to_owned(), crate::random_circuit(12, 200, 4242)),
    ];
    for (circuit_name, circuit) in &suite {
        for (engine_name, mapper) in
            [("transpile[sabre]", MapperKind::Sabre), ("transpile[astar]", MapperKind::AStar)]
        {
            let mut options = TranspileOptions::for_device(CouplingMap::grid(3, 4));
            options.optimization_level = 1;
            options.mapper = mapper;
            let (wall_seconds, result) = min_wall(config.repeats, || {
                transpiler::transpile(circuit, &options).expect("baseline transpile")
            });
            let mut metrics = BTreeMap::new();
            if config.collect_metrics {
                metrics.insert("swaps_inserted".to_owned(), result.num_swaps as f64);
                metrics.insert("depth_out".to_owned(), result.circuit.depth() as f64);
                metrics.insert("gates_out".to_owned(), result.circuit.num_gates() as f64);
            }
            entries.push(BaselineEntry {
                circuit: circuit_name.clone(),
                engine: engine_name.to_owned(),
                qubits: circuit.num_qubits(),
                gates: circuit.num_gates(),
                shots: 0,
                wall_seconds,
                metrics,
            });
        }
    }

    // Cold vs warm through a private cache (not the process-global one,
    // so bench runs do not disturb live cache statistics).
    let (circuit_name, circuit) = &suite[0];
    let mut options = TranspileOptions::for_device(CouplingMap::grid(3, 4));
    options.optimization_level = 1;
    options.mapper = MapperKind::Sabre;
    let cache = transpiler::cache::TranspileCache::new(4);
    let key = transpiler::cache::TranspileCache::key(circuit, &options);
    let mut cold = f64::INFINITY;
    let mut warm = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        cache.clear();
        let start = std::time::Instant::now();
        let result = transpiler::transpile(circuit, &options).expect("cold transpile");
        cache.insert(key, result);
        cold = cold.min(elapsed_seconds(start));
        let start = std::time::Instant::now();
        let hit = cache.lookup(key);
        warm = warm.min(elapsed_seconds(start));
        assert!(hit.is_some(), "warm lookup must hit");
    }
    let speedup = cold / warm.max(f64::MIN_POSITIVE);
    for (engine_name, wall_seconds) in
        [("transpile_cache[cold]", cold), ("transpile_cache[warm]", warm)]
    {
        let mut metrics = BTreeMap::new();
        if config.collect_metrics {
            metrics.insert("cache_speedup".to_owned(), speedup);
        }
        entries.push(BaselineEntry {
            circuit: circuit_name.clone(),
            engine: engine_name.to_owned(),
            qubits: circuit.num_qubits(),
            gates: circuit.num_gates(),
            shots: 0,
            wall_seconds,
            metrics,
        });
    }
    entries
}

/// Parameter-sweep entries: a 2-local ansatz bound over an angle grid on
/// a (noiseless, seeded) fake device, executed once through the batched
/// sweep path (template transpiled once, one kernel pass over all
/// bindings via `Backend::run_batch`) and once as independent jobs
/// through the executor (the pre-batch traffic shape: a full device
/// transpile, validation, queueing and state allocation for every
/// binding). The process-wide transpile cache is cleared before each
/// timed repeat, because a real sweep presents fresh angles the cache
/// has never seen. Both paths run the same seeded backend, so their
/// counts are asserted identical before the timings are recorded; the
/// batch entry carries the `sweep_speedup` ratio.
fn sweep_entries(config: &BaselineConfig) -> Vec<BaselineEntry> {
    use qukit::aer::noise::NoiseModel;
    use qukit::backend::FakeDevice;
    use qukit::terra::parameter::ParameterizedCircuit;
    use qukit::{ExecutorConfig, JobExecutor, Provider};

    if config.sweep_bindings == 0 {
        return Vec::new();
    }
    // ibmqx4-sized ansatz: at optimization level 1 the transpiler copies
    // rotation angles verbatim, so the sweep's sentinel validation holds
    // and the template genuinely transpiles once.
    let num_qubits = 5;
    // A realistic estimator sweep samples each point lightly; capping the
    // per-point shots also keeps the entry sensitive to the per-job costs
    // (transpile, validation, queueing) the batch path amortizes.
    let sweep_shots = config.shots.min(256);
    let mut ansatz = ParameterizedCircuit::new(num_qubits);
    let params: Vec<_> = (0..2 * num_qubits).map(|i| ansatz.parameter(format!("t{i}"))).collect();
    for (q, &param) in params.iter().take(num_qubits).enumerate() {
        ansatz.ry(param, q).expect("valid ansatz");
    }
    for q in 0..num_qubits - 1 {
        ansatz.circuit_mut().cx(q, q + 1).expect("valid ansatz");
    }
    for (q, &param) in params.iter().skip(num_qubits).enumerate() {
        ansatz.ry(param, q).expect("valid ansatz");
    }
    let bindings: Vec<Vec<f64>> = (0..config.sweep_bindings)
        .map(|point| {
            (0..2 * num_qubits).map(|i| 0.1 + 0.37 * (point * 2 * num_qubits + i) as f64).collect()
        })
        .collect();

    let device =
        FakeDevice::ibmqx4().with_noise(NoiseModel::new()).with_seed(config.seed).with_opt_level(1);
    let mut provider = Provider::new();
    provider.register(Box::new(device));
    let executor = JobExecutor::with_config(
        provider,
        ExecutorConfig {
            workers: 1,
            queue_capacity: config.sweep_bindings + 4,
            ..Default::default()
        },
    );

    let repeats = config.repeats.max(1);
    let mut batch_wall = f64::INFINITY;
    let mut batch_counts = Vec::new();
    for _ in 0..repeats {
        qukit::terra::transpiler::cache::global().clear();
        let start = std::time::Instant::now();
        let report =
            executor.run_sweep(&ansatz, &bindings, "ibmqx4", sweep_shots).expect("sweep run");
        batch_wall = batch_wall.min(elapsed_seconds(start));
        assert!(
            report.transpiled_once,
            "sweep template must transpile once on the opt-level-1 device path"
        );
        batch_counts = report.counts;
    }

    let mut independent_wall = f64::INFINITY;
    for _ in 0..repeats {
        qukit::terra::transpiler::cache::global().clear();
        let start = std::time::Instant::now();
        let mut all_counts = Vec::with_capacity(bindings.len());
        for values in &bindings {
            let bound = ansatz.bind(values).expect("binding");
            let job = executor.submit(&bound, "ibmqx4", sweep_shots).expect("sweep submit");
            all_counts
                .push(job.result(std::time::Duration::from_secs(300)).expect("sweep job result"));
        }
        independent_wall = independent_wall.min(elapsed_seconds(start));
        assert_eq!(
            all_counts, batch_counts,
            "batched sweep must be bit-identical to independent jobs"
        );
    }

    let speedup = independent_wall / batch_wall.max(1e-12);
    let circuit_name = format!("two_local_{num_qubits}x{}", config.sweep_bindings);
    let gates = ansatz.template().num_gates();
    [("sweep[batch]", batch_wall, true), ("sweep[independent]", independent_wall, false)]
        .into_iter()
        .map(|(engine, wall_seconds, is_batch)| {
            let mut metrics = BTreeMap::new();
            if config.collect_metrics {
                metrics.insert("bindings".to_owned(), config.sweep_bindings as f64);
                if is_batch {
                    metrics.insert("sweep_speedup".to_owned(), speedup);
                }
            }
            BaselineEntry {
                circuit: circuit_name.clone(),
                engine: engine.to_owned(),
                qubits: num_qubits,
                gates,
                shots: sweep_shots,
                wall_seconds,
                metrics,
            }
        })
        .collect()
}

/// One slowdown found by [`Baseline::compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Circuit name of the regressed entry.
    pub circuit: String,
    /// Engine name of the regressed entry.
    pub engine: String,
    /// Wall seconds in the old (reference) baseline.
    pub old_wall: f64,
    /// Wall seconds in the new (candidate) baseline.
    pub new_wall: f64,
    /// Noise-floored slowdown ratio (`> 1 + tolerance` to be reported).
    pub ratio: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {}: {:.6}s -> {:.6}s ({:.2}x)",
            self.circuit, self.engine, self.old_wall, self.new_wall, self.ratio
        )
    }
}

/// Adds terminal measurements where the suite circuit has none (the
/// backends require measured circuits for sampling).
fn prepared(circuit: &QuantumCircuit) -> QuantumCircuit {
    if circuit.has_measurements() {
        circuit.clone()
    } else {
        let mut measured = circuit.clone();
        measured.measure_all();
        measured
    }
}

impl Baseline {
    /// Serializes to the `qukit-bench-baseline/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BASELINE_SCHEMA}\",");
        out.push_str("  \"entries\": [");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"circuit\": \"{}\",", escape(&entry.circuit));
            let _ = writeln!(out, "      \"engine\": \"{}\",", escape(&entry.engine));
            let _ = writeln!(out, "      \"qubits\": {},", entry.qubits);
            let _ = writeln!(out, "      \"gates\": {},", entry.gates);
            let _ = writeln!(out, "      \"shots\": {},", entry.shots);
            let _ = writeln!(out, "      \"wall_seconds\": {},", fmt_f64(entry.wall_seconds));
            out.push_str("      \"metrics\": {");
            for (j, (name, value)) in entry.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        \"{}\": {}", escape(name), fmt_f64(*value));
            }
            if !entry.metrics.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n    }");
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses and validates a baseline document.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first schema violation.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing \"schema\" field".to_owned())?;
        if schema != BASELINE_SCHEMA {
            return Err(format!("schema '{schema}' is not '{BASELINE_SCHEMA}'"));
        }
        let raw_entries = value
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "missing \"entries\" array".to_owned())?;
        let mut entries = Vec::new();
        for (i, raw) in raw_entries.iter().enumerate() {
            let field_str = |key: &str| {
                raw.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("entry {i}: missing string \"{key}\""))
            };
            let field_num = |key: &str| {
                raw.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("entry {i}: missing number \"{key}\""))
            };
            let metrics_obj = raw
                .get("metrics")
                .and_then(JsonValue::as_object)
                .ok_or_else(|| format!("entry {i}: missing object \"metrics\""))?;
            let mut metrics = BTreeMap::new();
            for (name, v) in metrics_obj {
                let value = v
                    .as_f64()
                    .ok_or_else(|| format!("entry {i}: metric \"{name}\" is not a number"))?;
                metrics.insert(name.clone(), value);
            }
            entries.push(BaselineEntry {
                circuit: field_str("circuit")?,
                engine: field_str("engine")?,
                qubits: field_num("qubits")? as usize,
                gates: field_num("gates")? as usize,
                shots: field_num("shots")? as usize,
                wall_seconds: field_num("wall_seconds")?,
                metrics,
            });
        }
        Ok(Self { entries })
    }

    /// Compares `self` (the old reference) against `new`, returning every
    /// shared `(circuit, engine)` pair that slowed down by more than
    /// `tolerance` (0.25 = 25%). Pairs present in only one document are
    /// skipped — baselines are allowed to grow or shrink their sweeps.
    ///
    /// Both wall times are clamped up to `min_wall` before forming the
    /// ratio, so sub-noise-floor timings (see [`MIN_COMPARE_WALL`]) can
    /// never trip the gate.
    pub fn compare(&self, new: &Baseline, tolerance: f64, min_wall: f64) -> Vec<Regression> {
        let mut regressions = Vec::new();
        for old_entry in &self.entries {
            let Some(new_entry) = new
                .entries
                .iter()
                .find(|e| e.circuit == old_entry.circuit && e.engine == old_entry.engine)
            else {
                continue;
            };
            let old_floored = old_entry.wall_seconds.max(min_wall);
            let new_floored = new_entry.wall_seconds.max(min_wall);
            // A `min_wall` of zero (or a hand-edited baseline) can leave a
            // zero on either side; never form 0/0 or x/0.
            let ratio = if old_floored > 0.0 {
                new_floored / old_floored
            } else if new_floored > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            if ratio > 1.0 + tolerance {
                regressions.push(Regression {
                    circuit: old_entry.circuit.clone(),
                    engine: old_entry.engine.clone(),
                    old_wall: old_entry.wall_seconds,
                    new_wall: new_entry.wall_seconds,
                    ratio,
                });
            }
        }
        regressions
    }
}

/// Finite shortest-roundtrip float formatting (JSON has no NaN/Inf).
fn fmt_f64(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_owned();
    }
    let text = format!("{value}");
    // `{}` on f64 already round-trips; just make integers explicit
    // floats so the field parses as a number either way.
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The reduced sweep the presence and schema tests share: every entry
    /// kind, at 16 shots, two repeats, threads 1 and 2 and 8 bindings.
    fn reduced() -> BaselineConfig {
        BaselineConfig {
            shots: 16,
            repeats: 2,
            threads: vec![1, 2],
            sweep_bindings: 8,
            ..Default::default()
        }
    }

    /// One run of [`reduced`], shared by every test that reads it.
    fn shared_baseline() -> &'static Baseline {
        static BASELINE: OnceLock<Baseline> = OnceLock::new();
        BASELINE.get_or_init(|| run_baseline(&reduced()))
    }

    #[test]
    fn baseline_covers_at_least_eight_circuit_engine_pairs() {
        let baseline = shared_baseline();
        assert!(baseline.entries.len() >= 8, "only {} entries", baseline.entries.len());
        let mut pairs: Vec<(String, String)> =
            baseline.entries.iter().map(|e| (e.circuit.clone(), e.engine.clone())).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), baseline.entries.len(), "pairs must be unique");
        assert!(baseline.entries.iter().all(|e| e.wall_seconds >= 0.0));
        assert!(!qukit_obs::enabled(), "baseline leaves metrics as it found them");
    }

    #[test]
    fn baseline_entries_embed_engine_metrics() {
        let baseline = shared_baseline();
        let dd =
            baseline.entries.iter().find(|e| e.engine == "dd_simulator").expect("dd entries exist");
        assert!(
            dd.metrics.keys().any(|k| k.starts_with("qukit_dd_")),
            "dd entry carries dd metrics: {:?}",
            dd.metrics.keys().collect::<Vec<_>>()
        );
        let sv = baseline
            .entries
            .iter()
            .find(|e| e.engine == "qasm_simulator")
            .expect("statevector entries exist");
        assert!(sv.metrics.keys().any(|k| k.starts_with("qukit_aer_")));
    }

    #[test]
    fn baseline_covers_routing_and_cache_entries() {
        let baseline = shared_baseline();
        for circuit in ["qft_12", "random_12x200"] {
            for engine in ["transpile[sabre]", "transpile[astar]"] {
                let entry = baseline
                    .entries
                    .iter()
                    .find(|e| e.circuit == circuit && e.engine == engine)
                    .unwrap_or_else(|| panic!("missing {circuit}/{engine}"));
                assert!(entry.metrics.contains_key("swaps_inserted"));
                assert!(entry.metrics["depth_out"] > 0.0);
            }
        }
        let cold = baseline
            .entries
            .iter()
            .find(|e| e.engine == "transpile_cache[cold]")
            .expect("cold cache entry");
        let warm = baseline
            .entries
            .iter()
            .find(|e| e.engine == "transpile_cache[warm]")
            .expect("warm cache entry");
        // The headline cache claim: a hit skips the whole pipeline, so it
        // must be at least 10× faster than the cold transpile (in
        // practice it is a hash plus a clone, thousands of times faster).
        assert!(
            warm.wall_seconds * 10.0 <= cold.wall_seconds,
            "cache hit not >=10x faster: cold {:.6}s warm {:.6}s",
            cold.wall_seconds,
            warm.wall_seconds
        );
        assert!(warm.metrics["cache_speedup"] >= 10.0);
    }

    #[test]
    fn baseline_json_round_trips() {
        let baseline = shared_baseline();
        let json = baseline.to_json();
        let parsed = Baseline::from_json(&json).expect("own output validates");
        assert_eq!(&parsed, baseline);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::from_json("{}").is_err());
        assert!(Baseline::from_json("{\"schema\": \"other/v9\", \"entries\": []}").is_err());
        assert!(Baseline::from_json(
            "{\"schema\": \"qukit-bench-baseline/v1\", \"entries\": [{}]}"
        )
        .is_err());
        assert!(Baseline::from_json("not json").is_err());
    }

    #[test]
    fn default_thread_sweep_stays_within_the_host_cores() {
        let threads = BaselineConfig::default().threads;
        assert_eq!(threads.last(), Some(&host_threads()));
        for (_, _, engines) in sweep(&threads, false) {
            for (t, _) in engines.iter().filter_map(|e| parse_parallel_engine(e)) {
                assert!(t <= host_threads(), "t={t} oversubscribes {} cores", host_threads());
            }
        }
        assert_eq!(thread_sweep(8), [1, 2, 4, 8]);
        assert_eq!(thread_sweep(6), [1, 2, 4, 6]);
        assert_eq!(thread_sweep(1), [1]);
    }

    #[test]
    fn parallel_engine_names_parse() {
        assert_eq!(parse_parallel_engine("parallel_statevector[t=4]"), Some((4, true)));
        assert_eq!(parse_parallel_engine("parallel_statevector[t=16]"), Some((16, true)));
        assert_eq!(parse_parallel_engine("parallel_statevector[t=1,simd=off]"), Some((1, false)));
        assert_eq!(parse_parallel_engine("qasm_simulator"), None);
        assert_eq!(parse_parallel_engine("parallel_statevector[t=x]"), None);
        assert_eq!(parse_parallel_engine("parallel_statevector[t=x,simd=off]"), None);
    }

    #[test]
    fn large_suite_includes_simd_and_scalar_dense_entries() {
        for circuit in ["ghz_24", "qft_22", "qft_24", "random_26x40"] {
            for engine in ["parallel_statevector[t=1]", "parallel_statevector[t=1,simd=off]"] {
                assert!(
                    sweep(&[], true)
                        .iter()
                        .any(|(name, _, engines)| name == circuit
                            && engines.iter().any(|e| e == engine)),
                    "missing large entry ({circuit}, {engine})"
                );
            }
        }
        assert!(
            !sweep(&[], false).iter().any(|(name, _, _)| name == "qft_24"),
            "large entries must stay behind the flag"
        );
    }

    #[test]
    fn compare_survives_zero_wall_baselines() {
        // min_wall 0 with hand-edited zero timings: no NaN, no panic.
        let old = Baseline { entries: vec![entry("bell", "qasm_simulator", 0.0)] };
        let same = Baseline { entries: vec![entry("bell", "qasm_simulator", 0.0)] };
        assert!(old.compare(&same, 0.25, 0.0).is_empty());
        let slower = Baseline { entries: vec![entry("bell", "qasm_simulator", 0.01)] };
        let regressions = old.compare(&slower, 0.25, 0.0);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].ratio.is_infinite());
    }

    #[test]
    fn sweep_entries_record_batch_speedup_and_identical_results() {
        let config = BaselineConfig {
            shots: 64,
            repeats: 1,
            threads: Vec::new(),
            sweep_bindings: 8,
            ..Default::default()
        };
        let entries = sweep_entries(&config);
        assert_eq!(entries.len(), 2);
        let batch = entries.iter().find(|e| e.engine == "sweep[batch]").expect("batch entry");
        let independent =
            entries.iter().find(|e| e.engine == "sweep[independent]").expect("independent entry");
        assert_eq!(batch.circuit, "two_local_5x8");
        assert_eq!(batch.metrics["bindings"], 8.0);
        assert!(batch.metrics.contains_key("sweep_speedup"));
        assert!(batch.wall_seconds > 0.0 && independent.wall_seconds > 0.0);
    }

    #[test]
    fn sweep_covers_wide_circuits_at_every_thread_count() {
        let baseline = shared_baseline();
        for circuit in ["qft_12", "random_12x200"] {
            for engine in
                ["qasm_simulator", "parallel_statevector[t=1]", "parallel_statevector[t=2]"]
            {
                assert!(
                    baseline.entries.iter().any(|e| e.circuit == circuit && e.engine == engine),
                    "missing ({circuit}, {engine})"
                );
            }
        }
        let parallel = baseline
            .entries
            .iter()
            .find(|e| e.circuit == "qft_12" && e.engine == "parallel_statevector[t=2]")
            .expect("parallel entry");
        assert!(
            parallel.metrics.keys().any(|k| k.starts_with("qukit_terra_fusion_")),
            "parallel entry carries fusion metrics: {:?}",
            parallel.metrics.keys().collect::<Vec<_>>()
        );
    }

    fn entry(circuit: &str, engine: &str, wall: f64) -> BaselineEntry {
        BaselineEntry {
            circuit: circuit.to_owned(),
            engine: engine.to_owned(),
            qubits: 2,
            gates: 2,
            shots: 16,
            wall_seconds: wall,
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn compare_flags_slowdowns_beyond_tolerance() {
        let old = Baseline {
            entries: vec![entry("bell", "qasm_simulator", 0.010), entry("bell", "ibmqx4", 0.010)],
        };
        let new = Baseline {
            entries: vec![entry("bell", "qasm_simulator", 0.020), entry("bell", "ibmqx4", 0.011)],
        };
        let regressions = old.compare(&new, 0.25, MIN_COMPARE_WALL);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].engine, "qasm_simulator");
        assert!(regressions[0].ratio > 1.9 && regressions[0].ratio < 2.1);
        assert!(regressions[0].to_string().contains("qasm_simulator"));
    }

    #[test]
    fn compare_floors_sub_noise_timings_and_skips_unshared_pairs() {
        // 3 µs -> 300 µs is a 100x blowup on paper but both sit under the
        // noise floor, so it must not trip the gate.
        let old = Baseline { entries: vec![entry("bell", "qasm_simulator", 0.000_003)] };
        let new = Baseline {
            entries: vec![
                entry("bell", "qasm_simulator", 0.000_3),
                entry("qft_12", "parallel_statevector[t=4]", 5.0),
            ],
        };
        assert!(old.compare(&new, 0.25, MIN_COMPARE_WALL).is_empty());
        // A genuine slowdown above the floor is still caught.
        let slow = Baseline { entries: vec![entry("bell", "qasm_simulator", 0.01)] };
        assert_eq!(old.compare(&slow, 0.25, MIN_COMPARE_WALL).len(), 1);
    }

    #[test]
    fn metrics_can_be_disabled_for_overhead_runs() {
        let baseline = run_baseline(&BaselineConfig { collect_metrics: false, ..reduced() });
        assert!(baseline.entries.iter().all(|e| e.metrics.is_empty()));
    }
}
