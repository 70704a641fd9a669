//! Every shot-based run records which path it took and why: the
//! `aer.qasm_run` and `aer.stabilizer_run` spans carry `mode=sampled`, or
//! `mode=trajectory` with a `reason` naming the first instruction that
//! forced per-shot execution. A dense trajectory run also records
//! `trajectories=<n>`, the shot-tree leaves it evolved, and a dense
//! sampled run `fused=<ops>/<gates> tiled=<phases> lanes=<isa>`, what
//! fusion made of its gates, how many phases ran tile by tile and which
//! lane build (`avx2`, `baseline` or `off`) ran the kernels. The
//! `aer.statevector_run` span records `lanes=<isa>` too.
//!
//! A single `#[test]` in its own binary: it toggles the process-global
//! recorder, which would race any test sharing the process.

use qukit_aer::noise::NoiseModel;
use qukit_aer::parallel::ParallelConfig;
use qukit_aer::simd::lane_isa;
use qukit_aer::simulator::{QasmSimulator, StatevectorSimulator};
use qukit_aer::stabilizer::StabilizerSimulator;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::gate::Gate;

/// The detail string of the single `name` span recorded under `context`.
fn detail_of(name: &str, context: qukit_obs::TraceContext) -> String {
    let matching: Vec<_> = qukit_obs::snapshot_trace()
        .into_iter()
        .filter(|event| event.name == name && event.trace_id == context.trace_id)
        .collect();
    assert_eq!(matching.len(), 1, "one {name} span per run");
    matching[0].detail.clone()
}

fn gate_apps() -> u64 {
    let snapshot = qukit_obs::registry().snapshot();
    snapshot.counters.get("qukit_aer_stabilizer_gates_total").copied().unwrap_or(0)
}

/// Runs `circuit` on both engines (noisy dense only when `noise` is set)
/// under a fresh trace and checks the decision each span recorded.
fn check(circuit: &QuantumCircuit, noise: Option<NoiseModel>, expected: &str) {
    let engines: [(&str, &dyn Fn()); 2] = [
        ("aer.qasm_run", &|| {
            let mut sim = QasmSimulator::new().with_seed(1);
            if let Some(noise) = noise.clone() {
                sim = sim.with_noise(noise);
            }
            sim.run(circuit, 8).expect("dense run");
        }),
        ("aer.stabilizer_run", &|| {
            StabilizerSimulator::new().with_seed(1).run(circuit, 8).expect("tableau run");
        }),
    ];
    for (span, run) in engines {
        if noise.is_some() && span == "aer.stabilizer_run" {
            continue;
        }
        let context = qukit_obs::TraceContext::mint();
        {
            let _guard = context.attach();
            run();
        }
        let detail = detail_of(span, context);
        // Dense trajectory runs also record how many shot-tree leaves
        // they evolved, after the decision.
        let decision = match detail.rsplit_once(" trajectories=") {
            Some((decision, leaves)) => {
                assert!(span == "aer.qasm_run" && expected.starts_with("mode=trajectory"));
                let leaves: u64 = leaves.parse().expect("leaf count");
                assert!((1..=8).contains(&leaves), "{span}: {leaves} leaves for 8 shots");
                decision
            }
            None => match detail.rsplit_once(" fused=") {
                // Dense sampled runs record what fusion and tiling did.
                Some((decision, fused)) => {
                    assert!(span == "aer.qasm_run" && expected == "mode=sampled");
                    let (ops, gates, _, lanes) = parse_fused(fused);
                    assert!((1..=gates).contains(&ops), "{span}: {ops} ops for {gates} gates");
                    assert_eq!(lanes, lane_isa(ParallelConfig::from_env().simd), "{span}");
                    decision
                }
                None => {
                    assert!(
                        span != "aer.qasm_run",
                        "{span}: dense run without its leaf count or fusion: '{detail}'"
                    );
                    detail.as_str()
                }
            },
        };
        assert!(
            decision.ends_with(expected),
            "{span}: expected '{expected}' at the end of '{decision}'"
        );
    }
}

/// `(ops, gates, tiled, lanes)` from the `<ops>/<gates> tiled=<phases>
/// lanes=<isa>` that follows `fused=`.
fn parse_fused(fused: &str) -> (usize, usize, usize, &str) {
    let (ratio, rest) = fused.split_once(" tiled=").expect("tiled phases");
    let (tiled, lanes) = rest.split_once(" lanes=").expect("lane build");
    let (ops, gates) = ratio.split_once('/').expect("ops/gates");
    let number = |text: &str| text.parse::<usize>().expect("a count");
    (number(ops), number(gates), number(tiled), lanes)
}

/// What a sampled run of `circuit` at the default chunk size records
/// after `fused=`, with SIMD on (the scalar kernels never tile) whatever
/// the environment says.
fn fused_of(circuit: &QuantumCircuit) -> (usize, usize, usize) {
    let context = qukit_obs::TraceContext::mint();
    {
        let _guard = context.attach();
        let config = ParallelConfig { simd: true, ..ParallelConfig::with_threads(1) };
        QasmSimulator::new().with_seed(3).with_parallel(config).run(circuit, 16).expect("run");
    }
    let detail = detail_of("aer.qasm_run", context);
    let (decision, fused) = detail.rsplit_once(" fused=").expect("sampled run");
    assert!(decision.ends_with("mode=sampled"), "{detail}");
    let (ops, gates, tiled, lanes) = parse_fused(fused);
    assert_eq!(lanes, lane_isa(true), "{detail}");
    (ops, gates, tiled)
}

/// The lane build the `aer.statevector_run` span of a run with `simd`
/// lanes records.
fn statevector_lanes(circuit: &QuantumCircuit, simd: bool) -> String {
    let context = qukit_obs::TraceContext::mint();
    {
        let _guard = context.attach();
        let config = ParallelConfig { simd, ..ParallelConfig::with_threads(1) };
        StatevectorSimulator::with_config(config).run(circuit).expect("unitary run");
    }
    let detail = detail_of("aer.statevector_run", context);
    let (_, lanes) = detail.split_once("lanes=").expect("lane build");
    lanes.split_whitespace().next().expect("a lane build name").to_owned()
}

/// A layer of H on every qubit, a CX ladder and a measure of every qubit.
fn ladder(n: usize) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::with_size(n, n);
    for q in 0..n {
        circuit.h(q).unwrap();
    }
    for q in 1..n {
        circuit.cx(q - 1, q).unwrap();
    }
    for q in 0..n {
        circuit.measure(q, q).unwrap();
    }
    circuit
}

/// The leaf count a seeded single-threaded dense run records on its
/// `aer.qasm_run` span (shot-parallel runs walk one tree per batch).
fn leaves_of(circuit: &QuantumCircuit, noise: Option<NoiseModel>, shots: usize) -> u64 {
    let context = qukit_obs::TraceContext::mint();
    {
        let _guard = context.attach();
        let mut sim = QasmSimulator::new().with_seed(3).with_parallel(ParallelConfig::serial());
        if let Some(noise) = noise {
            sim = sim.with_noise(noise);
        }
        sim.run(circuit, shots).expect("dense run");
    }
    let detail = detail_of("aer.qasm_run", context);
    let (_, leaves) = detail.rsplit_once(" trajectories=").expect("trajectory run");
    leaves.parse().expect("leaf count")
}

#[test]
fn run_spans_record_the_sampled_or_trajectory_decision_and_its_reason() {
    qukit_obs::set_enabled(true);
    qukit_obs::reset();

    let mut terminal = QuantumCircuit::with_size(3, 3);
    terminal.h(0).unwrap();
    terminal.measure(0, 0).unwrap();
    terminal.cx(1, 2).unwrap();
    terminal.measure(1, 1).unwrap();
    terminal.measure(2, 2).unwrap();
    check(&terminal, None, "mode=sampled");

    let mut reset = QuantumCircuit::with_size(2, 2);
    reset.h(0).unwrap();
    reset.cx(0, 1).unwrap();
    reset.reset(1).unwrap();
    reset.measure(0, 0).unwrap();
    check(&reset, None, "mode=trajectory reason=reset@2");

    let mut conditional = QuantumCircuit::with_size(2, 2);
    conditional.h(0).unwrap();
    conditional.measure(0, 0).unwrap();
    conditional.append_conditional(Gate::X, &[1], "c", 1).unwrap();
    conditional.measure(1, 1).unwrap();
    check(&conditional, None, "mode=trajectory reason=conditional@2");

    let mut gate_after = QuantumCircuit::with_size(2, 2);
    gate_after.h(0).unwrap();
    gate_after.measure(0, 0).unwrap();
    gate_after.h(1).unwrap();
    gate_after.x(0).unwrap();
    gate_after.measure(1, 1).unwrap();
    check(&gate_after, None, "mode=trajectory reason=gate_after_measure@3");

    let mut remeasure = QuantumCircuit::with_size(1, 2);
    remeasure.h(0).unwrap();
    remeasure.measure(0, 0).unwrap();
    remeasure.measure(0, 1).unwrap();
    check(&remeasure, None, "mode=trajectory reason=remeasure@2");

    let mut rewrite = QuantumCircuit::with_size(2, 1);
    rewrite.h(0).unwrap();
    rewrite.measure(0, 0).unwrap();
    rewrite.measure(1, 0).unwrap();
    check(&rewrite, None, "mode=trajectory reason=clbit_rewrite@2");

    check(
        &terminal,
        Some(NoiseModel::depolarizing(0.01, 0.02, 0.0)),
        "mode=trajectory reason=noise",
    );

    // Shots share a trajectory until their decisions differ. Two coin
    // flips on one qubit, the second after a gate on the measured qubit,
    // give four leaves for 64 shots; a reset of |0⟩ never branches, so
    // every shot shares one evolution.
    let mut coins = QuantumCircuit::with_size(1, 2);
    coins.h(0).unwrap();
    coins.measure(0, 0).unwrap();
    coins.h(0).unwrap();
    coins.measure(0, 1).unwrap();
    assert_eq!(leaves_of(&coins, None, 64), 4);
    let mut idle_reset = QuantumCircuit::with_size(2, 2);
    idle_reset.h(0).unwrap();
    idle_reset.reset(1).unwrap();
    idle_reset.cx(0, 1).unwrap();
    assert_eq!(leaves_of(&idle_reset, None, 64), 1);
    // A certain bit flip after each of three gates still takes one path;
    // depolarizing noise splits shots into more than one.
    let mut flips = QuantumCircuit::with_size(1, 1);
    for _ in 0..3 {
        flips.x(0).unwrap();
    }
    let mut always = NoiseModel::new();
    always.add_all_qubit_error("x", qukit_aer::noise::QuantumError::bit_flip(1.0));
    assert_eq!(leaves_of(&flips, Some(always), 64), 1);
    assert!(leaves_of(&flips, Some(NoiseModel::depolarizing(0.3, 0.0, 0.0)), 64) > 1);

    // An ideal noise model keeps the evolve-once path.
    check(&terminal, Some(NoiseModel::new()), "mode=sampled");

    // A 12-qubit state fits in one default chunk and is never tiled; a
    // 20-qubit one outgrows it, so some of its phases run tile by tile.
    let (ops, gates, tiled) = fused_of(&ladder(12));
    assert_eq!((gates, tiled), (23, 0), "12 qubits: {ops} ops");
    let (_, gates, tiled) = fused_of(&ladder(20));
    assert_eq!(gates, 39);
    assert!(tiled > 0, "a 20-qubit state is tiled");

    // The lane kernels run in their AVX2 build on a host that has AVX2,
    // in the baseline build otherwise; with SIMD off the scalar oracle
    // runs.
    let mut bell = QuantumCircuit::new(2);
    bell.h(0).unwrap();
    bell.cx(0, 1).unwrap();
    #[cfg(target_arch = "x86_64")]
    let expected = if std::arch::is_x86_feature_detected!("avx2") { "avx2" } else { "baseline" };
    #[cfg(not(target_arch = "x86_64"))]
    let expected = "baseline";
    assert_eq!(lane_isa(true), expected);
    assert_eq!(statevector_lanes(&bell, true), expected);
    assert_eq!(statevector_lanes(&bell, false), "off");

    // A 100-qubit GHZ, past any single-word qubit mask, is evolved once:
    // each of its 100 gates is applied to one tableau, not once per shot.
    let n = 100;
    let mut ghz = QuantumCircuit::with_size(n, 64);
    ghz.h(0).unwrap();
    for q in 1..n {
        ghz.cx(q - 1, q).unwrap();
    }
    for c in 0..64 {
        ghz.measure(n - 1 - c, c).unwrap();
    }
    let gates_before = gate_apps();
    let context = qukit_obs::TraceContext::mint();
    let counts = {
        let _guard = context.attach();
        StabilizerSimulator::new().with_seed(2).run(&ghz, 256).expect("wide GHZ")
    };
    assert_eq!(counts.get_value(0) + counts.get_value(u64::MAX), 256);
    assert!(detail_of("aer.stabilizer_run", context).ends_with("mode=sampled"));
    assert_eq!(gate_apps() - gates_before, n as u64);

    qukit_obs::set_enabled(false);
}
