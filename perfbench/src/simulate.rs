//! `simulate`: two clients run noiseless, measured circuits through
//! `Backend::run` at 1024 shots — mostly `qasm_simulator` at 12–16
//! qubits, Clifford circuits on `stabilizer_simulator`, and structured
//! QFT/GHZ circuits on `dd_simulator`. The engines do all the work.

use crate::check;
use crate::compile::cx_and_depth;
use crate::gen::{self, Circ, Dist, Rng};
use crate::trace::{self, Extras, Recorder};
use crate::{setups_after, with_recording_paused, Config, Pass, SETUP_REPS, SHOTS, WARM_SEED};
use qukit::{Backend, Counts, DdSimulatorBackend, QasmSimulatorBackend, StabilizerBackend};
use qukit_terra::circuit::QuantumCircuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Blocks per second on the reference host.
const BLOCKS_PER_S: f64 = 10.0;

/// Clients. Both take the next op from one shared list, so that every
/// figure averages the host's two vCPUs. A single client stays on one
/// vCPU, and on the reference host the two vCPUs' speeds differ by up to
/// 45% and swap over minutes: interleaved runs spread three times as
/// widely with one client as with two.
const CLIENTS: usize = 2;

/// Warm-up blocks per setup.
const WARM_BLOCKS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Statevector,
    Stabilizer,
    Dd,
}

impl Engine {
    fn span(self) -> &'static str {
        match self {
            Engine::Statevector => "aer.statevector",
            Engine::Stabilizer => "aer.stabilizer",
            Engine::Dd => "dd.run",
        }
    }
}

struct Input {
    circ: Circ,
    circuit: QuantumCircuit,
    dist: Dist,
    engine: Engine,
    class: &'static str,
}

/// Block `b`: seven `qasm_simulator` mirror circuits (12–16 qubits, three
/// of them at 14 so that the median falls inside one tight cluster), two
/// circuits on the stabilizer engine (16–32 qubits) and two on the DD
/// engine (16–24 qubits). Widths cycle with `b`, so every seed runs the
/// same mix of sizes.
fn block(b: usize, rng: &mut Rng) -> Vec<(Circ, Dist, Engine, &'static str)> {
    let mut ops = Vec::new();
    for n in [12, 13, 14, 14, 14, 15, 16] {
        let (c, d) = gen::mirror_htrx(n, 3 * n, 2, rng);
        ops.push((c, d, Engine::Statevector, "statevector_mirror"));
    }
    let (c, d) = gen::mirror_clifford([16, 24, 32][b % 3], 24, 3, rng);
    ops.push((c, d, Engine::Stabilizer, "stabilizer_clifford"));
    let (c, d) = gen::ghz_measured([32, 16, 24][b % 3], rng);
    ops.push((c, d, Engine::Stabilizer, "stabilizer_ghz"));
    let (c, d) = gen::ghz_measured([16, 20, 24][b % 3], rng);
    ops.push((c, d, Engine::Dd, "dd_ghz"));
    let (c, d) = gen::qft_roundtrip([24, 16, 20][b % 3], 3, rng);
    ops.push((c, d, Engine::Dd, "dd_aqft"));
    ops
}

fn inputs(rng: &mut Rng, blocks: usize) -> Vec<Input> {
    let mut out: Vec<Input> = (0..blocks)
        .flat_map(|b| block(b, rng))
        .map(|(circ, dist, engine, class)| {
            let circuit = qukit_terra::qasm::parse(&circ.qasm()).expect("generated circuits parse");
            Input { circ, circuit, dist, engine, class }
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

fn backends(seed: u64) -> [Box<dyn Backend>; 3] {
    [
        Box::new(QasmSimulatorBackend::new().with_seed(seed)),
        Box::new(StabilizerBackend::new().with_seed(seed)),
        Box::new(DdSimulatorBackend::new().with_seed(seed)),
    ]
}

fn backend_for(backends: &[Box<dyn Backend>; 3], engine: Engine) -> &dyn Backend {
    match engine {
        Engine::Statevector => backends[0].as_ref(),
        Engine::Stabilizer => backends[1].as_ref(),
        Engine::Dd => backends[2].as_ref(),
    }
}

/// What one op returned, and when its call started and ended.
type Done = (Result<Counts, String>, Instant, Instant);

/// Runs `ops` in a closed loop on `CLIENTS` threads, each taking the next
/// op not yet taken, and returns what each op did, in op order.
fn run_ops(backends: &[Box<dyn Backend>; 3], ops: &[Input]) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Done)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = ops.get(i) else { break mine };
                        let backend = backend_for(backends, input.engine);
                        let t0 = Instant::now();
                        let counts = backend.run(&input.circuit, SHOTS).map_err(|e| e.to_string());
                        mine.push((i, (counts, t0, Instant::now())));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|d| d.1).collect()
}

/// One setup: the three backends plus the warm-up blocks. Returns the
/// backends and the seconds it took.
fn setup(seed: u64, warm: &[Input]) -> ([Box<dyn Backend>; 3], f64) {
    let t0 = Instant::now();
    let b = backends(seed);
    for (counts, ..) in run_ops(&b, warm) {
        counts.expect("warm-up circuit runs");
    }
    (b, t0.elapsed().as_secs_f64())
}

pub fn run(cfg: &Config, traced: bool) -> Pass {
    let ops = inputs(&mut Rng::fork(cfg.seed, 11), cfg.blocks(BLOCKS_PER_S));
    let warm = inputs(&mut Rng::fork(WARM_SEED, 12), WARM_BLOCKS);
    let mut pass = Pass::default();

    let (engines, secs) = setup(cfg.seed, &warm);
    pass.setup_s.push(secs);
    if traced {
        qukit_obs::reset();
    }

    let recorder = Recorder::default();
    let mut results = Vec::with_capacity(ops.len());
    let chunk_len = ops.len().div_ceil(SETUP_REPS);
    let chunks = ops.len().div_ceil(chunk_len);
    for (c, chunk) in ops.chunks(chunk_len).enumerate() {
        let start = Instant::now();
        let done = run_ops(&engines, chunk);
        pass.wall_s += start.elapsed().as_secs_f64();
        for ((counts, t0, t1), input) in done.into_iter().zip(chunk) {
            let i = results.len();
            pass.latencies.push((t1 - t0).as_secs_f64());
            if traced {
                recorder.record(i, "op", None, t0, t1);
                recorder.record(i, input.engine.span(), Some("op"), t0, t1);
            }
            results.push(counts);
        }
        for _ in 0..setups_after(c, chunks) {
            pass.setup_s.push(with_recording_paused(traced, || setup(cfg.seed, &warm).1));
        }
    }

    if traced {
        let counters = trace::read_program_counters();
        let spans = recorder.take();
        let extras = Extras {
            stabilizer_gates: ops
                .iter()
                .filter(|o| o.engine == Engine::Stabilizer)
                .map(|o| o.circ.ops.len() as u64)
                .sum(),
            ..Extras::default()
        };
        pass.layers = trace::per_layer(&spans, &counters, ops.len(), &extras);
        let path = std::path::Path::new(crate::WORK_DIR)
            .join(format!("trace-simulate-seed{}.jsonl", cfg.seed));
        let epoch = spans.first().map_or_else(Instant::now, |s| s.start);
        if let Err(e) = trace::write_spans(&path, &spans, epoch) {
            pass.notes.push(format!("could not write spans: {e}"));
        }
    }

    for (i, (input, counts)) in ops.iter().zip(results).enumerate() {
        pass.classes.push(input.class);
        pass.cx_in += input.circ.cx_cost();
        pass.depth_in += input.circ.depth() as u64;
        // The circuit as the backend executes it (simulators run it as-is).
        let executed = backend_for(&engines, input.engine)
            .prepare_circuit(&input.circuit)
            .unwrap_or_else(|_| input.circuit.clone());
        let (cx, depth) = cx_and_depth(&executed);
        pass.cx_out += cx;
        pass.depth_out += depth;
        let verdict = counts.and_then(|counts| {
            pass.completed += 1;
            let counts = if cfg.self_test && i == 0 {
                check::move_all_to(&counts, check::least_likely(&input.dist, counts.num_clbits()))
            } else {
                counts
            };
            check::check_counts(&counts, &input.dist, SHOTS)
        });
        if let Err(e) = verdict {
            pass.failures.push(format!("op {i} ({}, seed {}): {e}", input.class, cfg.seed));
        }
    }
    pass
}
