//! `compile`: one client parses OpenQASM 2.0 text and transpiles it with
//! `FakeDevice::transpile` onto `ibmqx5` or a 27-qubit heavy-hex device.
//! Terra does all the work; every input is distinct, so every
//! transpile-cache probe misses.

use crate::check;
use crate::gen::{self, Circ, Family, Rng};
use crate::trace::{self, Extras, Recorder};
use crate::{setups_after, with_recording_paused, Config, Pass, WARM_SEED};
use qukit::FakeDevice;
use qukit_aer::noise::NoiseModel;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::coupling::CouplingMap;
use qukit_terra::gate::Gate;
use qukit_terra::transpiler::{transpile, InitialLayout, MapperKind, TranspileOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Blocks per second on the reference host (one block = one circuit of
/// every family × width × device stratum; the op order is shuffled within
/// each chunk of blocks).
const BLOCKS_PER_S: f64 = 50.0;

/// Blocks timed between two rounds of input generation and output checks;
/// bounds the memory that inputs and held outputs take.
const CHUNK_BLOCKS: usize = 28;

/// Warm-up blocks per setup.
const WARM_BLOCKS: usize = 3;

/// Input widths per device: `ibmqx5` (16 qubits), then heavy-hex (27).
const WIDTHS: [[usize; 3]; 2] = [[4, 6, 8], [5, 7, 9]];

struct Input {
    circ: Circ,
    text: String,
    device: usize,
    class: &'static str,
}

fn inputs(rng: &mut Rng, blocks: usize) -> Vec<Input> {
    let mut out = Vec::new();
    for _ in 0..blocks {
        for (device, widths) in WIDTHS.iter().enumerate() {
            for &n in widths {
                for family in Family::ALL {
                    let circ = family.build(n, rng);
                    let text = circ.qasm();
                    out.push(Input { circ, text, device, class: family.name() });
                }
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

fn devices() -> [FakeDevice; 2] {
    [
        FakeDevice::ibmqx5(),
        FakeDevice::new("heavy_hex_27", CouplingMap::heavy_hex(), NoiseModel::new()),
    ]
}

/// Routers, optimization levels and layouts a device might transpile
/// with; setting 0 is today's `FakeDevice` default (Lookahead, level 2,
/// trivial layout). The device reports neither its setting nor the layouts
/// it chose, so the check looks for the setting that reproduces the op's
/// output. A change of the default, such as another router, needs no edit
/// here.
const MAPPERS: [MapperKind; 4] =
    [MapperKind::Lookahead, MapperKind::Sabre, MapperKind::AStar, MapperKind::Basic];
const LAYOUTS: [InitialLayout; 2] = [InitialLayout::Trivial, InitialLayout::Dense];
const LEVELS: [u8; 4] = [2, 3, 1, 0];
const SETTINGS: usize = MAPPERS.len() * LAYOUTS.len() * LEVELS.len();

/// The setting that last reproduced an output, per device. It is tried
/// first, so that a changed default costs one search and not one per op.
static LAST_MATCH: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// Transpile setting `i` of `SETTINGS`.
fn setting(i: usize, map: &CouplingMap) -> TranspileOptions {
    TranspileOptions {
        coupling_map: Some(map.clone()),
        mapper: MAPPERS[i % MAPPERS.len()],
        optimization_level: LEVELS[i / (MAPPERS.len() * LAYOUTS.len())],
        basis_u: true,
        initial_layout: LAYOUTS[(i / MAPPERS.len()) % LAYOUTS.len()].clone(),
    }
}

fn couplings() -> [CouplingMap; 2] {
    [CouplingMap::ibm_qx5(), CouplingMap::heavy_hex()]
}

/// CX cost (by the fixed table; a U/CX circuit's CX count) and ASAP depth
/// of a circuit's gates.
pub fn cx_and_depth(c: &QuantumCircuit) -> (u64, u64) {
    let gates = || c.instructions().iter().filter_map(|i| Some((i.as_gate()?, &i.qubits)));
    let cx: u64 = gates().map(|(g, _)| gen::cx_cost(g.name())).sum();
    (cx, gen::depth(gates().map(|(_, q)| q.as_slice()), c.num_qubits()) as u64)
}

/// Drops the first CX: the self-test's corruption of a compiled output.
pub fn corrupt(c: &QuantumCircuit) -> QuantumCircuit {
    let mut out = c.clone();
    out.clear();
    let mut dropped = false;
    for inst in c.instructions() {
        if !dropped && inst.as_gate() == Some(&Gate::CX) {
            dropped = true;
            continue;
        }
        out.push(inst.clone()).expect("instruction from a valid circuit");
    }
    out
}

/// One setup: the two devices plus warm-up transpilations, from an empty
/// transpile cache. Returns the devices and the seconds it took.
fn setup(warm: &[Input]) -> ([FakeDevice; 2], f64) {
    qukit_terra::transpiler::cache::global().clear();
    let t0 = Instant::now();
    let d = devices();
    for w in warm {
        let circ = qukit_terra::qasm::parse(&w.text).expect("warm-up input parses");
        d[w.device].transpile(&circ).expect("warm-up input transpiles");
    }
    (d, t0.elapsed().as_secs_f64())
}

pub fn run(cfg: &Config, traced: bool) -> Pass {
    let mut rng = Rng::fork(cfg.seed, 1);
    let blocks = cfg.blocks(BLOCKS_PER_S);
    let warm = inputs(&mut Rng::fork(WARM_SEED, 2), WARM_BLOCKS);
    let mut pass = Pass::default();

    let (mut devs, secs) = setup(&warm);
    pass.setup_s.push(secs);
    if traced {
        qukit_obs::reset();
    }

    let recorder = Recorder::default();
    let mut checked = 0;
    // Inputs are generated one chunk at a time (outside the timing), so
    // that memory does not grow with the run length.
    let chunks = blocks.div_ceil(CHUNK_BLOCKS);
    for c in 0..chunks {
        let chunk = &inputs(&mut rng, CHUNK_BLOCKS.min(blocks - c * CHUNK_BLOCKS))[..];
        let mut outputs = Vec::with_capacity(chunk.len());
        let start = Instant::now();
        for input in chunk {
            let i = pass.latencies.len();
            let t0 = Instant::now();
            let parsed = qukit_terra::qasm::parse(&input.text);
            let t1 = Instant::now();
            let out = parsed
                .map_err(|e| e.to_string())
                .and_then(|c| devs[input.device].transpile(&c).map_err(|e| e.to_string()));
            let t2 = Instant::now();
            pass.latencies.push((t2 - t0).as_secs_f64());
            if traced {
                recorder.record(i, "op", None, t0, t2);
                recorder.record(i, "terra.parse", Some("op"), t0, t1);
                recorder.record(i, "terra.transpile", Some("op"), t1, t2);
            }
            outputs.push(out);
        }
        pass.wall_s += start.elapsed().as_secs_f64();
        // Checks run between chunks, outside the timing, with the program's
        // recording paused so that their transpilations are not counted.
        with_recording_paused(traced, || check_chunk(cfg, &mut pass, checked, chunk, &outputs));
        checked += chunk.len();
        for _ in 0..setups_after(c, chunks) {
            let (d, secs) = with_recording_paused(traced, || setup(&warm));
            devs = d;
            pass.setup_s.push(secs);
        }
    }

    if traced {
        let counters = trace::read_program_counters();
        let spans = recorder.take();
        pass.layers = trace::per_layer(&spans, &counters, checked, &Extras::default());
        let path = std::path::Path::new(crate::WORK_DIR)
            .join(format!("trace-compile-seed{}.jsonl", cfg.seed));
        let epoch = spans.first().map_or_else(Instant::now, |s| s.start);
        if let Err(e) = trace::write_spans(&path, &spans, epoch) {
            pass.notes.push(format!("could not write spans: {e}"));
        }
    }
    pass
}

/// Tallies and checks the outputs of ops `first..first + chunk.len()`.
fn check_chunk(
    cfg: &Config,
    pass: &mut Pass,
    first: usize,
    chunk: &[Input],
    outputs: &[Result<QuantumCircuit, String>],
) {
    for (input, out) in chunk.iter().zip(outputs) {
        pass.classes.push(input.class);
        pass.cx_in += input.circ.cx_cost();
        pass.depth_in += input.circ.depth() as u64;
        if let Ok(out) = out {
            pass.completed += 1;
            let (cx, depth) = cx_and_depth(out);
            pass.cx_out += cx;
            pass.depth_out += depth;
        }
    }
    // The checks dominate a run's wall time, so they use every core.
    let maps = couplings();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let maps = &maps;
                s.spawn(move || {
                    (t..chunk.len())
                        .step_by(threads)
                        .map(|k| {
                            let out = outputs[k].as_ref().map_err(String::clone)?;
                            let i = first + k;
                            let corrupted = cfg.self_test && i == 0;
                            let map = &maps[chunk[k].device];
                            verify(&chunk[k], out, corrupted, map, cfg.seed ^ i as u64)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let parts: Vec<Vec<_>> =
            handles.into_iter().map(|h| h.join().expect("check thread")).collect();
        (0..chunk.len()).map(|k| parts[k % threads][k / threads].clone()).collect()
    });
    for (k, verdict) in verdicts.into_iter().enumerate() {
        if let Err(e) = verdict {
            let i = first + k;
            pass.failures.push(format!("op {i} ({}, seed {}): {e}", chunk[k].class, cfg.seed));
        }
    }
}

/// Checks one compiled output; `corrupted` damages it first (self-test).
fn verify(
    input: &Input,
    out: &QuantumCircuit,
    corrupted: bool,
    map: &CouplingMap,
    seed: u64,
) -> Result<(), String> {
    // The device does not report layouts; find an uncached transpilation
    // that reproduces the op's output, and take the layouts from it.
    let parsed = qukit_terra::qasm::parse(&input.text).map_err(|e| e.to_string())?;
    let last = &LAST_MATCH[input.device];
    let first = last.load(Ordering::Relaxed);
    let (found, reference) = std::iter::once(first)
        .chain((0..SETTINGS).filter(|&i| i != first))
        .filter_map(|i| Some((i, transpile(&parsed, &setting(i, map)).ok()?)))
        .find(|(_, r)| r.circuit.instructions() == out.instructions())
        .ok_or("no transpile setting reproduces the output, so its layouts are unknown")?;
    last.store(found, Ordering::Relaxed);
    let damaged;
    let out = if corrupted {
        damaged = corrupt(out);
        &damaged
    } else {
        out
    };
    check::check_compiled(
        &input.circ,
        out,
        &reference.initial_layout,
        &reference.final_layout,
        map,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_finds_the_layouts_of_a_device_with_other_settings() {
        let circ = Family::Qft.build(6, &mut Rng::new(3));
        let text = circ.qasm();
        let input = Input { circ, text, device: 0, class: "qft" };
        let parsed = qukit_terra::qasm::parse(&input.text).unwrap();
        let map = CouplingMap::ibm_qx5();
        let default = FakeDevice::ibmqx5().transpile(&parsed).unwrap();
        let sabre = FakeDevice::ibmqx5().with_mapper(MapperKind::Sabre).transpile(&parsed).unwrap();
        assert_ne!(default.instructions(), sabre.instructions(), "the settings route differently");
        for device in [
            FakeDevice::ibmqx5(),
            FakeDevice::ibmqx5().with_mapper(MapperKind::Sabre),
            FakeDevice::ibmqx5().with_mapper(MapperKind::Sabre).with_opt_level(3),
        ] {
            let out = device.transpile(&parsed).unwrap();
            assert_eq!(verify(&input, &out, false, &map, 1), Ok(()));
            assert!(verify(&input, &out, true, &map, 1).is_err());
        }
    }
}
