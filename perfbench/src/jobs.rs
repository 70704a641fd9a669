//! `device_jobs`: two clients, each its own tenant session, drive a
//! `JobExecutor` (2 workers, journal on, result cache on, per-attempt
//! timeout far above any job's run time) that was restarted over a
//! journal holding a fixed history. Each client runs a closed loop of
//! fresh noisy payloads on `ibmqx4`/`ibmqx5`, fresh ideal payloads on
//! `qasm_simulator`, and repeats that the result cache serves.

use crate::check;
use crate::compile::cx_and_depth;
use crate::gen::{self, Circ, Dist, Rng};
use crate::trace::{self, Extras, Recorder};
use crate::{setups_after, with_recording_paused, Config, Pass, SETUP_REPS, SHOTS, WARM_SEED};
use qukit::journal::{Journal, JournalRecord, JOURNAL_FILE};
use qukit::{
    Backend, CacheConfig, Counts, CouplingMap, ExecutorConfig, FakeDevice, JobEvent, JobExecutor,
    JobObserver, ObserverSet, Priority, QasmSimulatorBackend, QuantumCircuit, RetryPolicy,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Blocks per second per client on the reference host.
const BLOCKS_PER_S: f64 = 15.0;

/// Jobs in the journal history the executor replays at every setup.
const HISTORY_JOBS: u64 = 5000;

/// Client count, equal to the executor's workers and to `nproc` on the
/// reference host.
const CLIENTS: usize = 2;

/// Per-attempt timeout: far above any job's run time.
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a client waits for one result before counting it failed.
const RESULT_DEADLINE: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    NoisyQx4,
    NoisyQx5,
    Ideal,
    Repeat,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::NoisyQx4 => "fresh_noisy_ibmqx4",
            Class::NoisyQx5 => "fresh_noisy_ibmqx5",
            Class::Ideal => "fresh_ideal_qasm",
            Class::Repeat => "repeat_cached",
        }
    }
}

/// The answer a payload's counts must show.
enum Expect {
    /// The most frequent outcome (a Bernstein–Vazirani secret).
    Top(u64),
    /// The exact distribution, within the shot-count TV bound.
    Dist(Dist),
}

struct Payload {
    circ: Circ,
    circuit: QuantumCircuit,
    backend: &'static str,
    expect: Expect,
}

struct Input {
    payload: Arc<Payload>,
    class: Class,
}

/// One block per client: three noisy BV jobs on each device (3–5 logical
/// qubits on ibmqx4, 3–4 on ibmqx5), two ideal mirror circuits (10–14
/// qubits) and two repeats.
const BLOCK: [Class; 10] = [
    Class::NoisyQx4,
    Class::NoisyQx4,
    Class::NoisyQx4,
    Class::NoisyQx5,
    Class::NoisyQx5,
    Class::NoisyQx5,
    Class::Ideal,
    Class::Ideal,
    Class::Repeat,
    Class::Repeat,
];

fn fresh(class: Class, slot: usize, name: String, rng: &mut Rng) -> Payload {
    let (circ, backend, expect) = match class {
        Class::NoisyQx4 | Class::NoisyQx5 => {
            // Secrets of 2–4 bits on ibmqx4 and 2–3 on ibmqx5: a 4-bit secret
            // on ibmqx5 routes so widely that its run time spreads from 2 to
            // 75 ms, and those few ops would set the tail.
            let (backend, bits) = if class == Class::NoisyQx4 {
                ("ibmqx4", [2, 3, 4][slot % 3])
            } else {
                ("ibmqx5", [2, 3, 3][slot % 3])
            };
            let (c, answer) = gen::bernstein_vazirani(bits, rng);
            (c, backend, Expect::Top(answer))
        }
        Class::Ideal => {
            let n = [10, 12, 14][slot % 3];
            let (c, d) = gen::mirror_htrx(n, 3 * n, 2, rng);
            (c, "qasm_simulator", Expect::Dist(d))
        }
        Class::Repeat => unreachable!("repeats reuse an earlier payload"),
    };
    let mut circuit = qukit_terra::qasm::parse(&circ.qasm()).expect("generated payload parses");
    circuit.set_name(name);
    Payload { circ, circuit, backend, expect }
}

/// A client's op list. Repeats resubmit one of the client's last ten fresh
/// payloads, which are finished by then (closed loop) and still cached.
fn client_inputs(seed: u64, client: usize, blocks: usize, base: usize, tag: &str) -> Vec<Input> {
    let mut rng = Rng::fork(seed, 100 + client as u64);
    let mut out: Vec<Input> = Vec::new();
    let mut recent: Vec<Arc<Payload>> = Vec::new();
    for b in 0..blocks {
        let mut classes = BLOCK;
        rng.shuffle(&mut classes);
        if b == 0 {
            let first_fresh = classes.iter().position(|&c| c != Class::Repeat).expect("fresh");
            classes.swap(0, first_fresh);
        }
        for (slot, class) in classes.into_iter().enumerate() {
            let payload = if class == Class::Repeat {
                Arc::clone(&recent[recent.len() - 1 - rng.below(recent.len().min(10))])
            } else {
                let name = format!("{tag}{}", base + out.len());
                let p = Arc::new(fresh(class, b * BLOCK.len() + slot, name, &mut rng));
                recent.push(Arc::clone(&p));
                p
            };
            out.push(Input { payload, class });
        }
    }
    out
}

/// Writes the fixed journal history: `HISTORY_JOBS` finished jobs.
fn write_history(dir: &Path) -> std::io::Result<()> {
    let journal = Journal::open(dir).map_err(std::io::Error::other)?;
    let mut bell = QuantumCircuit::new(2);
    bell.h(0).and_then(|c| c.cx(0, 1)).map_err(std::io::Error::other)?;
    bell.measure_all();
    let qasm = qukit_terra::qasm::emit(&bell);
    for job_id in 1..=HISTORY_JOBS {
        journal
            .append(&JournalRecord::Submitted {
                job_id,
                tenant: "history".into(),
                priority: Priority::Normal,
                backend: "qasm_simulator".into(),
                shots: SHOTS,
                key: None,
                qasm: qasm.clone(),
                trace: job_id,
            })
            .and_then(|()| {
                journal.append(&JournalRecord::Terminal {
                    job_id,
                    status: "DONE".into(),
                    error: None,
                    counts: Some((2, vec![(0, SHOTS / 2), (3, SHOTS / 2)])),
                    executed_on: Some("qasm_simulator".into()),
                })
            })
            .map_err(std::io::Error::other)?;
    }
    Ok(())
}

/// Lifecycle events the benchmark observes, with the time they arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Enqueued,
    Started,
    Completed,
    /// Any other terminal event (failed, timed out, cancelled, rejected).
    OtherTerminal,
}

/// A benchmark `JobObserver`. Untraced, it records terminal events only
/// (for the exactly-once check); traced, also `Enqueued` and `Started`.
struct Events {
    traced: bool,
    log: Mutex<Vec<(u64, Kind, Instant)>>,
}

impl JobObserver for Events {
    fn on_event(&self, event: &JobEvent) {
        let kind = match event {
            JobEvent::Enqueued { .. } if self.traced => Kind::Enqueued,
            JobEvent::Started { .. } if self.traced => Kind::Started,
            JobEvent::Completed { .. } => Kind::Completed,
            JobEvent::Failed { .. }
            | JobEvent::TimedOut { .. }
            | JobEvent::Cancelled { .. }
            | JobEvent::Rejected { .. } => Kind::OtherTerminal,
            _ => return,
        };
        let now = Instant::now();
        self.log.lock().expect("event log lock").push((event.job_id(), kind, now));
    }
}

/// A timing decorator over a device or simulator, registered under the
/// inner backend's name. Devices are timed as `terra.transpile` (the
/// device's own `prepare_circuit`) then the engine run on the prepared
/// circuit, which the device executes without transpiling again.
struct Timed {
    inner: Box<dyn Backend>,
    transpiles: bool,
    run_span: &'static str,
    spans: Arc<Recorder>,
}

impl Timed {
    fn op_of(circuit: &QuantumCircuit) -> Option<usize> {
        circuit.name().strip_prefix("op")?.parse().ok()
    }
}

impl Backend for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn coupling_map(&self) -> Option<&CouplingMap> {
        self.inner.coupling_map()
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> qukit::error::Result<Counts> {
        let op = Self::op_of(circuit);
        let t0 = Instant::now();
        let prepared;
        let to_run = if self.transpiles {
            prepared = self.inner.prepare_circuit(circuit)?;
            &prepared
        } else {
            circuit
        };
        let t1 = Instant::now();
        let counts = self.inner.run(to_run, shots);
        let t2 = Instant::now();
        if let Some(op) = op {
            if self.transpiles {
                self.spans.record(op, "terra.transpile", Some("core.attempt"), t0, t1);
            }
            self.spans.record(op, self.run_span, Some("core.attempt"), t1, t2);
        }
        counts
    }

    fn prepare_circuit(&self, circuit: &QuantumCircuit) -> qukit::error::Result<QuantumCircuit> {
        self.inner.prepare_circuit(circuit)
    }

    fn set_seed(&mut self, seed: u64) {
        self.inner.set_seed(seed);
    }

    fn set_parallel(&mut self, config: qukit_aer::parallel::ParallelConfig) {
        self.inner.set_parallel(config);
    }

    fn executed_on(&self) -> Option<String> {
        self.inner.executed_on()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

fn provider(seed: u64, spans: Option<&Arc<Recorder>>) -> qukit::Provider {
    let mut provider = qukit::Provider::with_defaults();
    let backends: [(Box<dyn Backend>, bool, &'static str); 3] = [
        (Box::new(FakeDevice::ibmqx4().with_seed(seed)), true, "aer.trajectory"),
        (Box::new(FakeDevice::ibmqx5().with_seed(seed)), true, "aer.trajectory"),
        (Box::new(QasmSimulatorBackend::new().with_seed(seed)), false, "aer.statevector"),
    ];
    for (inner, transpiles, run_span) in backends {
        match spans {
            Some(spans) => provider.register(Box::new(Timed {
                inner,
                transpiles,
                run_span,
                spans: Arc::clone(spans),
            })),
            None => provider.register(inner),
        }
    }
    provider
}

/// A set-up executor with its observer and setup timings.
struct Ready {
    executor: JobExecutor,
    observer: Arc<Events>,
    /// Seconds to construct the executor, journal replay included.
    replay: f64,
    /// Seconds for the whole setup, warm-up included.
    secs: f64,
}

/// What one client saw for one op.
struct Outcome {
    op: usize,
    job_id: Option<u64>,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    counts: Result<Counts, String>,
    from_cache: bool,
}

fn run_client(
    executor: &JobExecutor,
    tenant: &str,
    inputs: &[Input],
    base: usize,
    barrier: &Barrier,
) -> Vec<Outcome> {
    let session = executor.session(tenant);
    barrier.wait();
    let mut out = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let p = &input.payload;
        let t0 = Instant::now();
        let submitted = session.submit(&p.circuit, p.backend, SHOTS);
        let t1 = Instant::now();
        let (job_id, counts, from_cache) = match submitted {
            Ok(job) => {
                let counts = job.result(RESULT_DEADLINE).map_err(|e| e.to_string());
                (Some(job.id()), counts, job.served_from_cache())
            }
            Err(e) => (None, Err(e.to_string()), false),
        };
        let t2 = Instant::now();
        out.push(Outcome { op: base + i, job_id, t0, t1, t2, counts, from_cache });
    }
    out
}

fn executor_config(journal: PathBuf, observer: Arc<Events>) -> ExecutorConfig {
    ExecutorConfig {
        workers: CLIENTS,
        queue_capacity: 64,
        retry: RetryPolicy::default().with_attempt_timeout(ATTEMPT_TIMEOUT),
        observers: ObserverSet::metrics().with(observer),
        parallel: None,
        journal_dir: Some(journal),
        cache: Some(CacheConfig::default()),
    }
}

pub fn run(cfg: &Config, traced: bool) -> Pass {
    let blocks = cfg.blocks(BLOCKS_PER_S);
    let per_client = blocks * BLOCK.len();
    let clients: Vec<Vec<Input>> =
        (0..CLIENTS).map(|c| client_inputs(cfg.seed, c, blocks, c * per_client, "op")).collect();
    let warm = client_inputs(WARM_SEED, 7, 1, 0, "warm");
    let work = Path::new(crate::WORK_DIR).join(format!(
        "jobs-{}-{}",
        std::process::id(),
        u8::from(traced)
    ));
    let history = work.join("history");
    write_history(&history).expect("journal history is writable");

    let mut pass = Pass::default();
    let spans = Arc::new(Recorder::default());
    let setup = |rep: usize| {
        let dir = work.join(format!("rep{rep}"));
        std::fs::create_dir_all(&dir).expect("journal dir is writable");
        std::fs::copy(history.join(JOURNAL_FILE), dir.join(JOURNAL_FILE))
            .expect("journal history copies");
        qukit_terra::transpiler::cache::global().clear();
        let observer = Arc::new(Events { traced, log: Mutex::new(Vec::new()) });
        let t0 = Instant::now();
        let provider = provider(cfg.seed, traced.then_some(&spans));
        let executor =
            JobExecutor::try_with_config(provider, executor_config(dir, observer.clone()))
                .expect("executor replays its journal");
        let replay = t0.elapsed().as_secs_f64();
        let session = executor.session("warmup");
        for w in &warm {
            let p = &w.payload;
            let job = session.submit(&p.circuit, p.backend, SHOTS).expect("warm-up submits");
            job.result(RESULT_DEADLINE).expect("warm-up job finishes");
        }
        let secs = t0.elapsed().as_secs_f64();
        let recovered = executor.recovery().map_or(0, |r| r.recovered_terminal);
        assert_eq!(recovered as u64, HISTORY_JOBS, "journal history replays in full");
        Ready { executor, observer, replay, secs }
    };
    // The first setup serves the whole run; the others are measured and
    // shut down between chunks.
    let Ready { executor, observer, replay, secs } = setup(0);
    let mut replays = vec![replay];
    pass.setup_s.push(secs);
    observer.log.lock().expect("event log lock").clear();
    spans.take();
    if traced {
        qukit_obs::reset();
    }

    let tenants = ["tenant-a", "tenant-b"];
    let chunk_len = per_client.div_ceil(SETUP_REPS);
    let chunks = per_client.div_ceil(chunk_len);
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(CLIENTS * per_client);
    for c in 0..chunks {
        let range = c * chunk_len..((c + 1) * chunk_len).min(per_client);
        let barrier = Barrier::new(CLIENTS);
        let chunk: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(k, inputs)| {
                    let (executor, barrier, range) = (&executor, &barrier, range.clone());
                    let base = k * per_client + range.start;
                    s.spawn(move || run_client(executor, tenants[k], &inputs[range], base, barrier))
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });
        let start = chunk.iter().map(|o| o.t0).min().expect("ops ran");
        let end = chunk.iter().map(|o| o.t2).max().expect("ops ran");
        pass.wall_s += (end - start).as_secs_f64();
        outcomes.extend(chunk);
        for _ in 0..setups_after(c, chunks) {
            let rep = pass.setup_s.len();
            let extra = with_recording_paused(traced, || setup(rep));
            replays.push(extra.replay);
            pass.setup_s.push(extra.secs);
        }
    }
    outcomes.sort_by_key(|o| o.op);

    let events = std::mem::take(&mut *observer.log.lock().expect("event log lock"));
    let mut by_job: HashMap<u64, Vec<(Kind, Instant)>> = HashMap::new();
    for (job, kind, at) in events {
        by_job.entry(job).or_default().push((kind, at));
    }
    let inputs: Vec<&Input> = clients.iter().flatten().collect();

    if traced {
        let counters = trace::read_program_counters();
        for o in &outcomes {
            spans.record(o.op, "op", None, o.t0, o.t2);
            spans.record(o.op, "core.submit", Some("op"), o.t0, o.t1);
            let Some(events) = o.job_id.and_then(|j| by_job.get(&j)) else { continue };
            let at = |k: Kind| events.iter().find(|e| e.0 == k).map(|e| e.1);
            // A worker can start a job before the submitting thread emits
            // `Enqueued`; such a job did not wait.
            if let (Some(q), Some(s)) = (at(Kind::Enqueued), at(Kind::Started)) {
                if s > q {
                    spans.record(o.op, "core.queue_wait", Some("op"), q, s);
                }
            }
            if let (Some(s), Some(c)) = (at(Kind::Started), at(Kind::Completed)) {
                spans.record(o.op, "core.attempt", Some("op"), s, c);
                spans.record(o.op, "core.finish", Some("op"), c, o.t2);
            }
        }
        let all = spans.take();
        let completed = outcomes.iter().filter(|o| o.counts.is_ok()).count().max(1);
        let extras = Extras {
            replay_s: crate::median(&replays),
            result_cache_hit_ratio: outcomes.iter().filter(|o| o.from_cache).count() as f64
                / completed as f64,
            ..Extras::default()
        };
        pass.layers = trace::per_layer(&all, &counters, outcomes.len(), &extras);
        // The root `op` span takes every instant no layer span covers, so
        // the layer spans' own sum shows how much of the latency they cover.
        let per_op_ms = |secs: f64| secs * 1e3 / outcomes.len() as f64;
        let mean_ms = per_op_ms(outcomes.iter().map(|o| (o.t2 - o.t0).as_secs_f64()).sum());
        let self_times = trace::self_times(&all);
        let uncovered_ms = per_op_ms(self_times.get("op").copied().unwrap_or(0.0));
        let layer_ms =
            per_op_ms(self_times.iter().filter(|(n, _)| **n != "op").map(|(_, s)| s).sum());
        pass.notes.push(format!(
            "layer self times sum to {layer_ms:.4} ms/op of a mean client latency of \
             {mean_ms:.4} ms/op; uncovered (client.self_s) {uncovered_ms:.4} ms/op = {:.2}%",
            100.0 * uncovered_ms / mean_ms.max(1e-12)
        ));
        let path =
            Path::new(crate::WORK_DIR).join(format!("trace-device_jobs-seed{}.jsonl", cfg.seed));
        let epoch = all.iter().map(|s| s.start).min().unwrap_or_else(Instant::now);
        if let Err(e) = trace::write_spans(&path, &all, epoch) {
            pass.notes.push(format!("could not write spans: {e}"));
        }
    }

    pass.notes.push(format!(
        "journal history {HISTORY_JOBS} jobs; replay s per setup: {}",
        replays.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    ));
    for o in &outcomes {
        let input = inputs[o.op];
        let p = &input.payload;
        pass.latencies.push((o.t2 - o.t0).as_secs_f64());
        pass.classes.push(input.class.name());
        pass.cx_in += p.circ.cx_cost();
        pass.depth_in += p.circ.depth() as u64;
        // The circuit as the backend executes it: the devices transpile.
        let backend = executor.provider().get_backend(p.backend).expect("registered backend");
        if let Ok(executed) = backend.prepare_circuit(&p.circuit) {
            let (cx, depth) = cx_and_depth(&executed);
            pass.cx_out += cx;
            pass.depth_out += depth;
        }
        if o.counts.is_ok() {
            pass.completed += 1;
        }
        let corrupted = cfg.self_test && o.op == 0;
        if let Err(e) = verify(o, &by_job, &p.expect, corrupted) {
            pass.failures.push(format!(
                "op {} ({}, seed {}): {e}",
                o.op,
                input.class.name(),
                cfg.seed
            ));
        }
    }
    drop(executor);
    let _ = std::fs::remove_dir_all(&work);
    pass
}

fn verify(
    o: &Outcome,
    by_job: &HashMap<u64, Vec<(Kind, Instant)>>,
    expect: &Expect,
    corrupted: bool,
) -> Result<(), String> {
    let counts = o.counts.as_ref().map_err(String::clone)?;
    let job = o.job_id.ok_or("no job id")?;
    let terminals = by_job.get(&job).map_or(0, |e| {
        e.iter().filter(|(k, _)| matches!(k, Kind::Completed | Kind::OtherTerminal)).count()
    });
    if terminals != 1 {
        return Err(format!("job {job} reached a terminal state {terminals} times"));
    }
    let damaged;
    let counts = if corrupted {
        // Every sample goes where the check cannot accept it.
        let target = match expect {
            Expect::Top(secret) => secret ^ 1,
            Expect::Dist(dist) => check::least_likely(dist, counts.num_clbits()),
        };
        damaged = check::move_all_to(counts, target);
        &damaged
    } else {
        counts
    };
    match expect {
        Expect::Top(secret) => check::check_top(counts, *secret, SHOTS),
        Expect::Dist(dist) => check::check_counts(counts, dist, SHOTS),
    }
}
