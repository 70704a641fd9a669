//! End-to-end trace-propagation tests: one job submission must yield
//! one correctly-nested span waterfall, tenant labels must surface in
//! the Prometheus export, and trace ids must survive a crash/recovery
//! cycle through the journal.
//!
//! Each test records into a `qukit_obs::Scope` of its own; the executors
//! it builds carry that scope to their workers.

use qukit::fault::{FaultInjectingBackend, FaultMode};
use qukit::job::{ExecutorConfig, JobExecutor, SubmitOptions};
use qukit::journal::{self, JournalRecord};
use qukit::provider::Provider;
use qukit::retry::RetryPolicy;
use qukit::{CacheConfig, QasmSimulatorBackend, QuantumCircuit};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn bell() -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(2);
    circ.h(0).unwrap();
    circ.cx(0, 1).unwrap();
    circ
}

/// Chain-shaped GHZ: every CX touches adjacent qubits, so a line
/// coupling needs no routing swaps (which would otherwise land between
/// the terminal measurements and push the engine off the sampled path).
fn ghz(n: usize) -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(n);
    circ.h(0).unwrap();
    for q in 1..n {
        circ.cx(q - 1, q).unwrap();
    }
    circ
}

fn seeded_provider(seed: u64) -> Provider {
    let mut provider = Provider::new();
    provider.register(Box::new(QasmSimulatorBackend::new().with_seed(seed)));
    provider
}

/// A self-cleaning temp directory for journal tests.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "qukit_tracing_test_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        Self { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn submit_opts(tenant: &str) -> SubmitOptions {
    SubmitOptions { tenant: tenant.to_owned(), ..SubmitOptions::default() }
}

/// The tentpole invariant: one job = one trace = one nested waterfall
/// (submit → queued → attempt → transpile → engine → sample), cache
/// hits swap the attempt subtree for a `job.cache_hit` span carrying
/// the producing job's trace id, and every tenant shows up as a label
/// in the Prometheus export.
#[test]
fn jobs_emit_nested_waterfalls_with_tenant_labels() {
    let scope = qukit_obs::Scope::new();
    let installed = scope.install();

    // A fake device so the waterfall includes the transpiler layer
    // (the plain qasm_simulator accepts circuits untranspiled). The
    // bidirectional line coupling needs no direction-fix gates after
    // the measurements, and ideal noise keeps the engine on the
    // sampled fast path — so the `aer.sample` span appears too.
    let mut provider = Provider::new();
    provider.register(Box::new(
        qukit::backend::FakeDevice::new(
            "line5",
            qukit::CouplingMap::line(5),
            qukit::aer::noise::NoiseModel::new(),
        )
        .with_seed(7),
    ));
    let executor = JobExecutor::with_config(
        provider,
        ExecutorConfig {
            workers: 1,
            queue_capacity: 16,
            retry: RetryPolicy::none(),
            cache: Some(CacheConfig::default()),
            ..Default::default()
        },
    );
    // alice's bell populates the result cache; bob's ghz is a distinct
    // entry; bob's bell re-submits alice's content and must hit.
    let job_a = executor.submit_with(&bell(), "line5", 64, &submit_opts("alice")).expect("a");
    job_a.result(Duration::from_secs(30)).expect("a completes");
    let job_b = executor.submit_with(&ghz(3), "line5", 64, &submit_opts("bob")).expect("b");
    let job_c = executor.submit_with(&bell(), "line5", 32, &submit_opts("bob")).expect("c");
    job_b.result(Duration::from_secs(30)).expect("b completes");
    job_c.result(Duration::from_secs(30)).expect("c completes");
    assert!(job_c.served_from_cache(), "same content must hit the result cache");
    executor.shutdown();

    let snapshot = scope.snapshot();
    drop(installed);

    let trees: BTreeMap<u64, qukit_obs::SpanTree> = qukit_obs::assemble_trees(&snapshot.trace)
        .into_iter()
        .map(|tree| (tree.trace_id, tree))
        .collect();

    // Distinct jobs got distinct traces.
    assert_ne!(job_a.trace_id(), job_b.trace_id());
    assert_ne!(job_a.trace_id(), job_c.trace_id());

    // Executed jobs: the full waterfall, correctly nested.
    for job in [&job_a, &job_b] {
        let tree = &trees[&job.trace_id()];
        assert!(!tree.partial, "nothing evicted in this tiny run");
        assert_eq!(tree.roots.len(), 1, "one root span per trace");
        let root = &tree.roots[0];
        assert_eq!(root.event.name, "job");
        assert_eq!(root.event.span_id, job.trace_id(), "root span id is the trace id");
        for child in ["job.submit", "job.queued", "job.attempt"] {
            assert!(
                root.children.iter().any(|node| node.event.name == child),
                "'{child}' must sit directly under the job root, got {:?}",
                root.children.iter().map(|n| n.event.name.as_str()).collect::<Vec<_>>()
            );
        }
        let attempt = root
            .children
            .iter()
            .find(|node| node.event.name == "job.attempt")
            .expect("attempt subtree");
        // The worker-side pipeline nests *inside* the attempt span:
        // transpile (with its passes), the engine run, and sampling.
        let mut inside = Vec::new();
        fn walk(node: &qukit_obs::SpanNode, into: &mut Vec<(String, String)>) {
            into.push((node.event.name.clone(), node.event.detail.clone()));
            for child in &node.children {
                walk(child, into);
            }
        }
        walk(attempt, &mut inside);
        for name in ["transpile", "transpile.pass", "aer.qasm_run", "aer.sample"] {
            assert!(
                inside.iter().any(|(n, _)| n == name),
                "'{name}' missing from attempt: {inside:?}"
            );
        }
        assert!(tree.find("job.cache_hit").is_none(), "executed jobs have no hit span");
    }

    // The cache-hit job: a hit span instead of an execution subtree,
    // linked to the producing job's trace.
    let hit_tree = &trees[&job_c.trace_id()];
    let hit = hit_tree.find("job.cache_hit").expect("cache-hit span");
    assert!(
        hit.event.detail.contains(&format!("producer_trace={}", job_a.trace_id())),
        "hit span must link the producing trace: {}",
        hit.event.detail
    );
    assert!(hit_tree.find("job.attempt").is_none(), "no attempt ran");
    assert!(hit_tree.find("aer.qasm_run").is_none(), "no engine ran");

    // Per-tenant series, Prometheus-rendered with label bodies.
    let prometheus = qukit_obs::export::prometheus(&snapshot);
    for tenant in ["alice", "bob"] {
        assert!(
            prometheus.contains(&format!(
                "qukit_core_tenant_jobs_submitted_total{{tenant=\"{tenant}\"}}"
            )),
            "missing per-tenant submit counter for {tenant}:\n{prometheus}"
        );
        assert!(prometheus
            .contains(&format!("qukit_core_tenant_jobs_completed_total{{tenant=\"{tenant}\"}}")));
        assert!(prometheus
            .contains(&format!("qukit_core_tenant_job_seconds_count{{tenant=\"{tenant}\"}}")));
    }
    assert!(prometheus.contains("qukit_core_tenant_cache_hits_total{tenant=\"bob\"}"));

    // The whole buffer exports as a valid Chrome trace.
    let chrome = qukit_obs::export::chrome_trace(&snapshot.trace);
    qukit_obs::export::validate_chrome_trace(&chrome).expect("chrome trace schema-valid");
}

/// Crash/restart keeps trace ids stable: the journal carries each
/// job's trace id, and recovery re-adopts it instead of minting a new
/// one — so a trace started before the crash stays addressable after.
#[test]
fn recovery_preserves_trace_ids_across_crash() {
    let scope = qukit_obs::Scope::new();
    let installed = scope.install();

    let dir = TempDir::new("trace_ids");
    let mut original: BTreeMap<u64, u64> = BTreeMap::new();

    // Phase 1: submit with a stalling backend so most jobs are still
    // in flight, then crash.
    {
        let mut provider = Provider::new();
        provider.register(Box::new(FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(5)),
            FaultMode::Hang(Duration::from_millis(40)),
        )));
        let executor = JobExecutor::try_with_config(
            provider,
            ExecutorConfig {
                workers: 1,
                queue_capacity: 16,
                retry: RetryPolicy::none(),
                journal_dir: Some(dir.path.clone()),
                ..Default::default()
            },
        )
        .expect("journal opens");
        let mut jobs = Vec::new();
        for i in 0..4usize {
            let opts = SubmitOptions {
                idempotency_key: Some(format!("trace-job-{i}")),
                ..SubmitOptions::default()
            };
            let job = executor.submit_with(&bell(), "qasm_simulator", 64, &opts).expect("accepted");
            assert_ne!(job.trace_id(), 0, "every accepted job gets a trace id");
            original.insert(job.id(), job.trace_id());
            jobs.push(job);
        }
        jobs[0].result(Duration::from_secs(30)).expect("first completes");
        executor.crash();
    }

    // The journal's submission records carry the trace ids verbatim.
    let log = journal::replay(&dir.path).expect("journal readable");
    let mut journaled = 0usize;
    for record in &log.records {
        if let JournalRecord::Submitted { job_id, trace, .. } = record {
            assert_eq!(original[job_id], *trace, "journal must persist the minted trace id");
            journaled += 1;
        }
    }
    assert_eq!(journaled, original.len());

    // Phase 2: rebuild; every recovered job keeps its original id.
    let executor = JobExecutor::try_with_config(
        seeded_provider(5),
        ExecutorConfig {
            workers: 2,
            queue_capacity: 16,
            retry: RetryPolicy::none(),
            journal_dir: Some(dir.path.clone()),
            ..Default::default()
        },
    )
    .expect("journal replays");
    let recovered = executor.recovered_jobs();
    assert_eq!(recovered.len(), original.len());
    for job in recovered {
        assert_eq!(
            job.trace_id(),
            original[&job.id()],
            "recovery must keep job {}'s trace id stable",
            job.id()
        );
        job.result(Duration::from_secs(30)).expect("recovered job completes");
    }
    executor.shutdown();

    // The replayed executions record spans under the *original* trace
    // ids, so pre- and post-crash spans stitch into one trace.
    let trace = scope.registry().trace();
    drop(installed);
    let replayed: Vec<&u64> = original
        .values()
        .filter(|id| trace.iter().any(|e| e.trace_id == **id && e.name == "job"))
        .collect();
    assert!(
        replayed.len() >= original.len() - 1,
        "re-run jobs must close their root span under the journaled trace id \
         ({} of {} seen)",
        replayed.len(),
        original.len()
    );
}
