//! Multi-tenant load generator for the execution service.
//!
//! Hammers a [`JobExecutor`] with concurrent mixed-size jobs across
//! simulated tenants and reports the service-level numbers the paper's
//! cloud-access story (Section II-B: queued jobs against shared IBM Q
//! devices) makes interesting: latency quantiles, throughput, shed
//! rate, and result-cache hit rate — all read back through the
//! `qukit-obs` metrics layer rather than a private side channel, so
//! the report exercises the same counters operators would scrape.
//!
//! The generator is deterministic for a given [`LoadConfig`]: payloads
//! are drawn from a fixed circuit pool with a seeded SplitMix64 stream
//! and the backend is seeded, so CI can re-run the same workload and
//! gate on the emitted [`Baseline`] with `qukit stats --compare`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qukit::job::{ExecutorConfig, Job, JobEvent, JobExecutor, JobObserver, JobStatus, ObserverSet};
use qukit::provider::Provider;
use qukit::terra::circuit::QuantumCircuit;
use qukit::{CacheConfig, Priority, QasmSimulatorBackend, RetryPolicy, TenantConfig};
use qukit_obs::rng::splitmix64;

use crate::baseline::{Baseline, BaselineEntry};

/// Configuration of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of simulated tenants (sessions) submitting concurrently.
    pub tenants: usize,
    /// Total jobs submitted across all tenants.
    pub jobs: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Global submission-queue capacity.
    pub queue_capacity: usize,
    /// Per-tenant pending cap (admission control); exceeding it sheds
    /// the submission with a typed `Rejected` status.
    pub max_pending: usize,
    /// Distinct circuit payloads cycled through; `jobs >> payload_pool`
    /// guarantees repeats, which is what gives the result cache hits.
    pub payload_pool: usize,
    /// Shots per job.
    pub shots: usize,
    /// Seed for payload selection, priorities, and the backend.
    pub seed: u64,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Microseconds between submissions. 0 bursts the whole workload at
    /// once (maximal shed pressure); a nonzero arrival pace lets the
    /// workers keep up, which is what CI's latency-gated run uses so
    /// the elapsed wall time is dominated by service work, not jitter.
    pub pace_micros: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            tenants: 4,
            jobs: 200,
            workers: 4,
            queue_capacity: 512,
            max_pending: 24,
            payload_pool: 6,
            shots: 128,
            seed: 7,
            cache_capacity: 64,
            pace_micros: 0,
        }
    }
}

impl LoadConfig {
    /// The small fixed-seed configuration CI's smoke job runs.
    pub fn smoke() -> Self {
        Self {
            tenants: 3,
            jobs: 60,
            workers: 3,
            max_pending: 12,
            payload_pool: 4,
            ..Self::default()
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs the generator attempted to submit.
    pub submitted: usize,
    /// Jobs that reached `Done`.
    pub completed: usize,
    /// Jobs shed by admission control (`Rejected`).
    pub shed: usize,
    /// Jobs that ended `Error`/`TimedOut`/`Cancelled`.
    pub failed: usize,
    /// Jobs left non-terminal after shutdown (must be 0).
    pub lost: usize,
    /// Completion events observed more than once for the same job id
    /// (must be 0).
    pub duplicated: usize,
    /// Completions served by re-sampling the result cache.
    pub cache_hits: usize,
    /// Wall-clock of the whole run (first submit → drained shutdown).
    pub elapsed_seconds: f64,
    /// Median job service time (queue wait + execution), from the
    /// `qukit_core_job_seconds` histogram.
    pub p50_seconds: f64,
    /// 99th-percentile job service time, same histogram.
    pub p99_seconds: f64,
    /// Mean job service time.
    pub mean_seconds: f64,
    /// Completed jobs per wall-clock second.
    pub throughput_jobs_per_sec: f64,
    /// shed / submitted.
    pub shed_rate: f64,
    /// cache hits / (hits + misses) as counted by the executor.
    pub cache_hit_rate: f64,
    /// Per-tenant service numbers, read back from the tenant-labeled
    /// `qukit_core_tenant_*` metric series (ascending by tenant name).
    pub tenants: Vec<TenantBreakdown>,
    /// The run's spans, oldest first (bounded by
    /// [`qukit_obs::TRACE_CAPACITY`]), for Chrome-trace export.
    pub trace: Vec<qukit_obs::TraceEvent>,
}

/// One tenant's slice of a load run, as told by the labeled metrics.
#[derive(Debug, Clone, Default)]
pub struct TenantBreakdown {
    /// Tenant name (the `tenant` label value).
    pub tenant: String,
    /// Jobs accepted into the queue for this tenant.
    pub submitted: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Completions served from the result cache.
    pub cache_hits: u64,
    /// Median submit-to-done latency, from the tenant-labeled histogram.
    pub p50_seconds: f64,
    /// 99th-percentile submit-to-done latency.
    pub p99_seconds: f64,
}

/// Reads the per-tenant breakdown out of a metrics snapshot by parsing
/// the `{tenant="..."}` label baked into the `qukit_core_tenant_*`
/// series names.
pub fn tenant_breakdown(snapshot: &qukit_obs::Snapshot) -> Vec<TenantBreakdown> {
    fn tenant_of<'a>(name: &'a str, base: &str) -> Option<&'a str> {
        name.strip_prefix(base)
            .and_then(|rest| rest.strip_prefix("{tenant=\""))
            .and_then(|rest| rest.strip_suffix("\"}"))
    }
    fn row<'a>(
        rows: &'a mut BTreeMap<String, TenantBreakdown>,
        tenant: &str,
    ) -> &'a mut TenantBreakdown {
        rows.entry(tenant.to_owned()).or_insert_with(|| TenantBreakdown {
            tenant: tenant.to_owned(),
            ..TenantBreakdown::default()
        })
    }
    let mut rows: BTreeMap<String, TenantBreakdown> = BTreeMap::new();
    for (name, &value) in &snapshot.counters {
        if let Some(t) = tenant_of(name, "qukit_core_tenant_jobs_submitted_total") {
            row(&mut rows, t).submitted = value;
        } else if let Some(t) = tenant_of(name, "qukit_core_tenant_jobs_completed_total") {
            row(&mut rows, t).completed = value;
        } else if let Some(t) = tenant_of(name, "qukit_core_tenant_jobs_shed_total") {
            row(&mut rows, t).shed = value;
        } else if let Some(t) = tenant_of(name, "qukit_core_tenant_cache_hits_total") {
            row(&mut rows, t).cache_hits = value;
        }
    }
    for (name, hist) in &snapshot.histograms {
        if let Some(t) = tenant_of(name, "qukit_core_tenant_job_seconds") {
            let entry = row(&mut rows, t);
            entry.p50_seconds = hist.quantile(0.50);
            entry.p99_seconds = hist.quantile(0.99);
        }
    }
    rows.into_values().collect()
}

impl LoadReport {
    /// Renders the human-readable summary `qukit bench --load` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "submitted {}  completed {}  shed {}  failed {}  lost {}  duplicated {}\n",
            self.submitted, self.completed, self.shed, self.failed, self.lost, self.duplicated
        ));
        out.push_str(&format!(
            "latency p50 {:.6}s  p99 {:.6}s  mean {:.6}s\n",
            self.p50_seconds, self.p99_seconds, self.mean_seconds
        ));
        out.push_str(&format!(
            "throughput {:.1} jobs/s  shed rate {:.1}%  cache hit rate {:.1}%  ({} hits)\n",
            self.throughput_jobs_per_sec,
            100.0 * self.shed_rate,
            100.0 * self.cache_hit_rate,
            self.cache_hits
        ));
        out.push_str(&format!("elapsed {:.3}s\n", self.elapsed_seconds));
        if !self.tenants.is_empty() {
            out.push_str(&format!(
                "{:<12} {:>9} {:>9} {:>6} {:>10} {:>12} {:>12}\n",
                "tenant", "submitted", "completed", "shed", "cache-hits", "p50", "p99"
            ));
            for row in &self.tenants {
                out.push_str(&format!(
                    "{:<12} {:>9} {:>9} {:>6} {:>10} {:>11.6}s {:>11.6}s\n",
                    row.tenant,
                    row.submitted,
                    row.completed,
                    row.shed,
                    row.cache_hits,
                    row.p50_seconds,
                    row.p99_seconds
                ));
            }
        }
        out
    }

    /// Converts the report into a one-entry `qukit-bench-baseline/v1`
    /// document so `qukit stats --compare` can gate service latency the
    /// same way it gates simulator kernels.
    pub fn to_baseline(&self, config: &LoadConfig) -> Baseline {
        let mut metrics = BTreeMap::new();
        metrics.insert("service_p50_seconds".to_owned(), self.p50_seconds);
        metrics.insert("service_p99_seconds".to_owned(), self.p99_seconds);
        metrics.insert("service_mean_seconds".to_owned(), self.mean_seconds);
        metrics.insert("throughput_jobs_per_sec".to_owned(), self.throughput_jobs_per_sec);
        metrics.insert("shed_rate".to_owned(), self.shed_rate);
        metrics.insert("cache_hit_rate".to_owned(), self.cache_hit_rate);
        metrics.insert("jobs_completed".to_owned(), self.completed as f64);
        metrics.insert("jobs_shed".to_owned(), self.shed as f64);
        metrics.insert("jobs_lost".to_owned(), self.lost as f64);
        metrics.insert("jobs_duplicated".to_owned(), self.duplicated as f64);
        Baseline {
            entries: vec![BaselineEntry {
                circuit: format!("load_t{}_j{}", config.tenants, config.jobs),
                engine: format!("service[w={}]", config.workers),
                qubits: pool_max_qubits(config.payload_pool),
                gates: 0,
                shots: config.shots,
                wall_seconds: self.elapsed_seconds,
                metrics,
            }],
        }
    }
}

/// The mixed-size payload pool: small GHZ/QFT/entangler/random
/// circuits, varied enough to exercise different service times but
/// small enough that the generator is queue-bound, not compute-bound.
pub fn payload_pool(size: usize) -> Vec<QuantumCircuit> {
    (0..size.max(1))
        .map(|i| match i % 4 {
            0 => crate::ghz(2 + i % 4),
            1 => crate::qft(3 + i % 3),
            2 => crate::entangler(3 + i % 3, 2),
            _ => crate::random_circuit(3 + i % 3, 16, 1000 + i as u64),
        })
        .collect()
}

fn pool_max_qubits(size: usize) -> usize {
    payload_pool(size).iter().map(QuantumCircuit::num_qubits).max().unwrap_or(0)
}

/// Observes completion events to detect duplicated terminals — the
/// "every job terminal exactly once" service invariant, checked from
/// the outside through the public observer API.
struct CompletionLedger {
    completed_ids: Mutex<Vec<u64>>,
}

impl JobObserver for CompletionLedger {
    fn on_event(&self, event: &JobEvent) {
        if let JobEvent::Completed { job_id, .. } = event {
            self.completed_ids.lock().expect("ledger lock").push(*job_id);
        }
    }
}

/// Runs one load-generator pass and reports service-level metrics.
///
/// The run records into a [`qukit_obs::Scope`] of its own, installed on
/// the calling thread and inherited by the executor's workers: the
/// latency quantiles come from its `qukit_core_job_seconds` histogram,
/// and its spans become [`LoadReport::trace`]. The process-wide registry
/// and its switch are left alone, so runs can proceed concurrently.
pub fn run_load(config: &LoadConfig) -> LoadReport {
    let scope = qukit_obs::Scope::new();
    let _installed = scope.install();

    let pool = payload_pool(config.payload_pool);
    let mut provider = Provider::new();
    provider.register(Box::new(QasmSimulatorBackend::new().with_seed(config.seed)));

    let ledger = std::sync::Arc::new(CompletionLedger { completed_ids: Mutex::new(Vec::new()) });
    let executor = JobExecutor::with_config(
        provider,
        ExecutorConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            retry: RetryPolicy::none(),
            observers: ObserverSet::metrics().with(ledger.clone()),
            cache: Some(CacheConfig::default().with_capacity(config.cache_capacity.max(1))),
            ..Default::default()
        },
    );

    let tenant_config = TenantConfig::default().with_max_pending(config.max_pending.max(1));
    let sessions: Vec<_> = (0..config.tenants.max(1))
        .map(|t| {
            // Uneven weights so fair-share actually has shares to arbitrate.
            let weight = 1 + (t % 3) as u32;
            executor.session_with(&format!("tenant-{t}"), tenant_config.with_weight(weight))
        })
        .collect();

    let started = Instant::now();
    let mut rng = config.seed ^ 0xD0E1_F2A3_B4C5_9687;
    let mut handles: Vec<Job> = Vec::with_capacity(config.jobs);
    let mut submitted = 0usize;
    let mut submit_errors = 0usize;
    for i in 0..config.jobs {
        let session = &sessions[i % sessions.len()];
        let circuit = &pool[(splitmix64(&mut rng) as usize) % pool.len()];
        let priority = match splitmix64(&mut rng) % 8 {
            0 => Priority::High,
            1 | 2 => Priority::Low,
            _ => Priority::Normal,
        };
        if config.pace_micros > 0 && i > 0 {
            std::thread::sleep(Duration::from_micros(config.pace_micros));
        }
        submitted += 1;
        match session.submit_with(circuit, "qasm_simulator", config.shots, priority, None) {
            Ok(job) => handles.push(job),
            // Global-capacity rejections count as shed too; the typed
            // per-tenant path returns Ok(Rejected) and lands in handles.
            Err(_) => submit_errors += 1,
        }
    }
    executor.shutdown();
    let elapsed = started.elapsed().max(Duration::from_micros(1));

    let mut completed = 0usize;
    let mut shed = submit_errors;
    let mut failed = 0usize;
    let mut lost = 0usize;
    let mut cache_hits_handles = 0usize;
    for job in &handles {
        match job.status() {
            JobStatus::Done => {
                completed += 1;
                if job.served_from_cache() {
                    cache_hits_handles += 1;
                }
            }
            JobStatus::Rejected => shed += 1,
            JobStatus::Error | JobStatus::TimedOut | JobStatus::Cancelled => failed += 1,
            JobStatus::Queued | JobStatus::Running => lost += 1,
        }
    }

    let ids = ledger.completed_ids.lock().expect("ledger lock");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    let duplicated = sorted.windows(2).filter(|w| w[0] == w[1]).count();
    drop(ids);

    let snapshot =
        qukit_obs::histogram("qukit_core_job_seconds", &qukit_obs::DURATION_BUCKETS).snapshot();
    let hits = qukit_obs::counter("qukit_core_cache_hits_total").value();
    let misses = qukit_obs::counter("qukit_core_cache_misses_total").value();
    let probes = hits + misses;
    let recorded = scope.snapshot();
    let tenants = tenant_breakdown(&recorded);

    LoadReport {
        submitted,
        completed,
        shed,
        failed,
        lost,
        duplicated,
        cache_hits: cache_hits_handles,
        elapsed_seconds: elapsed.as_secs_f64(),
        p50_seconds: snapshot.quantile(0.50),
        p99_seconds: snapshot.quantile(0.99),
        mean_seconds: snapshot.mean(),
        throughput_jobs_per_sec: completed as f64 / elapsed.as_secs_f64(),
        shed_rate: if submitted == 0 { 0.0 } else { shed as f64 / submitted as f64 },
        cache_hit_rate: if probes == 0 { 0.0 } else { hits as f64 / probes as f64 },
        tenants,
        trace: recorded.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_run_loses_nothing_and_hits_the_cache() {
        let config = LoadConfig::smoke();
        let report = run_load(&config);
        assert_eq!(report.submitted, config.jobs);
        assert_eq!(report.lost, 0, "no job may be left non-terminal after shutdown");
        assert_eq!(report.duplicated, 0, "no job may complete twice");
        assert_eq!(report.completed + report.shed + report.failed, config.jobs);
        assert!(report.completed > 0);
        assert!(
            report.cache_hit_rate > 0.0,
            "repeated payloads must hit the result cache (rate {})",
            report.cache_hit_rate
        );
        assert!(report.p99_seconds >= report.p50_seconds);
        assert!(report.p50_seconds > 0.0);
        assert!(report.throughput_jobs_per_sec > 0.0);
        assert!(
            report.trace.iter().any(|event| event.name == "job.attempt"),
            "the report carries the run's spans, worker threads included"
        );
    }

    #[test]
    fn load_report_breaks_service_numbers_down_per_tenant() {
        let config = LoadConfig { tenants: 3, jobs: 24, ..LoadConfig::smoke() };
        let report = run_load(&config);
        assert_eq!(report.tenants.len(), 3, "one breakdown row per tenant");
        for (i, row) in report.tenants.iter().enumerate() {
            assert_eq!(row.tenant, format!("tenant-{i}"), "rows sorted by tenant name");
        }
        let submitted: u64 = report.tenants.iter().map(|r| r.submitted).sum();
        let completed: u64 = report.tenants.iter().map(|r| r.completed).sum();
        assert_eq!(submitted + report.shed as u64, report.submitted as u64);
        assert_eq!(completed, report.completed as u64);
        let rendered = report.render();
        assert!(rendered.contains("tenant-2"), "render includes the breakdown:\n{rendered}");
    }

    #[test]
    fn load_report_round_trips_through_the_baseline_schema() {
        let config = LoadConfig { tenants: 2, jobs: 16, payload_pool: 2, ..LoadConfig::smoke() };
        let report = run_load(&config);
        let baseline = report.to_baseline(&config);
        let parsed = Baseline::from_json(&baseline.to_json()).expect("schema-valid");
        assert_eq!(parsed.entries.len(), 1);
        let entry = &parsed.entries[0];
        assert_eq!(entry.circuit, "load_t2_j16");
        assert_eq!(entry.engine, "service[w=3]");
        assert!(entry.metrics.contains_key("service_p99_seconds"));
        assert!(entry.metrics.contains_key("cache_hit_rate"));
        assert_eq!(entry.metrics["jobs_lost"], 0.0);
    }

    #[test]
    fn payload_pool_mixes_sizes() {
        let pool = payload_pool(6);
        assert_eq!(pool.len(), 6);
        let qubits: std::collections::BTreeSet<_> =
            pool.iter().map(QuantumCircuit::num_qubits).collect();
        assert!(qubits.len() > 1, "pool should mix circuit sizes: {qubits:?}");
    }
}
