//! The benchmark's own tracing: spans recorded around each call into a
//! layer, kept in memory and written out at exit, plus the one place that
//! reads the program's counters.
//!
//! A span has a name, a start, an end, its parent span (by name; `None` for
//! the op's root span `op`), and the op (request) it belongs to. Self time
//! is computed per op by giving every instant of the op's interval to the
//! deepest span covering it (the latest-started one among equals), so the
//! self times of an op's layers add up to its latency exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Names are unique within an op.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub end: Instant,
}

/// An in-memory span store shared by the client threads and observers.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn record(
        &self,
        op: usize,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span { op, name, parent, start, end };
        self.spans.lock().expect("span store lock").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }
}

/// Nesting depth of a span among its op's spans (the root is 0).
fn depth(span: &Span, op_spans: &[&Span]) -> usize {
    let mut depth = 0;
    let mut parent = span.parent;
    while let Some(name) = parent {
        depth += 1;
        parent = op_spans.iter().find(|s| s.name == name).and_then(|s| s.parent);
    }
    depth
}

/// Total self time in seconds per span name, summed over all ops.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_op: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_op.entry(span.op).or_default().push(span);
    }
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for op_spans in by_op.values() {
        let Some(root) = op_spans.iter().find(|s| s.parent.is_none()) else { continue };
        let depths: Vec<usize> = op_spans.iter().map(|s| depth(s, op_spans)).collect();
        let clip = |t: Instant| t.clamp(root.start, root.end);
        let mut edges: Vec<Instant> =
            op_spans.iter().flat_map(|s| [clip(s.start), clip(s.end)]).collect();
        edges.sort();
        edges.dedup();
        for w in edges.windows(2) {
            let owner = (0..op_spans.len())
                .filter(|&k| clip(op_spans[k].start) <= w[0] && clip(op_spans[k].end) >= w[1])
                .max_by_key(|&k| (depths[k], op_spans[k].start))
                .expect("the root span covers the whole op");
            *totals.entry(op_spans[owner].name).or_insert(0.0) += (w[1] - w[0]).as_secs_f64();
        }
    }
    totals
}

/// Writes the spans as JSON lines (times in µs from `epoch`).
pub fn write_spans(path: &Path, spans: &[Span], epoch: Instant) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.op,
            s.name,
            parent,
            (s.start - epoch).as_secs_f64() * 1e6,
            (s.end - epoch).as_secs_f64() * 1e6
        )?;
    }
    out.flush()
}

/// The program's own counters, read once at the end of a traced run.
pub struct ProgramCounters(qukit_obs::Snapshot);

/// Reads every program counter through `qukit_obs`'s public snapshot. This
/// is the only function that touches the program's registry.
pub fn read_program_counters() -> ProgramCounters {
    ProgramCounters(qukit_obs::registry().snapshot())
}

impl ProgramCounters {
    pub fn counter(&self, name: &str) -> f64 {
        self.0.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.0.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of a histogram's observations.
    pub fn histogram_sum(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.sum)
    }

    /// `hits / (hits + misses)` of two counters, 0 when both are 0.
    pub fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.counter(hits), self.counter(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Seconds per transpiler pass, from `qukit_terra_pass_seconds{pass=…}`.
    pub fn pass_seconds(&self) -> BTreeMap<String, f64> {
        let prefix = "qukit_terra_pass_seconds{pass=\"";
        self.0
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let pass = name.strip_prefix(prefix)?.strip_suffix("\"}")?;
                Some((pass.to_owned(), h.sum))
            })
            .collect()
    }
}

/// Span names whose self time is a per-layer metric (`<name>_s`); the
/// op's own remainder is `client.self_s`.
pub const LAYER_SPANS: [&str; 10] = [
    "terra.parse",
    "terra.transpile",
    "aer.statevector",
    "aer.stabilizer",
    "aer.trajectory",
    "dd.run",
    "core.submit",
    "core.queue_wait",
    "core.attempt",
    "core.finish",
];

/// Transpiler passes of the device pipeline, reported as
/// `terra.pass.<name>_s`.
pub const PASSES: [&str; 8] = [
    "analysis",
    "decompose",
    "mapping",
    "fix_directions",
    "cancel_inverse_pairs",
    "merge_1q_runs",
    "drop_identities",
    "basis_u",
];

/// What a workload measured from outside that is not a span or a counter.
#[derive(Debug, Default)]
pub struct Extras {
    /// Gates in the circuits sent to the stabilizer engine.
    pub stabilizer_gates: u64,
    /// Median executor construction (journal replay) time, seconds.
    pub replay_s: f64,
    /// Jobs served from the result cache over completed jobs.
    pub result_cache_hit_ratio: f64,
}

/// The full per-layer table of a traced pass: every layer metric, 0 for a
/// layer the workload does not reach. Additive times and counts are per
/// timed op.
pub fn per_layer(
    spans: &[Span],
    counters: &ProgramCounters,
    ops: usize,
    extras: &Extras,
) -> BTreeMap<String, (f64, &'static str)> {
    let per_op = |v: f64| v / ops.max(1) as f64;
    let st = self_times(spans);
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    for name in LAYER_SPANS {
        m.insert(format!("{name}_s"), (per_op(st.get(name).copied().unwrap_or(0.0)), "s/op"));
    }
    m.insert("client.self_s".into(), (per_op(st.get("op").copied().unwrap_or(0.0)), "s/op"));
    let passes = counters.pass_seconds();
    for pass in PASSES {
        let secs = passes.get(pass).copied().unwrap_or(0.0);
        m.insert(format!("terra.pass.{pass}_s"), (per_op(secs), "s/op"));
    }
    let c = |name: &str| counters.counter(name);
    m.insert("terra.swaps".into(), (per_op(c("qukit_terra_swaps_inserted_total")), "count/op"));
    m.insert(
        "terra.cache_hit_ratio".into(),
        (
            counters.ratio(
                "qukit_terra_transpile_cache_hits_total",
                "qukit_terra_transpile_cache_misses_total",
            ),
            "ratio",
        ),
    );
    m.insert(
        "aer.sample_s".into(),
        (per_op(counters.histogram_sum("qukit_aer_sample_seconds")), "s/op"),
    );
    m.insert(
        "aer.gates_applied".into(),
        (per_op(c("qukit_aer_statevector_gates_total")), "count/op"),
    );
    m.insert(
        "aer.amplitudes_touched".into(),
        (per_op(c("qukit_aer_amplitudes_touched_total")), "count/op"),
    );
    let stab = if extras.stabilizer_gates == 0 {
        0.0
    } else {
        c("qukit_aer_stabilizer_gates_total") / extras.stabilizer_gates as f64
    };
    m.insert("aer.stabilizer_gate_apps_per_gate".into(), (stab, "ratio"));
    m.insert(
        "dd.compute_hit_ratio".into(),
        (counters.ratio("qukit_dd_compute_hits_total", "qukit_dd_compute_misses_total"), "ratio"),
    );
    m.insert(
        "dd.unique_hit_ratio".into(),
        (counters.ratio("qukit_dd_unique_hits_total", "qukit_dd_unique_misses_total"), "ratio"),
    );
    m.insert("dd.peak_nodes".into(), (counters.gauge("qukit_dd_peak_nodes"), "count"));
    m.insert("dd.gc_runs".into(), (per_op(c("qukit_dd_gc_runs_total")), "count/op"));
    m.insert("core.replay_s".into(), (extras.replay_s, "s"));
    m.insert("core.result_cache_hit_ratio".into(), (extras.result_cache_hit_ratio, "ratio"));
    m.insert("core.failed".into(), (c("qukit_core_job_failures_total"), "count"));
    m.insert("core.timed_out".into(), (c("qukit_core_job_timeouts_total"), "count"));
    m.insert("core.retries".into(), (c("qukit_core_job_retries_total"), "count"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_add_up_to_the_op() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        let spans = vec![
            Span { op: 0, name: "op", parent: None, start: ms(0), end: ms(10) },
            Span { op: 0, name: "submit", parent: Some("op"), start: ms(0), end: ms(3) },
            Span { op: 0, name: "queue", parent: Some("op"), start: ms(2), end: ms(4) },
            Span { op: 0, name: "attempt", parent: Some("op"), start: ms(4), end: ms(9) },
            Span { op: 0, name: "engine", parent: Some("attempt"), start: ms(5), end: ms(8) },
        ];
        let st = self_times(&spans);
        let ms_of = |k: &str| (st[k] * 1000.0).round() as u64;
        assert_eq!(ms_of("submit"), 2);
        assert_eq!(ms_of("queue"), 2);
        assert_eq!(ms_of("attempt"), 2);
        assert_eq!(ms_of("engine"), 3);
        assert_eq!(ms_of("op"), 1);
        let total: f64 = st.values().sum();
        assert!((total - 0.010).abs() < 1e-9);
    }
}
