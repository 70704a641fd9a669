//! qukit's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|simulate|device_jobs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs a fixed, seeded op sequence in a closed loop, checks
//! every output, and prints its metrics by name and unit; the last line of
//! standard output is one JSON object. With `--trace 1` the workload runs
//! twice in this process, untraced and then traced, each with half the
//! ops, and reports the per-layer metrics of the traced pass plus the
//! tracing overhead. See `perfbench/README.md` for the design.

mod check;
mod compile;
mod gen;
mod jobs;
mod simulate;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Shots per simulated circuit or job.
pub const SHOTS: usize = 1024;

/// Setups per run, spread over the run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Seed of the warm-up inputs. It is the same in every run, so that
/// `setup_s` times the same work whatever `--seed` is; it draws from other
/// streams than the timed ops, so no timed op repeats a warm-up input.
pub const WARM_SEED: u64 = 0x5EED;

/// Environment variables that switch the simulator's engine paths
/// (`ParallelConfig::from_env`). The benchmark refuses to run with any set.
const PINNED_ENV: [&str; 4] = ["QUKIT_THREADS", "QUKIT_FUSION", "QUKIT_SIMD", "QUKIT_CHUNK_QUBITS"];

/// Where traces and temporary journals go, relative to the checkout root.
pub const WORK_DIR: &str = ".perfbench";

/// Run settings shared by the workloads.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Corrupt the first timed op's output before checking it.
    pub self_test: bool,
}

impl Config {
    /// Number of op blocks for a workload that completes `blocks_per_s`
    /// blocks per second on the reference host; at least one, so a tiny
    /// `--seconds` runs a single block.
    pub fn blocks(&self, blocks_per_s: f64) -> usize {
        ((self.seconds * blocks_per_s).round() as usize).max(1)
    }
}

/// How many setup repetitions run after timed chunk `chunk` of `chunks`.
/// The first repetition runs before the first chunk; the others are spread
/// over the run, so that their median does not rest on one moment of the
/// host's speed.
pub fn setups_after(chunk: usize, chunks: usize) -> usize {
    (1..SETUP_REPS).filter(|&k| (k * chunks).div_ceil(SETUP_REPS) - 1 == chunk).count()
}

/// Runs `work` that falls between timed chunks (checks, extra setups) with
/// the program's recording paused, so that a traced pass counts only the
/// timed ops.
pub fn with_recording_paused<T>(traced: bool, work: impl FnOnce() -> T) -> T {
    qukit_obs::set_enabled(false);
    let out = work();
    qukit_obs::set_enabled(traced);
    out
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds of each setup repetition.
    pub setup_s: Vec<f64>,
    /// Client-observed latency of each timed op, seconds, in op order.
    pub latencies: Vec<f64>,
    /// Class of each timed op, in op order.
    pub classes: Vec<&'static str>,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// Ops that returned a result (checked or not).
    pub completed: usize,
    /// One line per op that failed or did not pass its check.
    pub failures: Vec<String>,
    /// CX cost and depth of the inputs and of the outputs the program ran
    /// or produced.
    pub cx_in: u64,
    pub cx_out: u64,
    pub depth_in: u64,
    pub depth_out: u64,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// Free-form lines printed with the pass.
    pub notes: Vec<String>,
}

impl Pass {
    pub fn attempted(&self) -> usize {
        self.latencies.len()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile from a fixed ladder with at least ten samples
/// beyond it.
fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    LADDER.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0).unwrap_or(50.0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed floating-point kernel (48×48 matrix products), timed in ms.
/// Printed beside the metrics to attribute spread to the host; it never
/// enters or rescales a metric.
fn host_probe_ms() -> f64 {
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25 - 0.5).collect();
    let mut b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.2 - 0.4).collect();
    let start = Instant::now();
    for _ in 0..60 {
        let mut c = vec![0.0; N * N];
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        let norm = c.iter().map(|x| x.abs()).sum::<f64>().max(1e-9);
        b = c.into_iter().map(|x| x / norm).collect();
    }
    black_box(&b);
    start.elapsed().as_secs_f64() * 1e3
}

/// The checkout's git revision, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.to_owned()
    }
}

/// End-to-end metrics of one pass, in the order they are printed.
fn end_to_end(pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let mut sorted = pass.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len().max(1);
    let ok = pass.attempted().saturating_sub(pass.failures.len().min(pass.attempted()));
    let ratio = |out: u64, inp: u64| if inp == 0 { 0.0 } else { out as f64 / inp as f64 };
    vec![
        ("setup_s", median(&pass.setup_s), "s"),
        ("ops_per_s", pass.completed as f64 / pass.wall_s.max(1e-9), "ops/s"),
        ("p50_ms", percentile(&sorted, 50.0) * 1e3, "ms"),
        ("tail_ms", percentile(&sorted, tail_percentile(n)) * 1e3, "ms"),
        ("ok_share", ok as f64 / n as f64, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("cx_ratio", ratio(pass.cx_out, pass.cx_in), "ratio"),
        ("depth_ratio", ratio(pass.depth_out, pass.depth_in), "ratio"),
    ]
}

/// Prints a pass's class shares, per-class medians and failures.
fn print_pass(label: &str, pass: &Pass) {
    let n = pass.attempted();
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (class, &lat) in pass.classes.iter().zip(&pass.latencies) {
        by_class.entry(class).or_default().push(lat);
    }
    let mut sorted = pass.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(n);
    println!(
        "[{label}] ops={n} completed={} failed={} wall_s={:.3} tail=p{p} ({} samples beyond it)",
        pass.completed,
        pass.failures.len(),
        pass.wall_s,
        (n as f64 * (1.0 - p / 100.0)).floor()
    );
    for (class, lats) in &by_class {
        println!(
            "[{label}] class {class}: share={:.4} p50_ms={:.4}",
            lats.len() as f64 / n.max(1) as f64,
            median(lats) * 1e3
        );
    }
    println!(
        "[{label}] setup reps (s): {}",
        pass.setup_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    );
    for note in &pass.notes {
        println!("[{label}] {note}");
    }
    for failure in pass.failures.iter().take(20) {
        println!("[{label}] FAILED {failure}");
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["compile", "simulate", "device_jobs"];

fn run_workload(name: &str, cfg: &Config, traced: bool) -> Pass {
    match name {
        "compile" => compile::run(cfg, traced),
        "simulate" => simulate::run(cfg, traced),
        _ => jobs::run(cfg, traced),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> =
        PINNED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: it switches engine paths",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // A traced run makes two passes, so each gets half the ops.
    let cfg = Config {
        seed: args.seed,
        seconds: if args.trace { args.seconds / 2.0 } else { args.seconds },
        self_test: args.self_test,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    let probe_before = host_probe_ms();

    let base = run_workload(&args.workload, &cfg, false);
    let traced = if args.trace {
        qukit_terra::transpiler::cache::global().clear();
        qukit_obs::reset();
        qukit_obs::set_enabled(true);
        let pass = run_workload(&args.workload, &cfg, true);
        qukit_obs::set_enabled(false);
        Some(pass)
    } else {
        None
    };
    let probe_after = host_probe_ms();
    let _ = std::fs::remove_dir(WORK_DIR);

    print_pass("untraced", &base);
    let base_e2e = end_to_end(&base);
    for (name, value, unit) in &base_e2e {
        println!("[untraced] {name} = {value:.6} {unit}");
    }
    println!("host_probe_ms before={probe_before:.3} after={probe_after:.3}");

    let mut attempted = base.attempted();
    let mut failed = base.failures.len();
    let mut metrics: Vec<String> = Vec::new();
    match &traced {
        None => {
            metrics.extend(base_e2e.iter().map(|(n, v, u)| metric_json(n, *v, u)));
        }
        Some(pass) => {
            print_pass("traced", pass);
            attempted += pass.attempted();
            failed += pass.failures.len();
            let traced_e2e = end_to_end(pass);
            let mut layers = pass.layers.clone();
            for ((name, before, unit), (_, after, _)) in base_e2e.iter().zip(&traced_e2e) {
                println!("[traced] {name} = {after:.6} {unit}");
                if matches!(*name, "setup_s" | "ops_per_s" | "p50_ms" | "tail_ms") {
                    layers.insert(format!("obs.trace_overhead.{name}"), (after - before, unit));
                }
            }
            for (name, (value, unit)) in &layers {
                println!("[traced] layer {name} = {value:.9} {unit}");
            }
            metrics.extend(layers.iter().map(|(n, (v, u))| metric_json(n, *v, u)));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
