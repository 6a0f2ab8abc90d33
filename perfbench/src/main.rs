//! `perfbench`: the seeded end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload tcad-extract|spice-circuits|serve-hot|serve-oneshot
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload for `S` seconds and prints the
//! end-to-end metrics. `--trace 1` measures `S/2` seconds untraced, then
//! `S/2` seconds with the benchmark's per-layer timers on, and prints
//! the per-layer metrics plus the tracing overhead (traced minus
//! untraced). See `README.md` for what each workload and metric is for.

mod gen;
mod layers;
mod openloop;
mod paired;
mod report;
mod serve;
mod spice;
mod stats;
mod tcad;

use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Stamp};
use subvt_core::{NodeDesign, ScalingStrategy, SubVthStrategy, SuperVthStrategy, TechNode};

/// Worker threads for the engine pool and the load generator: the
/// benchmark's load never exceeds two cores or two connections.
pub const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only run the workload's set-up and report its duration (used to
    /// take extra set-up samples in fresh processes).
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "tcad-extract",
    "spice-circuits",
    "serve-hot",
    "serve-oneshot",
];

/// What a workload hands back for reporting.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: String,
    pub notes: Vec<(String, String)>,
}

/// End-to-end numbers of one timed phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Every timing, ms (k per operation under best-of-k).
    pub latencies_ms: Vec<f64>,
    /// Correct operations per second over the phase.
    pub ops_per_s: f64,
    /// Median latency, ms (over best-of-k latencies where so timed).
    pub p50_ms: f64,
    /// Samples the median is taken over.
    pub p50_samples: usize,
    /// Tail latency and what it is.
    pub p99: stats::Tail,
    /// How `p50_ms` was formed.
    pub stat: String,
    /// How `ops_per_s` was formed.
    pub rate_stat: String,
}

impl Phase {
    /// Plain statistics over all samples: `ops` correct operations in
    /// `wall_s` seconds.
    pub fn plain(latencies_ms: Vec<f64>, ops: usize, wall_s: f64) -> Self {
        Self {
            ops_per_s: ops as f64 / wall_s,
            p50_ms: stats::median(&latencies_ms),
            p50_samples: latencies_ms.len(),
            p99: stats::tail(&latencies_ms, 99.0),
            latencies_ms,
            stat: "median".to_owned(),
            rate_stat: "correct ops / phase time".to_owned(),
        }
    }

    /// Best-of-k statistics (see [`paired`]): `ops` correct timings in
    /// `wall_s` seconds. The median is over operations, each at the
    /// fastest of its timings; the tail is over every timing.
    pub fn paired<T>(timed: &[paired::Timed<T>], ops: usize, wall_s: f64) -> Self {
        let best: Vec<f64> = timed.iter().map(paired::Timed::best_ms).collect();
        let all: Vec<f64> = timed.iter().flat_map(|t| t.ms.iter().copied()).collect();
        Self {
            ops_per_s: ops as f64 / wall_s,
            p50_ms: stats::median(&best),
            p50_samples: best.len(),
            p99: stats::tail(&all, 99.0),
            latencies_ms: all,
            stat: format!("median of best-of-{}", paired::PASSES),
            rate_stat: "correct timings / phase time".to_owned(),
        }
    }
}

/// The end-to-end metrics every workload prints.
pub fn e2e_metrics(setup_samples: &[f64], phase: &Phase, rss_mb: f64) -> Vec<Metric> {
    let n = phase.latencies_ms.len();
    vec![
        Metric::new(
            "setup_s",
            stats::median(setup_samples),
            "s",
            setup_samples.len(),
            "median",
        ),
        Metric::new("ops_per_s", phase.ops_per_s, "1/s", n, &phase.rate_stat),
        Metric::new(
            "latency_p50_ms",
            phase.p50_ms,
            "ms",
            phase.p50_samples,
            &phase.stat,
        ),
        Metric::new("latency_p99_ms", phase.p99.value, "ms", n, &phase.p99.label),
        Metric::new("peak_rss_mb", rss_mb, "MiB", 1, "VmHWM"),
    ]
}

/// Tracing overhead: traced minus untraced end-to-end numbers.
pub fn overhead_metrics(untraced: &Phase, traced: &Phase) -> Vec<Metric> {
    vec![
        Metric::new(
            "bench.trace_overhead.latency_p50_ms",
            traced.p50_ms - untraced.p50_ms,
            "ms",
            traced.latencies_ms.len(),
            "traced-untraced",
        ),
        Metric::new(
            "bench.trace_overhead.ops_per_s",
            traced.ops_per_s - untraced.ops_per_s,
            "1/s",
            traced.latencies_ms.len(),
            "traced-untraced",
        ),
    ]
}

/// Takes `extra` more set-up samples, each in a fresh process running
/// `--setup-only`, and returns their durations in seconds.
pub fn child_setups(args: &Args, extra: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(extra);
    for _ in 0..extra {
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-only")
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|_| child.status.success())
            .ok_or_else(|| format!("set-up child failed: {text}"))?;
        out.push(secs);
    }
    Ok(out)
}

/// Per-layer metric names every traced run reports, in `BENCHMARK.json`
/// order; a workload fills the ones its layers exercise and the rest
/// read 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("tcad.id_vg.coarse_ms", "ms"),
    ("tcad.id_vg.standard_ms", "ms"),
    ("tcad.set_bias_ms", "ms"),
    ("tcad.poisson.solve_ms", "ms"),
    ("tcad.continuity.solve_ms", "ms"),
    ("tcad.poisson.solves", "count"),
    ("tcad.gummel.iterations", "count"),
    ("tcad.recoveries", "count"),
    ("tcad.op_share", "ratio"),
    ("model.calibrate_s", "s"),
    ("physics.characterize_us", "us"),
    ("physics.iv_eval_ns", "ns"),
    ("core.design_ms", "ms"),
    ("circuits.compile_us", "us"),
    ("circuits.vtc_ms", "ms"),
    ("circuits.fo1_ms", "ms"),
    ("circuits.chain_energy_ms", "ms"),
    ("circuits.mep_ms", "ms"),
    ("circuits.mc_batch_ms", "ms"),
    ("spice.dc_op_ms", "ms"),
    ("spice.transient_ms", "ms"),
    ("spice.lu.factor", "count"),
    ("spice.lu.resolve", "count"),
    ("spice.lu.resolve_per_factor", "ratio"),
    ("spice.dc.calls", "count"),
    ("engine.cache.hit", "count"),
    ("engine.cache.miss", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.lookup_us", "us"),
    ("engine.cache.load_ms", "ms"),
    ("engine.executor.map_us", "us"),
    ("exp.json.parse_us", "us"),
    ("serve.phase.admission_us", "us"),
    ("serve.phase.dedup_us", "us"),
    ("serve.phase.compute_us", "us"),
    ("serve.phase.serialize_us", "us"),
    ("serve.server_total_us", "us"),
    ("serve.outside_server_ms", "ms"),
    ("serve.rejected", "count"),
    ("bench.generator_late_ms", "ms"),
    ("bench.trace_overhead.latency_p50_ms", "ms"),
    ("bench.trace_overhead.ops_per_s", "1/s"),
];

/// Orders `measured` per-layer metrics as [`PER_LAYER`], filling the
/// layers this workload does not exercise with zero-sample entries.
pub fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0, "not exercised"))
        })
        .collect()
}

/// Both node-design flows through the compact model, interleaved node
/// by node: the Table 2 (super-V_th) then the Table 3 (sub-V_th) design
/// of 90, 65, 45 and 32 nm. Each node design is one `core.design` span.
pub fn node_designs() -> Result<Vec<NodeDesign>, String> {
    let model = subvt_model::analytic();
    let flows: [&dyn ScalingStrategy; 2] =
        [&SuperVthStrategy::default(), &SubVthStrategy::default()];
    let mut out = Vec::with_capacity(2 * TechNode::ALL.len());
    for node in TechNode::ALL {
        for flow in flows {
            let d = layers::timed("core.design", || flow.design_node_with(model, node))
                .map_err(|e| format!("{} {}: {e}", flow.name(), node.name()))?;
            out.push(d);
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    subvt_engine::configure_jobs(THREADS);
    layers::set_enabled(args.trace && !args.setup_only);
    let result = match args.workload.as_str() {
        "tcad-extract" => tcad::run(&args, started),
        "spice-circuits" => spice::run(&args, started),
        "serve-hot" => serve::run(&args, serve::Mode::Hot),
        "serve-oneshot" => serve::run(&args, serve::Mode::OneShot),
        _ => unreachable!("validated in parse_args"),
    };
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(outcome)) => {
            let stamp = Stamp {
                workload: args.workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                input_digest: outcome.input_digest,
                notes: outcome.notes,
            };
            report::emit(&stamp, &outcome.metrics, outcome.attempted, outcome.failed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
