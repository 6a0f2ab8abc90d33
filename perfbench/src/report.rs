//! Metrics, the run stamp, and the two JSON lines a run prints.
//!
//! The last stdout line is the result the benchmark contract asks for:
//! `{"correct","attempted","failed","metrics":{name:{value,unit}}}`.
//! The line before it is the full report: the stamp (git rev, `rustc
//! -V`, `nproc`, CPU model, seed, input digest) and every metric with
//! its sample count and the statistic it is (`median`, `p99`, `max`,
//! `count`, ...).

use std::fmt::Write as _;

use subvt_serve::proto::{fmt_f64, json_str};

use crate::layers::Sample;
use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `us`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Raw samples behind the value.
    pub samples: usize,
    /// Which statistic `value` is.
    pub stat: String,
}

impl Metric {
    /// A metric with an explicit statistic label.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        stat: &str,
    ) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            stat: stat.to_owned(),
        }
    }

    /// A count (one sample: the counter itself).
    pub fn count(name: &'static str, value: f64) -> Self {
        Self::new(name, value, "count", 1, "count")
    }
}

/// Median of per-call span times (`own` time), scaled to `unit`.
pub fn span_median(
    name: &'static str,
    unit: &'static str,
    samples: Option<&Vec<Sample>>,
) -> Metric {
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e3,
        "us" => 1e6,
        "ns" => 1e9,
        _ => unreachable!("span metrics are times"),
    };
    let own: Vec<f64> =
        samples.map_or_else(Vec::new, |s| s.iter().map(|x| x.own * scale).collect());
    if own.is_empty() {
        return Metric::new(name, 0.0, unit, 0, "not exercised");
    }
    Metric::new(name, stats::median(&own), unit, own.len(), "median")
}

/// What a run was, for the record.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// Digest of the generated inputs.
    pub input_digest: String,
    /// Extra facts the workload wants on record.
    pub notes: Vec<(String, String)>,
}

/// Machine and source identity, best effort (the benchmark may run from
/// a plain source tree with no git metadata).
fn environment() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
    };
    let git_rev = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("git_rev", git_rev),
        ("rustc", rustc),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
    ]
}

/// Prints the report line, then the result line, on stdout.
pub fn emit(stamp: &Stamp, metrics: &[Metric], attempted: u64, failed: u64) {
    let mut report = String::from("{\"perfbench\":{");
    let _ = write!(
        report,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"input_digest\":{}",
        json_str(&stamp.workload),
        stamp.seed,
        fmt_f64(stamp.seconds),
        stamp.trace,
        json_str(&stamp.input_digest),
    );
    for (k, v) in environment() {
        let _ = write!(report, ",{}:{}", json_str(k), json_str(&v));
    }
    report.push_str(",\"notes\":{");
    for (i, (k, v)) in stamp.notes.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(report, "{sep}{}:{}", json_str(k), json_str(v));
    }
    let _ = write!(
        report,
        "}},\"attempted\":{attempted},\"failed\":{failed},\"failed_frac\":{},\"metrics\":[",
        fmt_f64(failed as f64 / attempted.max(1) as f64)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            report,
            "{sep}{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{},\"stat\":{}}}",
            json_str(m.name),
            fmt_f64(m.value),
            json_str(m.unit),
            m.samples,
            json_str(&m.stat)
        );
    }
    report.push_str("]}}");

    let mut result = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            result,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(m.name),
            fmt_f64(m.value),
            json_str(m.unit)
        );
    }
    result.push_str("}}");
    println!("{report}");
    println!("{result}");
}

/// `VmHWM` (peak resident set) of a process, MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
