//! `serve-hot` and `serve-oneshot`: the `subvt-serve` daemon from the
//! outside, as a separate process on a loopback port.
//!
//! * `serve-hot`: the benchmark first builds a cache file outside any
//!   timing (a daemon computes a seeded working set of distinct
//!   requests and saves them at shutdown). The daemon is then restarted
//!   on that file, and two closed-loop clients on persistent
//!   connections replay requests drawn by seed from the working set.
//!   Every answer must be `ok`, a cache `hit`, and byte-equal to the
//!   payload recorded while building.
//! * `serve-oneshot`: the daemon starts on an empty cache. An open-loop
//!   generator sends `RATE` requests per second, each on a fresh TCP
//!   connection and with seeded unique parameters, so every answer is
//!   `computed` and appends a cache entry. Latency runs from each
//!   request's due time.
//!
//! Set-up is daemon spawn → its address announcement, which it prints
//! once the cache is loaded, the socket bound and the pools started.
//! It is taken [`SETUPS`] times; the last daemon started is the one
//! measured.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use subvt_exp::tracefmt::{parse_json, Json};
use subvt_serve::proto::fmt_f64;
use subvt_serve::{Client, Response};

use crate::gen::{self, SplitMix64};
use crate::layers;
use crate::openloop;
use crate::paired;
use crate::report::{self, Metric};
use crate::stats;
use crate::{Args, Outcome, Phase, THREADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    OneShot,
}

/// Distinct requests in the `serve-hot` working set.
const WORKING_SET: usize = 48;
/// `serve-oneshot` offered load, requests per second: below the
/// one-shot capacity of the accept loop, and not a divisor of its
/// 20 ms poll so arrivals sweep every phase of it.
const RATE: f64 = 70.0;
/// `serve-hot` p99 and throughput are medians over windows of this
/// length.
const WINDOW_S: f64 = 2.0;
/// Seconds between a `serve-hot` request's timings ([`paired`]).
const CHUNK_S: f64 = 3.0;
/// `serve-hot` closed-loop clients. With the daemon on two vCPUs, a
/// request's round trip is cheap when client and server thread share a
/// vCPU and pays a cross-vCPU wake-up when they do not, and the
/// scheduler's placement held for a whole run: one client unpinned ran
/// at 10.6k or 16k requests/s from run to run, two at 15.6k–24.8k. So
/// `serve-hot` pins itself and the daemon to one vCPU ([`pin_to_cpu0`])
/// and drives it from one connection: 13.7k–15.4k requests/s over six
/// runs, p99 within ±6 %.
const HOT_CLIENTS: usize = 1;
/// Set-up samples (daemon starts) per run.
const SETUPS: usize = 21;
/// `serve-hot` reads the daemon's peak RSS when the clients together
/// have this many answers (a few seconds into the phase). The daemon's
/// memory grows with every request it serves, so a reading at the end
/// of a clock-bounded phase would track throughput instead.
const RSS_AT: u64 = 50_000;
/// Every this many `serve-oneshot` answers is re-evaluated in process.
const CHECK_EVERY: usize = 10;
/// Traced runs time the JSON codec on every this many requests.
const PARSE_EVERY: usize = 16;
const READY_TIMEOUT: Duration = Duration::from_secs(60);

const NODES: [(&str, Option<&str>); 9] = [
    ("ref90", None),
    ("90nm", Some("supervth")),
    ("90nm", Some("subvth")),
    ("65nm", Some("supervth")),
    ("65nm", Some("subvth")),
    ("45nm", Some("supervth")),
    ("45nm", Some("subvth")),
    ("32nm", Some("supervth")),
    ("32nm", Some("subvth")),
];

/// One request: method plus its `params` object text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Request {
    method: &'static str,
    params: String,
}

fn node(rng: &mut SplitMix64) -> String {
    match NODES[gen::index(rng, NODES.len())] {
        (n, None) => format!("\"node\":\"{n}\""),
        (n, Some(s)) => format!("\"node\":\"{n}\",\"strategy\":\"{s}\""),
    }
}

/// A seeded request of the given kind (0..8 covers every method).
fn request(kind: usize, rng: &mut SplitMix64) -> Request {
    let sel = node(rng);
    let v_dd = fmt_f64(gen::range(rng, 0.2, 0.4));
    let temp = fmt_f64(gen::range(rng, 280.0, 360.0));
    let (method, params) = match kind {
        0 => (
            "idvg",
            format!(
                "{{{sel},\"v_ds\":{},\"v_gs\":{{\"start\":0,\"stop\":1.0,\"points\":25}}}}",
                fmt_f64(gen::range(rng, 0.05, 1.0))
            ),
        ),
        1 => ("params", format!("{{{sel}}}")),
        2 => (
            "vtc",
            format!("{{{sel},\"v_dd\":{v_dd},\"points\":81,\"temp_k\":{temp}}}"),
        ),
        3 => (
            "snm",
            format!("{{{sel},\"v_dd\":{v_dd},\"temp_k\":{temp}}}"),
        ),
        4 => (
            "fo1",
            format!("{{{sel},\"v_dd\":{v_dd},\"temp_k\":{temp}}}"),
        ),
        5 => (
            "chain_energy",
            format!("{{{sel},\"v_dd\":{v_dd},\"temp_k\":{temp}}}"),
        ),
        6 => {
            let gate = if rng.next_u64() & 1 == 0 {
                "nand2"
            } else {
                "nor2"
            };
            (
                "topology",
                format!("{{\"op\":\"gate_snm\",\"gate\":\"{gate}\",{sel},\"v_dd\":{v_dd},\"points\":61,\"temp_k\":{temp}}}"),
            )
        }
        _ => (
            "topology",
            format!(
                "{{\"op\":\"ring_freq\",{sel},\"v_dd\":{v_dd},\"stages\":5,\"temp_k\":{temp}}}"
            ),
        ),
    };
    Request { method, params }
}

/// `serve-hot`: distinct requests over every cacheable method.
fn working_set(seed: u64) -> Vec<Request> {
    let mut rng = gen::rng(seed, "serve-hot");
    let mut out: Vec<Request> = Vec::with_capacity(WORKING_SET);
    let mut kind = 0;
    while out.len() < WORKING_SET {
        let r = request(kind % 8, &mut rng);
        if !out.contains(&r) {
            out.push(r);
            kind += 1;
        }
    }
    out
}

/// `serve-oneshot`: unique analytic circuit requests (VTC, SNM, FO1,
/// chain energy, gate SNM), one per scheduled slot.
fn oneshot_requests(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = gen::rng(seed, "serve-oneshot");
    (0..count)
        .map(|i| request([2, 3, 4, 5, 6][i % 5], &mut rng))
        .collect()
}

fn canonical(requests: &[Request]) -> String {
    requests
        .iter()
        .map(|r| format!("{} {}\n", r.method, r.params))
        .collect()
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers `ping`; returns it
    /// with the spawn → ready time in seconds.
    fn start(
        bin: &Path,
        cache: &Path,
        access_log: Option<&Path>,
        log: &Path,
    ) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--jobs",
            "2",
            "--cache",
        ])
        .arg(cache);
        if let Some(path) = access_log {
            cmd.arg("--access-log").arg(path);
        }
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("daemon log: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        let read = out.read_line(&mut first);
        let addr = first
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not announce its address: {first:?}"));
        };
        // The address line comes after the cache load, the bind and the
        // pool start: the daemon is ready. The `ping` below confirms it
        // untimed, because the first accept waits on the accept loop's
        // 20 ms poll at a random phase, which would make set-up bimodal.
        let ready = t.elapsed().as_secs_f64();
        // Keep reading stdout so the daemon never writes into a closed pipe.
        let drain = std::thread::spawn(move || for _ in out.lines() {});
        let mut daemon = Daemon {
            child,
            addr,
            drain: Some(drain),
        };
        match Client::connect_ready(addr, READY_TIMEOUT) {
            Ok(_) => Ok((daemon, ready)),
            Err(e) => {
                daemon.kill();
                Err(format!("daemon not ready: {e}"))
            }
        }
    }

    /// The daemon's counters (`metrics` method).
    fn counters(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        let r = c.call("metrics", "{}").map_err(|e| e.to_string())?;
        let json = r.result_json()?;
        let Some(Json::Obj(members)) = json.get("counters") else {
            return Err("metrics without counters".to_owned());
        };
        Ok(members
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }

    /// Graceful shutdown (the daemon saves its cache); killed if it has
    /// not exited within a minute.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.call("shutdown", "{}"));
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(d) = self.drain.take() {
                        let _ = d.join();
                    }
                    return match (asked, status.success()) {
                        (Ok(_), true) => Ok(()),
                        (a, _) => Err(format!("daemon shutdown: {a:?}, exit {status}")),
                    };
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(e.to_string()),
            }
        }
        self.kill();
        Err("daemon did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.kill();
        }
    }
}

/// Working directory for daemon files inside the tree, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The daemon, built next to this binary.
fn serve_bin() -> Result<PathBuf, String> {
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("subvt-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("daemon binary {} not found", bin.display()))
    }
}

/// One request's client-side record.
struct Sample {
    /// Completion time since the phase start, seconds.
    at: f64,
    latency_ms: f64,
    /// Why the answer failed its check, if it did.
    error: Option<String>,
    /// Trace id sent on the wire (traced phase only).
    trace_id: Option<String>,
}

/// Sends one request; in a traced phase it carries a trace id (so the
/// access log can be joined) and the JSON codec is timed on a sample.
fn call(
    client: &mut Client,
    r: &Request,
    trace_id: Option<&str>,
    time_codec: bool,
) -> std::io::Result<Response> {
    let resp = client.call_traced(r.method, &r.params, trace_id.map(|id| (id, 1)))?;
    if time_codec {
        let line = format!(
            "{{\"id\":\"x\",\"method\":\"{}\",\"params\":{}}}",
            r.method, r.params
        );
        for text in [line.as_str(), resp.raw.as_str()] {
            let parsed = layers::timed("exp.json.parse", || parse_json(text));
            std::hint::black_box(parsed.ok());
        }
    }
    Ok(resp)
}

fn expect(resp: &Response, cached: &str, payload: Option<&str>) -> Option<String> {
    if !resp.ok {
        return Some(format!(
            "error {:?}: {:?}",
            resp.error_code, resp.error_message
        ));
    }
    if resp.cached.as_deref() != Some(cached) {
        return Some(format!("cached {:?}, expected {cached}", resp.cached));
    }
    match payload {
        Some(p) if resp.result.as_deref() != Some(p) => {
            Some("payload differs from the recorded one".to_owned())
        }
        _ => None,
    }
}

/// Builds the `serve-hot` cache file and records every payload.
fn prebuild(bin: &Path, cache: &Path, log: &Path, set: &[Request]) -> Result<Vec<String>, String> {
    let (daemon, _) = Daemon::start(bin, cache, None, log)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let mut payloads = Vec::with_capacity(set.len());
    for r in set {
        let resp = client
            .call(r.method, &r.params)
            .map_err(|e| e.to_string())?;
        if let Some(e) = expect(&resp, "computed", None) {
            return Err(format!(
                "building the cache, {} {}: {e}",
                r.method, r.params
            ));
        }
        payloads.push(resp.result.unwrap_or_default());
    }
    drop(client);
    daemon.stop()?;
    Ok(payloads)
}

struct HotPhase {
    samples: Vec<Sample>,
    /// Each request's fastest timing ([`paired`]), ms.
    best_ms: Vec<f64>,
    wall: f64,
    /// The daemon's VmHWM at [`RSS_AT`] answers, when asked for.
    rss_mb: Option<f64>,
}

/// Closed loop: [`HOT_CLIENTS`] clients, each on one persistent
/// connection.
/// Each client times every request it draws [`paired::PASSES`] times,
/// [`CHUNK_S`] apart; every answer is a hit, so a repeat does the same
/// work. With `rss_pid`, that process's peak RSS is read when the
/// clients together have [`RSS_AT`] answers.
#[allow(clippy::too_many_arguments)]
fn hot_phase(
    addr: SocketAddr,
    set: &[Request],
    payloads: &[String],
    seed: u64,
    phase_no: u64,
    seconds: f64,
    traced: bool,
    rss_pid: Option<u32>,
) -> Result<HotPhase, String> {
    let start = Instant::now();
    let broken = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let rss_mb = Mutex::new(None);
    type Part = Result<(Vec<Sample>, Vec<f64>), String>;
    let per_thread: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HOT_CLIENTS)
            .map(|k| {
                let (broken, answered, rss_mb) = (&broken, &answered, &rss_mb);
                scope.spawn(move || -> Part {
                    let mut rng = gen::rng(seed, &format!("serve-hot/client{phase_no}.{k}"));
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    let timed = paired::run(
                        seconds,
                        CHUNK_S,
                        paired::PASSES,
                        || gen::index(&mut rng, set.len()),
                        |&i, _| -> Result<f64, ()> {
                            if broken.load(Ordering::Relaxed) {
                                return Err(());
                            }
                            let trace_id = traced.then(|| format!("h{phase_no}.{k}.{}", out.len()));
                            let time_codec = traced && out.len() % PARSE_EVERY == 0;
                            let t = Instant::now();
                            let resp = call(&mut client, &set[i], trace_id.as_deref(), time_codec);
                            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                            let error = match resp {
                                Ok(resp) => expect(&resp, "hit", Some(&payloads[i])),
                                Err(e) => {
                                    broken.store(true, Ordering::Relaxed);
                                    Some(format!("transport: {e}"))
                                }
                            };
                            out.push(Sample {
                                at: start.elapsed().as_secs_f64(),
                                latency_ms,
                                error,
                                trace_id,
                            });
                            if answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
                                if let Some(pid) = rss_pid {
                                    *rss_mb.lock().expect("rss lock") =
                                        Some(report::peak_rss_mb(Some(pid)));
                                }
                            }
                            Ok(latency_ms)
                        },
                    );
                    // A broken connection ends the phase; its samples
                    // still carry the failure.
                    let best = timed
                        .map(|t| t.iter().map(paired::Timed::best_ms).collect())
                        .unwrap_or_default();
                    Ok((out, best))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut best_ms = Vec::new();
    for part in per_thread {
        let (s, b) = part?;
        samples.extend(s);
        best_ms.extend(b);
    }
    Ok(HotPhase {
        samples,
        best_ms,
        wall,
        rss_mb: rss_mb.into_inner().expect("rss lock"),
    })
}

/// Closed-loop statistics. p99 and throughput are medians over
/// [`WINDOW_S`] windows, so a burst of noise from outside moves one
/// window, not the result. p50 is the median over requests of each
/// one's fastest timing ([`paired`]).
fn hot_stats(p: &HotPhase) -> Phase {
    let timed: Vec<(f64, f64)> = p.samples.iter().map(|s| (s.at, s.latency_ms)).collect();
    let ok: Vec<(f64, f64)> = p
        .samples
        .iter()
        .map(|s| (s.at, if s.error.is_none() { 1.0 } else { 0.0 }))
        .collect();
    // Same sample times, so both splits give the same windows.
    let windows = stats::windows(&timed, WINDOW_S, p.wall);
    let ok_windows = stats::windows(&ok, WINDOW_S, p.wall);
    let n = windows.len();
    // Window lengths: full windows, except a kept trailing partial one.
    let len = |k: usize| {
        if k + 1 < n {
            WINDOW_S
        } else {
            p.wall - WINDOW_S * (n - 1) as f64
        }
    };
    let rates: Vec<f64> = ok_windows
        .iter()
        .enumerate()
        .map(|(k, w)| w.iter().sum::<f64>() / len(k))
        .collect();
    let tails: Vec<stats::Tail> = windows.iter().map(|w| stats::tail(w, 99.0)).collect();
    let all_p99 = tails.iter().all(|t| t.label == "p99");
    let p99 = stats::Tail {
        value: stats::median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        label: format!(
            "median of {n} {WINDOW_S} s windows' {}",
            if all_p99 {
                "p99"
            } else {
                "p99 (or max where thin)"
            }
        ),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
    };
    Phase {
        latencies_ms: p.samples.iter().map(|s| s.latency_ms).collect(),
        ops_per_s: stats::median(&rates),
        p50_ms: stats::median(&p.best_ms),
        p50_samples: p.best_ms.len(),
        p99,
        stat: format!("median of best-of-{}", paired::PASSES),
        rate_stat: format!("median of {n} {WINDOW_S} s windows"),
    }
}

/// One open-loop answer.
struct Shot {
    error: Option<String>,
    payload: Option<String>,
    trace_id: Option<String>,
}

fn oneshot_phase(
    addr: SocketAddr,
    requests: &[Request],
    traced: bool,
) -> Vec<openloop::Timing<Shot>> {
    openloop::run(RATE, requests.len(), THREADS, |i| {
        let trace_id = traced.then(|| format!("o{i}"));
        let time_codec = traced && i % PARSE_EVERY == 0;
        let resp = Client::connect(addr)
            .and_then(|mut c| call(&mut c, &requests[i], trace_id.as_deref(), time_codec));
        match resp {
            Ok(resp) => Shot {
                error: expect(&resp, "computed", None),
                payload: resp.result,
                trace_id,
            },
            Err(e) => Shot {
                error: Some(format!("transport: {e}")),
                payload: None,
                trace_id,
            },
        }
    })
}

/// Re-evaluates a sample of answers in this process and compares bytes.
fn check_in_process(requests: &[Request], shots: &mut [openloop::Timing<Shot>]) {
    for t in shots.iter_mut().step_by(CHECK_EVERY) {
        if t.outcome.error.is_some() {
            continue;
        }
        let r = &requests[t.index];
        let local = parse_json(&r.params)
            .map_err(|e| e.to_string())
            .and_then(|p| subvt_serve::Query::from_request(r.method, &p).map_err(|(_, m)| m))
            .and_then(|q| subvt_serve::query::compute(&q));
        match local {
            Ok(p) if Some(&p) == t.outcome.payload.as_ref() => {}
            Ok(_) => t.outcome.error = Some("differs from in-process evaluation".to_owned()),
            Err(e) => t.outcome.error = Some(format!("in-process evaluation failed: {e}")),
        }
    }
}

/// Per-layer numbers from the daemon's access log, joined to the
/// client's latency by trace id.
fn access_log_metrics(log: &Path, client_ms: &HashMap<String, f64>) -> Vec<Metric> {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let mut cols: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rejected = 0.0;
    for line in text.lines() {
        let Ok(entry) = parse_json(line) else {
            continue;
        };
        let Some(ms) = entry
            .get("trace_id")
            .and_then(Json::as_str)
            .and_then(|id| client_ms.get(id))
        else {
            continue;
        };
        if entry.get("outcome").and_then(Json::as_str) != Some("ok") {
            rejected += 1.0;
        }
        let phase = |k: &str| {
            entry
                .get("phases")
                .and_then(|p| p.get(k))
                .and_then(Json::as_f64)
        };
        let (Some(total), Some(queue), Some(compute), Some(serialize)) = (
            entry.get("total_us").and_then(Json::as_f64),
            phase("queue_us"),
            phase("compute_us"),
            phase("serialize_us"),
        ) else {
            continue;
        };
        cols.entry("admission").or_default().push(queue);
        cols.entry("compute").or_default().push(compute);
        cols.entry("serialize").or_default().push(serialize);
        cols.entry("dedup")
            .or_default()
            .push((total - queue - compute - serialize).max(0.0));
        cols.entry("total").or_default().push(total);
        cols.entry("outside").or_default().push(ms - total / 1e3);
    }
    let med = |name: &'static str, key: &str, unit: &'static str, stat: &str| {
        let v = cols.get(key).cloned().unwrap_or_default();
        Metric::new(name, stats::median(&v), unit, v.len(), stat)
    };
    vec![
        med(
            "serve.phase.admission_us",
            "admission",
            "us",
            "median of access-log queue_us",
        ),
        med(
            "serve.phase.dedup_us",
            "dedup",
            "us",
            "median of total_us minus the logged phases (cache lookup)",
        ),
        med(
            "serve.phase.compute_us",
            "compute",
            "us",
            "median of access-log compute_us",
        ),
        med(
            "serve.phase.serialize_us",
            "serialize",
            "us",
            "median of access-log serialize_us",
        ),
        med(
            "serve.server_total_us",
            "total",
            "us",
            "median of access-log total_us",
        ),
        med(
            "serve.outside_server_ms",
            "outside",
            "ms",
            "median of client latency minus access-log total",
        ),
        Metric::count("serve.rejected", rejected),
    ]
}

/// Loads a copy of the daemon's cache file in this process and times
/// the hit path on every key in it.
fn cache_probe(cache: &Path, work: &WorkDir) -> Result<Vec<Metric>, String> {
    let copy = work.path("probe.jsonl");
    std::fs::copy(cache, &copy).map_err(|e| format!("copying the cache: {e}"))?;
    let session = layers::timed("engine.cache.load", || {
        subvt_exp::cachefile::CacheSession::open(&copy)
    })
    .map_err(|e| format!("loading the cache: {e}"))?;
    let text = std::fs::read_to_string(&copy).unwrap_or_default();
    let global = subvt_engine::global_cache();
    for line in text.lines() {
        let Ok(entry) = parse_json(line) else {
            continue;
        };
        let (Some(ns), Some(key)) = (
            entry.get("ns").and_then(Json::as_str),
            entry
                .get("key")
                .and_then(Json::as_str)
                .and_then(|k| u64::from_str_radix(k, 16).ok()),
        ) else {
            continue;
        };
        let hit = layers::timed("engine.cache.lookup", || {
            global.try_get_or_compute::<Vec<f64>, ()>(ns, key, || Err(()))
        });
        std::hint::black_box(hit.ok());
    }
    session
        .close()
        .map_err(|e| format!("closing the cache: {e}"))?;
    let spans = layers::take();
    Ok(vec![
        report::span_median("engine.cache.load_ms", "ms", spans.get("engine.cache.load")),
        report::span_median(
            "engine.cache.lookup_us",
            "us",
            spans.get("engine.cache.lookup"),
        ),
    ])
}

fn cache_counts(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Vec<Metric> {
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let hit = delta("cache.serve.resp.hit");
    let miss = delta("cache.serve.resp.miss");
    vec![
        Metric::count("engine.cache.hit", hit),
        Metric::count("engine.cache.miss", miss),
        Metric::new(
            "engine.cache.hit_ratio",
            hit / (hit + miss).max(1.0),
            "ratio",
            (hit + miss) as usize,
            "serve.resp namespace",
        ),
    ]
}

/// Executor fork/join overhead: per-call time of mapping two trivial
/// jobs onto the engine pool.
fn probe_executor() {
    let pool = subvt_engine::global();
    for _ in 0..200 {
        let out = layers::timed("engine.executor.map", || pool.map(vec![1u64, 2], |x| x + 1));
        std::hint::black_box(out);
    }
}

/// Pins every thread of this process, and every process it starts from
/// now on, to vCPU 0 (with util-linux `taskset`; std has no affinity
/// call).
fn pin_to_cpu0() -> Result<(), String> {
    let pid = std::process::id().to_string();
    let status = Command::new("taskset")
        .args(["-a", "-p", "-c", "0", &pid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset: {status}"))
    }
}

pub fn run(args: &Args, mode: Mode) -> Result<Option<Outcome>, String> {
    if mode == Mode::Hot {
        pin_to_cpu0()?;
    }
    let bin = serve_bin()?;
    let work = WorkDir::new(&args.workload)?;
    let log = work.path("daemon.log");
    let access = args.trace.then(|| work.path("access.jsonl"));
    let mut notes = vec![("daemon".to_owned(), "--workers 2 --jobs 2".to_owned())];
    if mode == Mode::Hot {
        notes.push((
            "placement".to_owned(),
            format!("{HOT_CLIENTS} client, client and daemon pinned to vCPU 0"),
        ));
    }

    // Inputs, and for serve-hot the cache file built outside timing.
    let hot_cache = work.path("hot-cache.jsonl");
    let (requests, payloads) = match mode {
        Mode::Hot => {
            let set = working_set(args.seed);
            let payloads = prebuild(&bin, &hot_cache, &log, &set)?;
            (set, payloads)
        }
        Mode::OneShot => {
            let count = (RATE * args.seconds).round().max(1.0) as usize;
            notes.push(("offered_rate_hz".to_owned(), RATE.to_string()));
            (oneshot_requests(args.seed, count), Vec::new())
        }
    };
    let digest = gen::digest(&canonical(&requests));

    // Set-up samples; the last daemon started is the one measured.
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let cache_k = match mode {
            Mode::Hot => hot_cache.clone(),
            Mode::OneShot => work.path(&format!("oneshot-cache-{k}.jsonl")),
        };
        let last = k + 1 == SETUPS;
        let (d, secs) = Daemon::start(&bin, &cache_k, access.as_deref().filter(|_| last), &log)?;
        setups.push(secs);
        if last {
            daemon = Some((d, cache_k));
        } else {
            d.stop()?;
        }
    }
    let (daemon, cache) = daemon.expect("SETUPS > 0");
    notes.push(("setup_samples".to_owned(), format!("{setups:?}")));
    let before = daemon.counters()?;

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut hot_rss_mb = None;
    let (phases, client_ms, late_ms): (Vec<Phase>, HashMap<String, f64>, Vec<f64>) = match mode {
        Mode::Hot => {
            let halves: &[(bool, f64)] = if args.trace {
                &[(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
            } else {
                &[(false, args.seconds)]
            };
            let mut phases = Vec::new();
            let mut client_ms = HashMap::new();
            for (k, &(traced, secs)) in halves.iter().enumerate() {
                layers::set_enabled(traced);
                let p = hot_phase(
                    daemon.addr,
                    &requests,
                    &payloads,
                    args.seed,
                    k as u64,
                    secs,
                    traced,
                    (!args.trace).then(|| daemon.child.id()),
                )?;
                hot_rss_mb = hot_rss_mb.or(p.rss_mb);
                attempted += p.samples.len() as u64;
                for s in &p.samples {
                    if let Some(e) = &s.error {
                        failures.push(e.clone());
                    }
                    if let Some(id) = &s.trace_id {
                        client_ms.insert(id.clone(), s.latency_ms);
                    }
                }
                phases.push(hot_stats(&p));
            }
            if !args.trace {
                notes.push(("peak_rss_at_requests".to_owned(), RSS_AT.to_string()));
            }
            (phases, client_ms, Vec::new())
        }
        Mode::OneShot => {
            let mut phases = Vec::new();
            let mut client_ms = HashMap::new();
            let mut late_ms = Vec::new();
            // A traced run splits the schedule: first half untraced.
            let split = if args.trace {
                requests.len() / 2
            } else {
                requests.len()
            };
            for (traced, part) in [(false, &requests[..split]), (true, &requests[split..])] {
                if part.is_empty() {
                    continue;
                }
                layers::set_enabled(traced);
                let mut shots = oneshot_phase(daemon.addr, part, traced);
                check_in_process(part, &mut shots);
                attempted += shots.len() as u64;
                let ok = shots.iter().filter(|t| t.outcome.error.is_none()).count();
                let wall = shots.iter().map(|t| t.end).fold(0.0, f64::max);
                let lat: Vec<f64> = shots.iter().map(|t| t.latency() * 1e3).collect();
                for t in &shots {
                    if let Some(e) = &t.outcome.error {
                        failures.push(e.clone());
                    }
                    if let Some(id) = &t.outcome.trace_id {
                        client_ms.insert(id.clone(), t.latency() * 1e3);
                    }
                    if traced {
                        late_ms.push(t.lateness() * 1e3);
                    }
                }
                let mut phase = Phase::plain(lat, ok, wall);
                phase.stat = "median from due time".to_owned();
                phase.rate_stat = "correct requests / schedule span".to_owned();
                phases.push(phase);
            }
            (phases, client_ms, late_ms)
        }
    };
    layers::set_enabled(args.trace);
    let after = daemon.counters()?;
    // serve-oneshot serves a fixed schedule, so its end-of-run peak is
    // already independent of throughput.
    let rss = hot_rss_mb.unwrap_or_else(|| report::peak_rss_mb(Some(daemon.child.id())));
    daemon.stop()?;

    let metrics = if args.trace {
        let spans = layers::take();
        let mut m = cache_counts(&before, &after);
        m.push(report::span_median(
            "exp.json.parse_us",
            "us",
            spans.get("exp.json.parse"),
        ));
        m.extend(access_log_metrics(
            access.as_deref().expect("traced"),
            &client_ms,
        ));
        m.extend(cache_probe(&cache, &work)?);
        probe_executor();
        let spans = layers::take();
        m.push(report::span_median(
            "engine.executor.map_us",
            "us",
            spans.get("engine.executor.map"),
        ));
        if mode == Mode::OneShot {
            let t = stats::tail(&late_ms, 99.0);
            m.push(Metric::new(
                "bench.generator_late_ms",
                t.value,
                "ms",
                late_ms.len(),
                &t.label,
            ));
        }
        if let [plain, traced] = phases.as_slice() {
            m.extend(crate::overhead_metrics(plain, traced));
        }
        notes.push((
            "count_window".to_owned(),
            "cache counts cover both halves of the run".to_owned(),
        ));
        crate::per_layer(m)
    } else {
        crate::e2e_metrics(&setups, &phases[0], rss)
    };
    for f in failures.iter().take(20) {
        eprintln!("perfbench: {} check failed: {f}", args.workload);
    }
    Ok(Some(Outcome {
        metrics,
        attempted,
        failed: failures.len() as u64,
        input_digest: digest,
        notes,
    }))
}
