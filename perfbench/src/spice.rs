//! `spice-circuits`: circuit evaluations through the spice backend.
//!
//! Set-up runs both node-design flows with the compact model. Each
//! operation takes one seeded (node design, flow, V_dd ∈ [0.2, 0.4] V,
//! T ∈ [280, 360] K) tuple through `spice_circuit()` or the topology
//! benches. Operations follow a fixed 22-operation block — the kind
//! mix is identical for every seed, so the median sits inside the FO1
//! cluster and the p99 inside the minimum-energy-point cluster on every
//! run. Every tuple is distinct, so each operation misses the fresh
//! in-process cache and really simulates. Each operation is timed three
//! times ([`paired`]), the repeats on replicas a few representable steps
//! away in V_dd and T, and its latency is the fastest timing.

use std::time::Instant;

use subvt_circuits::chain::{EnergyPoint, InverterChain, MinimumEnergyPoint};
use subvt_circuits::delay::{analytic_fo1_delay, Fo1Delay};
use subvt_circuits::gates::{Gate2, GateKind, OtherInput};
use subvt_circuits::montecarlo::{DelayStatistics, SnmStatistics};
use subvt_circuits::ring::RingOscillation;
use subvt_circuits::topology::{self, Cell, CellSpec, InputVector, Load, Stimulus, Testbench};
use subvt_circuits::{analytic_circuit, noise_margins, spice_circuit, CmosPair, Vtc};
use subvt_core::NodeDesign;
use subvt_physics::iv::MosModel;
use subvt_serve::proto::fmt_f64;
use subvt_units::{Temperature, Volts};

use crate::gen;
use crate::layers::{self, Sample};
use crate::paired;
use crate::report::{self, Metric};
use crate::{Args, Outcome, Phase};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Vtc,
    Fo1,
    Chain,
    Mep,
    DelayMc,
    SnmMc,
    GateSnm,
    Ring,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Vtc => "vtc",
            Kind::Fo1 => "fo1",
            Kind::Chain => "chain_energy",
            Kind::Mep => "mep",
            Kind::DelayMc => "delay_mc",
            Kind::SnmMc => "snm_mc",
            Kind::GateSnm => "gate_snm",
            Kind::Ring => "ring",
        }
    }
}

use Kind::*;

/// One block: 3 VTC, 8 FO1, 2 chain energy, 1 MEP, 2+2 Monte-Carlo
/// batches, 2 gate SNM and 2 ring oscillators. Sorted by cost the FO1
/// cluster spans ranks 10–17 of 22 (the median falls inside it) and the
/// MEP is the slowest 4.5 % (the p99 falls inside it).
const BLOCK: [Kind; 22] = [
    Vtc, Fo1, DelayMc, Fo1, GateSnm, Fo1, SnmMc, Chain, Fo1, Ring, Vtc, Fo1, DelayMc, Fo1, GateSnm,
    Mep, Fo1, SnmMc, Chain, Ring, Vtc, Fo1,
];
/// Operations generated per seed — more than any run consumes.
const OPS: usize = BLOCK.len() * 400;
const VTC_POINTS: usize = 81;
const GATE_POINTS: usize = 61;
const RING_STAGES: usize = 5;
const RING_STEPS: usize = 1500;
const DELAY_MC_SAMPLES: usize = 32;
const SNM_MC_SAMPLES: usize = 16;
/// Seconds between an operation's timings: longer than most of the
/// host's fast and slow stretches, so they land in independent states.
const CHUNK_S: f64 = 3.0;
/// Traced runs probe the layers below the backend every this many
/// timings.
const PROBE_EVERY: usize = 11;
const IV_EVALS: usize = 512;

#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: Kind,
    design: usize,
    v_dd: f64,
    temp_k: f64,
    mc_seed: u64,
    nand: bool,
}

/// The seeded operation list and its canonical text.
fn specs(seed: u64, designs: usize) -> (Vec<Spec>, String) {
    let mut rng = gen::rng(seed, "spice-circuits");
    let mut text = String::new();
    let list = (0..OPS)
        .map(|i| {
            let s = Spec {
                kind: BLOCK[i % BLOCK.len()],
                design: gen::index(&mut rng, designs),
                v_dd: gen::range(&mut rng, 0.2, 0.4),
                temp_k: gen::range(&mut rng, 280.0, 360.0),
                mc_seed: rng.next_u64(),
                nand: rng.next_u64() & 1 == 0,
            };
            text.push_str(&format!(
                "{i} {} design={} v_dd={} temp_k={} mc_seed={} nand={}\n",
                s.kind.name(),
                s.design,
                fmt_f64(s.v_dd),
                fmt_f64(s.temp_k),
                s.mc_seed,
                s.nand
            ));
            s
        })
        .collect();
    (list, text)
}

fn pair(designs: &[NodeDesign], s: &Spec) -> CmosPair {
    subvt_exp::backend::pair_at(&designs[s.design], Temperature::from_kelvin(s.temp_k))
}

fn gate(s: &Spec) -> GateKind {
    if s.nand {
        GateKind::Nand2
    } else {
        GateKind::Nor2
    }
}

enum Got {
    Vtc(Vtc, f64),
    Fo1(Fo1Delay),
    Chain(EnergyPoint),
    Mep(MinimumEnergyPoint),
    DelayMc(DelayStatistics),
    SnmMc(SnmStatistics),
    GateSnm(f64),
    Ring(RingOscillation),
}

/// One timed operation.
fn execute(s: &Spec, p: &CmosPair) -> Result<Got, String> {
    let spice = spice_circuit();
    let v = Volts::new(s.v_dd);
    let e = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match s.kind {
        Vtc => layers::timed("circuits.vtc", || -> Result<Got, String> {
            let vtc = spice.vtc(p, v, VTC_POINTS).map_err(|x| e(&x))?;
            let snm = noise_margins(&vtc).ok_or("VTC has no noise margins")?.snm();
            Ok(Got::Vtc(vtc, snm))
        })?,
        Fo1 => {
            Got::Fo1(layers::timed("circuits.fo1", || spice.fo1_delay(p, v)).map_err(|x| e(&x))?)
        }
        Chain => Got::Chain(
            layers::timed("circuits.chain_energy", || {
                spice.chain_energy(&InverterChain::paper_chain(*p), v)
            })
            .map_err(|x| e(&x))?,
        ),
        Mep => Got::Mep(
            layers::timed("circuits.mep", || {
                spice.minimum_energy_point(&InverterChain::paper_chain(*p))
            })
            .map_err(|x| e(&x))?,
        ),
        DelayMc => Got::DelayMc(
            layers::timed("circuits.mc_batch", || {
                spice.delay_variability(p, v, DELAY_MC_SAMPLES, s.mc_seed)
            })
            .map_err(|x| e(&x))?
            .0,
        ),
        SnmMc => Got::SnmMc(
            layers::timed("circuits.mc_batch", || {
                spice.snm_variability(p, v, SNM_MC_SAMPLES, s.mc_seed)
            })
            .map_err(|x| e(&x))?
            .0,
        ),
        GateSnm => {
            Got::GateSnm(topology::cached_gate_snm(p, gate(s), v, GATE_POINTS).map_err(|x| e(&x))?)
        }
        Ring => Got::Ring(
            topology::cached_ring_oscillation(p, v, RING_STAGES, RING_STEPS).map_err(|x| e(&x))?,
        ),
    })
}

fn within(name: &str, ratio: f64, lo: f64, hi: f64) -> Result<(), String> {
    if ratio.is_finite() && (lo..hi).contains(&ratio) {
        Ok(())
    } else {
        Err(format!("{name} ratio {ratio} outside [{lo}, {hi})"))
    }
}

/// Checks one result against the analytic backend with the bounds the
/// tier-1 parity tests use.
fn check(s: &Spec, p: &CmosPair, got: &Got) -> Result<(), String> {
    let analytic = analytic_circuit();
    let v = Volts::new(s.v_dd);
    let e = |e: &dyn std::fmt::Display| e.to_string();
    match got {
        Got::Vtc(vtc, snm) => {
            // Identical deck on both backends: solver precision.
            let a = analytic.vtc(p, v, VTC_POINTS).map_err(|x| e(&x))?;
            let dev = a
                .v_out
                .iter()
                .zip(&vtc.v_out)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            let a_snm = noise_margins(&a)
                .ok_or("analytic VTC has no margins")?
                .snm();
            if dev < 1e-9 && (a_snm - snm).abs() < 1e-9 && a.v_out.len() == vtc.v_out.len() {
                Ok(())
            } else {
                Err(format!("VTC deviation {dev} V, SNM {snm} vs {a_snm}"))
            }
        }
        Got::Fo1(d) => {
            let a = analytic.fo1_delay(p, v).map_err(|x| e(&x))?;
            within("FO1 delay", d.average().get() / a.average().get(), 0.9, 1.1)
        }
        Got::Chain(point) => {
            let chain = InverterChain::paper_chain(*p);
            let a = analytic.chain_energy(&chain, v).map_err(|x| e(&x))?;
            within(
                "chain energy",
                point.total().get() / a.total().get(),
                1.0 / 3.0,
                3.0,
            )
        }
        Got::Mep(mep) => {
            let chain = InverterChain::paper_chain(*p);
            let a = analytic.minimum_energy_point(&chain).map_err(|x| e(&x))?;
            let v_min = mep.v_min.as_volts();
            if !(0.08..=0.7).contains(&v_min) {
                return Err(format!("MEP supply {v_min} V outside the search bounds"));
            }
            within(
                "MEP energy",
                mep.energy.get() / a.energy.get(),
                1.0 / 3.0,
                3.0,
            )
        }
        Got::DelayMc(stats) => {
            // Same seed, same perturbations: per-sample agreement.
            let (a, _) = analytic
                .delay_variability(p, v, DELAY_MC_SAMPLES, s.mc_seed)
                .map_err(|x| e(&x))?;
            if a.samples.len() != stats.samples.len() {
                return Err(format!(
                    "delay MC kept {} of {} samples",
                    stats.samples.len(),
                    a.samples.len()
                ));
            }
            let worst = a
                .samples
                .iter()
                .zip(&stats.samples)
                .map(|(x, y)| ((x - y) / x).abs())
                .fold(0.0f64, f64::max);
            within("delay MC per-sample", 1.0 + worst, 1.0, 1.01)
        }
        Got::SnmMc(stats) => {
            let (a, _) = analytic
                .snm_variability(p, v, SNM_MC_SAMPLES, s.mc_seed)
                .map_err(|x| e(&x))?;
            within(
                "SNM MC mean",
                stats.mean.as_volts() / a.mean.as_volts(),
                0.6,
                1.6,
            )
        }
        Got::GateSnm(snm) => {
            let g = if s.nand {
                Gate2::nand2(*p)
            } else {
                Gate2::nor2(*p)
            };
            let direct = g.worst_case_snm(v, GATE_POINTS).map_err(|x| e(&x))?;
            if direct == *snm {
                Ok(())
            } else {
                Err(format!("gate SNM {snm} vs uncached {direct}"))
            }
        }
        Got::Ring(osc) => {
            let tp = analytic_fo1_delay(p, v).get();
            within(
                "ring stage delay / FO1",
                osc.stage_delay.get() / tp,
                0.2,
                4.0,
            )
        }
    }
}

/// Calls into the layers below the backend on the operation's devices:
/// compact characterization, I–V evaluation, bench compilation, one DC
/// operating point and one short transient.
fn probe_layers(s: &Spec, p: &CmosPair) -> Result<(), String> {
    let v_dd = Volts::new(s.v_dd);
    let chars = layers::timed("physics.characterize", || p.nfet.characterize());
    let model = MosModel::from_device(&p.nfet, &chars);
    let t = Instant::now();
    let mut acc = 0.0;
    for k in 0..IV_EVALS {
        let v_gs = Volts::new(s.v_dd * k as f64 / IV_EVALS as f64);
        acc += model.drain_current_and_derivs(v_gs, v_dd).0.get();
    }
    let per_call = t.elapsed().as_secs_f64() / IV_EVALS as f64;
    std::hint::black_box(acc);
    layers::record(
        "physics.iv_eval",
        Sample {
            total: per_call,
            own: per_call,
        },
    );

    let vtc_bench = layers::timed("circuits.compile", || {
        CellSpec::inverter(*p).compile(&Testbench::Vtc {
            v_dd,
            points: VTC_POINTS,
            other: OtherInput::Low,
        })
    });
    std::hint::black_box(vtc_bench.map_err(|x| x.to_string())?);
    let loaded = CellSpec {
        cell: Cell::Inverter,
        pair: *p,
        load: Load::Fanout(1.0),
    };
    let leak = loaded
        .compile(&Testbench::Leakage {
            v_dd,
            inputs: InputVector::One(true),
        })
        .map_err(|x| x.to_string())?;
    layers::timed("spice.dc_op", || leak.run_operating_point()).map_err(|x| x.to_string())?;
    let tran = loaded
        .compile(&Testbench::Transient {
            v_dd,
            stimulus: Stimulus::EnergyPulse,
            steps: 400,
        })
        .map_err(|x| x.to_string())?;
    layers::timed("spice.transient", || tran.run_transient()).map_err(|x| x.to_string())?;
    Ok(())
}

struct PhaseRun {
    phase: Phase,
    attempted: u64,
    /// `spice.lu.factor`, `spice.lu.resolve` moved by the phase's first
    /// block of operations, and the benchmark's own DC calls there.
    first_block: [f64; 3],
    failures: Vec<String>,
}

/// `x` moved up by `k` representable steps: a replica input that keys
/// differently in every cache but does the same work.
fn ulps_up(x: f64, k: usize) -> f64 {
    (0..k).fold(x, |x, _| x.next_up())
}

/// Runs operations from `next` on for `seconds`, each timed
/// [`paired::PASSES`] times [`CHUNK_S`] apart. The k-th repeat runs at
/// V_dd and T moved up k representable steps, so it misses every cache.
fn timed_phase(
    designs: &[NodeDesign],
    specs: &[Spec],
    next: &mut usize,
    seconds: f64,
    probe: bool,
) -> Result<PhaseRun, String> {
    let tracer = subvt_engine::trace::global();
    let lu = || {
        [
            tracer.counter("spice.lu.factor") as f64,
            tracer.counter("spice.lu.resolve") as f64,
        ]
    };
    let mut done = Vec::new();
    let mut first_block = [0.0; 3];
    let start = Instant::now();
    let timed = paired::run(
        seconds,
        CHUNK_S,
        paired::PASSES,
        || {
            *next += 1;
            specs[(*next - 1) % specs.len()]
        },
        |s, pass| -> Result<f64, String> {
            let s = Spec {
                v_dd: ulps_up(s.v_dd, pass),
                temp_k: ulps_up(s.temp_k, pass),
                ..*s
            };
            let before = lu();
            let t = Instant::now();
            let p = pair(designs, &s);
            let got = execute(&s, &p);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            done.push((s, p, got));
            let in_block = done.len() <= BLOCK.len();
            if in_block {
                let after = lu();
                first_block[0] += after[0] - before[0];
                first_block[1] += after[1] - before[1];
            }
            if probe && done.len() % PROBE_EVERY == 1 {
                probe_layers(&s, &p)?;
                if in_block {
                    first_block[2] += 1.0;
                }
            }
            Ok(ms)
        },
    )?;
    let wall = start.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    for (s, p, got) in &done {
        if let Err(e) = got
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|g| check(s, p, g))
        {
            failures.push(format!(
                "{} design={} v_dd={} temp_k={}: {e}",
                s.kind.name(),
                s.design,
                s.v_dd,
                s.temp_k
            ));
        }
    }
    let ok = done.len() - failures.len();
    let busy = if probe {
        timed.iter().flat_map(|t| &t.ms).sum::<f64>() / 1e3
    } else {
        wall
    };
    Ok(PhaseRun {
        phase: Phase::paired(&timed, ok, busy),
        attempted: done.len() as u64,
        first_block,
        failures,
    })
}

pub fn run(args: &Args, started: Instant) -> Result<Option<Outcome>, String> {
    let designs = crate::node_designs()?;
    let own_setup = started.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {own_setup}");
        return Ok(None);
    }
    let mut setups = vec![own_setup];
    // Set-up is ~20 ms, so a run can afford many fresh-process samples.
    setups.extend(crate::child_setups(args, 30)?);

    let (specs, text) = specs(args.seed, designs.len());
    let mut next = 0;
    let mut notes = vec![
        ("ops".to_owned(), "one circuit evaluation".to_owned()),
        ("setup_samples".to_owned(), format!("{setups:?}")),
    ];
    let (metrics, attempted, failures) = if args.trace {
        let design_spans = layers::take();
        layers::set_enabled(false);
        let plain = timed_phase(&designs, &specs, &mut next, args.seconds / 2.0, false)?;
        // The traced phase starts at a fixed operation, so the counts of
        // its first operations repeat exactly for a seed.
        next = OPS / 2;
        layers::set_enabled(true);
        let traced = timed_phase(&designs, &specs, &mut next, args.seconds / 2.0, true)?;
        let spans = layers::take();
        let [factor, resolve, dc_calls] = traced.first_block;
        let mut m = vec![
            report::span_median("core.design_ms", "ms", design_spans.get("core.design")),
            report::span_median(
                "physics.characterize_us",
                "us",
                spans.get("physics.characterize"),
            ),
            report::span_median("physics.iv_eval_ns", "ns", spans.get("physics.iv_eval")),
            report::span_median("circuits.compile_us", "us", spans.get("circuits.compile")),
            report::span_median("circuits.vtc_ms", "ms", spans.get("circuits.vtc")),
            report::span_median("circuits.fo1_ms", "ms", spans.get("circuits.fo1")),
            report::span_median(
                "circuits.chain_energy_ms",
                "ms",
                spans.get("circuits.chain_energy"),
            ),
            report::span_median("circuits.mep_ms", "ms", spans.get("circuits.mep")),
            report::span_median("circuits.mc_batch_ms", "ms", spans.get("circuits.mc_batch")),
            report::span_median("spice.dc_op_ms", "ms", spans.get("spice.dc_op")),
            report::span_median("spice.transient_ms", "ms", spans.get("spice.transient")),
            Metric::count("spice.lu.factor", factor),
            Metric::count("spice.lu.resolve", resolve),
            Metric::new(
                "spice.lu.resolve_per_factor",
                resolve / factor.max(1.0),
                "ratio",
                1,
                "count ratio",
            ),
            Metric::count("spice.dc.calls", dc_calls),
        ];
        m.extend(crate::overhead_metrics(&plain.phase, &traced.phase));
        notes.push((
            "count_window".to_owned(),
            format!(
                "counts cover the traced phase's first {} operations",
                BLOCK.len()
            ),
        ));
        let mut failures = plain.failures;
        failures.extend(traced.failures);
        (
            crate::per_layer(m),
            plain.attempted + traced.attempted,
            failures,
        )
    } else {
        let run = timed_phase(&designs, &specs, &mut next, args.seconds, false)?;
        let m = crate::e2e_metrics(&setups, &run.phase, report::peak_rss_mb(None));
        (m, run.attempted, run.failures)
    };
    for f in failures.iter().take(20) {
        eprintln!("perfbench: spice-circuits check failed: {f}");
    }
    Ok(Some(Outcome {
        metrics,
        attempted,
        failed: failures.len() as u64,
        input_digest: gen::digest(&text),
        notes,
    }))
}
