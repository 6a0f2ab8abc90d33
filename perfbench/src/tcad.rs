//! `tcad-extract`: per-device 2-D extraction through the TCAD backend.
//!
//! Set-up designs the Table 2 (super-V_th) and Table 3 (sub-V_th) nodes
//! with the compact model and calibrates a coarse-mesh
//! [`Fidelity::Direct`] [`TcadModel`] against the reference device. One
//! operation characterizes one seeded device variant (L_poly, N_sub and
//! N_p,halo perturbed around a node design): a full linear plus
//! saturation 2-D sweep and extraction, forked onto the engine pool.
//!
//! Devices cycle through four of the eight designs, those of similar
//! cost ([`ORDER`]), so every seed runs the same mix and only the
//! perturbations differ. The standard mesh is measured in the traced
//! run only (`tcad.id_vg.standard_ms`): one standard-mesh device takes
//! 6–8 s, so a run would hold three or four of them and its median
//! would swing with the machine's noise.

use std::time::Instant;

use subvt_model::DeviceModel;
use subvt_physics::device::{DeviceCharacteristics, DeviceParams};
use subvt_serve::proto::fmt_f64;
use subvt_tcad::gummel::DeviceSimulator;
use subvt_tcad::{continuity, extract, poisson, Fidelity, MeshDensity, Mosfet2d, TcadModel};
use subvt_units::{Nanometers, PerCubicCentimeter};

use crate::gen;
use crate::layers;
use crate::report::{self, Metric};
use crate::{Args, Outcome, Phase};

/// Devices generated per seed — more than any run consumes.
const DEVICES: usize = 64;
/// Relative perturbation half-widths: L_poly, N_sub, N_p,halo.
const PERTURB: [f64; 3] = [0.03, 0.05, 0.05];
/// Converged-state probes per traced sweep (steps back from V_g = V_dd).
const PROBE_STEPS: usize = 3;

/// Design indices (into [`crate::node_designs`]: 90, 65, 45, 32 nm,
/// super- then sub-V_th) in cycle order. Coarse-mesh costs differ by 3×
/// across the eight designs (0.8–2.7 s), and a run holds only a dozen
/// or so devices, so a median over all eight jumped with the count and
/// with which designs made it in. These four cost within ±10 % of each
/// other (1.5–1.7 s at the fast host state): 65 nm sub- and super-V_th,
/// 45 nm and 32 nm super-V_th.
const ORDER: [usize; 4] = [3, 4, 6, 2];

struct Setup {
    model: TcadModel,
    designs: Vec<DeviceParams>,
}

/// Designs every node under both flows and calibrates the backend.
fn setup() -> Result<Setup, String> {
    let designs = crate::node_designs()?.iter().map(|d| d.nfet).collect();
    let model = TcadModel::new(MeshDensity::Coarse, Fidelity::Direct);
    let anchor = DeviceParams::reference_90nm_nfet();
    let got = layers::timed("model.calibrate", || model.characterize(&anchor));
    check_reference(&anchor, &got.map_err(|e| e.to_string()))
        .map_err(|e| format!("calibration: {e}"))?;
    Ok(Setup { model, designs })
}

/// The seeded device list and its canonical text.
fn devices(seed: u64, designs: &[DeviceParams]) -> (Vec<DeviceParams>, String) {
    let mut rng = gen::rng(seed, "tcad-extract");
    let mut text = String::new();
    let list = (0..DEVICES)
        .map(|i| {
            let mut p = designs[ORDER[i % ORDER.len()]];
            let l = p.geometry.l_poly.get() * (1.0 + PERTURB[0] * gen::range(&mut rng, -1.0, 1.0));
            let n_sub = p.n_sub.get() * (1.0 + PERTURB[1] * gen::range(&mut rng, -1.0, 1.0));
            let halo = p.n_p_halo.get() * (1.0 + PERTURB[2] * gen::range(&mut rng, -1.0, 1.0));
            p.geometry.l_poly = Nanometers::new(l);
            p.n_sub = PerCubicCentimeter::new(n_sub);
            p.n_p_halo = PerCubicCentimeter::new(halo);
            text.push_str(&format!(
                "{i} l_poly_nm={} n_sub={} n_p_halo={} v_dd={}\n",
                fmt_f64(l),
                fmt_f64(n_sub),
                fmt_f64(halo),
                fmt_f64(p.v_dd.as_volts())
            ));
            p
        })
        .collect();
    (list, text)
}

/// Program counters one operation moved (from the engine's tracer).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    poisson_solves: f64,
    gummel_iterations: f64,
    recoveries: f64,
}

fn counts_now() -> Counts {
    let tracer = subvt_engine::trace::global();
    let gummel = tracer
        .snapshot()
        .hists
        .get("tcad.gummel.iterations")
        .map_or(0.0, |h| h.sum);
    let recoveries = subvt_engine::recovery::snapshot()
        .iter()
        .filter(|r| r.site.starts_with("tcad"))
        .count();
    Counts {
        poisson_solves: tracer.counter("tcad.poisson.solves") as f64,
        gummel_iterations: gummel,
        recoveries: recoveries as f64,
    }
}

type Chars = Result<DeviceCharacteristics, String>;

/// Layer probes after a traced operation: the saturation `id_vg` sweep
/// of the same device on the coarse and the standard mesh, then a few
/// `set_bias` steps back down the sweep, each followed by one Poisson
/// and one continuity solve on the converged state.
fn probe_layers(p: &DeviceParams) -> Result<(), String> {
    let v_dd = p.v_dd.as_volts();
    for (density, name) in [
        (MeshDensity::Coarse, "tcad.id_vg.coarse"),
        (MeshDensity::Standard, "tcad.id_vg.standard"),
    ] {
        let mut sim =
            DeviceSimulator::new(Mosfet2d::build(p, density)).map_err(|e| e.to_string())?;
        layers::timed(name, || extract::id_vg(&mut sim, v_dd, v_dd, 0.05))
            .map_err(|e| e.to_string())?;
        for k in 1..=PROBE_STEPS {
            let v_g = v_dd - 0.05 * k as f64;
            layers::timed("tcad.set_bias", || sim.set_bias(v_g, v_dd))
                .map_err(|e| e.to_string())?;
            probe_solvers(&sim);
        }
    }
    Ok(())
}

fn probe_solvers(sim: &DeviceSimulator) {
    let device = sim.device();
    let bias = sim.bias();
    let psi = sim.potential();
    let t = device.params.temperature;
    let vt = t.thermal_voltage().as_volts();
    let ni = subvt_physics::silicon::intrinsic_density(t).get();
    // The electron quasi-Fermi potential the Gummel loop linearizes on.
    let phi_n: Vec<f64> = psi
        .iter()
        .zip(sim.electron_density())
        .map(|(&psi, &n)| {
            if n > 0.0 {
                psi - vt * (n / ni).ln()
            } else {
                0.0
            }
        })
        .collect();
    let zeros = vec![0.0; device.len()];
    let mut psi_work = psi.to_vec();
    let out = layers::timed("tcad.poisson.solve", || {
        poisson::solve(device, &mut psi_work, &phi_n, &zeros, &bias)
    });
    std::hint::black_box(out);
    let n = layers::timed("tcad.continuity.solve", || {
        continuity::solve_electrons(device, psi, &bias)
    });
    std::hint::black_box(n);
}

/// The TCAD-vs-compact tolerances of the integration suite.
const SWING_TOL_MV: f64 = 12.0;
const DIBL_RATIO: (f64, f64) = (0.5, 2.0);
const IOFF_DECADES: f64 = 3.0;

/// Checks one characterization against the compact model. Every device
/// must be finite, with DIBL within a factor of two and off-current
/// within three decades of the compact values — the integration suite's
/// tolerances. The suite holds swing to within 12 mV/dec only on the
/// 90 nm reference device ([`check_reference`]); on scaled nodes the
/// 2-D swing degrades faster with L than the compact one (by up to
/// ~70 mV/dec at 32 nm), so here the swing must only stay above the
/// thermal limit and not undercut the compact swing by more than the
/// tolerance.
fn check(p: &DeviceParams, got: &Chars) -> Result<(), String> {
    let c = got.as_ref().map_err(Clone::clone)?;
    let fields = [
        c.s_s.get(),
        c.dibl,
        c.v_th_sat.as_volts(),
        c.i_off.get(),
        c.i_on.get(),
    ];
    if !fields.iter().all(|x| x.is_finite()) {
        return Err(format!("non-finite characterization {c:?}"));
    }
    let compact = p.characterize();
    let thermal = std::f64::consts::LN_10 * p.temperature.thermal_voltage().as_volts() * 1e3;
    let ss = c.s_s.get();
    let dibl = c.dibl / compact.dibl;
    let decades = (c.i_off.get() / compact.i_off.get()).log10().abs();
    if ss > thermal
        && ss > compact.s_s.get() - SWING_TOL_MV
        && (DIBL_RATIO.0..DIBL_RATIO.1).contains(&dibl)
        && decades < IOFF_DECADES
    {
        Ok(())
    } else {
        Err(format!(
            "vs compact: S_S {ss:.2} vs {:.2} mV/dec, DIBL ratio {dibl:.3}, I_off {decades:.2} decades",
            compact.s_s.get()
        ))
    }
}

/// The suite's full check on the 90 nm reference device, characterized
/// through each calibrated backend during set-up: swing within
/// 12 mV/dec as well.
fn check_reference(anchor: &DeviceParams, got: &Chars) -> Result<(), String> {
    check(anchor, got)?;
    let c = got.as_ref().map_err(Clone::clone)?;
    let diff = (c.s_s.get() - anchor.characterize().s_s.get()).abs();
    if diff < SWING_TOL_MV {
        Ok(())
    } else {
        Err(format!(
            "reference device: S_S off the compact model by {diff:.2} mV/dec"
        ))
    }
}

struct PhaseRun {
    phase: Phase,
    attempted: u64,
    /// Counters moved by the phase's first operation.
    first_op: Counts,
    failures: Vec<String>,
}

/// Characterizes devices from `next` on until `seconds` have passed;
/// the operation in flight at the deadline completes and counts.
///
/// Each device is timed once. A device takes 1–3 s, so one timing
/// already averages over several of the host's fast and slow stretches
/// and best-of-k ([`crate::paired`]) buys nothing: over ten runs the
/// median of best-of-two timings spread 0.154, the median of the same
/// runs' single timings 0.06.
fn timed_phase(
    setup: &Setup,
    devices: &[DeviceParams],
    next: &mut usize,
    seconds: f64,
    probe: bool,
) -> Result<PhaseRun, String> {
    let mut results = Vec::new();
    let mut latencies = Vec::new();
    let mut first_op = Counts::default();
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = devices[*next % devices.len()];
        *next += 1;
        let before = counts_now();
        let t = Instant::now();
        let chars = setup.model.characterize(&p).map_err(|e| e.to_string());
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if latencies.len() == 1 {
            let after = counts_now();
            first_op = Counts {
                poisson_solves: after.poisson_solves - before.poisson_solves,
                gummel_iterations: after.gummel_iterations - before.gummel_iterations,
                recoveries: after.recoveries - before.recoveries,
            };
        }
        results.push((p, chars));
        if probe {
            // Outside the operation's latency but inside the phase.
            probe_layers(&p)?;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let failures: Vec<String> = results
        .iter()
        .filter_map(|(p, chars)| {
            let l = p.geometry.l_poly.get();
            check(p, chars).err().map(|e| format!("l_poly={l}: {e}"))
        })
        .collect();
    let ok = results.len() - failures.len();
    // Probes run inside the phase; the rate counts operation time only.
    let busy: f64 = if probe {
        latencies.iter().sum::<f64>() / 1e3
    } else {
        wall
    };
    Ok(PhaseRun {
        phase: Phase::plain(latencies, ok, busy),
        attempted: results.len() as u64,
        first_op,
        failures,
    })
}

pub fn run(args: &Args, started: Instant) -> Result<Option<Outcome>, String> {
    let setup = setup()?;
    let own_setup = started.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {own_setup}");
        return Ok(None);
    }
    let mut setups = vec![own_setup];
    if !args.trace {
        setups.extend(crate::child_setups(args, 2)?);
    }

    let (devices, text) = devices(args.seed, &setup.designs);
    let mut next = 0;
    let mut notes = vec![
        ("ops".to_owned(), "one device, coarse mesh".to_owned()),
        ("setup_samples".to_owned(), format!("{setups:?}")),
    ];
    let (metrics, attempted, failures) = if args.trace {
        let calib = layers::take();
        layers::set_enabled(false);
        let plain = timed_phase(&setup, &devices, &mut next, args.seconds / 2.0, false)?;
        // The traced phase starts at a fixed device, so the counts of
        // its first devices repeat exactly for a seed.
        next = DEVICES / 2;
        layers::set_enabled(true);
        let traced = timed_phase(&setup, &devices, &mut next, args.seconds / 2.0, true)?;
        let spans = layers::take();
        let mut m = vec![
            report::span_median("tcad.id_vg.coarse_ms", "ms", spans.get("tcad.id_vg.coarse")),
            report::span_median(
                "tcad.id_vg.standard_ms",
                "ms",
                spans.get("tcad.id_vg.standard"),
            ),
            report::span_median("tcad.set_bias_ms", "ms", spans.get("tcad.set_bias")),
            report::span_median(
                "tcad.poisson.solve_ms",
                "ms",
                spans.get("tcad.poisson.solve"),
            ),
            report::span_median(
                "tcad.continuity.solve_ms",
                "ms",
                spans.get("tcad.continuity.solve"),
            ),
            Metric::count("tcad.poisson.solves", traced.first_op.poisson_solves),
            Metric::count("tcad.gummel.iterations", traced.first_op.gummel_iterations),
            Metric::count("tcad.recoveries", traced.first_op.recoveries),
            report::span_median("model.calibrate_s", "s", calib.get("model.calibrate")),
        ];
        // Share of a device's latency spent in its saturation sweep
        // (it runs beside the shorter linear sweep and sets the
        // latency): how much of the operation is TCAD solver time.
        m.push(Metric::new(
            "tcad.op_share",
            m[0].value / traced.phase.p50_ms,
            "ratio",
            traced.phase.latencies_ms.len(),
            "median coarse sat sweep / median op",
        ));
        m.extend(crate::overhead_metrics(&plain.phase, &traced.phase));
        notes.push((
            "count_window".to_owned(),
            "counts cover the traced phase's first device".to_owned(),
        ));
        let mut failures = plain.failures;
        failures.extend(traced.failures);
        (
            crate::per_layer(m),
            plain.attempted + traced.attempted,
            failures,
        )
    } else {
        let run = timed_phase(&setup, &devices, &mut next, args.seconds, false)?;
        let m = crate::e2e_metrics(&setups, &run.phase, report::peak_rss_mb(None));
        (m, run.attempted, run.failures)
    };
    for f in &failures {
        eprintln!("perfbench: tcad-extract check failed: {f}");
    }
    Ok(Some(Outcome {
        metrics,
        attempted,
        failed: failures.len() as u64,
        input_digest: gen::digest(&text),
        notes,
    }))
}
