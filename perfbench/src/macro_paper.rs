//! `macro-paper`: batch-1 `CimMacro::matvec` on the paper's 576×256 E2M5
//! macro with ideal, slowly drifting devices. Every 64th call is preceded
//! by an age step, which invalidates the conductance-kernel cache so its
//! rebuild runs beside warm reads.

use afpr_circuit::fp_adc::FpAdc;
use afpr_circuit::fp_dac::FpDac;
use afpr_circuit::units::{Amps, Seconds, Volts};
use afpr_device::DeviceConfig;
use afpr_num::FpFormat;
use afpr_xbar::quant::{FpActQuantizer, SignedActivation};
use afpr_xbar::{CimMacro, MacroMode, MacroSpec};

use crate::inproc;
use crate::inputs::{heavy_tailed, rng, shuffle, uniform};
use crate::report::Outcome;
use crate::stats::{peak_rss_mb, same_bits, Accuracy};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx};

const ROWS: usize = 576;
const COLS: usize = 256;
/// Distinct seeded input vectors; calls cycle through a seeded order.
const POOL: usize = 1024;
const AGE_EVERY: u64 = 64;
const AGE_STEP_S: f64 = 60.0;
/// Calls of the deterministic probe pass that feeds the oracle, the
/// simulated metrics and the ledger.
const PROBE_CALLS: u64 = 1024;
/// The seeded inputs: weights, input pool and call order.
pub struct Inputs {
    weights: Vec<f32>,
    pool: Vec<Vec<f32>>,
    order: Vec<usize>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let weights = uniform(&mut rng(seed, 1), ROWS * COLS);
        let mut r = rng(seed, 2);
        let pool = (0..POOL).map(|_| heavy_tailed(&mut r, ROWS)).collect();
        let mut order: Vec<usize> = (0..POOL).collect();
        shuffle(&mut rng(seed, 3), &mut order);
        Self {
            weights,
            pool,
            order,
        }
    }

    fn input(&self, call: u64) -> &[f32] {
        &self.pool[self.order[call as usize % POOL]]
    }
}

pub fn spec() -> MacroSpec {
    let mut spec = MacroSpec::paper(MacroMode::FpE2M5);
    spec.device = DeviceConfig::ideal(32).with_drift(0.005);
    spec
}

/// Programs, range-calibrates and warms one macro (the timed set-up).
pub fn build(seed: u64, inputs: &Inputs) -> CimMacro {
    let mut mac = CimMacro::with_seed(spec(), seed);
    mac.program_weights(&inputs.weights);
    let calib: Vec<Vec<SignedActivation>> = inputs.pool[..8]
        .iter()
        .map(|x| FpActQuantizer::calibrate(x, FpFormat::E2M5).quantize_slice(x))
        .collect();
    mac.calibrate_range(&calib);
    mac.warm_kernel();
    mac
}

/// One workload call: the age step (every 64th call), then the matvec.
fn call(mac: &mut CimMacro, inputs: &Inputs, i: u64) -> Vec<f32> {
    if i > 0 && i.is_multiple_of(AGE_EVERY) {
        mac.advance_age(Seconds::new(AGE_STEP_S));
    }
    mac.matvec(inputs.input(i))
}

fn kernel_builds(mac: &CimMacro) -> u64 {
    let (p, n) = mac.arrays();
    p.kernel_builds() + n.kernel_builds()
}

/// Deterministic counts of the probe pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub conversions: u64,
    pub ops: u64,
    pub saturations: u64,
    pub underflows: u64,
    pub kernel_rebuilds: u64,
    pub energy_bits: u64,
    pub joules: f64,
}

/// Runs the probe pass (calls `0..PROBE_CALLS`) and returns its outputs
/// and ledger.
fn probe_pass(mac: &mut CimMacro, inputs: &Inputs) -> (Vec<Vec<f32>>, Ledger) {
    let before = *mac.stats();
    let builds = kernel_builds(mac);
    let outs = (0..PROBE_CALLS).map(|i| call(mac, inputs, i)).collect();
    let s = mac.stats();
    let joules = s.energy.total().joules() - before.energy.total().joules();
    let ledger = Ledger {
        conversions: s.conversions - before.conversions,
        ops: s.ops - before.ops,
        saturations: s.saturations - before.saturations,
        underflows: s.underflows - before.underflows,
        kernel_rebuilds: kernel_builds(mac) - builds,
        energy_bits: s.energy.total().joules().to_bits(),
        joules,
    };
    (outs, ledger)
}

/// `f64` reference `W·x` from the programmed weights.
fn reference(inputs: &Inputs, x: &[f32]) -> Vec<f64> {
    let mut y = vec![0.0f64; COLS];
    for (r, &xr) in x.iter().enumerate() {
        if xr == 0.0 {
            continue;
        }
        let row = &inputs.weights[r * COLS..(r + 1) * COLS];
        for (yc, &w) in y.iter_mut().zip(row) {
            *yc += f64::from(xr) * f64::from(w);
        }
    }
    y
}

/// Simulated accuracy of the probe outputs against `f64` `W·x`.
fn accuracy(inputs: &Inputs, outs: &[Vec<f32>]) -> Accuracy {
    let mut acc = Accuracy::default();
    for (i, y) in outs.iter().enumerate() {
        acc.add(y, &reference(inputs, inputs.input(i as u64)));
    }
    acc
}

/// Timed set-ups (median reported), the probe pass on two instances of one
/// seed (outputs and ledger must agree bit for bit), then the timed phases
/// on the first instance.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let inputs = Inputs::new(ctx.seed);
    let (setup_s, mut mac) = timed_setups(|| build(ctx.seed, &inputs), drop);
    let mut twin = build(ctx.seed, &inputs);

    let (outs, ledger) = probe_pass(&mut mac, &inputs);
    let (twin_outs, twin_ledger) = probe_pass(&mut twin, &inputs);
    drop(twin);
    out.attempted += PROBE_CALLS;
    if outs.len() != twin_outs.len() || !outs.iter().zip(&twin_outs).all(|(a, b)| same_bits(a, b)) {
        out.failed += PROBE_CALLS;
        out.error("macro-paper: probe outputs differ between two set-ups of one seed");
    }
    if ledger != twin_ledger {
        out.error(format!(
            "macro-paper: ledger differs between set-ups: {ledger:?} vs {twin_ledger:?}"
        ));
    }
    let acc = accuracy(&inputs, &outs);

    let mut next = PROBE_CALLS;
    let mut bad = 0u64;
    let mut check = |y: Vec<f32>| {
        if y.len() != COLS || !y.iter().all(|v| v.is_finite()) {
            bad += 1;
        }
    };
    let closed = inproc::closed(ctx.seconds, 1100, AGE_EVERY, &mut next, &mut |i| {
        check(call(&mut mac, &inputs, i))
    });
    out.attempted += next - PROBE_CALLS;
    out.failed += bad;
    if bad > 0 {
        out.error(format!(
            "macro-paper: {bad} calls returned malformed outputs"
        ));
    }

    out.metric("setup_s", setup_s, "s");
    out.metric("rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", closed.ops_per_s(), "1/s");
    out.metric("p50_ms", closed.p50().unwrap_or(f64::NAN), "ms");
    out.metric("p99_ms", closed.p99().unwrap_or(f64::NAN), "ms");
    let tops_per_w = ledger.ops as f64 / ledger.joules / 1e12;
    println!("sim_tops_per_w {tops_per_w:.3} TOPS/W (paper anchor: 19.89 TOPS/W)");
    out.metric("sim_tops_per_w", tops_per_w, "TOPS/W");
    out.metric("sim_sqnr_db", acc.sqnr_db(), "dB");
    out.metric("sim_top1_agree", acc.top1(), "share");
}

/// Per-layer probe of the macro's stages: the probe pass replayed stage by
/// stage on the same codes and currents (quantize → FP-DAC → kernel →
/// energy → FP-ADC), beside the real `CimMacro::matvec` on the same input.
pub fn layer_probe(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let inputs = Inputs::new(seed);
    let mut mac = build(seed, &inputs);
    let spec = spec();
    let dac = FpDac::new(spec.fp_dac);
    let adc = FpAdc::new(spec.fp_adc);
    let t_int = spec.fp_adc.t_integrate;
    let mut exp_hist = [0u64; 4];
    let (mut convs, mut sats, mut unders, mut passes) = (0u64, 0u64, 0u64, 0u64);
    let mut rebuilds = 0u64;
    let mut replay_mismatch = 0u64;
    for i in 0..PROBE_CALLS {
        if i > 0 && i.is_multiple_of(AGE_EVERY) {
            mac.advance_age(Seconds::new(AGE_STEP_S));
            let b = kernel_builds(&mac);
            tr.span("kernel.rebuild", i, || mac.warm_kernel());
            rebuilds += kernel_builds(&mac) - b;
        }
        let x = inputs.input(i).to_vec();
        tr.enter("cim_macro.replay", i);
        let acts = tr.span("quant", i, || {
            FpActQuantizer::calibrate(&x, FpFormat::E2M5).quantize_slice(&x)
        });
        let (pos, neg) = mac.arrays();
        let mut net = vec![0.0f64; COLS];
        for negative in [false, true] {
            if !acts
                .iter()
                .any(|a| a.negative == negative && a.code.is_some())
            {
                continue;
            }
            let v: Vec<Volts> = tr.span("fp_dac", i, || {
                acts.iter()
                    .map(|a| match a.code {
                        Some(c) if a.negative == negative => dac.convert(c),
                        _ => Volts::ZERO,
                    })
                    .collect()
            });
            let ip = tr.span("kernel", i, || pos.mac_currents(&v));
            let im = tr.span("kernel", i, || neg.mac_currents(&v));
            passes += 2;
            let _ = tr.span("energy", i, || pos.array_energy(&v, t_int));
            let _ = tr.span("energy", i, || neg.array_energy(&v, t_int));
            let sign = if negative { -1.0 } else { 1.0 };
            for (n, (p, m)) in net.iter_mut().zip(ip.iter().zip(&im)) {
                *n += sign * (p.amps() - m.amps());
            }
        }
        let divider = mac.current_divider();
        let units = mac.digital_units_per_adc_unit();
        let replay: Vec<f64> = tr.span("fp_adc", i, || {
            net.iter()
                .map(|i_net| {
                    let r = adc.convert(Amps::new(i_net.abs() / divider));
                    convs += 1;
                    sats += u64::from(r.overflow);
                    unders += u64::from(r.underflow);
                    if let Some(code) = r.code {
                        exp_hist[(code.exp() as usize).min(3)] += 1;
                    }
                    r.value() * units * i_net.signum()
                })
                .collect()
        });
        tr.exit();
        let want = tr.span("cim_macro.matvec", i, || mac.matvec_digital_fp(&acts));
        if replay
            .iter()
            .zip(&want)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            replay_mismatch += 1;
        }
        let _ = tr.span("cim_macro.matvec_e2e", i, || mac.matvec(&x));
    }
    let calls = PROBE_CALLS as f64;
    let per_call = |name: &str| tr.mean_us(name) * tr.count(name) as f64 / calls;
    let stages = per_call("quant")
        + per_call("fp_dac")
        + per_call("kernel")
        + per_call("energy")
        + per_call("fp_adc");
    let matvec_us = tr.mean_us("cim_macro.matvec_e2e");
    out.metric("quant.us_per_vec", tr.mean_us("quant"), "us");
    out.metric("fp_dac.us_per_vec", tr.mean_us("fp_dac"), "us");
    out.metric("kernel.us_per_pass", tr.mean_us("kernel"), "us");
    out.metric("kernel.passes_per_op", passes as f64 / calls, "count");
    let rebuild_spans = tr.count("kernel.rebuild") as f64;
    out.metric(
        "kernel.us_per_rebuild",
        tr.mean_us("kernel.rebuild") * rebuild_spans / rebuilds as f64,
        "us",
    );
    out.metric("kernel.rebuilds", rebuilds as f64, "count");
    out.metric("energy.us_per_pass", tr.mean_us("energy"), "us");
    out.metric("fp_adc.us_per_conv", per_call("fp_adc") / COLS as f64, "us");
    out.metric("fp_adc.convs_per_op", convs as f64 / calls, "count");
    for (e, n) in exp_hist.iter().enumerate() {
        out.metric(
            format!("fp_adc.exp_share.e{e}"),
            *n as f64 / convs as f64,
            "share",
        );
    }
    out.metric("fp_adc.sat_ratio", sats as f64 / convs as f64, "share");
    out.metric(
        "fp_adc.underflow_ratio",
        unders as f64 / convs as f64,
        "share",
    );
    out.metric("cim_macro.us_per_matvec", matvec_us, "us");
    out.metric(
        "cim_macro.unattributed_share",
        1.0 - stages / matvec_us,
        "share",
    );
    out.attempted += PROBE_CALLS;
    if replay_mismatch > 0 {
        out.failed += replay_mismatch;
        out.error(format!(
            "macro replay: {replay_mismatch} of {PROBE_CALLS} calls differ from matvec_digital_fp"
        ));
    }
}

/// The probe-pass ledger of `seed`, for the ledger report.
pub fn ledger(seed: u64) -> Ledger {
    let inputs = Inputs::new(seed);
    let mut mac = build(seed, &inputs);
    probe_pass(&mut mac, &inputs).1
}

/// Tracing overhead on the closed loop: (untraced ops/s, traced ops/s,
/// untraced p50 ms, traced p50 ms).
pub fn overhead(ctx: &Ctx, tr: &mut Tracer) -> [f64; 4] {
    let inputs = Inputs::new(ctx.seed);
    let mut mac = build(ctx.seed, &inputs);
    let secs = 0.1 * ctx.seconds;
    let mut next = 0;
    let plain = inproc::closed(secs, 1000, AGE_EVERY, &mut next, &mut |i| {
        let _ = call(&mut mac, &inputs, i);
    });
    let traced = inproc::closed(secs, 1000, AGE_EVERY, &mut next, &mut |i| {
        let _ = tr.span("matvec", i, || call(&mut mac, &inputs, i));
    });
    [
        plain.ops_per_s(),
        traced.ops_per_s(),
        plain.p50().unwrap_or(f64::NAN),
        traced.p50().unwrap_or(f64::NAN),
    ]
}
