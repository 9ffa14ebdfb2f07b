//! `zoo-offline`: `ModelRegistry::infer` over a fixed, seeded sequence of
//! the nine (model × format) pairs of the zoo, every model compiled in
//! set-up with room for all nine so nothing is evicted while timed.

use std::time::Instant;

use afpr_circuit::units::Joules;
use afpr_models::{
    format_wire_name, CompiledModel, ModelKind, ModelRegistry, ModelSpec, RegistryConfig,
    ALL_FORMATS,
};
use afpr_nn::layers::{Conv2d, Layer};
use afpr_nn::{ResidualBlock, Sequential, Tensor};
use afpr_xbar::{MacroMode, PartialSumAdder};

use crate::inproc;
use crate::inputs::{rng, shuffle, uniform};
use crate::report::Outcome;
use crate::stats::{peak_rss_mb, same_bits, Accuracy};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx};

/// Calls of each pair per cycle of the sequence (1744 calls). No pair
/// takes more than about a fifth of the host time. Per-call latency sorts
/// the pairs into groups: int8 mlp < e2m5 mlp < e3m4 mlp < mobilenet <
/// resnet. There are as many int8 mlp calls as calls slower than the e2m5
/// mlp group (372), so the p50 falls at the middle of that group rather
/// than at the tail of another. The 12 resnet calls are the slowest, so
/// the p99 (the 18th slowest call) falls inside the e3m4 mobilenet group
/// rather than on a group boundary.
const CYCLE: [(ModelKind, MacroMode, u32); 9] = [
    (ModelKind::TinyMlp, MacroMode::FpE2M5, 1000),
    (ModelKind::TinyMlp, MacroMode::FpE3M4, 300),
    (ModelKind::TinyMlp, MacroMode::Int8, 372),
    (ModelKind::TinyMobilenet, MacroMode::FpE2M5, 16),
    (ModelKind::TinyMobilenet, MacroMode::FpE3M4, 12),
    (ModelKind::TinyMobilenet, MacroMode::Int8, 32),
    (ModelKind::TinyResnet, MacroMode::FpE2M5, 4),
    (ModelKind::TinyResnet, MacroMode::FpE3M4, 2),
    (ModelKind::TinyResnet, MacroMode::Int8, 6),
];
/// Seeded inputs per model kind; every pair runs all of its kind's pool
/// once in the probe pass.
fn pool_size(kind: ModelKind) -> usize {
    match kind {
        ModelKind::TinyMlp => 256,
        ModelKind::TinyMobilenet => 24,
        ModelKind::TinyResnet => 12,
    }
}
fn kind_index(kind: ModelKind) -> usize {
    ModelKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("zoo kind")
}

pub struct Inputs {
    /// Per kind (in `ModelKind::ALL` order), the input pool.
    pools: Vec<Vec<Vec<f32>>>,
    /// One cycle of (pair index into `CYCLE`, pool index), seeded order.
    cycle: Vec<(usize, usize)>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let mut r = rng(seed, 11);
        let pools = ModelKind::ALL
            .iter()
            .map(|k| {
                (0..pool_size(*k))
                    .map(|_| uniform(&mut r, k.input_len()))
                    .collect()
            })
            .collect();
        let mut r = rng(seed, 12);
        let mut cycle = Vec::new();
        for (p, (kind, _, n)) in CYCLE.iter().enumerate() {
            for _ in 0..*n {
                let idx = rand::Rng::gen_range(&mut r, 0..pool_size(*kind));
                cycle.push((p, idx));
            }
        }
        shuffle(&mut rng(seed, 13), &mut cycle);
        Self { pools, cycle }
    }

    fn cycle_len(&self) -> u64 {
        self.cycle.len() as u64
    }

    fn pool(&self, kind: ModelKind) -> &[Vec<f32>] {
        &self.pools[kind_index(kind)]
    }
}

/// Compiles all nine pairs into a registry (the timed set-up).
pub fn build(seed: u64) -> ModelRegistry {
    let reg = ModelRegistry::new(RegistryConfig::new(9, seed));
    for kind in ModelKind::ALL {
        for mode in ALL_FORMATS {
            let _ = reg.get_or_load(kind, mode);
        }
    }
    reg
}

/// Golden outputs per pair and pool input, from a twin
/// `CompiledModel::load` of each spec; plus the twin's probe-pass ledger.
struct Oracle {
    golden: Vec<Vec<Vec<f32>>>,
    ledger: Vec<PairLedger>,
}

/// Deterministic counts of one pair's probe pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PairLedger {
    pub conversions: u64,
    pub joules_bits: u64,
    pub adder_adds: u64,
    pub kernel_builds: u64,
}

fn energy_joules(e: &afpr_models::ModelEnergy) -> f64 {
    e.breakdown.total().joules() + e.adder.joules()
}

fn adds_of(adder: Joules) -> u64 {
    let mut unit = PartialSumAdder::new();
    let _ = unit.sum(&[vec![0.0], vec![0.0]]);
    (adder.joules() / unit.energy().joules()).round() as u64
}

fn oracle(seed: u64, inputs: &Inputs) -> Oracle {
    let mut golden = Vec::new();
    let mut ledger = Vec::new();
    for (kind, mode, _) in CYCLE {
        let mut twin = CompiledModel::load(ModelSpec::new(kind, mode, seed));
        let before = twin.energy();
        let outs: Vec<Vec<f32>> = inputs
            .pool(kind)
            .iter()
            .map(|x| twin.infer(x).expect("twin infer"))
            .collect();
        ledger.push(pair_ledger(&before, &twin.energy(), twin.kernel_builds()));
        golden.push(outs);
    }
    Oracle { golden, ledger }
}

fn pair_ledger(
    before: &afpr_models::ModelEnergy,
    after: &afpr_models::ModelEnergy,
    builds: u64,
) -> PairLedger {
    PairLedger {
        conversions: after.conversions - before.conversions,
        joules_bits: (energy_joules(after) - energy_joules(before)).to_bits(),
        adder_adds: adds_of(after.adder) - adds_of(before.adder),
        kernel_builds: builds,
    }
}

/// Runs every pair over its pool once through the registry (the warm-up),
/// returning per-pair outputs and ledgers.
fn probe_pass(reg: &ModelRegistry, inputs: &Inputs) -> (Vec<Vec<Vec<f32>>>, Vec<PairLedger>) {
    let mut outs = Vec::new();
    let mut ledgers = Vec::new();
    for (kind, mode, _) in CYCLE {
        let model = reg.get_or_load(kind, mode);
        let before = model.lock().energy();
        let ys = inputs
            .pool(kind)
            .iter()
            .map(|x| {
                reg.infer(kind.wire_name(), format_wire_name(mode), x)
                    .expect("registry infer")
            })
            .collect();
        let m = model.lock();
        ledgers.push(pair_ledger(&before, &m.energy(), m.kernel_builds()));
        outs.push(ys);
    }
    (outs, ledgers)
}

/// Simulated accuracy against the FP32 models: (SQNR dB averaged over
/// the nine pairs, top-1 agreement over all inputs, modelled TOPS/W of
/// the probe pass with ops = 2 × the FP32 model's MACs).
fn accuracy(seed: u64, inputs: &Inputs, oracle: &Oracle) -> (f64, f64, f64) {
    let refs: Vec<Vec<Vec<f64>>> = ModelKind::ALL
        .iter()
        .map(|kind| {
            let fp32 = kind.build(seed);
            inputs
                .pool(*kind)
                .iter()
                .map(|x| {
                    let y = fp32.forward(&Tensor::new(kind.input_shape(), x.clone()));
                    y.data().iter().map(|&v| f64::from(v)).collect()
                })
                .collect()
        })
        .collect();
    let mut all = Accuracy::default();
    let mut sqnr = 0.0;
    let (mut ops, mut joules) = (0.0, 0.0);
    for (p, (kind, _, _)) in CYCLE.iter().enumerate() {
        let mut pair = Accuracy::default();
        for (y, want) in oracle.golden[p].iter().zip(&refs[kind_index(*kind)]) {
            pair.add(y, want);
            all.add(y, want);
        }
        sqnr += pair.sqnr_db() / CYCLE.len() as f64;
        ops +=
            2.0 * kind.build(seed).macs(kind.input_shape()) as f64 * oracle.golden[p].len() as f64;
        joules += f64::from_bits(oracle.ledger[p].joules_bits);
    }
    (sqnr, all.top1(), ops / joules / 1e12)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let inputs = Inputs::new(ctx.seed);
    let (setup_s, reg) = timed_setups(|| build(ctx.seed), drop);
    let oracle = oracle(ctx.seed, &inputs);
    let (outs, ledgers) = probe_pass(&reg, &inputs);
    let probe_ops: u64 = CYCLE.iter().map(|(k, _, _)| pool_size(*k) as u64).sum();
    out.attempted += probe_ops;
    for (p, (kind, mode, _)) in CYCLE.iter().enumerate() {
        if !outs[p]
            .iter()
            .zip(&oracle.golden[p])
            .all(|(a, b)| same_bits(a, b))
        {
            out.failed += pool_size(*kind) as u64;
            out.error(format!(
                "zoo-offline: {kind} {mode:?} differs from its twin load"
            ));
        }
        let (a, b) = (&ledgers[p], &oracle.ledger[p]);
        if a != b {
            out.error(format!(
                "zoo-offline: {kind} {mode:?} ledger {a:?} vs twin {b:?}"
            ));
        }
    }
    let (sqnr, top1, tops_w) = accuracy(ctx.seed, &inputs, &oracle);

    let names: Vec<(&str, &str)> = CYCLE
        .iter()
        .map(|(k, m, _)| (k.wire_name(), format_wire_name(*m)))
        .collect();
    let mut next = 0u64;
    let mut bad = 0u64;
    let mut op = |i: u64| {
        let (p, idx) = inputs.cycle[(i % inputs.cycle_len()) as usize];
        let (kind, _, _) = CYCLE[p];
        let y = reg.infer(names[p].0, names[p].1, &inputs.pool(kind)[idx]);
        if !y.is_ok_and(|y| same_bits(&y, &oracle.golden[p][idx])) {
            bad += 1;
        }
    };
    let cycle = inputs.cycle_len();
    let closed = inproc::closed(ctx.seconds, 2 * cycle, cycle, &mut next, &mut op);
    out.attempted += next;
    out.failed += bad;
    if bad > 0 {
        out.error(format!(
            "zoo-offline: {bad} infers differ from the twin-load oracle"
        ));
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("rss_mb", peak_rss_mb(), "MB");
    out.metric("ops_per_s", closed.ops_per_s(), "1/s");
    out.metric("p50_ms", closed.p50().unwrap_or(f64::NAN), "ms");
    out.metric("p99_ms", closed.p99().unwrap_or(f64::NAN), "ms");
    out.metric("sim_tops_per_w", tops_w, "TOPS/W");
    out.metric("sim_sqnr_db", sqnr, "dB");
    out.metric("sim_top1_agree", top1, "share");
}

/// Walks an FP32 forward pass, timing `Conv2d::im2col` on each conv
/// layer's real input.
fn im2col_walk(seq: &Sequential, x: &Tensor, tr: &mut Tracer) -> Tensor {
    let mut cur = x.clone();
    for layer in seq.layers() {
        cur = im2col_layer(layer.as_ref(), &cur, tr);
    }
    cur
}

fn im2col_layer(layer: &dyn Layer, x: &Tensor, tr: &mut Tracer) -> Tensor {
    let any = layer.as_any();
    if let Some(conv) = any.downcast_ref::<Conv2d>() {
        let _ = tr.span("sim.im2col", 0, || conv.im2col(x));
    } else if let Some(inner) = any.downcast_ref::<Sequential>() {
        return im2col_walk(inner, x, tr);
    } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
        let _ = im2col_walk(block.main(), x, tr);
        if let Some(short) = block.shortcut() {
            let _ = im2col_walk(short, x, tr);
        }
    }
    layer.forward(x)
}

/// Per-layer probe of the zoo: load time, infer time and conversions per
/// pair, im2col time per conv model, batched-kernel and INT-ADC costs.
pub fn layer_probe(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let inputs = Inputs::new(seed);
    let reg = ModelRegistry::new(RegistryConfig::new(9, seed));
    let mut adds = 0u64;
    let mut infers = 0u64;
    for (kind, mode, _) in CYCLE {
        let key = format!("{}.{}", kind.wire_name(), format_wire_name(mode));
        let t = Instant::now();
        let model = reg.get_or_load(kind, mode);
        out.metric(
            format!("registry.load_s.{key}"),
            t.elapsed().as_secs_f64(),
            "s",
        );
        let before = model.lock().energy();
        let reps = match kind {
            ModelKind::TinyMlp => 64,
            _ => 4,
        };
        let t = Instant::now();
        for x in inputs.pool(kind).iter().cycle().take(reps) {
            let _ = tr.span("zoo.infer", 0, || {
                reg.infer(kind.wire_name(), format_wire_name(mode), x)
            });
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let after = model.lock().energy();
        out.metric(format!("zoo.ms_per_infer.{key}"), ms, "ms");
        out.metric(
            format!("zoo.conversions_per_infer.{key}"),
            (after.conversions - before.conversions) as f64 / reps as f64,
            "count",
        );
        adds += adds_of(after.adder) - adds_of(before.adder);
        infers += reps as u64;
    }
    out.metric(
        "partial_sum.adds_per_op",
        adds as f64 / infers as f64,
        "count",
    );
    for kind in [ModelKind::TinyResnet, ModelKind::TinyMobilenet] {
        let fp32 = kind.build(seed);
        let x = Tensor::new(kind.input_shape(), inputs.pool(kind)[0].clone());
        let before = tr.mean_us("sim.im2col") * tr.count("sim.im2col") as f64;
        let reps = 8;
        for _ in 0..reps {
            let _ = im2col_walk(&fp32, &x, tr);
        }
        let after = tr.mean_us("sim.im2col") * tr.count("sim.im2col") as f64;
        let total = if before.is_nan() {
            after
        } else {
            after - before
        };
        out.metric(
            format!("sim.im2col_us.{}", kind.wire_name()),
            total / reps as f64,
            "us",
        );
    }
}

/// Tracing overhead on the closed loop: (untraced ops/s, traced ops/s,
/// untraced p50 ms, traced p50 ms).
pub fn overhead(ctx: &Ctx, tr: &mut Tracer) -> [f64; 4] {
    let inputs = Inputs::new(ctx.seed);
    let reg = build(ctx.seed);
    let secs = 0.1 * ctx.seconds;
    let mut op = |i: u64| {
        let (p, idx) = inputs.cycle[(i % inputs.cycle_len()) as usize];
        let (kind, mode, _) = CYCLE[p];
        let _ = reg.infer(
            kind.wire_name(),
            format_wire_name(mode),
            &inputs.pool(kind)[idx],
        );
    };
    let mut next = 0;
    let plain = inproc::closed(secs, 1000, inputs.cycle_len(), &mut next, &mut op);
    let traced = inproc::closed(secs, 1000, inputs.cycle_len(), &mut next, &mut |i| {
        tr.span("infer", i, || op(i));
    });
    [
        plain.ops_per_s(),
        traced.ops_per_s(),
        plain.p50().unwrap_or(f64::NAN),
        traced.p50().unwrap_or(f64::NAN),
    ]
}

/// The probe-pass ledger of `seed`, summed over the nine pairs:
/// (conversions, partial-sum adds, kernel builds, modelled µJ).
pub fn ledger(seed: u64) -> (u64, u64, u64, f64) {
    let inputs = Inputs::new(seed);
    let o = oracle(seed, &inputs);
    o.ledger.iter().fold((0, 0, 0, 0.0), |acc, l| {
        (
            acc.0 + l.conversions,
            acc.1 + l.adder_adds,
            acc.2 + l.kernel_builds,
            acc.3 + f64::from_bits(l.joules_bits) * 1e6,
        )
    })
}
