//! The traced run: per-layer metrics from spans the benchmark records
//! around calls into each layer's public functions, the simulated-
//! statistics ledger (this seed and a held-out one), and the tracing
//! overhead. It is separate from the timed runs; end-to-end metrics never
//! come from it.

use std::fmt::Write as _;
use std::time::Instant;

use afpr_circuit::int_adc::{IntAdc, IntAdcConfig};
use afpr_circuit::units::{Amps, Volts};
use afpr_device::DeviceConfig;
use afpr_xbar::{Crossbar, PartialSumAdder};
use rand::Rng;

use crate::inputs::rng;
use crate::report::{json_num, json_str, Outcome};
use crate::trace::Tracer;
use crate::{macro_paper, online, zoo, Ctx};

/// Seed offset of the held-out ledger seed.
const HELD_OUT: u64 = 1_000_003;

/// The end-to-end metric and workload each per-layer metric should move
/// (matched by name prefix, first match wins).
const TAGS: [(&str, &str, &str); 30] = [
    ("quant.", "ops_per_s", "macro-paper"),
    ("fp_dac.", "ops_per_s", "macro-paper"),
    ("kernel.us_per_pass", "ops_per_s", "macro-paper"),
    ("kernel.passes_per_op", "ops_per_s", "macro-paper"),
    ("kernel.us_per_rebuild", "p99_ms", "macro-paper"),
    ("kernel.rebuilds", "p99_ms", "macro-paper"),
    ("kernel.us_per_batch_sample", "ops_per_s", "zoo-offline"),
    ("energy.", "ops_per_s", "macro-paper,zoo-offline"),
    ("fp_adc.us_per_conv", "ops_per_s", "macro-paper,zoo-offline"),
    (
        "fp_adc.convs_per_op",
        "ops_per_s",
        "macro-paper,zoo-offline",
    ),
    (
        "fp_adc.",
        "sim_sqnr_db,sim_top1_agree",
        "macro-paper,zoo-offline",
    ),
    ("int_adc.", "ops_per_s", "zoo-offline"),
    ("cim_macro.", "ops_per_s", "macro-paper"),
    ("partial_sum.", "ops_per_s,p50_ms", "zoo-offline,serve-open"),
    ("accelerator.", "p50_ms", "serve-open,cluster-sharded"),
    ("sim.im2col_us", "ops_per_s", "zoo-offline"),
    ("zoo.", "ops_per_s", "zoo-offline"),
    ("registry.load_s", "setup_s", "zoo-offline"),
    ("protocol.", "p50_ms,slo_rps", "serve-open,cluster-sharded"),
    ("batch.", "p99_ms,slo_rps", "serve-open"),
    ("server.", "p99_ms,slo_rps", "serve-open"),
    ("serve.residual_us", "p50_ms.light", "serve-open"),
    ("gen.", "p99_ms.light", "serve-open"),
    ("router.hop_us", "p50_ms", "cluster-sharded"),
    ("router.", "p99_ms", "cluster-sharded"),
    ("ledger.macro.", "sim_tops_per_w,sim_sqnr_db", "macro-paper"),
    (
        "ledger.zoo.",
        "sim_tops_per_w,sim_top1_agree",
        "zoo-offline",
    ),
    ("trace.overhead.ops_per_s", "ops_per_s", "all"),
    ("trace.overhead.p50_ms", "p50_ms", "all"),
    ("", "none", "none"),
];

fn tag(name: &str) -> (&'static str, &'static str) {
    let (_, moves, workload) = TAGS
        .iter()
        .find(|(prefix, _, _)| name.starts_with(prefix))
        .expect("the empty prefix matches");
    (moves, workload)
}

/// Costs of layers no single workload's replay covers: the batched
/// kernel on a zoo-sized 64×32 tile, the INT ADC, and the partial-sum
/// reduction of the demo layer's four row tiles.
fn misc_probe(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let mut r = rng(seed, 41);
    let mut xbar = Crossbar::new(64, 32, DeviceConfig::ideal(32));
    let levels: Vec<u32> = (0..64 * 32).map(|_| r.gen_range(0..32u32)).collect();
    xbar.program_levels(&levels, &mut r);
    let drives: Vec<Vec<Volts>> = (0..64)
        .map(|_| (0..64).map(|_| Volts::new(r.gen_range(0.0..1.5))).collect())
        .collect();
    let _ = xbar.mac_currents_batch(&drives);
    for i in 0..50 {
        let _ = tr.span("kernel.batch64", i, || xbar.mac_currents_batch(&drives));
    }
    out.metric(
        "kernel.us_per_batch_sample",
        tr.mean_us("kernel.batch64") / drives.len() as f64,
        "us",
    );

    let adc = IntAdc::new(IntAdcConfig::paper_matched());
    let full = adc.full_scale_current().amps();
    let currents: Vec<Amps> = (0..4096)
        .map(|_| Amps::new(r.gen_range(0.0..full * 1.05)))
        .collect();
    for i in 0..8 {
        let _ = tr.span("int_adc.batch4096", i, || {
            currents.iter().map(|c| adc.convert(*c).code).sum::<u32>()
        });
    }
    out.metric(
        "int_adc.us_per_conv",
        tr.mean_us("int_adc.batch4096") / currents.len() as f64,
        "us",
    );

    let parts: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..32).map(|_| r.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut adder = PartialSumAdder::new();
    for i in 0..2000 {
        let _ = tr.span("partial_sum.reduce", i, || adder.sum(&parts));
    }
    out.metric(
        "partial_sum.us_per_reduce",
        tr.mean_us("partial_sum.reduce"),
        "us",
    );
}

fn ledger_json(seed: u64) -> (String, macro_paper::Ledger, (u64, u64, u64, f64)) {
    let m = macro_paper::ledger(seed);
    let z = zoo::ledger(seed);
    let json = format!(
        "{{\"seed\": {seed}, \"macro\": {{\"conversions\": {}, \"ops\": {}, \"saturations\": {}, \
         \"underflows\": {}, \"kernel_rebuilds\": {}, \"joules\": {}}}, \"zoo\": {{\"conversions\": {}, \
         \"partial_sum_adds\": {}, \"kernel_builds\": {}, \"micro_joules\": {}}}}}",
        m.conversions,
        m.ops,
        m.saturations,
        m.underflows,
        m.kernel_rebuilds,
        json_num(m.joules),
        z.0,
        z.1,
        z.2,
        json_num(z.3)
    );
    (json, m, z)
}

pub fn traced_run(ctx: &Ctx, out: &mut Outcome) {
    let started = Instant::now();
    let mut tr = Tracer::new();
    let ov = match ctx.workload.as_str() {
        "macro-paper" => macro_paper::overhead(ctx, &mut tr),
        "zoo-offline" => zoo::overhead(ctx, &mut tr),
        "serve-open" => online::overhead(ctx, online::Kind::Serve, &mut tr, out),
        _ => online::overhead(ctx, online::Kind::Cluster, &mut tr, out),
    };
    macro_paper::layer_probe(ctx.seed, &mut tr, out);
    zoo::layer_probe(ctx.seed, &mut tr, out);
    misc_probe(ctx.seed, &mut tr, out);
    online::layer_probe(ctx, &mut tr, out);

    let (ledger, m, z) = ledger_json(ctx.seed);
    let (again, _, _) = ledger_json(ctx.seed);
    if ledger != again {
        out.error(format!(
            "ledger differs between two runs of seed {}",
            ctx.seed
        ));
    }
    let (held_out, _, _) = ledger_json(ctx.seed + HELD_OUT);
    out.metric("ledger.macro.conversions", m.conversions as f64, "count");
    out.metric("ledger.macro.saturations", m.saturations as f64, "count");
    out.metric("ledger.macro.underflows", m.underflows as f64, "count");
    out.metric(
        "ledger.macro.kernel_rebuilds",
        m.kernel_rebuilds as f64,
        "count",
    );
    out.metric("ledger.macro.joules", m.joules, "J");
    out.metric("ledger.zoo.conversions", z.0 as f64, "count");
    out.metric("ledger.zoo.partial_sum_adds", z.1 as f64, "count");
    out.metric("ledger.zoo.kernel_builds", z.2 as f64, "count");
    out.metric("ledger.zoo.micro_joules", z.3, "uJ");
    out.metric("trace.overhead.ops_per_s", 1.0 - ov[1] / ov[0], "share");
    out.metric("trace.overhead.p50_ms", ov[3] - ov[2], "ms");

    let mut header = String::new();
    let _ = write!(
        header,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"wall_s\": {},\n\"ledger\": {ledger},\n\"ledger_held_out\": {held_out},\n\"overhead\": {{\"untraced_ops_per_s\": {}, \"traced_ops_per_s\": {}, \"untraced_p50_ms\": {}, \"traced_p50_ms\": {}}},\n\"per_layer\": [",
        json_str(&ctx.workload),
        ctx.seed,
        json_num(ctx.seconds),
        json_num(started.elapsed().as_secs_f64()),
        json_num(ov[0]),
        json_num(ov[1]),
        json_num(ov[2]),
        json_num(ov[3])
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let (moves, workload) = tag(&m.name);
        let _ = write!(
            header,
            "{}\n  {{\"name\": {}, \"value\": {}, \"unit\": {}, \"moves\": {}, \"workload\": {}}}",
            if i > 0 { "," } else { "" },
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            json_str(moves),
            json_str(workload)
        );
    }
    header.push_str("\n]");
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.json",
        ctx.workload, ctx.seed
    ));
    match tr.write_json(&path, &header) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => out.error(format!("writing {}: {e}", path.display())),
    }
}
