//! `afpr-perfbench`: runs one named, seeded workload against the AFPR-CIM
//! stack, checks every output against an oracle, and prints every metric
//! by name and unit, ending with a one-line JSON summary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload macro-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! separate traced run and reports the per-layer metrics (see README.md).

mod inproc;
mod inputs;
mod layers;
mod macro_paper;
mod online;
mod report;
mod stats;
mod trace;
mod wire;
mod zoo;

use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;

pub const WORKLOADS: [&str; 4] = [
    "macro-paper",
    "zoo-offline",
    "serve-open",
    "cluster-sharded",
];

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs the timed set-up at least five times and until two seconds have
/// passed (at most 101 times), discarding all but the last instance, so
/// that the median spans the host's short swings in speed. Returns the
/// median set-up time and the last instance.
pub fn timed_setups<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < 5 || (start.elapsed().as_secs_f64() < 2.0 && times.len() < 101) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

fn main() -> ExitCode {
    // Select the event-driven transport for servers and routers this
    // process builds from `ServerConfig::default()` / `ClusterConfig::default()`.
    std::env::set_var("AFPR_SERVE_TRANSPORT", "reactor");
    std::env::set_var("AFPR_CLUSTER_TRANSPORT", "reactor");
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("afpr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    if ctx.trace {
        layers::traced_run(&ctx, &mut out);
    } else {
        match ctx.workload.as_str() {
            "macro-paper" => macro_paper::run(&ctx, &mut out),
            "zoo-offline" => zoo::run(&ctx, &mut out),
            "serve-open" => online::run(&ctx, online::Kind::Serve, &mut out),
            _ => online::run(&ctx, online::Kind::Cluster, &mut out),
        }
    }
    out.print();
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
