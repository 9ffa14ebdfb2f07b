//! Load generation for in-process targets: a closed loop, one caller
//! running operations back to back.

use std::time::Instant;

use crate::stats::{median, Samples, WINDOW};

/// One measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Samples,
    pub ops: u64,
    /// Percentile window: whole units of the closed loop, so that every
    /// window holds the same mix of operations.
    window: usize,
    /// Operations per second of each unit.
    unit_rates: Vec<f64>,
}

impl Phase {
    /// Median over units of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.unit_rates)
    }

    pub fn p50(&self) -> Option<f64> {
        self.samples.windowed(0.50, self.window)
    }

    pub fn p99(&self) -> Option<f64> {
        self.samples.windowed(0.99, self.window)
    }
}

/// Runs `op(i)` back to back, in whole multiples of `unit` operations,
/// until at least `secs` seconds and `min_ops` operations have passed.
/// `next` is the running operation index, shared across phases.
pub fn closed(
    secs: f64,
    min_ops: u64,
    unit: u64,
    next: &mut u64,
    op: &mut dyn FnMut(u64),
) -> Phase {
    let mut phase = Phase {
        window: (WINDOW as u64).div_ceil(unit) as usize * unit as usize,
        ..Phase::default()
    };
    let start = Instant::now();
    loop {
        let unit_start = Instant::now();
        for _ in 0..unit {
            let t = Instant::now();
            op(*next);
            phase
                .samples
                .push((t - start).as_secs_f64(), t.elapsed().as_secs_f64() * 1e3);
            *next += 1;
            phase.ops += 1;
        }
        phase
            .unit_rates
            .push(unit as f64 / unit_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= secs && phase.ops >= min_ops {
            break;
        }
    }
    println!(
        "closed loop: {} per-call samples, percentiles per window of {} calls",
        phase.ops, phase.window
    );
    phase
}
