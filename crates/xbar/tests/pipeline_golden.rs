//! Golden pin of the macro matvec pipeline.
//!
//! For seeded macros in every mode, on a noisy (read noise + ADC noise)
//! and an ideal drifting spec, the output bits and `MacroStats` of a fixed
//! input stream are recorded below as constants. The stream runs through
//! `CimMacro::matvec` and through `CimMacro::matvec_batch` at B = 1, 2 and
//! 7; all four must land on the same recorded values.
//!
//! The other batched == sequential tests compare the pipeline with itself.
//! These constants are the only check that the RNG draw order (read noise
//! per phase, then the comparator noise of each readout) and the energy /
//! busy-time accounting stay fixed from one version of the code to the
//! next. A change that moves any of them must say why and re-record the
//! table from the failure message.

use afpr_circuit::units::Seconds;
use afpr_xbar::cim_macro::CimMacro;
use afpr_xbar::spec::{MacroMode, MacroSpec};

const ROWS: usize = 20;
/// Straddles a 32-column kernel panel.
const COLS: usize = 37;
const SAMPLES: usize = 7;

/// What one input stream leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over every output's `f32` bits, in sample then column order.
    out_hash: u64,
    conversions: u64,
    saturations: u64,
    underflows: u64,
    energy_bits: u64,
    busy_bits: u64,
}

#[derive(Debug, Clone, Copy)]
enum Device {
    /// `MacroSpec::paper_realistic`: read noise, comparator noise,
    /// DAC/ADC mismatch.
    Realistic,
    /// Ideal devices with retention drift, aged after programming.
    IdealDrift,
}

const MODES: [MacroMode; 3] = [MacroMode::FpE2M5, MacroMode::FpE3M4, MacroMode::Int8];

/// Recorded values, indexed `[device][mode]` in `Device` / `MODES` order.
const GOLDEN: [[Golden; 3]; 2] = [
    [
        Golden {
            out_hash: 0x4476_624f_1fb5_f14b,
            conversions: 7,
            saturations: 64,
            underflows: 58,
            energy_bits: 0x3e77_38d8_835d_5bb8,
            busy_bits: 0x3ebc_8571_c468_7a3e,
        },
        Golden {
            out_hash: 0xe1ed_603d_e161_feea,
            conversions: 7,
            saturations: 0,
            underflows: 43,
            energy_bits: 0x3e75_ec59_0df6_4854,
            busy_bits: 0x3eb8_53b3_dc3a_fedc,
        },
        Golden {
            out_hash: 0xc331_15a2_e1ae_4b4a,
            conversions: 7,
            saturations: 20,
            underflows: 0,
            energy_bits: 0x3e8a_73b2_fe71_1637,
            busy_bits: 0x3ed0_5b97_d64a_fad1,
        },
    ],
    [
        Golden {
            out_hash: 0x4676_a6bf_d4a7_b8e1,
            conversions: 7,
            saturations: 64,
            underflows: 59,
            energy_bits: 0x3e77_1a13_e193_fe94,
            busy_bits: 0x3ebc_8571_c468_7a3e,
        },
        Golden {
            out_hash: 0x6219_d041_88f8_597b,
            conversions: 7,
            saturations: 61,
            underflows: 43,
            energy_bits: 0x3e75_cf51_96cf_951c,
            busy_bits: 0x3eb8_53b3_dc3a_fedc,
        },
        Golden {
            out_hash: 0x7729_c8a1_0128_6273,
            conversions: 7,
            saturations: 7,
            underflows: 0,
            energy_bits: 0x3e8a_6feb_db40_13ca,
            busy_bits: 0x3ed0_5b97_d64a_fad1,
        },
    ],
];

fn weights() -> Vec<f32> {
    (0..ROWS * COLS)
        .map(|k| {
            if k % 11 == 0 {
                0.0
            } else {
                ((k * 13) % 17) as f32 / 17.0 - 0.3
            }
        })
        .collect()
}

/// Sign patterns that exercise both phases, each phase alone, no phase,
/// zero rows and readouts below the ADC's smallest code.
fn inputs() -> Vec<Vec<f32>> {
    (0..SAMPLES)
        .map(|s| {
            (0..ROWS)
                .map(|r| {
                    let x = ((r as f32) * 0.37 + (s as f32) * 1.3).sin();
                    match s {
                        1 => 0.9,
                        2 => -(x.abs() + 0.05),
                        3 => 0.0,
                        4 if r % 3 == 0 => 0.0,
                        5 if r > 0 => x * 1e-3,
                        _ => x,
                    }
                })
                .collect()
        })
        .collect()
}

fn build(device: Device, mode: MacroMode) -> CimMacro {
    let spec = match device {
        Device::Realistic => MacroSpec {
            rows: ROWS,
            cols: COLS,
            ..MacroSpec::paper_realistic(mode)
        },
        Device::IdealDrift => {
            let mut spec = MacroSpec::small(ROWS, COLS, mode);
            spec.device.drift_nu = 0.01;
            spec
        }
    };
    let mut mac = CimMacro::with_seed(spec, 2024);
    mac.program_weights(&weights());
    if let Device::IdealDrift = device {
        mac.set_age(Seconds::new(1.0e5));
    }
    mac
}

fn record(mac: &CimMacro, outputs: &[Vec<f32>]) -> Golden {
    let mut out_hash = 0xcbf2_9ce4_8422_2325u64;
    for y in outputs {
        assert_eq!(y.len(), COLS);
        for v in y {
            for b in v.to_bits().to_le_bytes() {
                out_hash = (out_hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let s = mac.stats();
    Golden {
        out_hash,
        conversions: s.conversions,
        saturations: s.saturations,
        underflows: s.underflows,
        energy_bits: s.energy.total().joules().to_bits(),
        busy_bits: s.busy_time.seconds().to_bits(),
    }
}

/// Runs the stream through `matvec` (`batch == None`) or through
/// `matvec_batch` in chunks of `batch`.
fn run(device: Device, mode: MacroMode, batch: Option<usize>) -> Golden {
    let mut mac = build(device, mode);
    let xs = inputs();
    let outputs: Vec<Vec<f32>> = match batch {
        None => xs.iter().map(|x| mac.matvec(x)).collect(),
        Some(b) => xs.chunks(b).flat_map(|c| mac.matvec_batch(c)).collect(),
    };
    assert_eq!(outputs.len(), SAMPLES);
    record(&mac, &outputs)
}

#[test]
fn pipeline_matches_golden() {
    let mut failures = Vec::new();
    for (d, device) in [Device::Realistic, Device::IdealDrift]
        .into_iter()
        .enumerate()
    {
        for (m, mode) in MODES.into_iter().enumerate() {
            for batch in [None, Some(1), Some(2), Some(SAMPLES)] {
                let got = run(device, mode, batch);
                if got != GOLDEN[d][m] {
                    failures.push(format!("{device:?} {mode:?} batch {batch:?}: {got:#x?}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn golden_stream_reaches_every_readout_outcome() {
    // The pin is only as strong as the stream: it must saturate, flush
    // and read out in every mode, or a change there would go unseen.
    for (d, device) in [Device::Realistic, Device::IdealDrift]
        .into_iter()
        .enumerate()
    {
        assert!(GOLDEN[d].iter().any(|g| g.saturations > 0), "{device:?}");
        for (m, mode) in MODES.into_iter().enumerate() {
            let g = GOLDEN[d][m];
            assert_eq!(g.conversions, SAMPLES as u64, "{device:?} {mode:?}");
            // The INT ADC reads down to half an LSB and counts no
            // underflow.
            assert_eq!(
                g.underflows > 0,
                mode != MacroMode::Int8,
                "{device:?} {mode:?}"
            );
        }
    }
}
