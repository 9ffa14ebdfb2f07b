//! The macro-model network simulator (paper §IV-D): runs a neural
//! network with its convolution / fully-connected layers executed on
//! the behavioral CIM macros, so every circuit non-linearity (ADC
//! quantization, range saturation/underflow, device variation, DAC
//! mismatch) flows into the network's accuracy.
//!
//! Compute layers ([`Conv2d`]/[`Linear`]) are recognised by downcast
//! and replaced with tiled macro execution; everything else (pooling,
//! activations, depthwise convolutions) runs on the digital processing
//! unit, as it would in the real system.

use std::sync::Arc;

use crate::accelerator::{AfprAccelerator, LayerHandle};
use crate::dpu::Dpu;
use crate::resilience::{ChaosConfig, ChaosController, ChaosStats};
use afpr_nn::layers::{Conv2d, Layer, Linear};
use afpr_nn::model::{ResidualBlock, Sequential};
use afpr_nn::tensor::Tensor;
use afpr_runtime::Engine;
use afpr_xbar::spec::{MacroMode, MacroSpec};

/// A model compiled onto CIM macros.
///
/// # Example
///
/// ```
/// use afpr_core::sim::MacroModelSim;
/// use afpr_nn::init::InitSpec;
/// use afpr_nn::models::tiny_mlp;
/// use afpr_nn::tensor::Tensor;
/// use afpr_xbar::spec::MacroMode;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = tiny_mlp(8, 16, 4, InitSpec::gaussian(), &mut rng);
/// let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 1);
/// let x = Tensor::new(&[8], vec![0.25; 8]);
/// sim.calibrate(&model, std::slice::from_ref(&x));
/// let y = sim.forward(&model, &x);
/// assert_eq!(y.shape(), &[4]);
/// ```
pub struct MacroModelSim {
    accel: AfprAccelerator,
    /// Handles in deterministic traversal order of compute layers.
    handles: Vec<LayerHandle>,
    dpu: Dpu,
    /// Parallel execution mode: when set, compute layers run on the
    /// worker pool (tile jobs; conv positions micro-batched).
    engine: Option<Arc<Engine>>,
    /// Live fault environment: when set, every forward pass ticks the
    /// controller (injection / drift / scrub) before executing.
    chaos: Option<ChaosController>,
}

impl MacroModelSim {
    /// Maps every Conv2d/Linear layer of `model` onto macros.
    #[must_use]
    pub fn compile(model: &Sequential, mode: MacroMode, seed: u64) -> Self {
        Self::compile_with_spec(model, MacroSpec::paper(mode), seed)
    }

    /// Maps with a custom base macro spec (e.g. realistic
    /// non-idealities).
    #[must_use]
    pub fn compile_with_spec(model: &Sequential, spec: MacroSpec, seed: u64) -> Self {
        let mut accel = AfprAccelerator::with_spec(spec, seed);
        let mut handles = Vec::new();
        map_sequential(model, &mut accel, &mut handles);
        // Build every array's conductance-snapshot kernel up front so
        // the first forward pass is as fast as the steady state (the
        // snapshot is a pure function of the freshly programmed cells;
        // warming changes no result bits).
        accel.warm_kernel();
        Self {
            accel,
            handles,
            dpu: Dpu::new(),
            engine: None,
            chaos: None,
        }
    }

    /// Switches the sim into parallel mode: compute layers execute
    /// their tiles on `engine`'s worker pool, and convolution patch
    /// positions are micro-batched through
    /// [`AfprAccelerator::forward_batch`].
    ///
    /// Outputs, energy and statistics stay **bit-identical** to the
    /// sequential mode for the same compile seed (see
    /// `afpr-runtime`'s determinism contract).
    #[must_use]
    pub fn with_engine(mut self, engine: Arc<Engine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Leaves parallel mode, returning the engine if one was set.
    pub fn take_engine(&mut self) -> Option<Arc<Engine>> {
        self.engine.take()
    }

    /// Attaches a live fault environment: every [`forward`](Self::forward)
    /// call first ticks the chaos controller (fault injection, drift
    /// stepping, scrub/repair per the config's cadences).
    ///
    /// Chaos draws only from its own seeded RNG; with a zero fault
    /// rate and zero drift step the sim stays bit-identical to one
    /// without chaos attached.
    #[must_use]
    pub fn with_chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(ChaosController::new(cfg));
        self
    }

    /// Detaches the chaos controller, returning it if one was set.
    pub fn take_chaos(&mut self) -> Option<ChaosController> {
        self.chaos.take()
    }

    /// Cumulative chaos accounting, if a controller is attached.
    #[must_use]
    pub fn chaos_stats(&self) -> Option<&ChaosStats> {
        self.chaos.as_ref().map(ChaosController::stats)
    }

    /// Ticks the attached chaos controller once (no-op without one).
    /// Called automatically at the start of every forward pass; exposed
    /// for harnesses that drive the accelerator directly.
    pub fn chaos_tick(&mut self) -> Option<afpr_xbar::ScrubReport> {
        match &mut self.chaos {
            Some(ctl) => ctl.tick(&mut self.accel),
            None => None,
        }
    }

    /// A micro-batch of matvecs (conv patch positions, or a linear
    /// layer's one input), batched onto the engine when in parallel
    /// mode. Sequential mode still runs the batched GEMM kernel inline
    /// — one blocked conductance pass per tile for the whole batch,
    /// bit-identical to a per-sample matvec loop.
    fn matvec_many<X: AsRef<[f32]>>(&mut self, handle: LayerHandle, xs: &[X]) -> Vec<Vec<f32>> {
        match &self.engine {
            Some(engine) => self.accel.forward_batch(handle, xs, engine),
            None => self.accel.matvec_batch(handle, xs),
        }
    }

    /// The underlying accelerator (stats, energy…).
    #[must_use]
    pub fn accelerator(&self) -> &AfprAccelerator {
        &self.accel
    }

    /// The digital processing unit counters.
    #[must_use]
    pub fn dpu(&self) -> &Dpu {
        &self.dpu
    }

    /// Calibrates every mapped layer's ADC range by propagating the
    /// calibration samples through the FP32 model and handing each
    /// compute layer its observed inputs.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this sim was compiled from
    /// (traversal mismatch).
    pub fn calibrate(&mut self, model: &Sequential, samples: &[Tensor]) {
        let mut layer_inputs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); self.handles.len()];
        for sample in samples {
            let mut cursor = 0usize;
            collect_inputs_sequential(model, sample, &mut cursor, &mut layer_inputs);
        }
        for (handle, inputs) in self.handles.iter().zip(&layer_inputs) {
            self.accel.calibrate_layer(*handle, inputs);
        }
    }

    /// Hardware-in-the-loop forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this sim was compiled from.
    pub fn forward(&mut self, model: &Sequential, x: &Tensor) -> Tensor {
        let _ = self.chaos_tick();
        let mut cursor = 0usize;
        let out = forward_sequential(model, x, &mut cursor, self);
        assert_eq!(cursor, self.handles.len(), "traversal mismatch");
        out
    }

    /// Hardware-in-the-loop forward over the top-level layer range
    /// `[start, end)` — the pipeline-parallel building block: running
    /// `forward_layers(x, 0, a)` and feeding the result into
    /// `forward_layers(·, a, model.len())` is bit-identical to
    /// [`forward`](Self::forward), because the read path draws no
    /// randomness and the activation tensor is materialized between
    /// top-level layers either way.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this sim was compiled from,
    /// or if `start > end` or `end > model.len()`.
    pub fn forward_layers(
        &mut self,
        model: &Sequential,
        x: &Tensor,
        start: usize,
        end: usize,
    ) -> Tensor {
        assert!(start <= end && end <= model.len(), "bad layer range");
        let _ = self.chaos_tick();
        // Position the handle cursor at the first compute layer of
        // `start` by counting compute layers in the skipped prefix.
        let mut cursor: usize = model.layers()[..start]
            .iter()
            .map(|l| count_compute_layers(l.as_ref()))
            .sum();
        let mut cur = x.clone();
        for layer in &model.layers()[start..end] {
            cur = forward_layer(layer.as_ref(), &cur, &mut cursor, self);
        }
        if end == model.len() {
            assert_eq!(cursor, self.handles.len(), "traversal mismatch");
        }
        cur
    }
}

/// Number of macro-mapped compute layers ([`Conv2d`]/[`Linear`],
/// including those nested in [`Sequential`]/[`ResidualBlock`]) under a
/// layer — mirrors `map_layer`'s traversal exactly.
fn count_compute_layers(layer: &dyn Layer) -> usize {
    let any = layer.as_any();
    if any.downcast_ref::<Conv2d>().is_some() || any.downcast_ref::<Linear>().is_some() {
        1
    } else if let Some(inner) = any.downcast_ref::<Sequential>() {
        inner
            .layers()
            .iter()
            .map(|l| count_compute_layers(l.as_ref()))
            .sum()
    } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
        let main: usize = block
            .main()
            .layers()
            .iter()
            .map(|l| count_compute_layers(l.as_ref()))
            .sum();
        let short: usize = block.shortcut().map_or(0, |s| {
            s.layers()
                .iter()
                .map(|l| count_compute_layers(l.as_ref()))
                .sum()
        });
        main + short
    } else {
        0
    }
}

fn map_sequential(seq: &Sequential, accel: &mut AfprAccelerator, handles: &mut Vec<LayerHandle>) {
    for layer in seq.layers() {
        map_layer(layer.as_ref(), accel, handles);
    }
}

fn map_layer(layer: &dyn Layer, accel: &mut AfprAccelerator, handles: &mut Vec<LayerHandle>) {
    let any = layer.as_any();
    if let Some(conv) = any.downcast_ref::<Conv2d>() {
        handles.push(accel.map_matrix(&conv.as_matrix()));
    } else if let Some(lin) = any.downcast_ref::<Linear>() {
        handles.push(accel.map_matrix(&lin.as_matrix()));
    } else if let Some(inner) = any.downcast_ref::<Sequential>() {
        map_sequential(inner, accel, handles);
    } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
        map_sequential(block.main(), accel, handles);
        if let Some(s) = block.shortcut() {
            map_sequential(s, accel, handles);
        }
    }
}

fn collect_inputs_sequential(
    seq: &Sequential,
    x: &Tensor,
    cursor: &mut usize,
    out: &mut [Vec<Vec<f32>>],
) -> Tensor {
    let mut cur = x.clone();
    for layer in seq.layers() {
        cur = collect_inputs_layer(layer.as_ref(), &cur, cursor, out);
    }
    cur
}

fn collect_inputs_layer(
    layer: &dyn Layer,
    x: &Tensor,
    cursor: &mut usize,
    out: &mut [Vec<Vec<f32>>],
) -> Tensor {
    let any = layer.as_any();
    if let Some(conv) = any.downcast_ref::<Conv2d>() {
        let cols = conv.im2col(x);
        let [k, positions]: [usize; 2] = cols.shape().try_into().expect("2-D");
        // Sample a handful of patch columns for range calibration.
        for p in (0..positions).step_by((positions / 4).max(1)) {
            out[*cursor].push((0..k).map(|r| cols.get(&[r, p])).collect());
        }
        *cursor += 1;
        layer.forward(x)
    } else if any.downcast_ref::<Linear>().is_some() {
        out[*cursor].push(x.data().to_vec());
        *cursor += 1;
        layer.forward(x)
    } else if let Some(inner) = any.downcast_ref::<Sequential>() {
        collect_inputs_sequential(inner, x, cursor, out)
    } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
        let main = collect_inputs_sequential(block.main(), x, cursor, out);
        let skip = match block.shortcut() {
            Some(s) => collect_inputs_sequential(s, x, cursor, out),
            None => x.clone(),
        };
        main.add(&skip).map(|v| v.max(0.0))
    } else {
        layer.forward(x)
    }
}

fn forward_sequential(
    seq: &Sequential,
    x: &Tensor,
    cursor: &mut usize,
    sim: &mut MacroModelSim,
) -> Tensor {
    let mut cur = x.clone();
    for layer in seq.layers() {
        cur = forward_layer(layer.as_ref(), &cur, cursor, sim);
    }
    cur
}

fn forward_layer(
    layer: &dyn Layer,
    x: &Tensor,
    cursor: &mut usize,
    sim: &mut MacroModelSim,
) -> Tensor {
    let any = layer.as_any();
    if let Some(conv) = any.downcast_ref::<Conv2d>() {
        let handle = sim.handles[*cursor];
        *cursor += 1;
        let cols = conv.im2col(x);
        let [k, positions]: [usize; 2] = cols.shape().try_into().expect("2-D");
        let oc = conv.weight().shape()[0];
        let h = x.shape()[1];
        let w = x.shape()[2];
        let (oh, ow) = (conv.out_size(h), conv.out_size(w));
        let mut out = Tensor::zeros(&[oc, oh, ow]);
        let patches: Vec<Vec<f32>> = (0..positions)
            .map(|p| (0..k).map(|r| cols.get(&[r, p])).collect())
            .collect();
        let ys = sim.matvec_many(handle, &patches);
        for (p, mut y) in ys.into_iter().enumerate() {
            sim.dpu.add_bias(&mut y, conv.bias());
            for (o, v) in y.iter().enumerate() {
                out.data_mut()[o * oh * ow + p] = *v;
            }
        }
        out
    } else if let Some(lin) = any.downcast_ref::<Linear>() {
        let handle = sim.handles[*cursor];
        *cursor += 1;
        let mut y = sim
            .matvec_many(handle, &[x.data()])
            .pop()
            .expect("one input in, one output out");
        sim.dpu.add_bias(&mut y, lin.bias());
        Tensor::new(&[y.len()], y)
    } else if let Some(inner) = any.downcast_ref::<Sequential>() {
        forward_sequential(inner, x, cursor, sim)
    } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
        let main = forward_sequential(block.main(), x, cursor, sim);
        let skip = match block.shortcut() {
            Some(s) => forward_sequential(s, x, cursor, sim),
            None => x.clone(),
        };
        let mut sum = main.add(&skip);
        sim.dpu.relu(sum.data_mut());
        sum
    } else {
        // Activation / pooling / normalization run on the DPU
        // (paper §III-A: "performed by an activation or pooling
        // operation through an intermediate digital processing unit");
        // account one DPU op per produced element.
        let out = layer.forward(x);
        sim.dpu.count_passthrough(out.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afpr_nn::init::InitSpec;
    use afpr_nn::layers::{Conv2d, Flatten, GlobalAvgPool, Relu};
    use afpr_nn::models::tiny_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_on_macros_tracks_fp32() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = tiny_mlp(8, 12, 4, InitSpec::gaussian(), &mut rng);
        let samples: Vec<Tensor> = (0..4)
            .map(|s| Tensor::from_fn(&[8], |i| ((i[0] + s) as f32 * 0.63).sin()))
            .collect();
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 11);
        sim.calibrate(&model, &samples);
        for x in &samples {
            let hw = sim.forward(&model, x);
            let sw = model.forward(x);
            for (h, s) in hw.data().iter().zip(sw.data()) {
                assert!((h - s).abs() < 0.3 * s.abs().max(1.0), "hw {h} sw {s}");
            }
        }
    }

    #[test]
    fn conv_net_on_macros_runs_and_accounts() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::new(
            &[4, 2, 3, 3],
            afpr_nn::init::he_weights(72, 18, InitSpec::gaussian(), &mut rng),
        );
        let model = Sequential::new()
            .push(Conv2d::new(w, vec![0.0; 4], 1, 1))
            .push(Relu)
            .push(GlobalAvgPool)
            .push(Flatten);
        let x = Tensor::from_fn(&[2, 6, 6], |i| ((i[1] * 6 + i[2]) as f32 * 0.21).sin());
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 3);
        sim.calibrate(&model, std::slice::from_ref(&x));
        let hw = sim.forward(&model, &x);
        let sw = model.forward(&x);
        assert_eq!(hw.shape(), sw.shape());
        for (h, s) in hw.data().iter().zip(sw.data()) {
            assert!((h - s).abs() < 0.3 * s.abs().max(0.5), "hw {h} sw {s}");
        }
        // 36 output positions, one macro conversion each.
        assert_eq!(sim.accelerator().stats().conversions, 36);
        assert!(sim.dpu().ops() > 0);
    }

    #[test]
    fn forward_layers_split_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(17);
        let model = afpr_nn::models::tiny_resnet(3, InitSpec::gaussian(), &mut rng);
        let x = Tensor::from_fn(&[3, 16, 16], |i| {
            ((i[0] + 2 * i[1] + i[2]) as f32 * 0.11).cos()
        });
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 21);
        sim.calibrate(&model, std::slice::from_ref(&x));
        let full = sim.forward(&model, &x);
        for split in 1..model.len() {
            let mid = sim.forward_layers(&model, &x, 0, split);
            let out = sim.forward_layers(&model, &mid, split, model.len());
            assert_eq!(out.shape(), full.shape());
            for (a, b) in out.data().iter().zip(full.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "split at {split}");
            }
        }
    }

    #[test]
    fn residual_models_traverse_consistently() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = afpr_nn::models::tiny_resnet(3, InitSpec::gaussian(), &mut rng);
        let x = Tensor::from_fn(&[3, 16, 16], |i| ((i[0] + i[1] + i[2]) as f32 * 0.13).sin());
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 9);
        // 8 convs (stem + 2+2+2 block mains + 1 projection shortcut)
        // + 1 linear head = 9 compute layers.
        assert_eq!(sim.handles.len(), 9);
        sim.calibrate(&model, std::slice::from_ref(&x));
        let y = sim.forward(&model, &x);
        assert_eq!(y.shape(), &[3]);
    }
}
