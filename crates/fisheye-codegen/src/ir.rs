//! The target-neutral kernel IR.
//!
//! [`lower`] turns a compiled [`RemapPlan`] plus an [`EngineSpec`] and
//! an [`Interpolator`] into a [`KernelIr`]: a short, fixed op list every lane of a warp
//! executes in lockstep under a validity mask, plus the metadata the
//! emitters and the interpreter need (sample mode, workgroup/tile
//! geometry, dimensions, plan digest). The op list is deliberately
//! small — it is the portability contract between the WGSL emitter,
//! the C emitter and the in-process SIMT interpreter, so all three
//! agree on *what* the kernel does and differ only in *how* the steps
//! are spelled.

use fisheye_core::engine::{simt_tile, EngineSpec, DEFAULT_SIMT_WG};
use fisheye_core::plan::RemapPlan;
use fisheye_core::Interpolator;

/// How the kernel turns a remap coordinate into a sample value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleMode {
    /// 1-tap nearest neighbour.
    Nearest,
    /// 4-tap bilinear (the float datapath).
    Bilinear,
    /// 16-tap Catmull–Rom bicubic.
    Bicubic,
    /// 4-tap integer bilinear through the plan's prequantized LUT.
    FixedLut {
        /// Fractional weight bits of the quantized entries.
        frac_bits: u32,
    },
}

impl SampleMode {
    /// Short label used in kernel names and report headers.
    pub fn label(&self) -> String {
        match *self {
            SampleMode::Nearest => "nearest".into(),
            SampleMode::Bilinear => "bilinear".into(),
            SampleMode::Bicubic => "bicubic".into(),
            SampleMode::FixedLut { frac_bits } => format!("fixed_q{frac_bits}"),
        }
    }

    /// Source taps gathered per output pixel.
    pub fn taps(&self) -> u32 {
        match self {
            SampleMode::Nearest => 1,
            SampleMode::Bilinear | SampleMode::FixedLut { .. } => 4,
            SampleMode::Bicubic => 16,
        }
    }

    /// Side of the square source neighbourhood the gather touches —
    /// what the coalescing model counts cache lines over.
    pub fn reach(&self) -> u32 {
        match self {
            SampleMode::Nearest => 1,
            SampleMode::Bilinear | SampleMode::FixedLut { .. } => 2,
            SampleMode::Bicubic => 4,
        }
    }
}

/// One lockstep step of the kernel. Every lane of a warp executes the
/// whole list; per-lane divergence exists only as the validity mask
/// [`KernelOp::ValidCheck`] computes, which gates the gather/sample
/// ops and inverts for the gap fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelOp {
    /// Read the lane's remap coordinate (or quantized LUT entry).
    LoadCoords,
    /// Compute the lane's validity mask (the NaN / sentinel test).
    ValidCheck,
    /// Read the source neighbourhood for masked-valid lanes.
    Gather {
        /// Taps per lane.
        taps: u32,
    },
    /// Combine the gathered taps into the lane's value.
    Sample(SampleMode),
    /// Write black through the inverted mask (invalid lanes).
    FillGap,
    /// Fused post stage: transfer-table lookup plus dither, applied
    /// to every lane — gap fill included, matching the CPU fusion.
    Post,
    /// Write the lane's output pixel.
    Store,
}

/// A lowered kernel: the op list plus everything an emitter or the
/// interpreter needs to shape it for a target.
#[derive(Clone, Debug)]
pub struct KernelIr {
    /// Kernel / entry-point name (derived from the sample mode).
    pub name: String,
    /// Sample datapath.
    pub sample: SampleMode,
    /// Workgroup geometry `(width, height)` in output pixels — one
    /// 32-lane warp per workgroup row.
    pub workgroup: (u32, u32),
    /// Output dimensions the plan was compiled for.
    pub out_dims: (u32, u32),
    /// Source frame dimensions the plan expects.
    pub src_dims: (u32, u32),
    /// Whether the post stage is fused into the kernel (guarded at
    /// run time by a params flag / null table).
    pub fused_post: bool,
    /// Digest of the plan this kernel was lowered from; embedded in
    /// emitted source headers so generated artifacts are traceable.
    pub plan_digest: u64,
    /// The lockstep op list.
    pub ops: Vec<KernelOp>,
}

/// Lower a compiled plan + spec + kernel into kernel IR.
///
/// The spec picks the datapath: `fixed`/`cell` lower to the integer
/// LUT kernel at their weight width, `simd` to the bilinear kernel it
/// is locked to, and every other spec to `interp`, the kernel its
/// engine runs (a plan carries none). Every registry spec lowers.
pub fn lower(plan: &RemapPlan, spec: &EngineSpec, interp: Interpolator) -> KernelIr {
    let sample = match *spec {
        EngineSpec::FixedPoint { frac_bits } | EngineSpec::Cell { frac_bits, .. } => {
            SampleMode::FixedLut { frac_bits }
        }
        EngineSpec::Simd => SampleMode::Bilinear,
        _ => match interp {
            Interpolator::Nearest => SampleMode::Nearest,
            Interpolator::Bilinear => SampleMode::Bilinear,
            Interpolator::Bicubic => SampleMode::Bicubic,
        },
    };
    let workgroup = match *spec {
        EngineSpec::Simt { workgroup } => simt_tile(workgroup),
        EngineSpec::Gpu { block_threads } => simt_tile(block_threads),
        EngineSpec::Cell { tile_w, tile_h, .. } => (tile_w, tile_h),
        _ => simt_tile(DEFAULT_SIMT_WG),
    };
    let fused_post = spec.capabilities().fused_post;
    let mut ops = vec![
        KernelOp::LoadCoords,
        KernelOp::ValidCheck,
        KernelOp::Gather {
            taps: sample.taps(),
        },
        KernelOp::Sample(sample),
        KernelOp::FillGap,
    ];
    if fused_post {
        ops.push(KernelOp::Post);
    }
    ops.push(KernelOp::Store);
    KernelIr {
        name: format!("fisheye_remap_{}", sample.label()),
        sample,
        workgroup,
        out_dims: (plan.width(), plan.height()),
        src_dims: plan.src_dims(),
        fused_post,
        plan_digest: plan.digest(),
        ops,
    }
}
