//! `fisheye::codegen` — kernel source emission from compiled plans.
//!
//! The engines in this workspace *execute* a [`RemapPlan`]; this
//! module *lowers* one instead, into kernel source a real accelerator
//! toolchain could compile: a WGSL compute shader (one workgroup per
//! output tile) or a C translation unit shaped for auto-vectorization.
//! The same lowering drives the in-process SIMT batch interpreter
//! (`simt` in [`EngineSpec::registry`](crate::core::engine::EngineSpec::registry)),
//! so the emitted text is not speculative — the kernel it describes
//! is executed, counter-instrumented and bit-exactness-tested on every
//! CI run.
//!
//! ```
//! use fisheye::prelude::*;
//!
//! let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
//! let view = PerspectiveView::centered(160, 120, 90.0);
//! let map = RemapMap::build(&lens, &view, 320, 240);
//! let plan = RemapPlan::compile(&map, PlanOptions::default());
//!
//! let spec = EngineSpec::Simt { workgroup: 256 };
//! let kernel = emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::Wgsl)?;
//! assert_eq!(kernel.file_name(), "fisheye_remap_bilinear.wgsl");
//! assert!(kernel.source.contains("@compute"));
//! # Ok::<(), fisheye::Error>(())
//! ```
//!
//! A plan holds geometry only; the kernel to emit is an argument, so
//! one compiled plan lowers to nearest, bilinear and bicubic kernels
//! alike. The CLI front-end for this module is `fisheye-cli
//! emit-kernel`.

use crate::core::engine::EngineSpec;
use crate::core::{Interpolator, RemapPlan};
use crate::error::Error;

pub use fisheye_codegen::{
    lower, CodegenError, EmittedKernel, KernelIr, KernelOp, KernelTarget, SampleMode,
    SimtBatchReport, SimtConfig, SimtCounters, SimtEngine, DEFAULT_LINE_BYTES, WARP_LANES,
};

/// Lower `plan` for `spec` running `interp` and emit kernel source
/// for `target`, reporting refusals through the facade's [`Error`]
/// (kind [`ErrorKind::Codegen`](crate::ErrorKind::Codegen)). This is
/// the facade spelling of [`fisheye_codegen::emit_kernel`].
pub fn emit_kernel(
    plan: &RemapPlan,
    spec: &EngineSpec,
    interp: Interpolator,
    target: KernelTarget,
) -> Result<EmittedKernel, Error> {
    Ok(fisheye_codegen::emit_kernel(plan, spec, interp, target)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{PlanOptions, RemapMap};
    use crate::geom::{FisheyeLens, PerspectiveView};

    fn plan() -> RemapPlan {
        let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
        let view = PerspectiveView::centered(32, 24, 90.0);
        let map = RemapMap::build(&lens, &view, 64, 48);
        RemapPlan::compile(&map, PlanOptions::default())
    }

    #[test]
    fn facade_emit_kernel_maps_refusals_to_error_codegen() {
        let plan = plan();
        let simt = EngineSpec::Simt { workgroup: 64 };
        let kernel = emit_kernel(&plan, &simt, Interpolator::Bilinear, KernelTarget::C)
            .expect("emit C kernel");
        assert_eq!(kernel.target, KernelTarget::C);
        assert_eq!(kernel.plan_digest, plan.digest());
        let err = emit_kernel(
            &plan,
            &EngineSpec::Direct,
            Interpolator::Bilinear,
            KernelTarget::Wgsl,
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Codegen);
    }
}
