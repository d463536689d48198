//! `fisheye::codegen` — kernel source emission from compiled plans.
//!
//! The engines in this workspace *execute* a
//! [`RemapPlan`](crate::core::RemapPlan); this
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
//! let kernel = emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::Wgsl);
//! assert_eq!(kernel.file_name(), "fisheye_remap_bilinear.wgsl");
//! assert!(kernel.source.contains("@compute"));
//! ```
//!
//! A plan holds geometry only; the kernel to emit is an argument, so
//! one compiled plan lowers to nearest, bilinear and bicubic kernels
//! alike. The CLI front-end for this module is `fisheye-cli
//! emit-kernel`.

pub use fisheye_codegen::{
    emit_kernel, lower, EmittedKernel, KernelIr, KernelOp, KernelTarget, SampleMode,
    SimtBatchReport, SimtConfig, SimtCounters, SimtEngine, DEFAULT_LINE_BYTES, WARP_LANES,
};
