//! # fisheye-codegen — the plan layer as a compiler target
//!
//! The paper's accelerator ports treat the remap table as the artifact
//! that crosses the host/device boundary. A compiled
//! [`RemapPlan`] already *is* that
//! accelerator-friendly form — SoA coordinate planes, span RLE,
//! prequantized LUTs, tile plans — so this crate closes the loop and
//! lowers it to executable kernel source:
//!
//! 1. [`lower`] derives a small target-neutral [`KernelIr`] from the
//!    plan + an [`EngineSpec`] + an [`Interpolator`] — gather, sample
//!    (nearest / bilinear / bicubic / fixed-LUT), gap fill, and the
//!    fused post-stage table lookup, as one lockstep op list. The
//!    kernel is an argument because a plan holds geometry only: the
//!    same plan lowers to every kernel.
//! 2. [`emit_kernel`] renders the IR for a [`KernelTarget`]: a WGSL
//!    compute shader (workgroup = tile) or portable C99 (the
//!    `fixed`/`simd` engine loops as source).
//! 3. [`SimtEngine`] *executes* the WGSL-shaped kernel in-process on
//!    batches of frames — warp/workgroup stepping with divergence and
//!    coalescing counters — so `gpusim`'s analytic occupancy numbers
//!    can be checked against measured kernel behavior (experiment
//!    T10). It registers as the `simt[:WG]` engine, is built with its
//!    kernel as every engine is, and its output is bit-exact with the
//!    host engines on the same plan.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod c_src;
pub mod ir;
mod simt;
mod wgsl;

pub use ir::{lower, KernelIr, KernelOp, SampleMode};
pub use simt::{
    SimtBatchReport, SimtConfig, SimtCounters, SimtEngine, DEFAULT_LINE_BYTES, WARP_LANES,
};

use fisheye_core::engine::EngineSpec;
use fisheye_core::plan::RemapPlan;
use fisheye_core::Interpolator;

/// Why a plan/spec combination could not be lowered to kernel source.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodegenError {
    /// The spec has no plan-driven kernel form.
    Unsupported {
        /// Canonical backend name.
        backend: String,
        /// What is missing.
        reason: String,
    },
}

impl CodegenError {
    /// Convenience constructor for [`CodegenError::Unsupported`].
    pub fn unsupported(backend: impl Into<String>, reason: impl Into<String>) -> Self {
        CodegenError::Unsupported {
            backend: backend.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::Unsupported { backend, reason } => {
                write!(f, "codegen for '{backend}' unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Emission target language.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelTarget {
    /// WGSL compute shader, workgroup = tile.
    Wgsl,
    /// Portable C99 with the engine-loop structure.
    C,
}

impl KernelTarget {
    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelTarget::Wgsl => "wgsl",
            KernelTarget::C => "c",
        }
    }

    /// Conventional source-file extension (no dot).
    pub fn file_extension(&self) -> &'static str {
        match self {
            KernelTarget::Wgsl => "wgsl",
            KernelTarget::C => "c",
        }
    }
}

impl std::fmt::Display for KernelTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rendered kernel: source text plus the metadata to file it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmittedKernel {
    /// Language the source is in.
    pub target: KernelTarget,
    /// Kernel name (`fisheye_remap_<mode>`).
    pub name: String,
    /// Entry-point symbol (same as `name` for both targets).
    pub entry_point: String,
    /// The complete source text.
    pub source: String,
    /// Digest of the plan the kernel was lowered from.
    pub plan_digest: u64,
}

impl EmittedKernel {
    /// `name.ext` filename the CLI writes this kernel under.
    pub fn file_name(&self) -> String {
        format!("{}.{}", self.name, self.target.file_extension())
    }
}

/// Lower `plan` + `spec` + `interp` to IR and render it for `target`.
/// `interp` picks the float sampler; specs locked to one datapath
/// (`fixed`, `cell`, `simd`) ignore it, as their engines do.
pub fn emit_kernel(
    plan: &RemapPlan,
    spec: &EngineSpec,
    interp: Interpolator,
    target: KernelTarget,
) -> Result<EmittedKernel, CodegenError> {
    let ir = ir::lower(plan, spec, interp)?;
    let source = match target {
        KernelTarget::Wgsl => wgsl::emit(&ir),
        KernelTarget::C => c_src::emit(&ir),
    };
    Ok(EmittedKernel {
        target,
        entry_point: ir.name.clone(),
        name: ir.name,
        source,
        plan_digest: ir.plan_digest,
    })
}
