//! # fisheye — fisheye lens distortion correction on multicore and
//! hardware accelerator platforms
//!
//! A Rust reproduction of the IPPS/IPDPS 2010 parallelization study of
//! real-time fisheye distortion correction. The facade re-exports the
//! workspace crates under one roof:
//!
//! | module | contents |
//! |--------|----------|
//! | [`img`] | pixel buffers, PGM/PPM/BMP codecs, synthetic scenes, quality metrics |
//! | [`geom`] | lens models, perspective views, Brown–Conrady baseline, calibration |
//! | [`core`] | remap LUTs, interpolators, tiling, the correction pipeline |
//! | [`par`] | the OpenMP-style thread pool and loop schedules |
//! | [`fixed`] | Q-format fixed point, CORDIC, lookup tables |
//! | [`cell`] | the Cell/B.E. platform model |
//! | [`gpu`] | the SIMT GPU platform model |
//! | [`stream`] | the streaming/FPGA platform model |
//! | [`video`] | the real-time video pipeline |
//! | [`codegen`] | WGSL/C kernel emission and the SIMT batch interpreter |
//!
//! (The multi-session serving layer lives in the `fisheye-serve`
//! crate, which builds on this facade's [`Corrector`].)
//!
//! ## Quickstart
//!
//! The one entry point is [`Corrector`]: name the lens, the view you
//! want, and the backend; `build()` compiles the remap plan once and
//! every frame after that is pure plan execution.
//!
//! ```
//! use fisheye::prelude::*;
//!
//! // a 180° equidistant camera delivering 640x480 frames
//! let lens = FisheyeLens::equidistant_fov(640, 480, 180.0);
//! // the corrected view an operator wants: straight ahead, 90° hFOV
//! let view = PerspectiveView::centered(640, 480, 90.0);
//! let corrector = Corrector::builder().lens(lens).view(view).build()?;
//!
//! let frame = fisheye::img::scene::random_gray(640, 480, 1);
//! let mut out = Image::new(640, 480);
//! let report = corrector.correct_into(&frame, &mut out)?;
//! assert_eq!(out.dims(), (640, 480));
//! assert_eq!(report.backend, "serial");
//! # Ok::<(), fisheye::Error>(())
//! ```
//!
//! Switch backends by passing any registry spec to
//! [`CorrectorBuilder::backend`] — `"smp"`, `"fixed"`, `"simd"`,
//! `"cell"`, `"gpu"` — parsed from strings via
//! [`EngineSpec`](crate::core::EngineSpec)'s `FromStr` if they arrive
//! from a command line.

pub mod codegen;
pub mod corrector;
pub mod engine;
pub mod error;

pub use cellsim as cell;
pub use fisheye_core as core;
pub use fisheye_geom as geom;
pub use fixedq as fixed;
pub use gpusim as gpu;
pub use memsim as mem;
pub use par_runtime as par;
pub use pixmap as img;
pub use streamsim as stream;
pub use videopipe as video;

pub use corrector::{Corrector, CorrectorBuilder, CorrectorPixel};
pub use error::{Error, ErrorKind};

/// The most commonly used items in one import. This surface is
/// pinned by `tests/api_surface.rs` — additions are deliberate,
/// removals are breaking.
pub mod prelude {
    pub use crate::codegen::{emit_kernel, EmittedKernel, KernelTarget};
    pub use crate::core::{
        CorrectionEngine, DitherSeed, EngineSpec, FixedRemapMap, Frame, FrameCorrector,
        FrameFormat, FrameReport, Interpolator, Lut3d, PlanOptions, PlaneClass, PostStage,
        RemapMap, RemapPlan, TilePlan, ToneMap, ViewPlan,
    };
    pub use crate::corrector::{Corrector, CorrectorBuilder, CorrectorPixel};
    pub use crate::error::{Error, ErrorKind};
    pub use crate::geom::{
        BrownConrady, FisheyeLens, LensModel, OutputProjection, PerspectiveView,
    };
    pub use crate::img::{FramePool, Gray8, GrayF32, Image, Pixel, PlanePool, Rgb8};
    pub use crate::par::{Schedule, ThreadPool};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_matches_the_core_entry_point() {
        let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
        let view = PerspectiveView::centered(32, 24, 90.0);
        let frame = crate::img::scene::random_gray(64, 48, 1);
        let corrector = Corrector::builder().lens(lens).view(view).build().unwrap();
        let (via_corrector, _) = corrector.correct(&frame).unwrap();
        assert_eq!(via_corrector.dims(), (32, 24));

        let map = RemapMap::build(&lens, &view, 64, 48);
        assert_eq!(
            crate::core::correct(&frame, &map, Interpolator::Bilinear).pixels(),
            via_corrector.pixels()
        );
    }
}
