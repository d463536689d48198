//! # fisheye-core — the distortion-correction engine
//!
//! Implements the paper's application proper, in its two phases:
//!
//! 1. **Map generation** ([`map`]) — for every output pixel of a
//!    [`fisheye_geom::PerspectiveView`], trace the ray into the fisheye
//!    [`fisheye_geom::FisheyeLens`] and record the source coordinate in
//!    a remap LUT ([`RemapMap`]); optionally quantized to fixed point
//!    ([`FixedRemapMap`]) for the accelerator paths.
//! 2. **Correction** ([`correct()`](fn@correct)) — per frame, gather source pixels
//!    through the LUT with a chosen [`Interpolator`] to produce the
//!    corrected frame. Serial, multicore ([`par_runtime::ThreadPool`])
//!    and fixed-point variants are provided.
//!
//! Supporting modules:
//!
//! * [`interp`] — nearest / bilinear / bicubic sampling, float and
//!   integer datapaths.
//! * [`tile`] — output tiling and per-tile *source footprints*, the
//!   unit of DMA on local-store architectures (Cell) and the basis of
//!   the memory-traffic experiment (T2/F4).
//! * [`synth`] — synthetic fisheye capture: renders a `pixmap` scene
//!   through the *forward* lens model, producing the distorted input
//!   frames all experiments consume (substitute for the paper's
//!   camera; DESIGN.md §6).
//! * [`plan`] — the compile/execute split: [`RemapPlan`] turns a
//!   [`RemapMap`] into an immutable execution artifact (SoA coordinate
//!   planes, per-row valid spans, prequantized fixed-point LUTs, tile
//!   plans) that every engine consumes (DESIGN.md §2.2).

pub mod antialias;
pub mod composite;
pub mod correct;
pub mod engine;
pub mod frame;
pub mod interp;
pub mod map;
pub mod plan;
// the post stage runs inside the fused span loop on every frame; a
// panic here takes down whole streams, so unwrap is denied at the
// module
#[deny(clippy::unwrap_used)]
pub mod post;
pub mod simd;
pub mod synth;
pub mod tile;

pub use antialias::{correct_antialiased, AaConfig};
pub use composite::{
    compose_layers, compose_two_pass, execute_composite_host, panorama_camera_digest,
    panorama_camera_map, panorama_scores, rectified_camera_digest, rectified_camera_map,
    CompositePixel, CompositePlan, CompositeViewPlan, StereoPlan,
};
pub use correct::{correct, correct_fixed, correct_fixed_into, correct_into};
pub use engine::{
    Capabilities, CorrectionEngine, EngineError, EnginePixel, EngineSpec, FrameReport, NumericClass,
};
pub use frame::{
    Frame, FrameCorrector, FrameEngines, FrameFormat, PlaneClass, PlaneRequest, ViewPlan,
};
pub use interp::Interpolator;
pub use map::{FixedRemapMap, MapEntry, RemapMap};
pub use plan::{
    correct_plan, correct_plan_into, plan_request_digest, PlanOptions, RemapPlan, ValidSpan,
};
pub use post::{DitherSeed, Lut3d, PostChannel, PostPixel, PostPlan, PostStage, ToneMap};
pub use tile::{TileJob, TilePlan};
