//! `Corrector` — the one front door for distortion correction.
//!
//! Earlier revisions grew a facade sprawl: `correct`,
//! `correct_fixed`, `correct_plan*`, `build_projection*` and the
//! `BuildCtx`-based engine builders each exposed one slice of the
//! compile/execute split, and every caller had to know which slice it
//! wanted and how to thread a [`RemapPlan`] between them. The
//! [`Corrector`] builder replaces all of those entry points:
//!
//! ```
//! use fisheye::prelude::*;
//!
//! let lens = FisheyeLens::equidistant_fov(640, 480, 180.0);
//! let view = PerspectiveView::centered(320, 240, 90.0);
//! let corrector = Corrector::builder()
//!     .lens(lens)
//!     .view(view)
//!     .backend(EngineSpec::Serial)
//!     .build()?;
//!
//! let frame = fisheye::img::scene::random_gray(640, 480, 1);
//! let mut out = Image::new(320, 240);
//! let report = corrector.correct_into(&frame, &mut out)?;
//! assert_eq!(report.backend, "serial");
//! # Ok::<(), fisheye::Error>(())
//! ```
//!
//! `build()` does the expensive work exactly once — trace the map(s),
//! compile the [`ViewPlan`], resolve the [`EngineSpec`] to an engine
//! — so the per-frame call is nothing but plan execution. View
//! changes go through [`Corrector::set_view`] (recompile) or, in the
//! serving layer, [`Corrector::set_view_plan`] (adopt cached plans
//! compiled by another session — the same `Arc<RemapPlan>`s serve
//! every tenant with that view); both keep the engine `build()`
//! resolved.
//!
//! ## Multi-plane formats
//!
//! The corrector speaks every [`FrameFormat`], not just single gray
//! planes. Every format carries 8-bit planes, and internally *every*
//! corrector collapses onto a [`FrameCorrector`] from the core frame
//! layer driving one `Gray8` engine; the single-image path
//! ([`Corrector::correct_into`]) is simply the degenerate one-plane
//! case. Declare a format on the builder and feed whole [`Frame`]s:
//!
//! ```
//! use fisheye::prelude::*;
//!
//! let lens = FisheyeLens::equidistant_fov(128, 96, 180.0);
//! let view = PerspectiveView::centered(64, 48, 90.0);
//! let corrector: Corrector = Corrector::builder()
//!     .lens(lens)
//!     .view(view)
//!     .format(FrameFormat::Yuv420)
//!     .build()?;
//!
//! let frame = Frame::new(FrameFormat::Yuv420, 128, 96);
//! let (out, report) = corrector.correct_frame(&frame)?;
//! assert_eq!(out.dims(), (64, 48));
//! assert_eq!(report.model["planes"], 3.0);
//! # Ok::<(), fisheye::Error>(())
//! ```

// Every frame a shard serves to a single-camera session goes through
// `Corrector::frame_corrector`; a panic here takes the shard's
// sessions down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cell::{CellConfig, CellEngine};
use crate::codegen::SimtEngine;
use crate::core::engine::{build_host, CorrectionEngine, EngineError, EngineSpec, HostCtx};
use crate::core::frame::{Frame, FrameCorrector, FrameFormat, PlaneClass, ViewPlan};
use crate::core::plan::plan_request_digest;
use crate::core::post::{DitherSeed, Lut3d, PostStage, ToneMap};
use crate::core::{FrameReport, Interpolator, PlanOptions, RemapMap, RemapPlan};
use crate::error::Error;
use crate::geom::{FisheyeLens, OutputProjection, PerspectiveView};
use crate::gpu::{GpuConfig, GpuEngine};
use crate::img::{Gray8, Image};
use crate::par::{Schedule, ThreadPool};

/// The pixel type a [`Corrector`] serves. Every [`FrameFormat`]
/// carries 8-bit planes, so [`Gray8`] is the one implementation; the
/// bound keeps `Corrector<Gray8>` spelling its pixel type.
pub trait CorrectorPixel: crate::img::Pixel + 'static {}

impl CorrectorPixel for Gray8 {}

/// Resolve `spec` to an engine, host or accelerator. The Cell and GPU
/// models run on their default machine descriptions; experiments that
/// sweep machines build those engines directly.
fn resolve_engine(
    spec: &EngineSpec,
    ctx: &HostCtx,
) -> Result<Box<dyn CorrectionEngine>, EngineError> {
    match spec {
        EngineSpec::Cell { .. } => Ok(Box::new(CellEngine::from_spec(
            spec,
            CellConfig::default(),
        )?)),
        EngineSpec::Gpu { .. } => Ok(Box::new(GpuEngine::from_spec(
            spec,
            GpuConfig::default(),
            ctx.interp,
        )?)),
        EngineSpec::Simt { .. } => Ok(Box::new(SimtEngine::from_spec(spec, ctx.interp)?)),
        _ => build_host(spec, ctx),
    }
}

/// What the corrector renders: a pan/tilt/zoom perspective view (the
/// common case, PTZ-changeable) or a fixed panoramic projection.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Target {
    View(PerspectiveView),
    Projection(OutputProjection),
}

impl Target {
    fn out_dims(&self) -> (u32, u32) {
        match self {
            Target::View(v) => (v.width, v.height),
            Target::Projection(p) => p.dims(),
        }
    }
}

/// Builder for [`Corrector`]; see the module docs for the canonical
/// usage. Construct with [`Corrector::builder`].
pub struct CorrectorBuilder<P: CorrectorPixel = Gray8> {
    lens: Option<FisheyeLens>,
    target: Option<Target>,
    source: Option<(u32, u32)>,
    format: Option<FrameFormat>,
    spec: EngineSpec,
    interp: Interpolator,
    threads: usize,
    plan: Option<Arc<RemapPlan>>,
    view_plan: Option<ViewPlan>,
    post: PostStage,
    _pixel: PhantomData<P>,
}

impl Default for CorrectorBuilder {
    fn default() -> Self {
        CorrectorBuilder {
            lens: None,
            target: None,
            source: None,
            format: None,
            spec: EngineSpec::Serial,
            interp: Interpolator::Bilinear,
            threads: 4,
            plan: None,
            view_plan: None,
            post: PostStage::identity(),
            _pixel: PhantomData,
        }
    }
}

impl CorrectorBuilder {
    /// The fisheye camera producing the source frames (required).
    pub fn lens(mut self, lens: FisheyeLens) -> Self {
        self.lens = Some(lens);
        self
    }

    /// The corrected perspective view to render (this or
    /// [`projection`](Self::projection) is required).
    pub fn view(mut self, view: PerspectiveView) -> Self {
        self.target = Some(Target::View(view));
        self
    }

    /// Render a panoramic projection instead of a perspective view
    /// (replaces the old `build_projection*` free functions).
    pub fn projection(mut self, proj: OutputProjection) -> Self {
        self.target = Some(Target::Projection(proj));
        self
    }

    /// Source frame dimensions. Defaults to the lens's sensor size
    /// inferred from its optical center (`2·cx × 2·cy`), which is
    /// exact for every `*_fov` lens constructor.
    pub fn source(mut self, width: u32, height: u32) -> Self {
        self.source = Some((width, height));
        self
    }

    /// The frame format this corrector accepts (default
    /// [`FrameFormat::Gray8`]). Multi-plane formats
    /// ([`FrameFormat::Yuv420`], [`FrameFormat::Rgb8`]) require a
    /// perspective-view target.
    pub fn format(mut self, format: FrameFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// Execution backend (default [`EngineSpec::Serial`]). Accepts
    /// anything in [`EngineSpec::registry`] plus parameterized forms.
    pub fn backend(mut self, spec: EngineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Interpolation kernel for the float paths (default bilinear).
    pub fn interp(mut self, interp: Interpolator) -> Self {
        self.interp = interp;
        self
    }

    /// Worker threads for the `smp` backends (default 4).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Color-grade corrected output through a 3D LUT at `strength`
    /// (0 = off, 1 = full). The grade is part of the post stage fused
    /// into the remap traversal on backends that support it — see
    /// [`PostStage`]. Chroma planes of multi-plane formats are
    /// curve-exempt; RGB planes are graded per channel.
    pub fn grade(mut self, lut: Arc<Lut3d>, strength: f32) -> Self {
        self.post = self.post.with_grade(lut, strength);
        self
    }

    /// Tone-map corrected output (default [`ToneMap::Linear`], i.e.
    /// off). Applied in linear light, after the grade.
    pub fn tone_map(mut self, tone: ToneMap) -> Self {
        self.post = self.post.with_tone_map(tone);
        self
    }

    /// Dither the re-quantization of post-processed byte output with
    /// interleaved-gradient noise derived from `seed` and the pixel
    /// coordinates. Deterministic: same seed, same bytes.
    pub fn dither(mut self, seed: DitherSeed) -> Self {
        self.post = self.post.with_dither(seed);
        self
    }

    /// Replace the whole post stage at once (the serving layer
    /// carries one per session config).
    pub fn post_stage(mut self, stage: PostStage) -> Self {
        self.post = stage;
        self
    }

    /// Adopt an already-compiled plan instead of compiling one
    /// (the serving layer injects its cache's `Arc<RemapPlan>` here).
    /// The plan must match the view and source dimensions or
    /// [`build`](Self::build) reports [`Error::Config`]. Single-plane
    /// formats only — multi-plane formats inject a whole
    /// [`view_plan`](Self::view_plan).
    pub fn plan(mut self, plan: Arc<RemapPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Adopt an already-compiled multi-plane [`ViewPlan`] (the serving
    /// layer assembles one from per-plane cache hits). Must match the
    /// declared format, view and source dimensions.
    pub fn view_plan(mut self, plan: ViewPlan) -> Self {
        self.view_plan = Some(plan);
        self
    }

    /// Compile the plan(s) (unless injected), resolve the engine, and
    /// return the ready corrector. All validation happens here —
    /// nothing in the builder chain panics on bad input.
    pub fn build(self) -> Result<Corrector, Error> {
        let lens = self
            .lens
            .ok_or_else(|| Error::config("Corrector::builder(): .lens(..) is required"))?;
        let target = self.target.ok_or_else(|| {
            Error::config("Corrector::builder(): .view(..) or .projection(..) is required")
        })?;
        let format = self.format.unwrap_or(FrameFormat::Gray8);
        if format.is_multi_plane() {
            if matches!(target, Target::Projection(_)) {
                return Err(Error::config(
                    "multi-plane formats require a perspective-view target",
                ));
            }
            if self.plan.is_some() {
                return Err(Error::config(
                    "a single injected plan cannot drive a multi-plane format; \
                     inject a ViewPlan with .view_plan(..)",
                ));
            }
        }
        let (src_w, src_h) = match self.source {
            Some(dims) => dims,
            None => {
                let w = (lens.cx * 2.0).round();
                let h = (lens.cy * 2.0).round();
                if !(w >= 1.0 && h >= 1.0 && w <= u32::MAX as f64 && h <= u32::MAX as f64) {
                    return Err(Error::config(format!(
                        "cannot infer source dims from lens center ({}, {}); \
                         pass .source(w, h)",
                        lens.cx, lens.cy
                    )));
                }
                (w as u32, h as u32)
            }
        };
        if src_w == 0 || src_h == 0 {
            return Err(Error::config("source dimensions must be positive"));
        }
        let (out_w, out_h) = target.out_dims();
        if out_w == 0 || out_h == 0 {
            return Err(Error::config("output dimensions must be positive"));
        }
        if self.threads == 0 {
            return Err(Error::config("thread count must be positive"));
        }
        if let EngineSpec::Smp { schedule } = self.spec {
            let ok = match schedule {
                crate::par::Schedule::Static { chunk } => chunk.is_none_or(|c| c > 0),
                crate::par::Schedule::Dynamic { chunk } => chunk > 0,
                crate::par::Schedule::Guided { min_chunk } => min_chunk > 0,
            };
            if !ok {
                return Err(Error::config("smp schedule chunk must be positive"));
            }
        }
        let opts = PlanOptions::for_specs(&[self.spec]);
        let (plan, map_time, plan_time) = match (self.view_plan, self.plan) {
            (Some(vp), _) => {
                check_view_plan_matches(&vp, format, (out_w, out_h), (src_w, src_h))?;
                (vp, Duration::ZERO, Duration::ZERO)
            }
            (None, Some(plan)) => {
                check_plan_matches(&plan, (out_w, out_h), (src_w, src_h))?;
                let vp = ViewPlan::from_plans(format, vec![plan])?;
                (vp, Duration::ZERO, Duration::ZERO)
            }
            (None, None) => compile_target(format, &lens, &target, src_w, src_h, &opts, None)?,
        };
        let frames = assemble_frames(
            format,
            &self.spec,
            self.interp,
            self.threads,
            plan,
            &self.post,
        )?;
        Ok(Corrector {
            lens,
            target,
            src_w,
            src_h,
            format,
            spec: self.spec,
            interp: self.interp,
            threads: self.threads,
            frames,
            map_time,
            plan_time,
            map_pool: None,
            post: self.post,
            _pixel: PhantomData,
        })
    }
}

/// Resolve `spec`'s engine for `interp` and `threads` and assemble the
/// frame corrector around `plan`, its post tables compiled from
/// `post`. Only building a corrector and changing its kernel resolve
/// an engine: engines hold no view state, so a view change swaps plans
/// under the engine the corrector already has.
fn assemble_frames(
    format: FrameFormat,
    spec: &EngineSpec,
    interp: Interpolator,
    threads: usize,
    plan: ViewPlan,
    post: &PostStage,
) -> Result<FrameCorrector, Error> {
    let engine = resolve_engine(spec, &HostCtx { interp, threads })?;
    let mut frames = FrameCorrector::from_parts(format, plan, engine)?;
    frames.set_post(post);
    Ok(frames)
}

/// Compile the view plan for a target: perspective views go through
/// [`ViewPlan::compile_timed_pooled`] (one plan per plane class);
/// projection targets trace the projection map (single-plane formats
/// only — the builder rejects the combination otherwise). The map
/// trace runs row-parallel when `pool` is given.
fn compile_target(
    format: FrameFormat,
    lens: &FisheyeLens,
    target: &Target,
    src_w: u32,
    src_h: u32,
    opts: &PlanOptions,
    pool: Option<(&ThreadPool, Schedule)>,
) -> Result<(ViewPlan, Duration, Duration), Error> {
    match target {
        Target::View(v) => Ok(ViewPlan::compile_timed_pooled(
            format, lens, v, src_w, src_h, opts, pool,
        )),
        Target::Projection(p) => {
            let t0 = Instant::now();
            let map = RemapMap::build_projection_pooled(lens, p, src_w, src_h, pool);
            let map_time = t0.elapsed();
            let t1 = Instant::now();
            let plan = Arc::new(RemapPlan::compile(&map, opts.clone()));
            let vp = ViewPlan::from_plans(format, vec![plan])?;
            Ok((vp, map_time, t1.elapsed()))
        }
    }
}

/// Shared validation for injected plans: dimensions must agree with
/// what the corrector renders and reads.
fn check_plan_matches(
    plan: &RemapPlan,
    (out_w, out_h): (u32, u32),
    (src_w, src_h): (u32, u32),
) -> Result<(), Error> {
    if (plan.width(), plan.height()) != (out_w, out_h) {
        return Err(Error::config(format!(
            "injected plan renders {}x{}, corrector outputs {out_w}x{out_h}",
            plan.width(),
            plan.height()
        )));
    }
    if plan.src_dims() != (src_w, src_h) {
        return Err(Error::config(format!(
            "injected plan reads {}x{} sources, corrector expects {src_w}x{src_h}",
            plan.src_dims().0,
            plan.src_dims().1
        )));
    }
    Ok(())
}

/// Validation for injected view plans: format and full-res dimensions
/// must agree (per-class consistency was checked at assembly).
fn check_view_plan_matches(
    vp: &ViewPlan,
    format: FrameFormat,
    out: (u32, u32),
    src: (u32, u32),
) -> Result<(), Error> {
    if vp.format() != format {
        return Err(Error::config(format!(
            "injected view plan is for {}, corrector format is {format}",
            vp.format()
        )));
    }
    check_plan_matches(vp.full(), out, src)
}

/// A compiled, ready-to-run correction path: lens + view + plan(s) +
/// engine, built once by [`CorrectorBuilder::build`]. Internally every
/// corrector is a [`FrameCorrector`] over its declared
/// [`FrameFormat`]; the generic single-image entry points are the
/// degenerate one-plane case. See the module docs.
pub struct Corrector<P: CorrectorPixel = Gray8> {
    lens: FisheyeLens,
    target: Target,
    src_w: u32,
    src_h: u32,
    format: FrameFormat,
    spec: EngineSpec,
    interp: Interpolator,
    threads: usize,
    frames: FrameCorrector,
    map_time: Duration,
    plan_time: Duration,
    /// Row-parallel pool for map retraces on view changes, spun up
    /// lazily on the first recompile (never for `threads == 1`).
    map_pool: Option<Arc<ThreadPool>>,
    /// Post-correction color pipeline applied to every corrected
    /// plane (identity by default — zero cost when inactive).
    post: PostStage,
    _pixel: PhantomData<P>,
}

impl Corrector {
    /// Start building a corrector (see the module docs).
    pub fn builder() -> CorrectorBuilder {
        CorrectorBuilder::default()
    }

    /// Correct one single-plane frame into a caller-supplied buffer.
    /// This is the steady-state path: no allocation, no map work —
    /// just plan execution on the chosen backend. On a multi-plane
    /// corrector this corrects one full-resolution plane (the luma /
    /// single-channel view of the stream); whole frames go through
    /// [`correct_frame_into`](Self::correct_frame_into).
    pub fn correct_into(
        &self,
        src: &Image<Gray8>,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, Error> {
        Ok(self.frames.correct_plane_u8(PlaneClass::Full, src, out)?)
    }

    /// Correct one single-plane frame into a freshly allocated output
    /// image.
    pub fn correct(&self, src: &Image<Gray8>) -> Result<(Image<Gray8>, FrameReport), Error> {
        let (w, h) = self.target.out_dims();
        let mut out = Image::new(w, h);
        let report = self.correct_into(src, &mut out)?;
        Ok((out, report))
    }

    /// Correct a whole (possibly multi-plane) frame into a
    /// caller-supplied output frame of the declared format. For
    /// multi-plane formats the report is the merged per-plane report
    /// (summed kernel time, `<plane>.correct_ms` kv sections).
    pub fn correct_frame_into(&self, src: &Frame, out: &mut Frame) -> Result<FrameReport, Error> {
        Ok(self.frames.correct_frame_into(src, out)?)
    }

    /// Correct a whole frame into a freshly allocated output frame.
    pub fn correct_frame(&self, src: &Frame) -> Result<(Frame, FrameReport), Error> {
        Ok(self.frames.correct_frame(src)?)
    }

    /// Point the corrector at a new perspective view — the
    /// per-view-change cost; frames stay cheap. When the outgoing plans
    /// can seed the new ones ([`ViewPlan::can_seed`]: compiled with
    /// this corrector's plan options, at the new view's output and
    /// source dimensions — whether compiled here or injected), this is
    /// the **delta path**: the maps are retraced row-parallel on the
    /// corrector's pool and [`ViewPlan::recompile_timed`] reuses
    /// everything the view change did not invalidate, deferring
    /// LUT/tile materialization to first use. Otherwise the plans
    /// compile cold. Bit-exact against a cold rebuild either way. The
    /// new plans run under the corrector's engine (and, for `smp`, its
    /// thread pool): no engine is resolved. Reports [`Error::Config`]
    /// on a projection-target corrector.
    pub fn set_view(&mut self, view: PerspectiveView) -> Result<(), Error> {
        if view.width == 0 || view.height == 0 {
            return Err(Error::config("view dimensions must be positive"));
        }
        if let Target::Projection(_) = self.target {
            return Err(Error::config(
                "set_view on a projection corrector; build a new one",
            ));
        }
        let target = Target::View(view);
        let opts = self.plan_options();
        let (src_w, src_h) = (self.src_w, self.src_h);
        let pool = self.map_pool();
        let pool = pool
            .as_deref()
            .map(|p| (p, Schedule::Static { chunk: None }));
        let prev = self.frames.plan();
        let (plan, map_time, plan_time) =
            if prev.can_seed(&opts, (view.width, view.height), (src_w, src_h)) {
                prev.recompile_timed(&self.lens, &view, src_w, src_h, pool)
            } else {
                compile_target(self.format, &self.lens, &target, src_w, src_h, &opts, pool)?
            };
        self.frames.set_plan(plan)?;
        self.target = target;
        self.map_time = map_time;
        self.plan_time = plan_time;
        Ok(())
    }

    /// Switch interpolation kernel (the serve layer's degradation
    /// ladder walks bicubic → bilinear → nearest through this).
    /// Rebuilds the engine only: plans hold no kernel, so the same
    /// compiled plans — the same `Arc`s — serve the new kernel, and
    /// no map is traced.
    pub fn set_interp(&mut self, interp: Interpolator) -> Result<(), Error> {
        if interp == self.interp {
            return Ok(());
        }
        let plan = self.frames.plan().clone();
        self.frames = assemble_frames(
            self.format,
            &self.spec,
            interp,
            self.threads,
            plan,
            &self.post,
        )?;
        self.interp = interp;
        Ok(())
    }

    /// Adopt a whole [`ViewPlan`] compiled/assembled elsewhere for a
    /// new view (the serving layer resolves each plane class against
    /// its shared cache and injects the assembly here). Like
    /// [`set_view`](Self::set_view), it keeps the corrector's engine.
    pub fn set_view_plan(&mut self, view: PerspectiveView, plan: ViewPlan) -> Result<(), Error> {
        if let Target::Projection(_) = self.target {
            return Err(Error::config(
                "set_view_plan on a projection corrector; build a new one",
            ));
        }
        check_view_plan_matches(
            &plan,
            self.format,
            (view.width, view.height),
            (self.src_w, self.src_h),
        )?;
        self.frames.set_plan(plan)?;
        self.target = Target::View(view);
        self.map_time = Duration::ZERO;
        self.plan_time = Duration::ZERO;
        Ok(())
    }

    /// The compiled full-resolution plan, shareable across correctors
    /// serving the same view (`Arc`-cheap). For multi-plane formats
    /// this is the luma-class plan; the rest are on
    /// [`view_plan`](Self::view_plan).
    pub fn plan(&self) -> &Arc<RemapPlan> {
        self.frames.plan().full()
    }

    /// The full per-plane-class plan set.
    pub fn view_plan(&self) -> &ViewPlan {
        self.frames.plan()
    }

    /// The frame-layer dispatcher every call routes through — the
    /// serving layer uses it directly for pooled per-plane output.
    pub fn frame_corrector(&self) -> &FrameCorrector {
        &self.frames
    }

    /// Pre-compile digest of this corrector's (lens, view, source,
    /// options) full-resolution plan request — the key a plan cache
    /// files that plan under. The post stage is not part of it: no
    /// plan depends on it. `None` for projection targets, which are
    /// not cache-keyed. (Multi-plane formats have one digest per
    /// plane class; see [`ViewPlan::plane_requests`].)
    pub fn request_digest(&self) -> Option<u64> {
        match &self.target {
            Target::View(v) => Some(plan_request_digest(
                &self.lens,
                v,
                self.src_w,
                self.src_h,
                &self.plan_options(),
            )),
            Target::Projection(_) => None,
        }
    }

    /// Replace the post-correction color stage (grade / tone map /
    /// dither). Cheap: recompiles the 256-entry per-plane transfer
    /// tables, never the remap plan or the engine.
    pub fn set_post(&mut self, stage: PostStage) {
        self.post = stage;
        self.frames.set_post(&self.post);
    }

    /// The active post-correction stage (identity when unset).
    pub fn post_stage(&self) -> &PostStage {
        &self.post
    }

    /// The frame format this corrector accepts and produces.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// The backend spec frames run on.
    pub fn spec(&self) -> EngineSpec {
        self.spec
    }

    /// The active interpolation kernel.
    pub fn interp(&self) -> Interpolator {
        self.interp
    }

    /// The lens frames are corrected against.
    pub fn lens(&self) -> FisheyeLens {
        self.lens
    }

    /// The perspective view being rendered (`None` for projections).
    pub fn view(&self) -> Option<PerspectiveView> {
        match self.target {
            Target::View(v) => Some(v),
            Target::Projection(_) => None,
        }
    }

    /// Source frame dimensions `(w, h)` this corrector expects.
    pub fn source_dims(&self) -> (u32, u32) {
        (self.src_w, self.src_h)
    }

    /// Output dimensions `(w, h)` of corrected frames.
    pub fn out_dims(&self) -> (u32, u32) {
        self.target.out_dims()
    }

    /// Wall time of the last map trace (zero when the plan was
    /// injected).
    pub fn map_time(&self) -> Duration {
        self.map_time
    }

    /// Wall time of the last plan compilation (zero when injected).
    pub fn plan_time(&self) -> Duration {
        self.plan_time
    }

    fn plan_options(&self) -> PlanOptions {
        PlanOptions::for_specs(&[self.spec])
    }

    /// The lazily-created row-parallel pool for map retraces (`None`
    /// for single-threaded correctors).
    fn map_pool(&mut self) -> Option<Arc<ThreadPool>> {
        if self.threads <= 1 {
            return None;
        }
        Some(Arc::clone(self.map_pool.get_or_insert_with(|| {
            Arc::new(ThreadPool::new(self.threads))
        })))
    }
}

impl std::fmt::Debug for Corrector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Corrector")
            .field("spec", &self.spec.name())
            .field("interp", &self.interp)
            .field("format", &self.format)
            .field("target", &self.target)
            .field("src", &(self.src_w, self.src_h))
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::core::engine::EngineSpec;

    fn lens_view() -> (FisheyeLens, PerspectiveView) {
        (
            FisheyeLens::equidistant_fov(64, 48, 180.0),
            PerspectiveView::centered(32, 24, 90.0),
        )
    }

    #[test]
    fn builder_requires_lens_and_view() {
        let (lens, view) = lens_view();
        let e = Corrector::<Gray8>::builder()
            .view(view)
            .build()
            .unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
        let e = Corrector::<Gray8>::builder()
            .lens(lens)
            .build()
            .unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
    }

    #[test]
    fn source_dims_default_from_lens_center() {
        let (lens, view) = lens_view();
        let c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .build()
            .unwrap();
        assert_eq!(c.source_dims(), (64, 48));
        assert_eq!(c.out_dims(), (32, 24));
        assert_eq!(c.format(), FrameFormat::Gray8);
    }

    #[test]
    fn corrects_matching_the_engine_layer() {
        let (lens, view) = lens_view();
        let src = crate::img::scene::random_gray(64, 48, 7);
        let c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .build()
            .unwrap();
        let (out, report) = c.correct(&src).unwrap();
        assert_eq!(report.backend, "serial");
        let map = RemapMap::build(&lens, &view, 64, 48);
        let reference = crate::core::correct(&src, &map, Interpolator::Bilinear);
        assert_eq!(out.pixels(), reference.pixels());
    }

    #[test]
    fn set_view_recompiles_and_changes_digest() {
        let (lens, view) = lens_view();
        let mut c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .build()
            .unwrap();
        let d0 = c.request_digest().unwrap();
        let mut panned = view;
        panned.pan = 0.3;
        c.set_view(panned).unwrap();
        assert_ne!(c.request_digest().unwrap(), d0);
        let src = crate::img::scene::random_gray(64, 48, 7);
        let (out, _) = c.correct(&src).unwrap();
        assert_eq!(out.dims(), (32, 24));
    }

    #[test]
    fn set_view_delta_path_bit_exact_with_cold_build() {
        // fixed defers its LUT on the delta path; smp keeps its engine
        // and row pool across both pans
        let (lens, view) = lens_view();
        let src = crate::img::scene::random_gray(64, 48, 9);
        let smp = EngineSpec::Smp {
            schedule: Schedule::default_static(),
        };
        for spec in [EngineSpec::FixedPoint { frac_bits: 12 }, smp] {
            let build = |v| {
                Corrector::<Gray8>::builder()
                    .lens(lens)
                    .view(v)
                    .backend(spec)
                    .threads(2)
                    .build()
                    .unwrap()
            };
            let mut c = build(view);
            for panned in [view.look(1.0, 0.5), view.look(-0.5, 0.25)] {
                c.set_view(panned).unwrap();
                let cold = build(panned);
                // the delta-recompiled plans hash identically to a
                // cold build
                assert_eq!(c.view_plan().digest(), cold.view_plan().digest());
                let (a, r1) = c.correct(&src).unwrap();
                let (b, _) = cold.correct(&src).unwrap();
                assert_eq!(a, b, "{spec}");
                // the delta plan defers LUT quantization: the first
                // frame derives it once (a reported plan miss), the
                // second hits the plan's memo silently
                let miss = spec.capabilities().requires_lut.map(|_| &1.0);
                assert_eq!(r1.model.get("plan_miss"), miss, "{spec}");
                let (_, r2) = c.correct(&src).unwrap();
                assert_eq!(r2.model.get("plan_miss"), None, "{spec}");
            }
        }
    }

    #[test]
    fn injected_plan_is_validated_and_shared() {
        let (lens, view) = lens_view();
        let map = RemapMap::build(&lens, &view, 64, 48);
        let plan = Arc::new(RemapPlan::compile(
            &map,
            PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear),
        ));
        let c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .plan(Arc::clone(&plan))
            .build()
            .unwrap();
        assert_eq!(c.plan().digest(), plan.digest());
        assert_eq!(c.plan_time(), Duration::ZERO);

        let wrong_view = PerspectiveView::centered(16, 12, 90.0);
        let e = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(wrong_view)
            .plan(plan)
            .build()
            .unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
    }

    #[test]
    fn interp_downgrade_keeps_injected_plan() {
        let (lens, view) = lens_view();
        let map = RemapMap::build(&lens, &view, 64, 48);
        let plan = Arc::new(RemapPlan::compile(
            &map,
            PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bicubic),
        ));
        let mut c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .interp(Interpolator::Bicubic)
            .plan(Arc::clone(&plan))
            .build()
            .unwrap();
        c.set_interp(Interpolator::Nearest).unwrap();
        assert_eq!(c.plan().digest(), plan.digest(), "injected plan kept");
        let src = crate::img::scene::random_gray(64, 48, 7);
        let map = RemapMap::build(&lens, &view, 64, 48);
        let reference = crate::core::correct(&src, &map, Interpolator::Nearest);
        let (out, _) = c.correct(&src).unwrap();
        assert_eq!(out.pixels(), reference.pixels());
    }

    #[test]
    fn set_interp_rebuilds_only_the_engine() {
        let (lens, view) = lens_view();
        let mut c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .interp(Interpolator::Bicubic)
            .build()
            .unwrap();
        let plan = Arc::clone(c.plan());
        let (map_time, plan_time) = (c.map_time(), c.plan_time());
        c.set_interp(Interpolator::Nearest).unwrap();
        assert!(Arc::ptr_eq(c.plan(), &plan), "the same compiled plan");
        assert_eq!((c.map_time(), c.plan_time()), (map_time, plan_time));
        let src = crate::img::scene::random_gray(64, 48, 7);
        let map = RemapMap::build(&lens, &view, 64, 48);
        let (out, _) = c.correct(&src).unwrap();
        assert_eq!(
            out.pixels(),
            crate::core::correct(&src, &map, Interpolator::Nearest).pixels()
        );
    }

    #[test]
    fn set_view_across_a_size_change_compiles_cold() {
        let (lens, view) = lens_view();
        let build = |v| {
            Corrector::<Gray8>::builder()
                .lens(lens)
                .view(v)
                .backend(EngineSpec::FixedPoint { frac_bits: 12 })
                .build()
                .unwrap()
        };
        let mut c = build(view);
        let smaller = PerspectiveView::centered(16, 12, 90.0);
        c.set_view(smaller).unwrap();
        let cold = build(smaller);
        assert_eq!(c.view_plan().digest(), cold.view_plan().digest());
        // a cold compile holds the LUT its backend needs: no first-frame
        // derivation, unlike a delta recompile's plan miss
        let src = crate::img::scene::random_gray(64, 48, 9);
        let (a, report) = c.correct(&src).unwrap();
        assert_eq!(report.model.get("plan_miss"), None);
        assert_eq!(a, cold.correct(&src).unwrap().0);
    }

    #[test]
    fn projection_target_replaces_build_projection() {
        let (lens, _) = lens_view();
        let proj = OutputProjection::cylinder_180(64, 24, 30.0);
        let c = Corrector::<Gray8>::builder()
            .lens(lens)
            .projection(proj)
            .build()
            .unwrap();
        assert_eq!(c.out_dims(), (64, 24));
        assert!(c.request_digest().is_none());
        let src = crate::img::scene::random_gray(64, 48, 7);
        let map = RemapMap::build_projection(&lens, &proj, 64, 48);
        let reference = crate::core::correct(&src, &map, Interpolator::Bilinear);
        let (out, _) = c.correct(&src).unwrap();
        assert_eq!(out.pixels(), reference.pixels());
    }

    #[test]
    fn zero_threads_is_a_config_error_not_a_panic() {
        let (lens, view) = lens_view();
        let e = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .threads(0)
            .build()
            .unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
    }

    #[test]
    fn yuv_corrector_end_to_end_bit_exact_per_plane() {
        let (lens, view) = lens_view();
        let c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .format(FrameFormat::Yuv420)
            .build()
            .unwrap();
        assert_eq!(c.format(), FrameFormat::Yuv420);
        let src = Frame::Yuv420(crate::core::synth::capture_fisheye_yuv(
            &crate::img::scene::Checkerboard { cells: 5 },
            &crate::img::scene::RadialGradient,
            &crate::img::scene::Checkerboard { cells: 3 },
            crate::core::synth::World::Spherical,
            &lens,
            64,
            48,
            1,
        ));
        let (out, report) = c.correct_frame(&src).unwrap();
        assert_eq!(out.dims(), (32, 24));
        assert_eq!(report.model["planes"], 3.0);
        // each plane bit-exact against the single-plane engine path
        let vp = c.view_plan();
        let srcs = src.planes();
        let outs = out.planes();
        for (i, (s, o)) in srcs.iter().zip(&outs).enumerate() {
            let reference = crate::core::correct_plan(s, vp.plane_plan(i), Interpolator::Bilinear);
            assert_eq!(reference.pixels(), o.pixels(), "plane {i}");
        }
        // the luma plane is also exactly what the gray path produces
        let (gray_out, _) = c.correct(&srcs[0].clone()).unwrap();
        assert_eq!(gray_out.pixels(), outs[0].pixels());
    }

    #[test]
    fn multi_plane_misconfigurations_are_config_errors() {
        let (lens, view) = lens_view();
        // projections have no chroma-class geometry
        let e = Corrector::<Gray8>::builder()
            .lens(lens)
            .projection(OutputProjection::cylinder_180(64, 24, 30.0))
            .format(FrameFormat::Rgb8)
            .build()
            .unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
        // a single injected plan cannot drive three planes
        let map = RemapMap::build(&lens, &view, 64, 48);
        let plan = Arc::new(RemapPlan::compile(&map, PlanOptions::default()));
        let e = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .format(FrameFormat::Yuv420)
            .plan(plan)
            .build()
            .unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
    }

    #[test]
    fn graded_corrector_matches_reference_post_pass() {
        let (lens, view) = lens_view();
        let src = crate::img::scene::random_gray(64, 48, 7);
        let lut = Arc::new(Lut3d::builtin("warm").unwrap());
        let stage = PostStage::identity()
            .with_grade(Arc::clone(&lut), 0.8)
            .with_tone_map(ToneMap::McFace);
        for spec in [
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
        ] {
            let c = Corrector::<Gray8>::builder()
                .lens(lens)
                .view(view)
                .backend(spec)
                .grade(Arc::clone(&lut), 0.8)
                .tone_map(ToneMap::McFace)
                .build()
                .unwrap();
            let (out, report) = c.correct(&src).unwrap();
            // fused on host backends
            assert_eq!(report.model.get("fused"), Some(&1.0), "{spec:?}");
            // reference: plain correction then the per-pixel transfer
            let plain = Corrector::<Gray8>::builder()
                .lens(lens)
                .view(view)
                .build()
                .unwrap();
            let (mut reference, _) = plain.correct(&src).unwrap();
            let plan = stage.compile(crate::core::post::PostChannel::Luma);
            for (y, row) in (0..).zip(reference.pixels_mut().chunks_mut(32)) {
                plan.apply_row(row, y);
            }
            assert_eq!(out.pixels(), reference.pixels(), "{spec:?}");
        }
    }

    #[test]
    fn identity_post_leaves_output_and_digest_alone() {
        let (lens, view) = lens_view();
        let src = crate::img::scene::random_gray(64, 48, 5);
        let plain = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .build()
            .unwrap();
        let lut = Arc::new(Lut3d::identity(9));
        let noop = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .grade(lut, 0.0)
            .tone_map(ToneMap::Linear)
            .build()
            .unwrap();
        assert_eq!(plain.request_digest(), noop.request_digest());
        let (a, _) = plain.correct(&src).unwrap();
        let (b, _) = noop.correct(&src).unwrap();
        assert_eq!(a.pixels(), b.pixels());
    }

    #[test]
    fn set_post_leaves_request_digest_alone() {
        let (lens, view) = lens_view();
        let mut c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .build()
            .unwrap();
        let d0 = c.request_digest().unwrap();
        let lut = Arc::new(Lut3d::builtin("cool").unwrap());
        c.set_post(PostStage::identity().with_grade(lut, 1.0));
        assert_eq!(
            c.request_digest().unwrap(),
            d0,
            "no plan depends on the post stage"
        );
        c.set_post(PostStage::identity());
        assert_eq!(c.request_digest().unwrap(), d0);
    }

    #[test]
    fn dithered_output_is_deterministic() {
        let (lens, view) = lens_view();
        let src = crate::img::scene::random_gray(64, 48, 11);
        let build = || {
            Corrector::<Gray8>::builder()
                .lens(lens)
                .view(view)
                .tone_map(ToneMap::McFace)
                .dither(DitherSeed(0x5eed))
                .build()
                .unwrap()
        };
        let (a, _) = build().correct(&src).unwrap();
        let (b, _) = build().correct(&src).unwrap();
        assert_eq!(a.pixels(), b.pixels());
    }

    #[test]
    fn set_view_plan_adopts_assembled_plans() {
        let (lens, view) = lens_view();
        let mut c = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .format(FrameFormat::Yuv420)
            .build()
            .unwrap();
        let panned = view.look(0.2, 0.0);
        let vp = ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &panned,
            64,
            48,
            &PlanOptions::default(),
        );
        c.set_view_plan(panned, vp.clone()).unwrap();
        assert_eq!(c.view(), Some(panned));
        assert_eq!(c.plan().digest(), vp.full().digest());
        assert_eq!(c.plan_time(), Duration::ZERO, "injected, not compiled");
        // wrong-format adoption is rejected and leaves the view alone
        let gray_vp = ViewPlan::compile(
            FrameFormat::Gray8,
            &lens,
            &view,
            64,
            48,
            &PlanOptions::default(),
        );
        let e = c.set_view_plan(view, gray_vp).unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Config);
        assert_eq!(c.view(), Some(panned));
    }
}
