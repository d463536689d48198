//! The frame/format layer: multi-plane video frames as first-class
//! citizens of the correction stack (DESIGN.md §2.4).
//!
//! Real camera streams are not single gray planes. The deployments the
//! paper targets deliver planar YCbCr 4:2:0 — luma at full resolution
//! plus two chroma planes at quarter area each, the "1.5× bill for
//! color" — or interleaved RGB that decomposes into three full-res
//! planes. This module makes those formats a property of the *plan*,
//! not of ad-hoc helper functions:
//!
//! * [`FrameFormat`] names the wire format — `gray8`, `yuv420` or
//!   `rgb8`, all carried as 8-bit planes — and derives its **plane
//!   classes**: the distinct geometries that need their own remap
//!   plan. Gray and RGB have one class (full resolution); YUV 4:2:0
//!   has two (full-res luma, half-res chroma through
//!   [`FisheyeLens::scaled`]`(0.5)`).
//! * [`ViewPlan`] generalizes [`RemapPlan`]: one compiled plan per
//!   plane class, each filed under a **format-aware digest**
//!   ([`PlaneRequest::digest`]) so a half-res chroma plan can never
//!   collide with a full-res plan for the same lens/view in a shared
//!   plan cache.
//! * [`FrameCorrector`] drives one single-plane `Gray8`
//!   [`CorrectionEngine`] over a multi-plane [`Frame`], correcting
//!   the planes in plane order on the calling thread, and merging the
//!   per-plane [`FrameReport`]s into one report with per-plane kv
//!   sections. Parallelism inside a frame is the `smp` engine's rows.
//!
//! The gray path is the degenerate single-plane case of all three, so
//! higher layers (the `fisheye` facade's `Corrector`, videopipe,
//! `fisheye-serve`) route *every* format through this module.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;
use std::ops::DerefMut;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};
use pixmap::yuv::Yuv420;
use pixmap::{Gray8, Image, Rgb8};

use crate::engine::{build_host, CorrectionEngine, EngineError, EngineSpec, FrameReport, HostCtx};
use crate::interp::Interpolator;
use crate::map::RemapMap;
use crate::plan::{plan_request_digest, PlanOptions, RemapPlan};
use crate::post::{PostChannel, PostPlan, PostStage};

// ---------------------------------------------------------------------
// Plane classes
// ---------------------------------------------------------------------

/// A geometric plane class: the resolution relationship between a
/// plane and the frame it belongs to. Planes of the same class share
/// one compiled [`RemapPlan`] (all three RGB planes are `Full`; the
/// two 4:2:0 chroma planes are both `HalfChroma`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlaneClass {
    /// Full frame resolution (luma, gray, every RGB plane).
    Full,
    /// Half resolution per axis — the 4:2:0 chroma geometry, reached
    /// through [`FisheyeLens::scaled`]`(0.5)` and `ceil(dim/2)` sizes.
    HalfChroma,
}

impl PlaneClass {
    /// Lens/geometry scale factor of this class relative to full
    /// resolution.
    pub fn scale(self) -> f64 {
        match self {
            PlaneClass::Full => 1.0,
            PlaneClass::HalfChroma => 0.5,
        }
    }

    /// Human-readable class name (report/metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            PlaneClass::Full => "full",
            PlaneClass::HalfChroma => "half-chroma",
        }
    }

    /// Dimensions of a plane of this class within a `(w, h)` frame.
    pub fn apply(self, (w, h): (u32, u32)) -> (u32, u32) {
        match self {
            PlaneClass::Full => (w, h),
            PlaneClass::HalfChroma => (w.div_ceil(2), h.div_ceil(2)),
        }
    }

    /// Digest discriminator. Folded into [`PlaneRequest::digest`] so
    /// plans of different classes never share a cache key even if
    /// their scaled geometry ever hashed identically.
    fn salt(self) -> u64 {
        match self {
            PlaneClass::Full => 0x6675_6c6c,       // "full"
            PlaneClass::HalfChroma => 0x6861_6c66, // "half"
        }
    }
}

// ---------------------------------------------------------------------
// FrameFormat
// ---------------------------------------------------------------------

/// The pixel format of a video frame, as the stack's layers see it:
/// how many planes it carries and what geometry each has. Every plane
/// of every format is an 8-bit plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameFormat {
    /// Single 8-bit gray plane — the degenerate single-plane case.
    Gray8,
    /// Planar YCbCr 4:2:0: full-res Y + two half-res chroma planes —
    /// the paper's "1.5× bill for color".
    Yuv420,
    /// RGB carried as three full-resolution 8-bit planes.
    Rgb8,
}

impl FrameFormat {
    /// Every format, in registry order.
    pub const ALL: [FrameFormat; 3] = [FrameFormat::Gray8, FrameFormat::Yuv420, FrameFormat::Rgb8];

    /// Canonical name — round-trips through [`FromStr`] (the CLI
    /// `--format` flag).
    pub fn name(self) -> &'static str {
        match self {
            FrameFormat::Gray8 => "gray8",
            FrameFormat::Yuv420 => "yuv420",
            FrameFormat::Rgb8 => "rgb8",
        }
    }

    /// Per-plane labels, in plane order (report kv sections, metrics
    /// counters).
    pub fn plane_labels(self) -> &'static [&'static str] {
        match self {
            FrameFormat::Gray8 => &["y"],
            FrameFormat::Yuv420 => &["y", "cb", "cr"],
            FrameFormat::Rgb8 => &["r", "g", "b"],
        }
    }

    /// The geometric class of every plane, in plane order.
    pub fn plane_classes(self) -> &'static [PlaneClass] {
        match self {
            FrameFormat::Gray8 => &[PlaneClass::Full],
            FrameFormat::Yuv420 => &[
                PlaneClass::Full,
                PlaneClass::HalfChroma,
                PlaneClass::HalfChroma,
            ],
            FrameFormat::Rgb8 => &[PlaneClass::Full, PlaneClass::Full, PlaneClass::Full],
        }
    }

    /// The post-stage color channel of every plane, in plane order:
    /// gray planes grade as luma, 4:2:0 chroma planes are
    /// curve-exempt, RGB planes grade per channel.
    pub fn plane_channels(self) -> &'static [PostChannel] {
        match self {
            FrameFormat::Gray8 => &[PostChannel::Luma],
            FrameFormat::Yuv420 => &[PostChannel::Luma, PostChannel::Chroma, PostChannel::Chroma],
            FrameFormat::Rgb8 => &[PostChannel::Red, PostChannel::Green, PostChannel::Blue],
        }
    }

    /// Compile `stage` once per plane with the plane's channel
    /// semantics ([`FrameFormat::plane_channels`]), in plane order;
    /// `None` for planes the stage is inert on, so engines skip post
    /// there entirely.
    pub fn compile_post(self, stage: &PostStage) -> Vec<Option<PostPlan>> {
        self.plane_channels()
            .iter()
            .map(|&ch| {
                let plan = stage.compile(ch);
                (!plan.is_noop()).then_some(plan)
            })
            .collect()
    }

    /// The *distinct* plane classes (one compiled plan each), in
    /// order: `[Full]` or `[Full, HalfChroma]`.
    pub fn classes(self) -> &'static [PlaneClass] {
        match self {
            FrameFormat::Yuv420 => &[PlaneClass::Full, PlaneClass::HalfChroma],
            _ => &[PlaneClass::Full],
        }
    }

    /// Number of planes a frame of this format carries.
    pub fn planes(self) -> usize {
        self.plane_labels().len()
    }

    /// Whether frames of this format have more than one plane.
    pub fn is_multi_plane(self) -> bool {
        self.planes() > 1
    }
}

impl fmt::Display for FrameFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FrameFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gray8" | "gray" => Ok(FrameFormat::Gray8),
            "yuv420" | "yuv" => Ok(FrameFormat::Yuv420),
            "rgb8" | "rgb" => Ok(FrameFormat::Rgb8),
            other => Err(format!(
                "unknown frame format '{other}' (expected gray8|yuv420|rgb8)"
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------

/// A video frame in one of the supported [`FrameFormat`]s. Multi-plane
/// variants store planes separately (planar layout), which is both
/// what real capture pipelines deliver and what the per-plane engines
/// consume without repacking.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Single 8-bit gray plane.
    Gray8(Image<Gray8>),
    /// Planar 4:2:0 — `y` full-res, `cb`/`cr` at `ceil(dim/2)`.
    Yuv420(Yuv420),
    /// Three full-resolution 8-bit planes.
    Rgb8 {
        /// Red plane.
        r: Image<Gray8>,
        /// Green plane.
        g: Image<Gray8>,
        /// Blue plane.
        b: Image<Gray8>,
    },
}

impl Frame {
    /// An all-black frame of `format` at full-res `width × height`
    /// (chroma planes sized by their class).
    pub fn new(format: FrameFormat, width: u32, height: u32) -> Frame {
        match format {
            FrameFormat::Gray8 => Frame::Gray8(Image::new(width, height)),
            FrameFormat::Yuv420 => {
                let (cw, ch) = PlaneClass::HalfChroma.apply((width, height));
                Frame::Yuv420(Yuv420 {
                    y: Image::new(width, height),
                    cb: Image::new(cw, ch),
                    cr: Image::new(cw, ch),
                })
            }
            FrameFormat::Rgb8 => Frame::Rgb8 {
                r: Image::new(width, height),
                g: Image::new(width, height),
                b: Image::new(width, height),
            },
        }
    }

    /// Split an interleaved RGB image into a planar [`Frame::Rgb8`].
    pub fn from_rgb_image(img: &Image<Rgb8>) -> Frame {
        let (w, h) = img.dims();
        Frame::Rgb8 {
            r: Image::from_fn(w, h, |x, y| Gray8(img.pixel(x, y).r)),
            g: Image::from_fn(w, h, |x, y| Gray8(img.pixel(x, y).g)),
            b: Image::from_fn(w, h, |x, y| Gray8(img.pixel(x, y).b)),
        }
    }

    /// The frame's format.
    pub fn format(&self) -> FrameFormat {
        match self {
            Frame::Gray8(_) => FrameFormat::Gray8,
            Frame::Yuv420(_) => FrameFormat::Yuv420,
            Frame::Rgb8 { .. } => FrameFormat::Rgb8,
        }
    }

    /// Full-resolution (first-plane) dimensions.
    pub fn dims(&self) -> (u32, u32) {
        match self {
            Frame::Gray8(img) => img.dims(),
            Frame::Yuv420(yuv) => yuv.y.dims(),
            Frame::Rgb8 { r, .. } => r.dims(),
        }
    }

    /// Total sample bytes across planes.
    pub fn bytes(&self) -> usize {
        match self {
            Frame::Gray8(img) => img.len(),
            Frame::Yuv420(yuv) => yuv.bytes(),
            Frame::Rgb8 { r, g, b } => r.len() + g.len() + b.len(),
        }
    }

    /// Shared references to the planes, in plane order.
    pub fn planes(&self) -> Vec<&Image<Gray8>> {
        match self {
            Frame::Gray8(img) => vec![img],
            Frame::Yuv420(yuv) => vec![&yuv.y, &yuv.cb, &yuv.cr],
            Frame::Rgb8 { r, g, b } => vec![r, g, b],
        }
    }

    /// Mutable references to the planes, in plane order.
    pub fn planes_mut(&mut self) -> Vec<&mut Image<Gray8>> {
        match self {
            Frame::Gray8(img) => vec![img],
            Frame::Yuv420(yuv) => vec![&mut yuv.y, &mut yuv.cb, &mut yuv.cr],
            Frame::Rgb8 { r, g, b } => vec![r, g, b],
        }
    }

    /// [`Frame::planes`], always `Some`: every format carries byte
    /// planes. The `Option` stays only until the framebench
    /// benchmark's next change drops its `.expect` calls; new code
    /// calls [`Frame::planes`].
    pub fn u8_planes(&self) -> Option<Vec<&Image<Gray8>>> {
        Some(self.planes())
    }
}

// ---------------------------------------------------------------------
// PlaneRequest + ViewPlan
// ---------------------------------------------------------------------

/// The pre-compile description of one plane class's remap plan: the
/// (possibly scaled) lens, view and source dimensions a plan for that
/// class is traced from, plus the full-resolution geometry it was
/// derived from. This is what a shared plan cache keys on —
/// [`PlaneRequest::digest`] — and what it compiles on a miss.
#[derive(Clone, Copy, Debug)]
pub struct PlaneRequest {
    /// The plane class this request describes.
    pub class: PlaneClass,
    /// Lens scaled to the class ([`FisheyeLens::scaled`]) — the
    /// nominal scaled geometry, part of the cache key.
    pub lens: FisheyeLens,
    /// View with class-scaled output dimensions.
    pub view: PerspectiveView,
    /// Class-scaled source width.
    pub src_w: u32,
    /// Class-scaled source height.
    pub src_h: u32,
    /// The frame-level lens the request was derived from. `HalfChroma`
    /// maps are traced through this full-resolution geometry (see
    /// [`RemapMap::build_half_chroma`]): on odd-sized frames the
    /// ceil'd plane dimensions make any scaled-lens formulation shift
    /// the implicit view center by up to half a luma pixel.
    pub full_lens: FisheyeLens,
    /// The frame-level view the request was derived from.
    pub full_view: PerspectiveView,
    /// Frame-level (unscaled) source dimensions.
    pub full_src: (u32, u32),
}

impl PlaneRequest {
    /// Derive the request for `class` from the frame-level geometry
    /// (full-res lens/view/source). `HalfChroma` mirrors the 4:2:0
    /// layout: lens scaled by 0.5, output and source dims `ceil(d/2)`.
    pub fn derive(
        class: PlaneClass,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
    ) -> PlaneRequest {
        let (scaled_lens, scaled_view, (sw, sh)) = match class {
            PlaneClass::Full => (*lens, *view, (src_w, src_h)),
            PlaneClass::HalfChroma => {
                let (vw, vh) = class.apply((view.width, view.height));
                (
                    lens.scaled(0.5),
                    PerspectiveView {
                        width: vw,
                        height: vh,
                        ..*view
                    },
                    class.apply((src_w, src_h)),
                )
            }
        };
        PlaneRequest {
            class,
            lens: scaled_lens,
            view: scaled_view,
            src_w: sw,
            src_h: sh,
            full_lens: *lens,
            full_view: *view,
            full_src: (src_w, src_h),
        }
    }

    /// Format-aware cache key: the geometric
    /// [`plan_request_digest`] of the scaled request with the plane
    /// class folded in, so a half-res chroma plan and a full-res plan
    /// for the same lens/view can never share a key.
    pub fn digest(&self, opts: &PlanOptions) -> u64 {
        let base = plan_request_digest(&self.lens, &self.view, self.src_w, self.src_h, opts);
        // one extra FNV-1a round over the class discriminator
        (base ^ self.class.salt()).wrapping_mul(0x100_0000_01b3)
    }

    /// Trace this request's map — serially, or row-parallel on `pool`.
    /// `Full` traces the scaled (= frame-level) geometry directly;
    /// `HalfChroma` traces chroma pixels through the *full-resolution*
    /// geometry so the chroma plane stays registered with luma on odd
    /// dimensions.
    pub fn build_map(&self, pool: Option<(&ThreadPool, Schedule)>) -> RemapMap {
        let (sw, sh) = self.full_src;
        match self.class {
            PlaneClass::Full => {
                RemapMap::build_pooled(&self.lens, &self.view, self.src_w, self.src_h, pool)
            }
            PlaneClass::HalfChroma => {
                RemapMap::build_half_chroma(&self.full_lens, &self.full_view, sw, sh, pool)
            }
        }
    }

    /// Trace the map and compile the plan this request describes.
    pub fn compile(&self, opts: PlanOptions) -> RemapPlan {
        RemapPlan::compile(&self.build_map(None), opts)
    }
}

/// One compiled [`RemapPlan`] per geometric plane class of a
/// [`FrameFormat`] — the multi-plane generalization of a single plan.
/// Cheap to clone (`Arc` per plane); the per-class plans can come from
/// a shared cache ([`ViewPlan::from_plans`]) or be compiled directly
/// ([`ViewPlan::compile`]).
#[derive(Clone)]
pub struct ViewPlan {
    format: FrameFormat,
    /// One entry per `format.classes()` element, same order.
    plans: Vec<Arc<RemapPlan>>,
}

impl ViewPlan {
    /// The per-class plan requests for a frame-level geometry, in
    /// [`FrameFormat::classes`] order. A shared cache resolves each
    /// request independently ([`PlaneRequest::digest`] /
    /// [`PlaneRequest::compile`]) and assembles the result with
    /// [`ViewPlan::from_plans`].
    pub fn plane_requests(
        format: FrameFormat,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
    ) -> Vec<PlaneRequest> {
        format
            .classes()
            .iter()
            .map(|&c| PlaneRequest::derive(c, lens, view, src_w, src_h))
            .collect()
    }

    /// Compile every plane class's plan with the same (backend-
    /// unioned) options — the direct, cache-less path.
    pub fn compile(
        format: FrameFormat,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        opts: &PlanOptions,
    ) -> ViewPlan {
        let (plan, _, _) = Self::compile_timed(format, lens, view, src_w, src_h, opts);
        plan
    }

    /// [`ViewPlan::compile`] returning `(plan, map_time, plan_time)`
    /// summed across plane classes.
    pub fn compile_timed(
        format: FrameFormat,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        opts: &PlanOptions,
    ) -> (ViewPlan, Duration, Duration) {
        Self::compile_timed_pooled(format, lens, view, src_w, src_h, opts, None)
    }

    /// [`ViewPlan::compile_timed`] with the map trace optionally
    /// row-parallelized on `pool` — the cold half of an interactive
    /// view change.
    pub fn compile_timed_pooled(
        format: FrameFormat,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        opts: &PlanOptions,
        pool: Option<(&ThreadPool, Schedule)>,
    ) -> (ViewPlan, Duration, Duration) {
        let mut map_time = Duration::ZERO;
        let mut plan_time = Duration::ZERO;
        let plans = Self::plane_requests(format, lens, view, src_w, src_h)
            .into_iter()
            .map(|req| {
                let t0 = Instant::now();
                let map = req.build_map(pool);
                map_time += t0.elapsed();
                let t1 = Instant::now();
                let plan = Arc::new(RemapPlan::compile(&map, opts.clone()));
                plan_time += t1.elapsed();
                plan
            })
            .collect();
        (ViewPlan { format, plans }, map_time, plan_time)
    }

    /// Delta-recompile this view plan for a new frame-level geometry —
    /// the cheap path behind an interactive view change. Each class's
    /// map is retraced (row-parallel when `pool` is given) and run
    /// through [`RemapPlan::recompile`] against the previous class
    /// plan, which reuses the span index of bit-identical rows and
    /// defers LUT/tile materialization to first use. The result is
    /// bit-exact against a cold [`ViewPlan::compile`] with the same
    /// geometry and the previous plans' options.
    pub fn recompile_timed(
        &self,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        src_w: u32,
        src_h: u32,
        pool: Option<(&ThreadPool, Schedule)>,
    ) -> (ViewPlan, Duration, Duration) {
        let mut map_time = Duration::ZERO;
        let mut plan_time = Duration::ZERO;
        let plans = Self::plane_requests(self.format, lens, view, src_w, src_h)
            .into_iter()
            .zip(&self.plans)
            .map(|(req, prev)| {
                let t0 = Instant::now();
                let map = req.build_map(pool);
                map_time += t0.elapsed();
                let t1 = Instant::now();
                let plan = Arc::new(prev.recompile(map));
                plan_time += t1.elapsed();
                plan
            })
            .collect();
        (
            ViewPlan {
                format: self.format,
                plans,
            },
            map_time,
            plan_time,
        )
    }

    /// Whether this view plan may seed [`ViewPlan::recompile_timed`]
    /// toward one compiled with `opts` that renders `out` from `src`
    /// (full-resolution `(w, h)`): [`RemapPlan::can_seed`] holds for
    /// every class plan at its class-scaled dimensions.
    pub fn can_seed(&self, opts: &PlanOptions, out: (u32, u32), src: (u32, u32)) -> bool {
        self.format
            .classes()
            .iter()
            .zip(&self.plans)
            .all(|(class, plan)| plan.can_seed(opts, class.apply(out), class.apply(src)))
    }

    /// Assemble a view plan from per-class plans resolved elsewhere
    /// (the serve layer's shared cache). `plans` must be in
    /// [`FrameFormat::classes`] order; geometry is validated: every
    /// class plan must render and read the class-scaled dimensions of
    /// the full-res plan.
    pub fn from_plans(
        format: FrameFormat,
        plans: Vec<Arc<RemapPlan>>,
    ) -> Result<ViewPlan, EngineError> {
        let classes = format.classes();
        if plans.len() != classes.len() {
            return Err(EngineError::backend(
                "view-plan",
                format!(
                    "format {format} needs {} plane plan(s), got {}",
                    classes.len(),
                    plans.len()
                ),
            ));
        }
        let full = &plans[0];
        for (class, plan) in classes.iter().zip(&plans) {
            let want_out = class.apply((full.width(), full.height()));
            let want_src = class.apply(full.src_dims());
            if (plan.width(), plan.height()) != want_out || plan.src_dims() != want_src {
                return Err(EngineError::backend(
                    "view-plan",
                    format!(
                        "{} plane plan renders {}x{} from {:?}, expected {}x{} from {:?}",
                        class.name(),
                        plan.width(),
                        plan.height(),
                        plan.src_dims(),
                        want_out.0,
                        want_out.1,
                        want_src
                    ),
                ));
            }
        }
        Ok(ViewPlan { format, plans })
    }

    /// The format this plan corrects.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// The full-resolution plan (always present; the whole plan for
    /// single-class formats).
    pub fn full(&self) -> &Arc<RemapPlan> {
        &self.plans[0]
    }

    /// The plan for `class` (`None` if the format has no such class).
    pub fn class_plan(&self, class: PlaneClass) -> Option<&Arc<RemapPlan>> {
        self.format
            .classes()
            .iter()
            .position(|&c| c == class)
            .map(|i| &self.plans[i])
    }

    /// Per-class plans in [`FrameFormat::classes`] order.
    pub fn plans(&self) -> &[Arc<RemapPlan>] {
        &self.plans
    }

    /// The plan driving plane index `i` of a frame.
    pub fn plane_plan(&self, plane: usize) -> &Arc<RemapPlan> {
        let class = self.format.plane_classes()[plane];
        // every plane class is one of the format's classes
        self.class_plan(class).unwrap_or(self.full())
    }

    /// Output dimensions of every plane, in plane order (pool sizing).
    pub fn plane_dims(&self) -> Vec<(u32, u32)> {
        (0..self.format.planes())
            .map(|i| {
                let p = self.plane_plan(i);
                (p.width(), p.height())
            })
            .collect()
    }

    /// Full-resolution output dimensions `(w, h)`.
    pub fn out_dims(&self) -> (u32, u32) {
        (self.full().width(), self.full().height())
    }

    /// Full-resolution source dimensions `(w, h)`.
    pub fn src_dims(&self) -> (u32, u32) {
        self.full().src_dims()
    }

    /// Total plan bytes across plane classes — the LUT "1.25× bill"
    /// for 4:2:0.
    pub fn bytes(&self) -> usize {
        self.plans.iter().map(|p| p.bytes()).sum()
    }

    /// Format-aware digest over every plane plan: mixes the format
    /// discriminant with each class plan's own digest, so view plans
    /// of different formats (or with different per-class plans) never
    /// compare equal.
    pub fn digest(&self) -> u64 {
        let mut d: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                d ^= b as u64;
                d = d.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.format as u64);
        for (class, plan) in self.format.classes().iter().zip(&self.plans) {
            mix(class.salt());
            mix(plan.digest());
        }
        d
    }
}

impl fmt::Debug for ViewPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewPlan")
            .field("format", &self.format)
            .field("out_dims", &self.out_dims())
            .field("src_dims", &self.src_dims())
            .field("classes", &self.format.classes().len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

// ---------------------------------------------------------------------
// FrameCorrector
// ---------------------------------------------------------------------

/// Drives one single-plane [`CorrectionEngine`] over multi-plane
/// [`Frame`]s: each plane is corrected through its class's plan from a
/// [`ViewPlan`] by the one engine every plane shares (the plan varies
/// per class, the engine does not), in plane order on the calling
/// thread (parallelism inside a frame is the `smp` engine's rows).
/// The per-plane [`FrameReport`]s are merged into one report whose
/// `correct_time` is the **summed kernel cost** across planes (the
/// quantity the paper's 1.5×-for-color claim is about) and whose model
/// section carries per-plane kv entries (`y.correct_ms`,
/// `cb.invalid`, …) plus `frame_wall_ms`, the elapsed wall time. A
/// single-plane format has nothing to merge: its report is the
/// engine's, unchanged.
pub struct FrameCorrector {
    format: FrameFormat,
    plan: ViewPlan,
    engine: Box<dyn CorrectionEngine>,
    /// The configured post stage (identity when none was set).
    post_stage: PostStage,
    /// One compiled post plan per plane, in plane order; `None` for
    /// planes the stage is inert on (so engines skip post entirely).
    post: Vec<Option<PostPlan>>,
}

impl FrameCorrector {
    /// Build a frame corrector from host engines for `spec`
    /// ([`build_host`]). Accelerator specs are rejected here — resolve
    /// those through the facade crate and use
    /// [`FrameCorrector::from_parts`].
    pub fn host(
        format: FrameFormat,
        plan: ViewPlan,
        spec: &EngineSpec,
        interp: Interpolator,
        threads: usize,
    ) -> Result<FrameCorrector, EngineError> {
        let ctx = HostCtx {
            interp,
            threads,
            geometry: None,
        };
        FrameCorrector::from_parts(format, plan, build_host(spec, &ctx)?)
    }

    /// Assemble from a pre-resolved engine (the facade's accelerator
    /// paths use this). Validates that the plan is for `format`.
    pub fn from_parts(
        format: FrameFormat,
        plan: ViewPlan,
        engine: Box<dyn CorrectionEngine>,
    ) -> Result<FrameCorrector, EngineError> {
        if plan.format() != format {
            return Err(EngineError::backend(
                "frame-corrector",
                format!("plan is for {}, corrector is {format}", plan.format()),
            ));
        }
        Ok(FrameCorrector {
            format,
            plan,
            engine,
            post_stage: PostStage::identity(),
            post: vec![None; format.planes()],
        })
    }

    /// Configure the post-correction color stage, compiling one
    /// [`PostPlan`] per plane with the plane's channel semantics
    /// (luma-vs-chroma for yuv420, per-channel for rgb8). An identity
    /// stage clears post entirely.
    pub fn set_post(&mut self, stage: &PostStage) {
        self.post_stage = stage.clone();
        self.post = self.format.compile_post(stage);
    }

    /// The configured post stage (identity when unset).
    pub fn post_stage(&self) -> &PostStage {
        &self.post_stage
    }

    /// The compiled post plan for plane `i`, if the stage is active
    /// on that plane.
    pub fn plane_post(&self, i: usize) -> Option<&PostPlan> {
        self.post.get(i).and_then(|p| p.as_ref())
    }

    /// The format this corrector accepts and produces.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// The per-class compiled plans.
    pub fn plan(&self) -> &ViewPlan {
        &self.plan
    }

    /// The engine's canonical spec name.
    pub fn engine_name(&self) -> String {
        self.engine.name()
    }

    /// Correct one plane of class `class` through its plan — the
    /// single-plane entry the facade's gray path collapses onto.
    pub fn correct_plane_u8(
        &self,
        class: PlaneClass,
        src: &Image<Gray8>,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        let plan = self.plan.class_plan(class).ok_or_else(|| {
            EngineError::backend(
                "frame-corrector",
                format!("format {} has no {} plane class", self.format, class.name()),
            )
        })?;
        // the first plane of the class carries its post semantics
        // (single-plane formats: plane 0; yuv chroma: the cb plan,
        // identical to cr's — chroma post is channel-wide)
        let post = self
            .format
            .plane_classes()
            .iter()
            .position(|&c| c == class)
            .and_then(|i| self.plane_post(i));
        self.engine.correct_frame_post(src, plan, post, out)
    }

    /// Correct a whole frame into a caller-supplied output frame of
    /// the same format. Single-plane formats return the engine's
    /// report unchanged; multi-plane formats return the merged
    /// per-plane report (see the type docs).
    pub fn correct_frame_into(
        &self,
        src: &Frame,
        out: &mut Frame,
    ) -> Result<FrameReport, EngineError> {
        if src.format() != self.format || out.format() != self.format {
            return Err(EngineError::backend(
                "frame-corrector",
                format!(
                    "corrector is {}, src is {}, out is {}",
                    self.format,
                    src.format(),
                    out.format()
                ),
            ));
        }
        self.correct_u8_planes_into(src, &mut out.planes_mut())
    }

    /// Correct a whole frame into a freshly allocated output frame.
    pub fn correct_frame(&self, src: &Frame) -> Result<(Frame, FrameReport), EngineError> {
        let (w, h) = self.plan.out_dims();
        let mut out = Frame::new(self.format, w, h);
        let report = self.correct_frame_into(src, &mut out)?;
        Ok((out, report))
    }

    /// Correct every plane of `src` into caller-supplied plane
    /// buffers, in plane order (the pooled zero-allocation path:
    /// videopipe and the serve layer pass pool-acquired planes here).
    /// `src` must be of the corrector's format and `outs` must hold
    /// one buffer per plane. Like
    /// [`correct_frame_into`](Self::correct_frame_into), a
    /// single-plane format returns the engine's report unchanged and
    /// a multi-plane format the merged per-plane report.
    pub fn correct_u8_planes_into<O>(
        &self,
        src: &Frame,
        outs: &mut [O],
    ) -> Result<FrameReport, EngineError>
    where
        O: DerefMut<Target = Image<Gray8>>,
    {
        let labels = self.format.plane_labels();
        if src.format() != self.format || outs.len() != labels.len() {
            return Err(EngineError::backend(
                "frame-corrector",
                format!(
                    "corrector is {} with {} planes, got a {} frame and {} out planes",
                    self.format,
                    labels.len(),
                    src.format(),
                    outs.len()
                ),
            ));
        }
        if let (Frame::Gray8(s), [o]) = (src, &mut *outs) {
            return self.engine.correct_frame_post(
                s,
                self.plan.plane_plan(0),
                self.plane_post(0),
                o,
            );
        }
        let srcs = src.planes();
        let t0 = Instant::now();
        let mut reports = Vec::with_capacity(labels.len());
        for (i, out) in outs.iter_mut().enumerate() {
            let report = self.engine.correct_frame_post(
                srcs[i],
                self.plan.plane_plan(i),
                self.plane_post(i),
                out,
            )?;
            reports.push((labels[i], report));
        }
        Ok(merge_reports(&self.engine_name(), t0.elapsed(), &reports))
    }
}

impl fmt::Debug for FrameCorrector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameCorrector")
            .field("format", &self.format)
            .field("engine", &self.engine_name())
            .field("plan", &self.plan)
            .finish()
    }
}

/// Merge per-plane reports: `correct_time` is the summed kernel cost,
/// counters sum, and each plane's report lands in the model section
/// under its label ([`FrameReport::merge_plane`]).
fn merge_reports(
    backend: &str,
    wall: Duration,
    per_plane: &[(&'static str, FrameReport)],
) -> FrameReport {
    let mut merged = FrameReport::new(backend);
    for (label, r) in per_plane {
        merged.merge_plane(label, r);
    }
    merged.kv("planes", per_plane.len() as f64);
    merged.kv("frame_wall_ms", wall.as_secs_f64() * 1e3);
    merged
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use pixmap::scene::{Checkerboard, RadialGradient, Scene};

    fn geometry() -> (FisheyeLens, PerspectiveView) {
        (
            FisheyeLens::equidistant_fov(96, 72, 180.0),
            PerspectiveView::centered(80, 60, 90.0),
        )
    }

    fn yuv_frame(w: u32, h: u32) -> Frame {
        let (lens, _) = geometry();
        Frame::Yuv420(crate::synth::capture_fisheye_yuv(
            &Checkerboard { cells: 6 },
            &RadialGradient,
            &Checkerboard { cells: 3 },
            crate::synth::World::Spherical,
            &lens,
            w,
            h,
            1,
        ))
    }

    #[test]
    fn format_names_round_trip() {
        for fmt in FrameFormat::ALL {
            let parsed: FrameFormat = fmt.name().parse().expect("parse");
            assert_eq!(parsed, fmt);
            assert_eq!(fmt.to_string(), fmt.name());
        }
        assert!("bgr".parse::<FrameFormat>().is_err());
        assert!("grayf32".parse::<FrameFormat>().is_err());
    }

    #[test]
    fn plane_classes_match_plane_counts() {
        for fmt in FrameFormat::ALL {
            assert_eq!(fmt.plane_labels().len(), fmt.plane_classes().len());
            assert_eq!(fmt.planes(), fmt.plane_labels().len());
            // every plane's class appears in the distinct class list
            for c in fmt.plane_classes() {
                assert!(fmt.classes().contains(c), "{fmt}");
            }
        }
        assert_eq!(FrameFormat::Yuv420.classes().len(), 2);
        assert_eq!(FrameFormat::Rgb8.classes().len(), 1);
    }

    #[test]
    fn half_chroma_request_mirrors_yuv_maps_layout() {
        let (lens, view) = geometry();
        let req = PlaneRequest::derive(PlaneClass::HalfChroma, &lens, &view, 95, 71);
        assert_eq!((req.view.width, req.view.height), (40, 30));
        assert_eq!((req.src_w, req.src_h), (48, 36));
        assert!((req.lens.focal_px - lens.scaled(0.5).focal_px).abs() < 1e-12);
    }

    #[test]
    fn odd_dimension_chroma_stays_registered_with_luma() {
        // Regression: chroma maps used to be traced with a 0.5-scaled
        // lens over ceil'd integer plane dims, which on odd-sized
        // frames shifts the implicit chroma view center (and focal
        // length) by up to half a luma pixel relative to the luma
        // plane. A chroma pixel covers the 2×2 luma block centered at
        // luma coordinate (2x+1, 2y+1), so its source coordinate must
        // be exactly half the full-resolution trace of that point —
        // for every parity.
        let lens = FisheyeLens::equidistant_fov(95, 71, 175.0);
        let view = PerspectiveView::centered(81, 61, 92.0);
        let vp = ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &view,
            95,
            71,
            &PlanOptions::default(),
        );
        let chroma = vp.class_plan(PlaneClass::HalfChroma).expect("chroma plan");
        assert_eq!((chroma.width(), chroma.height()), (41, 31));
        assert_eq!(chroma.src_dims(), (48, 36));
        let map = chroma.map();
        let mut checked = 0u32;
        for y in 0..map.height() {
            for x in 0..map.width() {
                let e = map.entry(x, y);
                let center = view.pixel_ray(2.0 * (x as f64 + 0.5), 2.0 * (y as f64 + 0.5));
                match lens.project(center) {
                    Some((sx, sy)) if (0.0..95.0).contains(&sx) && (0.0..71.0).contains(&sy) => {
                        assert!(e.is_valid(), "({x},{y}) should be valid");
                        assert_eq!(e.sx, (sx * 0.5) as f32, "({x},{y}) sx");
                        assert_eq!(e.sy, (sy * 0.5) as f32, "({x},{y}) sy");
                        checked += 1;
                    }
                    _ => assert!(!e.is_valid(), "({x},{y}) should be invalid"),
                }
            }
        }
        assert!(checked > 0, "no valid chroma pixels checked");
    }

    #[test]
    fn view_plan_delta_recompile_matches_cold_compile() {
        let (lens, view) = geometry();
        let opts = PlanOptions {
            frac_bits: vec![12],
            ..PlanOptions::default()
        };
        let vp = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, 96, 72, &opts);
        let panned = view.look(1.0, 0.0);
        let (delta, map_time, plan_time) = vp.recompile_timed(&lens, &panned, 96, 72, None);
        let cold = ViewPlan::compile(FrameFormat::Yuv420, &lens, &panned, 96, 72, &opts);
        assert_eq!(delta.digest(), cold.digest());
        for (d, c) in delta.plans().iter().zip(cold.plans()) {
            assert_eq!(d.digest(), c.digest());
            assert_eq!(d.invalid_pixels(), c.invalid_pixels());
        }
        assert!(map_time > Duration::ZERO && plan_time > Duration::ZERO);
    }

    #[test]
    fn plane_digests_are_class_distinct() {
        let (lens, view) = geometry();
        let opts = PlanOptions::default();
        let full = PlaneRequest::derive(PlaneClass::Full, &lens, &view, 96, 72);
        let half = PlaneRequest::derive(PlaneClass::HalfChroma, &lens, &view, 96, 72);
        assert_ne!(full.digest(&opts), half.digest(&opts));
        // deterministic
        assert_eq!(full.digest(&opts), full.digest(&opts));
    }

    #[test]
    fn view_plan_compiles_one_plan_per_class() {
        let (lens, view) = geometry();
        let vp = ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &view,
            96,
            72,
            &PlanOptions::default(),
        );
        assert_eq!(vp.plans().len(), 2);
        assert_eq!(vp.out_dims(), (80, 60));
        assert_eq!(vp.src_dims(), (96, 72));
        let chroma = vp.class_plan(PlaneClass::HalfChroma).expect("chroma plan");
        assert_eq!((chroma.width(), chroma.height()), (40, 30));
        assert_eq!(chroma.src_dims(), (48, 36));
        // the 1.25× LUT bill: chroma plan adds ~a quarter of the bytes
        let ratio = vp.bytes() as f64 / vp.full().bytes() as f64;
        assert!((1.15..1.45).contains(&ratio), "ratio {ratio}");
        // plane order: y → full, cb/cr → chroma
        assert_eq!(vp.plane_plan(0).digest(), vp.full().digest());
        assert_eq!(vp.plane_plan(1).digest(), chroma.digest());
        assert_eq!(vp.plane_plan(2).digest(), chroma.digest());
    }

    #[test]
    fn from_plans_validates_geometry() {
        let (lens, view) = geometry();
        let opts = PlanOptions::default();
        let reqs = ViewPlan::plane_requests(FrameFormat::Yuv420, &lens, &view, 96, 72);
        let full = Arc::new(reqs[0].compile(opts.clone()));
        let half = Arc::new(reqs[1].compile(opts.clone()));
        assert!(ViewPlan::from_plans(
            FrameFormat::Yuv420,
            vec![Arc::clone(&full), Arc::clone(&half)]
        )
        .is_ok());
        // wrong count
        assert!(ViewPlan::from_plans(FrameFormat::Yuv420, vec![Arc::clone(&full)]).is_err());
        // full-res plan in the chroma slot
        assert!(ViewPlan::from_plans(FrameFormat::Yuv420, vec![Arc::clone(&full), full]).is_err());
    }

    #[test]
    fn view_plan_digest_is_format_aware() {
        let (lens, view) = geometry();
        let opts = PlanOptions::default();
        let gray = ViewPlan::compile(FrameFormat::Gray8, &lens, &view, 96, 72, &opts);
        let rgb = ViewPlan::compile(FrameFormat::Rgb8, &lens, &view, 96, 72, &opts);
        let yuv = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, 96, 72, &opts);
        assert_ne!(gray.digest(), rgb.digest());
        assert_ne!(gray.digest(), yuv.digest());
        assert_ne!(rgb.digest(), yuv.digest());
    }

    #[test]
    fn yuv_frame_corrects_bit_exactly_per_plane() {
        let (lens, view) = geometry();
        let vp = ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &view,
            96,
            72,
            &PlanOptions::default(),
        );
        let src = yuv_frame(96, 72);
        let fc = FrameCorrector::host(
            FrameFormat::Yuv420,
            vp.clone(),
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            4,
        )
        .expect("host corrector");
        let (out, report) = fc.correct_frame(&src).expect("correct");
        assert_eq!(out.format(), FrameFormat::Yuv420);
        assert_eq!(out.dims(), (80, 60));

        // reference: each plane independently through the plan path
        let srcs = src.planes();
        let outs = out.planes();
        for (i, (s, o)) in srcs.iter().zip(&outs).enumerate() {
            let reference = crate::plan::correct_plan(s, vp.plane_plan(i), Interpolator::Bilinear);
            assert_eq!(reference.pixels(), o.pixels(), "plane {i}");
        }

        // merged report: per-plane sections + summed counters
        assert_eq!(report.rows, 60 + 30 + 30);
        assert_eq!(report.model.get("planes"), Some(&3.0));
        for label in ["y", "cb", "cr"] {
            assert!(
                report.model.contains_key(&format!("{label}.correct_ms")),
                "{label} section missing"
            );
        }
    }

    /// A `Gray8` engine that records, per call, the calling thread and
    /// the source plane's first sample, and leaves the output as is.
    struct Recorder(Arc<par_runtime::sync::Mutex<Vec<(std::thread::ThreadId, u8)>>>);

    impl CorrectionEngine for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }

        fn correct_frame(
            &self,
            src: &Image<Gray8>,
            _plan: &RemapPlan,
            _out: &mut Image<Gray8>,
        ) -> Result<FrameReport, EngineError> {
            let call = (std::thread::current().id(), src.pixel(0, 0).0);
            self.0.lock().push(call);
            Ok(FrameReport::new(self.name()))
        }
    }

    #[test]
    fn planes_run_in_order_on_the_calling_thread() {
        let (lens, view) = geometry();
        let vp = ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &view,
            96,
            72,
            &PlanOptions::default(),
        );
        let calls = Arc::new(par_runtime::sync::Mutex::new(Vec::new()));
        let fc = FrameCorrector::from_parts(
            FrameFormat::Yuv420,
            vp,
            Box::new(Recorder(Arc::clone(&calls))),
        )
        .expect("recording corrector");
        // y, cb and cr each carry their own sample value
        let (cw, ch) = PlaneClass::HalfChroma.apply((96, 72));
        let src = Frame::Yuv420(Yuv420 {
            y: Image::filled(96, 72, Gray8(1)),
            cb: Image::filled(cw, ch, Gray8(2)),
            cr: Image::filled(cw, ch, Gray8(3)),
        });
        let (_, report) = fc.correct_frame(&src).expect("correct");
        let me = std::thread::current().id();
        assert_eq!(*calls.lock(), vec![(me, 1), (me, 2), (me, 3)]);
        assert_eq!(report.model.get("planes"), Some(&3.0));
        assert!(report.model.contains_key("frame_wall_ms"));
    }

    #[test]
    fn rgb_frame_round_trips_through_three_full_planes() {
        let (lens, view) = geometry();
        let vp = ViewPlan::compile(
            FrameFormat::Rgb8,
            &lens,
            &view,
            96,
            72,
            &PlanOptions::default(),
        );
        assert_eq!(vp.plans().len(), 1, "RGB shares one full-res plan");
        let rgb = pixmap::scene::RadialGradient.rasterize(96, 72);
        let rgb = Image::from_fn(96, 72, |x, y| {
            let v = rgb.pixel(x, y).0;
            Rgb8 {
                r: v,
                g: v.wrapping_add(40),
                b: v.wrapping_add(90),
            }
        });
        let frame = Frame::from_rgb_image(&rgb);
        let fc = FrameCorrector::host(
            FrameFormat::Rgb8,
            vp.clone(),
            &EngineSpec::Simd,
            Interpolator::Bilinear,
            4,
        )
        .expect("host corrector");
        let (out, report) = fc.correct_frame(&frame).expect("correct");
        assert_eq!(report.model.get("planes"), Some(&3.0));
        let outs = out.planes();
        for (i, (s, o)) in frame.planes().iter().zip(&outs).enumerate() {
            let reference = crate::plan::correct_plan(s, vp.full(), Interpolator::Bilinear);
            assert_eq!(reference.pixels(), o.pixels(), "plane {i}");
        }
    }

    #[test]
    fn format_mismatches_are_errors_not_panics() {
        let (lens, view) = geometry();
        let vp = ViewPlan::compile(
            FrameFormat::Yuv420,
            &lens,
            &view,
            96,
            72,
            &PlanOptions::default(),
        );
        // plan/format mismatch at construction
        assert!(FrameCorrector::host(
            FrameFormat::Rgb8,
            vp.clone(),
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            1
        )
        .is_err());
        let fc = FrameCorrector::host(
            FrameFormat::Yuv420,
            vp,
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            1,
        )
        .expect("build");
        // frame/corrector format mismatch at call time
        let gray = Frame::Gray8(Image::new(96, 72));
        let mut out = Frame::new(FrameFormat::Yuv420, 80, 60);
        assert!(fc.correct_frame_into(&gray, &mut out).is_err());
    }

    #[test]
    fn smp_runs_planes_sequentially_but_correctly() {
        let (lens, view) = geometry();
        let spec = EngineSpec::Smp {
            schedule: Schedule::Static { chunk: None },
        };
        let opts = PlanOptions::for_spec(&spec, Interpolator::Bilinear);
        let vp = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, 96, 72, &opts);
        let src = yuv_frame(96, 72);
        let fc = FrameCorrector::host(
            FrameFormat::Yuv420,
            vp.clone(),
            &spec,
            Interpolator::Bilinear,
            2,
        )
        .expect("smp corrector");
        let (out, _) = fc.correct_frame(&src).expect("correct");
        let outs = out.planes();
        let srcs = src.planes();
        for (i, (s, o)) in srcs.iter().zip(&outs).enumerate() {
            let reference = crate::plan::correct_plan(s, vp.plane_plan(i), Interpolator::Bilinear);
            assert_eq!(reference.pixels(), o.pixels(), "plane {i}");
        }
    }
}
