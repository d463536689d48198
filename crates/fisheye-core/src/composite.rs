//! Composite plans: N source cameras → one output surface
//! (DESIGN.md §2.9).
//!
//! A panorama stitched from a multi-fisheye rig and a rectified stereo
//! pair are both, at execution time, plain remap workloads: gather
//! source pixels through precompiled coordinates. What distinguishes
//! them from the single-camera path is *which* camera each output
//! pixel reads and how overlap regions mix. [`CompositePlan`] bakes
//! exactly that into a plan artifact, compiled once from rig geometry:
//!
//! * one full [`RemapPlan`] per source camera over the shared output
//!   surface (so each camera's coordinates keep their own span index,
//!   digest, lazy fixed-point LUTs, and the
//!   [`RemapPlan::recompile`] delta seam);
//! * a per-row run-length program of segments — `Exclusive` runs
//!   where one camera wins outright and `Blend` runs in overlap
//!   regions — plus per-pixel per-source blend weights prequantized to
//!   `u8` so the hot loop never renormalizes;
//! * a digest mixing the per-source plan digests with the segment
//!   program, keyed with the same FNV-1a constants as
//!   [`plan_request_digest`](crate::plan::plan_request_digest), so
//!   each source camera's plan lives in the serve layer's one shared
//!   plan cache.
//!
//! [`execute_composite_host`] mirrors `execute_host_post` and shares
//! its span kernels and row driver: the spec picks one kernel per
//! source (reading that source plan's SoA planes or fixed LUT), and a
//! segment walk hands each `Exclusive` run to its source's kernel
//! whole and each `Blend` pixel to every weighted source's kernel.
//! Sources and output are byte planes, and a blend pixel rounds
//! `(Σ vᵢ·qᵢ + 127) / 255` in integers, the legacy stitcher's exact
//! arithmetic. Every backend grades each finished row with the post stage in the
//! row driver. Every backend is bit-exact against
//! [`compose_layers`] applied to per-camera corrections from the
//! matching single-plan backend — the "two-pass" reference the
//! property tests pin. The SIMT backend does not lower composites:
//! its kernel ISA gathers from a single bound source plane, and a
//! multi-source indirect gather op would cost more than the batch
//! interpreter saves, so the spec returns `Unsupported` and serve's
//! degradation ladder keeps composites on host backends.

// Composite execution runs inside serving sessions; a panic here takes
// streams down, so the panicking escape hatches are denied outright.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::f64::consts::{PI, TAU};
use std::fmt;
use std::sync::Arc;

use fisheye_geom::{
    CameraRig, FisheyeLens, Mat3, MountedLens, OutputProjection, RectifiedPair, StereoRig,
};
use par_runtime::ThreadPool;
use pixmap::{Gray8, Image, Pixel};

use crate::engine::{drive_rows, host_pool, refuse_host, EngineError, EngineSpec, FrameReport};
use crate::frame::FrameFormat;
use crate::interp::Interpolator;
use crate::map::{MapEntry, RemapMap};
use crate::plan::{
    correct_plan, with_sampler, Fixed, Float, Fnv, Lanes, PlanOptions, RemapPlan, SpanKernel,
};
use crate::post::PostPlan;

// ---------------------------------------------------------------------
// Geometry tracing
// ---------------------------------------------------------------------

/// Sensor dimensions implied by a lens's principal point — the same
/// convention the legacy stitcher used (`cx`/`cy` at the sensor
/// center).
fn sensor_dims(lens: &FisheyeLens) -> (u32, u32) {
    (
        (lens.cx * 2.0).round() as u32,
        (lens.cy * 2.0).round() as u32,
    )
}

/// The full-sphere equirectangular output surface every panorama
/// composite renders: x ↦ azimuth over 2π, y ↦ elevation pole to pole.
fn panorama_projection(width: u32, height: u32) -> OutputProjection {
    OutputProjection::Equirectangular {
        h_span: TAU,
        v_span: PI,
        width,
        height,
    }
}

/// Trace one rig camera's remap map over the shared equirectangular
/// panorama surface: for every output pixel, follow the panorama ray
/// into the camera ([`MountedLens::project_world`]) and record the
/// source coordinate, invalid where the ray leaves the camera's field
/// of view or sensor.
pub fn panorama_camera_map(cam: &MountedLens, width: u32, height: u32) -> RemapMap {
    let proj = panorama_projection(width, height);
    let (sw, sh) = sensor_dims(&cam.lens);
    let (fw, fh) = (sw as f64, sh as f64);
    let mut entries = Vec::with_capacity(width as usize * height as usize);
    for y in 0..height {
        for x in 0..width {
            let ray = proj.pixel_ray(x as f64 + 0.5, y as f64 + 0.5);
            let e = match cam.project_world(ray) {
                Some((sx, sy)) if (0.0..fw).contains(&sx) && (0.0..fh).contains(&sy) => MapEntry {
                    sx: sx as f32,
                    sy: sy as f32,
                },
                _ => MapEntry::INVALID,
            };
            entries.push(e);
        }
    }
    RemapMap::from_entries(width, height, sw, sh, entries)
}

/// Per-camera blend scores over the panorama surface, one plane per
/// rig camera in camera order ([`CameraRig::score`] evaluated at every
/// output pixel's ray). [`CompositePlan::assemble`] normalizes these
/// into the quantized per-pixel weights.
pub fn panorama_scores(rig: &CameraRig, width: u32, height: u32) -> Vec<Vec<f32>> {
    let proj = panorama_projection(width, height);
    let mut scores = vec![vec![0f32; width as usize * height as usize]; rig.len()];
    for y in 0..height {
        for x in 0..width {
            let ray = proj.pixel_ray(x as f64 + 0.5, y as f64 + 0.5);
            let idx = y as usize * width as usize + x as usize;
            for (i, plane) in scores.iter_mut().enumerate() {
                plane[idx] = rig.score(i, ray) as f32;
            }
        }
    }
    scores
}

/// Trace one stereo eye's remap map over a rectified surface: every
/// output pixel's epipolar-grid direction ([`RectifiedPair`]) is
/// projected into the eye's fisheye. The two eye maps of a pair are
/// row-aligned by construction.
pub fn rectified_camera_map(pair: &RectifiedPair, eye: &MountedLens) -> RemapMap {
    let (sw, sh) = sensor_dims(&eye.lens);
    let (fw, fh) = (sw as f64, sh as f64);
    let mut entries = Vec::with_capacity(pair.width as usize * pair.height as usize);
    for y in 0..pair.height {
        for x in 0..pair.width {
            let e = match pair.source_pixel(eye, x as f64 + 0.5, y as f64 + 0.5) {
                Some((sx, sy)) if (0.0..fw).contains(&sx) && (0.0..fh).contains(&sy) => MapEntry {
                    sx: sx as f32,
                    sy: sy as f32,
                },
                _ => MapEntry::INVALID,
            };
            entries.push(e);
        }
    }
    RemapMap::from_entries(pair.width, pair.height, sw, sh, entries)
}

// ---------------------------------------------------------------------
// Cache digests
// ---------------------------------------------------------------------

fn mix_mat(h: &mut Fnv, m: &Mat3) {
    for row in &m.m {
        for v in row {
            h.mix(v.to_bits());
        }
    }
}

/// Cache key for one camera's panorama source plan — the composite
/// analogue of [`plan_request_digest`](crate::plan::plan_request_digest):
/// intrinsics, rig orientation, output surface, sensor dims and plan
/// options, FNV-1a folded. A view change on one camera changes only
/// that camera's digest, which is what makes per-camera delta
/// recompilation a pure cache workload.
pub fn panorama_camera_digest(
    cam: &MountedLens,
    width: u32,
    height: u32,
    opts: &PlanOptions,
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.mix(0x7061_6e6f); // "pano"
    h.mix_lens(&cam.lens);
    mix_mat(&mut h, &cam.cam_to_world);
    h.mix(((width as u64) << 32) | height as u64);
    let (sw, sh) = sensor_dims(&cam.lens);
    h.mix(((sw as u64) << 32) | sh as u64);
    h.mix_opts(opts);
    h.0
}

/// Cache key for one stereo eye's rectified plan: the rectified grid
/// (frame, dims, angular ranges), the eye's intrinsics and mount, and
/// the plan options.
pub fn rectified_camera_digest(pair: &RectifiedPair, eye: &MountedLens, opts: &PlanOptions) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.mix(0x7265_6374); // "rect"
    mix_mat(&mut h, &pair.rect_to_world);
    h.mix(((pair.width as u64) << 32) | pair.height as u64);
    h.mix(pair.h_range.to_bits());
    h.mix(pair.v_range.to_bits());
    h.mix_lens(&eye.lens);
    mix_mat(&mut h, &eye.cam_to_world);
    let (sw, sh) = sensor_dims(&eye.lens);
    h.mix(((sw as u64) << 32) | sh as u64);
    h.mix_opts(opts);
    h.0
}

// ---------------------------------------------------------------------
// CompositePlan
// ---------------------------------------------------------------------

/// One run of output pixels within a row of the composite program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seg {
    /// Every pixel in `[start, end)` reads exactly one source.
    Exclusive { source: u16, start: u32, end: u32 },
    /// Every pixel in `[start, end)` blends ≥ 2 sources with the
    /// quantized weights at `weights[woff + (x − start) · n ..][..n]`.
    Blend { start: u32, end: u32, woff: u32 },
}

/// A compiled N-source composite: per-camera [`RemapPlan`]s over a
/// shared output surface plus the per-row segment program selecting
/// and blending between them. Everything the hot loop needs is baked
/// at compile time; the per-frame cost is gathers plus, in overlap
/// runs, one integer (or float) weighted accumulation.
#[derive(Clone)]
pub struct CompositePlan {
    sources: Vec<Arc<RemapPlan>>,
    segs: Vec<Seg>,
    /// `row_offsets[y] .. row_offsets[y + 1]` indexes `segs`.
    row_offsets: Vec<u32>,
    /// Quantized per-pixel per-source weights of blend runs, `n`
    /// bytes per pixel, summing to 255 at every pixel.
    weights: Vec<u8>,
    width: u32,
    height: u32,
    covered: u64,
    multi_covered: u64,
    blend_pixels: u64,
    digest: u64,
}

impl CompositePlan {
    /// Assemble a composite from per-source plans (each rendering the
    /// full output surface from its own camera) and per-source score
    /// planes ([`panorama_scores`] or any caller-supplied weighting).
    ///
    /// Per pixel: sources that are valid there and score > 0 are
    /// candidates; their scores normalize to weights, quantized to
    /// `u8` by cumulative rounding so they always sum to 255 exactly.
    /// If valid sources exist but all score 0, they share uniformly.
    /// A single surviving candidate (or a quantization that gives one
    /// source the full 255) becomes an `Exclusive` run — for
    /// the symmetric dual-fisheye rig this reproduces the legacy
    /// stitcher's byte weights exactly.
    pub fn assemble(sources: Vec<Arc<RemapPlan>>, scores: &[Vec<f32>]) -> CompositePlan {
        assert!(!sources.is_empty(), "a composite needs at least one source");
        assert!(
            sources.len() <= u16::MAX as usize,
            "composite sources are indexed by u16"
        );
        let (width, height) = (sources[0].width(), sources[0].height());
        for s in &sources {
            assert_eq!(
                (s.width(), s.height()),
                (width, height),
                "every source plan must render the shared output surface"
            );
        }
        assert_eq!(scores.len(), sources.len(), "one score plane per source");
        let pixels = width as usize * height as usize;
        for plane in scores {
            assert_eq!(plane.len(), pixels, "score plane must cover the surface");
        }

        let n = sources.len();
        let w = width as usize;
        let mut segs: Vec<Seg> = Vec::new();
        let mut row_offsets: Vec<u32> = Vec::with_capacity(height as usize + 1);
        let mut weights: Vec<u8> = Vec::new();
        let (mut covered, mut multi_covered, mut blend_pixels) = (0u64, 0u64, 0u64);

        // per-pixel scratch
        let mut wbuf = vec![0f64; n];
        let mut qbuf = vec![0u8; n];
        let mut masks = vec![vec![false; w]; n];

        // pixel classification of the current run
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Px {
            Gap,
            Excl(u16),
            Blend,
        }

        for y in 0..height {
            row_offsets.push(segs.len() as u32);
            for (mask, src) in masks.iter_mut().zip(&sources) {
                mask.fill(false);
                for sp in src.spans(y) {
                    mask[sp.start as usize..sp.end as usize].fill(true);
                }
            }
            let mut run = Px::Gap;
            let mut run_start = 0u32;
            let mut run_woff = 0u32;
            let flush = |run: Px, start: u32, end: u32, woff: u32, segs: &mut Vec<Seg>| {
                if start == end {
                    return;
                }
                match run {
                    Px::Gap => {}
                    Px::Excl(source) => segs.push(Seg::Exclusive { source, start, end }),
                    Px::Blend => segs.push(Seg::Blend { start, end, woff }),
                }
            };
            for x in 0..width {
                let idx = y as usize * w + x as usize;
                let mut nvalid = 0u32;
                let mut sum = 0f64;
                for i in 0..n {
                    if masks[i][x as usize] {
                        nvalid += 1;
                        wbuf[i] = (scores[i][idx] as f64).max(0.0);
                        sum += wbuf[i];
                    } else {
                        wbuf[i] = 0.0;
                    }
                }
                let px = if nvalid == 0 {
                    Px::Gap
                } else {
                    covered += 1;
                    if nvalid >= 2 {
                        multi_covered += 1;
                    }
                    if sum <= 0.0 {
                        // valid sources that all scored 0 share evenly
                        let uniform = 1.0 / nvalid as f64;
                        for (wv, mask) in wbuf.iter_mut().zip(&masks) {
                            *wv = if mask[x as usize] { uniform } else { 0.0 };
                        }
                    } else {
                        for wv in wbuf.iter_mut() {
                            *wv /= sum;
                        }
                    }
                    // cumulative rounding: weights always sum to 255
                    let mut cum = 0f64;
                    let mut prev = 0u32;
                    let mut winner: Option<u16> = None;
                    for (i, (&wv, q)) in wbuf.iter().zip(qbuf.iter_mut()).enumerate() {
                        cum += wv;
                        let c = ((cum * 255.0).round() as u32).min(255);
                        *q = (c - prev) as u8;
                        if *q == 255 {
                            winner = Some(i as u16);
                        }
                        prev = c;
                    }
                    match winner {
                        Some(source) => Px::Excl(source),
                        None => Px::Blend,
                    }
                };
                if px != run {
                    flush(run, run_start, x, run_woff, &mut segs);
                    run = px;
                    run_start = x;
                    run_woff = weights.len() as u32;
                }
                if px == Px::Blend {
                    blend_pixels += 1;
                    weights.extend_from_slice(&qbuf);
                }
            }
            flush(run, run_start, width, run_woff, &mut segs);
        }
        row_offsets.push(segs.len() as u32);

        // digest: same FNV-1a constants as plan_request_digest, plus a
        // composite discriminator, the per-source plan digests and the
        // full segment/weight program
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(0x636f_6d70_6f73_6974); // "composit"
        h.mix(((width as u64) << 32) | height as u64);
        h.mix(n as u64);
        for s in &sources {
            h.mix(s.digest());
            let (sw, sh) = s.src_dims();
            h.mix(((sw as u64) << 32) | sh as u64);
        }
        h.mix(segs.len() as u64);
        for seg in &segs {
            match *seg {
                Seg::Exclusive { source, start, end } => {
                    h.mix(1);
                    h.mix(((source as u64) << 32) | start as u64);
                    h.mix(end as u64);
                }
                Seg::Blend { start, end, woff } => {
                    h.mix(2);
                    h.mix(((start as u64) << 32) | end as u64);
                    h.mix(woff as u64);
                }
            }
        }
        h.mix(weights.len() as u64);
        for chunk in weights.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            h.mix(u64::from_le_bytes(v));
        }

        CompositePlan {
            sources,
            segs,
            row_offsets,
            weights,
            width,
            height,
            covered,
            multi_covered,
            blend_pixels,
            digest: h.0,
        }
    }

    /// Compile a panorama composite directly from rig geometry: one
    /// traced + compiled [`RemapPlan`] per camera, then
    /// [`CompositePlan::assemble`] with the rig's blend scores. The
    /// cache-aware path resolves the per-camera plans through
    /// [`panorama_camera_digest`] keys and calls
    /// [`CompositePlan::from_rig_plans`] instead.
    pub fn compile_panorama(
        rig: &CameraRig,
        width: u32,
        height: u32,
        opts: &PlanOptions,
    ) -> CompositePlan {
        let sources = rig
            .cameras()
            .iter()
            .map(|cam| {
                Arc::new(RemapPlan::compile(
                    &panorama_camera_map(cam, width, height),
                    opts.clone(),
                ))
            })
            .collect();
        CompositePlan::from_rig_plans(rig, sources, width, height)
    }

    /// Assemble a panorama composite from per-camera plans resolved
    /// elsewhere (a shared plan cache): computes the rig's blend
    /// scores and runs [`CompositePlan::assemble`]. `sources` must be
    /// in rig camera order.
    pub fn from_rig_plans(
        rig: &CameraRig,
        sources: Vec<Arc<RemapPlan>>,
        width: u32,
        height: u32,
    ) -> CompositePlan {
        assert_eq!(sources.len(), rig.len(), "one source plan per rig camera");
        CompositePlan::assemble(sources, &panorama_scores(rig, width, height))
    }

    /// Output width, pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output height, pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The per-source plans, in camera order.
    pub fn sources(&self) -> &[Arc<RemapPlan>] {
        &self.sources
    }

    /// Output pixels not covered by any source (rendered black).
    pub fn uncovered_pixels(&self) -> u64 {
        self.width as u64 * self.height as u64 - self.covered
    }

    /// Output pixels blending two or more sources.
    pub fn blend_pixels(&self) -> u64 {
        self.blend_pixels
    }

    /// Fraction of output pixels seen by ≥ 2 sources — the legacy
    /// stitcher's `overlap_fraction`.
    pub fn overlap_fraction(&self) -> f64 {
        self.multi_covered as f64 / (self.width as f64 * self.height as f64)
    }

    /// Digest over the per-source plan digests and the full segment /
    /// weight program (same FNV-1a constants as the single-plan
    /// digests) — the composite's identity in a shared plan cache.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Bytes owned by the composite program itself (segments +
    /// weights); the per-source plans report their own
    /// [`RemapPlan::bytes`] and are typically cache-shared.
    pub fn bytes(&self) -> usize {
        self.segs.len() * std::mem::size_of::<Seg>()
            + self.row_offsets.len() * 4
            + self.weights.len()
    }

    /// The quantized per-source weights at output pixel `(x, y)`:
    /// `Some` (length = source count, summing to 255) where the pixel
    /// is covered — exclusive pixels report 255 for their source —
    /// `None` in gaps. Inspection/property-test surface, not the hot
    /// path.
    pub fn weights_at(&self, x: u32, y: u32) -> Option<Vec<u8>> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let n = self.sources.len();
        for seg in self.row_segs(y) {
            match *seg {
                Seg::Exclusive { source, start, end } if (start..end).contains(&x) => {
                    let mut q = vec![0u8; n];
                    q[source as usize] = 255;
                    return Some(q);
                }
                Seg::Blend { start, end, woff } if (start..end).contains(&x) => {
                    let at = woff as usize + (x - start) as usize * n;
                    return Some(self.weights[at..at + n].to_vec());
                }
                _ => {}
            }
        }
        None
    }

    fn row_segs(&self, y: u32) -> &[Seg] {
        let a = self.row_offsets[y as usize] as usize;
        let b = self.row_offsets[y as usize + 1] as usize;
        &self.segs[a..b]
    }
}

impl fmt::Debug for CompositePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompositePlan")
            .field("sources", &self.sources.len())
            .field("out_dims", &(self.width, self.height))
            .field("segments", &self.segs.len())
            .field("blend_pixels", &self.blend_pixels)
            .field("uncovered_pixels", &self.uncovered_pixels())
            .field("digest", &self.digest)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// StereoPlan
// ---------------------------------------------------------------------

/// The coupled plan pair of a rectified fisheye stereo rig: one
/// [`RemapPlan`] per eye over the shared epipolar-aligned surface
/// ([`StereoRig::rectify`]). Both plans are ordinary cache citizens
/// ([`rectified_camera_digest`]); the pair exists so callers correct
/// both eyes with one object and one digest.
#[derive(Clone)]
pub struct StereoPlan {
    /// The rectified surface both eyes render.
    pub pair: RectifiedPair,
    /// Left-eye plan.
    pub left: Arc<RemapPlan>,
    /// Right-eye plan.
    pub right: Arc<RemapPlan>,
}

impl StereoPlan {
    /// Rectify `rig` onto a `width × height` grid spanning
    /// `h_fov_deg × v_fov_deg` and compile both eye plans.
    pub fn compile(
        rig: &StereoRig,
        width: u32,
        height: u32,
        h_fov_deg: f64,
        v_fov_deg: f64,
        opts: &PlanOptions,
    ) -> StereoPlan {
        let pair = rig.rectify(width, height, h_fov_deg, v_fov_deg);
        let left = Arc::new(RemapPlan::compile(
            &rectified_camera_map(&pair, &rig.left),
            opts.clone(),
        ));
        let right = Arc::new(RemapPlan::compile(
            &rectified_camera_map(&pair, &rig.right),
            opts.clone(),
        ));
        StereoPlan { pair, left, right }
    }

    /// Digest over both eye plans (pair identity in a shared cache).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(0x7374_6572_656f); // "stereo"
        h.mix(self.left.digest());
        h.mix(self.right.digest());
        h.0
    }
}

impl fmt::Debug for StereoPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StereoPlan")
            .field("out_dims", &(self.pair.width, self.pair.height))
            .field("left", &self.left.digest())
            .field("right", &self.right.digest())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Blend arithmetic, the segment walk and the two-pass reference
// ---------------------------------------------------------------------

/// Finish an overlap pixel's accumulator `Σ vᵢ·qᵢ` over the sources
/// with a nonzero quantized weight `qᵢ`: `(acc + 127) / 255`, the
/// legacy stitcher's exact rounding. A single `q = 255` contribution
/// is the identity, which is what lets an exclusive run copy its
/// source's samples.
#[inline]
fn blend_finish(acc: u32) -> Gray8 {
    Gray8(((acc + 127) / 255) as u8)
}

/// The segment row walk every composite datapath runs, with one span
/// kernel per source: gaps fill black, an `Exclusive` run goes through
/// its source's [`SpanKernel::span`] (the single-plan kernel,
/// unchanged), and a `Blend` run accumulates every weighted source's
/// [`SpanKernel::sample`] in source order.
fn seg_row<K: SpanKernel<Gray8>>(plan: &CompositePlan, ks: &[K], y: u32, out_row: &mut [Gray8]) {
    let row_start = y as usize * out_row.len();
    let mut cursor = 0usize;
    for seg in plan.row_segs(y) {
        let (Seg::Exclusive { start, end, .. } | Seg::Blend { start, end, .. }) = *seg;
        let (start, end) = (start as usize, end as usize);
        out_row[cursor..start].fill(Gray8::BLACK);
        let run = &mut out_row[start..end];
        match *seg {
            Seg::Exclusive { source, .. } => ks[source as usize].span(y, start, run),
            Seg::Blend { woff, .. } => {
                let weights = plan.weights[woff as usize..].chunks_exact(ks.len());
                for ((i, o), qs) in (row_start + start..).zip(run).zip(weights) {
                    let mut acc = 0u32;
                    for (k, &q) in ks.iter().zip(qs) {
                        if q > 0 {
                            acc += k.sample(i).0 as u32 * q as u32;
                        }
                    }
                    *o = blend_finish(acc);
                }
            }
        }
        cursor = end;
    }
    out_row[cursor..].fill(Gray8::BLACK);
}

/// The blend half of the two-pass reference: given per-camera
/// corrected layers (each rendering the full output surface), apply
/// the composite's segment program and quantized weights per pixel.
/// [`execute_composite_host`] must match `compose_layers` over layers
/// produced by the matching per-camera backend, byte for byte.
pub fn compose_layers(plan: &CompositePlan, layers: &[&Image<Gray8>]) -> Image<Gray8> {
    assert_eq!(layers.len(), plan.sources.len(), "one layer per source");
    for l in layers {
        assert_eq!(
            l.dims(),
            (plan.width, plan.height),
            "layer dimensions must match the composite surface"
        );
    }
    let n = layers.len();
    let mut out = Image::new(plan.width, plan.height);
    for y in 0..plan.height {
        let out_row = out.row_mut(y);
        let mut cursor = 0usize;
        for seg in plan.row_segs(y) {
            match *seg {
                Seg::Exclusive { source, start, end } => {
                    out_row[cursor..start as usize].fill(Gray8::BLACK);
                    let r = start as usize..end as usize;
                    for (off, o) in out_row[r.clone()].iter_mut().enumerate() {
                        *o = layers[source as usize].pixel((r.start + off) as u32, y);
                    }
                    cursor = r.end;
                }
                Seg::Blend { start, end, woff } => {
                    out_row[cursor..start as usize].fill(Gray8::BLACK);
                    let r = start as usize..end as usize;
                    let mut wo = woff as usize;
                    for (off, o) in out_row[r.clone()].iter_mut().enumerate() {
                        let x = (r.start + off) as u32;
                        let mut acc = 0u32;
                        for (i, &q) in plan.weights[wo..wo + n].iter().enumerate() {
                            if q > 0 {
                                acc += layers[i].pixel(x, y).0 as u32 * q as u32;
                            }
                        }
                        *o = blend_finish(acc);
                        wo += n;
                    }
                    cursor = r.end;
                }
            }
        }
        out_row[cursor..].fill(Gray8::BLACK);
    }
    out
}

/// The full two-pass reference: correct every camera independently
/// through [`correct_plan`] (the serial float/byte sampler), then
/// blend with [`compose_layers`].
pub fn compose_two_pass(
    srcs: &[&Image<Gray8>],
    plan: &CompositePlan,
    interp: Interpolator,
) -> Image<Gray8> {
    assert_eq!(srcs.len(), plan.sources.len(), "one frame per source");
    let layers: Vec<Image<Gray8>> = plan
        .sources
        .iter()
        .zip(srcs)
        .map(|(sp, s)| correct_plan(s, sp, interp))
        .collect();
    let refs: Vec<&Image<Gray8>> = layers.iter().collect();
    compose_layers(plan, &refs)
}

// ---------------------------------------------------------------------
// Engine execution
// ---------------------------------------------------------------------

fn check_composite_dims(
    name: &str,
    srcs: &[&Image<Gray8>],
    plan: &CompositePlan,
    out: &Image<Gray8>,
) -> Result<(), EngineError> {
    if out.dims() != (plan.width, plan.height) {
        return Err(EngineError::backend(
            name,
            format!(
                "output {:?} does not match composite {:?}",
                out.dims(),
                (plan.width, plan.height)
            ),
        ));
    }
    if srcs.len() != plan.sources.len() {
        return Err(EngineError::backend(
            name,
            format!(
                "composite has {} sources, got {} source frames",
                plan.sources.len(),
                srcs.len()
            ),
        ));
    }
    for (i, (s, sp)) in srcs.iter().zip(&plan.sources).enumerate() {
        if s.dims() != sp.src_dims() {
            return Err(EngineError::backend(
                name,
                format!(
                    "source frame {i} is {:?}, its plan reads {:?}",
                    s.dims(),
                    sp.src_dims()
                ),
            ));
        }
    }
    Ok(())
}

/// Execute a composite on a host backend — the multi-source analogue
/// of the single-plan host executor, sharing its span kernels, row
/// driver, report and error conventions: the spec picks one kernel per
/// source, and the segment walk drives them (over `pool`, which `smp`
/// requires). Every backend fuses the
/// post stage row by row (`fused=1`), bit-exact with correcting first
/// and running [`post_pass`](crate::engine::post_pass) after.
/// Accelerator specs (cell/gpu/simt) are `Unsupported`: in particular
/// the SIMT kernel ISA has no multi-source gather operand, so
/// composites stay on host backends.
pub fn execute_composite_host(
    spec: &EngineSpec,
    interp: Interpolator,
    srcs: &[&Image<Gray8>],
    plan: &CompositePlan,
    post: Option<&PostPlan>,
    pool: Option<&ThreadPool>,
    out: &mut Image<Gray8>,
) -> Result<FrameReport, EngineError> {
    let name = spec.name();
    check_composite_dims(&name, srcs, plan, out)?;
    let post = post.filter(|p| !p.is_noop());
    if let EngineSpec::Simt { .. } = spec {
        return Err(EngineError::unsupported(
            &name,
            "the SIMT kernel ISA gathers from a single bound source plane; \
             composites need a per-pixel multi-source gather and run on host backends",
        ));
    }
    refuse_host(&name, spec, interp)?;
    let mut report = FrameReport::new(&name);
    report.rows = plan.height as u64;
    report.invalid_pixels = plan.uncovered_pixels();
    report.kv("sources", plan.sources.len() as f64);
    report.kv("blend_pixels", plan.blend_pixels as f64);
    match *spec {
        EngineSpec::Serial | EngineSpec::Smp { .. } => {
            let pool = host_pool(&name, spec, pool, &mut report)?;
            report.correct_time = with_sampler!(interp, f => {
                let ks: Vec<_> = srcs
                    .iter()
                    .zip(&plan.sources)
                    .map(|(src, sp)| Float::new(src, sp, f))
                    .collect();
                drive_rows(pool, post, out, |y, row| seg_row(plan, &ks, y, row))
            });
        }
        EngineSpec::Simd => {
            let ks: Vec<_> = srcs
                .iter()
                .zip(&plan.sources)
                .map(|(src, sp)| Lanes::new(src, sp))
                .collect();
            report.correct_time = drive_rows(None, post, out, |y, row| seg_row(plan, &ks, y, row));
            report.kv("lanes", crate::simd::LANES as f64);
        }
        EngineSpec::FixedPoint { frac_bits } => {
            // per-source LUTs, compiled or memoized by the plans
            // themselves, so a cache-shared source plan quantizes its
            // LUT at most once
            let mut luts = Vec::with_capacity(plan.sources.len());
            let mut misses = 0u32;
            let mut derive_ms = 0f64;
            for sp in &plan.sources {
                let (lut, miss) = sp.fixed_lazy(frac_bits);
                if let Some(ms) = miss {
                    misses += 1;
                    derive_ms += ms;
                }
                luts.push(lut);
            }
            if misses > 0 {
                report.kv("plan_miss", misses as f64);
                report.kv("plan_derive_ms", derive_ms);
            }
            let ks: Vec<_> = srcs
                .iter()
                .zip(&plan.sources)
                .zip(&luts)
                .map(|((src, sp), lut)| Fixed::new(src, sp, lut))
                .collect();
            report.correct_time = drive_rows(None, post, out, |y, row| seg_row(plan, &ks, y, row));
            report.kv("frac_bits", frac_bits as f64);
        }
        EngineSpec::Cell { .. } | EngineSpec::Gpu { .. } | EngineSpec::Simt { .. } => {
            unreachable!("refuse_host refuses {name}")
        }
    }
    if post.is_some() {
        report.kv("fused", 1.0);
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Frame-level composites (multi-plane formats)
// ---------------------------------------------------------------------

/// The multi-source analogue of [`crate::ViewPlan`]: one compiled
/// [`CompositePlan`] per distinct plane class of a [`FrameFormat`], so
/// multi-plane frames (yuv420 panoramas, RGB panoramas) composite
/// plane by plane. Chroma-class plans are traced from the
/// class-scaled rig ([`CameraRig::scaled`]) at class-scaled output
/// dimensions — the same convention [`crate::PlaneRequest`] applies to
/// single-camera plans.
#[derive(Clone, Debug)]
pub struct CompositeViewPlan {
    format: FrameFormat,
    /// One plan per entry of [`FrameFormat::classes`], in order.
    plans: Vec<CompositePlan>,
    width: u32,
    height: u32,
}

impl CompositeViewPlan {
    /// Compile the panorama composite of every plane class of
    /// `format` at full resolution `width × height`.
    pub fn compile_panorama(
        rig: &CameraRig,
        format: FrameFormat,
        width: u32,
        height: u32,
        opts: &PlanOptions,
    ) -> CompositeViewPlan {
        let plans = format
            .classes()
            .iter()
            .map(|&class| {
                let (pw, ph) = class.apply((width, height));
                let class_rig = if class.scale() == 1.0 {
                    rig.clone()
                } else {
                    rig.scaled(class.scale())
                };
                CompositePlan::compile_panorama(&class_rig, pw, ph, opts)
            })
            .collect();
        CompositeViewPlan {
            format,
            plans,
            width,
            height,
        }
    }

    /// Assemble from per-class plans compiled elsewhere (a shared plan
    /// cache); `plans` must follow [`FrameFormat::classes`] order and
    /// carry class-scaled output dimensions.
    pub fn from_plans(
        format: FrameFormat,
        plans: Vec<CompositePlan>,
        width: u32,
        height: u32,
    ) -> Result<CompositeViewPlan, String> {
        let classes = format.classes();
        if plans.len() != classes.len() {
            return Err(format!(
                "format {format} needs {} class plans, got {}",
                classes.len(),
                plans.len()
            ));
        }
        for (class, plan) in classes.iter().zip(&plans) {
            let want = class.apply((width, height));
            if (plan.width(), plan.height()) != want {
                return Err(format!(
                    "{} plan is {:?}, class dimensions are {want:?}",
                    class.name(),
                    (plan.width(), plan.height()),
                ));
            }
        }
        Ok(CompositeViewPlan {
            format,
            plans,
            width,
            height,
        })
    }

    /// The frame format this plan composites.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// Full-resolution output dimensions.
    pub fn out_dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// The plan of one distinct class (same order as
    /// [`FrameFormat::classes`]).
    pub fn class_plans(&self) -> &[CompositePlan] {
        &self.plans
    }

    /// Output dimensions of every plane, in plane order — the pool
    /// sizing surface, mirroring [`crate::ViewPlan::plane_dims`].
    pub fn plane_dims(&self) -> Vec<(u32, u32)> {
        (0..self.format.planes())
            .map(|p| {
                let plan = self.plane_plan(p);
                (plan.width(), plan.height())
            })
            .collect()
    }

    /// The plan plane `p` composites through.
    pub fn plane_plan(&self, p: usize) -> &CompositePlan {
        let class = self.format.plane_classes()[p];
        let at = self
            .format
            .classes()
            .iter()
            .position(|&c| c == class)
            .unwrap_or(0);
        &self.plans[at]
    }

    /// Digest over the format and every class plan.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(0x6672_616d_6563_6f6d); // "framecom"
        h.mix(self.format as u64);
        h.mix(((self.width as u64) << 32) | self.height as u64);
        for p in &self.plans {
            h.mix(p.digest());
        }
        h.0
    }

    /// Bytes across the class plans' own programs (not the shared
    /// per-source plans).
    pub fn bytes(&self) -> usize {
        self.plans.iter().map(CompositePlan::bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::synth::{capture_fisheye, World};
    use par_runtime::{Schedule, ThreadPool};
    use pixmap::metrics::psnr;
    use pixmap::scene::{RadialGradient, Scene, SinusoidField};
    use pixmap::GrayF32;

    /// The legacy back-camera capture trick: the back fisheye sees the
    /// spherical scene shifted by half a turn in azimuth.
    struct Rotated<'a>(&'a dyn Scene);

    impl Scene for Rotated<'_> {
        fn sample(&self, u: f64, v: f64) -> f32 {
            self.0.sample((u + 0.5).rem_euclid(1.0), v)
        }
    }

    fn rig_and_captures(scene: &dyn Scene, fov: f64) -> (CameraRig, Image<Gray8>, Image<Gray8>) {
        let rig = CameraRig::symmetric(256, 256, fov);
        let lens = rig.cameras()[0].lens;
        let front = capture_fisheye(scene, World::Spherical, &lens, 256, 256, 2);
        let back = capture_fisheye(&Rotated(scene), World::Spherical, &lens, 256, 256, 2);
        (rig, front, back)
    }

    fn pano(rig: &CameraRig, w: u32, h: u32) -> CompositePlan {
        CompositePlan::compile_panorama(rig, w, h, &PlanOptions::default())
    }

    #[test]
    fn full_sphere_is_covered() {
        let rig = CameraRig::symmetric(256, 256, 190.0);
        let plan = pano(&rig, 128, 64);
        assert_eq!(plan.uncovered_pixels(), 0, "holes in the panorama");
        let f = plan.overlap_fraction();
        assert!((0.01..0.2).contains(&f), "overlap fraction {f}");
    }

    #[test]
    fn stitched_panorama_matches_scene() {
        let scene = SinusoidField { max_freq: 25.0 };
        let (rig, front, back) = rig_and_captures(&scene, 190.0);
        let plan = pano(&rig, 128, 64);
        let mut out = Image::new(128, 64);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&front, &back],
            &plan,
            None,
            None,
            &mut out,
        )
        .expect("serial composite");
        let ideal = Image::from_fn(128, 64, |x, y| {
            Gray8::from(GrayF32(
                scene.sample((x as f64 + 0.5) / 128.0, (y as f64 + 0.5) / 64.0),
            ))
        });
        let p = psnr(&ideal, &out);
        assert!(p > 22.0, "panorama PSNR {p}");
    }

    #[test]
    fn seam_is_smooth() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 160, 80);
        let mut out = Image::new(160, 80);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&front, &back],
            &plan,
            None,
            None,
            &mut out,
        )
        .expect("serial composite");
        // the front/back seam runs along two vertical lines; crossing
        // them must not jump
        for x in [40u32, 120u32] {
            for y in 10..70u32 {
                let a = out.pixel(x, y).0 as i32;
                let b = out.pixel(x, y - 1).0 as i32;
                assert!((a - b).abs() < 28, "seam jump at ({x},{y}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn blend_weights_respect_exclusive_zones() {
        let rig = CameraRig::symmetric(256, 256, 190.0);
        let plan = pano(&rig, 128, 64);
        // equator, panorama center: straight into the front camera
        assert_eq!(plan.weights_at(64, 32), Some(vec![255, 0]));
        // equator, panorama edge: straight into the back camera
        assert_eq!(plan.weights_at(0, 32), Some(vec![0, 255]));
    }

    #[test]
    fn blend_weights_partition_to_unity() {
        let rig = CameraRig::symmetric(256, 256, 200.0);
        let plan = pano(&rig, 128, 64);
        assert!(plan.blend_pixels() > 0, "200° rig must have a blend band");
        for y in 0..64 {
            for x in 0..128 {
                if let Some(q) = plan.weights_at(x, y) {
                    let sum: u32 = q.iter().map(|&v| v as u32).sum();
                    assert_eq!(sum, 255, "weights at ({x},{y}) sum to {sum}");
                }
            }
        }
    }

    #[test]
    fn frame_sizes_checked() {
        let rig = CameraRig::symmetric(256, 256, 190.0);
        let plan = pano(&rig, 64, 32);
        let small = Image::<Gray8>::new(64, 64);
        let ok = Image::<Gray8>::new(256, 256);
        let mut out = Image::new(64, 32);
        let err = execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&small, &ok],
            &plan,
            None,
            None,
            &mut out,
        );
        assert!(err.is_err(), "mismatched source frame must be rejected");
        let err = execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&ok],
            &plan,
            None,
            None,
            &mut out,
        );
        assert!(err.is_err(), "missing source frame must be rejected");
    }

    #[test]
    fn single_source_composite_is_plain_remap() {
        // a 1-camera rig degenerates to the camera's own RemapPlan
        let rig = CameraRig::new(vec![MountedLens::with_rotation(
            FisheyeLens::equidistant_fov(128, 128, 180.0),
            Mat3::IDENTITY,
        )]);
        let plan = pano(&rig, 96, 48);
        let src = pixmap::scene::random_gray(128, 128, 9);
        let mut out = Image::new(96, 48);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &[&src],
            &plan,
            None,
            None,
            &mut out,
        )
        .expect("serial composite");
        let direct = correct_plan(&src, &plan.sources()[0], Interpolator::Bilinear);
        assert_eq!(out, direct);
    }

    #[test]
    fn serial_and_smp_match_two_pass_reference() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        let reference = compose_two_pass(&srcs, &plan, Interpolator::Bilinear);
        let pool = ThreadPool::new(3);
        for spec in [
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
        ] {
            let mut out = Image::new(96, 48);
            let report = execute_composite_host(
                &spec,
                Interpolator::Bilinear,
                &srcs,
                &plan,
                None,
                Some(&pool),
                &mut out,
            )
            .expect("composite");
            assert_eq!(out, reference, "{} diverges from two-pass", spec.name());
            assert_eq!(report.model.get("sources"), Some(&2.0));
        }
    }

    #[test]
    fn simd_matches_its_per_camera_two_pass() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        let layers: Vec<Image<Gray8>> = plan
            .sources()
            .iter()
            .zip(srcs)
            .map(|(sp, s)| crate::simd::correct_bilinear_simd(s, sp))
            .collect();
        let refs: Vec<&Image<Gray8>> = layers.iter().collect();
        let reference = compose_layers(&plan, &refs);
        let mut out = Image::new(96, 48);
        execute_composite_host(
            &EngineSpec::Simd,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            None,
            &mut out,
        )
        .expect("simd composite");
        assert_eq!(out, reference);
    }

    #[test]
    fn fixed_matches_its_per_camera_two_pass() {
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let opts = PlanOptions {
            frac_bits: vec![10],
            ..PlanOptions::default()
        };
        let plan = CompositePlan::compile_panorama(&rig, 96, 48, &opts);
        let srcs = [&front, &back];
        let layers: Vec<Image<Gray8>> = plan
            .sources()
            .iter()
            .zip(srcs)
            .map(|(sp, s)| {
                let lut = sp.fixed(10).expect("eager LUT");
                let mut l = Image::new(96, 48);
                crate::correct_fixed_into(s, lut, &mut l);
                l
            })
            .collect();
        let refs: Vec<&Image<Gray8>> = layers.iter().collect();
        let reference = compose_layers(&plan, &refs);
        let mut out = Image::new(96, 48);
        let report = execute_composite_host(
            &EngineSpec::FixedPoint { frac_bits: 10 },
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            None,
            &mut out,
        )
        .expect("fixed composite");
        assert_eq!(out, reference);
        assert_eq!(report.model.get("frac_bits"), Some(&10.0));
    }

    #[test]
    fn fixed_reads_the_luts_its_source_plans_were_compiled_with() {
        // source plans compiled with the fixed width carry its LUTs, so
        // no frame requantizes a source or keeps a second copy of a LUT
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let opts = PlanOptions {
            frac_bits: vec![12],
            ..PlanOptions::default()
        };
        let plan = CompositePlan::compile_panorama(&rig, 96, 48, &opts);
        let mut out = Image::new(96, 48);
        for frame in 0..2 {
            let report = execute_composite_host(
                &EngineSpec::FixedPoint { frac_bits: 12 },
                Interpolator::Bilinear,
                &[&front, &back],
                &plan,
                None,
                None,
                &mut out,
            )
            .expect("fixed composite");
            assert_eq!(report.model.get("plan_miss"), None, "frame {frame}");
            assert_eq!(report.model.get("plan_derive_ms"), None, "frame {frame}");
        }
        for sp in plan.sources() {
            let (lut, derived) = sp.fixed_lazy(12);
            assert!(derived.is_none());
            let compiled = sp.fixed(12).expect("eager LUT");
            assert!(
                std::ptr::eq(&*lut, compiled),
                "the compiled LUT, not a copy"
            );
        }
    }

    #[test]
    fn simt_is_unsupported_for_composites() {
        let rig = CameraRig::symmetric(64, 64, 190.0);
        let plan = pano(&rig, 32, 16);
        let a = Image::<Gray8>::new(64, 64);
        let b = Image::<Gray8>::new(64, 64);
        let mut out = Image::new(32, 16);
        let err = execute_composite_host(
            &EngineSpec::Simt { workgroup: 64 },
            Interpolator::Bilinear,
            &[&a, &b],
            &plan,
            None,
            None,
            &mut out,
        );
        assert!(matches!(err, Err(EngineError::Unsupported { .. })));
    }

    #[test]
    fn composite_digest_tracks_geometry_and_weights() {
        let rig = CameraRig::symmetric(128, 128, 190.0);
        let a = pano(&rig, 64, 32);
        let b = pano(&rig, 64, 32);
        assert_eq!(a.digest(), b.digest(), "same geometry, same digest");
        let wider = CameraRig::symmetric(128, 128, 200.0);
        assert_ne!(a.digest(), pano(&wider, 64, 32).digest());
        assert_ne!(a.digest(), pano(&rig, 64, 34).digest());
        // per-camera cache keys: moving one camera changes only its key
        let opts = PlanOptions::default();
        let moved = rig.with_camera_rotation(1, Mat3::rot_y(1.0));
        let k0: Vec<u64> = rig
            .cameras()
            .iter()
            .map(|c| panorama_camera_digest(c, 64, 32, &opts))
            .collect();
        let k1: Vec<u64> = moved
            .cameras()
            .iter()
            .map(|c| panorama_camera_digest(c, 64, 32, &opts))
            .collect();
        assert_eq!(k0[0], k1[0], "unmoved camera keeps its cache key");
        assert_ne!(k0[1], k1[1], "moved camera gets a new cache key");
    }

    #[test]
    fn stereo_plan_compiles_row_aligned_eyes() {
        let lens = FisheyeLens::equidistant_fov(256, 256, 180.0);
        let rig = StereoRig::side_by_side(lens, 0.1);
        let sp = StereoPlan::compile(&rig, 96, 72, 80.0, 60.0, &PlanOptions::default());
        assert_eq!((sp.left.width(), sp.left.height()), (96, 72));
        assert_eq!((sp.right.width(), sp.right.height()), (96, 72));
        // a pure-translation rig rectifies both eyes through the same
        // map (rays are directions): one cached plan serves both eyes
        assert_eq!(sp.left.digest(), sp.right.digest());
        assert_eq!(
            rectified_camera_digest(&sp.pair, &rig.left, &PlanOptions::default()),
            rectified_camera_digest(&sp.pair, &rig.right, &PlanOptions::default()),
        );
        // a verged (rotated) eye gets its own cache identity
        let mut verged = rig.clone();
        verged.right.cam_to_world = Mat3::rot_y(0.05);
        assert_ne!(
            rectified_camera_digest(&sp.pair, &verged.right, &PlanOptions::default()),
            rectified_camera_digest(&sp.pair, &rig.right, &PlanOptions::default()),
        );
        // the central region must be visible to both eyes
        assert!(sp.left.invalid_pixels() < (96 * 72) / 2);
        assert!(sp.right.invalid_pixels() < (96 * 72) / 2);
    }

    #[test]
    fn fused_post_matches_two_pass_post() {
        use crate::engine::post_pass;
        use crate::post::{DitherSeed, PostChannel, PostStage, ToneMap};
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        // dithered, so the grade depends on the row each walk hands it
        let pp = PostStage::identity()
            .with_tone_map(ToneMap::McFace)
            .with_dither(DitherSeed(7))
            .compile(PostChannel::Luma);
        for spec in [
            EngineSpec::Serial,
            EngineSpec::FixedPoint { frac_bits: 12 },
            EngineSpec::Simd,
        ] {
            let name = spec.name();
            let run = |post, out: &mut Image<Gray8>| {
                execute_composite_host(&spec, Interpolator::Bilinear, &srcs, &plan, post, None, out)
                    .expect("composite")
            };
            let mut fused = Image::new(96, 48);
            let report = run(Some(&pp), &mut fused);
            assert_eq!(report.model.get("fused"), Some(&1.0), "{name}");
            // reference: composite without post, then the two-pass post
            let mut two_pass = Image::new(96, 48);
            let mut plain = run(None, &mut two_pass);
            post_pass(Some(&pp), &mut two_pass, &mut plain);
            assert_eq!(fused, two_pass, "{name}");
        }
    }

    #[test]
    fn smp_fused_post_matches_two_pass_post() {
        // rows graded on pool workers, with dither so the grade
        // depends on the row index each worker is handed
        use crate::post::{DitherSeed, PostChannel, PostStage, ToneMap};
        let (rig, front, back) = rig_and_captures(&RadialGradient, 195.0);
        let plan = pano(&rig, 96, 48);
        let srcs = [&front, &back];
        let stage = PostStage::identity()
            .with_tone_map(ToneMap::McFace)
            .with_dither(DitherSeed(7));
        let pp = stage.compile(PostChannel::Luma);
        let pool = ThreadPool::new(3);
        let smp = EngineSpec::Smp {
            schedule: Schedule::Dynamic { chunk: 2 },
        };
        let mut fused = Image::new(96, 48);
        let report = execute_composite_host(
            &smp,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            Some(&pp),
            Some(&pool),
            &mut fused,
        )
        .expect("fused smp");
        assert_eq!(report.model.get("fused"), Some(&1.0));
        let mut two_pass = compose_two_pass(&srcs, &plan, Interpolator::Bilinear);
        for y in 0..48u32 {
            pp.apply_row(two_pass.row_mut(y), y);
        }
        assert_eq!(fused, two_pass);
    }
}
