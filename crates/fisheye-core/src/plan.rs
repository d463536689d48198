//! The compiled remap plan — the explicit **compile** phase between
//! map generation and frame correction.
//!
//! The paper's performance argument rests on the map-gen / correction
//! asymmetry: the LUT changes only when the view changes, so anything
//! derivable from it should be paid once per view, never per frame.
//! Before this module, that derived state (quantized LUTs, tile plans)
//! was recomputed and cached privately inside each engine behind a map
//! fingerprint; the hot gather also branched on NaN validity for every
//! pixel of every frame. [`RemapPlan::compile`] moves all of it into
//! one immutable artifact:
//!
//! * **SoA coordinate planes** — separate `sx`/`sy` `f32` arrays, so
//!   span kernels stream coordinates without loading interleaved
//!   `MapEntry` pairs they immediately split apart.
//! * **Per-row valid spans** — run-length encoding of the contiguous
//!   valid regions of each row. Engines iterate spans and fill the
//!   gaps black, eliminating the per-pixel `is_valid()` branch from
//!   the inner loop (a fisheye map's invalid region is a border, not
//!   salt-and-pepper, so rows have very few spans).
//! * **Per-row interior runs** ([`RemapPlan::interior_runs`]) — the
//!   maximal runs of output pixels whose four bilinear taps all lie
//!   inside the source. With `fx = sx − 0.5` and `fy = sy − 0.5` in
//!   `f32`, as the samplers compute them, a pixel is interior when
//!   `0 ≤ fx < min(w − 1, 2²²)` and `0 ≤ fy < min(h − 1, 2²²)` for a
//!   `w`×`h` source. The rest of each valid span is its border runs.
//!   The `simd` and `fixed` kernels read an interior pixel's taps at
//!   one index `y0·w + x0` with no range check and no clamp, and send
//!   border runs to the scalar samplers. The index stores nothing per
//!   pixel: 8 bytes a run plus 4 a row.
//! * **Prequantized fixed-point LUTs** for every `frac_bits` the
//!   caller requests ([`PlanOptions::frac_bits`]).
//! * **Tile plans** with source footprints for every requested tile
//!   geometry ([`PlanOptions::tiles`]) — what the Cell model DMAs.
//! * The original [`RemapMap`] itself, for consumers that need the
//!   AoS view (the GPU cache model replays entry order; the golden
//!   references `correct` and `correct_fixed` read it, as do
//!   coverage reports).
//!
//! A plan holds no interpolation kernel. Everything above is a
//! function of lens, view and the requested artifact set, while the
//! kernel is per-frame work owned by whichever engine runs the plan,
//! so one plan (and one plan-cache entry) serves nearest, bilinear
//! and bicubic engines alike, and a kernel change never recompiles or
//! re-keys a plan. Tile footprints cover the bilinear taps of the Cell
//! SPE's Q-format sampler ([`TilePlan::build`]).
//!
//! Execution contract: every [`crate::engine::CorrectionEngine`]
//! consumes `&RemapPlan`. Whoever owns the view owns the plan —
//! the facade `Corrector` recompiles on `set_view`, videopipe and the
//! CLI compile once up front — and engines hold **no** derived state
//! of their own. An engine asked for an artifact the plan was not
//! compiled with (a missing `frac_bits` width, a missing tile
//! geometry) derives it on the fly and flags the report with
//! `plan_miss=1`, keeping execution functional while making the
//! compiled path the fast one.
//!
//! Compilation is deterministic: the same map and options produce a
//! byte-identical plan (see [`RemapPlan::digest`]), which is what
//! makes plans safe to share across threads and compare in tests.
//!
//! The module also holds the host datapaths' per-pixel arithmetic:
//! one crate-private span kernel per datapath (the float
//! interpolators, the 8-lane gather, the Q-format sampler), each
//! writing one valid x-range of one output row, and the valid-span
//! row walk that drives them. The single-plan executor and the
//! composite executor's exclusive runs call the same kernels, so each
//! datapath's pixel loop is written once. The engines run all three
//! on byte planes; the float kernel stays generic over [`Pixel`]
//! because the golden reference [`correct_plan`] runs it on every
//! pixel type. The lane and Q-format kernels split every x-range they
//! are handed at the plan's interior runs, so a composite's exclusive
//! run meets the same split as a whole valid span.

// Every serial, smp, simd and fixed frame of every serving session,
// single or composite, runs the span kernels below; a panic here takes
// streams down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::ops::Range;
use std::sync::Arc;

use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::sync::Mutex;
use pixmap::{Gray8, Image, Pixel};

use crate::engine::EngineSpec;
use crate::interp::{
    interior_fixed_gray8, sample_bilinear, sample_bilinear_fixed_gray8, Interpolator,
};
use crate::map::{FixedMapEntry, FixedRemapMap, MapEntry, RemapMap};
use crate::simd::{gather_span, FLOOR_EXACT};
use crate::tile::TilePlan;

/// What [`RemapPlan::compile`] should prederive beyond the SoA planes
/// and valid spans (which are always built): the artifact set. A plan
/// holds no interpolation kernel; the engine that executes it does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanOptions {
    /// Fractional weight widths to prequantize ([`RemapPlan::fixed`]).
    pub frac_bits: Vec<u32>,
    /// Tile geometries `(tile_w, tile_h)` to preplan
    /// ([`RemapPlan::tile_plan`]).
    pub tiles: Vec<(u32, u32)>,
}

impl PlanOptions {
    /// The options one engine spec needs to run without plan misses.
    ///
    /// `_interp` is ignored: no plan artifact depends on the kernel.
    /// The argument stays only until the framebench benchmark's next
    /// change drops it from its two calls; new code calls
    /// [`PlanOptions::for_specs`] with one spec.
    pub fn for_spec(spec: &EngineSpec, _interp: Interpolator) -> PlanOptions {
        PlanOptions::for_specs(std::slice::from_ref(spec))
    }

    /// The union of what several specs need — compile one plan, run
    /// every backend on it.
    pub fn for_specs(specs: &[EngineSpec]) -> PlanOptions {
        let mut opts = PlanOptions::default();
        for spec in specs {
            let caps = spec.capabilities();
            if let Some(frac_bits) = caps.requires_lut {
                opts.frac_bits.push(frac_bits);
            }
            if let Some(tile) = caps.requires_tiles {
                opts.tiles.push(tile);
            }
        }
        opts.frac_bits.sort_unstable();
        opts.frac_bits.dedup();
        opts.tiles.sort_unstable();
        opts.tiles.dedup();
        opts
    }
}

/// Order-sensitive FNV-1a digest of a *plan request* — everything
/// that determines what [`RemapPlan::compile`] would produce: the
/// lens, the view, the source frame dimensions and the
/// [`PlanOptions`]. Unlike [`RemapPlan::digest`] this is computable
/// *before* compiling, which is what a plan cache needs for its key:
/// two sessions asking for the same view hash to the same slot and
/// the map is traced once. Floats are hashed by bit pattern, so any
/// parameter change — however small — changes the digest.
pub fn plan_request_digest(
    lens: &FisheyeLens,
    view: &PerspectiveView,
    src_w: u32,
    src_h: u32,
    opts: &PlanOptions,
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.mix_lens(lens);
    for v in [view.pan, view.tilt, view.roll, view.h_fov] {
        h.mix(v.to_bits());
    }
    h.mix(((view.width as u64) << 32) | view.height as u64);
    h.mix(((src_w as u64) << 32) | src_h as u64);
    h.mix_opts(opts);
    h.0
}

/// FNV-1a accumulator behind [`plan_request_digest`]; implements
/// `Hasher` so `Hash`-deriving types (the lens model enum) can feed it.
/// Crate-visible so the composite layer keys its digests with the
/// same constants and the same lens and option folds.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    #[inline]
    pub(crate) fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a lens: its model, then focal length, principal point and
    /// field angle by bit pattern.
    pub(crate) fn mix_lens(&mut self, lens: &FisheyeLens) {
        use std::hash::Hash;
        lens.model.hash(self);
        for v in [lens.focal_px, lens.cx, lens.cy, lens.max_theta] {
            self.mix(v.to_bits());
        }
    }

    /// Fold plan options: the length-prefixed `frac_bits` and tile
    /// lists.
    pub(crate) fn mix_opts(&mut self, opts: &PlanOptions) {
        self.mix(opts.frac_bits.len() as u64);
        for &b in &opts.frac_bits {
            self.mix(b as u64);
        }
        self.mix(opts.tiles.len() as u64);
        for &(tw, th) in &opts.tiles {
            self.mix(((tw as u64) << 32) | th as u64);
        }
    }
}

impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One contiguous run of output pixels within a row — a valid span or
/// an interior run: `[start, end)` in output-pixel x coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidSpan {
    /// First valid x (inclusive).
    pub start: u32,
    /// One past the last valid x.
    pub end: u32,
}

impl ValidSpan {
    /// Pixels covered.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span is empty (never produced by compilation).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The compiled, immutable execution artifact for one remap map. See
/// the module docs for the compile/execute contract.
///
/// Quantized LUTs and tile plans come in two flavors: the ones the
/// plan was *compiled with* (eagerly materialized per
/// [`PlanOptions`], visible through [`RemapPlan::fixed`] /
/// [`RemapPlan::tile_plan`]) and ones derived *on demand*, memoized so
/// a plan-miss costs one derivation per plan, not one per frame.
/// [`RemapPlan::fixed_lazy`] / [`RemapPlan::tile_plan_lazy`] are the
/// one lookup every consumer makes: the compiled artifact first, the
/// memoized one second. Neither flavor affects [`RemapPlan::digest`]:
/// the digest covers the map and the compile *parameters*, so two
/// plans that differ only in which artifacts happen to be
/// materialized still hash identically.
pub struct RemapPlan {
    map: RemapMap,
    sx: Vec<f32>,
    sy: Vec<f32>,
    spans: RowRuns,
    /// Interior runs ([`RemapPlan::interior_runs`]).
    interior: RowRuns,
    invalid_pixels: u64,
    /// Per-row FNV digest of the map's coordinate bit patterns; what
    /// [`RemapPlan::recompile`] reuses for unchanged rows.
    row_digests: Vec<u64>,
    /// Cached full digest (map rows + compile parameters).
    digest: u64,
    /// Options the plan was compiled with (the eager artifact set);
    /// reused verbatim by [`RemapPlan::recompile`].
    opts: PlanOptions,
    fixed: Vec<Arc<FixedRemapMap>>,
    tiles: Vec<Arc<TilePlan>>,
    /// Lazily derived LUTs/tile plans an engine asked for beyond the
    /// compiled set (plan misses), memoized for subsequent frames.
    fixed_memo: Mutex<Vec<Arc<FixedRemapMap>>>,
    tile_memo: Mutex<Vec<Arc<TilePlan>>>,
}

impl Clone for RemapPlan {
    fn clone(&self) -> Self {
        RemapPlan {
            map: self.map.clone(),
            sx: self.sx.clone(),
            sy: self.sy.clone(),
            spans: self.spans.clone(),
            interior: self.interior.clone(),
            invalid_pixels: self.invalid_pixels,
            row_digests: self.row_digests.clone(),
            digest: self.digest,
            opts: self.opts.clone(),
            fixed: self.fixed.clone(),
            tiles: self.tiles.clone(),
            fixed_memo: Mutex::new(self.fixed_memo.lock().clone()),
            tile_memo: Mutex::new(self.tile_memo.lock().clone()),
        }
    }
}

impl std::fmt::Debug for RemapPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemapPlan")
            .field("width", &self.width())
            .field("height", &self.height())
            .field("src_dims", &self.src_dims())
            .field("span_count", &self.span_count())
            .field("invalid_pixels", &self.invalid_pixels)
            .field("digest", &self.digest)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// Per-row x-ranges: `offsets[y]..offsets[y + 1]` indexes `runs` for
/// row `y`. Holds a plan's valid spans and its interior runs.
#[derive(Clone)]
struct RowRuns {
    runs: Vec<ValidSpan>,
    offsets: Vec<u32>,
}

impl RowRuns {
    fn with_rows(h: usize) -> RowRuns {
        let mut offsets = Vec::with_capacity(h + 1);
        offsets.push(0);
        RowRuns {
            runs: Vec::new(),
            offsets,
        }
    }

    /// Close the row being appended.
    fn end_row(&mut self) {
        self.offsets.push(self.runs.len() as u32);
    }

    /// Append row `y` of `other` as the next row.
    fn push_row_of(&mut self, other: &RowRuns, y: u32) {
        self.runs.extend_from_slice(other.row(y));
        self.end_row();
    }

    #[inline]
    fn row(&self, y: u32) -> &[ValidSpan] {
        let a = self.offsets[y as usize] as usize;
        let b = self.offsets[y as usize + 1] as usize;
        &self.runs[a..b]
    }

    fn bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<ValidSpan>() + self.offsets.len() * 4
    }

    /// Split output pixels `x0 .. x0 + len` of row `y` at the row's
    /// runs: `f(r, inside)` for each non-empty piece, left to right,
    /// with `r` relative to `x0` and `inside` telling whether the
    /// piece lies in a run.
    #[inline]
    fn split(&self, y: u32, x0: usize, len: usize, mut f: impl FnMut(Range<usize>, bool)) {
        let end = x0 + len;
        let mut at = x0;
        for run in self.row(y) {
            let (start, stop) = (run.start as usize, run.end as usize);
            if start >= end {
                break;
            }
            if stop <= at {
                continue;
            }
            let (a, b) = (start.max(at), stop.min(end));
            if a > at {
                f(at - x0..a - x0, false);
            }
            f(a - x0..b - x0, true);
            at = b;
        }
        if at < end {
            f(at - x0..end - x0, false);
        }
    }
}

/// Append the maximal runs of `row` entries that satisfy `keep` to
/// `out`; returns how many entries they cover.
fn push_runs(row: &[MapEntry], keep: impl Fn(&MapEntry) -> bool, out: &mut Vec<ValidSpan>) -> u64 {
    let mut covered = 0u64;
    let mut x = 0usize;
    while x < row.len() {
        if !keep(&row[x]) {
            x += 1;
            continue;
        }
        let start = x;
        while x < row.len() && keep(&row[x]) {
            x += 1;
        }
        out.push(ValidSpan {
            start: start as u32,
            end: x as u32,
        });
        covered += (x - start) as u64;
    }
    covered
}

/// The exclusive bounds `(xlim, ylim)` an interior pixel's
/// `fx = sx − 0.5` and `fy = sy − 0.5` stay below over a `sw`×`sh`
/// source: `min(n − 1, 2²²)` per axis. Below `n − 1` the corner and its
/// right/lower neighbour are both inside the source; below 2²² the lane
/// kernel's integer floor is exact.
fn interior_limits((sw, sh): (u32, u32)) -> (f32, f32) {
    let lim = |n: u32| (n.saturating_sub(1) as f32).min(FLOOR_EXACT);
    (lim(sw), lim(sh))
}

/// Scan one map row: append its valid spans and its interior runs
/// (taps inside a source whose [`interior_limits`] are `lim`) and
/// return `(invalid pixels, row digest)`. The digest covers every
/// coordinate's bit pattern, so it distinguishes NaN-invalid entries
/// and any sub-ulp coordinate change.
fn scan_row(
    row: &[MapEntry],
    (xlim, ylim): (f32, f32),
    spans: &mut RowRuns,
    interior: &mut RowRuns,
) -> (u64, u64) {
    let valid = push_runs(row, MapEntry::is_valid, &mut spans.runs);
    push_runs(
        row,
        |e| {
            let (fx, fy) = (e.sx - 0.5, e.sy - 0.5);
            fx >= 0.0 && fx < xlim && fy >= 0.0 && fy < ylim
        },
        &mut interior.runs,
    );
    spans.end_row();
    interior.end_row();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in row {
        h.mix(((e.sx.to_bits() as u64) << 32) | e.sy.to_bits() as u64);
    }
    (row.len() as u64 - valid, h.0)
}

/// Whether two map rows are bit-identical (NaN-aware: invalid entries
/// with the same bit pattern compare equal, unlike `f32` equality).
fn rows_bit_equal(a: &[MapEntry], b: &[MapEntry]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.sx.to_bits() == y.sx.to_bits() && x.sy.to_bits() == y.sy.to_bits())
}

impl RemapPlan {
    /// Compile `map` into an execution plan. Always builds the SoA
    /// planes, the valid-span index and the interior-run index;
    /// additionally prequantizes one fixed-point LUT per requested
    /// `frac_bits` and one tile plan per requested geometry.
    ///
    /// Deterministic: the same map and options yield a byte-identical
    /// plan (same [`RemapPlan::digest`]).
    pub fn compile(map: &RemapMap, opts: PlanOptions) -> RemapPlan {
        Self::build_plan(map.clone(), opts, true)
    }

    /// Shared constructor behind [`RemapPlan::compile`] (eager) and
    /// the dimension-mismatch path of [`RemapPlan::recompile`] (lazy:
    /// LUTs and tile plans are left to on-demand derivation).
    fn build_plan(map: RemapMap, opts: PlanOptions, eager: bool) -> RemapPlan {
        let entries = map.entries();
        let mut sx = Vec::with_capacity(entries.len());
        let mut sy = Vec::with_capacity(entries.len());
        let w = map.width() as usize;
        let h = map.height() as usize;
        let lim = interior_limits(map.src_dims());
        let mut spans = RowRuns::with_rows(h);
        let mut interior = RowRuns::with_rows(h);
        let mut row_digests = Vec::with_capacity(h);
        let mut invalid = 0u64;
        // one streaming pass: each row is split into the SoA planes
        // and scanned while it is still hot in cache
        for y in 0..h {
            let row = &entries[y * w..][..w];
            sx.extend(row.iter().map(|e| e.sx));
            sy.extend(row.iter().map(|e| e.sy));
            let (inv, rd) = scan_row(row, lim, &mut spans, &mut interior);
            invalid += inv;
            row_digests.push(rd);
        }
        let (fixed, tiles) = if eager {
            (
                opts.frac_bits
                    .iter()
                    .map(|&b| Arc::new(map.to_fixed(b)))
                    .collect(),
                opts.tiles
                    .iter()
                    .map(|&(tw, th)| Arc::new(TilePlan::build(&map, tw, th)))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let digest = Self::digest_of(&map, &row_digests, invalid, &opts);
        RemapPlan {
            map,
            sx,
            sy,
            spans,
            interior,
            invalid_pixels: invalid,
            row_digests,
            digest,
            opts,
            fixed,
            tiles,
            fixed_memo: Mutex::new(Vec::new()),
            tile_memo: Mutex::new(Vec::new()),
        }
    }

    /// Recompile this plan for a new map of the same view geometry —
    /// the cheap path behind an interactive view change.
    ///
    /// Rows whose coordinates are bit-identical to the previous map
    /// reuse their valid spans, interior runs and row digest; changed
    /// rows are rescanned. Quantized LUTs and tile plans are *not*
    /// eagerly rebuilt — a backend that needs one derives and memoizes
    /// it on first use (reported as a plan miss). The result is
    /// bit-exact against `RemapPlan::compile(&map, self.opts())` —
    /// same coordinates, spans, interior runs, lazily-derived
    /// artifacts and [`RemapPlan::digest`] — so a digest-keyed cache
    /// can never confuse delta-compiled and cold-compiled plans.
    pub fn recompile(&self, map: RemapMap) -> RemapPlan {
        if map.width() != self.width()
            || map.height() != self.height()
            || map.src_dims() != self.src_dims()
        {
            return Self::build_plan(map, self.opts.clone(), false);
        }
        let entries = map.entries();
        let old = self.map.entries();
        let mut sx = Vec::with_capacity(entries.len());
        let mut sy = Vec::with_capacity(entries.len());
        let w = map.width() as usize;
        let h = map.height() as usize;
        let lim = interior_limits(map.src_dims());
        let mut spans = RowRuns::with_rows(h);
        spans.runs.reserve(self.spans.runs.len());
        let mut interior = RowRuns::with_rows(h);
        interior.runs.reserve(self.interior.runs.len());
        let mut row_digests = Vec::with_capacity(h);
        let mut invalid = 0u64;
        // same single-pass row loop as `build_plan`, plus the reuse
        // check against the previous map while the row is cache-hot
        for y in 0..h {
            let row = &entries[y * w..][..w];
            sx.extend(row.iter().map(|e| e.sx));
            sy.extend(row.iter().map(|e| e.sy));
            if rows_bit_equal(row, &old[y * w..][..w]) {
                let reused = self.spans.row(y as u32);
                invalid += w as u64 - reused.iter().map(|s| s.len() as u64).sum::<u64>();
                spans.push_row_of(&self.spans, y as u32);
                interior.push_row_of(&self.interior, y as u32);
                row_digests.push(self.row_digests[y]);
            } else {
                let (inv, rd) = scan_row(row, lim, &mut spans, &mut interior);
                invalid += inv;
                row_digests.push(rd);
            }
        }
        let digest = Self::digest_of(&map, &row_digests, invalid, &self.opts);
        RemapPlan {
            map,
            sx,
            sy,
            spans,
            interior,
            invalid_pixels: invalid,
            row_digests,
            digest,
            opts: self.opts.clone(),
            fixed: Vec::new(),
            tiles: Vec::new(),
            fixed_memo: Mutex::new(Vec::new()),
            tile_memo: Mutex::new(Vec::new()),
        }
    }

    /// Whether this plan may seed [`RemapPlan::recompile`] toward a
    /// plan compiled with `opts` that renders `out` from `src` (both
    /// `(w, h)`): it must have been compiled with exactly `opts` and
    /// have those output and source dimensions. Every view change that
    /// can delta-recompile — the facade's `Corrector::set_view` and the
    /// serving layer's plan cache — asks this and compiles cold on
    /// `false`.
    pub fn can_seed(&self, opts: &PlanOptions, out: (u32, u32), src: (u32, u32)) -> bool {
        self.opts == *opts && (self.width(), self.height()) == out && self.src_dims() == src
    }

    /// Output width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.map.width()
    }

    /// Output height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.map.height()
    }

    /// Source frame dimensions the plan was compiled for.
    #[inline]
    pub fn src_dims(&self) -> (u32, u32) {
        self.map.src_dims()
    }

    /// The AoS map the plan was compiled from.
    #[inline]
    pub fn map(&self) -> &RemapMap {
        &self.map
    }

    /// Row `y` of the SoA x-coordinate plane.
    #[inline]
    pub fn row_sx(&self, y: u32) -> &[f32] {
        let w = self.map.width() as usize;
        &self.sx[(y as usize) * w..][..w]
    }

    /// Row `y` of the SoA y-coordinate plane.
    #[inline]
    pub fn row_sy(&self, y: u32) -> &[f32] {
        let w = self.map.width() as usize;
        &self.sy[(y as usize) * w..][..w]
    }

    /// Valid spans of row `y`, left to right.
    #[inline]
    pub fn spans(&self, y: u32) -> &[ValidSpan] {
        self.spans.row(y)
    }

    /// Total number of valid spans across all rows.
    pub fn span_count(&self) -> usize {
        self.spans.runs.len()
    }

    /// Interior runs of row `y`, left to right: the maximal runs of
    /// output pixels whose four bilinear taps all lie inside the
    /// source (see the module docs for the exact predicate). Each lies
    /// inside one valid span; the rest of every span is its border
    /// runs, which the `simd` and `fixed` kernels send to the scalar
    /// samplers.
    #[inline]
    pub fn interior_runs(&self, y: u32) -> &[ValidSpan] {
        self.interior.row(y)
    }

    /// Output pixels with no valid source mapping (precomputed at
    /// compile time — engines report it without rescanning the map).
    #[inline]
    pub fn invalid_pixels(&self) -> u64 {
        self.invalid_pixels
    }

    /// The prequantized LUT for `frac_bits`, if one was requested at
    /// compile time.
    pub fn fixed(&self, frac_bits: u32) -> Option<&FixedRemapMap> {
        self.fixed
            .iter()
            .find(|f| f.frac_bits() == frac_bits)
            .map(|f| &**f)
    }

    /// All prequantized LUTs, in ascending `frac_bits` order.
    pub fn fixed_luts(&self) -> &[Arc<FixedRemapMap>] {
        &self.fixed
    }

    /// The precomputed tile plan for `(tile_w, tile_h)`, if one was
    /// requested at compile time.
    pub fn tile_plan(&self, tile_w: u32, tile_h: u32) -> Option<&TilePlan> {
        self.tiles
            .iter()
            .find(|t| t.tile_dims() == (tile_w, tile_h))
            .map(|t| &**t)
    }

    /// Total plan size in bytes (map + SoA planes + span and
    /// interior-run indices + quantized LUTs, compiled or derived on
    /// first use); what a view change costs in memory. Grows when
    /// [`RemapPlan::fixed_lazy`] derives a LUT.
    pub fn bytes(&self) -> usize {
        let memo = self.fixed_memo.lock();
        self.map.bytes()
            + self.sx.len() * 4
            + self.sy.len() * 4
            + self.spans.bytes()
            + self.interior.bytes()
            + self
                .fixed
                .iter()
                .chain(memo.iter())
                .map(|f| f.bytes())
                .sum::<usize>()
    }

    /// The options the plan was compiled with (the eager artifact
    /// set). [`RemapPlan::recompile`] carries these forward.
    #[inline]
    pub fn opts(&self) -> &PlanOptions {
        &self.opts
    }

    /// The quantized LUT for `frac_bits`: the one the plan was compiled
    /// with if there is one, else one derived on first use and
    /// memoized — the plan-miss path. Returns the LUT plus
    /// `Some(milliseconds)` if this call materialized it (`None` =
    /// compiled or memoized; later frames pay nothing). Every consumer
    /// looks LUTs up here, so none requantizes a width the plan holds.
    pub fn fixed_lazy(&self, frac_bits: u32) -> (Arc<FixedRemapMap>, Option<f64>) {
        if let Some(f) = self.fixed.iter().find(|f| f.frac_bits() == frac_bits) {
            return (Arc::clone(f), None);
        }
        let mut memo = self.fixed_memo.lock();
        if let Some(f) = memo.iter().find(|f| f.frac_bits() == frac_bits) {
            return (Arc::clone(f), None);
        }
        let t0 = std::time::Instant::now();
        let f = Arc::new(self.map.to_fixed(frac_bits));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        memo.push(Arc::clone(&f));
        (f, Some(ms))
    }

    /// The tile plan for a geometry: the compiled one first, else one
    /// derived on first use and memoized, like
    /// [`RemapPlan::fixed_lazy`].
    pub fn tile_plan_lazy(&self, tile_w: u32, tile_h: u32) -> (Arc<TilePlan>, Option<f64>) {
        if let Some(t) = self
            .tiles
            .iter()
            .find(|t| t.tile_dims() == (tile_w, tile_h))
        {
            return (Arc::clone(t), None);
        }
        let mut memo = self.tile_memo.lock();
        if let Some(t) = memo.iter().find(|t| t.tile_dims() == (tile_w, tile_h)) {
            return (Arc::clone(t), None);
        }
        let t0 = std::time::Instant::now();
        let t = Arc::new(TilePlan::build(&self.map, tile_w, tile_h));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        memo.push(Arc::clone(&t));
        (t, Some(ms))
    }

    /// Order-sensitive FNV-1a digest of the plan's *content*: the map
    /// dimensions, every coordinate bit pattern (via per-row digests)
    /// and the compile parameters (eager `frac_bits` set, tile
    /// geometries). Cached at compile time — reading it is free.
    ///
    /// Two compilations of the same map with the same options produce
    /// the same digest — including a [`RemapPlan::recompile`] against
    /// a cold compile — while plans differing in quantization or tile
    /// parameters never collide. Artifacts materialized lazily after
    /// compilation deliberately do **not** affect the digest: they
    /// are pure functions of state already covered by it. (A derived
    /// `PartialEq` would be wrong here: NaN coordinates of invalid
    /// entries compare unequal to themselves.)
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Compute the digest stored by every constructor. Folds in the
    /// parameters of every *derivable* artifact (quantization widths,
    /// tile geometries) rather than the artifact bytes, so
    /// materialization state cannot affect the hash.
    fn digest_of(map: &RemapMap, row_digests: &[u64], invalid: u64, opts: &PlanOptions) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.mix(map.width() as u64);
        h.mix(map.height() as u64);
        let (sw, sh) = map.src_dims();
        h.mix(sw as u64);
        h.mix(sh as u64);
        for &rd in row_digests {
            h.mix(rd);
        }
        h.mix(invalid);
        h.mix_opts(opts);
        h.0
    }
}

// ---------------------------------------------------------------------
// Span kernels and the valid-span walk
// ---------------------------------------------------------------------

/// One datapath's per-pixel arithmetic, bound to one source frame and
/// the coordinates it reads. There is one kernel per datapath — the
/// float interpolators ([`Float`]), the 8-lane gather ([`Lanes`]) and
/// the Q-format sampler ([`Fixed`]) — and exactly two walks drive
/// them: [`span_row`] over a plan's valid spans, and the composite
/// executor's segment walk, whose exclusive runs call the same
/// [`SpanKernel::span`].
pub(crate) trait SpanKernel<P>: Sync {
    /// Write output pixels `x0 .. x0 + out.len()` of row `y`, all
    /// inside one valid span.
    fn span(&self, y: u32, x0: usize, out: &mut [P]);

    /// Output pixel `i` (row-major over the output surface) alone: one
    /// source's sample in a blend run.
    fn sample(&self, i: usize) -> P;
}

/// A plan's SoA coordinate planes as the float and lane kernels read
/// them: held directly, so a blend sample is one index per plane.
struct Coords<'a> {
    sx: &'a [f32],
    sy: &'a [f32],
    width: usize,
}

impl<'a> Coords<'a> {
    fn of(plan: &'a RemapPlan) -> Coords<'a> {
        Coords {
            sx: &plan.sx,
            sy: &plan.sy,
            width: plan.width() as usize,
        }
    }

    /// The coordinates of output pixels `x0 .. x0 + len` of row `y`.
    #[inline]
    fn span(&self, y: u32, x0: usize, len: usize) -> (&'a [f32], &'a [f32]) {
        let at = y as usize * self.width + x0;
        (&self.sx[at..at + len], &self.sy[at..at + len])
    }
}

/// The float datapath: the interpolator `f` at the plan's coordinates.
/// `f` is a sampler function (bound by [`with_sampler!`]), so each
/// kernel is monomorphized for one interpolator.
pub(crate) struct Float<'a, P: Pixel, F> {
    src: &'a Image<P>,
    xy: Coords<'a>,
    f: F,
}

impl<'a, P: Pixel, F> Float<'a, P, F> {
    pub(crate) fn new(src: &'a Image<P>, plan: &'a RemapPlan, f: F) -> Self {
        let xy = Coords::of(plan);
        Float { src, xy, f }
    }
}

impl<P: Pixel, F: Fn(&Image<P>, f32, f32) -> P + Sync> SpanKernel<P> for Float<'_, P, F> {
    #[inline]
    fn span(&self, y: u32, x0: usize, out: &mut [P]) {
        let (sx, sy) = self.xy.span(y, x0, out.len());
        for ((x, yy), o) in sx.iter().zip(sy).zip(out) {
            *o = (self.f)(self.src, *x, *yy);
        }
    }

    #[inline]
    fn sample(&self, i: usize) -> P {
        (self.f)(self.src, self.xy.sx[i], self.xy.sy[i])
    }
}

/// Evaluate `$body` with `$f` bound to the sampler of interpolator
/// `$interp`: one expansion per interpolator, so the float kernel
/// built in `$body` is monomorphized and no pixel loop matches on it.
macro_rules! with_sampler {
    ($interp:expr, $f:ident => $body:expr) => {
        match $interp {
            $crate::interp::Interpolator::Nearest => {
                let $f = $crate::interp::sample_nearest;
                $body
            }
            $crate::interp::Interpolator::Bilinear => {
                let $f = $crate::interp::sample_bilinear;
                $body
            }
            $crate::interp::Interpolator::Bicubic => {
                let $f = $crate::interp::sample_bicubic;
                $body
            }
        }
    };
}
pub(crate) use with_sampler;

/// The `simd` datapath on byte planes: [`gather_span`] (the 8-lane
/// gather) over the interior runs of a span, `sample_bilinear` over its
/// border runs and over a lone pixel — the same arithmetic one lane
/// computes.
pub(crate) struct Lanes<'a> {
    src: &'a Image<Gray8>,
    xy: Coords<'a>,
    interior: &'a RowRuns,
}

impl<'a> Lanes<'a> {
    pub(crate) fn new(src: &'a Image<Gray8>, plan: &'a RemapPlan) -> Self {
        let xy = Coords::of(plan);
        Lanes {
            src,
            xy,
            interior: &plan.interior,
        }
    }
}

impl SpanKernel<Gray8> for Lanes<'_> {
    #[inline]
    fn span(&self, y: u32, x0: usize, out: &mut [Gray8]) {
        let (sx, sy) = self.xy.span(y, x0, out.len());
        self.interior.split(y, x0, out.len(), |r, interior| {
            let (sx, sy, out) = (&sx[r.clone()], &sy[r.clone()], &mut out[r]);
            if interior {
                gather_span(self.src, sx, sy, out);
            } else {
                for ((o, &x), &y) in out.iter_mut().zip(sx).zip(sy) {
                    *o = sample_bilinear(self.src, x, y);
                }
            }
        });
    }

    #[inline]
    fn sample(&self, i: usize) -> Gray8 {
        sample_bilinear(self.src, self.xy.sx[i], self.xy.sy[i])
    }
}

/// The `fixed` datapath on byte planes: the Q-format sampler over a
/// quantized LUT of the plan's map. An interior run's taps all lie
/// inside the source and are read with no clamp
/// ([`interior_fixed_gray8`]); a border run, and a lone pixel, go
/// through the clamping [`sample_bilinear_fixed_gray8`]. A valid span
/// holds only valid entries, so the kernel reads no per-pixel
/// validity, and the LUT's weight width is read once, when the kernel
/// is built.
pub(crate) struct Fixed<'a> {
    src: &'a Image<Gray8>,
    lut: &'a FixedRemapMap,
    frac_bits: u32,
    interior: &'a RowRuns,
}

impl<'a> Fixed<'a> {
    /// `lut` must be quantized from `plan`'s map
    /// ([`RemapPlan::fixed_lazy`]).
    pub(crate) fn new(src: &'a Image<Gray8>, plan: &'a RemapPlan, lut: &'a FixedRemapMap) -> Self {
        Fixed {
            src,
            lut,
            frac_bits: lut.frac_bits(),
            interior: &plan.interior,
        }
    }

    #[inline]
    fn border(&self, e: &FixedMapEntry) -> Gray8 {
        sample_bilinear_fixed_gray8(self.src, e.x0, e.y0, e.wx, e.wy, self.frac_bits)
    }
}

impl SpanKernel<Gray8> for Fixed<'_> {
    #[inline]
    fn span(&self, y: u32, x0: usize, out: &mut [Gray8]) {
        let lut = &self.lut.row(y)[x0..x0 + out.len()];
        self.interior.split(y, x0, out.len(), |r, interior| {
            let (lut, out) = (&lut[r.clone()], &mut out[r]);
            if interior {
                interior_fixed_gray8(self.src, lut, self.frac_bits, out);
            } else {
                for (e, o) in lut.iter().zip(out) {
                    *o = self.border(e);
                }
            }
        });
    }

    #[inline]
    fn sample(&self, i: usize) -> Gray8 {
        self.border(&self.lut.entries()[i])
    }
}

/// The valid-span row walk every single-plan path runs: gaps between
/// row `y`'s spans fill black and each span goes through `k`, so no
/// pixel loop branches on validity.
#[inline]
pub(crate) fn span_row<P: Pixel>(
    plan: &RemapPlan,
    k: &impl SpanKernel<P>,
    y: u32,
    out_row: &mut [P],
) {
    let mut cursor = 0usize;
    for s in plan.spans(y) {
        let r = s.start as usize..s.end as usize;
        out_row[cursor..r.start].fill(P::BLACK);
        k.span(y, r.start, &mut out_row[r.clone()]);
        cursor = r.end;
    }
    out_row[cursor..].fill(P::BLACK);
}

/// Correct one output row through the plan's span index: gaps between
/// spans render black, spans sample without any validity branch.
/// Bit-exact with [`crate::correct::correct_row`] on the same map.
#[inline]
pub fn correct_plan_row<P: Pixel>(
    src: &Image<P>,
    plan: &RemapPlan,
    y: u32,
    interp: Interpolator,
    out_row: &mut [P],
) {
    debug_assert_eq!(out_row.len(), plan.width() as usize);
    with_sampler!(interp, f => span_row(plan, &Float::new(src, plan, f), y, out_row));
}

/// Serial span-based correction into a pre-allocated output image.
/// Bit-exact with [`crate::correct::correct_into`].
pub fn correct_plan_into<P: Pixel>(
    src: &Image<P>,
    plan: &RemapPlan,
    interp: Interpolator,
    out: &mut Image<P>,
) {
    assert_eq!(
        out.dims(),
        (plan.width(), plan.height()),
        "output dimensions must match the plan"
    );
    assert_eq!(
        src.dims(),
        plan.src_dims(),
        "source dimensions must match the plan"
    );
    for y in 0..plan.height() {
        correct_plan_row(src, plan, y, interp, out.row_mut(y));
    }
}

/// Serial span-based correction, allocating the output.
pub fn correct_plan<P: Pixel>(src: &Image<P>, plan: &RemapPlan, interp: Interpolator) -> Image<P> {
    let mut out = Image::new(plan.width(), plan.height());
    correct_plan_into(src, plan, interp, &mut out);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::correct::{correct, correct_fixed};
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::scene::random_gray;

    fn setup(fov_lens: f64, fov_view: f64) -> (RemapMap, Image<pixmap::Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, fov_lens);
        let view = PerspectiveView::centered(80, 60, fov_view);
        let map = RemapMap::build(&lens, &view, 160, 120);
        (map, random_gray(160, 120, 17))
    }

    #[test]
    fn full_coverage_map_compiles_to_one_span_per_row() {
        let (map, _) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        assert_eq!(plan.span_count(), 60);
        for y in 0..60 {
            assert_eq!(plan.spans(y), &[ValidSpan { start: 0, end: 80 }]);
        }
        assert_eq!(plan.invalid_pixels(), 0);
    }

    #[test]
    fn border_invalid_map_spans_cover_exactly_the_valid_pixels() {
        let (map, _) = setup(120.0, 140.0);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let mut covered = 0u64;
        for y in 0..map.height() {
            for s in plan.spans(y) {
                assert!(!s.is_empty());
                covered += s.len() as u64;
                for x in s.start..s.end {
                    assert!(map.entry(x, y).is_valid(), "({x},{y}) inside span");
                }
            }
        }
        let valid = map.entries().iter().filter(|e| e.is_valid()).count() as u64;
        assert_eq!(covered, valid);
        assert_eq!(
            plan.invalid_pixels(),
            map.entries().len() as u64 - valid,
            "invalid count is the complement of span coverage"
        );
    }

    #[test]
    fn span_execution_bit_exact_with_correct() {
        for (lens_fov, view_fov) in [(180.0, 90.0), (120.0, 140.0)] {
            let (map, src) = setup(lens_fov, view_fov);
            let plan = RemapPlan::compile(&map, PlanOptions::default());
            for interp in Interpolator::ALL {
                let reference = correct(&src, &map, interp);
                let via_plan = correct_plan(&src, &plan, interp);
                assert_eq!(reference, via_plan, "{}", interp.name());
            }
        }
    }

    #[test]
    fn prequantized_luts_match_direct_quantization() {
        let (map, src) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(
            &map,
            PlanOptions {
                frac_bits: vec![8, 12],
                ..Default::default()
            },
        );
        assert!(plan.fixed(10).is_none(), "unrequested width absent");
        for bits in [8u32, 12] {
            let f = plan.fixed(bits).expect("requested width present");
            assert_eq!(f.frac_bits(), bits);
            assert_eq!(
                correct_fixed(&src, f),
                correct_fixed(&src, &map.to_fixed(bits))
            );
        }
        assert_eq!(plan.fixed_luts().len(), 2);
    }

    #[test]
    fn tile_plans_match_direct_builds() {
        let (map, _) = setup(180.0, 90.0);
        let plan = RemapPlan::compile(
            &map,
            PlanOptions {
                tiles: vec![(32, 16)],
                ..Default::default()
            },
        );
        assert!(plan.tile_plan(8, 8).is_none());
        let t = plan.tile_plan(32, 16).unwrap();
        let direct = TilePlan::build(&map, 32, 16);
        assert_eq!(t.jobs, direct.jobs);
    }

    #[test]
    fn options_for_specs_union_and_dedup() {
        let specs = [
            EngineSpec::Serial,
            EngineSpec::FixedPoint { frac_bits: 12 },
            EngineSpec::Cell {
                tile_w: 32,
                tile_h: 16,
                double_buffer: true,
                frac_bits: 12,
            },
            EngineSpec::Cell {
                tile_w: 32,
                tile_h: 16,
                double_buffer: false,
                frac_bits: 8,
            },
        ];
        let opts = PlanOptions::for_specs(&specs);
        assert_eq!(opts.frac_bits, vec![8, 12]);
        assert_eq!(opts.tiles, vec![(32, 16)]);
    }

    #[test]
    fn compilation_is_deterministic() {
        let (map, _) = setup(120.0, 140.0);
        let opts = PlanOptions {
            frac_bits: vec![12],
            tiles: vec![(32, 16)],
        };
        let a = RemapPlan::compile(&map, opts.clone());
        let b = RemapPlan::compile(&map, opts);
        assert_eq!(a.digest(), b.digest());
        // and the digest does distinguish different maps
        let (map2, _) = setup(180.0, 90.0);
        let c = RemapPlan::compile(&map2, PlanOptions::default());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn plan_bytes_cover_all_artifacts() {
        let (map, _) = setup(180.0, 90.0);
        let bare = RemapPlan::compile(&map, PlanOptions::default());
        let loaded = RemapPlan::compile(
            &map,
            PlanOptions {
                frac_bits: vec![12],
                ..Default::default()
            },
        );
        assert!(loaded.bytes() > bare.bytes());
        assert!(bare.bytes() > map.bytes());
    }

    #[test]
    fn request_digest_is_deterministic_and_parameter_sensitive() {
        let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
        let view = PerspectiveView::centered(32, 24, 90.0);
        let opts = PlanOptions::default();
        let base = plan_request_digest(&lens, &view, 64, 48, &opts);
        assert_eq!(base, plan_request_digest(&lens, &view, 64, 48, &opts));

        let mut panned = view;
        panned.pan += 1e-9; // any bit flip must re-key
        assert_ne!(base, plan_request_digest(&lens, &panned, 64, 48, &opts));
        assert_ne!(base, plan_request_digest(&lens, &view, 65, 48, &opts));
        let loaded = PlanOptions {
            frac_bits: vec![12],
            ..Default::default()
        };
        assert_ne!(base, plan_request_digest(&lens, &view, 64, 48, &loaded));
    }
}
