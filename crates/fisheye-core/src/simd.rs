//! SIMD-structured correction kernel.
//!
//! The paper's SPE and SSE ports get their speed by restructuring the
//! bilinear inner loop into structure-of-arrays lanes over a
//! memory-bound gather. Stable Rust has no portable-SIMD API, so this
//! module writes that loop over fixed `[_; LANES]` arrays and lets
//! LLVM autovectorize it. One span kernel serves every caller, on
//! byte planes:
//!
//! * Each lane's 2×2 taps are read straight from the source plane
//!   through a 256-entry table of `v as f32 / 255.0`, exactly what
//!   `Gray8::channel_f32` returns. An 8-bit frame is never lifted to a
//!   float image.
//! * [`LANES`] = 8 lanes are computed at a time, and the floor is
//!   done in integers (`floor_i32`). On baseline x86-64 `f32::floor`
//!   is a `floorf` call, and a saturating `fx as i32` compiles to a
//!   scalar `cvttss2si` with NaN and overflow fix-ups per lane; either
//!   keeps LLVM from vectorizing the lane arithmetic. The rounding-bias
//!   floor is plain SSE2 adds, compares and integer subtracts.
//! * Each lane is quantized straight into the output row, with
//!   `Gray8`'s own `from_channels_f32`.
//!
//! The kernel gathers one interior run at a time: the plan's lane
//! span kernel calls `gather_span` with coordinates straight from a
//! plan's SoA planes for each of the plan's interior runs
//! ([`RemapPlan::interior_runs`](crate::plan::RemapPlan::interior_runs))
//! within a valid span or a composite's exclusive run. Every lane's
//! four taps lie inside the source there, and `|fx|`, `|fy|` stay
//! below 2²², where the integer floor is exact, so lanes carry no
//! validity mask, no range check and no clamp, and each lane reads its
//! taps at one index `y0·w + x0`.
//!
//! **Border runs.** A pixel whose taps reach past the source edge, or
//! whose coordinate is not finite or lies beyond 2²², is in a border
//! run. The span kernel sends border runs to the scalar
//! `sample_bilinear`, which clamps each tap, as it does a run's tail
//! shorter than a lane block. The datapath is therefore bit-exact with
//! the scalar reference for every map `RemapMap::from_entries`
//! accepts, not only for maps traced from lens geometry. The walks fill
//! the gaps between valid spans black. Engines report `lanes` =
//! [`LANES`].

// The kernel runs inside serving sessions on every simd frame, single
// and composite; a panic here takes streams down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use pixmap::{Gray8, Image, Pixel};

use crate::interp::sample_bilinear;
use crate::plan::{span_row, Lanes, RemapPlan};

/// Number of lanes processed together.
pub const LANES: usize = 8;

/// Magnitude (2²²) below which [`floor_i32`] is exact; it caps the
/// plan's interior runs.
pub(crate) const FLOOR_EXACT: f32 = 4_194_304.0;

/// 1.5·2²³, the rounding bias of [`floor_i32`].
const ROUND: f32 = 12_582_912.0;

/// `v.floor()` as an integer, for `|v| < 2²²` (see [`FLOOR_EXACT`]).
/// Adding 1.5·2²³ puts the sum in [2²³, 2²⁴), where consecutive `f32`s
/// are 1 apart, so the sum's mantissa holds `v` rounded to the nearest
/// integer; one compare turns that into the floor. The result converts
/// back to `f32` exactly, so `v - floor_i32(v) as f32` is the same
/// weight `v - v.floor()` gives.
#[inline]
fn floor_i32(v: f32) -> i32 {
    let nearest = (v + ROUND).to_bits() as i32 - ROUND.to_bits() as i32;
    nearest - (v < nearest as f32) as i32
}

/// `v as f32 / 255.0` for every byte: the `u8` tap.
static UNIT_U8: [f32; 256] = {
    let mut t = [0.0f32; 256];
    let mut v = 0;
    while v < 256 {
        t[v] = v as f32 / 255.0;
        v += 1;
    }
    t
};

/// Bilinear-correct one frame with the span kernel. Bit-exact with
/// `correct(…, Interpolator::Bilinear, …)`. `src` must have the
/// plan's source dimensions: interior taps are read unclamped.
pub fn correct_bilinear_simd(src: &Image<Gray8>, plan: &RemapPlan) -> Image<Gray8> {
    assert_eq!(
        src.dims(),
        plan.src_dims(),
        "source dimensions must match the plan"
    );
    let mut out = Image::new(plan.width(), plan.height());
    let k = Lanes::new(src, plan);
    for y in 0..plan.height() {
        span_row(plan, &k, y, out.row_mut(y));
    }
    out
}

/// Bilinear-gather one interior run of coordinates into `out`: whole
/// lane blocks through the lane kernel, the tail through
/// `sample_bilinear`. Every coordinate's four taps must lie inside
/// `src` with `|fx|`, `|fy|` below 2²² (the caller walks a plan's
/// interior runs). The plan's lane span kernel calls it, so the
/// engine's and the composite's walks both reach it.
pub(crate) fn gather_span(src: &Image<Gray8>, sx: &[f32], sy: &[f32], out: &mut [Gray8]) {
    debug_assert_eq!(sx.len(), out.len());
    debug_assert_eq!(sy.len(), out.len());
    let taps = Taps {
        data: src.pixels(),
        stride: src.dims().0 as usize,
    };
    let (cx_blocks, cx_tail) = sx.as_chunks::<LANES>();
    let (cy_blocks, cy_tail) = sy.as_chunks::<LANES>();
    let (out_blocks, out_tail) = out.as_chunks_mut::<LANES>();
    for ((o, cx), cy) in out_blocks.iter_mut().zip(cx_blocks).zip(cy_blocks) {
        taps.lane_block(cx, cy, o);
    }
    for ((o, &x), &y) in out_tail.iter_mut().zip(cx_tail).zip(cy_tail) {
        *o = sample_bilinear(src, x, y);
    }
}

/// The source plane as the lane kernel reads it: row-major pixels.
struct Taps<'a> {
    data: &'a [Gray8],
    stride: usize,
}

impl Taps<'_> {
    /// Interpolate one block of [`LANES`] interior coordinates into
    /// `out`, with `sample_bilinear`'s operation order per lane.
    #[inline]
    fn lane_block(&self, cx: &[f32; LANES], cy: &[f32; LANES], out: &mut [Gray8; LANES]) {
        let mut x0 = [0i32; LANES];
        let mut y0 = [0i32; LANES];
        let mut wx = [0f32; LANES];
        let mut wy = [0f32; LANES];
        for i in 0..LANES {
            let fx = cx[i] - 0.5;
            let fy = cy[i] - 0.5;
            x0[i] = floor_i32(fx);
            y0[i] = floor_i32(fy);
            wx[i] = fx - x0[i] as f32;
            wy[i] = fy - y0[i] as f32;
        }
        // the gather itself stays scalar — on an SPE too, which is why
        // the paper's kernels are memory-bound here
        let mut p00 = [0f32; LANES];
        let mut p10 = [0f32; LANES];
        let mut p01 = [0f32; LANES];
        let mut p11 = [0f32; LANES];
        for i in 0..LANES {
            let at = y0[i] as usize * self.stride + x0[i] as usize;
            let (top, bot) = (&self.data[at..][..2], &self.data[at + self.stride..][..2]);
            p00[i] = UNIT_U8[top[0].0 as usize];
            p10[i] = UNIT_U8[top[1].0 as usize];
            p01[i] = UNIT_U8[bot[0].0 as usize];
            p11[i] = UNIT_U8[bot[1].0 as usize];
        }
        for i in 0..LANES {
            let top = p00[i] * (1.0 - wx[i]) + p10[i] * wx[i];
            let bot = p01[i] * (1.0 - wx[i]) + p11[i] * wx[i];
            out[i] = Gray8::from_channels_f32(&[top * (1.0 - wy[i]) + bot * wy[i]]);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::map::RemapMap;
    use crate::plan::PlanOptions;
    use crate::{correct, Interpolator};
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    fn setup(out_w: u32) -> (RemapMap, RemapPlan, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(out_w, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let src = pixmap::scene::random_gray(160, 120, 77);
        (map, plan, src)
    }

    #[test]
    fn bit_exact_vs_scalar() {
        let (map, plan, src) = setup(80);
        for src in [src, pixmap::scene::random_gray(160, 120, 3)] {
            let scalar = correct(&src, &map, Interpolator::Bilinear);
            let simd = correct_bilinear_simd(&src, &plan);
            assert_eq!(scalar, simd);
        }
    }

    #[test]
    fn handles_non_multiple_of_four_width() {
        for w in [77u32, 78, 79, 81] {
            let (map, plan, src) = setup(w);
            let scalar = correct(&src, &map, Interpolator::Bilinear);
            let simd = correct_bilinear_simd(&src, &plan);
            assert_eq!(scalar, simd, "width {w}");
        }
    }

    #[test]
    fn invalid_regions_render_black_without_masking() {
        // narrow lens behind a wide view: the span index excludes the
        // invalid border, so the gather never even sees those pixels
        let lens = FisheyeLens::equidistant_fov(160, 120, 100.0);
        let view = PerspectiveView::centered(80, 60, 160.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        assert!(plan.invalid_pixels() > 0);
        let src = pixmap::Image::filled(160, 120, Gray8(255));
        let out = correct_bilinear_simd(&src, &plan);
        assert_eq!(out.pixel(0, 0), Gray8(0));
        assert_eq!(out.pixel(40, 30), Gray8(255));
        // and it still matches the branchy scalar reference exactly
        assert_eq!(out, correct(&src, &map, Interpolator::Bilinear));
    }

    #[test]
    fn integer_floor_matches_floor_across_its_range() {
        // step through every magnitude class up to the range limit,
        // with the values either side of each integer and half-integer
        let mut v = 0.1f32;
        while v < FLOOR_EXACT {
            for c in [v, v.floor(), v.floor() + 0.5, v.ceil()] {
                for u in [
                    c,
                    c.next_down(),
                    c.next_up(),
                    -c,
                    -c.next_down(),
                    -c.next_up(),
                ] {
                    if u.abs() < FLOOR_EXACT {
                        assert_eq!(floor_i32(u), u.floor() as i32, "{u}");
                        assert_eq!(u - floor_i32(u) as f32, u - u.floor(), "{u}");
                    }
                }
            }
            v *= 1.37;
        }
    }
}
