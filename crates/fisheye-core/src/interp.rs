//! Pixel interpolation — the inner loop of phase 2.
//!
//! Coordinates follow the half-integer pixel-center convention: the
//! center of texel `(i, j)` is at `(i + 0.5, j + 0.5)`. Samples outside
//! the image clamp to the border (replicate padding), matching the
//! hardware line-buffer behaviour modeled in `streamsim`.

use pixmap::{Gray8, Image, Pixel};

use crate::map::FixedMapEntry;

/// The interpolation kernels the paper's implementations choose from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Interpolator {
    /// 1 tap — cheapest, visibly blocky on edges.
    Nearest,
    /// 4 taps — the paper's production choice (quality/cost knee).
    Bilinear,
    /// 16 taps, Catmull–Rom — sharper, ~4× the gather cost.
    Bicubic,
}

impl Interpolator {
    /// All kernels, for sweeps.
    pub const ALL: [Interpolator; 3] = [
        Interpolator::Nearest,
        Interpolator::Bilinear,
        Interpolator::Bicubic,
    ];

    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            Interpolator::Nearest => "nearest",
            Interpolator::Bilinear => "bilinear",
            Interpolator::Bicubic => "bicubic",
        }
    }

    /// Source taps gathered per output pixel.
    pub fn taps(self) -> u32 {
        match self {
            Interpolator::Nearest => 1,
            Interpolator::Bilinear => 4,
            Interpolator::Bicubic => 16,
        }
    }

    /// Margin of extra source pixels needed around a footprint.
    pub fn margin(self) -> u32 {
        match self {
            Interpolator::Nearest => 1,
            Interpolator::Bilinear => 1,
            Interpolator::Bicubic => 2,
        }
    }

    /// Sample `img` at `(sx, sy)` with this kernel.
    #[inline]
    pub fn sample<P: Pixel>(self, img: &Image<P>, sx: f32, sy: f32) -> P {
        match self {
            Interpolator::Nearest => sample_nearest(img, sx, sy),
            Interpolator::Bilinear => sample_bilinear(img, sx, sy),
            Interpolator::Bicubic => sample_bicubic(img, sx, sy),
        }
    }
}

/// Nearest-neighbour sample.
#[inline]
pub fn sample_nearest<P: Pixel>(img: &Image<P>, sx: f32, sy: f32) -> P {
    img.pixel_clamped(sx.floor() as i64, sy.floor() as i64)
}

/// Bilinear sample over the 2×2 neighbourhood.
#[inline]
pub fn sample_bilinear<P: Pixel>(img: &Image<P>, sx: f32, sy: f32) -> P {
    let fx = sx - 0.5;
    let fy = sy - 0.5;
    let x0 = fx.floor();
    let y0 = fy.floor();
    let wx = fx - x0;
    let wy = fy - y0;
    // the casts saturate for huge or infinite coordinates, so the tap
    // offsets must too; the clamp then lands them on the border
    let x0 = x0 as i64;
    let y0 = y0 as i64;
    let (x1, y1) = (x0.saturating_add(1), y0.saturating_add(1));
    let p00 = img.pixel_clamped(x0, y0);
    let p10 = img.pixel_clamped(x1, y0);
    let p01 = img.pixel_clamped(x0, y1);
    let p11 = img.pixel_clamped(x1, y1);
    let mut ch = [0f32; 4];
    debug_assert!(P::CHANNELS <= 4);
    for (c, out) in ch.iter_mut().enumerate().take(P::CHANNELS) {
        let top = p00.channel_f32(c) * (1.0 - wx) + p10.channel_f32(c) * wx;
        let bot = p01.channel_f32(c) * (1.0 - wx) + p11.channel_f32(c) * wx;
        *out = top * (1.0 - wy) + bot * wy;
    }
    P::from_channels_f32(&ch[..P::CHANNELS])
}

/// Catmull–Rom cubic kernel weight for offsets in `[-2, 2]`.
#[inline]
fn catmull_rom(t: f32) -> f32 {
    let a = t.abs();
    if a < 1.0 {
        1.5 * a * a * a - 2.5 * a * a + 1.0
    } else if a < 2.0 {
        -0.5 * a * a * a + 2.5 * a * a - 4.0 * a + 2.0
    } else {
        0.0
    }
}

/// Bicubic (Catmull–Rom) sample over the 4×4 neighbourhood.
pub fn sample_bicubic<P: Pixel>(img: &Image<P>, sx: f32, sy: f32) -> P {
    let fx = sx - 0.5;
    let fy = sy - 0.5;
    let x0 = fx.floor();
    let y0 = fy.floor();
    let tx = fx - x0;
    let ty = fy - y0;
    let x0 = x0 as i64;
    let y0 = y0 as i64;
    let wx = [
        catmull_rom(tx + 1.0),
        catmull_rom(tx),
        catmull_rom(tx - 1.0),
        catmull_rom(tx - 2.0),
    ];
    let wy = [
        catmull_rom(ty + 1.0),
        catmull_rom(ty),
        catmull_rom(ty - 1.0),
        catmull_rom(ty - 2.0),
    ];
    let mut ch = [0f32; 4];
    for (c, out) in ch.iter_mut().enumerate().take(P::CHANNELS) {
        let mut acc = 0.0f32;
        for (j, &wyj) in wy.iter().enumerate() {
            let mut row = 0.0f32;
            for (i, &wxi) in wx.iter().enumerate() {
                let p = img.pixel_clamped(
                    x0.saturating_add(i as i64 - 1),
                    y0.saturating_add(j as i64 - 1),
                );
                row += p.channel_f32(c) * wxi;
            }
            acc += row * wyj;
        }
        // Catmull-Rom can overshoot: clamp to the pixel type's own
        // channel range. Quantized types clamp to [0, 1]; float types
        // are unbounded, so planes carrying native-unit data (0–255
        // luma, say) pass through undamaged instead of collapsing to
        // the top of a hard-coded [0, 1].
        *out = acc.clamp(P::CHANNEL_MIN, P::CHANNEL_MAX);
    }
    P::from_channels_f32(&ch[..P::CHANNELS])
}

/// Integer-only bilinear sample of an 8-bit image: corner `(x0, y0)`
/// plus Q0.`frac` weights, accumulating in `u32` exactly like the
/// fixed-point datapath of a hardware interpolator. Returns the
/// rounded 8-bit value.
#[inline]
pub fn sample_bilinear_fixed_gray8(
    img: &Image<Gray8>,
    x0: i16,
    y0: i16,
    wx: u16,
    wy: u16,
    frac_bits: u32,
) -> Gray8 {
    // 64-bit accumulator: Q8.2frac needs 8 + 2·15 + 1 = 39 bits in the
    // worst case (a hardware datapath would provision a 40-bit DSP
    // accumulator for the same reason)
    assert!(
        frac_bits <= 15,
        "frac_bits must be <= 15 so a full weight (1 << frac_bits) fits in the u16 weight inputs, got {frac_bits}"
    );
    let one = 1u64 << frac_bits;
    let wx = wx as u64;
    let wy = wy as u64;
    let x0 = x0 as i64;
    let y0 = y0 as i64;
    let p00 = img.pixel_clamped(x0, y0).0 as u64;
    let p10 = img.pixel_clamped(x0 + 1, y0).0 as u64;
    let p01 = img.pixel_clamped(x0, y0 + 1).0 as u64;
    let p11 = img.pixel_clamped(x0 + 1, y0 + 1).0 as u64;
    // horizontal lerps in Q0.frac, then vertical in Q0.2frac
    let top = p00 * (one - wx) + p10 * wx;
    let bot = p01 * (one - wx) + p11 * wx;
    let acc = top * (one - wy) + bot * wy; // Q(8).2frac
    let shift = 2 * frac_bits;
    // round-to-nearest: half-ulp bias before the shift. At frac_bits=0
    // the weights are whole (0 or 1), acc is already integral, and the
    // bias is zero — `1 << (shift - 1)` would underflow the shift
    // count, so it must be special-cased rather than computed.
    let round = if shift == 0 { 0 } else { 1u64 << (shift - 1) };
    Gray8(((acc + round) >> shift) as u8)
}

/// [`sample_bilinear_fixed_gray8`]'s arithmetic over a run of LUT
/// entries whose four taps all lie inside `img` (an interior run of the
/// plan's run index): each pixel reads its taps at one index
/// `y0·w + x0` with no clamp, and the Q-format constants are derived
/// once for the run. `frac_bits` is a quantized LUT's width (1..=15).
/// Bit-exact with the per-pixel sampler on such entries.
pub(crate) fn interior_fixed_gray8(
    img: &Image<Gray8>,
    lut: &[FixedMapEntry],
    frac_bits: u32,
    out: &mut [Gray8],
) {
    let one = 1u64 << frac_bits;
    let shift = 2 * frac_bits;
    let round = (1u64 << shift) >> 1;
    let stride = img.dims().0 as usize;
    let data = img.pixels();
    for (e, o) in lut.iter().zip(out) {
        let at = e.y0 as usize * stride + e.x0 as usize;
        let (top, bot) = (&data[at..][..2], &data[at + stride..][..2]);
        let (wx, wy) = (e.wx as u64, e.wy as u64);
        let t = top[0].0 as u64 * (one - wx) + top[1].0 as u64 * wx;
        let b = bot[0].0 as u64 * (one - wx) + bot[1].0 as u64 * wx;
        *o = Gray8(((t * (one - wy) + b * wy + round) >> shift) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixmap::GrayF32;

    fn ramp() -> Image<GrayF32> {
        // horizontal ramp 0..1 across 11 texels
        Image::from_fn(11, 5, |x, _| GrayF32(x as f32 / 10.0))
    }

    #[test]
    fn names_and_taps() {
        assert_eq!(Interpolator::Nearest.taps(), 1);
        assert_eq!(Interpolator::Bilinear.taps(), 4);
        assert_eq!(Interpolator::Bicubic.taps(), 16);
        assert_eq!(Interpolator::Bicubic.margin(), 2);
        assert_eq!(Interpolator::Bilinear.name(), "bilinear");
    }

    #[test]
    fn all_kernels_exact_at_texel_centers() {
        let img = ramp();
        for interp in Interpolator::ALL {
            for x in 1..10u32 {
                let got = interp.sample(&img, x as f32 + 0.5, 2.5).0;
                let want = x as f32 / 10.0;
                assert!(
                    (got - want).abs() < 1e-5,
                    "{} at texel {x}: {got} vs {want}",
                    interp.name()
                );
            }
        }
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let img = ramp();
        // halfway between texels 3 and 4: (0.3+0.4)/2
        let got = sample_bilinear(&img, 4.0, 2.5).0;
        assert!((got - 0.35).abs() < 1e-6, "{got}");
    }

    #[test]
    fn bilinear_2x2_known_value() {
        let img = Image::from_vec(
            2,
            2,
            vec![GrayF32(0.0), GrayF32(1.0), GrayF32(0.5), GrayF32(0.25)],
        );
        // center of the 2x2 block: average of all four
        let got = sample_bilinear(&img, 1.0, 1.0).0;
        assert!((got - 0.4375).abs() < 1e-6);
    }

    #[test]
    fn nearest_picks_containing_texel() {
        let img = ramp();
        assert_eq!(sample_nearest(&img, 3.2, 0.5).0, 0.3);
        assert_eq!(sample_nearest(&img, 3.9, 0.5).0, 0.3);
        assert_eq!(sample_nearest(&img, 4.01, 0.5).0, 0.4);
    }

    #[test]
    fn border_clamps_not_wraps() {
        let img = ramp();
        for interp in Interpolator::ALL {
            let left = interp.sample(&img, -3.0, 2.5).0;
            let right = interp.sample(&img, 20.0, 2.5).0;
            assert!((left - 0.0).abs() < 1e-6, "{}", interp.name());
            assert!((right - 1.0).abs() < 1e-6, "{}", interp.name());
        }
    }

    #[test]
    fn bicubic_reproduces_linear_ramp_interior() {
        // Catmull-Rom has linear precision: a linear signal is
        // reproduced exactly away from borders
        let img = ramp();
        for i in 0..20 {
            let sx = 2.5 + i as f32 * 0.3;
            if sx > 8.5 {
                break;
            }
            let got = sample_bicubic(&img, sx, 2.5).0;
            let want = (sx - 0.5) / 10.0;
            assert!((got - want).abs() < 1e-5, "sx={sx}: {got} vs {want}");
        }
    }

    #[test]
    fn bicubic_sharper_than_bilinear_on_step() {
        // a step edge: bicubic should lie closer to the original step
        // than bilinear at the quarter points (sharper transition)
        let img = Image::from_fn(10, 3, |x, _| GrayF32(if x < 5 { 0.0 } else { 1.0 }));
        let bl = sample_bilinear(&img, 5.25, 1.5).0;
        let bc = sample_bicubic(&img, 5.25, 1.5).0;
        // at 5.25 (three quarters into the white side): true = 1
        assert!(bc > bl, "bicubic {bc} vs bilinear {bl}");
    }

    #[test]
    fn catmull_rom_partition_of_unity() {
        for i in 0..=20 {
            let t = i as f32 / 20.0;
            let sum =
                catmull_rom(t + 1.0) + catmull_rom(t) + catmull_rom(t - 1.0) + catmull_rom(t - 2.0);
            assert!((sum - 1.0).abs() < 1e-5, "t={t}: {sum}");
        }
    }

    #[test]
    fn fixed_bilinear_matches_float_within_quantization() {
        let img: Image<Gray8> = pixmap::scene::random_gray(32, 32, 11);
        let imgf: Image<GrayF32> = img.map(|p| GrayF32(p.0 as f32 / 255.0));
        let frac = 8u32;
        let one = 1u16 << frac;
        for i in 0..200 {
            let sx = 1.0 + (i as f32 * 0.137) % 30.0;
            let sy = 1.0 + (i as f32 * 0.291) % 30.0;
            let fx = sx - 0.5;
            let fy = sy - 0.5;
            let x0 = fx.floor();
            let y0 = fy.floor();
            let wx = (((fx - x0) * one as f32) + 0.5) as u16;
            let wy = (((fy - y0) * one as f32) + 0.5) as u16;
            let fixed = sample_bilinear_fixed_gray8(
                &img,
                x0 as i16,
                y0 as i16,
                wx.min(one),
                wy.min(one),
                frac,
            );
            let float = sample_bilinear(&imgf, sx, sy).0 * 255.0;
            assert!(
                (fixed.0 as f32 - float).abs() <= 2.0,
                "({sx},{sy}): fixed {} float {float}",
                fixed.0
            );
        }
    }

    #[test]
    fn fixed_bilinear_weight_extremes() {
        let img = Image::from_vec(2, 2, vec![Gray8(0), Gray8(100), Gray8(200), Gray8(40)]);
        let frac = 8;
        let one = 1u16 << frac;
        // weight 0 = pure corner texel
        assert_eq!(sample_bilinear_fixed_gray8(&img, 0, 0, 0, 0, frac).0, 0);
        // weight 2^frac = the opposite corner exactly
        assert_eq!(
            sample_bilinear_fixed_gray8(&img, 0, 0, one, one, frac).0,
            40
        );
        // wx=1.0, wy=0 -> p10
        assert_eq!(sample_bilinear_fixed_gray8(&img, 0, 0, one, 0, frac).0, 100);
    }

    #[test]
    fn fixed_bilinear_zero_frac_bits_selects_corners() {
        // frac_bits=0: weights are whole (0 or 1), the rounding bias is
        // zero, and `1 << (shift - 1)` must not be evaluated (shift
        // count underflow). Regression test for exactly that.
        let img = Image::from_vec(2, 2, vec![Gray8(9), Gray8(90), Gray8(180), Gray8(255)]);
        assert_eq!(sample_bilinear_fixed_gray8(&img, 0, 0, 0, 0, 0).0, 9);
        assert_eq!(sample_bilinear_fixed_gray8(&img, 0, 0, 1, 0, 0).0, 90);
        assert_eq!(sample_bilinear_fixed_gray8(&img, 0, 0, 0, 1, 0).0, 180);
        assert_eq!(sample_bilinear_fixed_gray8(&img, 0, 0, 1, 1, 0).0, 255);
    }

    #[test]
    #[should_panic(expected = "frac_bits must be <= 15")]
    fn fixed_bilinear_rejects_oversized_frac_bits() {
        // a full weight (1 << 16) cannot be expressed in the u16 weight
        // inputs, so the precondition must fail loudly, not corrupt
        let img = Image::from_vec(1, 1, vec![Gray8(1)]);
        let _ = sample_bilinear_fixed_gray8(&img, 0, 0, 0, 0, 16);
    }

    #[test]
    fn bicubic_gray8_matches_float_reference() {
        // regression for the hard-coded [0, 1] accumulator clamp: the
        // 8-bit path must agree with the float path everywhere, bright
        // regions included
        let img: Image<Gray8> = pixmap::scene::random_gray(16, 16, 99);
        let imgf: Image<GrayF32> = img.map(|p| GrayF32(p.0 as f32 / 255.0));
        for i in 0..100 {
            let sx = 2.0 + (i as f32 * 0.113) % 12.0;
            let sy = 2.0 + (i as f32 * 0.271) % 12.0;
            let got = sample_bicubic(&img, sx, sy).0 as f32;
            let want = (sample_bicubic(&imgf, sx, sy).0.clamp(0.0, 1.0) * 255.0).round();
            assert!(
                (got - want).abs() <= 1.0,
                "({sx},{sy}): gray8 {got} vs float {want}"
            );
        }
    }

    #[test]
    fn bicubic_rgb8_channels_stay_independent() {
        use pixmap::Rgb8;
        // one channel near saturation, one at zero, one mid-range: the
        // per-channel clamp must not bleed between channels
        let img = Image::from_fn(8, 8, |x, y| {
            Rgb8::new(
                if (x + y) % 2 == 0 { 255 } else { 230 },
                0,
                ((x * 20 + y * 10) % 256) as u8,
            )
        });
        let imgf = img.map(|p: Rgb8| pixmap::RgbF32::from(p));
        for i in 0..60 {
            let sx = 2.0 + (i as f32 * 0.173) % 4.0;
            let sy = 2.0 + (i as f32 * 0.311) % 4.0;
            let got = sample_bicubic(&img, sx, sy);
            let want = sample_bicubic(&imgf, sx, sy);
            assert!((got.r as f32 - (want.r.clamp(0.0, 1.0) * 255.0)).abs() <= 1.5);
            assert_eq!(got.g, 0, "zero channel must stay zero");
            assert!((got.b as f32 - (want.b.clamp(0.0, 1.0) * 255.0)).abs() <= 1.5);
        }
    }

    #[test]
    fn bicubic_float_planes_keep_native_units() {
        // GrayF32 planes may carry native-unit data (0–255 luma). A
        // hard-coded [0, 1] clamp flattened such planes to 1.0; the
        // per-type range must let them through. Catmull-Rom has linear
        // precision, so an exact linear ramp comes back exactly.
        let img = Image::from_fn(11, 5, |x, _| GrayF32(x as f32 * 25.5));
        for x in 2..9u32 {
            let got = sample_bicubic(&img, x as f32 + 0.5, 2.5).0;
            let want = x as f32 * 25.5;
            assert!(
                (got - want).abs() < 1e-3,
                "texel {x}: {got} vs {want} (clamped to [0,1]?)"
            );
        }
        // interior overshoot is allowed for float types (no clamping),
        // but the value must stay finite
        let step = Image::from_fn(10, 3, |x, _| GrayF32(if x < 5 { 0.0 } else { 200.0 }));
        let v = sample_bicubic(&step, 5.25, 1.5).0;
        assert!(v.is_finite() && v > 100.0, "{v}");
    }

    #[test]
    fn rgb_bilinear_interpolates_channels_independently() {
        use pixmap::Rgb8;
        let img = Image::from_vec(2, 1, vec![Rgb8::new(0, 100, 255), Rgb8::new(100, 200, 55)]);
        let got = sample_bilinear(&img, 1.0, 0.5);
        assert_eq!(got.r, 50);
        assert_eq!(got.g, 150);
        assert_eq!(got.b, 155);
    }
}
