//! Frame correction — phase 2 of the application.
//!
//! A pure gather: for every output pixel, read the LUT entry and
//! interpolate the source frame there. Serial, multicore and
//! fixed-point variants share the same per-row kernel so the platform
//! comparison measures scheduling, not code differences.

use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, Image, Pixel};

use crate::interp::{sample_bilinear_fixed_gray8, Interpolator};
use crate::map::{FixedRemapMap, RemapMap};

/// Correct one output row given its LUT row. The shared inner kernel.
#[inline]
pub fn correct_row<P: Pixel>(
    src: &Image<P>,
    map_row: &[crate::map::MapEntry],
    interp: Interpolator,
    out_row: &mut [P],
) {
    debug_assert_eq!(map_row.len(), out_row.len());
    for (e, out) in map_row.iter().zip(out_row.iter_mut()) {
        *out = if e.is_valid() {
            interp.sample(src, e.sx, e.sy)
        } else {
            P::BLACK
        };
    }
}

/// Correct a frame into a pre-allocated output image (dimensions must
/// match the map). Serial.
pub fn correct_into<P: Pixel>(
    src: &Image<P>,
    map: &RemapMap,
    interp: Interpolator,
    out: &mut Image<P>,
) {
    assert_eq!(
        out.dims(),
        (map.width(), map.height()),
        "output dimensions must match the map"
    );
    assert_eq!(
        src.dims(),
        map.src_dims(),
        "source dimensions must match the map"
    );
    for y in 0..map.height() {
        let map_row = map.row(y);
        correct_row(src, map_row, interp, out.row_mut(y));
    }
}

/// Correct a frame, allocating the output. Serial baseline.
pub fn correct<P: Pixel>(src: &Image<P>, map: &RemapMap, interp: Interpolator) -> Image<P> {
    let mut out = Image::new(map.width(), map.height());
    correct_into(src, map, interp, &mut out);
    out
}

/// Multicore correction: output rows distributed over the pool under
/// `schedule`. Bit-identical to [`correct`].
pub fn correct_parallel<P: Pixel>(
    src: &Image<P>,
    map: &RemapMap,
    interp: Interpolator,
    pool: &ThreadPool,
    schedule: Schedule,
) -> Image<P> {
    let mut out = Image::new(map.width(), map.height());
    let w = map.width() as usize;
    pool.parallel_rows(out.pixels_mut(), w, schedule, &|row, out_row| {
        correct_row(src, map.row(row as u32), interp, out_row);
    });
    out
}

/// Fixed-point correction of an 8-bit frame through a quantized LUT —
/// the arithmetic the accelerator datapaths implement. Integer-only
/// inner loop.
pub fn correct_fixed(src: &Image<Gray8>, map: &FixedRemapMap) -> Image<Gray8> {
    let mut out = Image::new(map.width(), map.height());
    correct_fixed_into(src, map, &mut out);
    out
}

/// [`correct_fixed`] into a pre-allocated output image (dimensions
/// must match the map).
pub fn correct_fixed_into(src: &Image<Gray8>, map: &FixedRemapMap, out: &mut Image<Gray8>) {
    assert_eq!(
        out.dims(),
        (map.width(), map.height()),
        "output dimensions must match the map"
    );
    assert_eq!(src.dims(), map.src_dims(), "source dimensions must match");
    let frac = map.frac_bits();
    for y in 0..map.height() {
        let map_row = map.row(y);
        let out_row = out.row_mut(y);
        for (e, o) in map_row.iter().zip(out_row.iter_mut()) {
            *o = if e.is_valid() {
                sample_bilinear_fixed_gray8(src, e.x0, e.y0, e.wx, e.wy, frac)
            } else {
                Gray8(0)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::scene::random_gray;

    fn setup() -> (RemapMap, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(80, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = random_gray(160, 120, 99);
        (map, src)
    }

    #[test]
    fn output_dims_match_view() {
        let (map, src) = setup();
        let out = correct(&src, &map, Interpolator::Bilinear);
        assert_eq!(out.dims(), (80, 60));
    }

    #[test]
    fn parallel_identical_to_serial() {
        let (map, src) = setup();
        let serial = correct(&src, &map, Interpolator::Bilinear);
        let pool = ThreadPool::new(4);
        for sched in [
            Schedule::Static { chunk: None },
            Schedule::Dynamic { chunk: 2 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let par = correct_parallel(&src, &map, Interpolator::Bilinear, &pool, sched);
            assert_eq!(serial, par, "{sched:?}");
        }
    }

    #[test]
    fn all_interpolators_run() {
        let (map, src) = setup();
        for interp in Interpolator::ALL {
            let out = correct(&src, &map, interp);
            // center pixel must be valid data (not black border) for
            // this fully-covered view — with random source the odds of
            // true zero are 1/256 per kernel; accept zero only if the
            // source really reads zero there
            assert_eq!(out.dims(), (80, 60), "{}", interp.name());
        }
    }

    #[test]
    fn invalid_entries_render_black() {
        let lens = FisheyeLens::equidistant_fov(160, 120, 120.0);
        let view = PerspectiveView::centered(80, 60, 140.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = pixmap::Image::filled(160, 120, Gray8(255));
        let out = correct(&src, &map, Interpolator::Bilinear);
        assert_eq!(out.pixel(0, 0), Gray8(0), "corner outside FOV is black");
        assert_eq!(out.pixel(40, 30), Gray8(255), "center is white");
    }

    #[test]
    fn fixed_correction_close_to_float() {
        let (map, src) = setup();
        let float = correct(&src, &map, Interpolator::Bilinear);
        let fixed = correct_fixed(&src, &map.to_fixed(12));
        let psnr = pixmap::metrics::psnr(&float, &fixed);
        assert!(psnr > 45.0, "psnr {psnr} too low for 12-bit weights");
    }

    #[test]
    fn fixed_correction_degrades_gracefully() {
        let (map, src) = setup();
        let float = correct(&src, &map, Interpolator::Bilinear);
        let p4 = pixmap::metrics::psnr(&float, &correct_fixed(&src, &map.to_fixed(4)));
        let p10 = pixmap::metrics::psnr(&float, &correct_fixed(&src, &map.to_fixed(10)));
        assert!(p10 > p4, "more weight bits must not hurt: {p4} vs {p10}");
    }

    #[test]
    #[should_panic(expected = "output dimensions")]
    fn dimension_mismatch_caught() {
        let (map, src) = setup();
        let mut wrong: Image<Gray8> = Image::new(10, 10);
        correct_into(&src, &map, Interpolator::Nearest, &mut wrong);
    }

    #[test]
    #[should_panic(expected = "source dimensions")]
    fn source_mismatch_caught() {
        let (map, _) = setup();
        let wrong_src = random_gray(10, 10, 1);
        let mut out = Image::new(80, 60);
        correct_into(&wrong_src, &map, Interpolator::Nearest, &mut out);
    }

    #[test]
    fn identity_like_map_preserves_image() {
        // a Brown-Conrady identity map (no distortion) is a near-copy
        let bc = fisheye_geom::BrownConrady::default();
        let map = RemapMap::build_brown_conrady(&bc, 50.0, 64, 64, 64, 64);
        let src = random_gray(64, 64, 5);
        let out = correct(&src, &map, Interpolator::Bilinear);
        assert_eq!(src, out);
        let outn = correct(&src, &map, Interpolator::Nearest);
        assert_eq!(src, outn);
    }
}
