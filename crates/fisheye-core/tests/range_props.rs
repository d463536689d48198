//! Property: the host float engines agree on every map
//! [`RemapMap::from_entries`] accepts, not only on maps traced from lens
//! geometry.
//!
//! [`MapEntry::is_valid`] checks only that `sx` is finite, so a valid
//! entry may lie far outside the source, sit exactly on a texel centre
//! or edge, or carry a NaN or infinite `sy`. `simd`'s integer floor is
//! exact only below 2²² in magnitude, so such maps drive its scalar
//! fallback, and the scalar reference's tap offsets must not overflow
//! past its saturating floor casts. Output widths 1–40 give every span length
//! modulo the lane width. `simd`, `serial` and the map-based `correct`
//! must agree bit for bit, on `Gray8` and on `GrayF32` (compared by
//! bit pattern, so NaN outputs count too).

use fisheye_core::engine::{build_host, EngineSpec, HostCtx};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{correct, EnginePixel, Interpolator, MapEntry, RemapMap};
use pixmap::{GrayF32, Image};
use proputil::{ensure_eq, CaseResult, Gen};

const CASES: u32 = 96;

/// One coordinate along a source axis of `n` pixels.
fn arb_coord(g: &mut Gen, n: u32) -> f32 {
    let n = n as f64;
    match g.u32_in(0, 4) {
        // inside the source
        0 => g.f64_in(0.0, n) as f32,
        // within half a pixel of either border
        1 => {
            let d = g.f64_in(-0.5, 0.5);
            (if g.bool() { d } else { n + d }) as f32
        }
        // exact integers and half-integers, a little past the borders
        2 => g.i64_in(-4, 2 * n as i64 + 5) as f32 / 2.0,
        // far outside the source, beyond i32 and the integer floor
        _ => *g.pick(&[3e9, -3e9, 1e20, -1e20]),
    }
}

/// A `from_entries` map over a `sw`×`sh` source: mostly valid entries
/// mixing every coordinate class above, some `NaN`/`±inf` `sy`, and a
/// few invalid entries so rows break into several spans.
fn arb_map(g: &mut Gen, sw: u32, sh: u32) -> RemapMap {
    let w = g.u32_in(1, 41);
    let h = g.u32_in(1, 4);
    let entries = (0..w * h)
        .map(|_| match g.u32_in(0, 16) {
            0 => MapEntry::INVALID,
            1 => MapEntry {
                sx: arb_coord(g, sw),
                sy: *g.pick(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
            },
            _ => MapEntry {
                sx: arb_coord(g, sw),
                sy: arb_coord(g, sh),
            },
        })
        .collect();
    RemapMap::from_entries(w, h, sw, sh, entries)
}

/// `simd` and `serial` outputs for `src` over `map`, through the
/// engine layer.
fn engine_outputs<P: EnginePixel>(src: &Image<P>, map: &RemapMap) -> Result<[Image<P>; 2], String> {
    let plan = RemapPlan::compile(map, PlanOptions::default());
    let run = |spec: EngineSpec| -> Result<Image<P>, String> {
        let engine = build_host::<P>(&spec, &HostCtx::default()).map_err(|e| e.to_string())?;
        let mut out = Image::new(map.width(), map.height());
        engine
            .correct_frame(src, &plan, &mut out)
            .map_err(|e| e.to_string())?;
        Ok(out)
    };
    Ok([run(EngineSpec::Simd)?, run(EngineSpec::Serial)?])
}

fn bits(img: &Image<GrayF32>) -> Vec<u32> {
    img.pixels().iter().map(|p| p.0.to_bits()).collect()
}

fn check_case(g: &mut Gen) -> CaseResult {
    let sw = g.u32_in(1, 17);
    let sh = g.u32_in(1, 17);
    let map = arb_map(g, sw, sh);
    let src8 = pixmap::scene::random_gray(sw, sh, g.u64_any());
    let [simd, serial] = engine_outputs(&src8, &map)?;
    let reference = correct(&src8, &map, Interpolator::Bilinear);
    ensure_eq!(serial, reference, "gray8 serial vs correct");
    ensure_eq!(simd, reference, "gray8 simd vs correct");

    let values: Vec<GrayF32> = (0..sw * sh)
        .map(|_| GrayF32(g.f64_in(-2.0, 300.0) as f32))
        .collect();
    let srcf = Image::from_vec(sw, sh, values);
    let [simd, serial] = engine_outputs(&srcf, &map)?;
    let reference = bits(&correct(&srcf, &map, Interpolator::Bilinear));
    ensure_eq!(bits(&serial), reference, "f32 serial vs correct");
    ensure_eq!(bits(&simd), reference, "f32 simd vs correct");
    Ok(())
}

#[test]
fn host_float_engines_agree_on_out_of_range_maps() {
    proputil::check(
        "host_float_engines_agree_on_out_of_range_maps",
        CASES,
        check_case,
    );
}
