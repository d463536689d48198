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
//! modulo the lane width. `simd`, `serial`, `smp` and the map-based
//! `correct` must agree bit for bit, on `Gray8` and on `GrayF32`
//! (compared by bit pattern, so NaN outputs count too), and `fixed`
//! must agree with `correct_fixed` over the same map's quantized LUT.
//!
//! Composites run the same span kernels from a segment walk: a
//! one-source composite over such a plan must equal the single-plan
//! engine on every host datapath, and a two-source composite with
//! random scores must equal `compose_layers` over the per-source
//! engine outputs.

use std::sync::Arc;

use fisheye_core::composite::{compose_layers, CompositePlan};
use fisheye_core::engine::{build_host, execute_host_post, EngineSpec, HostCtx, HostEnv};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{
    correct, correct_fixed, execute_composite_host, CompositePixel, EnginePixel, Interpolator,
    MapEntry, RemapMap,
};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, GrayF32, Image};
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
    arb_map_sized(g, w, h, sw, sh)
}

/// [`arb_map`] at a given `w`×`h` output size.
fn arb_map_sized(g: &mut Gen, w: u32, h: u32, sw: u32, sh: u32) -> RemapMap {
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

/// The four host datapaths: the float walk in order and across a
/// pool, the 8-lane gather and the Q12 integer sampler.
fn datapaths() -> [EngineSpec; 4] {
    [
        EngineSpec::Serial,
        EngineSpec::Smp {
            schedule: Schedule::Dynamic { chunk: 1 },
        },
        EngineSpec::Simd,
        EngineSpec::FixedPoint { frac_bits: 12 },
    ]
}

/// `spec`'s output for `src` over `plan`, or `None` where the pixel
/// type has no such datapath (`fixed` on `GrayF32`).
fn host<P: EnginePixel>(
    spec: &EngineSpec,
    src: &Image<P>,
    plan: &RemapPlan,
    pool: &ThreadPool,
) -> Result<Option<Image<P>>, String> {
    if matches!(spec, EngineSpec::FixedPoint { .. }) && !P::HAS_FIXED {
        return Ok(None);
    }
    let env = HostEnv {
        pool: Some(pool),
        geometry: None,
    };
    let mut out = Image::new(plan.width(), plan.height());
    execute_host_post(
        spec,
        Interpolator::Bilinear,
        src,
        plan,
        None,
        &env,
        &mut out,
    )
    .map_err(|e| format!("{}: {e}", spec.name()))?;
    Ok(Some(out))
}

/// `spec`'s output for `srcs` through the composite executor.
fn composite<P: CompositePixel>(
    spec: &EngineSpec,
    srcs: &[&Image<P>],
    plan: &CompositePlan,
    pool: &ThreadPool,
) -> Result<Image<P>, String> {
    let env = HostEnv {
        pool: Some(pool),
        geometry: None,
    };
    let mut out = Image::new(plan.width(), plan.height());
    execute_composite_host(
        spec,
        Interpolator::Bilinear,
        srcs,
        plan,
        None,
        &env,
        &mut out,
    )
    .map_err(|e| format!("composite {}: {e}", spec.name()))?;
    Ok(out)
}

/// Pixel types compared by bit pattern, so NaN outputs count too.
trait Bits: CompositePixel {
    fn bits(img: &Image<Self>) -> Vec<u32>;
}

impl Bits for Gray8 {
    fn bits(img: &Image<Gray8>) -> Vec<u32> {
        img.pixels().iter().map(|p| p.0 as u32).collect()
    }
}

impl Bits for GrayF32 {
    fn bits(img: &Image<GrayF32>) -> Vec<u32> {
        bits(img)
    }
}

/// A blend score plane: zeros, negatives (clamped to zero) and
/// fractions, so overlap pixels split, share evenly or go exclusive.
fn arb_scores(g: &mut Gen, n: u32) -> Vec<f32> {
    (0..n)
        .map(|_| match g.u32_in(0, 4) {
            0 => 0.0,
            1 => -1.0,
            _ => g.f64_in(0.0, 1.0) as f32,
        })
        .collect()
}

/// One- and two-source composites over out-of-range plans against the
/// single-plan engines, on every datapath the pixel type has.
fn check_composites<P: Bits>(
    g: &mut Gen,
    pool: &ThreadPool,
    frame: &mut impl FnMut(&mut Gen, u32, u32) -> Image<P>,
) -> CaseResult {
    let (sw, sh) = (g.u32_in(1, 17), g.u32_in(1, 17));
    let a = arb_map(g, sw, sh);
    let (w, h) = (a.width(), a.height());
    let (tw, th) = (g.u32_in(1, 17), g.u32_in(1, 17));
    let b = arb_map_sized(g, w, h, tw, th);
    let (src_a, src_b) = (frame(g, sw, sh), frame(g, tw, th));
    let plan_a = Arc::new(RemapPlan::compile(&a, PlanOptions::default()));
    let plan_b = Arc::new(RemapPlan::compile(&b, PlanOptions::default()));
    let one = CompositePlan::assemble(vec![Arc::clone(&plan_a)], &[arb_scores(g, w * h)]);
    let two = CompositePlan::assemble(
        vec![Arc::clone(&plan_a), Arc::clone(&plan_b)],
        &[arb_scores(g, w * h), arb_scores(g, w * h)],
    );
    for spec in datapaths() {
        let (Some(layer_a), Some(layer_b)) = (
            host(&spec, &src_a, &plan_a, pool)?,
            host(&spec, &src_b, &plan_b, pool)?,
        ) else {
            continue;
        };
        let single = composite(&spec, &[&src_a], &one, pool)?;
        ensure_eq!(
            P::bits(&single),
            P::bits(&layer_a),
            "{} one-source composite vs engine",
            spec.name()
        );
        let blended = composite(&spec, &[&src_a, &src_b], &two, pool)?;
        let reference = compose_layers(&two, &[&layer_a, &layer_b]);
        ensure_eq!(
            P::bits(&blended),
            P::bits(&reference),
            "{} two-source composite vs compose_layers",
            spec.name()
        );
    }
    Ok(())
}

#[test]
fn smp_and_fixed_agree_on_out_of_range_maps() {
    let pool = ThreadPool::new(2);
    proputil::check("smp_and_fixed_agree_on_out_of_range_maps", CASES, |g| {
        let sw = g.u32_in(1, 17);
        let sh = g.u32_in(1, 17);
        let map = arb_map(g, sw, sh);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let src8 = pixmap::scene::random_gray(sw, sh, g.u64_any());
        let [_, smp, _, fixed] = datapaths();
        let reference = correct(&src8, &map, Interpolator::Bilinear);
        ensure_eq!(
            host(&smp, &src8, &plan, &pool)?,
            Some(reference),
            "gray8 smp vs correct"
        );
        let reference = correct_fixed(&src8, &map.to_fixed(12));
        ensure_eq!(
            host(&fixed, &src8, &plan, &pool)?,
            Some(reference),
            "gray8 fixed vs correct_fixed"
        );

        let values: Vec<GrayF32> = (0..sw * sh)
            .map(|_| GrayF32(g.f64_in(-2.0, 300.0) as f32))
            .collect();
        let srcf = Image::from_vec(sw, sh, values);
        let out = host(&smp, &srcf, &plan, &pool)?.ok_or("smp runs on f32")?;
        let reference = bits(&correct(&srcf, &map, Interpolator::Bilinear));
        ensure_eq!(bits(&out), reference, "f32 smp vs correct");
        Ok(())
    });
}

#[test]
fn composites_agree_with_engines_on_out_of_range_maps() {
    let pool = ThreadPool::new(2);
    proputil::check(
        "composites_agree_with_engines_on_out_of_range_maps",
        CASES,
        |g| {
            check_composites(g, &pool, &mut |g, w, h| {
                pixmap::scene::random_gray(w, h, g.u64_any())
            })?;
            check_composites(g, &pool, &mut |g, w, h| {
                let values = (0..w * h)
                    .map(|_| GrayF32(g.f64_in(-2.0, 300.0) as f32))
                    .collect();
                Image::from_vec(w, h, values)
            })
        },
    );
}
