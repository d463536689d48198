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
//! modulo the lane width. On the byte planes engines correct, `simd`,
//! `serial`, `smp` and the map-based `correct` must agree bit for bit,
//! and `fixed` must agree with `correct_fixed` over the same map's
//! quantized LUT.
//!
//! Composites run the same span kernels from a segment walk: a
//! one-source composite over such a plan must equal the single-plan
//! engine on every host datapath, and a two-source composite with
//! random scores must equal `compose_layers` over the per-source
//! engine outputs.
//!
//! The plan splits every valid span into interior runs, whose four
//! taps lie inside the source and which `simd` and `fixed` read with
//! no clamp, and border runs, which go to the scalar samplers. Maps
//! whose coordinates sit on that boundary (`s − 0.5` at 0, at the last
//! tap corner, at ±2²² and at ±1e20, each with its ulp neighbours) must
//! keep both datapaths equal to their references, and the runs must
//! partition each valid span exactly as the interior predicate says.

use std::sync::Arc;

use fisheye_core::composite::{compose_layers, CompositePlan};
use fisheye_core::engine::{build_host, execute_host_post, EngineSpec, HostCtx};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{
    correct, correct_fixed, execute_composite_host, Interpolator, MapEntry, RemapMap,
};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, Image};
use proputil::{ensure, ensure_eq, CaseResult, Gen};

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
fn engine_outputs(src: &Image<Gray8>, map: &RemapMap) -> Result<[Image<Gray8>; 2], String> {
    let plan = RemapPlan::compile(map, PlanOptions::default());
    let run = |spec: EngineSpec| -> Result<Image<Gray8>, String> {
        let engine = build_host(&spec, &HostCtx::default()).map_err(|e| e.to_string())?;
        let mut out = Image::new(map.width(), map.height());
        engine
            .correct_frame(src, &plan, &mut out)
            .map_err(|e| e.to_string())?;
        Ok(out)
    };
    Ok([run(EngineSpec::Simd)?, run(EngineSpec::Serial)?])
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

/// `spec`'s output for `src` over `plan`.
fn host(
    spec: &EngineSpec,
    src: &Image<Gray8>,
    plan: &RemapPlan,
    pool: &ThreadPool,
) -> Result<Image<Gray8>, String> {
    let mut out = Image::new(plan.width(), plan.height());
    execute_host_post(
        spec,
        Interpolator::Bilinear,
        src,
        plan,
        None,
        Some(pool),
        &mut out,
    )
    .map_err(|e| format!("{}: {e}", spec.name()))?;
    Ok(out)
}

/// `spec`'s output for `srcs` through the composite executor.
fn composite(
    spec: &EngineSpec,
    srcs: &[&Image<Gray8>],
    plan: &CompositePlan,
    pool: &ThreadPool,
) -> Result<Image<Gray8>, String> {
    let mut out = Image::new(plan.width(), plan.height());
    execute_composite_host(
        spec,
        Interpolator::Bilinear,
        srcs,
        plan,
        None,
        Some(pool),
        &mut out,
    )
    .map_err(|e| format!("composite {}: {e}", spec.name()))?;
    Ok(out)
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
/// single-plan engines, on every host datapath.
fn check_composites(g: &mut Gen, pool: &ThreadPool) -> CaseResult {
    let (sw, sh) = (g.u32_in(1, 17), g.u32_in(1, 17));
    let a = arb_map(g, sw, sh);
    let (w, h) = (a.width(), a.height());
    let (tw, th) = (g.u32_in(1, 17), g.u32_in(1, 17));
    let b = arb_map_sized(g, w, h, tw, th);
    let src_a = pixmap::scene::random_gray(sw, sh, g.u64_any());
    let src_b = pixmap::scene::random_gray(tw, th, g.u64_any());
    let plan_a = Arc::new(RemapPlan::compile(&a, PlanOptions::default()));
    let plan_b = Arc::new(RemapPlan::compile(&b, PlanOptions::default()));
    let one = CompositePlan::assemble(vec![Arc::clone(&plan_a)], &[arb_scores(g, w * h)]);
    let two = CompositePlan::assemble(
        vec![Arc::clone(&plan_a), Arc::clone(&plan_b)],
        &[arb_scores(g, w * h), arb_scores(g, w * h)],
    );
    for spec in datapaths() {
        let layer_a = host(&spec, &src_a, &plan_a, pool)?;
        let layer_b = host(&spec, &src_b, &plan_b, pool)?;
        let single = composite(&spec, &[&src_a], &one, pool)?;
        ensure_eq!(
            single,
            layer_a,
            "{} one-source composite vs engine",
            spec.name()
        );
        let blended = composite(&spec, &[&src_a, &src_b], &two, pool)?;
        let reference = compose_layers(&two, &[&layer_a, &layer_b]);
        ensure_eq!(
            blended,
            reference,
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
            reference,
            "gray8 smp vs correct"
        );
        let reference = correct_fixed(&src8, &map.to_fixed(12));
        ensure_eq!(
            host(&fixed, &src8, &plan, &pool)?,
            reference,
            "gray8 fixed vs correct_fixed"
        );
        Ok(())
    });
}

#[test]
fn composites_agree_with_engines_on_out_of_range_maps() {
    let pool = ThreadPool::new(2);
    proputil::check(
        "composites_agree_with_engines_on_out_of_range_maps",
        CASES,
        |g| check_composites(g, &pool),
    );
}

/// Coordinates on and next to the interior/border boundary along a
/// source axis of `n` pixels: `s − 0.5` at 0, at `n − 1`, at ±2²² and at
/// ±1e20, each with the coordinates one ulp either side of it.
fn boundary_coords(n: u32) -> Vec<f32> {
    let mut v = Vec::new();
    for f in [0.0, (n - 1) as f32, 4_194_304.0, -4_194_304.0, 1e20, -1e20] {
        let s = f + 0.5;
        v.extend([s.next_down(), s, s.next_up()]);
    }
    v
}

/// A coordinate along a source axis of `n` pixels: half the time on the
/// interior/border boundary, else inside the source, so interior runs
/// long enough for whole lane blocks form between boundary pixels.
fn arb_edge_coord(g: &mut Gen, n: u32) -> f32 {
    if g.bool() {
        *g.pick(&boundary_coords(n))
    } else {
        g.f64_in(0.5, n as f64 - 0.5) as f32
    }
}

/// A `from_entries` map over a `sw`×`sh` source whose coordinates sit
/// on the interior/border boundary ([`boundary_coords`]), with a few
/// invalid entries so rows break into several spans.
fn boundary_map(g: &mut Gen, w: u32, h: u32, sw: u32, sh: u32) -> RemapMap {
    let entries = (0..w * h)
        .map(|_| {
            if g.u32_in(0, 16) == 0 {
                MapEntry::INVALID
            } else {
                MapEntry {
                    sx: arb_edge_coord(g, sw),
                    sy: arb_edge_coord(g, sh),
                }
            }
        })
        .collect();
    RemapMap::from_entries(w, h, sw, sh, entries)
}

/// `spec`'s output for one source through a one-source composite.
fn one_source(
    spec: &EngineSpec,
    src: &Image<Gray8>,
    plan: &Arc<RemapPlan>,
    pool: &ThreadPool,
) -> Result<Image<Gray8>, String> {
    let (w, h) = (plan.width(), plan.height());
    let one = CompositePlan::assemble(vec![Arc::clone(plan)], &[vec![1.0; (w * h) as usize]]);
    composite(spec, &[src], &one, pool)
}

/// `simd` and `fixed`, each against its reference (`correct`,
/// `correct_fixed` of the Q12 LUT), on a single plan, a one-source
/// composite and a two-source composite over boundary maps.
fn check_boundary(g: &mut Gen, pool: &ThreadPool, (sw, sh): (u32, u32)) -> CaseResult {
    let (w, h) = (g.u32_in(1, 41), g.u32_in(1, 4));
    let (tw, th) = (g.u32_in(2, 17), g.u32_in(2, 17));
    let (a, b) = (boundary_map(g, w, h, sw, sh), boundary_map(g, w, h, tw, th));
    let src_a = pixmap::scene::random_gray(sw, sh, g.u64_any());
    let src_b = pixmap::scene::random_gray(tw, th, g.u64_any());
    let plan_a = Arc::new(RemapPlan::compile(&a, PlanOptions::default()));
    let plan_b = Arc::new(RemapPlan::compile(&b, PlanOptions::default()));
    let two = CompositePlan::assemble(
        vec![Arc::clone(&plan_a), Arc::clone(&plan_b)],
        &[arb_scores(g, w * h), arb_scores(g, w * h)],
    );
    let [.., simd, fixed] = datapaths();
    for spec in [simd, fixed] {
        let reference = |map: &RemapMap, src: &Image<Gray8>| match spec {
            EngineSpec::FixedPoint { frac_bits } => correct_fixed(src, &map.to_fixed(frac_bits)),
            _ => correct(src, map, Interpolator::Bilinear),
        };
        let (ref_a, ref_b) = (reference(&a, &src_a), reference(&b, &src_b));
        let name = spec.name();
        let single = host(&spec, &src_a, &plan_a, pool)?;
        ensure_eq!(single, ref_a, "{name} single plan");
        let one = one_source(&spec, &src_a, &plan_a, pool)?;
        ensure_eq!(one, ref_a, "{name} one-source composite");
        let blended = composite(&spec, &[&src_a, &src_b], &two, pool)?;
        let expect = compose_layers(&two, &[&ref_a, &ref_b]);
        ensure_eq!(blended, expect, "{name} two-source composite");
    }
    Ok(())
}

#[test]
fn simd_and_fixed_agree_on_interior_boundary_maps() {
    let pool = ThreadPool::new(2);
    proputil::check(
        "simd_and_fixed_agree_on_interior_boundary_maps",
        CASES,
        |g| {
            let dims = (g.u32_in(2, 17), g.u32_in(2, 17));
            check_boundary(g, &pool, dims)
        },
    );
}

/// A source wider than 2²² + 1 pixels, where the interior bound is the
/// lane kernel's exact-floor range rather than the source edge: a tap
/// corner just below 2²² is interior, one at 2²² is a border pixel
/// whose taps are still inside the source.
#[test]
fn simd_and_fixed_agree_where_the_floor_range_bounds_the_interior() {
    let pool = ThreadPool::new(2);
    proputil::check(
        "simd_and_fixed_agree_where_the_floor_range_bounds_the_interior",
        4,
        |g| {
            let (sw, sh) = ((1 << 22) + 3, 2);
            let (w, h) = (g.u32_in(1, 41), g.u32_in(1, 4));
            check_partition(&boundary_map(g, w, h, sw, sh))?;
            check_boundary(g, &pool, (sw, sh))
        },
    );
}

/// Whether the four bilinear taps of `(sx, sy)` lie inside a `sw`×`sh`
/// source with both `|s − 0.5|` below 2²², where the lane kernel's
/// integer floor is exact.
fn taps_inside(sx: f32, sy: f32, sw: u32, sh: u32) -> bool {
    let axis = |s: f32, n: u32| {
        let f = s - 0.5;
        let (c, taps) = (f.floor() as i64, 0..n as i64);
        f.abs() < 4_194_304.0 && taps.contains(&c) && taps.contains(&(c + 1))
    };
    axis(sx, sw) && axis(sy, sh)
}

/// The interior runs of `map`'s plan partition each valid span
/// exactly: sorted, disjoint, maximal, each inside one valid span, and
/// holding exactly the valid pixels whose taps are inside the source.
fn check_partition(map: &RemapMap) -> CaseResult {
    let (sw, sh) = map.src_dims();
    let plan = RemapPlan::compile(map, PlanOptions::default());
    for y in 0..map.height() {
        let mut interior = vec![false; map.width() as usize];
        let mut prev_end = None;
        for r in plan.interior_runs(y) {
            ensure!(r.start < r.end, "empty interior run in row {y}");
            ensure!(
                prev_end.is_none_or(|e| r.start > e),
                "interior runs of row {y} overlap, touch or run backwards"
            );
            ensure!(
                plan.spans(y)
                    .iter()
                    .any(|s| s.start <= r.start && r.end <= s.end),
                "interior run {r:?} of row {y} leaves its valid span"
            );
            interior[r.start as usize..r.end as usize].fill(true);
            prev_end = Some(r.end);
        }
        for (x, (e, &inside)) in map.row(y).iter().zip(&interior).enumerate() {
            if !e.is_valid() {
                ensure!(!inside, "invalid ({x},{y}) in an interior run");
                continue;
            }
            ensure_eq!(
                inside,
                taps_inside(e.sx, e.sy, sw, sh),
                "({x},{y}) at ({}, {}) over {sw}x{sh}",
                e.sx,
                e.sy
            );
        }
    }
    Ok(())
}

#[test]
fn interior_runs_partition_the_valid_spans_exactly() {
    proputil::check(
        "interior_runs_partition_the_valid_spans_exactly",
        CASES,
        |g| {
            let (sw, sh) = (g.u32_in(1, 17), g.u32_in(1, 17));
            if g.bool() {
                check_partition(&arb_map(g, sw, sh))
            } else {
                let (w, h) = (g.u32_in(1, 41), g.u32_in(1, 4));
                check_partition(&boundary_map(g, w, h, sw.max(2), sh.max(2)))
            }
        },
    );
}
