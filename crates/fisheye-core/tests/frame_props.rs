//! Property-based tests of the multi-plane frame layer: a YUV420
//! frame driven through [`FrameCorrector`] must be **bit-exact**, per
//! plane, with running each plane individually through a single-plane
//! corrector of the same backend — for every host engine
//! (serial/smp/fixed/simd). The frame layer is dispatch, not
//! arithmetic; if it ever perturbs a pixel, these shrink to a small
//! failing lens/view.
//!
//! Runs on the in-tree `proputil` harness (seeded cases, halving
//! shrinker) — see DESIGN.md §5 for why no external property-test
//! crate is used.

use std::sync::Arc;

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameCorrector, FrameFormat, ViewPlan};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::Schedule;
use pixmap::yuv::Yuv420;
use pixmap::{Gray8, Image};
use proputil::{ensure, ensure_eq, Gen};

const CASES: u32 = 24;

/// A random (lens, view, yuv frame) workload. Wide view FOVs behind
/// narrow lens FOVs produce invalid regions on both plane classes.
fn arb_workload(g: &mut Gen) -> (FisheyeLens, PerspectiveView, u32, u32, Yuv420) {
    let sw = g.u32_in(16, 81);
    let sh = g.u32_in(16, 81);
    let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(100.0, 200.0));
    let ow = g.u32_in(8, 65);
    let oh = g.u32_in(8, 65);
    let view = PerspectiveView::centered(ow, oh, g.f64_in(40.0, 170.0))
        .look(g.f64_in(-30.0, 30.0), g.f64_in(-20.0, 20.0));
    let yuv = Yuv420 {
        y: pixmap::scene::random_gray(sw, sh, g.u64_any()),
        cb: pixmap::scene::random_gray(sw.div_ceil(2), sh.div_ceil(2), g.u64_any()),
        cr: pixmap::scene::random_gray(sw.div_ceil(2), sh.div_ceil(2), g.u64_any()),
    };
    (lens, view, sw, sh, yuv)
}

/// The host backends the frame layer dispatches to, with a legal
/// interpolator for each (simd is bilinear-only; fixed reads its LUT).
fn arb_spec(g: &mut Gen) -> (EngineSpec, Interpolator) {
    match g.usize_in(0, 4) {
        0 => (
            EngineSpec::Serial,
            *g.pick(&[
                Interpolator::Nearest,
                Interpolator::Bilinear,
                Interpolator::Bicubic,
            ]),
        ),
        1 => (
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
            *g.pick(&[Interpolator::Bilinear, Interpolator::Bicubic]),
        ),
        2 => (
            EngineSpec::FixedPoint {
                frac_bits: g.u32_in(6, 14),
            },
            Interpolator::Bilinear,
        ),
        _ => (EngineSpec::Simd, Interpolator::Bilinear),
    }
}

/// Correct one plane through a single-plane corrector of `spec`, built
/// from the *same* compiled per-plane plan the frame corrector uses.
fn single_plane_reference(
    plan: &Arc<RemapPlan>,
    spec: &EngineSpec,
    interp: Interpolator,
    src: &Image<Gray8>,
) -> Result<Image<Gray8>, String> {
    let view_plan = ViewPlan::from_plans(FrameFormat::Gray8, vec![Arc::clone(plan)])
        .map_err(|e| e.to_string())?;
    let corrector = FrameCorrector::host(FrameFormat::Gray8, view_plan, spec, interp, 2)
        .map_err(|e| e.to_string())?;
    match corrector
        .correct_frame(&Frame::Gray8(src.clone()))
        .map_err(|e| e.to_string())?
    {
        (Frame::Gray8(out), _) => Ok(out),
        _ => Err("gray in, gray out".into()),
    }
}

#[test]
fn yuv420_frame_path_bit_exact_with_per_plane_engines() {
    proputil::check(
        "yuv420_frame_path_bit_exact_with_per_plane_engines",
        CASES,
        |g| {
            let (lens, view, sw, sh, yuv) = arb_workload(g);
            let (spec, interp) = arb_spec(g);
            let opts = PlanOptions::for_spec(&spec, interp);
            let plan = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, sw, sh, &opts);
            let corrector =
                FrameCorrector::host(FrameFormat::Yuv420, plan.clone(), &spec, interp, 2)
                    .map_err(|e| e.to_string())?;

            let (frame, report) = corrector
                .correct_frame(&Frame::Yuv420(yuv.clone()))
                .map_err(|e| e.to_string())?;
            let Frame::Yuv420(out) = frame else {
                return Err("yuv in, yuv out".into());
            };

            let srcs = [&yuv.y, &yuv.cb, &yuv.cr];
            let outs = [&out.y, &out.cb, &out.cr];
            let labels = FrameFormat::Yuv420.plane_labels();
            for (i, ((src, out), label)) in srcs.iter().zip(outs).zip(labels).enumerate() {
                let reference = single_plane_reference(plan.plane_plan(i), &spec, interp, src)?;
                ensure_eq!(
                    reference,
                    *out,
                    "plane {label} diverged ({} interp {})",
                    spec.name(),
                    interp.name()
                );
            }
            ensure_eq!(report.model.get("planes").copied(), Some(3.0));
            // the half-res chroma plan serves two planes, so it counts
            // twice in the merged frame total
            ensure!(
                report.invalid_pixels
                    == (0..3)
                        .map(|i| plan.plane_plan(i).invalid_pixels())
                        .sum::<u64>(),
                "merged invalid count must sum per plane"
            );
            Ok(())
        },
    );
}
