//! Property-based tests of the composite plan layer: executing a
//! [`CompositePlan`] must be bit-exact with the two-pass reference
//! (per-source correction + weighted blend) on every host backend and
//! arbitrary rigs, the prequantized blend weights must partition to
//! unity over every covered pixel, degenerate rigs (one camera, zero
//! overlap) must collapse to plain remaps, and stereo rectification
//! must keep both eyes epipolar-row-aligned for arbitrary rig
//! geometry.
//!
//! Runs on the in-tree `proputil` harness (seeded cases, halving
//! shrinker) — see DESIGN.md §5 for why no external property-test
//! crate is used.

use fisheye_core::composite::{compose_layers, compose_two_pass, CompositePlan, StereoPlan};
use fisheye_core::engine::EngineSpec;
use fisheye_core::plan::{correct_plan, PlanOptions};
use fisheye_core::{correct_fixed_into, execute_composite_host, Interpolator};
use fisheye_geom::{CameraRig, FisheyeLens, Mat3, MountedLens, StereoRig, Vec3};
use pixmap::{Gray8, Image};
use proputil::{ensure, ensure_eq, Gen};

const CASES: u32 = 32;

/// A random multi-camera rig with one random source frame per camera.
/// Half the cases are the classic back-to-back symmetric pair (wide
/// overlap band), the rest are 1–3 camera rings, so exclusive spans,
/// blend spans, and uncovered regions are all exercised.
fn arb_rig(g: &mut Gen) -> (CameraRig, Vec<Image<Gray8>>) {
    let sw = g.u32_in(24, 65);
    let sh = g.u32_in(24, 65);
    let rig = if g.bool() {
        CameraRig::symmetric(sw, sh, g.f64_in(185.0, 210.0))
    } else {
        let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(100.0, 200.0));
        CameraRig::ring(lens, g.usize_in(1, 3))
    };
    let frames = (0..rig.len())
        .map(|_| pixmap::scene::random_gray(sw, sh, g.u64_any()))
        .collect();
    (rig, frames)
}

fn arb_out_dims(g: &mut Gen) -> (u32, u32) {
    (g.u32_in(16, 65), g.u32_in(8, 49))
}

fn arb_interp(g: &mut Gen) -> Interpolator {
    *g.pick(&[
        Interpolator::Nearest,
        Interpolator::Bilinear,
        Interpolator::Bicubic,
    ])
}

#[test]
fn serial_and_smp_bit_exact_with_two_pass_reference() {
    proputil::check(
        "serial_and_smp_bit_exact_with_two_pass_reference",
        CASES,
        |g| {
            let (rig, frames) = arb_rig(g);
            let (ow, oh) = arb_out_dims(g);
            let interp = arb_interp(g);
            let plan = CompositePlan::compile_panorama(&rig, ow, oh, &PlanOptions::default());
            let srcs: Vec<&Image<Gray8>> = frames.iter().collect();
            let reference = compose_two_pass(&srcs, &plan, interp);
            let pool = par_runtime::ThreadPool::new(g.usize_in(2, 4));
            for spec in [
                EngineSpec::Serial,
                EngineSpec::Smp {
                    schedule: par_runtime::Schedule::Static { chunk: None },
                },
            ] {
                let mut out = Image::new(ow, oh);
                execute_composite_host(&spec, interp, &srcs, &plan, None, Some(&pool), &mut out)
                    .map_err(|e| format!("{}: {e}", spec.name()))?;
                ensure_eq!(out, reference, "{} interp {}", spec.name(), interp.name());
            }
            Ok(())
        },
    );
}

#[test]
fn simd_bit_exact_with_two_pass_reference() {
    proputil::check("simd_bit_exact_with_two_pass_reference", CASES, |g| {
        let (rig, frames) = arb_rig(g);
        let (ow, oh) = arb_out_dims(g);
        // the SIMD kernel is bilinear-only by contract
        let plan = CompositePlan::compile_panorama(&rig, ow, oh, &PlanOptions::default());
        let srcs: Vec<&Image<Gray8>> = frames.iter().collect();
        let reference = compose_two_pass(&srcs, &plan, Interpolator::Bilinear);
        let mut out = Image::new(ow, oh);
        execute_composite_host(
            &EngineSpec::Simd,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            None,
            &mut out,
        )
        .map_err(|e| format!("simd: {e}"))?;
        ensure_eq!(out, reference);
        Ok(())
    });
}

#[test]
fn fixed_bit_exact_with_quantized_layer_reference() {
    proputil::check(
        "fixed_bit_exact_with_quantized_layer_reference",
        CASES,
        |g| {
            let (rig, frames) = arb_rig(g);
            let (ow, oh) = arb_out_dims(g);
            let frac_bits = g.u32_in(6, 14);
            let opts = PlanOptions {
                frac_bits: vec![frac_bits],
                ..PlanOptions::default()
            };
            let plan = CompositePlan::compile_panorama(&rig, ow, oh, &opts);
            let srcs: Vec<&Image<Gray8>> = frames.iter().collect();
            // reference: per-camera fixed-point correction, then the
            // weighted blend over the full layers
            let layers: Vec<Image<Gray8>> = plan
                .sources()
                .iter()
                .zip(&srcs)
                .map(|(sp, s)| {
                    let lut = sp.fixed(frac_bits).ok_or("eager fixed LUT missing")?;
                    let mut l = Image::new(ow, oh);
                    correct_fixed_into(s, lut, &mut l);
                    Ok(l)
                })
                .collect::<Result<_, String>>()?;
            let refs: Vec<&Image<Gray8>> = layers.iter().collect();
            let reference = compose_layers(&plan, &refs);
            let mut out = Image::new(ow, oh);
            execute_composite_host(
                &EngineSpec::FixedPoint { frac_bits },
                Interpolator::Bilinear,
                &srcs,
                &plan,
                None,
                None,
                &mut out,
            )
            .map_err(|e| format!("fixed:{frac_bits}: {e}"))?;
            ensure_eq!(out, reference, "frac_bits {frac_bits}");
            Ok(())
        },
    );
}

#[test]
fn blend_weights_partition_to_unity() {
    proputil::check("blend_weights_partition_to_unity", CASES, |g| {
        let (rig, _) = arb_rig(g);
        let (ow, oh) = arb_out_dims(g);
        let plan = CompositePlan::compile_panorama(&rig, ow, oh, &PlanOptions::default());
        let mut uncovered = 0u64;
        for y in 0..oh {
            for x in 0..ow {
                match plan.weights_at(x, y) {
                    Some(q) => {
                        let sum: u32 = q.iter().map(|&w| w as u32).sum();
                        ensure_eq!(sum, 255, "weights at ({x},{y}): {q:?}");
                    }
                    None => uncovered += 1,
                }
            }
        }
        // every output pixel is either covered with unity weights or
        // accounted for by the plan's uncovered census
        ensure_eq!(uncovered, plan.uncovered_pixels());
        Ok(())
    });
}

#[test]
fn single_camera_composite_is_plain_remap() {
    proputil::check("single_camera_composite_is_plain_remap", CASES, |g| {
        let sw = g.u32_in(24, 65);
        let sh = g.u32_in(24, 65);
        let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(120.0, 200.0));
        let rig = CameraRig::new(vec![MountedLens::with_rotation(lens, Mat3::IDENTITY)]);
        let (ow, oh) = arb_out_dims(g);
        let interp = arb_interp(g);
        let plan = CompositePlan::compile_panorama(&rig, ow, oh, &PlanOptions::default());
        ensure_eq!(plan.blend_pixels(), 0, "one camera cannot blend");
        let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
        let reference = correct_plan(&frame, &plan.sources()[0], interp);
        let mut out = Image::new(ow, oh);
        execute_composite_host(
            &EngineSpec::Serial,
            interp,
            &[&frame],
            &plan,
            None,
            None,
            &mut out,
        )
        .map_err(|e| format!("serial: {e}"))?;
        ensure_eq!(out, reference, "interp {}", interp.name());
        Ok(())
    });
}

#[test]
fn zero_overlap_rigs_never_blend() {
    proputil::check("zero_overlap_rigs_never_blend", CASES, |g| {
        // two narrow cameras back to back: fields of view well under a
        // hemisphere each, so no output pixel sees both
        let sw = g.u32_in(24, 65);
        let sh = g.u32_in(24, 65);
        let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(60.0, 120.0));
        let rig = CameraRig::ring(lens, 2);
        let (ow, oh) = arb_out_dims(g);
        let plan = CompositePlan::compile_panorama(&rig, ow, oh, &PlanOptions::default());
        ensure_eq!(plan.blend_pixels(), 0, "disjoint cameras must not blend");
        ensure!(
            plan.uncovered_pixels() > 0,
            "narrow rig cannot cover the sphere"
        );
        let frames: Vec<Image<Gray8>> = (0..2)
            .map(|_| pixmap::scene::random_gray(sw, sh, g.u64_any()))
            .collect();
        let srcs: Vec<&Image<Gray8>> = frames.iter().collect();
        let reference = compose_two_pass(&srcs, &plan, Interpolator::Bilinear);
        let mut out = Image::new(ow, oh);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            None,
            &mut out,
        )
        .map_err(|e| format!("serial: {e}"))?;
        ensure_eq!(out, reference);
        Ok(())
    });
}

#[test]
fn stereo_rectified_pairs_stay_row_aligned() {
    proputil::check("stereo_rectified_pairs_stay_row_aligned", CASES, |g| {
        let sw = g.u32_in(64, 161);
        let lens = FisheyeLens::equidistant_fov(sw, sw, g.f64_in(150.0, 200.0));
        let separation = g.f64_in(0.05, 0.5);
        // toe the cameras inward/outward a few degrees — rectification
        // quality must not depend on the mounts being parallel
        let toe = g.f64_in(-5.0, 5.0).to_radians();
        let rig = StereoRig::new(
            MountedLens::with_rotation(lens, Mat3::rot_y(toe)),
            MountedLens::with_rotation(lens, Mat3::rot_y(-toe)),
            Vec3::new(separation, 0.0, 0.0),
        );
        let ow = g.u32_in(32, 97);
        let oh = g.u32_in(24, 65);
        let h_fov = g.f64_in(100.0, 160.0);
        let v_fov = g.f64_in(70.0, 110.0);
        let plan = StereoPlan::compile(&rig, ow, oh, h_fov, v_fov, &PlanOptions::default());
        ensure_eq!((plan.left.width(), plan.left.height()), (ow, oh));
        ensure_eq!((plan.right.width(), plan.right.height()), (ow, oh));
        let err = fisheye_geom::row_alignment_error(&rig, &plan.pair, &[0.5, 1.5, 10.0]);
        ensure!(err < 1e-6, "row misalignment {err} px");
        Ok(())
    });
}
