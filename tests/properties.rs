//! Property-based integration tests over the geometry and correction
//! stack, on the in-tree `proputil` harness.

use std::sync::Arc;

use fisheye::core::engine::{build_host, execute_host_post, HostCtx, HostEnv};
use fisheye::core::post::PostChannel;
use fisheye::core::{correct, correct_fixed};
use fisheye::geom::{FisheyeLens, LensModel, PerspectiveView, Vec3};
use fisheye::prelude::*;
use proputil::{ensure, ensure_eq, Gen};

const CASES: u32 = 64;

fn arb_model(g: &mut Gen) -> LensModel {
    *g.pick(&[
        LensModel::Equidistant,
        LensModel::Equisolid,
        LensModel::Stereographic,
        LensModel::Orthographic,
    ])
}

/// unproject ∘ project is the identity on in-FOV rays for every
/// lens model and focal length.
#[test]
fn project_unproject_roundtrip() {
    proputil::check("project_unproject_roundtrip", CASES, |g| {
        let model = arb_model(g);
        let fov_deg = g.f64_in(60.0, 175.0);
        let theta_frac = g.f64_in(0.01, 0.95);
        let phi = g.f64_in(0.0, std::f64::consts::TAU);
        let lens = FisheyeLens::with_model_fov(model, 800, 600, fov_deg);
        let theta = lens.max_theta * theta_frac;
        let ray = Vec3::new(
            theta.sin() * phi.cos(),
            theta.sin() * phi.sin(),
            theta.cos(),
        );
        if let Some((px, py)) = lens.project(ray) {
            let back = lens.unproject(px, py).expect("projected point unprojects");
            ensure!((back - ray).norm() < 1e-6, "{model:?} {ray:?} -> {back:?}");
        }
        Ok(())
    });
}

/// View pixel_ray ∘ project is the identity for arbitrary PTZ.
#[test]
fn view_ray_roundtrip() {
    proputil::check("view_ray_roundtrip", CASES, |g| {
        let pan = g.f64_in(-80.0, 80.0);
        let tilt = g.f64_in(-60.0, 60.0);
        let fov = g.f64_in(30.0, 140.0);
        let px = g.f64_in(0.0, 320.0);
        let py = g.f64_in(0.0, 240.0);
        let view = PerspectiveView::centered(320, 240, fov).look(pan, tilt);
        let ray = view.pixel_ray(px, py);
        let (bx, by) = view.project(ray).expect("forward ray");
        ensure!(
            (bx - px).abs() < 1e-6 && (by - py).abs() < 1e-6,
            "pan={pan} tilt={tilt} fov={fov} ({px},{py}) -> ({bx},{by})"
        );
        Ok(())
    });
}

/// The remap LUT never points outside the source frame and the
/// corrected image never panics, for arbitrary view geometry.
#[test]
fn map_entries_always_in_bounds() {
    proputil::check("map_entries_always_in_bounds", CASES, |g| {
        let pan = g.f64_in(-90.0, 90.0);
        let tilt = g.f64_in(-45.0, 45.0);
        let fov = g.f64_in(30.0, 160.0);
        let lens = FisheyeLens::equidistant_fov(96, 96, 180.0);
        let view = PerspectiveView::centered(48, 48, fov).look(pan, tilt);
        let map = RemapMap::build(&lens, &view, 96, 96);
        for y in 0..48 {
            for e in map.row(y) {
                if e.is_valid() {
                    ensure!(e.sx >= 0.0 && e.sx < 96.0, "sx={} at row {y}", e.sx);
                    ensure!(e.sy >= 0.0 && e.sy < 96.0, "sy={} at row {y}", e.sy);
                }
            }
        }
        let frame = fisheye::img::scene::random_gray(96, 96, 1);
        let out = correct(&frame, &map, Interpolator::Bilinear);
        ensure_eq!(out.dims(), (48, 48));
        Ok(())
    });
}

/// Fixed-point correction converges to float correction as weight
/// bits increase (monotone PSNR within noise), for random frames.
#[test]
fn fixed_converges_to_float() {
    proputil::check("fixed_converges_to_float", CASES, |g| {
        let seed = g.u64_in(0, 999);
        let lens = FisheyeLens::equidistant_fov(64, 64, 180.0);
        let view = PerspectiveView::centered(32, 32, 90.0);
        let map = RemapMap::build(&lens, &view, 64, 64);
        let frame = fisheye::img::scene::random_gray(64, 64, seed);
        let float = correct(&frame, &map, Interpolator::Bilinear);
        let p4 = fisheye::img::metrics::psnr(&float, &correct_fixed(&frame, &map.to_fixed(4)));
        let p12 = fisheye::img::metrics::psnr(&float, &correct_fixed(&frame, &map.to_fixed(12)));
        ensure!(p12 >= p4 - 0.5, "seed={seed} p4={p4} p12={p12}");
        Ok(())
    });
}

/// Parallel correction (the `smp` engine) is bit-exact vs serial for
/// arbitrary odd dimensions, thread counts and schedules.
#[test]
fn parallel_always_matches_serial() {
    proputil::check("parallel_always_matches_serial", CASES, |g| {
        let w = g.u32_in(17, 90);
        let h = g.u32_in(13, 70);
        let threads = g.usize_in(1, 6);
        let chunk = g.usize_in(1, 8);
        let lens = FisheyeLens::equidistant_fov(101, 83, 180.0);
        let view = PerspectiveView::centered(w, h, 95.0);
        let map = RemapMap::build(&lens, &view, 101, 83);
        let frame = fisheye::img::scene::random_gray(101, 83, 5);
        let serial = correct(&frame, &map, Interpolator::Bilinear);
        let pool = ThreadPool::new(threads);
        let env = HostEnv {
            pool: Some(&pool),
            geometry: None,
        };
        let spec = EngineSpec::Smp {
            schedule: Schedule::Dynamic { chunk },
        };
        let plan = RemapPlan::compile(&map, PlanOptions::for_spec(&spec, Interpolator::Bilinear));
        let mut par = Image::new(w, h);
        execute_host_post(
            &spec,
            Interpolator::Bilinear,
            &frame,
            &plan,
            None,
            &env,
            &mut par,
        )
        .map_err(|e| e.to_string())?;
        ensure_eq!(serial, par, "w={w} h={h} threads={threads} chunk={chunk}");
        Ok(())
    });
}

/// An identity post stage — unset, or built from inert parts (zero
/// grade strength, linear curve, no dither) — is invisible on every
/// registry backend: byte-identical output and an unchanged plan
/// request digest, so it can never split the serving layer's cache.
#[test]
fn identity_post_stage_is_invisible_on_every_backend() {
    proputil::check(
        "identity_post_stage_is_invisible_on_every_backend",
        12,
        |g| {
            let out_w = g.u32_in(5, 40);
            let out_h = g.u32_in(5, 40);
            let pan = g.f64_in(-30.0, 30.0);
            let seed = g.u64_in(0, 99);
            let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
            let view = PerspectiveView::centered(out_w, out_h, 90.0).look(pan, 0.0);
            let frame = fisheye::img::scene::random_gray(64, 48, seed);
            // inert by construction, not by omission: every knob touched
            let inert = PostStage::identity()
                .with_grade(Arc::new(Lut3d::builtin("warm").expect("builtin lut")), 0.0)
                .with_tone_map(ToneMap::Linear);
            ensure!(inert.is_identity(), "zero-strength warm grade is inert");
            for spec in EngineSpec::registry() {
                let build = |post: Option<&PostStage>| {
                    let mut b = Corrector::<Gray8>::builder()
                        .lens(lens)
                        .view(view)
                        .source(64, 48)
                        .backend(spec)
                        .interp(Interpolator::Bilinear);
                    if let Some(stage) = post {
                        b = b.post_stage(stage.clone());
                    }
                    b.build()
                        .unwrap_or_else(|e| panic!("{} builds: {e}", spec.name()))
                };
                let plain = build(None);
                let graded = build(Some(&inert));
                ensure_eq!(
                    plain.request_digest(),
                    graded.request_digest(),
                    "{}: identity stage must not re-key the plan cache",
                    spec.name()
                );
                let (a, _) = plain.correct(&frame).expect("plain correct");
                let (b, _) = graded.correct(&frame).expect("graded correct");
                ensure_eq!(a, b, "{}: identity stage changed bytes", spec.name());
            }
            Ok(())
        },
    );
}

/// The fused post path is byte-identical to correct-then-apply_row for
/// arbitrary stages (any builtin LUT, strength, curve, dither seed,
/// channel) on every plan-driven host backend, each reporting
/// `fused=1` for an active stage — including the degenerate 1×1
/// output and the all-invalid map a backward-looking view produces.
#[test]
fn fused_post_always_matches_two_pass() {
    proputil::check("fused_post_always_matches_two_pass", CASES, |g| {
        let shape = g.u32_in(0, 8);
        let (out_w, out_h, pan) = match shape {
            // the smallest legal output: one pixel, one span
            0 => (1, 1, 0.0),
            // looking straight backward through a 180° lens: every
            // map entry invalid, so post only ever sees gap fill
            1 => (24, 20, 180.0),
            _ => (g.u32_in(3, 33), g.u32_in(3, 33), g.f64_in(-40.0, 40.0)),
        };
        let lens = FisheyeLens::equidistant_fov(48, 40, 180.0);
        let view = PerspectiveView::centered(out_w, out_h, 90.0).look(pan, 0.0);
        let map = RemapMap::build(&lens, &view, 48, 40);
        let frame = fisheye::img::scene::random_gray(48, 40, g.u64_in(0, 99));

        let lut_name = *g.pick(&["identity", "warm", "cool", "noir"]);
        let strength = g.f64_in(0.0, 1.0) as f32;
        let tone = *g.pick(&[ToneMap::Linear, ToneMap::McFace]);
        let mut stage = PostStage::identity()
            .with_grade(
                Arc::new(Lut3d::builtin(lut_name).expect("builtin lut")),
                strength,
            )
            .with_tone_map(tone);
        if g.bool() {
            stage = stage.with_dither(DitherSeed(g.u64_in(0, u64::MAX)));
        }
        let channel = *g.pick(&[PostChannel::Luma, PostChannel::Chroma, PostChannel::Red]);
        let post = stage.compile(channel);

        let specs = [
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
            EngineSpec::Simd,
            EngineSpec::FixedPoint { frac_bits: 12 },
        ];
        let threads = g.usize_in(1, 5);
        for spec in specs {
            let plan =
                RemapPlan::compile(&map, PlanOptions::for_spec(&spec, Interpolator::Bilinear));
            let engine = build_host(
                &spec,
                &HostCtx {
                    interp: Interpolator::Bilinear,
                    threads,
                    geometry: None,
                },
            )
            .expect("host engine builds");
            let mut fused = Image::new(out_w, out_h);
            let report = engine
                .correct_frame_post(&frame, &plan, Some(&post), &mut fused)
                .expect("fused correct");
            let want = (!post.is_noop()).then_some(&1.0);
            ensure_eq!(report.model.get("fused"), want, "{} fused", spec.name());
            let mut two = Image::new(out_w, out_h);
            engine
                .correct_frame(&frame, &plan, &mut two)
                .expect("plain correct");
            for (y, row) in two.pixels_mut().chunks_mut(out_w as usize).enumerate() {
                post.apply_row(row, y as u32);
            }
            ensure_eq!(
                fused,
                two,
                "{} {out_w}x{out_h} pan={pan} lut={lut_name} s={strength} {tone:?} {channel:?}",
                spec.name()
            );
        }
        Ok(())
    });
}

/// Tile footprints always contain every tap their tile needs
/// (correcting from the cropped footprint = correcting from the
/// full frame), for arbitrary tile shapes.
#[test]
fn footprints_always_sufficient() {
    proputil::check("footprints_always_sufficient", CASES, |g| {
        let tw = g.u32_in(4, 40);
        let th = g.u32_in(4, 40);
        let lens = FisheyeLens::equidistant_fov(128, 96, 180.0);
        let view = PerspectiveView::centered(64, 48, 100.0);
        let map = RemapMap::build(&lens, &view, 128, 96);
        let frame = fisheye::img::scene::random_gray(128, 96, 6);
        let full = correct(&frame, &map, Interpolator::Bilinear);
        let plan = TilePlan::build(&map, tw, th);
        for job in &plan.jobs {
            if job.src.is_empty() {
                continue;
            }
            let local = frame.crop(job.src);
            for y in job.out.y0..job.out.y1 {
                for x in job.out.x0..job.out.x1 {
                    let e = map.entry(x, y);
                    if !e.is_valid() {
                        continue;
                    }
                    let got = Interpolator::Bilinear.sample(
                        &local,
                        e.sx - job.src.x0 as f32,
                        e.sy - job.src.y0 as f32,
                    );
                    ensure_eq!(got, full.pixel(x, y), "tile {tw}x{th} at ({x},{y})");
                }
            }
        }
        Ok(())
    });
}
