//! Dual-fisheye 360°: simulate a back-to-back two-camera rig,
//! composite the pair into a full equirectangular panorama, and
//! report seam quality — the consumer-360°-camera workload built on
//! the same correction engine.
//!
//! ```sh
//! cargo run --release --example panorama_360
//! ```

use fisheye::core::engine::EngineSpec;
use fisheye::core::synth::{capture_fisheye, World};
use fisheye::core::{execute_composite_host, CompositePlan, Interpolator, PlanOptions};
use fisheye::geom::CameraRig;
use fisheye::img::scene::{scene_by_name, Scene};
use fisheye::img::{Gray8, Image};

/// The world scene, rotated 180° in azimuth for the back camera.
struct Rotated<'a>(&'a dyn Scene);

impl Scene for Rotated<'_> {
    fn sample(&self, u: f64, v: f64) -> f32 {
        self.0.sample((u + 0.5).rem_euclid(1.0), v)
    }
}

fn main() {
    let out_dir = std::path::Path::new("target/example-out");
    std::fs::create_dir_all(out_dir).expect("create output dir");

    // the rig: two 195° equidistant cameras, back to back
    let rig = CameraRig::symmetric(640, 640, 195.0);
    println!(
        "rig: 2x {:.0}° lenses, overlap ring ±{:.1}°",
        rig.cameras()[0].lens.max_theta.to_degrees() * 2.0,
        rig.overlap_rad().to_degrees()
    );

    // capture both hemispheres of a spherical brick world
    let scene = scene_by_name("bricks").unwrap();
    let front = capture_fisheye(
        scene.as_ref(),
        World::Spherical,
        &rig.cameras()[0].lens,
        640,
        640,
        2,
    );
    let back = capture_fisheye(
        &Rotated(scene.as_ref()),
        World::Spherical,
        &rig.cameras()[1].lens,
        640,
        640,
        2,
    );

    // compile the composite plan and execute it
    let t0 = std::time::Instant::now();
    let opts = PlanOptions::for_specs(&[EngineSpec::Serial]);
    let plan = CompositePlan::compile_panorama(&rig, 1280, 640, &opts);
    println!(
        "composite plan: {:.1} ms, overlap covers {:.1}% of the panorama",
        t0.elapsed().as_secs_f64() * 1e3,
        plan.overlap_fraction() * 100.0
    );
    let t0 = std::time::Instant::now();
    let mut pano = Image::<Gray8>::new(1280, 640);
    execute_composite_host(
        &EngineSpec::Serial,
        Interpolator::Bilinear,
        &[&front, &back],
        &plan,
        None,
        None,
        &mut pano,
    )
    .expect("serial composite");
    println!(
        "composited 1280x640 panorama in {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // seam check: compare the typical luma step across the ±90° seams
    // with the step at control columns far from any seam — on a
    // textured scene both include scene contrast; a bad stitch shows
    // up as the seam mean exceeding the control mean
    let mean_step = |xs: &[u32]| {
        let mut total = 0i64;
        let mut n = 0i64;
        for &x in xs {
            for y in (40..600).step_by(7) {
                let a = pano.pixel(x - 2, y).0 as i64;
                let b = pano.pixel(x + 2, y).0 as i64;
                total += (a - b).abs();
                n += 1;
            }
        }
        total as f64 / n as f64
    };
    let seam = mean_step(&[1280 / 4, 3 * 1280 / 4]);
    let control = mean_step(&[1280 / 8, 5 * 1280 / 8]);
    println!("mean luma step: {seam:.1} at the camera seams vs {control:.1} at control columns");
    assert!(
        seam < control * 2.0 + 8.0,
        "seam artefacts dominate scene contrast"
    );

    let path = out_dir.join("panorama_360.pgm");
    fisheye::img::codec::save_pgm(&pano, &path).expect("save panorama");
    fisheye::img::codec::save_pgm(&front, out_dir.join("rig_front.pgm")).unwrap();
    fisheye::img::codec::save_pgm(&back, out_dir.join("rig_back.pgm")).unwrap();
    println!("wrote {}", path.display());
}
