//! Regenerates the evaluation (DESIGN.md §3): `repro <slug>` runs one
//! experiment of `experiments::all()`, `repro all` runs all of them in
//! report order, `repro smoke` the `experiments::SMOKE` set, and
//! `repro figures` writes the qualitative panels. `--full` selects
//! paper-scale resolutions. Tables print to stdout with their gates and
//! land as CSV in the canonical `results/` dir (override with
//! `FISHEYE_RESULTS_DIR`). When a gate fails, `repro` finishes the
//! requested runs and exits 1; an unknown name prints the valid ones
//! and exits 2.

use std::process::ExitCode;
use std::time::Instant;

use fisheye_bench::experiments::{self, Experiment};
use fisheye_bench::Scale;
use fisheye_core::synth::{capture_fisheye, World};
use fisheye_core::{correct, Interpolator, RemapMap};
use fisheye_geom::{FisheyeLens, OutputProjection, PerspectiveView};
use pixmap::draw;
use pixmap::scene::scene_by_name;
use pixmap::{Gray8, Image};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--full")
        .collect();
    let find = |name: &str| experiments::all().into_iter().find(|(s, _)| *s == name);
    let runs: Vec<Experiment> = match names[..] {
        ["all"] => experiments::all(),
        ["smoke"] => experiments::SMOKE.iter().filter_map(|s| find(s)).collect(),
        ["figures"] => {
            figures();
            return ExitCode::SUCCESS;
        }
        [name] => find(name).into_iter().collect(),
        _ => Vec::new(),
    };
    if runs.is_empty() {
        let slugs: Vec<&str> = experiments::all().iter().map(|(s, _)| *s).collect();
        eprintln!(
            "usage: repro <name> [--full]\nnames: all smoke figures {}",
            slugs.join(" ")
        );
        return ExitCode::from(2);
    }

    let mut failed = Vec::new();
    for (slug, run) in runs {
        let t0 = Instant::now();
        let table = run(scale);
        table.emit(slug);
        let failing = table.gates.iter().filter(|g| !g.passes());
        failed.extend(failing.map(|g| format!("{slug}: {g}")));
        eprintln!("[{slug} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    for f in &failed {
        eprintln!("repro: gate {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// For several scenes, a side-by-side panel of (distorted capture |
/// corrected perspective | cylindrical panorama), with the image
/// circle and center annotated on the capture, written to
/// `target/figures/*.pgm` (and `.bmp` for easy viewing).
fn figures() {
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create figure dir");

    let side = 480u32;
    let lens = FisheyeLens::equidistant_fov(side, side, 180.0);
    let view = PerspectiveView::centered(side, side, 95.0);
    let cyl = OutputProjection::cylinder_180(side, side / 2, 32.0);

    let persp_map = RemapMap::build(&lens, &view, side, side);
    let cyl_map = RemapMap::build_projection(&lens, &cyl, side, side);

    for scene_name in ["grid", "circles", "bricks", "checker"] {
        let scene = scene_by_name(scene_name).unwrap();
        let captured = capture_fisheye(scene.as_ref(), World::Spherical, &lens, side, side, 2);

        // annotate the capture: image circle + center cross
        let mut annotated = captured.clone();
        draw::circle(
            &mut annotated,
            lens.cx as i64,
            lens.cy as i64,
            lens.image_circle_radius() as i64,
            Gray8(255),
        );
        draw::cross(
            &mut annotated,
            lens.cx as i64,
            lens.cy as i64,
            8,
            Gray8(255),
        );

        let corrected = correct(&captured, &persp_map, Interpolator::Bilinear);
        let panorama = correct(&captured, &cyl_map, Interpolator::Bilinear);

        // pad the panorama to panel height for stacking
        let mut pano_panel: Image<Gray8> = Image::new(side, side);
        pano_panel.blit(&panorama, 0, side / 4);

        let panel = draw::hstack(&[&annotated, &corrected, &pano_panel], 8);
        let pgm = out_dir.join(format!("figure_{scene_name}.pgm"));
        pixmap::codec::save_pgm(&panel, &pgm).expect("write figure");
        let bmp = out_dir.join(format!("figure_{scene_name}.bmp"));
        pixmap::codec::save_bmp(&pixmap::scene::colorize(&panel), &bmp).expect("write bmp");
        println!(
            "{scene_name:>8}: wrote {} ({}x{})",
            pgm.display(),
            panel.width(),
            panel.height()
        );
    }
    println!("\npanels: [annotated capture | corrected 95° view | 180° cylindrical panorama]");
}
