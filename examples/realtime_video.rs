//! Real-time video: run a synthetic panning fisheye stream through the
//! capture → correct → sink pipeline and report throughput and
//! latency, then switch the view mid-stream (PTZ) to show the LUT
//! rebuild cost.
//!
//! ```sh
//! cargo run --release --example realtime_video
//! ```

use std::time::Duration;

use fisheye::core::plan::{PlanOptions, RemapPlan};
use fisheye::prelude::*;
use fisheye::video::{run_pipeline, PipeConfig, ShiftVideo};

fn main() -> Result<(), fisheye::Error> {
    let (w, h) = (640u32, 480u32);
    let lens = FisheyeLens::equidistant_fov(w, h, 180.0);
    let view = PerspectiveView::centered(w, h, 90.0);
    let map = RemapMap::build(&lens, &view, w, h);
    let plan = RemapPlan::compile(&map, PlanOptions::default());
    let base = fisheye::img::scene::random_gray(w, h, 7);

    // ------------------------------------------------------------------
    // part 1: pipelined throughput, 1 vs N correction workers
    // ------------------------------------------------------------------
    println!("--- pipeline throughput (120 frames, {w}x{h}) ---");
    for workers in [1usize, 2, 4] {
        let src = Box::new(ShiftVideo::new(base.clone(), 3, 120));
        let report = run_pipeline(
            src,
            &plan,
            PipeConfig {
                workers,
                queue_capacity: 4,
                interp: Interpolator::Bilinear,
                ..PipeConfig::default()
            },
            |_, _| {},
        );
        println!(
            "{workers} worker(s): {:6.1} fps, latency p50 {:5.1} / p95 {:5.1} / max {:5.1} ms, reordered {}, pool hit {:.0}%",
            report.fps,
            report.p50_latency.as_secs_f64() * 1e3,
            report.p95_latency.as_secs_f64() * 1e3,
            report.max_latency.as_secs_f64() * 1e3,
            report.out_of_order,
            report.pool_hit_rate() * 100.0
        );
    }

    // ------------------------------------------------------------------
    // part 2: PTZ during a stream — the per-view LUT rebuild bill.
    // The operator glides along a smooth keyframed trajectory
    // (fisheye::geom::PtzPath), so every frame has a new view and pays
    // a LUT rebuild — the worst case for the LUT strategy (cf. F9).
    // ------------------------------------------------------------------
    println!("\n--- PTZ sweep along a smooth path (stateful corrector) ---");
    use fisheye::geom::{Keyframe, PtzPath};
    let path = PtzPath::new(vec![
        Keyframe {
            t: 0.0,
            view: PerspectiveView::centered(w, h, 90.0),
        },
        Keyframe {
            t: 1.0,
            view: PerspectiveView::centered(w, h, 60.0).look(35.0, -10.0),
        },
        Keyframe {
            t: 2.0,
            view: PerspectiveView::centered(w, h, 100.0).look(-40.0, 15.0),
        },
    ]);
    let mut corrector = Corrector::builder()
        .lens(lens)
        .view(view)
        .source(w, h)
        .build()?;
    let frame = base;
    let t0 = std::time::Instant::now();
    let views = path.sample(6.0); // 6 fps sweep for the demo printout
    let n_views = views.len();
    let (mut map_time, mut correct_time) = (Duration::ZERO, Duration::ZERO);
    for (i, v) in views.into_iter().enumerate() {
        let tf = std::time::Instant::now();
        corrector.set_view(v)?;
        let (_, report) = corrector.correct(&frame)?;
        map_time += corrector.map_time();
        correct_time += report.correct_time;
        println!(
            "frame {i:2}: pan {:+6.1}° tilt {:+5.1}° fov {:5.1}° -> {:5.1} ms",
            v.pan.to_degrees(),
            v.tilt.to_degrees(),
            v.h_fov.to_degrees(),
            tf.elapsed().as_secs_f64() * 1e3,
        );
    }
    println!(
        "swept {n_views} views in {:.0} ms (one LUT rebuild per view, as F9 predicts is the LUT's worst case)",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    println!(
        "\ntotals: {n_views} frames, map {:.1} ms, correct {:.1} ms",
        map_time.as_secs_f64() * 1e3,
        correct_time.as_secs_f64() * 1e3
    );
    Ok(())
}
