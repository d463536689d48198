//! Bench for the video pipeline (behind F10): end-to-end frames
//! through capture → correct → sink at a small size.

use fisheye_bench::timing::Group;
use fisheye_bench::workloads::{random_workload, resolution};
use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{FrameFormat, ViewPlan};
use fisheye_core::Interpolator;
use std::hint::black_box;
use std::sync::Arc;
use videopipe::{run_frame_pipeline, PipeConfig, ShiftVideo};

fn main() {
    let res = resolution("QVGA");
    let w = random_workload(res, 9);
    let plan = ViewPlan::from_plans(
        FrameFormat::Gray8,
        vec![Arc::new(w.plan_for(&EngineSpec::Serial))],
    )
    .expect("a gray8 view plan is its one full-res plan");
    let mut g = Group::new("video_pipeline");
    for workers in [1usize, 2] {
        g.bench(&format!("30frames_qvga_{workers}w"), || {
            let src = Box::new(ShiftVideo::new(w.frame.clone(), 2, 30));
            black_box(run_frame_pipeline(
                src,
                &plan,
                PipeConfig {
                    workers,
                    queue_capacity: 4,
                    interp: Interpolator::Bilinear,
                    ..PipeConfig::default()
                },
                |_, _| {},
            ));
        });
    }
    g.finish();
}
