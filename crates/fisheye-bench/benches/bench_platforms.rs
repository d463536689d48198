//! Benches for the platform models (behind T1/F3/F4/F5/T3): a full
//! modeled frame on each simulated platform, plus the tiling analysis
//! they consume.

use cellsim::{CellConfig, CellRunner};
use fisheye_bench::timing::Group;
use fisheye_bench::workloads::{random_workload, resolution};
use fisheye_core::{Interpolator, TilePlan};
use gpusim::{GpuConfig, GpuRunner};
use std::hint::black_box;
use streamsim::{FixedMapGen, StreamConfig};

fn main() {
    let res = resolution("QVGA");
    let w = random_workload(res, 3);
    let fmap = w.map.to_fixed(12);
    let plan = TilePlan::build(&w.map, 32, 16);
    let mut g = Group::new("platform_models");
    g.bench("tile_plan_qvga", || {
        black_box(TilePlan::build(&w.map, 32, 16));
    });
    let cell = CellRunner::new(CellConfig::default());
    g.bench("cell_frame_qvga", || {
        black_box(cell.correct_frame(&w.frame, &fmap, &plan).unwrap());
    });
    let gpu = GpuRunner::new(GpuConfig::default());
    g.bench("gpu_frame_qvga", || {
        black_box(gpu.correct_frame(&w.frame, &w.map, Interpolator::Bilinear));
    });
    let gen = FixedMapGen::typical();
    g.bench("stream_analysis_qvga", || {
        black_box(streamsim::stream::analyze(
            &w.map,
            &gen,
            &StreamConfig::default(),
        ));
    });
    g.bench("stream_mapgen_datapath_qvga", || {
        let mut gen = FixedMapGen::typical();
        black_box(gen.generate(&w.lens, &w.view, res.w, res.h));
    });
    g.finish();
}
