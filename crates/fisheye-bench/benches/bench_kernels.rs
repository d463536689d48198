//! Benches for the two application phases (behind T1/F1/F6/F9):
//! map generation (serial + parallel), correction per interpolator
//! (float and fixed paths), and direct no-LUT correction.

use fisheye_bench::timing::Group;
use fisheye_bench::workloads::{random_workload, resolution};
use fisheye_core::engine::execute_direct;
use fisheye_core::{correct, correct_fixed, Interpolator, RemapMap};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, Image};
use std::hint::black_box;

fn bench_mapgen() {
    let res = resolution("QVGA");
    let w = random_workload(res, 1);
    let mut g = Group::new("mapgen");
    g.bench("serial_qvga", || {
        black_box(RemapMap::build(&w.lens, &w.view, res.w, res.h));
    });
    let pool = ThreadPool::new(4);
    g.bench("parallel4_qvga", || {
        black_box(RemapMap::build_parallel(
            &w.lens,
            &w.view,
            res.w,
            res.h,
            &pool,
            Schedule::Static { chunk: None },
        ));
    });
    g.finish();
}

fn bench_correct() {
    let res = resolution("QVGA");
    let w = random_workload(res, 2);
    let mut g = Group::new("correct");
    for interp in Interpolator::ALL {
        g.bench(&format!("{}_qvga", interp.name()), || {
            black_box(correct(&w.frame, &w.map, interp));
        });
    }
    let fmap = w.map.to_fixed(12);
    g.bench("fixed12_qvga", || {
        black_box(correct_fixed(&w.frame, &fmap));
    });
    g.bench("direct_no_lut_qvga", || {
        let mut out = Image::<Gray8>::new(w.view.width, w.view.height);
        execute_direct(Interpolator::Bilinear, &w.frame, &w.lens, &w.view, &mut out)
            .expect("output sized to the view");
        black_box(out);
    });
    g.finish();
}

fn main() {
    bench_mapgen();
    bench_correct();
}
