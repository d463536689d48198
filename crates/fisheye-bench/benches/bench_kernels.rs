//! Benches for the two application phases (behind T1/F1/F6/F9):
//! map generation (serial + parallel), correction per interpolator
//! (float and fixed paths), and direct no-LUT correction — the golden
//! references — plus the `engines` group: the `simd` and `fixed:12`
//! host engines over a compiled plan, at three output shapes.

use fisheye_bench::timing::Group;
use fisheye_bench::workloads::{random_workload, resolution};
use fisheye_core::engine::{execute_direct, execute_host_post, EngineSpec};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{correct, correct_fixed, Interpolator, RemapMap};
use fisheye_geom::{FisheyeLens, PerspectiveView};
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

/// The per-frame kernels the served `simd` and `fixed` frames run:
/// `execute_host_post` on Gray8 over a plan compiled for both specs, at
/// a thumbnail, QVGA and VGA output, each viewed at 80° from a 180°
/// fisheye frame 2.5× (thumb) or 2× its size.
fn bench_engines() {
    let specs = [EngineSpec::Simd, EngineSpec::FixedPoint { frac_bits: 12 }];
    let opts = PlanOptions::for_specs(&specs);
    let mut g = Group::new("engines");
    for (shape, (ow, oh), (sw, sh)) in [
        ("thumb", (64, 48), (160, 120)),
        ("qvga", (320, 240), (640, 480)),
        ("vga", (640, 480), (1280, 960)),
    ] {
        let lens = FisheyeLens::equidistant_fov(sw, sh, 180.0);
        let view = PerspectiveView::centered(ow, oh, 80.0);
        let plan = RemapPlan::compile(&RemapMap::build(&lens, &view, sw, sh), opts.clone());
        let frame = pixmap::scene::random_gray(sw, sh, 7);
        let mut out = Image::<Gray8>::new(ow, oh);
        for spec in &specs {
            g.bench(&format!("{}_{shape}", spec.name()), || {
                execute_host_post(
                    spec,
                    Interpolator::Bilinear,
                    &frame,
                    &plan,
                    None,
                    None,
                    &mut out,
                )
                .expect("frame and output sized to the plan");
                black_box(&out);
            });
        }
    }
    g.finish();
}

fn main() {
    bench_mapgen();
    bench_correct();
    bench_engines();
}
