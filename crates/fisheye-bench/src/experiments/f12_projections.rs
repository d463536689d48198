//! F12 — output-projection comparison: perspective vs cylindrical vs
//! equirectangular dewarping of the same capture.
//!
//! Different projections stress the platforms differently: the wide
//! panoramas sample the whole image circle (coverage), need taller
//! line-buffer windows on the streaming accelerator, and change the
//! gather locality the GPU sees.

use fisheye_core::{correct, Interpolator, RemapMap};
use fisheye_geom::{OutputProjection, PerspectiveView};
use gpusim::{GpuConfig, GpuRunner};
use par_runtime::{Schedule, ThreadPool};
use streamsim::stream::analyze_line_buffers;

use crate::table::{f1, f2, Table};
use crate::workloads::{default_resolution, random_workload, resolution, time_median};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = match scale {
        Scale::Quick => resolution("VGA"),
        Scale::Full => default_resolution(scale),
    };
    let w = random_workload(res, 29);
    let out_w = res.w;
    let out_h = res.h / 2;

    let projections = [
        OutputProjection::Perspective(PerspectiveView::centered(out_w, out_h, 100.0)),
        OutputProjection::cylinder_180(out_w, out_h, 35.0),
        OutputProjection::equirect_hemisphere(out_w, out_h),
    ];

    let mut table = Table::new(
        format!("F12 — output projections ({}x{} output)", out_w, out_h),
        &[
            "projection",
            "coverage",
            "ms_per_frame",
            "linebuf_rows",
            "gpu_hit_rate",
        ],
    );
    // map generation is trig-bound, so F12 builds its three maps on
    // the pool (same phase-1 kernel F1 measures for perspective views)
    let pool = ThreadPool::new(4);
    for proj in projections {
        let map = RemapMap::build_projection_parallel(
            &w.lens,
            &proj,
            res.w,
            res.h,
            &pool,
            Schedule::Static { chunk: None },
        );
        let t = time_median(3, || {
            std::hint::black_box(correct(&w.frame, &map, Interpolator::Bilinear));
        });
        let lb = analyze_line_buffers(&map, Interpolator::Bilinear, 1);
        let (_, gr) = GpuRunner::new(GpuConfig::default()).correct_frame(
            &w.frame,
            &map,
            Interpolator::Bilinear,
        );
        table.row(vec![
            proj.name().to_string(),
            f2(map.coverage()),
            f2(t * 1e3),
            lb.max_rows_needed.to_string(),
            f1(gr.cache_hit_rate * 100.0),
        ]);
    }
    table.note("same capture, three dewarping modes; correction time measured, locality modeled");
    table.note("expected shape: panoramas reach full coverage; wide sweeps need taller line-buffer windows than the perspective view");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_panoramas_cover_more() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        let cov = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(cov("cylindrical") > 0.95);
        assert!(cov("equirectangular") > 0.95);
        // per-frame times are all positive and same order of magnitude
        let times: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        for w in times.windows(2) {
            assert!(w[1] > 0.0 && w[0] / w[1] < 5.0 && w[1] / w[0] < 5.0);
        }
    }
}
