//! F8 — resolution scaling across platforms.

use cellsim::{CellConfig, CellRunner};
use fisheye_core::{correct, Interpolator, TilePlan};
use gpusim::{GpuConfig, GpuRunner};
use streamsim::{FixedMapGen, StreamConfig};

use crate::table::{f1, Table};
use crate::workloads::{random_workload, resolution, time_median, Resolution};
use crate::Scale;

fn resolutions(scale: Scale) -> Vec<Resolution> {
    match scale {
        Scale::Quick => vec![resolution("QVGA"), resolution("VGA"), resolution("720p")],
        Scale::Full => vec![
            resolution("QVGA"),
            resolution("VGA"),
            resolution("720p"),
            resolution("1080p"),
            resolution("4K"),
        ],
    }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "F8 — resolution scaling (correction phase, fps)",
        &[
            "resolution",
            "pixels_M",
            "host_1thread_fps",
            "cell_6spe_fps",
            "gpu_fps",
            "stream_fps",
        ],
    );
    for res in resolutions(scale) {
        let w = random_workload(res, 8);
        let t = time_median(3, || {
            std::hint::black_box(correct(&w.frame, &w.map, Interpolator::Bilinear));
        });
        let host_fps = 1.0 / t;

        let fmap = w.map.to_fixed(12);
        let plan = TilePlan::build(&w.map, 64, 32, Interpolator::Bilinear);
        let cell_fps = CellRunner::new(CellConfig::default())
            .correct_frame(&w.frame, &fmap, &plan)
            .map(|(_, r)| r.fps)
            .unwrap_or(f64::NAN);

        let (_, gr) = GpuRunner::new(GpuConfig::default()).correct_frame(
            &w.frame,
            &w.map,
            Interpolator::Bilinear,
        );

        let gen = FixedMapGen::typical();
        let sr = streamsim::stream::analyze(&w.map, &gen, &StreamConfig::default());

        table.row(vec![
            res.name.to_string(),
            format!("{:.2}", res.w as f64 * res.h as f64 / 1e6),
            f1(host_fps),
            f1(cell_fps),
            f1(gr.fps),
            f1(sr.fps),
        ]);
    }
    table.note("host column measured (1 thread, this machine); cell/gpu/stream columns modeled");
    table.note("expected shape: every platform's fps falls ~linearly in pixel count; ordering stream/gpu > cell > 1-thread host holds throughout");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_fps_falls_with_pixels() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        for col in [3usize, 4, 5] {
            let fps: Vec<f64> = t.rows.iter().map(|r| r[col].parse().unwrap()).collect();
            for w in fps.windows(2) {
                assert!(
                    w[1] < w[0],
                    "column {col} must fall with resolution: {fps:?}"
                );
            }
        }
    }

    #[test]
    fn shape_accelerators_beat_single_host_thread() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        for r in &t.rows {
            let host: f64 = r[2].parse().unwrap();
            let cell: f64 = r[3].parse().unwrap();
            let gpu: f64 = r[4].parse().unwrap();
            assert!(cell > host, "{}: cell {cell} vs host {host}", r[0]);
            assert!(gpu > host, "{}: gpu {gpu} vs host {host}", r[0]);
        }
    }
}
