//! F3 — Cell BE: fps vs number of SPEs, single vs double buffering.

use cellsim::{CellConfig, CellRunner};
use fisheye_core::{Interpolator, TilePlan};

use crate::table::{f1, f2, Table};
use crate::workloads::{default_resolution, random_workload};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let w = random_workload(res, 3);
    let fmap = w.map.to_fixed(12);
    let plan = TilePlan::build(&w.map, 64, 32, Interpolator::Bilinear);

    let mut table = Table::new(
        format!("F3 — Cell BE scaling ({}, 64x32 tiles)", res.name),
        &[
            "spes",
            "fps_double_buf",
            "fps_single_buf",
            "gain",
            "speedup_vs_1spe",
        ],
    );
    let mut fps1 = None;
    for n in 1..=6usize {
        let run_cfg = |double_buffer| {
            let runner = CellRunner::new(CellConfig {
                n_spes: n,
                double_buffer,
                ..Default::default()
            });
            let (_, report) = runner
                .correct_frame(&w.frame, &fmap, &plan)
                .expect("tiles must fit the local store");
            report.fps
        };
        let fd = run_cfg(true);
        let fs = run_cfg(false);
        if fps1.is_none() {
            fps1 = Some(fd);
        }
        table.row(vec![
            n.to_string(),
            f1(fd),
            f1(fs),
            f2(fd / fs),
            f2(fd / fps1.unwrap()),
        ]);
    }
    table.note("modeled: 3.2 GHz Cell, 25.6 GB/s, 256 KB local stores (cellsim)");
    table.note("expected shape: near-linear SPE scaling; double buffering gains where DMA is not fully hidden");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_scaling_and_buffering() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        // fps grows with SPEs
        let fps: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in fps.windows(2) {
            assert!(w[1] > w[0], "fps must grow with SPEs: {fps:?}");
        }
        // 6-SPE speedup near 6 (±40%)
        let s6: f64 = t.rows[5][4].parse().unwrap();
        assert!(s6 > 3.5 && s6 <= 6.5, "speedup at 6 SPEs: {s6}");
        // double buffering never loses
        for r in &t.rows {
            let gain: f64 = r[3].parse().unwrap();
            assert!(gain >= 1.0, "double buffering regressed: {gain}");
        }
    }
}
