//! F4 — Cell BE tile-size sweep: throughput vs tile dimensions under
//! the 256 KB local-store constraint.

use cellsim::{CellConfig, CellRunner};
use fisheye_core::{Interpolator, TilePlan};

use crate::table::{f1, f2, Table};
use crate::workloads::{default_resolution, random_workload};
use crate::Scale;

/// Tile shapes swept (output pixels).
pub const TILE_SIZES: &[(u32, u32)] = &[
    (8, 8),
    (16, 8),
    (16, 16),
    (32, 16),
    (32, 32),
    (64, 32),
    (64, 64),
    (128, 64),
    (128, 128),
    (256, 128),
];

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let w = random_workload(res, 4);
    let fmap = w.map.to_fixed(12);
    let runner = CellRunner::new(CellConfig::default());

    let mut table = Table::new(
        format!("F4 — Cell BE tile-size sweep ({}, 6 SPEs)", res.name),
        &[
            "tile",
            "fits_ls",
            "fps",
            "dma_MB_per_frame",
            "redundancy",
            "dma_cmds",
        ],
    );
    for &(tw, th) in TILE_SIZES {
        let plan = TilePlan::build(&w.map, tw, th, Interpolator::Bilinear);
        match runner.correct_frame(&w.frame, &fmap, &plan) {
            Ok((_, report)) => {
                table.row(vec![
                    format!("{tw}x{th}"),
                    "yes".into(),
                    f1(report.fps),
                    f2((report.dma.bytes_in + report.dma.bytes_out) as f64 / 1e6),
                    f2(report.redundancy),
                    report.dma.commands.to_string(),
                ]);
            }
            Err(e) => {
                table.row(vec![
                    format!("{tw}x{th}"),
                    "no".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("needs {} B", e.requested),
                ]);
            }
        }
    }
    table.note("modeled on cellsim (double buffering); 'no' rows exceed the 256 KB local store");
    table.note("expected shape: tiny tiles drown in DMA latency; large tiles stop fitting; the optimum sits between");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_sweet_spot_exists() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let fps: Vec<Option<f64>> = t.rows.iter().map(|r| r[2].parse().ok()).collect();
        // smallest tile is slower than some mid tile
        let first = fps[0].expect("8x8 must fit");
        let best = fps.iter().flatten().cloned().fold(0.0f64, f64::max);
        assert!(best > first, "mid-size tiles must beat 8x8: {fps:?}");
        // at least one configuration must overflow the local store
        assert!(
            t.rows.iter().any(|r| r[1] == "no"),
            "sweep must reach the LS capacity wall"
        );
        // redundancy decreases from smallest to largest fitting tile
        let reds: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "yes")
            .map(|r| r[4].parse().unwrap())
            .collect();
        assert!(
            reds.first().unwrap() >= reds.last().unwrap(),
            "redundancy should shrink with tile size: {reds:?}"
        );
    }
}
