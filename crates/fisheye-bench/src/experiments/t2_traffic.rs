//! T2 — memory traffic per frame vs tile size (the DMA bill).

use fisheye_core::TilePlan;

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, random_workload};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let w = random_workload(res, 19);
    let frame_bytes = (res.w * res.h) as f64;

    let mut table = Table::new(
        format!("T2 — per-frame memory traffic vs tile size ({})", res.name),
        &[
            "tile",
            "src_MB_fetched",
            "redundancy",
            "out_MB",
            "lut_MB",
            "max_tile_ws_KB",
        ],
    );
    for &(tw, th) in super::f4_cell_tiles::TILE_SIZES {
        let plan = TilePlan::build(&w.map, tw, th);
        let src = plan.total_src_bytes(1) as f64;
        let out = plan.total_out_bytes(1) as f64;
        let lut = plan.total_out_bytes(8) as f64; // 8 B/entry
        table.row(vec![
            format!("{tw}x{th}"),
            f2(src / 1e6),
            f2(src / frame_bytes),
            f2(out / 1e6),
            f2(lut / 1e6),
            f2(plan.max_working_set(1, 1, 8) as f64 / 1024.0),
        ]);
    }
    table.note("pure traffic accounting from footprints (platform-independent)");
    table.note("expected shape: fetched bytes shrink toward 1x frame size as tiles grow; working set grows the other way");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_traffic_vs_working_set_tradeoff() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let red: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let ws: Vec<f64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(
            red.first().unwrap() > red.last().unwrap(),
            "fetched bytes must shrink with tile size: {red:?}"
        );
        assert!(
            ws.first().unwrap() < ws.last().unwrap(),
            "working set must grow with tile size: {ws:?}"
        );
        // output traffic is constant = frame size
        let outs: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        for o in &outs {
            assert!((o - outs[0]).abs() < 0.01, "{outs:?}");
        }
    }
}
