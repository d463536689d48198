//! T3 — streaming-accelerator resource and latency summary.

use streamsim::{FixedMapGen, StreamConfig};

use crate::table::{f1, Table};
use crate::workloads::{random_workload, resolution, Resolution};
use crate::Scale;

fn resolutions(scale: Scale) -> Vec<Resolution> {
    match scale {
        Scale::Quick => vec![resolution("VGA"), resolution("720p")],
        Scale::Full => vec![resolution("VGA"), resolution("720p"), resolution("1080p")],
    }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let cfg = StreamConfig::default();
    let mut table = Table::new(
        "T3 — streaming accelerator resources (150 MHz, II=1)",
        &[
            "resolution",
            "line_buf_rows",
            "bram_KB",
            "dsp",
            "pipe_depth",
            "fps",
            "feasible",
        ],
    );
    for res in resolutions(scale) {
        let w = random_workload(res, 23);
        let gen = FixedMapGen::typical();
        let r = streamsim::stream::analyze(&w.map, &gen, &cfg);
        table.row(vec![
            res.name.to_string(),
            r.line_buffers.max_rows_needed.to_string(),
            f1(r.bram_bytes as f64 / 1024.0),
            r.dsp_count.to_string(),
            r.pipeline_depth.to_string(),
            f1(r.fps),
            if r.feasible { "yes" } else { "no" }.to_string(),
        ]);
    }
    table.note(format!(
        "BRAM budget {} KB; 90-degree straight-ahead view; bilinear",
        cfg.bram_budget_bytes / 1024
    ));
    table.note("expected shape: line-buffer rows scale with resolution; fps = clock/pixels stays >30 through 1080p");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_resources_scale_with_resolution() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let rows: Vec<u32> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(rows[1] > rows[0], "line buffers must grow: {rows:?}");
        let fps: Vec<f64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(fps[1] < fps[0]);
        assert!(
            fps[1] > 30.0,
            "720p must be real-time at 150 MHz: {}",
            fps[1]
        );
        // all feasible within the default budget
        for r in &t.rows {
            assert_eq!(r[6], "yes", "{:?}", r);
        }
    }
}
