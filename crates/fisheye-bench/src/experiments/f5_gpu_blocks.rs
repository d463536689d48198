//! F5 — GPU block-size / locality study.

use fisheye_core::Interpolator;
use gpusim::{GpuConfig, GpuRunner};

use crate::table::{f1, f2, Table};
use crate::workloads::{default_resolution, random_workload};
use crate::Scale;

/// Threads-per-block sweep.
pub const BLOCK_SIZES: &[usize] = &[32, 64, 128, 256, 512];

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let w = random_workload(res, 5);

    let mut table = Table::new(
        format!("F5 — GPU block-size sweep ({})", res.name),
        &[
            "kernel",
            "block_threads",
            "fps",
            "tex_hit_or_staged",
            "lines_per_warp",
            "dram_MB_per_frame",
            "bound",
        ],
    );
    for &bt in BLOCK_SIZES {
        let cfg = GpuConfig {
            block_threads: bt,
            ..Default::default()
        };
        let runner = GpuRunner::new(cfg);
        let (_, r) = runner.correct_frame(&w.frame, &w.map, Interpolator::Bilinear);
        table.row(vec![
            "texture".into(),
            bt.to_string(),
            f1(r.fps),
            f2(r.cache_hit_rate),
            f2(r.mem.avg_lines_per_warp()),
            f2(r.dram_bytes as f64 / 1e6),
            if r.memory_bound { "mem" } else { "compute" }.to_string(),
        ]);
        let (_, s) = gpusim::correct_frame_staged(&cfg, &w.frame, &w.map, Interpolator::Bilinear);
        table.row(vec![
            "staged".into(),
            bt.to_string(),
            f1(s.fps),
            f2(s.staged_fraction()),
            "-".into(),
            f2(s.dram_bytes as f64 / 1e6),
            "-".into(),
        ]);
    }
    table.note("modeled: 30-SM 1.4 GHz part, 8 KB texture cache/SM (gpusim); locality measured from the real map");
    table.note("texture rows: tex_hit_or_staged = cache hit rate; staged rows: fraction of blocks whose footprint fit 48 KB shared memory");
    table.note("expected shape: taller blocks improve texture-cache reuse; staging loads each footprint once until shared memory overflows");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_locality_and_throughput() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 2 * BLOCK_SIZES.len());
        let hit: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "texture")
            .map(|r| r[3].parse().unwrap())
            .collect();
        // hit rates meaningful everywhere for this coherent gather
        for h in &hit {
            assert!(*h > 0.3, "hit rates: {hit:?}");
        }
        // 512-thread blocks at least as good as 32-thread blocks
        assert!(
            *hit.last().unwrap() >= hit.first().unwrap() - 0.02,
            "hit rate should not collapse with taller blocks: {hit:?}"
        );
        let fps: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        for f in fps {
            assert!(f > 0.0);
        }
        // staged kernel stages nearly everything at these sizes
        for r in t.rows.iter().filter(|r| r[0] == "staged") {
            let frac: f64 = r[3].parse().unwrap();
            assert!(frac > 0.8, "{r:?}");
        }
    }
}
