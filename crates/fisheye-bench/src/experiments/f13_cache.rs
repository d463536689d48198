//! F13 — cache behaviour of the correction kernel (trace-driven).
//!
//! Substantiates the memory-boundedness assumption behind the SMP
//! model (F1): the kernel's exact address trace is driven through a
//! two-level hierarchy, reporting miss rates, DRAM traffic, and the
//! derived memory-stall fraction.

use fisheye_core::Interpolator;
use memsim::{simulate_correction, TraceConfig};

use crate::table::{f2, Table};
use crate::workloads::{random_workload, resolution, Resolution};
use crate::Scale;

fn resolutions(scale: Scale) -> Vec<Resolution> {
    match scale {
        Scale::Quick => vec![resolution("QVGA"), resolution("VGA")],
        Scale::Full => vec![resolution("QVGA"), resolution("VGA"), resolution("720p")],
    }
}

/// DRAM bandwidth assumed for the stall-fraction column (period SMP).
const DRAM_GBPS: f64 = 12.0;
/// Compute cost assumed per pixel (from the measured bilinear kernel).
const COMPUTE_NS_PER_PX: f64 = 10.0;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "F13 — cache behaviour of the correction gather (8-core trace sim)",
        &[
            "workload",
            "l1_miss_rate",
            "l2_miss_rate",
            "dram_MB_per_frame",
            "amplification",
            "mem_fraction",
        ],
    );
    for res in resolutions(scale) {
        let w = random_workload(res, 41);
        for interp in [Interpolator::Bilinear, Interpolator::Bicubic] {
            let t = simulate_correction(&w.map, interp, &TraceConfig::default());
            let pixels = res.w as u64 * res.h as u64;
            table.row(vec![
                format!("{} {}", res.name, interp.name()),
                f2(t.l1_miss_rate),
                f2(t.l2_miss_rate),
                f2(t.dram_bytes as f64 / 1e6),
                f2(t.traffic_amplification),
                f2(t.memory_fraction(pixels, COMPUTE_NS_PER_PX, DRAM_GBPS)),
            ]);
        }
    }
    table.note(format!(
        "hierarchy: 8x 32KB L1 / shared 8MB L2 / DRAM; stall fraction assumes {COMPUTE_NS_PER_PX} ns/px compute, {DRAM_GBPS} GB/s DRAM"
    ));
    table.note("expected shape: low L1 miss rate (line reuse in the gather), amplification ~1 while the frame fits L2, growing with resolution");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_miss_rates_and_amplification() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            let l1: f64 = r[1].parse().unwrap();
            let amp: f64 = r[4].parse().unwrap();
            let frac: f64 = r[5].parse().unwrap();
            assert!(l1 > 0.0 && l1 < 0.6, "{r:?}");
            assert!(amp > 0.5 && amp < 3.0, "{r:?}");
            assert!(frac > 0.0 && frac < 1.0, "{r:?}");
        }
        // bicubic touches more lines than bilinear at the same size →
        // equal or higher DRAM traffic
        let bl: f64 = t.rows[0][3].parse().unwrap();
        let bc: f64 = t.rows[1][3].parse().unwrap();
        assert!(bc >= bl * 0.9, "bilinear {bl} vs bicubic {bc}");
    }
}
