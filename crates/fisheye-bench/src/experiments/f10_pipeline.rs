//! F10 — end-to-end video pipeline throughput and latency.

use std::sync::Arc;

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{FrameFormat, ViewPlan};
use fisheye_core::Interpolator;
use videopipe::{run_frame_pipeline, PipeConfig, ShiftVideo};

use crate::table::{f1, f2, Table};
use crate::workloads::{random_workload, resolution};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let (res, frames) = match scale {
        Scale::Quick => (resolution("QVGA"), 60u64),
        Scale::Full => (resolution("720p"), 300),
    };
    let w = random_workload(res, 17);
    let plan = ViewPlan::from_plans(
        FrameFormat::Gray8,
        vec![Arc::new(w.plan_for(&EngineSpec::Serial))],
    )
    .expect("a gray8 view plan is its one full-res plan");

    let mut table = Table::new(
        format!("F10 — video pipeline ({}, {} frames)", res.name, frames),
        &[
            "workers",
            "queue",
            "fps",
            "p50_latency_ms",
            "p95_latency_ms",
            "max_latency_ms",
            "out_of_order",
            "pool_hit",
        ],
    );
    for workers in [1usize, 2, 4] {
        for queue in [2usize, 8] {
            let src = Box::new(ShiftVideo::new(w.frame.clone(), 2, frames));
            let report = run_frame_pipeline(
                src,
                &plan,
                PipeConfig {
                    workers,
                    queue_capacity: queue,
                    interp: Interpolator::Bilinear,
                    ..PipeConfig::default()
                },
                |_, _| {},
            );
            table.row(vec![
                workers.to_string(),
                queue.to_string(),
                f1(report.fps),
                f2(report.p50_latency.as_secs_f64() * 1e3),
                f2(report.p95_latency.as_secs_f64() * 1e3),
                f2(report.max_latency.as_secs_f64() * 1e3),
                report.out_of_order.to_string(),
                format!("{:.0}%", report.pool_hit_rate() * 100.0),
            ]);
        }
    }
    table.note("measured end-to-end on this host (threads share the machine's cores)");
    table.note("pool_hit 100% = every output buffer recycled from the primed frame pool (zero per-frame allocation)");
    table.note("expected shape: deeper queues raise latency without helping a CPU-bound corrector; extra workers help only with spare cores");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_completes_all_configs() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            let fps: f64 = r[2].parse().unwrap();
            assert!(fps > 0.0, "row {r:?}");
            let p50: f64 = r[3].parse().unwrap();
            let p95: f64 = r[4].parse().unwrap();
            let max: f64 = r[5].parse().unwrap();
            assert!(p50 <= p95 + 1e-9 && p95 <= max + 1e-9, "row {r:?}");
        }
        // single worker never reorders
        let single_ooo: u64 = t.rows[0][6].parse().unwrap();
        assert_eq!(single_ooo, 0);
        // frames are dropped at the sink, so every config recycles
        for r in &t.rows {
            assert_eq!(r[7], "100%", "row {r:?}: pool must never miss");
        }
    }
}
