//! F1 — multicore speedup vs thread count, per phase.
//!
//! Columns: measured wall time on this host's real threads (only
//! meaningful on multi-core machines) and the calibrated analytical
//! model's speedups (the paper-shape reproduction). The measured
//! correction is the `smp` engine over a compiled plan, the path
//! served frames take.

use fisheye_core::engine::EngineSpec;
use fisheye_core::{Interpolator, RemapMap};
use par_runtime::{Schedule, ThreadPool};

use crate::smp_model::{modeled_speedup, KernelProfile, SmpConfig};
use crate::table::{f2, Table};
use crate::workloads::{default_resolution, random_workload, time_median, time_smp};
use crate::Scale;

/// Memory-boundedness assumed for the two phases when calibrating the
/// model from single-thread measurements: map generation is trig-heavy
/// compute; correction is a streaming gather.
const MAPGEN_MEM_FRACTION: f64 = 0.10;
const CORRECT_MEM_FRACTION: f64 = 0.70;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let reps = if scale == Scale::Full { 5 } else { 3 };
    let w = random_workload(res, 42);
    let sched = Schedule::Static { chunk: None };
    let plan = w.plan_for(&EngineSpec::Smp { schedule: sched });

    // calibrate the model from single-thread measurements
    let t_map = time_median(reps, || {
        std::hint::black_box(RemapMap::build(&w.lens, &w.view, res.w, res.h));
    });
    let t_cor = time_median(reps, || {
        std::hint::black_box(fisheye_core::correct(
            &w.frame,
            &w.map,
            Interpolator::Bilinear,
        ));
    });
    let rows = res.h as usize;
    let map_prof = KernelProfile::from_measured(t_map, MAPGEN_MEM_FRACTION, rows);
    let cor_prof = KernelProfile::from_measured(t_cor, CORRECT_MEM_FRACTION, rows);
    let cfg = SmpConfig {
        cores: 16,
        ..Default::default()
    };

    let mut table = Table::new(
        format!("F1 — SMP speedup vs threads ({})", res.name),
        &[
            "threads",
            "mapgen_model_speedup",
            "correct_model_speedup",
            "mapgen_meas_s",
            "correct_meas_s",
        ],
    );
    for p in [1usize, 2, 4, 8, 16] {
        let pool = ThreadPool::new(p);
        let mt = time_median(reps, || {
            std::hint::black_box(RemapMap::build_parallel(
                &w.lens, &w.view, res.w, res.h, &pool, sched,
            ));
        });
        let ct = time_smp(reps, &w.frame, &plan, &pool, sched);
        table.row(vec![
            p.to_string(),
            f2(modeled_speedup(&cfg, &map_prof, p, sched)),
            f2(modeled_speedup(&cfg, &cor_prof, p, sched)),
            format!("{mt:.4}"),
            format!("{ct:.4}"),
        ]);
    }
    table.note(format!(
        "model calibrated from 1-thread measurements: mapgen {t_map:.4}s, correct {t_cor:.4}s"
    ));
    table.note(format!(
        "measured columns use real threads on this host ({} cores available)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    table.note("expected shape: mapgen scales near-linearly; correction saturates at the memory wall (~4 threads)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_mapgen_scales_better_than_correct() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 5);
        // at 8 threads (row 3): modeled mapgen speedup > modeled correct speedup
        let map8: f64 = t.rows[3][1].parse().unwrap();
        let cor8: f64 = t.rows[3][2].parse().unwrap();
        assert!(map8 > cor8, "mapgen {map8} should out-scale correct {cor8}");
        assert!(map8 > 5.0);
        assert!(cor8 < 5.0);
        // speedups at 1 thread are 1
        let m1: f64 = t.rows[0][1].parse().unwrap();
        assert!((m1 - 1.0).abs() < 1e-9);
    }
}
