//! F2 — scheduling-policy comparison on the correction loop.
//!
//! For each policy: modeled 8-thread time (paper shape), measured time
//! of the `smp` engine on a real 4-thread pool, scheduling events, and
//! load imbalance measured from per-worker dispatch statistics.

use fisheye_core::engine::EngineSpec;
use fisheye_core::Interpolator;
use par_runtime::{Schedule, ThreadPool};

use crate::smp_model::{chunk_count, modeled_time, KernelProfile, SmpConfig};
use crate::table::{f2, Table};
use crate::workloads::{default_resolution, random_workload, time_median, time_smp};
use crate::Scale;

/// The policy sweep the experiment reports.
pub fn policies() -> Vec<Schedule> {
    vec![
        Schedule::Static { chunk: None },
        Schedule::Static { chunk: Some(8) },
        Schedule::Static { chunk: Some(1) },
        Schedule::Dynamic { chunk: 16 },
        Schedule::Dynamic { chunk: 4 },
        Schedule::Dynamic { chunk: 1 },
        Schedule::Guided { min_chunk: 4 },
        Schedule::Guided { min_chunk: 1 },
    ]
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = default_resolution(scale);
    let reps = if scale == Scale::Full { 5 } else { 3 };
    let w = random_workload(res, 7);
    let rows = res.h as usize;

    // calibrate the model once
    let t1 = time_median(reps, || {
        std::hint::black_box(fisheye_core::correct(
            &w.frame,
            &w.map,
            Interpolator::Bilinear,
        ));
    });
    let prof = KernelProfile::from_measured(t1, 0.7, rows);
    let cfg = SmpConfig::default();
    let pool = ThreadPool::new(4);
    // the schedule does not change the plan: compile it once
    let plan = w.plan_for(&EngineSpec::Smp {
        schedule: Schedule::default_static(),
    });

    let mut table = Table::new(
        format!("F2 — scheduling policies, correction loop ({})", res.name),
        &[
            "policy",
            "chunks@8t",
            "model_time_ms@8t",
            "meas_time_ms@4t",
            "imbalance",
        ],
    );
    for sched in policies() {
        let mt = modeled_time(&cfg, &prof, 8, sched) * 1e3;
        let meas = time_smp(reps, &w.frame, &plan, &pool, sched) * 1e3;
        let stats = pool.parallel_for_stats(0..rows, sched, &|r| {
            std::hint::black_box(r.len());
        });
        table.row(vec![
            sched.label(),
            chunk_count(rows, 8, sched).to_string(),
            f2(mt),
            f2(meas),
            f2(stats.imbalance()),
        ]);
    }
    table.note("model at 8 threads; measurement on a real 4-thread pool on this host");
    table.note("expected shape: static wins on this uniform kernel; dynamic(1) pays per-row dispatch; guided ≈ static");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_static_beats_fine_dynamic_in_model() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let find = |label: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("row {label}"))[2]
                .parse()
                .unwrap()
        };
        let st = find("static");
        let dy1 = find("dynamic(1)");
        let gd = find("guided(4)");
        assert!(st < dy1, "static {st} must beat dynamic(1) {dy1}");
        assert!(gd < dy1, "guided {gd} must beat dynamic(1) {dy1}");
    }

    #[test]
    fn all_policies_present() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), policies().len());
    }
}
