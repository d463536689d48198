//! One module per table/figure of the evaluation (DESIGN.md §3).
//!
//! Every module exposes `run(scale) -> Table`; the tests in each
//! module run the experiment at reduced size and assert the *shape*
//! properties the paper reports (who wins, what saturates, where the
//! knee is), making the whole evaluation regression-checked. T7–T11
//! also declare release-scale claims as gates on their table, which
//! the `repro` bin checks.

pub mod a1_ablations;
pub mod f10_pipeline;
pub mod f11_color;
pub mod f12_projections;
pub mod f13_cache;
pub mod f1_smp_scaling;
pub mod f2_scheduling;
pub mod f3_cell_scaling;
pub mod f4_cell_tiles;
pub mod f5_gpu_blocks;
pub mod f6_interp;
pub mod f7_fixedpoint;
pub mod f8_resolution;
pub mod f9_lut_crossover;
pub mod t10_simt_codegen;
pub mod t11_composite;
pub mod t1_platforms;
pub mod t2_traffic;
pub mod t3_stream_resources;
pub mod t4_engine_reports;
pub mod t5_serve_scaling;
pub mod t6_color_formats;
pub mod t7_serve_soak;
pub mod t8_view_churn;
pub mod t9_fused_post;

use crate::table::Table;
use crate::Scale;

/// One registered experiment: `(slug, runner)`.
pub type Experiment = (&'static str, fn(Scale) -> Table);

/// Every experiment in report order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("t1_platforms", t1_platforms::run as fn(Scale) -> Table),
        ("f1_smp_scaling", f1_smp_scaling::run),
        ("f2_scheduling", f2_scheduling::run),
        ("f3_cell_scaling", f3_cell_scaling::run),
        ("f4_cell_tiles", f4_cell_tiles::run),
        ("f5_gpu_blocks", f5_gpu_blocks::run),
        ("f6_interp", f6_interp::run),
        ("f7_fixedpoint", f7_fixedpoint::run),
        ("f8_resolution", f8_resolution::run),
        ("f9_lut_crossover", f9_lut_crossover::run),
        ("t2_traffic", t2_traffic::run),
        ("t3_stream_resources", t3_stream_resources::run),
        ("t4_engine_reports", t4_engine_reports::run),
        ("t5_serve_scaling", t5_serve_scaling::run),
        ("t6_color_formats", t6_color_formats::run),
        ("t7_serve_soak", t7_serve_soak::run),
        ("t8_view_churn", t8_view_churn::run),
        ("t9_fused_post", t9_fused_post::run),
        ("t10_simt_codegen", t10_simt_codegen::run),
        ("t11_composite", t11_composite::run),
        ("f10_pipeline", f10_pipeline::run),
        ("f11_color", f11_color::run),
        ("f12_projections", f12_projections::run),
        ("f13_cache", f13_cache::run),
        ("a1_ablations", a1_ablations::run),
    ]
}

/// The experiments `repro smoke` runs, in order: the heaviest and the
/// gated ones, so a refactor that breaks an experiment or misses a
/// gate shows without a full evaluation run.
pub const SMOKE: &[&str] = &[
    "a1_ablations",
    "t4_engine_reports",
    "t6_color_formats",
    "t7_serve_soak",
    "t8_view_churn",
    "t9_fused_post",
    "t11_composite",
    "t10_simt_codegen",
];

/// Serializes the experiment tests. Several of them assert timing
/// shapes (T6 times a four-thread `smp` row), and cargo runs tests on
/// parallel threads, so on a host with few cores one experiment's
/// threads would load the cores another is timing. Every `#[test]` of
/// an experiment module takes it first. A test that panics holding it
/// leaves nothing to repair, so a poisoned lock is taken as is.
#[cfg(test)]
pub(crate) fn serialize() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gated experiments' `table` over hand-made rows, so the gates
    // are pinned without running any experiment.

    fn t7(sessions: usize, bounded_p99: bool, bounded_bytes: bool) -> Table {
        t7_serve_soak::table(&t7_serve_soak::SoakResult {
            sessions,
            bounded_p99,
            bounded_bytes,
            ..Default::default()
        })
    }

    fn t8(speedup: f64, bit_exact: bool) -> Table {
        t8_view_churn::table(&[t8_view_churn::ChurnPoint {
            speedup,
            bit_exact,
            ..Default::default()
        }])
    }

    /// A VGA row with the given ratios, and a QVGA row outside both
    /// bands (the ratio gates skip QVGA) carrying `qvga_exact`.
    fn t9(overhead: f64, speedup: f64, qvga_exact: bool) -> Table {
        use t9_fused_post::PostPoint;
        let qvga = PostPoint {
            res: "QVGA",
            overhead: 9.0,
            speedup: 0.5,
            bit_exact: qvga_exact,
            ..Default::default()
        };
        let vga = PostPoint {
            res: "VGA",
            overhead,
            speedup,
            bit_exact: true,
            ..Default::default()
        };
        t9_fused_post::table(&[qvga, vga])
    }

    fn t10(counters_match: bool, float_bit_exact: bool, fixed_bit_exact: bool) -> Table {
        t10_simt_codegen::table(&[t10_simt_codegen::SimtPoint {
            counters_match,
            float_bit_exact,
            fixed_bit_exact,
            ..Default::default()
        }])
    }

    fn t11(ratio: f64, bit_exact: bool, delta_recompiles: u64) -> Table {
        use t11_composite::{CompositePoint, SoakStats};
        let point = CompositePoint {
            ratio,
            bit_exact,
            ..Default::default()
        };
        let soak = SoakStats {
            delta_recompiles,
            ..Default::default()
        };
        t11_composite::table(&[point], &soak)
    }

    fn failed(t: Table) -> Vec<&'static str> {
        t.gates
            .iter()
            .filter(|g| !g.passes())
            .map(|g| g.name)
            .collect()
    }

    #[test]
    fn smoke_gates_declare_their_bounds_and_pass_at_them() {
        let at_bounds = [
            t7(1000, true, true),
            t8(2.0, true),
            t9(1.15, 1.3, true),
            t10(true, true, true),
            t11(1.15, true, 1),
        ];
        let gates: Vec<String> = at_bounds
            .iter()
            .flat_map(|t| &t.gates)
            .map(|g| g.to_string())
            .collect();
        assert_eq!(
            gates,
            [
                "sessions 1000 >= 1000: ok",
                "bounded_p99 1 == 1: ok",
                "bounded_bytes 1 == 1: ok",
                "min_speedup 2 >= 2: ok",
                "all_bit_exact 1 == 1: ok",
                "max_overhead 1.15 <= 1.15: ok",
                "min_speedup 1.3 >= 1.3: ok",
                "all_bit_exact 1 == 1: ok",
                "counters_match 1 == 1: ok",
                "all_bit_exact 1 == 1: ok",
                "max_ratio 1.15 <= 1.15: ok",
                "all_bit_exact 1 == 1: ok",
                "soak_delta_recompiles 1 == 1: ok",
            ]
        );
    }

    #[test]
    fn smoke_gates_fail_one_step_past_their_bounds() {
        assert_eq!(failed(t7(999, true, true)), ["sessions"]);
        assert_eq!(failed(t7(1000, false, true)), ["bounded_p99"]);
        assert_eq!(failed(t7(1000, true, false)), ["bounded_bytes"]);
        assert_eq!(failed(t8(1.9999, true)), ["min_speedup"]);
        assert_eq!(failed(t8(2.0, false)), ["all_bit_exact"]);
        assert_eq!(failed(t9(1.1501, 1.3, true)), ["max_overhead"]);
        assert_eq!(failed(t9(1.15, 1.2999, true)), ["min_speedup"]);
        assert_eq!(failed(t9(1.15, 1.3, false)), ["all_bit_exact"]);
        assert_eq!(failed(t10(false, true, true)), ["counters_match"]);
        assert_eq!(failed(t10(true, false, true)), ["all_bit_exact"]);
        assert_eq!(failed(t10(true, true, false)), ["all_bit_exact"]);
        assert_eq!(failed(t11(1.1501, true, 1)), ["max_ratio"]);
        assert_eq!(failed(t11(1.15, false, 1)), ["all_bit_exact"]);
        assert_eq!(failed(t11(1.15, true, 0)), ["soak_delta_recompiles"]);
        assert_eq!(failed(t11(1.15, true, 2)), ["soak_delta_recompiles"]);
    }

    #[test]
    fn slugs_are_unique_and_cover_the_smoke_list() {
        let slugs: Vec<&str> = all().iter().map(|(s, _)| *s).collect();
        let unique: std::collections::BTreeSet<&str> = slugs.iter().copied().collect();
        assert_eq!(unique.len(), slugs.len(), "duplicate slug in {slugs:?}");
        for s in SMOKE {
            assert!(slugs.contains(s), "smoke slug {s} is not registered");
        }
        // the `repro` bin's group names must not shadow an experiment
        for group in ["all", "smoke", "figures"] {
            assert!(!slugs.contains(&group), "{group}");
        }
    }
}
