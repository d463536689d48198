//! T10 — the SIMT batch interpreter vs the analytic GPU model: does
//! executing the lowered kernel reproduce the memory behaviour
//! `gpusim` predicts, and what does execution see that the model
//! cannot?
//!
//! The interpreter (`fisheye-codegen`) steps the same lowered kernel
//! the WGSL/C emitters render, warp by warp, over the same 32-wide
//! workgroup grid `gpusim` models analytically. Both sides bucket
//! gather taps into 32-byte texture lines and dedup them per warp, so
//! for the same plan, interpolator and workgroup size the counters
//! must agree *exactly* — `warps`, `line_accesses`, `distinct_lines`,
//! `worst_warp_lines`, and therefore `avg_lines_per_warp`. That
//! equality is the cross-check: an interpreter bug or a model drift
//! breaks it, and the T10 table's `counters_match` gate fails.
//!
//! On top of the model's view, execution observes what an analytic
//! pass cannot: `divergent_warps` (warps whose validity mask mixed
//! valid and gap lanes — the rim of the fisheye circle) and
//! `lane_efficiency` (how full the warps actually ran). And the
//! functional contract rides along: the interpreter's float output is
//! bit-exact with the `serial` host engine, and its fixed-LUT kernel
//! is bit-exact with [`correct_fixed`] on the plan's q12 map
//! (the `all_bit_exact` gate).
//!
//! [`correct_fixed`]: fisheye_core::correct_fixed

use fisheye_codegen::SimtEngine;
use fisheye_core::correct_fixed;
use fisheye_core::engine::{build_host, EngineSpec, HostCtx};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{Interpolator, RemapMap};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use gpusim::{GpuConfig, GpuRunner};
use pixmap::{Gray8, Image};

use crate::table::{f2, f4, Table};
use crate::workloads::{resolution, Workload};
use crate::Scale;

/// Fixed-point fraction bits for the fixed-LUT kernel leg — the
/// paper's q12 operating point, same as the `fixed` registry default.
pub const FRAC_BITS: u32 = 12;

/// One (resolution, workgroup) comparison.
#[cfg_attr(test, derive(Default))]
pub struct SimtPoint {
    /// Resolution name.
    pub res: &'static str,
    /// Threads per workgroup (= gpusim `block_threads`).
    pub workgroup: usize,
    /// Interpreter wall-clock for one float frame, ms.
    pub simt_ms: f64,
    /// Warps stepped by the interpreter.
    pub warps: u64,
    /// Interpreter: mean distinct cache lines per warp.
    pub simt_lines_per_warp: f64,
    /// Analytic model: the same ratio, predicted.
    pub gpu_lines_per_warp: f64,
    /// Fraction of warps whose validity mask split.
    pub divergence_rate: f64,
    /// Fraction of lane slots that sampled a valid coordinate.
    pub lane_efficiency: f64,
    /// All four memory counters equal between interpreter and model.
    pub counters_match: bool,
    /// Float kernel output byte-identical to the serial host engine.
    pub float_bit_exact: bool,
    /// Fixed-LUT kernel output byte-identical to `correct_fixed`.
    pub fixed_bit_exact: bool,
}

/// The T10 workload: a 180° equidistant lens with the output view
/// panned toward the hemisphere rim, so part of the view falls in the
/// gap region. The standard straight-ahead 90° view is fully valid —
/// every warp would run full, and the divergence counters T10 exists
/// to exercise would read zero.
fn rim_workload(res_name: &'static str) -> Workload {
    let res = resolution(res_name);
    let lens = FisheyeLens::equidistant_fov(res.w, res.h, 180.0);
    let view = PerspectiveView::centered(res.w, res.h, 100.0).look(55.0, 0.0);
    let frame = pixmap::scene::random_gray(res.w, res.h, 0x700A);
    let map = RemapMap::build(&lens, &view, res.w, res.h);
    Workload {
        lens,
        view,
        frame,
        map,
    }
}

/// Measure one (resolution, workgroup) pair.
fn simt_point(res_name: &'static str, workgroup: usize, reps: usize) -> SimtPoint {
    let w = rim_workload(res_name);
    let spec = EngineSpec::Simt { workgroup };
    // one plan carries every artifact both kernels need: the simt
    // tile grid (32 x workgroup/32) and the q12 LUT
    let plan = RemapPlan::compile(
        &w.map,
        PlanOptions::for_specs(&[
            spec,
            EngineSpec::FixedPoint {
                frac_bits: FRAC_BITS,
            },
        ]),
    );
    let engine = SimtEngine::from_spec(&spec, Interpolator::Bilinear).expect("simt spec builds");
    let (ow, oh) = (plan.width(), plan.height());

    // float leg: batch of one frame, counters + output
    let mut simt_out = Image::<Gray8>::new(ow, oh);
    let mut batch = engine
        .run_batch(
            std::slice::from_ref(&w.frame),
            &plan,
            None,
            std::slice::from_mut(&mut simt_out),
        )
        .expect("simt batch");
    assert!(
        !batch.plan_miss,
        "{res_name}/wg{workgroup}: the for_specs plan must carry the simt tile grid"
    );
    for _ in 1..reps {
        let rep = engine
            .run_batch(
                std::slice::from_ref(&w.frame),
                &plan,
                None,
                std::slice::from_mut(&mut simt_out),
            )
            .expect("simt rep");
        batch.correct_ms = batch.correct_ms.min(rep.correct_ms);
    }
    let c = batch.counters;

    // serial reference for float bit-exactness
    let serial = build_host(
        &EngineSpec::Serial,
        &HostCtx {
            interp: Interpolator::Bilinear,
            threads: 1,
            geometry: None,
        },
    )
    .expect("serial builds");
    let mut ref_out = Image::<Gray8>::new(ow, oh);
    serial
        .correct_frame(&w.frame, &plan, &mut ref_out)
        .expect("serial reference");
    let float_bit_exact = simt_out.pixels() == ref_out.pixels();

    // fixed-LUT kernel vs the direct fixed-point traversal
    let mut fixed_out = Image::<Gray8>::new(ow, oh);
    engine
        .run_fixed_gray8(&w.frame, &plan, FRAC_BITS, None, &mut fixed_out)
        .expect("fixed kernel");
    let fixed_ref = correct_fixed(
        &w.frame,
        plan.fixed(FRAC_BITS)
            .expect("for_specs plan carries the q12 LUT"),
    );
    let fixed_bit_exact = fixed_out.pixels() == fixed_ref.pixels();

    // the analytic model on the same geometry and block shape
    let runner = GpuRunner::new(GpuConfig {
        block_threads: workgroup,
        ..GpuConfig::default()
    });
    let (gpu_out, gpu) = runner.correct_frame(&w.frame, &w.map, Interpolator::Bilinear);
    let counters_match = c.warps == gpu.mem.warps
        && c.line_accesses == gpu.mem.line_accesses
        && c.distinct_lines == gpu.mem.distinct_lines
        && c.worst_warp_lines == gpu.mem.worst_warp_lines as u64;
    // the model executes the same kernel functionally — fold its
    // output into the float check rather than a separate column
    let float_bit_exact = float_bit_exact && gpu_out.pixels() == simt_out.pixels();

    SimtPoint {
        res: res_name,
        workgroup,
        simt_ms: batch.correct_ms,
        warps: c.warps,
        simt_lines_per_warp: c.avg_lines_per_warp(),
        gpu_lines_per_warp: gpu.mem.avg_lines_per_warp(),
        divergence_rate: c.divergence_rate(),
        lane_efficiency: c.lane_efficiency(),
        counters_match,
        float_bit_exact,
        fixed_bit_exact,
    }
}

/// Workgroup sizes swept — gpusim's F5 block sweep minus the 32-wide
/// single-warp degenerate, which the tile planner also supports but
/// adds nothing to the comparison.
fn workgroups(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Quick => &[64, 256],
        Scale::Full => &[64, 128, 256, 512],
    }
}

/// Measure every (resolution, workgroup) pair for `scale`.
pub fn points(scale: Scale) -> Vec<SimtPoint> {
    let (names, reps): (&[&'static str], usize) = match scale {
        Scale::Quick => (&["QVGA", "VGA"], 3),
        Scale::Full => (&["VGA", "720p", "1080p"], 7),
    };
    let mut out = Vec::new();
    for res in names {
        for &wg in workgroups(scale) {
            out.push(simt_point(res, wg, reps));
        }
    }
    out
}

/// Render measured points as the T10 table.
pub fn table(points: &[SimtPoint]) -> Table {
    let mut t = Table::new(
        "T10 — SIMT interpreter vs analytic GPU model: executed warp/coalescing \
         counters against gpusim's predictions (bilinear, 32-byte lines)",
        &[
            "res",
            "workgroup",
            "simt_ms",
            "warps",
            "lines_per_warp",
            "gpu_lines_per_warp",
            "divergence",
            "lane_eff",
            "counters",
            "bit_exact",
        ],
    );
    for p in points {
        t.row(vec![
            p.res.to_string(),
            p.workgroup.to_string(),
            f2(p.simt_ms),
            p.warps.to_string(),
            f4(p.simt_lines_per_warp),
            f4(p.gpu_lines_per_warp),
            f4(p.divergence_rate),
            f4(p.lane_efficiency),
            if p.counters_match { "match" } else { "DRIFT" }.to_string(),
            if p.float_bit_exact && p.fixed_bit_exact {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    t.note("both sides walk a 32-wide workgroup grid and dedup 32-byte texture lines per warp; counters must agree exactly, so lines_per_warp == gpu_lines_per_warp on every row");
    t.note("divergence/lane_eff are execution-only: the fisheye rim splits warp validity masks, which the analytic model never sees");
    t.note("bit_exact = float kernel == serial host == gpusim output, and fixed-LUT kernel == correct_fixed on the plan's q12 map");
    t.note("simt_ms is the interpreter's functional wall-clock (best of reps), not a hardware estimate — gpusim owns the cycle model");
    t.gate_flag("counters_match", points.iter().all(|p| p.counters_match));
    t.gate_flag(
        "all_bit_exact",
        points
            .iter()
            .all(|p| p.float_bit_exact && p.fixed_bit_exact),
    );
    t
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    table(&points(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_interpreter_matches_model_and_stays_exact() {
        let _serial = crate::experiments::serialize();
        let points = points(Scale::Quick);
        assert_eq!(points.len(), 4, "2 resolutions x 2 workgroups");
        for p in &points {
            assert!(
                p.counters_match,
                "{}/wg{}: interpreter counters drifted from the model \
                 ({:.6} vs {:.6} lines/warp)",
                p.res, p.workgroup, p.simt_lines_per_warp, p.gpu_lines_per_warp
            );
            assert!(
                p.float_bit_exact,
                "{}/wg{}: float kernel not bit-exact",
                p.res, p.workgroup
            );
            assert!(
                p.fixed_bit_exact,
                "{}/wg{}: fixed-LUT kernel not bit-exact",
                p.res, p.workgroup
            );
            assert!(
                p.warps > 0 && p.simt_ms > 0.0,
                "{}/wg{}",
                p.res,
                p.workgroup
            );
            // a 180-degree fisheye leaves corners invalid, so some
            // warps straddle the rim and some lanes idle
            assert!(
                p.divergence_rate > 0.0 && p.divergence_rate < 1.0,
                "{}/wg{}: divergence {:.4}",
                p.res,
                p.workgroup,
                p.divergence_rate
            );
            assert!(
                p.lane_efficiency > 0.5 && p.lane_efficiency < 1.0,
                "{}/wg{}: lane efficiency {:.4}",
                p.res,
                p.workgroup,
                p.lane_efficiency
            );
        }
        // taller workgroups never touch *more* lines per warp: the
        // warp is a row either way, so the ratio is shape-stable
        for res in ["QVGA", "VGA"] {
            let by_wg: Vec<&SimtPoint> = points.iter().filter(|p| p.res == res).collect();
            assert_eq!(by_wg.len(), 2);
            assert!(
                (by_wg[0].simt_lines_per_warp - by_wg[1].simt_lines_per_warp).abs() < 0.5,
                "{res}: lines/warp should be near-invariant in workgroup height"
            );
        }
        let t = table(&points);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.headers.len(), 10);
        let names: Vec<&str> = t.gates.iter().map(|g| g.name).collect();
        assert_eq!(names, ["counters_match", "all_bit_exact"]);
        assert!(t.gates.iter().all(|g| g.passes()), "{:?}", t.gates);
    }
}
