//! T4 — engine observability: frames through every registered
//! backend, tabulating what its `FrameReport` attributes — plan
//! compile time, wall time, rows/tiles of work, invalid pixels, the
//! output pool's hit rate, and the backend model's headline statistic
//! where one exists. This is the registry-driven complement to T1:
//! same interface for every platform, uniform key/value section for
//! the model-specific numbers.
//!
//! Every backend consumes the same kind of compiled `RemapPlan` (each
//! compiled with exactly the artifacts its spec needs — `plan_ms`
//! shows what that costs per view change), and every output frame is
//! drawn from a primed `FramePool` — `pool_hit` at 100 % confirms the
//! steady-state frame path allocates nothing on any backend.

use fisheye::core::engine::NumericClass;
use fisheye::core::EngineSpec;
use fisheye::Corrector;
use pixmap::FramePool;

use crate::table::{f1, f2, Table};
use crate::workloads::{random_workload, resolution};
use crate::Scale;

/// Frames run through each backend (first warms the pool's buffer).
const FRAMES: usize = 3;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = match scale {
        Scale::Quick => resolution("VGA"),
        Scale::Full => resolution("1080p"),
    };
    let w = random_workload(res, 4);
    let mut table = Table::new(
        format!(
            "T4 — engine reports ({}, bilinear, {FRAMES} frames)",
            res.name
        ),
        &[
            "backend",
            "class",
            "plan_ms",
            "correct_ms",
            "rows",
            "tiles",
            "invalid_px",
            "pool_hit",
            "model_fps",
            "model_detail",
        ],
    );
    for spec in EngineSpec::registry() {
        // one Corrector per spec: the builder traces the map, compiles
        // the plan with the spec's artifacts and resolves the engine
        let corrector = Corrector::builder()
            .lens(w.lens)
            .view(w.view)
            .source(res.w, res.h)
            .backend(spec)
            .build()
            .expect("registry spec builds");
        let plan_ms = corrector.plan_time().as_secs_f64() * 1e3;
        let (ow, oh) = corrector.out_dims();
        let pool = FramePool::new(ow, oh);
        pool.prime(1);
        let mut report = None;
        for _ in 0..FRAMES {
            let mut out = pool.acquire();
            report = Some(
                corrector
                    .correct_into(&w.frame, &mut out)
                    .expect("registry spec corrects"),
            );
            // `out` drops here: the buffer recycles for the next frame
        }
        let report = report.expect("at least one frame ran");
        let class = match spec.numeric_class() {
            NumericClass::Float => "float".to_string(),
            NumericClass::Fixed { frac_bits } => format!("q{frac_bits}"),
        };
        let model_fps = report
            .model
            .get("model_fps")
            .map(|f| f1(*f))
            .unwrap_or_else(|| "-".into());
        // the rest of the uniform kv section, compacted
        let detail: Vec<String> = report
            .model_pairs()
            .into_iter()
            .filter(|p| !p.starts_with("model_fps="))
            .take(3)
            .collect();
        table.row(vec![
            report.backend.clone(),
            class,
            f2(plan_ms),
            f2(report.correct_time.as_secs_f64() * 1e3),
            report.rows.to_string(),
            report.tiles.to_string(),
            report.invalid_pixels.to_string(),
            format!("{:.0}%", pool.hit_rate() * 100.0),
            model_fps,
            if detail.is_empty() {
                "-".into()
            } else {
                detail.join(" ")
            },
        ]);
    }
    table.note("host backends report measured wall time; cell/gpu report the machine model's cycle-accurate fps");
    table.note("every backend ran the same frames through the same CorrectionEngine interface on one compiled plan per spec");
    table.note("plan_ms is per-view-change work (span index + per-spec LUT quantization/tiling); pool_hit 100% = zero per-frame allocation");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_every_backend_reports() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        for spec in EngineSpec::registry() {
            assert!(
                names.contains(&spec.name().as_str()),
                "{} missing from T4",
                spec.name()
            );
        }
        for r in &t.rows {
            let backend = &r[0];
            assert!(
                r[4] != "0" || r[5] != "0",
                "{backend}: no work attributed (rows and tiles both zero)"
            );
            let plan_ms: f64 = r[2].parse().unwrap();
            assert!(plan_ms >= 0.0, "{backend}: plan_ms {plan_ms}");
            assert_eq!(r[7], "100%", "{backend}: primed pool must never miss");
            let is_model = backend.starts_with("cell") || backend.starts_with("gpu");
            if is_model {
                let fps: f64 = r[8].parse().unwrap();
                assert!(fps > 0.0, "{backend}: model fps {fps}");
                assert_ne!(r[9], "-", "{backend}: model detail expected");
            }
        }
    }
}
