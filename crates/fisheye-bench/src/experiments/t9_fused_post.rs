//! T9 — the fused post stage: what color grading costs when it rides
//! the remap traversal versus a separate pass.
//!
//! The paper's phase-2 remap is memory-bound, which is exactly why the
//! post stage (3D-LUT grade → tone map → encode, compiled to a
//! 256-entry [`PostPlan`] table) fuses into the span walk nearly for
//! free: the table lookup lands while the interpolated pixel is still
//! in registers. Three timings per (resolution, backend):
//!
//! * **correct** — the bare correction, no post stage: the baseline
//!   the fused path's overhead is measured against.
//! * **fused** — [`CorrectionEngine::correct_frame_post`]: grade
//!   applied inside the same memory traversal as the remap. Every
//!   swept backend (`simd` included) grades each row in the host row
//!   driver as the span walk finishes it, and reports `fused=1`.
//! * **twopass** — correct, then the naive separate grading pass a
//!   bolted-on filter stage would run: the full per-pixel float chain
//!   (sRGB EOTF → trilinear LUT sample → strength mix → tone curve →
//!   OETF → quantize) over the corrected frame, re-traversing it.
//!
//! The fused path must be byte-identical to the two-pass reference —
//! the table bakes `transfer255` per byte, the reference evaluates it
//! per pixel, same scalar expression either way — so `bit_exact` is
//! asserted every run. The acceptance bands (`overhead ≤ 1.15×`,
//! `speedup ≥ 1.3×` at VGA and above) are gates on the T9 table,
//! which `repro` checks at release scale.
//!
//! [`PostPlan`]: fisheye_core::post::PostPlan
//! [`CorrectionEngine::correct_frame_post`]: fisheye_core::engine::CorrectionEngine::correct_frame_post

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fisheye_core::engine::{build_host, EngineSpec, HostCtx};
use fisheye_core::post::{Lut3d, PostChannel, PostStage, ToneMap};
use fisheye_core::Interpolator;
use par_runtime::Schedule;
use pixmap::{Gray8, Image};

use crate::table::{f2, Cmp, Table};
use crate::workloads::{random_workload, resolution, Resolution};
use crate::Scale;

/// The host backends the table sweeps — the same three as T6, and for
/// the same reason: they share the bilinear kernel, so the post-stage
/// ratio isolates the grading datapath, not the interpolator.
fn backends() -> Vec<(&'static str, EngineSpec, usize)> {
    vec![
        ("serial", EngineSpec::Serial, 1),
        (
            "smp",
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
            4,
        ),
        ("simd", EngineSpec::Simd, 1),
    ]
}

/// The T9 stage: full-strength warm grade plus the mcface tone curve.
/// Dither is deliberately off — it is a creative choice, not part of
/// the cost argument, and T9's two-pass reference would need the same
/// lattice to stay byte-identical.
fn t9_stage() -> PostStage {
    PostStage::identity()
        .with_grade(
            Arc::new(Lut3d::builtin("warm").expect("builtin warm lut")),
            1.0,
        )
        .with_tone_map(ToneMap::McFace)
}

/// The naive separate grading pass: the full float transfer chain
/// evaluated per pixel over the already-corrected frame. This is what
/// grading costs when it does *not* ride the remap traversal — no
/// 256-entry table, one extra full memory pass.
fn reference_grade(stage: &PostStage, out: &mut Image<Gray8>) {
    for p in out.pixels_mut() {
        let v = stage.transfer255(PostChannel::Luma, p.0 as f32);
        // same quantizer as PostPlan compilation: NaN to 0, then
        // round-half-up clamped to the byte range
        p.0 = if v.is_nan() {
            0
        } else {
            (v + 0.5).floor().clamp(0.0, 255.0) as u8
        };
    }
}

/// One (resolution, backend) measurement.
#[cfg_attr(test, derive(Default))]
pub struct PostPoint {
    /// Resolution name.
    pub res: &'static str,
    /// Backend name.
    pub backend: &'static str,
    /// Bare correction, ms (median).
    pub correct_ms: f64,
    /// Correction with the post stage fused into the traversal, ms.
    pub fused_ms: f64,
    /// Correction plus the naive per-pixel grading pass, ms.
    pub twopass_ms: f64,
    /// `fused / correct` — what fusion charges the remap.
    pub overhead: f64,
    /// `twopass / fused` — what fusion saves over a separate pass.
    pub speedup: f64,
    /// Fused output byte-identical to the two-pass reference.
    pub bit_exact: bool,
}

/// Best-of-reps: the minimum sample. Scheduler interference and
/// cache pollution only ever *add* time, so the quietest rep is the
/// closest estimate of the kernel's true cost — and the overhead
/// band is a claim about the kernels, not about this host's load.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Measure one (resolution, backend) pair. The three variants are
/// timed interleaved, rep by rep, so a load spike that would have
/// landed entirely on one variant gets a chance to hit all three;
/// the ratios are then taken between best-of-reps times.
fn post_point(
    res: Resolution,
    name: &'static str,
    spec: &EngineSpec,
    threads: usize,
    reps: usize,
) -> PostPoint {
    let workload = random_workload(res, 0x7009);
    let plan = workload.plan_for(spec);
    let engine = build_host(
        spec,
        &HostCtx {
            interp: Interpolator::Bilinear,
            threads,
            geometry: None,
        },
    )
    .expect("host backend builds");
    let stage = t9_stage();
    let post = stage.compile(PostChannel::Luma);
    let src = &workload.frame;
    let (w, h) = (plan.width(), plan.height());
    let mut out = Image::<Gray8>::new(w, h);

    // bit-exactness first: fused output vs correct-then-reference
    let mut fused_out = Image::<Gray8>::new(w, h);
    engine
        .correct_frame_post(src, &plan, Some(&post), &mut fused_out)
        .expect("fused correction");
    let mut ref_out = Image::<Gray8>::new(w, h);
    engine
        .correct_frame(src, &plan, &mut ref_out)
        .expect("reference correction");
    reference_grade(&stage, &mut ref_out);
    let bit_exact = fused_out.pixels() == ref_out.pixels();

    // warmup each variant once, then interleave the timed reps
    let _ = engine.correct_frame(src, &plan, &mut out);
    let _ = engine.correct_frame_post(src, &plan, Some(&post), &mut out);
    let mut correct = Vec::with_capacity(reps);
    let mut fused = Vec::with_capacity(reps);
    let mut twopass = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        engine
            .correct_frame(src, &plan, &mut out)
            .expect("correct rep");
        let t_correct = t0.elapsed().as_secs_f64();
        black_box(&out);

        let t0 = Instant::now();
        engine
            .correct_frame_post(src, &plan, Some(&post), &mut out)
            .expect("fused rep");
        let t_fused = t0.elapsed().as_secs_f64();
        black_box(&out);

        let t0 = Instant::now();
        engine
            .correct_frame(src, &plan, &mut out)
            .expect("twopass correct rep");
        reference_grade(&stage, &mut out);
        let t_twopass = t0.elapsed().as_secs_f64();
        black_box(&out);

        correct.push(t_correct);
        fused.push(t_fused);
        twopass.push(t_twopass);
    }

    let (t_correct, t_fused, t_twopass) = (best(&correct), best(&fused), best(&twopass));
    PostPoint {
        res: res.name,
        backend: name,
        correct_ms: t_correct * 1e3,
        fused_ms: t_fused * 1e3,
        twopass_ms: t_twopass * 1e3,
        overhead: t_fused / t_correct.max(1e-12),
        speedup: t_twopass / t_fused.max(1e-12),
        bit_exact,
    }
}

/// Measure every (resolution, backend) pair for `scale`.
pub fn points(scale: Scale) -> Vec<PostPoint> {
    // generous rep counts: best-of-reps only defeats a load spike if
    // at least one rep of every variant lands clear of it, and the
    // smoke run reaches this experiment seconds after a cargo build
    let (names, reps): (&[&str], usize) = match scale {
        Scale::Quick => (&["QVGA", "VGA"], 21),
        Scale::Full => (&["QVGA", "VGA", "720p", "1080p"], 15),
    };
    let mut out = Vec::new();
    for n in names {
        let res = resolution(n);
        for (name, spec, threads) in backends() {
            out.push(post_point(res, name, &spec, threads, reps));
        }
    }
    out
}

/// Render measured points as the T9 table.
pub fn table(points: &[PostPoint]) -> Table {
    let mut t = Table::new(
        "T9 — fused post stage: grade+tone-map inside the remap traversal vs a \
         separate per-pixel grading pass (warm LUT, mcface, bilinear)",
        &[
            "res",
            "backend",
            "correct_ms",
            "fused_ms",
            "twopass_ms",
            "overhead",
            "speedup",
            "bit_exact",
        ],
    );
    for p in points {
        t.row(vec![
            p.res.to_string(),
            p.backend.to_string(),
            f2(p.correct_ms),
            f2(p.fused_ms),
            f2(p.twopass_ms),
            f2(p.overhead),
            f2(p.speedup),
            if p.bit_exact { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("correct = bare remap; fused = correct_frame_post (256-entry table inside the span walk); twopass = remap then the naive per-pixel float chain over the output");
    t.note("overhead = fused/correct (band: <= 1.15x at VGA+); speedup = twopass/fused (band: >= 1.3x at VGA+)");
    t.note("times are best-of-reps over interleaved runs: interference only adds time, so the quietest rep estimates the kernel, which is what the bands are claims about");
    t.note("bit_exact: the fused table path matches the per-pixel reference byte for byte — the table bakes the same transfer255 the reference evaluates");
    // the bands cover VGA and above: QVGA frames fit in cache, so its
    // ratios say little about the memory-bound regime fusion is about
    // (NaN start: no such rows fails the gates)
    let vga_up = || points.iter().filter(|p| p.res != "QVGA");
    let max_overhead = vga_up().map(|p| p.overhead).fold(f64::NAN, f64::max);
    let min_speedup = vga_up().map(|p| p.speedup).fold(f64::NAN, f64::min);
    t.gate("max_overhead", max_overhead, Cmp::AtMost, 1.15);
    t.gate("min_speedup", min_speedup, Cmp::AtLeast, 1.3);
    t.gate_flag("all_bit_exact", points.iter().all(|p| p.bit_exact));
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
    fn shape_fusion_is_cheap_exact_and_beats_two_pass() {
        let _serial = crate::experiments::serialize();
        let points = points(Scale::Quick);
        assert_eq!(points.len(), 6, "2 resolutions x 3 backends");
        for p in &points {
            assert!(
                p.bit_exact,
                "{}/{}: fused output must match the two-pass reference",
                p.res, p.backend
            );
            assert!(
                p.correct_ms > 0.0 && p.fused_ms > 0.0 && p.twopass_ms > 0.0,
                "{}/{}",
                p.res,
                p.backend
            );
            // the naive per-pixel chain re-traverses the frame; fusion
            // must beat it everywhere, even in noisy debug builds
            assert!(
                p.speedup > 1.0,
                "{}/{}: fused ({:.3}ms) no faster than two-pass ({:.3}ms)",
                p.res,
                p.backend,
                p.fused_ms,
                p.twopass_ms
            );
        }
        // the bands proper (1.15x / 1.3x) are gated at release scale
        // by `repro`; debug builds get generous slack but
        // must keep the shape at VGA, where timings leave the noise
        // floor
        for p in points.iter().filter(|p| p.res == "VGA") {
            assert!(
                p.overhead < 1.8,
                "{}/{}: fusion overhead {:.2}x way out of band",
                p.res,
                p.backend,
                p.overhead
            );
            assert!(
                p.speedup >= 1.2,
                "{}/{}: speedup {:.2}x below the debug floor",
                p.res,
                p.backend,
                p.speedup
            );
        }
        let t = table(&points);
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.headers.len(), 8);
        let names: Vec<&str> = t.gates.iter().map(|g| g.name).collect();
        assert_eq!(names, ["max_overhead", "min_speedup", "all_bit_exact"]);
        assert!(t.gates[2].passes(), "{:?}", t.gates[2]);
    }
}
