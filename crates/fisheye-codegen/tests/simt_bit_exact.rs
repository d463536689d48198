//! The acceptance property of the SIMT interpreter: executing the
//! lowered kernel must be **bit-exact** with the host engines on the
//! same plan — `serial`/`simd` for the float kernel, `correct_fixed`
//! for the fixed-LUT kernel — over random lenses, views,
//! interpolators and post stages, including the degenerate shapes
//! (1×1, all-invalid, ragged tile edges).

use std::sync::Arc;

use fisheye_codegen::{SimtConfig, SimtEngine};
use fisheye_core::engine::{execute_host_post, CorrectionEngine, EngineSpec};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{
    correct_fixed, DitherSeed, Interpolator, Lut3d, MapEntry, PostChannel, PostPlan, PostStage,
    RemapMap, ToneMap,
};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use pixmap::{Gray8, Image};
use proputil::{ensure, ensure_eq, Gen};

const CASES: u32 = 24;

fn arb_workload(g: &mut Gen) -> (RemapMap, Image<Gray8>) {
    let sw = g.u32_in(16, 97);
    let sh = g.u32_in(16, 97);
    let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(100.0, 200.0));
    let ow = g.u32_in(8, 81);
    let oh = g.u32_in(8, 81);
    let view = PerspectiveView::centered(ow, oh, g.f64_in(40.0, 170.0))
        .look(g.f64_in(-30.0, 30.0), g.f64_in(-20.0, 20.0));
    let map = RemapMap::build(&lens, &view, sw, sh);
    let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
    (map, frame)
}

fn arb_interp(g: &mut Gen) -> Interpolator {
    *g.pick(&[
        Interpolator::Nearest,
        Interpolator::Bilinear,
        Interpolator::Bicubic,
    ])
}

fn arb_workgroup(g: &mut Gen) -> usize {
    *g.pick(&[32usize, 64, 96, 256, 512])
}

/// A random compiled post stage — sometimes inert, sometimes a grade
/// + tone curve + dither combination.
fn arb_post(g: &mut Gen) -> Option<PostPlan> {
    if g.bool() {
        return None;
    }
    let mut stage = PostStage::identity();
    if g.bool() {
        let name = *g.pick(&["warm", "cool", "noir"]);
        let lut = Lut3d::builtin(name).expect("builtin lut");
        stage = stage.with_grade(Arc::new(lut), g.f64_in(0.1, 1.0) as f32);
    }
    if g.bool() {
        stage = stage.with_tone_map(ToneMap::McFace);
    }
    if g.bool() {
        stage = stage.with_dither(DitherSeed(g.u64_any()));
    }
    Some(stage.compile(PostChannel::Luma))
}

fn simt(g: &mut Gen, interp: Interpolator) -> SimtEngine {
    SimtEngine::new(
        SimtConfig {
            workgroup: arb_workgroup(g),
            ..SimtConfig::default()
        },
        interp,
    )
}

#[test]
fn simt_float_kernel_bit_exact_vs_serial_and_simd() {
    proputil::check(
        "simt_float_kernel_bit_exact_vs_serial_and_simd",
        CASES,
        |g| {
            let (map, frame) = arb_workload(g);
            let interp = arb_interp(g);
            let post = arb_post(g);
            let plan = RemapPlan::compile(&map, PlanOptions::default());
            let mut reference = Image::new(map.width(), map.height());
            execute_host_post(
                &EngineSpec::Serial,
                interp,
                &frame,
                &plan,
                post.as_ref(),
                None,
                &mut reference,
            )
            .map_err(|e| format!("serial reference: {e}"))?;
            let engine = simt(g, interp);
            let mut out = Image::new(map.width(), map.height());
            let report = engine
                .correct_frame_post(&frame, &plan, post.as_ref(), &mut out)
                .map_err(|e| format!("simt: {e}"))?;
            ensure_eq!(
                reference,
                out,
                "simt:{} vs serial, interp {}",
                engine.workgroup(),
                interp.name()
            );
            ensure!(report.rows == map.height() as u64, "rows miscounted");
            // simd is locked to bilinear — cross-check that leg too.
            if interp == Interpolator::Bilinear {
                let mut simd_out = Image::new(map.width(), map.height());
                execute_host_post(
                    &EngineSpec::Simd,
                    interp,
                    &frame,
                    &plan,
                    post.as_ref(),
                    None,
                    &mut simd_out,
                )
                .map_err(|e| format!("simd reference: {e}"))?;
                ensure_eq!(simd_out, out, "simt vs simd");
            }
            Ok(())
        },
    );
}

#[test]
fn simt_fixed_lut_kernel_bit_exact_vs_correct_fixed() {
    proputil::check(
        "simt_fixed_lut_kernel_bit_exact_vs_correct_fixed",
        CASES,
        |g| {
            let (map, frame) = arb_workload(g);
            let frac_bits = g.u32_in(4, 16); // u16 weights: 1..=15 bits
            let post = arb_post(g);
            let plan = RemapPlan::compile(
                &map,
                PlanOptions {
                    frac_bits: vec![frac_bits],
                    ..PlanOptions::default()
                },
            );
            let lut = plan
                .fixed(frac_bits)
                .ok_or_else(|| format!("plan lost its {frac_bits}-bit LUT"))?;
            let mut reference = correct_fixed(&frame, lut);
            if let Some(pp) = post.as_ref().filter(|p| !p.is_noop()) {
                for y in 0..reference.height() {
                    pp.apply_row(reference.row_mut(y), y);
                }
            }
            let engine = simt(g, Interpolator::Bilinear);
            let mut out = Image::new(map.width(), map.height());
            let report = engine
                .run_fixed_gray8(&frame, &plan, frac_bits, post.as_ref(), &mut out)
                .map_err(|e| format!("simt fixed: {e}"))?;
            ensure_eq!(reference, out, "frac_bits {frac_bits}");
            ensure_eq!(
                report.model.get("frac_bits").copied(),
                Some(frac_bits as f64)
            );
            Ok(())
        },
    );
}

/// Degenerate maps: 1×1 outputs, all-invalid maps, single rows and
/// columns, and ragged shapes that leave partial warps and partial
/// workgroups at both edges.
#[test]
fn simt_handles_degenerate_and_ragged_maps() {
    proputil::check("simt_handles_degenerate_and_ragged_maps", CASES, |g| {
        let (sw, sh) = (32u32, 24u32);
        let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
        let shape = g.usize_in(0, 5);
        let (w, h) = match shape {
            0 => (1, 1),
            1 => (g.u32_in(1, 17), g.u32_in(1, 17)), // all-invalid
            2 => (g.u32_in(1, 67), 1),               // single row
            3 => (1, g.u32_in(1, 67)),               // single column
            _ => (g.u32_in(33, 101), g.u32_in(17, 67)), // ragged vs 32-wide warps
        };
        let entries: Vec<MapEntry> = (0..w as usize * h as usize)
            .map(|_| {
                if shape == 1 || g.bool() {
                    MapEntry::INVALID
                } else {
                    MapEntry {
                        sx: g.f64_in(0.0, sw as f64) as f32,
                        sy: g.f64_in(0.0, sh as f64) as f32,
                    }
                }
            })
            .collect();
        let map = RemapMap::from_entries(w, h, sw, sh, entries);
        let interp = arb_interp(g);
        let post = arb_post(g);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let mut reference = Image::new(w, h);
        execute_host_post(
            &EngineSpec::Serial,
            interp,
            &frame,
            &plan,
            post.as_ref(),
            None,
            &mut reference,
        )
        .map_err(|e| format!("serial reference: {e}"))?;
        let engine = simt(g, interp);
        let mut out = Image::new(w, h);
        let report = engine
            .correct_frame_post(&frame, &plan, post.as_ref(), &mut out)
            .map_err(|e| format!("simt: {e}"))?;
        ensure_eq!(reference, out, "shape {shape} {w}x{h}");
        // Every output row of every tile is a warp; the grid must
        // cover the frame exactly.
        let wg_h = (engine.workgroup() / 32).max(1) as u64;
        let tiles_x = w.div_ceil(32) as u64;
        let tiles_y = (h as u64).div_ceil(wg_h);
        ensure_eq!(report.tiles, tiles_x * tiles_y, "workgroup count");
        let warps = report.model.get("warps").copied().unwrap_or(0.0) as u64;
        ensure_eq!(warps, tiles_x * h as u64, "one warp per tile row");
        Ok(())
    });
}

#[test]
fn simt_batch_matches_per_frame_runs() {
    proputil::check("simt_batch_matches_per_frame_runs", CASES, |g| {
        let (map, _) = arb_workload(g);
        let (sw, sh) = (map.src_dims().0, map.src_dims().1);
        let n = g.usize_in(1, 5);
        let srcs: Vec<Image<Gray8>> = (0..n)
            .map(|_| pixmap::scene::random_gray(sw, sh, g.u64_any()))
            .collect();
        let post = arb_post(g);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let engine = simt(g, Interpolator::Bilinear);
        let mut outs: Vec<Image<Gray8>> = (0..n)
            .map(|_| Image::new(map.width(), map.height()))
            .collect();
        let batch = engine
            .run_batch(&srcs, &plan, post.as_ref(), &mut outs)
            .map_err(|e| format!("batch: {e}"))?;
        ensure_eq!(batch.frames, n as u64);
        let mut per_frame_counters = 0u64;
        for (src, batched) in srcs.iter().zip(&outs) {
            let mut single = Image::new(map.width(), map.height());
            let report = engine
                .correct_frame_post(src, &plan, post.as_ref(), &mut single)
                .map_err(|e| format!("single: {e}"))?;
            ensure_eq!(&single, batched, "batch frame diverged from single run");
            per_frame_counters += report.model.get("warps").copied().unwrap_or(0.0) as u64;
        }
        ensure_eq!(
            batch.counters.warps,
            per_frame_counters,
            "batch counters must be the sum of per-frame counters"
        );
        ensure!(
            batch.counters.valid_lanes <= batch.counters.active_lanes,
            "valid lanes cannot exceed active lanes"
        );
        ensure!(
            batch.counters.distinct_lines <= batch.counters.line_accesses,
            "dedup cannot grow accesses"
        );
        Ok(())
    });
}

#[test]
fn simt_rejects_mismatched_dims_like_host_engines() {
    let lens = FisheyeLens::equidistant_fov(64, 48, 160.0);
    let view = PerspectiveView::centered(40, 30, 90.0);
    let map = RemapMap::build(&lens, &view, 64, 48);
    let plan = RemapPlan::compile(&map, PlanOptions::default());
    let engine = SimtEngine::new(SimtConfig::default(), Interpolator::Bilinear);
    let src: Image<Gray8> = Image::new(64, 48);
    let mut bad_out: Image<Gray8> = Image::new(39, 30);
    let err = engine
        .correct_frame(&src, &plan, &mut bad_out)
        .expect_err("dim mismatch must fail");
    assert!(
        err.to_string().contains("does not match plan"),
        "unexpected error: {err}"
    );
    let bad_src: Image<Gray8> = Image::new(63, 48);
    let mut out: Image<Gray8> = Image::new(40, 30);
    let err = engine
        .correct_frame(&bad_src, &plan, &mut out)
        .expect_err("src mismatch must fail");
    assert!(
        err.to_string().contains("does not match plan source"),
        "unexpected error: {err}"
    );
}
