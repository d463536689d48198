//! Property-based tests of the compiled plan layer: executing a
//! [`RemapPlan`] must be bit-exact with the branchy reference kernels
//! (`correct` / `correct_fixed`) for arbitrary lenses and views, plan
//! compilation must be deterministic, and the per-row valid-span RLE
//! must partition the map's valid entries exactly.
//!
//! Runs on the in-tree `proputil` harness (seeded cases, halving
//! shrinker) — see DESIGN.md §5 for why no external property-test
//! crate is used.

use fisheye_core::plan::{correct_plan, PlanOptions, RemapPlan};
use fisheye_core::{correct, correct_fixed, Interpolator, MapEntry, RemapMap};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use pixmap::{Gray8, Image};
use proputil::{ensure, ensure_eq, Gen};

const CASES: u32 = 32;

/// A random (lens, view, source frame) workload. Wide view FOVs behind
/// narrow lens FOVs produce invalid regions, so both the all-valid and
/// the gappy span shapes are exercised.
fn arb_workload(g: &mut Gen) -> (RemapMap, Image<Gray8>) {
    let sw = g.u32_in(16, 97);
    let sh = g.u32_in(16, 97);
    let lens_fov = g.f64_in(100.0, 200.0);
    let lens = FisheyeLens::equidistant_fov(sw, sh, lens_fov);
    let ow = g.u32_in(8, 81);
    let oh = g.u32_in(8, 81);
    let view_fov = g.f64_in(40.0, 170.0);
    let pan = g.f64_in(-30.0, 30.0);
    let tilt = g.f64_in(-20.0, 20.0);
    let view = PerspectiveView::centered(ow, oh, view_fov).look(pan, tilt);
    let map = RemapMap::build(&lens, &view, sw, sh);
    let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
    (map, frame)
}

/// Random lens + view geometry, for properties that need to rebuild
/// maps for perturbed views of the same lens (delta recompilation).
fn arb_geometry(g: &mut Gen) -> (FisheyeLens, PerspectiveView, u32, u32) {
    let sw = g.u32_in(16, 97);
    let sh = g.u32_in(16, 97);
    let lens = FisheyeLens::equidistant_fov(sw, sh, g.f64_in(100.0, 200.0));
    let ow = g.u32_in(8, 81);
    let oh = g.u32_in(8, 81);
    let view = PerspectiveView::centered(ow, oh, g.f64_in(40.0, 170.0))
        .look(g.f64_in(-30.0, 30.0), g.f64_in(-20.0, 20.0));
    (lens, view, sw, sh)
}

fn arb_interp(g: &mut Gen) -> Interpolator {
    *g.pick(&[
        Interpolator::Nearest,
        Interpolator::Bilinear,
        Interpolator::Bicubic,
    ])
}

#[test]
fn plan_execution_bit_exact_with_branchy_reference() {
    proputil::check(
        "plan_execution_bit_exact_with_branchy_reference",
        CASES,
        |g| {
            let (map, frame) = arb_workload(g);
            let interp = arb_interp(g);
            let plan = RemapPlan::compile(&map, PlanOptions::default());
            let reference = correct(&frame, &map, interp);
            let planned = correct_plan(&frame, &plan, interp);
            ensure_eq!(reference, planned, "interp {}", interp.name());
            Ok(())
        },
    );
}

#[test]
fn plan_fixed_lut_bit_exact_with_direct_quantization() {
    proputil::check(
        "plan_fixed_lut_bit_exact_with_direct_quantization",
        CASES,
        |g| {
            let (map, frame) = arb_workload(g);
            let frac_bits = g.u32_in(4, 16); // u16 weights: 1..=15 bits
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
            ensure_eq!(
                correct_fixed(&frame, &map.to_fixed(frac_bits)),
                correct_fixed(&frame, lut),
                "frac_bits {frac_bits}"
            );
            Ok(())
        },
    );
}

#[test]
fn plan_compilation_is_deterministic() {
    proputil::check("plan_compilation_is_deterministic", CASES, |g| {
        let (map, _) = arb_workload(g);
        let opts = PlanOptions {
            frac_bits: vec![g.u32_in(4, 16)],
            tiles: vec![(g.u32_in(4, 33), g.u32_in(4, 33))],
        };
        let a = RemapPlan::compile(&map, opts.clone());
        let b = RemapPlan::compile(&map, opts);
        ensure_eq!(a.digest(), b.digest());
        // and a clone of the map compiles to the same artifact
        let c = RemapPlan::compile(&map.clone(), PlanOptions::default());
        let d = RemapPlan::compile(&map, PlanOptions::default());
        ensure_eq!(c.digest(), d.digest());
        Ok(())
    });
}

#[test]
fn spans_partition_the_valid_entries_exactly() {
    proputil::check("spans_partition_the_valid_entries_exactly", CASES, |g| {
        let (map, _) = arb_workload(g);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let mut spanned: u64 = 0;
        for y in 0..map.height() {
            let row = map.row(y);
            let mut prev_end = 0u32;
            for s in plan.spans(y) {
                ensure!(s.start >= prev_end, "spans overlap or run backwards");
                ensure!(s.start < s.end, "empty span stored");
                for x in s.start..s.end {
                    ensure!(row[x as usize].is_valid(), "span covers invalid ({x},{y})");
                }
                spanned += s.len() as u64;
                prev_end = s.end;
            }
        }
        let valid = map.entries().iter().filter(|e| e.is_valid()).count() as u64;
        ensure_eq!(spanned, valid, "spans must cover every valid entry once");
        let total = map.width() as u64 * map.height() as u64;
        ensure_eq!(plan.invalid_pixels(), total - valid);
        Ok(())
    });
}

/// The digest is a function of the map and the *requested* options,
/// never of which artifacts happen to be materialized: forcing lazy
/// derivation must not move it, while different quantization widths
/// and tile geometries must never collide. This is what
/// lets the serve-layer plan cache key on the digest while backends
/// materialize LUTs and tile plans on demand.
#[test]
fn digest_ignores_materialization_but_folds_in_options() {
    proputil::check(
        "digest_ignores_materialization_but_folds_in_options",
        CASES,
        |g| {
            let (map, _) = arb_workload(g);
            let frac_bits = g.u32_in(4, 16);
            let (tw, th) = (g.u32_in(4, 33), g.u32_in(4, 33));
            let opts = PlanOptions {
                frac_bits: vec![frac_bits],
                tiles: vec![(tw, th)],
            };
            let eager = RemapPlan::compile(&map, opts.clone());
            let lazy = RemapPlan::compile(&map, PlanOptions::default());
            let before = lazy.digest();
            let (_, derived) = lazy.fixed_lazy(frac_bits);
            ensure!(derived.is_some(), "first LUT derivation must be reported");
            let (_, rederived) = lazy.fixed_lazy(frac_bits);
            ensure!(rederived.is_none(), "second derivation must hit the memo");
            let (_, tiled) = lazy.tile_plan_lazy(tw, th);
            ensure!(tiled.is_some(), "first tile derivation must be reported");
            ensure_eq!(before, lazy.digest(), "materialization moved the digest");
            // ...while the requested options always separate plans:
            ensure!(
                eager.digest() != lazy.digest(),
                "artifact options vs none must not collide"
            );
            let bump = PlanOptions {
                frac_bits: vec![if frac_bits == 15 { 4 } else { frac_bits + 1 }],
                ..opts.clone()
            };
            ensure!(
                RemapPlan::compile(&map, bump).digest() != eager.digest(),
                "frac_bits not folded into the digest"
            );
            let geom = PlanOptions {
                tiles: vec![(tw + 1, th)],
                ..opts
            };
            ensure!(
                RemapPlan::compile(&map, geom).digest() != eager.digest(),
                "tile geometry not folded into the digest"
            );
            Ok(())
        },
    );
}

/// A delta recompilation seeded by the outgoing plan must be
/// indistinguishable from a cold [`RemapPlan::compile`] of the new
/// map: same digest, spans, coordinate bits and invalid count, and
/// its lazily derived artifacts must match the cold plan's eager
/// ones. Covers full reuse (unchanged view), small pans, wholesale
/// view swaps and output-dimension changes (the rebuild fallback).
#[test]
fn delta_recompile_bit_exact_with_cold_compile() {
    proputil::check("delta_recompile_bit_exact_with_cold_compile", CASES, |g| {
        let (lens, view, sw, sh) = arb_geometry(g);
        let frac_bits = g.u32_in(4, 16);
        let (tw, th) = (g.u32_in(4, 33), g.u32_in(4, 33));
        let opts = PlanOptions {
            frac_bits: vec![frac_bits],
            tiles: vec![(tw, th)],
        };
        let prev = RemapPlan::compile(&RemapMap::build(&lens, &view, sw, sh), opts.clone());
        let kind = g.usize_in(0, 4);
        let next = match kind {
            0 => view, // unchanged view: every row reused
            1 => view.look(g.f64_in(-2.0, 2.0), g.f64_in(-1.0, 1.0)),
            2 => PerspectiveView::centered(view.width, view.height, g.f64_in(40.0, 170.0)),
            _ => PerspectiveView::centered(g.u32_in(8, 81), g.u32_in(8, 81), g.f64_in(40.0, 170.0)),
        };
        let map = RemapMap::build(&lens, &next, sw, sh);
        let cold = RemapPlan::compile(&map, opts.clone());
        let delta = prev.recompile(map.clone());
        ensure_eq!(delta.digest(), cold.digest(), "kind {kind}");
        ensure_eq!(delta.invalid_pixels(), cold.invalid_pixels());
        for y in 0..map.height() {
            ensure_eq!(delta.spans(y), cold.spans(y), "spans row {y}");
            ensure_eq!(
                delta.interior_runs(y),
                cold.interior_runs(y),
                "interior runs row {y}"
            );
            let bits = |v: &[f32]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            ensure_eq!(bits(delta.row_sx(y)), bits(cold.row_sx(y)), "sx row {y}");
            ensure_eq!(bits(delta.row_sy(y)), bits(cold.row_sy(y)), "sy row {y}");
        }
        // Lazily derived artifacts match the cold plan's eager ones.
        let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
        let (lut, _) = delta.fixed_lazy(frac_bits);
        let eager_lut = cold
            .fixed(frac_bits)
            .ok_or_else(|| format!("cold plan lost its {frac_bits}-bit LUT"))?;
        ensure_eq!(
            correct_fixed(&frame, &lut),
            correct_fixed(&frame, eager_lut)
        );
        let (tiles, _) = delta.tile_plan_lazy(tw, th);
        let eager_tiles = cold
            .tile_plan(tw, th)
            .ok_or_else(|| format!("cold plan lost its {tw}x{th} tile plan"))?;
        ensure_eq!(tiles.jobs, eager_tiles.jobs, "tile jobs {tw}x{th}");
        let interp = arb_interp(g);
        ensure_eq!(
            correct_plan(&frame, &delta, interp),
            correct_plan(&frame, &cold, interp),
            "interp {}",
            interp.name()
        );
        Ok(())
    });
}

/// A delta recompilation holds the same interior-run index as a cold
/// compile, row for row, and so the same [`RemapPlan::bytes`]: rows it
/// reuses keep their runs, rows it rescans rebuild them. The options
/// carry no eager LUT or tile plan, which a delta plan leaves to lazy
/// derivation and would not count.
#[test]
fn delta_recompile_keeps_the_interior_runs_and_bytes() {
    proputil::check(
        "delta_recompile_keeps_the_interior_runs_and_bytes",
        CASES,
        |g| {
            let (lens, view, sw, sh) = arb_geometry(g);
            let opts = PlanOptions::default();
            let prev = RemapPlan::compile(&RemapMap::build(&lens, &view, sw, sh), opts.clone());
            let next = match g.usize_in(0, 3) {
                0 => view,
                1 => view.look(g.f64_in(-2.0, 2.0), g.f64_in(-1.0, 1.0)),
                _ => PerspectiveView::centered(view.width, view.height, g.f64_in(40.0, 170.0)),
            };
            let map = RemapMap::build(&lens, &next, sw, sh);
            let cold = RemapPlan::compile(&map, opts);
            let delta = prev.recompile(map.clone());
            for y in 0..map.height() {
                ensure_eq!(
                    delta.interior_runs(y),
                    cold.interior_runs(y),
                    "interior runs row {y}"
                );
            }
            ensure_eq!(delta.bytes(), cold.bytes());
            Ok(())
        },
    );
}

/// Delta recompilation over degenerate hand-built maps: fully
/// invalid, single-row and single-column shapes must round-trip
/// through [`RemapPlan::recompile`] exactly like a cold compile.
#[test]
fn delta_recompile_handles_degenerate_maps() {
    proputil::check("delta_recompile_handles_degenerate_maps", CASES, |g| {
        let (sw, sh) = (32u32, 24u32);
        let shape = g.usize_in(0, 3);
        let (w, h) = match shape {
            0 => (g.u32_in(1, 17), g.u32_in(1, 17)), // all-invalid
            1 => (g.u32_in(1, 41), 1),               // single row
            _ => (1, g.u32_in(1, 41)),               // single column
        };
        let arb_map = |g: &mut Gen, all_invalid: bool| {
            let entries: Vec<MapEntry> = (0..w as usize * h as usize)
                .map(|_| {
                    if all_invalid || g.bool() {
                        MapEntry::INVALID
                    } else {
                        MapEntry {
                            sx: g.f64_in(0.0, sw as f64) as f32,
                            sy: g.f64_in(0.0, sh as f64) as f32,
                        }
                    }
                })
                .collect();
            RemapMap::from_entries(w, h, sw, sh, entries)
        };
        let prev = RemapPlan::compile(&arb_map(g, shape == 0), PlanOptions::default());
        let gappy = g.bool();
        let map = arb_map(g, gappy);
        let cold = RemapPlan::compile(&map, PlanOptions::default());
        let delta = prev.recompile(map.clone());
        ensure_eq!(delta.digest(), cold.digest(), "shape {shape} {w}x{h}");
        ensure_eq!(delta.invalid_pixels(), cold.invalid_pixels());
        for y in 0..h {
            ensure_eq!(delta.spans(y), cold.spans(y), "spans row {y}");
            ensure_eq!(
                delta.interior_runs(y),
                cold.interior_runs(y),
                "interior runs row {y}"
            );
        }
        ensure_eq!(delta.bytes(), cold.bytes(), "shape {shape} {w}x{h}");
        let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
        let interp = arb_interp(g);
        ensure_eq!(
            correct_plan(&frame, &delta, interp),
            correct_plan(&frame, &cold, interp)
        );
        Ok(())
    });
}

/// Degenerate maps the span builder must not trip over: fully invalid,
/// single-row, single-column, and 1×1 outputs (valid or not).
#[test]
fn degenerate_maps_execute_like_the_reference() {
    proputil::check("degenerate_maps_execute_like_the_reference", CASES, |g| {
        let (sw, sh) = (32u32, 24u32);
        let frame = pixmap::scene::random_gray(sw, sh, g.u64_any());
        let shape = g.usize_in(0, 4);
        let (w, h) = match shape {
            0 => (g.u32_in(1, 17), g.u32_in(1, 17)), // all-invalid
            1 => (g.u32_in(1, 41), 1),               // single row
            2 => (1, g.u32_in(1, 41)),               // single column
            _ => (1, 1),                             // 1×1
        };
        let entries: Vec<MapEntry> = (0..w as usize * h as usize)
            .map(|_| {
                if shape == 0 || g.bool() {
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
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        ensure_eq!(
            correct(&frame, &map, interp),
            correct_plan(&frame, &plan, interp),
            "shape {shape} {w}x{h} interp {}",
            interp.name()
        );
        Ok(())
    });
}
