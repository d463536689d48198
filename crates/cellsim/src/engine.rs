//! [`CorrectionEngine`] adapter: the modeled Cell behind the same
//! interface as every host path.
//!
//! The runner wants a quantized LUT and a tile plan; both now live in
//! the compiled [`RemapPlan`] the caller hands to every frame, so the
//! engine holds **no** per-map state of its own — the plan's owner
//! (pipeline, video layer, CLI) pays quantization/planning once per
//! view change for every backend at once. If the plan was compiled
//! without this engine's LUT width or tile geometry, the engine
//! derives the missing artifact on the fly and flags the report with
//! `plan_miss` — functionally identical, measurably slower. The Cell
//! model's statistics (DMA traffic, local-store high water, fetch
//! redundancy, modeled cycles) land in the [`FrameReport`]'s uniform
//! key/value section.

use fisheye_core::engine::{
    check_frame_dims, CorrectionEngine, EngineError, EngineSpec, FrameReport,
};
use fisheye_core::plan::RemapPlan;
use pixmap::{Gray8, Image};

use crate::{CellConfig, CellRunner};

/// The modeled Cell as a correction engine (`Gray8` only — the SPE
/// kernel is the byte-wise fixed-point datapath).
pub struct CellEngine {
    runner: CellRunner,
    spec: EngineSpec,
    tile_w: u32,
    tile_h: u32,
    frac_bits: u32,
}

impl CellEngine {
    /// Build from a [`EngineSpec::Cell`] spec; `base` supplies the
    /// machine parameters the spec does not name (SPE count, clock,
    /// local-store size). The spec's buffering choice overrides the
    /// base config.
    pub fn from_spec(spec: &EngineSpec, base: CellConfig) -> Result<Self, EngineError> {
        match *spec {
            EngineSpec::Cell {
                tile_w,
                tile_h,
                double_buffer,
                frac_bits,
            } => Ok(CellEngine {
                runner: CellRunner::new(CellConfig {
                    double_buffer,
                    ..base
                }),
                spec: *spec,
                tile_w,
                tile_h,
                frac_bits,
            }),
            _ => Err(EngineError::unsupported(
                spec.name(),
                "CellEngine only builds cell specs",
            )),
        }
    }

    /// The runner (machine model) this engine drives.
    pub fn runner(&self) -> &CellRunner {
        &self.runner
    }
}

impl CorrectionEngine for CellEngine {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn correct_frame(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        let name = self.spec.name();
        check_frame_dims(&name, src, plan, out)?;
        // Plan-miss fallback: the plan derives anything it was not
        // compiled with through its memo, so only the first frame on a
        // given plan pays the derivation — later frames are free (and
        // silent).
        let (fixed, lut_ms) = plan.fixed_lazy(self.frac_bits);
        let (tiles, tile_ms) = plan.tile_plan_lazy(self.tile_w, self.tile_h);
        let derived = [lut_ms, tile_ms];
        let misses = derived.iter().flatten().count();
        let derive_ms: f64 = derived.iter().flatten().sum();
        let (frame, cell) = self
            .runner
            .correct_frame(src, &fixed, &tiles)
            .map_err(|e| EngineError::backend(&name, e.to_string()))?;
        out.pixels_mut().copy_from_slice(frame.pixels());

        let mut report = FrameReport::new(&name);
        report.rows = plan.height() as u64;
        report.tiles = tiles.jobs.len() as u64;
        report.invalid_pixels = plan.invalid_pixels();
        if misses > 0 {
            report.kv("plan_miss", misses as f64);
            report.kv("plan_derive_ms", derive_ms);
        }
        report.kv("frac_bits", self.frac_bits as f64);
        report.kv("spes", self.runner.config().n_spes as f64);
        report.kv("dma_bytes_in", cell.dma.bytes_in as f64);
        report.kv("dma_bytes_out", cell.dma.bytes_out as f64);
        report.kv("dma_cycles", cell.dma.cycles);
        report.kv("ls_high_water", cell.ls_high_water as f64);
        report.kv("redundancy", cell.redundancy);
        report.kv("frame_cycles", cell.frame_cycles);
        report.kv("model_fps", cell.fps);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_core::correct_fixed;
    use fisheye_core::map::RemapMap;
    use fisheye_core::plan::PlanOptions;
    use fisheye_core::Interpolator;
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    fn workload(spec: &EngineSpec) -> (RemapPlan, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(80, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let plan = RemapPlan::compile(&map, PlanOptions::for_spec(spec, Interpolator::Bilinear));
        let src = pixmap::scene::random_gray(160, 120, 21);
        (plan, src)
    }

    #[test]
    fn engine_bit_exact_vs_host_fixed() {
        let spec = EngineSpec::parse("cell").unwrap();
        let (plan, src) = workload(&spec);
        let engine = CellEngine::from_spec(&spec, CellConfig::default()).unwrap();
        let mut out = Image::new(80, 60);
        let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
        assert_eq!(out, correct_fixed(&src, &plan.map().to_fixed(12)));
        assert_eq!(report.backend, "cell");
        assert!(report.tiles > 0);
        assert!(report.model.contains_key("dma_bytes_in"));
        assert!(report.model["frame_cycles"] > 0.0);
        // the plan carried both artifacts — no fallback derivation
        assert_eq!(report.model.get("plan_miss"), None);
    }

    #[test]
    fn bare_plan_survives_with_a_plan_miss() {
        // a plan compiled for the serial engine has neither the
        // quantized LUT nor the tile plan: the engine derives both
        let spec = EngineSpec::parse("cell").unwrap();
        let (full_plan, src) = workload(&spec);
        let bare = RemapPlan::compile(full_plan.map(), PlanOptions::default());
        let engine = CellEngine::from_spec(&spec, CellConfig::default()).unwrap();
        let mut out = Image::new(80, 60);
        let report = engine.correct_frame(&src, &bare, &mut out).unwrap();
        assert_eq!(out, correct_fixed(&src, &bare.map().to_fixed(12)));
        assert_eq!(report.model["plan_miss"], 2.0);
    }

    #[test]
    fn non_multiple_tiles_round_trip() {
        // 80x60 output with 24x25 tiles: ragged right column and
        // bottom row exercise the edge-tile path end to end
        let spec = EngineSpec::parse("cell:24x25").unwrap();
        let (plan, src) = workload(&spec);
        let engine = CellEngine::from_spec(&spec, CellConfig::default()).unwrap();
        let mut out = Image::new(80, 60);
        let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
        assert_eq!(out, correct_fixed(&src, &plan.map().to_fixed(12)));
        // ceil(80/24) * ceil(60/25) = 4 * 3
        assert_eq!(report.tiles, 12);
    }

    #[test]
    fn empty_footprint_tiles_round_trip_through_engine() {
        // narrow lens behind a wide view: some tiles contain only
        // invalid LUT entries (no source footprint to DMA) — the
        // engine must still produce the exact fixed-point reference,
        // black corners included
        let lens = FisheyeLens::equidistant_fov(160, 120, 100.0);
        let view = PerspectiveView::centered(96, 96, 160.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = pixmap::scene::random_gray(160, 120, 22);
        let spec = EngineSpec::parse("cell:8x8").unwrap();
        let plan = RemapPlan::compile(&map, PlanOptions::for_spec(&spec, Interpolator::Bilinear));
        let engine = CellEngine::from_spec(&spec, CellConfig::default()).unwrap();
        assert!(
            plan.tile_plan(8, 8)
                .unwrap()
                .jobs
                .iter()
                .any(|j| j.src.is_empty()),
            "workload must include empty-footprint tiles"
        );
        let mut out = Image::new(96, 96);
        let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
        assert_eq!(out, correct_fixed(&src, &map.to_fixed(12)));
        assert_eq!(out.pixel(0, 0), Gray8(0), "invalid corner must be black");
        assert!(report.invalid_pixels > 0);
    }

    #[test]
    fn rejects_non_cell_spec() {
        assert!(CellEngine::from_spec(&EngineSpec::Serial, CellConfig::default()).is_err());
    }

    #[test]
    fn oversized_tile_is_backend_error() {
        let spec = EngineSpec::parse("cell:80x60").unwrap();
        let (plan, src) = workload(&spec);
        let engine = CellEngine::from_spec(
            &spec,
            CellConfig {
                local_store_bytes: 64 * 1024,
                ..CellConfig::default()
            },
        )
        .unwrap();
        let mut out = Image::new(80, 60);
        assert!(matches!(
            engine.correct_frame(&src, &plan, &mut out),
            Err(EngineError::Backend { .. })
        ));
    }
}
