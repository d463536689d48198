//! [`CorrectionEngine`] adapter: the modeled GPU behind the same
//! interface as every host path.
//!
//! The SIMT model is generic over pixel type and needs no derived
//! state, so the adapter is thin: it reads the float map straight out
//! of the compiled [`RemapPlan`] (the GPU gathers through the raw
//! LUT — texture hardware does the interpolation, no quantized or
//! tiled artifact needed), runs the frame, copies the functional
//! output, and flattens the model's statistics (texture-cache hit
//! rate, DRAM traffic, warp memory profile, modeled cycles) into the
//! [`FrameReport`]'s uniform key/value section.

use fisheye_core::engine::{
    check_frame_dims, CorrectionEngine, EngineError, EnginePixel, EngineSpec, FrameReport,
};
use fisheye_core::plan::RemapPlan;
use fisheye_core::Interpolator;
use pixmap::Image;

use crate::{GpuConfig, GpuRunner};

/// The modeled GPU as a correction engine (any pixel type).
pub struct GpuEngine {
    runner: GpuRunner,
    spec: EngineSpec,
    interp: Interpolator,
}

impl GpuEngine {
    /// Build from a [`EngineSpec::Gpu`] spec; `base` supplies the
    /// machine parameters the spec does not name (SM count, clock,
    /// cache geometry). The spec's block size overrides the base
    /// config.
    pub fn from_spec(
        spec: &EngineSpec,
        base: GpuConfig,
        interp: Interpolator,
    ) -> Result<Self, EngineError> {
        match *spec {
            EngineSpec::Gpu { block_threads } => Ok(GpuEngine {
                runner: GpuRunner::new(GpuConfig {
                    block_threads,
                    ..base
                }),
                spec: *spec,
                interp,
            }),
            _ => Err(EngineError::unsupported(
                spec.name(),
                "GpuEngine only builds gpu specs",
            )),
        }
    }

    /// The runner (machine model) this engine drives.
    pub fn runner(&self) -> &GpuRunner {
        &self.runner
    }
}

impl<P: EnginePixel> CorrectionEngine<P> for GpuEngine {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn correct_frame(
        &self,
        src: &Image<P>,
        plan: &RemapPlan,
        out: &mut Image<P>,
    ) -> Result<FrameReport, EngineError> {
        let name = self.spec.name();
        check_frame_dims(&name, src, plan, out)?;
        let (frame, gpu) = self.runner.correct_frame(src, plan.map(), self.interp);
        out.pixels_mut().copy_from_slice(frame.pixels());

        let mut report = FrameReport::new(&name);
        report.rows = plan.height() as u64;
        report.tiles = gpu.blocks;
        report.invalid_pixels = plan.invalid_pixels();
        report.kv("block_threads", self.runner.config().block_threads as f64);
        report.kv("sms", self.runner.config().sm_count as f64);
        report.kv("cache_hit_rate", gpu.cache_hit_rate);
        report.kv("dram_bytes", gpu.dram_bytes as f64);
        report.kv("warps", gpu.mem.warps as f64);
        report.kv("avg_lines_per_warp", gpu.mem.avg_lines_per_warp());
        report.kv("frame_cycles", gpu.frame_cycles);
        report.kv("model_fps", gpu.fps);
        report.kv("memory_bound", if gpu.memory_bound { 1.0 } else { 0.0 });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_core::correct;
    use fisheye_core::map::RemapMap;
    use fisheye_core::plan::PlanOptions;
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::{Gray8, GrayF32};

    fn workload() -> (RemapPlan, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(80, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let plan = RemapPlan::compile(&map, PlanOptions::default());
        let src = pixmap::scene::random_gray(160, 120, 31);
        (plan, src)
    }

    #[test]
    fn engine_bit_exact_vs_host_float_gray8() {
        let (plan, src) = workload();
        let spec = EngineSpec::parse("gpu").unwrap();
        let engine =
            GpuEngine::from_spec(&spec, GpuConfig::default(), Interpolator::Bilinear).unwrap();
        let mut out = Image::new(80, 60);
        let report =
            CorrectionEngine::<Gray8>::correct_frame(&engine, &src, &plan, &mut out).unwrap();
        assert_eq!(out, correct(&src, plan.map(), Interpolator::Bilinear));
        assert_eq!(report.backend, "gpu");
        assert!(report.tiles > 0);
        assert!(report.model.contains_key("cache_hit_rate"));
        assert!(report.model["frame_cycles"] > 0.0);
    }

    #[test]
    fn engine_bit_exact_on_f32() {
        let (plan, src8) = workload();
        let src: Image<GrayF32> = src8.map(GrayF32::from);
        let spec = EngineSpec::parse("gpu:512").unwrap();
        let engine =
            GpuEngine::from_spec(&spec, GpuConfig::default(), Interpolator::Bilinear).unwrap();
        let mut out = Image::new(80, 60);
        let report =
            CorrectionEngine::<GrayF32>::correct_frame(&engine, &src, &plan, &mut out).unwrap();
        assert_eq!(out, correct(&src, plan.map(), Interpolator::Bilinear));
        assert_eq!(report.backend, "gpu:512");
        assert_eq!(report.model["block_threads"], 512.0);
    }

    #[test]
    fn rejects_non_gpu_spec() {
        assert!(GpuEngine::from_spec(
            &EngineSpec::Serial,
            GpuConfig::default(),
            Interpolator::Bilinear
        )
        .is_err());
    }
}
