//! The SIMT batch interpreter: executes the lowered kernel IR the way
//! a GPU would schedule it — workgroup grid over the output, one
//! 32-lane warp per workgroup row, every lane stepping the op list in
//! lockstep under a validity mask — while counting exactly what
//! `gpusim` models analytically (warps, cache-line touches per warp)
//! plus what only execution can observe (divergence, lane occupancy).
//!
//! The interpreter corrects byte planes, as every engine does, and is
//! *functionally* bit-exact with the host engines: the float datapath
//! calls the same `interp` kernels the serial engine uses, the fixed
//! datapath calls [`sample_bilinear_fixed_gray8`] on the plan's
//! prequantized LUT, and the fused post grades each lane with the
//! host's [`PostPlan::apply_u8`], so `simt` output equals
//! `serial`/`simd` (float) and the fixed-LUT kernel interpretation
//! equals [`fisheye_core::correct_fixed`]. Coalescing accounting is
//! `gpusim::model`'s shared count ([`tap_lines`]) so the T10 bench can
//! compare the two without slack.

use std::time::Instant;

use fisheye_core::engine::{
    check_frame_dims, CorrectionEngine, EngineError, EngineSpec, FrameReport,
};
use fisheye_core::interp::sample_bilinear_fixed_gray8;
use fisheye_core::plan::RemapPlan;
use fisheye_core::post::PostPlan;
use fisheye_core::tile::{tap_lines, TileJob};
use fisheye_core::Interpolator;
use pixmap::{Gray8, Image, Pixel};

use crate::ir::{lower, KernelIr, KernelOp};

/// Lanes per warp — the SIMT width every workgroup row executes at.
pub const WARP_LANES: usize = 32;

/// Cache-line granularity of the coalescing counters, matching
/// `gpusim`'s default texture-line size.
pub const DEFAULT_LINE_BYTES: u64 = 32;

/// Interpreter configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimtConfig {
    /// Threads per workgroup (positive multiple of 32); the grid uses
    /// 32-wide tiles of `workgroup / 32` rows, one warp per row.
    pub workgroup: usize,
    /// Cache-line size the gather accounting buckets addresses into.
    pub line_bytes: u64,
}

impl Default for SimtConfig {
    fn default() -> Self {
        SimtConfig {
            workgroup: fisheye_core::engine::DEFAULT_SIMT_WG,
            line_bytes: DEFAULT_LINE_BYTES,
        }
    }
}

/// What the interpreter measured while executing a kernel.
///
/// `warps`, `line_accesses`, `distinct_lines` and `worst_warp_lines`
/// use the same accounting as `gpusim`'s analytic model (same grid
/// walk, same per-warp dedup), so equal plans must produce equal
/// numbers. The lane counters are the part the analytic model cannot
/// see: how full each warp actually was and how often the validity
/// mask split it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimtCounters {
    /// Workgroups (tiles) launched.
    pub workgroups: u64,
    /// Warps stepped (one per in-bounds workgroup row).
    pub warps: u64,
    /// Lane slots with an in-bounds output pixel, summed over warps.
    pub active_lanes: u64,
    /// Active lanes whose remap coordinate was valid.
    pub valid_lanes: u64,
    /// Warps whose validity mask was mixed (some valid, some gap) —
    /// the lanes that pay both sides of the branch on real hardware.
    pub divergent_warps: u64,
    /// Cache-line touches issued by gathers (before per-warp dedup).
    pub line_accesses: u64,
    /// Distinct cache lines per warp, summed over warps.
    pub distinct_lines: u64,
    /// Largest distinct-line count any single warp produced.
    pub worst_warp_lines: u64,
}

impl SimtCounters {
    /// Mean distinct cache lines per warp — `gpusim` reports the same
    /// ratio as `avg_lines_per_warp`.
    pub fn avg_lines_per_warp(&self) -> f64 {
        self.distinct_lines as f64 / self.warps.max(1) as f64
    }

    /// Fraction of warp lane-slots that did sampling work.
    pub fn lane_efficiency(&self) -> f64 {
        self.valid_lanes as f64 / (self.warps.max(1) * WARP_LANES as u64) as f64
    }

    /// Fraction of warps with a mixed validity mask.
    pub fn divergence_rate(&self) -> f64 {
        self.divergent_warps as f64 / self.warps.max(1) as f64
    }

    /// Accumulate another frame's counters into this one.
    pub fn merge(&mut self, other: &SimtCounters) {
        self.workgroups += other.workgroups;
        self.warps += other.warps;
        self.active_lanes += other.active_lanes;
        self.valid_lanes += other.valid_lanes;
        self.divergent_warps += other.divergent_warps;
        self.line_accesses += other.line_accesses;
        self.distinct_lines += other.distinct_lines;
        self.worst_warp_lines = self.worst_warp_lines.max(other.worst_warp_lines);
    }
}

/// Summary of a batch run: aggregated counters plus batch shape.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimtBatchReport {
    /// Frames executed.
    pub frames: u64,
    /// Counters summed over the batch.
    pub counters: SimtCounters,
    /// Wall-clock of the interpretation (functional time, not a
    /// hardware model).
    pub correct_ms: f64,
    /// Whether the tile plan had to be derived on this call (the
    /// first frame of a batch pays it, the rest hit the memo).
    pub plan_miss: bool,
}

/// Execute one frame's warp grid. The datapath is injected as four
/// closures over a per-lane coordinate type `C` — `(f32, f32)` remap
/// coords for the float kernels, the quantized LUT entry for the
/// fixed kernel — so the lockstep loop, mask handling and coalescing
/// accounting are written exactly once.
#[allow(clippy::too_many_arguments)]
fn interpret_frame<C, FL, FV, FO, FS>(
    ir: &KernelIr,
    jobs: &[TileJob],
    line_bytes: u64,
    post: Option<&PostPlan>,
    out: &mut Image<Gray8>,
    counters: &mut SimtCounters,
    mut load: FL,
    valid_of: FV,
    origin_of: FO,
    mut sample: FS,
) where
    C: Copy,
    FL: FnMut(u32, u32) -> C,
    FV: Fn(&C) -> bool,
    FO: Fn(&C) -> (u64, u64),
    FS: FnMut(&C) -> Gray8,
{
    let src_w = ir.src_dims.0 as u64;
    let bytes_pp = std::mem::size_of::<Gray8>() as u64;
    let reach = ir.sample.reach() as u64;
    let line_bytes = line_bytes.max(1);
    let mut coords: Vec<C> = Vec::with_capacity(WARP_LANES);
    let mut mask: Vec<bool> = Vec::with_capacity(WARP_LANES);
    let mut vals: Vec<Gray8> = Vec::with_capacity(WARP_LANES);
    let mut warp_lines: Vec<u64> = Vec::new();
    for job in jobs {
        counters.workgroups += 1;
        for wy in job.out.y0..job.out.y1 {
            let mut wx0 = job.out.x0;
            while wx0 < job.out.x1 {
                let lanes = ((job.out.x1 - wx0) as usize).min(WARP_LANES);
                counters.warps += 1;
                warp_lines.clear();
                for op in &ir.ops {
                    match *op {
                        KernelOp::LoadCoords => {
                            coords.clear();
                            for l in 0..lanes {
                                coords.push(load(wx0 + l as u32, wy));
                            }
                        }
                        KernelOp::ValidCheck => {
                            mask.clear();
                            for c in &coords {
                                mask.push(valid_of(c));
                            }
                            let n_valid = mask.iter().filter(|v| **v).count();
                            counters.active_lanes += lanes as u64;
                            counters.valid_lanes += n_valid as u64;
                            if n_valid > 0 && n_valid < lanes {
                                counters.divergent_warps += 1;
                            }
                        }
                        KernelOp::Gather { .. } => {
                            // each valid lane's taps, bucketed into
                            // lines deduped within the warp
                            for l in 0..lanes {
                                if mask[l] {
                                    counters.line_accesses += tap_lines(
                                        origin_of(&coords[l]),
                                        reach,
                                        src_w,
                                        bytes_pp,
                                        line_bytes,
                                        &mut warp_lines,
                                        |_| {},
                                    );
                                }
                            }
                        }
                        KernelOp::Sample(_) => {
                            vals.clear();
                            for l in 0..lanes {
                                vals.push(if mask[l] {
                                    sample(&coords[l])
                                } else {
                                    Gray8::BLACK
                                });
                            }
                        }
                        KernelOp::FillGap => {
                            for l in 0..lanes {
                                if !mask[l] {
                                    vals[l] = Gray8::BLACK;
                                }
                            }
                        }
                        KernelOp::Post => {
                            // Fused post covers every lane — the gap
                            // fill included — matching the CPU fusion
                            // (dither makes even black coordinate-
                            // dependent).
                            if let Some(pp) = post {
                                for (l, v) in vals.iter_mut().enumerate().take(lanes) {
                                    *v = Gray8(pp.apply_u8(v.0, wx0 + l as u32, wy));
                                }
                            }
                        }
                        KernelOp::Store => {
                            for (l, v) in vals.iter().enumerate().take(lanes) {
                                out.set(wx0 + l as u32, wy, *v);
                            }
                        }
                    }
                }
                counters.distinct_lines += warp_lines.len() as u64;
                counters.worst_warp_lines = counters.worst_warp_lines.max(warp_lines.len() as u64);
                wx0 += lanes as u32;
            }
        }
    }
}

/// The `simt[:WG]` registry engine: runs the lowered kernel through
/// the interpreter. Float-datapath output is bit-exact with the
/// `serial`/`simd` engines on the same plan and kernel; see
/// [`SimtEngine::run_fixed_gray8`] for the fixed-LUT kernel.
#[derive(Clone, Copy, Debug)]
pub struct SimtEngine {
    config: SimtConfig,
    /// The float kernel every frame lowers to.
    interp: Interpolator,
}

impl SimtEngine {
    /// Interpreter over an explicit configuration, running `interp`.
    pub fn new(config: SimtConfig, interp: Interpolator) -> Self {
        SimtEngine { config, interp }
    }

    /// Build from an [`EngineSpec::Simt`] spec, running `interp`.
    pub fn from_spec(spec: &EngineSpec, interp: Interpolator) -> Result<Self, EngineError> {
        match *spec {
            EngineSpec::Simt { workgroup } => Ok(SimtEngine::new(
                SimtConfig {
                    workgroup,
                    ..SimtConfig::default()
                },
                interp,
            )),
            _ => Err(EngineError::unsupported(
                spec.name(),
                "the SIMT interpreter only executes simt specs",
            )),
        }
    }

    /// Threads per workgroup.
    pub fn workgroup(&self) -> usize {
        self.config.workgroup
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Simt {
            workgroup: self.config.workgroup,
        }
    }

    fn wg_rows(&self) -> u32 {
        (self.config.workgroup / WARP_LANES).max(1) as u32
    }

    /// Interpret the float kernel for one frame, accumulating into
    /// `counters`; returns whether the tile plan was derived here.
    fn run_float_frame(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        out: &mut Image<Gray8>,
        counters: &mut SimtCounters,
    ) -> Result<Option<f64>, EngineError> {
        check_frame_dims(&self.spec().name(), src, plan, out)?;
        let ir = lower(plan, &self.spec(), self.interp);
        // Tiles compiled eagerly (the spec's capabilities asked for
        // them) are free; only an unrequested geometry pays the
        // derive-and-memoize path and reports a plan miss.
        let (tiles, derive_ms) = plan.tile_plan_lazy(WARP_LANES as u32, self.wg_rows());
        interpret_frame(
            &ir,
            &tiles.jobs,
            self.config.line_bytes,
            post,
            out,
            counters,
            |x, y| (plan.row_sx(y)[x as usize], plan.row_sy(y)[x as usize]),
            |&(sx, _)| sx.is_finite(),
            |&(sx, sy)| {
                (
                    (sx - 0.5).floor().max(0.0) as u64,
                    (sy - 0.5).floor().max(0.0) as u64,
                )
            },
            |&(sx, sy)| self.interp.sample(src, sx, sy),
        );
        Ok(derive_ms)
    }

    /// Interpret the fixed-LUT kernel (`fixed_q{frac_bits}`) for one
    /// frame of 8-bit pixels. Bit-exact with
    /// [`fisheye_core::correct_fixed`] on the same plan, because both
    /// run [`sample_bilinear_fixed_gray8`] over the same quantized
    /// entries.
    pub fn run_fixed_gray8(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        frac_bits: u32,
        post: Option<&PostPlan>,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        let name = self.spec().name();
        check_frame_dims(&self.spec().name(), src, plan, out)?;
        let pp = post.filter(|p| !p.is_noop());
        let ir = lower(plan, &EngineSpec::FixedPoint { frac_bits }, self.interp);
        let t0 = Instant::now();
        // The eagerly-compiled artifacts when the plan has them, else
        // the memoized derive path for a (LUT width, tile shape) the
        // plan was not compiled with.
        let (fixed, lut_ms) = plan.fixed_lazy(frac_bits);
        let (tiles, derive_ms) = plan.tile_plan_lazy(WARP_LANES as u32, self.wg_rows());
        let mut counters = SimtCounters::default();
        interpret_frame(
            &ir,
            &tiles.jobs,
            self.config.line_bytes,
            pp,
            out,
            &mut counters,
            |x, y| fixed.entry(x, y),
            |e| e.is_valid(),
            |e| (e.x0.max(0) as u64, e.y0.max(0) as u64),
            |e| sample_bilinear_fixed_gray8(src, e.x0, e.y0, e.wx, e.wy, frac_bits),
        );
        let mut report = self.report(&name, plan, &counters, t0, pp.is_some(), derive_ms);
        report.kv("frac_bits", frac_bits as f64);
        if let Some(ms) = lut_ms {
            report.kv("lut_derive_ms", ms);
        }
        Ok(report)
    }

    /// Correct a batch of frames through one plan, one kernel launch
    /// per frame, aggregating the counters across the batch.
    pub fn run_batch(
        &self,
        srcs: &[Image<Gray8>],
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        outs: &mut [Image<Gray8>],
    ) -> Result<SimtBatchReport, EngineError> {
        if srcs.len() != outs.len() {
            return Err(EngineError::backend(
                self.spec().name(),
                format!(
                    "batch of {} sources does not match {} outputs",
                    srcs.len(),
                    outs.len()
                ),
            ));
        }
        let pp = post.filter(|p| !p.is_noop());
        let t0 = Instant::now();
        let mut counters = SimtCounters::default();
        let mut plan_miss = false;
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            let derive = self.run_float_frame(src, plan, pp, out, &mut counters)?;
            plan_miss |= derive.is_some();
        }
        Ok(SimtBatchReport {
            frames: srcs.len() as u64,
            counters,
            correct_ms: t0.elapsed().as_secs_f64() * 1e3,
            plan_miss,
        })
    }

    fn report(
        &self,
        name: &str,
        plan: &RemapPlan,
        counters: &SimtCounters,
        t0: Instant,
        fused: bool,
        derive_ms: Option<f64>,
    ) -> FrameReport {
        let mut report = FrameReport::new(name);
        report.correct_time = t0.elapsed();
        report.rows = plan.height() as u64;
        report.tiles = counters.workgroups;
        report.invalid_pixels = plan.invalid_pixels();
        report.kv("workgroup", self.config.workgroup as f64);
        report.kv("warps", counters.warps as f64);
        report.kv("divergent_warps", counters.divergent_warps as f64);
        report.kv("divergence_rate", counters.divergence_rate());
        report.kv("lane_efficiency", counters.lane_efficiency());
        report.kv("line_accesses", counters.line_accesses as f64);
        report.kv("distinct_lines", counters.distinct_lines as f64);
        report.kv("avg_lines_per_warp", counters.avg_lines_per_warp());
        report.kv("worst_warp_lines", counters.worst_warp_lines as f64);
        if fused {
            report.kv("fused", 1.0);
        }
        if let Some(ms) = derive_ms {
            report.kv("plan_miss", 1.0);
            report.kv("plan_derive_ms", ms);
        }
        report
    }
}

impl CorrectionEngine for SimtEngine {
    fn name(&self) -> String {
        self.spec().name()
    }

    fn correct_frame(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        self.correct_frame_post(src, plan, None, out)
    }

    fn correct_frame_post(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        let name = self.spec().name();
        // strip inert stages, as the host engines do
        let pp = post.filter(|p| !p.is_noop());
        let t0 = Instant::now();
        let mut counters = SimtCounters::default();
        let derive_ms = self.run_float_frame(src, plan, pp, out, &mut counters)?;
        Ok(self.report(&name, plan, &counters, t0, pp.is_some(), derive_ms))
    }
}
