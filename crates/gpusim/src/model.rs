//! SIMT execution + cycle model.
//!
//! Blocks are rectangular output tiles `warp_size` wide and
//! `block_threads / warp_size` tall; each warp is one 32-pixel output
//! row segment (the natural CUDA mapping for image kernels). Blocks
//! are distributed round-robin over SMs; each SM owns a private
//! texture cache.
//!
//! The cycle model per SM:
//!
//! ```text
//! compute = pixels × compute_cycles_per_pixel
//! mem     = max( latency-term, bandwidth-term )
//!   latency-term   = (misses·dram_latency + hits·tex_hit) / occupancy
//!   bandwidth-term = miss_bytes / (dram_bytes_per_cycle / sm_count)
//! time_sm = max(compute, mem)          // warps hide whichever is smaller
//! frame   = max over SMs + launch overhead
//! ```
//!
//! The hit/miss numbers are *measured* by streaming the kernel's real
//! texel addresses (from the actual remap LUT) through the cache
//! model, so locality effects of the fisheye gather are genuine.

use fisheye_core::map::RemapMap;
use fisheye_core::tile::tap_lines;
use fisheye_core::Interpolator;
use pixmap::{Image, Pixel};

use crate::cache::SetCache;
use crate::GpuConfig;

/// Kernel launch overhead, cycles (≈10 µs at 1.4 GHz).
const LAUNCH_CYCLES: f64 = 14_000.0;

/// Memory-behaviour summary measured per warp.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WarpMemProfile {
    /// Warps executed.
    pub warps: u64,
    /// Total line accesses (taps mapped to lines, before caching).
    pub line_accesses: u64,
    /// Distinct lines touched per warp, summed (÷ warps = average —
    /// the coalescing metric).
    pub distinct_lines: u64,
    /// Worst single-warp distinct-line count.
    pub worst_warp_lines: u32,
}

impl WarpMemProfile {
    /// Average distinct lines per warp (lower = better coalescing).
    pub fn avg_lines_per_warp(&self) -> f64 {
        if self.warps == 0 {
            0.0
        } else {
            self.distinct_lines as f64 / self.warps as f64
        }
    }
}

/// Frame-level model output.
#[derive(Clone, Debug)]
pub struct GpuReport {
    /// Modeled frame cycles (slowest SM + launch).
    pub frame_cycles: f64,
    /// Frames per second at the configured clock.
    pub fps: f64,
    /// Texture cache hit rate across all SMs.
    pub cache_hit_rate: f64,
    /// DRAM bytes fetched (misses × line size).
    pub dram_bytes: u64,
    /// Warp memory profile.
    pub mem: WarpMemProfile,
    /// Blocks launched.
    pub blocks: u64,
    /// True when the frame time is bound by memory, not compute.
    pub memory_bound: bool,
}

/// Executes correction frames on the modeled GPU.
pub struct GpuRunner {
    config: GpuConfig,
}

impl GpuRunner {
    /// Runner for a machine configuration.
    pub fn new(config: GpuConfig) -> Self {
        assert!(
            config.block_threads.is_multiple_of(config.warp_size),
            "block size must be a whole number of warps"
        );
        GpuRunner { config }
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Run one frame: functional output (bit-exact with the host
    /// reference for the same interpolator) plus the timing report.
    pub fn correct_frame<P: Pixel>(
        &self,
        src: &Image<P>,
        map: &RemapMap,
        interp: Interpolator,
    ) -> (Image<P>, GpuReport) {
        let c = &self.config;
        let (out_w, out_h) = (map.width(), map.height());
        let mut out = Image::new(out_w, out_h);
        let block_w = c.warp_size as u32;
        let block_h = (c.block_threads / c.warp_size) as u32;
        let bytes_pp = std::mem::size_of::<P>() as u64;
        let src_w = map.src_dims().0 as u64;

        let mut caches: Vec<SetCache> = (0..c.sm_count)
            .map(|_| SetCache::new(c.cache_lines(), c.tex_cache_ways))
            .collect();
        let mut sm_pixels = vec![0u64; c.sm_count];
        let mut sm_misses = vec![0u64; c.sm_count];
        let mut sm_hits = vec![0u64; c.sm_count];
        let mut mem = WarpMemProfile::default();
        let mut blocks = 0u64;

        let mut warp_lines: Vec<u64> = Vec::with_capacity(64);
        let mut by = 0u32;
        while by < out_h {
            let mut bx = 0u32;
            while bx < out_w {
                let sm = (blocks as usize) % c.sm_count;
                blocks += 1;
                let cache = &mut caches[sm];
                let y1 = (by + block_h).min(out_h);
                let x1 = (bx + block_w).min(out_w);
                for wy in by..y1 {
                    // one warp: the row segment [bx, x1) at row wy
                    warp_lines.clear();
                    for wx in bx..x1 {
                        let e = map.entry(wx, wy);
                        // functional execution (same kernel as host)
                        let v = if e.is_valid() {
                            interp.sample(src, e.sx, e.sy)
                        } else {
                            P::BLACK
                        };
                        out.set(wx, wy, v);
                        sm_pixels[sm] += 1;
                        if e.is_valid() {
                            // taps → texture lines, each through the
                            // SM's cache
                            let x0 = (e.sx - 0.5).floor().max(0.0) as u64;
                            let y0 = (e.sy - 0.5).floor().max(0.0) as u64;
                            let reach = match interp {
                                Interpolator::Nearest => 1u64,
                                Interpolator::Bilinear => 2,
                                Interpolator::Bicubic => 4,
                            };
                            mem.line_accesses += tap_lines(
                                (x0, y0),
                                reach,
                                src_w,
                                bytes_pp,
                                c.line_bytes as u64,
                                &mut warp_lines,
                                |line| {
                                    if cache.access(line) {
                                        sm_hits[sm] += 1;
                                    } else {
                                        sm_misses[sm] += 1;
                                    }
                                },
                            );
                        }
                    }
                    mem.warps += 1;
                    mem.distinct_lines += warp_lines.len() as u64;
                    mem.worst_warp_lines = mem.worst_warp_lines.max(warp_lines.len() as u32);
                }
                bx = x1;
            }
            by = y1_of(by, block_h, out_h);
        }

        // cycle model
        let per_sm_bw = c.dram_bytes_per_cycle() / c.sm_count as f64;
        let mut worst = 0.0f64;
        let mut memory_bound = false;
        for sm in 0..c.sm_count {
            let compute = sm_pixels[sm] as f64 * c.compute_cycles_per_pixel;
            let latency_term = (sm_misses[sm] as f64 * c.dram_latency_cycles
                + sm_hits[sm] as f64 * c.tex_hit_cycles)
                / c.occupancy_warps;
            let bandwidth_term = sm_misses[sm] as f64 * c.line_bytes as f64 / per_sm_bw;
            let mem_t = latency_term.max(bandwidth_term);
            let t = compute.max(mem_t);
            if t > worst {
                worst = t;
                memory_bound = mem_t > compute;
            }
        }
        let frame_cycles = worst + LAUNCH_CYCLES;
        let hits: u64 = sm_hits.iter().sum();
        let misses: u64 = sm_misses.iter().sum();
        let report = GpuReport {
            frame_cycles,
            fps: c.clock_hz / frame_cycles,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            dram_bytes: misses * c.line_bytes as u64,
            mem,
            blocks,
            memory_bound,
        };
        (out, report)
    }
}

#[inline]
fn y1_of(by: u32, block_h: u32, out_h: u32) -> u32 {
    (by + block_h).min(out_h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_core::correct;
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::Gray8;

    fn setup(out_w: u32, out_h: u32) -> (RemapMap, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
        let view = PerspectiveView::centered(out_w, out_h, 90.0);
        let map = RemapMap::build(&lens, &view, 320, 240);
        let src = pixmap::scene::random_gray(320, 240, 5);
        (map, src)
    }

    #[test]
    fn functional_output_matches_host() {
        let (map, src) = setup(128, 96);
        let host = correct(&src, &map, Interpolator::Bilinear);
        let runner = GpuRunner::new(GpuConfig::default());
        let (gpu, report) = runner.correct_frame(&src, &map, Interpolator::Bilinear);
        assert_eq!(gpu, host);
        assert!(report.fps > 0.0);
        assert_eq!(report.blocks, (128u64.div_ceil(32)) * (96u64.div_ceil(8)));
    }

    #[test]
    fn cache_hit_rate_substantial_for_coherent_gather() {
        // neighbouring output pixels sample neighbouring source texels
        let (map, src) = setup(128, 96);
        let runner = GpuRunner::new(GpuConfig::default());
        let (_, report) = runner.correct_frame(&src, &map, Interpolator::Bilinear);
        assert!(
            report.cache_hit_rate > 0.5,
            "hit rate {}",
            report.cache_hit_rate
        );
    }

    #[test]
    fn bicubic_touches_more_lines() {
        let (map, src) = setup(96, 64);
        let runner = GpuRunner::new(GpuConfig::default());
        let (_, bl) = runner.correct_frame(&src, &map, Interpolator::Bilinear);
        let (_, bc) = runner.correct_frame(&src, &map, Interpolator::Bicubic);
        assert!(bc.mem.line_accesses > bl.mem.line_accesses);
        assert!(bc.mem.avg_lines_per_warp() >= bl.mem.avg_lines_per_warp());
    }

    #[test]
    fn more_sms_cut_frame_time() {
        let (map, src) = setup(256, 192);
        let slow = GpuRunner::new(GpuConfig {
            sm_count: 4,
            ..Default::default()
        });
        let fast = GpuRunner::new(GpuConfig {
            sm_count: 30,
            ..Default::default()
        });
        let (_, rs) = slow.correct_frame(&src, &map, Interpolator::Bilinear);
        let (_, rf) = fast.correct_frame(&src, &map, Interpolator::Bilinear);
        assert!(rf.frame_cycles < rs.frame_cycles);
    }

    #[test]
    fn report_dram_accounting() {
        let (map, src) = setup(96, 64);
        let runner = GpuRunner::new(GpuConfig::default());
        let (_, r) = runner.correct_frame(&src, &map, Interpolator::Bilinear);
        // every miss fetches exactly one line
        assert_eq!(r.dram_bytes % GpuConfig::default().line_bytes as u64, 0);
        assert!(r.mem.warps > 0);
        assert!(r.mem.worst_warp_lines >= r.mem.avg_lines_per_warp() as u32);
    }

    #[test]
    #[should_panic(expected = "whole number of warps")]
    fn bad_block_size_rejected() {
        let _ = GpuRunner::new(GpuConfig {
            block_threads: 100,
            ..Default::default()
        });
    }

    #[test]
    fn block_size_changes_locality() {
        let (map, src) = setup(256, 192);
        let small = GpuRunner::new(GpuConfig {
            block_threads: 32,
            ..Default::default()
        });
        let large = GpuRunner::new(GpuConfig {
            block_threads: 512,
            ..Default::default()
        });
        let (_, rs) = small.correct_frame(&src, &map, Interpolator::Bilinear);
        let (_, rl) = large.correct_frame(&src, &map, Interpolator::Bilinear);
        // taller blocks reuse vertically adjacent source lines within
        // one SM's cache: hit rate should not get worse
        assert!(
            rl.cache_hit_rate >= rs.cache_hit_rate - 0.02,
            "small {} vs large {}",
            rs.cache_hit_rate,
            rl.cache_hit_rate
        );
    }
}
