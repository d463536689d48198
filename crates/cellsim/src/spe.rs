//! The SPE tile kernel.
//!
//! What an SPE actually executes per tile: read the tile's LUT slice
//! and source footprint (both resident in local store), produce the
//! output tile. The arithmetic is the integer bilinear path — SPEs
//! have no scalar FP advantage and real ports use SIMD integer
//! interpolation. Addresses are all local-store-relative, which is
//! what guarantees the model never "cheats" by touching main memory.

use fisheye_core::interp::sample_bilinear_fixed_gray8;
use fisheye_core::map::{FixedMapEntry, FixedRemapMap};
use fisheye_core::TileJob;
use pixmap::{Gray8, Image};

/// The tile kernel plus its cost model.
#[derive(Clone, Copy, Debug)]
pub struct SpeKernel {
    /// Modeled cycles per corrected pixel.
    pub cycles_per_pixel: f64,
}

impl SpeKernel {
    /// Kernel with the given per-pixel cost.
    pub fn new(cycles_per_pixel: f64) -> Self {
        SpeKernel { cycles_per_pixel }
    }

    /// Execute one tile: `local_src` is the DMA'd footprint
    /// (`job.src`), `lut_rows` the tile's slice of the fixed map.
    /// Returns the output tile and the modeled compute cycles.
    ///
    /// Coordinates in the LUT are frame-global; the kernel rebases
    /// them against the footprint origin exactly as the SPE code
    /// would (one integer subtract per pixel, already in the cost).
    pub fn run_tile(
        &self,
        job: &TileJob,
        local_src: &Image<Gray8>,
        map: &FixedRemapMap,
    ) -> (Image<Gray8>, f64) {
        let w = job.out.width();
        let h = job.out.height();
        let mut out = Image::new(w, h);
        let frac = map.frac_bits();
        let ox = job.src.x0 as i32;
        let oy = job.src.y0 as i32;
        for ty in 0..h {
            let gy = job.out.y0 + ty;
            let lut_row = &map.row(gy)[job.out.x0 as usize..job.out.x1 as usize];
            let out_row = out.row_mut(ty);
            for (e, o) in lut_row.iter().zip(out_row.iter_mut()) {
                *o = sample_entry_local(local_src, e, ox, oy, frac);
            }
        }
        let cycles = (w as f64) * (h as f64) * self.cycles_per_pixel;
        (out, cycles)
    }
}

#[inline]
fn sample_entry_local(
    local_src: &Image<Gray8>,
    e: &FixedMapEntry,
    ox: i32,
    oy: i32,
    frac: u32,
) -> Gray8 {
    if !e.is_valid() {
        return Gray8(0);
    }
    let lx = e.x0 as i32 - ox;
    let ly = e.y0 as i32 - oy;
    sample_bilinear_fixed_gray8(local_src, lx as i16, ly as i16, e.wx, e.wy, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_core::{correct_fixed, RemapMap, TilePlan};
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    #[test]
    fn tile_kernel_matches_host_fixed_path() {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(64, 48, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let fmap = map.to_fixed(12);
        let src = pixmap::scene::random_gray(160, 120, 21);
        let reference = correct_fixed(&src, &fmap);

        let plan = TilePlan::build(&map, 16, 16);
        let kernel = SpeKernel::new(6.0);
        let mut out: Image<Gray8> = Image::new(64, 48);
        for job in &plan.jobs {
            let local = if job.src.is_empty() {
                Image::new(1, 1)
            } else {
                src.crop(job.src)
            };
            let (tile, cycles) = kernel.run_tile(job, &local, &fmap);
            assert!(cycles > 0.0);
            out.blit(&tile, job.out.x0, job.out.y0);
        }
        assert_eq!(out, reference, "SPE tiling must be bit-exact");
    }

    #[test]
    fn cycles_scale_with_tile_area() {
        let lens = FisheyeLens::equidistant_fov(64, 64, 180.0);
        let view = PerspectiveView::centered(32, 32, 80.0);
        let map = RemapMap::build(&lens, &view, 64, 64);
        let fmap = map.to_fixed(8);
        let src = pixmap::scene::random_gray(64, 64, 2);
        let kernel = SpeKernel::new(10.0);
        let plan = TilePlan::build(&map, 16, 8);
        let job = &plan.jobs[0];
        let local = src.crop(job.src);
        let (_, cycles) = kernel.run_tile(job, &local, &fmap);
        assert_eq!(cycles, (16 * 8) as f64 * 10.0);
    }
}
