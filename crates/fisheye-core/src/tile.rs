//! Output tiling and source footprints.
//!
//! Local-store architectures (the Cell SPEs) cannot address the whole
//! frame: they process the output in tiles and DMA in, per tile, the
//! *source footprint* — the bounding box of every source coordinate the
//! tile's LUT entries reference, inflated by the interpolator margin.
//! Footprint size is highly non-uniform across a fisheye map (edge
//! tiles sample compressed regions), which is why tile-size selection
//! (experiment F4) and redundant-fetch accounting (T2) matter.

use pixmap::Rect;

use crate::interp::Interpolator;
use crate::map::RemapMap;

/// One tile's worth of work: the output rectangle and the source
/// rectangle that must be resident to compute it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileJob {
    /// Output region.
    pub out: Rect,
    /// Source footprint (clipped to the source frame); empty when the
    /// tile contains no valid LUT entry.
    pub src: Rect,
}

impl TileJob {
    /// Bytes of source pixels to DMA in for an 8-bit frame.
    pub fn src_bytes(&self, bytes_per_pixel: usize) -> usize {
        self.src.area() as usize * bytes_per_pixel
    }

    /// Bytes of output pixels to DMA out.
    pub fn out_bytes(&self, bytes_per_pixel: usize) -> usize {
        self.out.area() as usize * bytes_per_pixel
    }
}

/// The full tiling of one remap map.
#[derive(Clone, Debug)]
pub struct TilePlan {
    /// Tile jobs in row-major tile order.
    pub jobs: Vec<TileJob>,
    tile_w: u32,
    tile_h: u32,
    src_w: u32,
    src_h: u32,
}

impl TilePlan {
    /// Tile the output of `map` into `tile_w`×`tile_h` tiles (edge
    /// tiles may be smaller) and compute each tile's footprint for
    /// bilinear taps: the Cell SPE, the one consumer of tile jobs,
    /// always runs the bilinear Q-format sampler. Models that gather
    /// wider kernels size their footprints with [`footprint`].
    pub fn build(map: &RemapMap, tile_w: u32, tile_h: u32) -> Self {
        assert!(tile_w > 0 && tile_h > 0, "tile dimensions must be positive");
        let (src_w, src_h) = map.src_dims();
        let src_bounds = Rect::new(0, 0, src_w, src_h);
        let mut jobs = Vec::new();
        let mut y = 0;
        while y < map.height() {
            let y1 = (y + tile_h).min(map.height());
            let mut x = 0;
            while x < map.width() {
                let x1 = (x + tile_w).min(map.width());
                let out = Rect::new(x, y, x1, y1);
                let src = footprint(map, &out, Interpolator::Bilinear)
                    .map_or(Rect::new(0, 0, 0, 0), |r| r.intersect(&src_bounds));
                jobs.push(TileJob { out, src });
                x = x1;
            }
            y = y1;
        }
        TilePlan {
            jobs,
            tile_w,
            tile_h,
            src_w,
            src_h,
        }
    }

    /// Nominal tile dimensions.
    pub fn tile_dims(&self) -> (u32, u32) {
        (self.tile_w, self.tile_h)
    }

    /// Total source bytes fetched across all tiles (8-bit pixels ×
    /// `bytes_per_pixel`).
    pub fn total_src_bytes(&self, bytes_per_pixel: usize) -> usize {
        self.jobs.iter().map(|j| j.src_bytes(bytes_per_pixel)).sum()
    }

    /// Total output bytes written back.
    pub fn total_out_bytes(&self, bytes_per_pixel: usize) -> usize {
        self.jobs.iter().map(|j| j.out_bytes(bytes_per_pixel)).sum()
    }

    /// Redundant-fetch factor: fetched source area ÷ the source frame
    /// area (>1 means overlapping footprints fetch bytes repeatedly;
    /// <1 means parts of the source are never needed). Reported by T2.
    pub fn redundancy(&self) -> f64 {
        let fetched: u64 = self.jobs.iter().map(|j| j.src.area()).sum();
        fetched as f64 / (self.src_w as u64 * self.src_h as u64) as f64
    }

    /// The largest per-tile working set in bytes: source footprint +
    /// output tile + that tile's LUT slice. This is what must fit in
    /// an SPE local store (with double buffering, twice this).
    pub fn max_working_set(&self, src_bpp: usize, out_bpp: usize, lut_bpp: usize) -> usize {
        self.jobs
            .iter()
            .map(|j| j.src_bytes(src_bpp) + j.out_bytes(out_bpp) + j.out.area() as usize * lut_bpp)
            .max()
            .unwrap_or(0)
    }
}

/// Bounding box of the source coordinates referenced by `out`'s LUT
/// entries, inflated by the interpolation margin. `None` when no entry
/// in the tile is valid.
pub fn footprint(map: &RemapMap, out: &Rect, interp: Interpolator) -> Option<Rect> {
    let mut min_x = f32::MAX;
    let mut min_y = f32::MAX;
    let mut max_x = f32::MIN;
    let mut max_y = f32::MIN;
    let mut any = false;
    for y in out.y0..out.y1 {
        for e in &map.row(y)[out.x0 as usize..out.x1 as usize] {
            if e.is_valid() {
                any = true;
                min_x = min_x.min(e.sx);
                min_y = min_y.min(e.sy);
                max_x = max_x.max(e.sx);
                max_y = max_y.max(e.sy);
            }
        }
    }
    if !any {
        return None;
    }
    let m = interp.margin() as f32;
    let x0 = (min_x - m).floor().max(0.0) as u32;
    let y0 = (min_y - m).floor().max(0.0) as u32;
    let x1 = (max_x + m).ceil() as u32 + 1;
    let y1 = (max_y + m).ceil() as u32 + 1;
    Some(Rect::new(x0, y0, x1, y1))
}

/// Bucket one sample's taps into cache-line ids — the one coalescing
/// rule `gpusim`'s analytic model and the `simt` interpreter both
/// count with. The `reach × reach` taps at source pixel `origin` (on a
/// source `src_w` pixels wide, `bytes_pp` bytes per pixel) touch, per
/// tap row, every `line_bytes`-byte line from the row's first tap to
/// its last. Each touch is one line access, handed to `access`; a line
/// not yet in `warp_lines` (the warp's distinct lines so far) is
/// appended to it. Returns the number of accesses.
pub fn tap_lines(
    (x0, y0): (u64, u64),
    reach: u64,
    src_w: u64,
    bytes_pp: u64,
    line_bytes: u64,
    warp_lines: &mut Vec<u64>,
    mut access: impl FnMut(u64),
) -> u64 {
    let mut accesses = 0;
    for ty in 0..reach {
        let first = (y0 + ty) * src_w + x0;
        for line in first * bytes_pp / line_bytes..=(first + reach - 1) * bytes_pp / line_bytes {
            accesses += 1;
            if !warp_lines.contains(&line) {
                warp_lines.push(line);
            }
            access(line);
        }
    }
    accesses
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::{Gray8, Image};

    fn map_180(out_w: u32, out_h: u32) -> RemapMap {
        let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
        let view = PerspectiveView::centered(out_w, out_h, 100.0);
        RemapMap::build(&lens, &view, 320, 240)
    }

    #[test]
    fn tiles_cover_output_exactly() {
        let map = map_180(100, 70);
        let plan = TilePlan::build(&map, 32, 16);
        let mut covered = vec![false; 100 * 70];
        for j in &plan.jobs {
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    let idx = (y * 100 + x) as usize;
                    assert!(!covered[idx], "pixel ({x},{y}) tiled twice");
                    covered[idx] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        // ceil(100/32)*ceil(70/16) tiles
        assert_eq!(plan.jobs.len(), 4 * 5);
    }

    #[test]
    fn footprints_contain_all_taps() {
        // correctness criterion: correcting each tile using only its
        // footprint must equal correcting with the full source
        let map = map_180(64, 48);
        let src = pixmap::scene::random_gray(320, 240, 7);
        let full = crate::correct::correct(&src, &map, Interpolator::Bilinear);
        let plan = TilePlan::build(&map, 16, 16);
        for j in &plan.jobs {
            if j.src.is_empty() {
                continue;
            }
            let local = src.crop(j.src);
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    let e = map.entry(x, y);
                    if !e.is_valid() {
                        continue;
                    }
                    let got = Interpolator::Bilinear.sample(
                        &local,
                        e.sx - j.src.x0 as f32,
                        e.sy - j.src.y0 as f32,
                    );
                    assert_eq!(got, full.pixel(x, y), "tile {:?} pixel ({x},{y})", j.out);
                }
            }
        }
    }

    #[test]
    fn footprints_contain_all_taps_bicubic() {
        // the tile plan's footprints are bilinear; a bicubic gather
        // over the same tiles sizes its own with `footprint`
        let map = map_180(48, 32);
        let src = pixmap::scene::random_gray(320, 240, 8);
        let full = crate::correct::correct(&src, &map, Interpolator::Bicubic);
        let plan = TilePlan::build(&map, 16, 8);
        for j in &plan.jobs {
            let Some(fp) = footprint(&map, &j.out, Interpolator::Bicubic) else {
                assert!(j.src.is_empty(), "tile {:?} has no valid entry", j.out);
                continue;
            };
            let fp = fp.intersect(&src.bounds());
            let local = src.crop(fp);
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    let e = map.entry(x, y);
                    if !e.is_valid() {
                        continue;
                    }
                    // interior-only check: border-clamp differs when the
                    // footprint edge clamps differently than the frame edge
                    if e.sx < 3.0 || e.sy < 3.0 || e.sx > 317.0 || e.sy > 237.0 {
                        continue;
                    }
                    let got = Interpolator::Bicubic.sample(
                        &local,
                        e.sx - fp.x0 as f32,
                        e.sy - fp.y0 as f32,
                    );
                    assert_eq!(got, full.pixel(x, y), "tile {:?} pixel ({x},{y})", j.out);
                }
            }
        }
    }

    #[test]
    fn empty_tiles_have_empty_footprints() {
        // a view wider than the lens: corner tiles are fully invalid
        let lens = FisheyeLens::equidistant_fov(320, 240, 100.0);
        let view = PerspectiveView::centered(96, 96, 160.0);
        let map = RemapMap::build(&lens, &view, 320, 240);
        let plan = TilePlan::build(&map, 8, 8);
        let empty = plan.jobs.iter().filter(|j| j.src.is_empty()).count();
        assert!(empty > 0, "expected some fully-invalid corner tiles");
    }

    #[test]
    fn smaller_tiles_fetch_less_per_tile_more_total() {
        let map = map_180(128, 96);
        let small = TilePlan::build(&map, 8, 8);
        let large = TilePlan::build(&map, 64, 64);
        assert!(small.max_working_set(1, 1, 8) < large.max_working_set(1, 1, 8));
        // margins overlap more with small tiles → more total bytes
        assert!(small.total_src_bytes(1) > large.total_src_bytes(1));
    }

    #[test]
    fn redundancy_reported() {
        let map = map_180(128, 96);
        let plan = TilePlan::build(&map, 16, 16);
        let r = plan.redundancy();
        assert!(r > 0.0 && r < 4.0, "redundancy {r}");
    }

    #[test]
    fn out_bytes_match_area() {
        let map = map_180(100, 70);
        let plan = TilePlan::build(&map, 32, 16);
        assert_eq!(plan.total_out_bytes(1), 100 * 70);
        assert_eq!(plan.total_out_bytes(3), 3 * 100 * 70);
    }

    #[test]
    fn footprint_none_for_all_invalid_region() {
        let lens = FisheyeLens::equidistant_fov(320, 240, 60.0);
        let view = PerspectiveView::centered(64, 64, 170.0);
        let map = RemapMap::build(&lens, &view, 320, 240);
        let corner = Rect::new(0, 0, 4, 4);
        assert!(footprint(&map, &corner, Interpolator::Bilinear).is_none());
    }

    #[test]
    fn edge_tiles_get_remainder_dimensions() {
        // 100x70 output with 32x16 tiles: the last tile column is
        // 100 - 3*32 = 4 wide, the last row 70 - 4*16 = 6 tall
        let map = map_180(100, 70);
        let plan = TilePlan::build(&map, 32, 16);
        for j in &plan.jobs {
            let w = j.out.x1 - j.out.x0;
            let h = j.out.y1 - j.out.y0;
            assert!(w == 32 || (j.out.x1 == 100 && w == 4), "tile {:?}", j.out);
            assert!(h == 16 || (j.out.y1 == 70 && h == 6), "tile {:?}", j.out);
            assert!(j.out.x1 <= 100 && j.out.y1 <= 70, "tile {:?}", j.out);
        }
        // the bottom-right corner tile is exactly the double remainder
        let last = plan.jobs.last().unwrap();
        assert_eq!(
            (last.out.x1 - last.out.x0, last.out.y1 - last.out.y0),
            (4, 6)
        );
    }

    #[test]
    fn non_multiple_dims_plan_reconstructs_frame() {
        // neither output dimension is a multiple of the tile size
        let map = map_180(101, 67);
        let src = pixmap::scene::random_gray(320, 240, 11);
        let full = crate::correct::correct(&src, &map, Interpolator::Bilinear);
        let plan = TilePlan::build(&map, 16, 12);
        let mut out: Image<Gray8> = Image::new(101, 67);
        for j in &plan.jobs {
            let local = if j.src.is_empty() {
                Image::new(1, 1)
            } else {
                src.crop(j.src)
            };
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    let e = map.entry(x, y);
                    let v = if e.is_valid() {
                        Interpolator::Bilinear.sample(
                            &local,
                            e.sx - j.src.x0 as f32,
                            e.sy - j.src.y0 as f32,
                        )
                    } else {
                        Gray8(0)
                    };
                    out.set(x, y, v);
                }
            }
        }
        assert_eq!(out, full);
    }

    #[test]
    fn all_invalid_tiles_reconstruct_to_black() {
        // narrow lens behind a wide view: whole corner tiles have no
        // valid entry (empty source footprint) and must still come out
        // of plan-driven correction as black, not garbage
        let lens = FisheyeLens::equidistant_fov(320, 240, 100.0);
        let view = PerspectiveView::centered(96, 96, 160.0);
        let map = RemapMap::build(&lens, &view, 320, 240);
        let src = pixmap::scene::random_gray(320, 240, 12);
        let full = crate::correct::correct(&src, &map, Interpolator::Bilinear);
        let plan = TilePlan::build(&map, 8, 8);
        let empty: Vec<_> = plan.jobs.iter().filter(|j| j.src.is_empty()).collect();
        assert!(!empty.is_empty(), "expected fully-invalid tiles");
        let mut out: Image<Gray8> = Image::new(96, 96);
        for j in &plan.jobs {
            let local = if j.src.is_empty() {
                Image::new(1, 1)
            } else {
                src.crop(j.src)
            };
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    let e = map.entry(x, y);
                    let v = if e.is_valid() {
                        Interpolator::Bilinear.sample(
                            &local,
                            e.sx - j.src.x0 as f32,
                            e.sy - j.src.y0 as f32,
                        )
                    } else {
                        Gray8(0)
                    };
                    out.set(x, y, v);
                }
            }
        }
        assert_eq!(out, full);
        for j in &empty {
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    assert_eq!(out.pixel(x, y), Gray8(0));
                }
            }
        }
    }

    #[test]
    fn tile_correction_through_plan_reconstructs_frame() {
        // end-to-end: process every tile independently (as an SPE
        // would) and reassemble; must equal the monolithic result
        let map = map_180(64, 48);
        let src = pixmap::scene::random_gray(320, 240, 3);
        let full = crate::correct::correct(&src, &map, Interpolator::Bilinear);
        let plan = TilePlan::build(&map, 16, 12);
        let mut out: Image<Gray8> = Image::new(64, 48);
        for j in &plan.jobs {
            let local = if j.src.is_empty() {
                Image::new(1, 1)
            } else {
                src.crop(j.src)
            };
            for y in j.out.y0..j.out.y1 {
                for x in j.out.x0..j.out.x1 {
                    let e = map.entry(x, y);
                    let v = if e.is_valid() {
                        Interpolator::Bilinear.sample(
                            &local,
                            e.sx - j.src.x0 as f32,
                            e.sy - j.src.y0 as f32,
                        )
                    } else {
                        Gray8(0)
                    };
                    out.set(x, y, v);
                }
            }
        }
        assert_eq!(out, full);
    }
}
