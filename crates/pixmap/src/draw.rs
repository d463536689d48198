//! Simple raster drawing: lines, circles, crosses, rectangles.
//!
//! Used to overlay calibration grids and view frusta on output images
//! (the visual-figure generator `repro figures` and the examples), and
//! to build structured test content. Everything clips to the image
//! bounds, so callers can draw partially off-screen shapes freely.

use crate::image::Image;
use crate::pixel::Pixel;

/// Set a pixel if it is inside the image.
#[inline]
pub fn plot<P: Pixel>(img: &mut Image<P>, x: i64, y: i64, p: P) {
    if x >= 0 && y >= 0 && (x as u32) < img.width() && (y as u32) < img.height() {
        img.set(x as u32, y as u32, p);
    }
}

/// Bresenham line from `(x0,y0)` to `(x1,y1)`.
pub fn line<P: Pixel>(img: &mut Image<P>, x0: i64, y0: i64, x1: i64, y1: i64, p: P) {
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    let (mut x, mut y) = (x0, y0);
    loop {
        plot(img, x, y, p);
        if x == x1 && y == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Midpoint circle outline of radius `r` around `(cx, cy)`.
pub fn circle<P: Pixel>(img: &mut Image<P>, cx: i64, cy: i64, r: i64, p: P) {
    if r < 0 {
        return;
    }
    let mut x = r;
    let mut y = 0i64;
    let mut err = 1 - r;
    while x >= y {
        for (px, py) in [
            (cx + x, cy + y),
            (cx - x, cy + y),
            (cx + x, cy - y),
            (cx - x, cy - y),
            (cx + y, cy + x),
            (cx - y, cy + x),
            (cx + y, cy - x),
            (cx - y, cy - x),
        ] {
            plot(img, px, py, p);
        }
        y += 1;
        if err < 0 {
            err += 2 * y + 1;
        } else {
            x -= 1;
            err += 2 * (y - x) + 1;
        }
    }
}

/// Axis-aligned rectangle outline (corners inclusive).
pub fn rect<P: Pixel>(img: &mut Image<P>, x0: i64, y0: i64, x1: i64, y1: i64, p: P) {
    line(img, x0, y0, x1, y0, p);
    line(img, x0, y1, x1, y1, p);
    line(img, x0, y0, x0, y1, p);
    line(img, x1, y0, x1, y1, p);
}

/// A `+`-shaped marker of arm length `arm`.
pub fn cross<P: Pixel>(img: &mut Image<P>, cx: i64, cy: i64, arm: i64, p: P) {
    line(img, cx - arm, cy, cx + arm, cy, p);
    line(img, cx, cy - arm, cx, cy + arm, p);
}

/// Compose images side by side with a `gap`-pixel separator filled
/// with `P::BLACK` (for figure panels). All images must share height.
pub fn hstack<P: Pixel>(images: &[&Image<P>], gap: u32) -> Image<P> {
    assert!(!images.is_empty(), "need at least one image");
    let h = images[0].height();
    assert!(
        images.iter().all(|i| i.height() == h),
        "all panels must share height"
    );
    let w: u32 = images.iter().map(|i| i.width()).sum::<u32>() + gap * (images.len() as u32 - 1);
    let mut out = Image::new(w, h);
    let mut x = 0;
    for img in images {
        out.blit(img, x, 0);
        x += img.width() + gap;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Gray8;

    #[test]
    fn plot_clips() {
        let mut img: Image<Gray8> = Image::new(4, 4);
        plot(&mut img, -1, 0, Gray8(255));
        plot(&mut img, 0, 99, Gray8(255));
        plot(&mut img, 2, 2, Gray8(255));
        assert_eq!(img.pixels().iter().filter(|p| p.0 == 255).count(), 1);
    }

    #[test]
    fn horizontal_and_vertical_lines() {
        let mut img: Image<Gray8> = Image::new(8, 8);
        line(&mut img, 1, 3, 6, 3, Gray8(200));
        for x in 1..=6 {
            assert_eq!(img.pixel(x, 3), Gray8(200));
        }
        line(&mut img, 4, 0, 4, 7, Gray8(100));
        // the vertical line overdraws the horizontal at (4, 3)
        for y in 0..=7 {
            assert_eq!(img.pixel(4, y), Gray8(100));
        }
    }

    #[test]
    fn diagonal_line_endpoints_and_connectivity() {
        let mut img: Image<Gray8> = Image::new(10, 10);
        line(&mut img, 0, 0, 9, 6, Gray8(255));
        assert_eq!(img.pixel(0, 0), Gray8(255));
        assert_eq!(img.pixel(9, 6), Gray8(255));
        // every column on the path is touched exactly once
        for x in 0..10u32 {
            let hits = (0..10u32).filter(|&y| img.pixel(x, y).0 == 255).count();
            assert_eq!(hits, 1, "column {x}");
        }
    }

    #[test]
    fn circle_radius_correct() {
        let mut img: Image<Gray8> = Image::new(32, 32);
        circle(&mut img, 16, 16, 10, Gray8(255));
        let mut min_r = f64::MAX;
        let mut max_r: f64 = 0.0;
        for y in 0..32u32 {
            for x in 0..32u32 {
                if img.pixel(x, y).0 == 255 {
                    let r = ((x as f64 - 16.0).powi(2) + (y as f64 - 16.0).powi(2)).sqrt();
                    min_r = min_r.min(r);
                    max_r = max_r.max(r);
                }
            }
        }
        assert!(min_r > 9.0 && max_r < 11.0, "radius range {min_r}..{max_r}");
    }

    #[test]
    fn circle_negative_radius_noop() {
        let mut img: Image<Gray8> = Image::new(8, 8);
        circle(&mut img, 4, 4, -1, Gray8(255));
        assert!(img.pixels().iter().all(|p| p.0 == 0));
    }

    #[test]
    fn rect_outline_only() {
        let mut img: Image<Gray8> = Image::new(8, 8);
        rect(&mut img, 1, 1, 6, 6, Gray8(255));
        assert_eq!(img.pixel(1, 1), Gray8(255));
        assert_eq!(img.pixel(6, 6), Gray8(255));
        assert_eq!(img.pixel(3, 3), Gray8(0), "interior untouched");
    }

    #[test]
    fn cross_marks_center() {
        let mut img: Image<Gray8> = Image::new(9, 9);
        cross(&mut img, 4, 4, 2, Gray8(255));
        assert_eq!(img.pixel(4, 4), Gray8(255));
        assert_eq!(img.pixel(2, 4), Gray8(255));
        assert_eq!(img.pixel(4, 6), Gray8(255));
        assert_eq!(img.pixel(2, 2), Gray8(0));
    }

    #[test]
    fn hstack_composes() {
        let a: Image<Gray8> = Image::filled(3, 4, Gray8(10));
        let b: Image<Gray8> = Image::filled(2, 4, Gray8(20));
        let s = hstack(&[&a, &b], 1);
        assert_eq!(s.dims(), (6, 4));
        assert_eq!(s.pixel(0, 0), Gray8(10));
        assert_eq!(s.pixel(3, 0), Gray8(0)); // gap
        assert_eq!(s.pixel(4, 0), Gray8(20));
    }

    #[test]
    #[should_panic(expected = "share height")]
    fn hstack_checks_heights() {
        let a: Image<Gray8> = Image::new(2, 3);
        let b: Image<Gray8> = Image::new(2, 4);
        let _ = hstack(&[&a, &b], 0);
    }
}
