//! Property-based tests of the image substrate: codec round-trips for
//! arbitrary images, metric axioms, YUV conversion bounds.
//!
//! Runs on the in-tree `proputil` harness (seeded cases, halving
//! shrinker) — see DESIGN.md §5 for why no external property-test
//! crate is used.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pixmap::codec;
use pixmap::image::{Image, Rect};
use pixmap::metrics::{mse, psnr, ssim};
use pixmap::pixel::{Gray8, Rgb8};
use pixmap::y4m::{decode_y4m, Y4mWriter};
use pixmap::yuv::{rgb_to_ycbcr, ycbcr_to_rgb, Yuv420};
use proputil::{ensure, ensure_eq, CaseResult, Gen};

const CASES: u32 = 48;

fn arb_gray(g: &mut Gen, max_side: u32) -> Image<Gray8> {
    let w = g.u32_in(1, max_side + 1);
    let h = g.u32_in(1, max_side + 1);
    pixmap::scene::random_gray(w, h, g.u64_any())
}

fn arb_rgb(g: &mut Gen, max_side: u32) -> Image<Rgb8> {
    let w = g.u32_in(1, max_side + 1);
    let h = g.u32_in(1, max_side + 1);
    pixmap::scene::random_rgb(w, h, g.u64_any())
}

#[test]
fn pgm_binary_roundtrips_any_image() {
    proputil::check("pgm_binary_roundtrips_any_image", CASES, |g| {
        let img = arb_gray(g, 40);
        let enc = codec::encode_pgm(&img);
        let dec = codec::decode_pgm(&enc).unwrap();
        ensure_eq!(img, dec);
        Ok(())
    });
}

#[test]
fn pgm_ascii_roundtrips_any_image() {
    proputil::check("pgm_ascii_roundtrips_any_image", CASES, |g| {
        let img = arb_gray(g, 24);
        let dec = codec::decode_pgm(&codec::encode_pgm_ascii(&img)).unwrap();
        ensure_eq!(img, dec);
        Ok(())
    });
}

#[test]
fn ppm_roundtrips_any_image() {
    proputil::check("ppm_roundtrips_any_image", CASES, |g| {
        let img = arb_rgb(g, 32);
        let dec = codec::decode_ppm(&codec::encode_ppm(&img)).unwrap();
        ensure_eq!(img, dec);
        Ok(())
    });
}

#[test]
fn bmp_roundtrips_any_width() {
    // widths 1..37 cover all four row-padding residues
    proputil::check("bmp_roundtrips_any_width", CASES, |g| {
        let img = arb_rgb(g, 37);
        let dec = codec::decode_bmp(&codec::encode_bmp(&img)).unwrap();
        ensure_eq!(img, dec);
        Ok(())
    });
}

#[test]
fn bmp_ppm_regression_9x12() {
    // ported from the committed proptest regression seed: a 9×12 RGB
    // image (width ≡ 1 mod 4, so 3 padding bytes per BMP row) once
    // tripped the BMP row-padding logic. Exercise both codecs at that
    // exact shape with deterministic noise.
    for seed in 0..8u64 {
        let img = pixmap::scene::random_rgb(9, 12, seed);
        assert_eq!(
            codec::decode_bmp(&codec::encode_bmp(&img)).unwrap(),
            img,
            "bmp seed {seed}"
        );
        assert_eq!(
            codec::decode_ppm(&codec::encode_ppm(&img)).unwrap(),
            img,
            "ppm seed {seed}"
        );
    }
}

#[test]
fn decoder_never_panics_on_mutated_pgm() {
    proputil::check("decoder_never_panics_on_mutated_pgm", CASES, |g| {
        let img = arb_gray(g, 16);
        let flip = g.usize_in(0, 64);
        let val = g.u8_any();
        let mut enc = codec::encode_pgm(&img);
        let idx = flip % enc.len();
        enc[idx] = val;
        let _ = codec::decode_pgm(&enc); // Ok or Err, never panic
        Ok(())
    });
}

#[test]
fn decoder_never_panics_on_truncated_bmp() {
    proputil::check("decoder_never_panics_on_truncated_bmp", CASES, |g| {
        let img = arb_rgb(g, 12);
        let keep = g.usize_in(0, 400);
        let enc = codec::encode_bmp(&img);
        let cut = keep.min(enc.len());
        let _ = codec::decode_bmp(&enc[..cut]);
        Ok(())
    });
}

/// A 54-byte BMP header with a randomized raster offset, width and
/// height (negative values and `i32::MIN` included), bpp and
/// compression, over a short random body.
fn arb_bmp_header(g: &mut Gen) -> Vec<u8> {
    const EDGES: [i32; 8] = [
        0,
        -1,
        i32::MAX,
        i32::MIN,
        i32::MIN + 1,
        1 << 30,
        -(1 << 30),
        0x5555_5555,
    ];
    let dim = |g: &mut Gen| {
        if g.bool() {
            g.i64_in(-9, 10) as i32
        } else {
            *g.pick(&EDGES)
        }
    };
    let (w, h) = (dim(g), dim(g));
    let raster_off = if g.bool() {
        g.u32_in(0, 80)
    } else {
        *g.pick(&[u32::MAX, u32::MAX - 53, 1 << 31, 1 << 20])
    };
    let bpp: u16 = if g.bool() {
        24
    } else {
        *g.pick(&[0, 1, 8, 32, u16::MAX])
    };
    let compression = if g.bool() {
        0
    } else {
        *g.pick(&[1, 3, u32::MAX])
    };
    let body = g.usize_in(0, 160);
    let mut b = Vec::with_capacity(54 + body);
    b.extend_from_slice(b"BM");
    b.extend_from_slice(&((54 + body) as u32).to_le_bytes());
    b.extend_from_slice(&0u32.to_le_bytes());
    b.extend_from_slice(&raster_off.to_le_bytes());
    b.extend_from_slice(&40u32.to_le_bytes());
    b.extend_from_slice(&w.to_le_bytes());
    b.extend_from_slice(&h.to_le_bytes());
    b.extend_from_slice(&1u16.to_le_bytes());
    b.extend_from_slice(&bpp.to_le_bytes());
    b.extend_from_slice(&compression.to_le_bytes());
    b.resize(54, 0);
    b.extend((0..body).map(|_| g.u8_any()));
    b
}

#[test]
fn bmp_random_headers_yield_a_verdict_never_a_panic() {
    proputil::check("bmp_random_headers", 400, |g| {
        let bytes = arb_bmp_header(g);
        match catch_unwind(AssertUnwindSafe(|| codec::decode_bmp(&bytes))) {
            // the image never holds more pixels than the input has bytes
            Ok(Ok(img)) => ensure!(
                img.width() as usize * img.height() as usize * 3 <= bytes.len(),
                "{}x{} image from {} bytes",
                img.width(),
                img.height(),
                bytes.len()
            ),
            Ok(Err(_)) => {}
            Err(_) => return Err(format!("decode_bmp panicked on header {:?}", &bytes[..54])),
        }
        Ok(())
    });
}

/// A PNM header with a random magic, width, height and maxval (small
/// values, or edges from 0 to `u32::MAX`), optionally separated by `#`
/// comments, over a short body of raw bytes or ASCII samples.
fn arb_pnm_header(g: &mut Gen) -> Vec<u8> {
    const EDGES: [u32; 7] = [0, 1, 255, 256, 65535, 65536, u32::MAX];
    let mut text = g.pick(&["P2", "P3", "P5", "P6"]).to_string();
    for _ in 0..3 {
        text.push_str(if g.bool() { "\n# note 1 2\n" } else { " " });
        let v = if g.bool() {
            g.u32_in(0, 9)
        } else {
            *g.pick(&EDGES)
        };
        text.push_str(&v.to_string());
    }
    text.push('\n');
    let mut bytes = text.into_bytes();
    let end = bytes.len() + g.usize_in(0, 160);
    if g.bool() {
        bytes.resize_with(end, || g.u8_any());
    } else {
        while bytes.len() < end {
            bytes.extend(format!("{} ", g.u32_in(0, 300)).bytes());
        }
        bytes.truncate(end);
    }
    bytes
}

#[test]
fn pnm_random_headers_yield_a_verdict_never_a_panic() {
    proputil::check("pnm_random_headers", 400, |g| {
        let bytes = arb_pnm_header(g);
        let pixels = catch_unwind(AssertUnwindSafe(|| match &bytes[..2] {
            b"P2" | b"P5" => codec::decode_pgm(&bytes).map(|i| i.len()),
            _ => codec::decode_ppm(&bytes).map(|i| i.len()),
        }));
        let header = String::from_utf8_lossy(&bytes[..bytes.len().min(48)]).into_owned();
        match pixels {
            // the image never holds more pixels than the input has bytes
            Ok(Ok(n)) => ensure!(n <= bytes.len(), "{n} pixels from {header:?}"),
            Ok(Err(_)) => {}
            Err(_) => return Err(format!("PNM decode panicked on {header:?}")),
        }
        Ok(())
    });
}

#[test]
fn mse_axioms() {
    proputil::check("mse_axioms", CASES, |g| {
        let a = arb_gray(g, 24);
        let b = pixmap::scene::random_gray(a.width(), a.height(), g.u64_any());
        // identity
        ensure_eq!(mse(&a, &a), 0.0);
        // symmetry
        let ab = mse(&a, &b);
        let ba = mse(&b, &a);
        ensure!((ab - ba).abs() < 1e-15);
        // bounded by 1
        ensure!(ab <= 1.0 + 1e-12);
        // psnr consistent with mse
        if ab > 0.0 {
            ensure!((psnr(&a, &b) + 10.0 * ab.log10()).abs() < 1e-9);
        }
        Ok(())
    });
}

#[test]
fn ssim_bounded_and_reflexive() {
    proputil::check("ssim_bounded_and_reflexive", CASES, |g| {
        let a = arb_gray(g, 24);
        let s = ssim(&a, &a);
        ensure!((s - 1.0).abs() < 1e-9, "ssim(a,a) = {s}");
        Ok(())
    });
}

#[test]
fn crop_blit_restores_region() {
    proputil::check("crop_blit_restores_region", CASES, |g| {
        let img = arb_gray(g, 32);
        let x0 = g.u32_in(0, 16);
        let y0 = g.u32_in(0, 16);
        let r = Rect::new(
            x0.min(img.width() - 1),
            y0.min(img.height() - 1),
            img.width(),
            img.height(),
        );
        let sub = img.crop(r);
        let mut dst: Image<Gray8> = Image::new(img.width(), img.height());
        dst.blit(&sub, r.x0, r.y0);
        for y in r.y0..r.y1 {
            for x in r.x0..r.x1 {
                ensure_eq!(dst.pixel(x, y), img.pixel(x, y), "at ({x},{y})");
            }
        }
        Ok(())
    });
}

#[test]
fn ycbcr_conversion_is_nearly_inverse() {
    proputil::check("ycbcr_conversion_is_nearly_inverse", 256, |g| {
        let (r, gr, b) = (g.u8_any(), g.u8_any(), g.u8_any());
        let (y, cb, cr) = rgb_to_ycbcr(Rgb8::new(r, gr, b));
        let back = ycbcr_to_rgb(y, cb, cr);
        ensure!((back.r as i32 - r as i32).abs() <= 3, "r {r} -> {}", back.r);
        ensure!(
            (back.g as i32 - gr as i32).abs() <= 3,
            "g {gr} -> {}",
            back.g
        );
        ensure!((back.b as i32 - b as i32).abs() <= 3, "b {b} -> {}", back.b);
        Ok(())
    });
}

#[test]
fn yuv420_roundtrip_bounded_error() {
    proputil::check("yuv420_roundtrip_bounded_error", CASES, |g| {
        // build a chroma-smooth image (every 2x2 block uniform) so
        // 4:2:0 subsampling is information-lossless; then the full
        // RGB round-trip must be tight per pixel
        let small = arb_rgb(g, 12);
        let img = Image::from_fn(small.width() * 2, small.height() * 2, |x, y| {
            small.pixel(x / 2, y / 2)
        });
        let yuv = Yuv420::from_rgb(&img);
        let back = yuv.to_rgb();
        ensure_eq!(back.dims(), img.dims());
        for (a, b) in img.pixels().iter().zip(back.pixels()) {
            ensure!((a.r as i32 - b.r as i32).abs() <= 4, "{a:?} vs {b:?}");
            ensure!((a.g as i32 - b.g as i32).abs() <= 4, "{a:?} vs {b:?}");
            ensure!((a.b as i32 - b.b as i32).abs() <= 4, "{a:?} vs {b:?}");
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// y4m decoder hardening: outside bytes get a verdict, never a panic
// ---------------------------------------------------------------------

/// `decode_y4m` must return (any verdict), not unwind.
fn y4m_decode_must_not_panic(bytes: &[u8]) -> CaseResult {
    match catch_unwind(AssertUnwindSafe(|| decode_y4m(bytes))) {
        Ok(_) => Ok(()),
        Err(_) => Err(format!(
            "decode_y4m panicked on {} bytes: {bytes:?}",
            bytes.len()
        )),
    }
}

/// A valid stream: one or two frames at small even dimensions.
fn arb_y4m(g: &mut Gen) -> Vec<u8> {
    let (w, h) = (2 * g.u32_in(1, 9), 2 * g.u32_in(1, 9));
    let mut out = Y4mWriter::new(Vec::new(), w, h, 25, 1);
    for _ in 0..g.usize_in(1, 3) {
        let rgb = pixmap::scene::random_rgb(w, h, g.u64_any());
        out.write_frame(&Yuv420::from_rgb(&rgb)).unwrap();
    }
    out.finish().unwrap()
}

#[test]
fn y4m_arbitrary_bytes_never_panic() {
    proputil::check("y4m_arbitrary_bytes", 300, |g| {
        // raw garbage, or garbage behind a header with arbitrary dims:
        // small ones (odd included) whose frame the garbage can fill,
        // or any u32
        let dim = |g: &mut Gen| {
            if g.bool() {
                g.u32_in(0, 17)
            } else {
                g.u32_in(0, u32::MAX)
            }
        };
        let mut bytes = if g.bool() {
            let (w, h) = (dim(g), dim(g));
            format!("YUV4MPEG2 W{w} H{h} C420\nFRAME\n").into_bytes()
        } else {
            Vec::new()
        };
        let len = g.usize_in(0, 600);
        bytes.extend((0..len).map(|_| g.u8_any()));
        y4m_decode_must_not_panic(&bytes)
    });
}

#[test]
fn y4m_truncations_are_errors_never_panics() {
    proputil::check("y4m_truncation", 150, |g| {
        let bytes = arb_y4m(g);
        let cut = g.usize_in(0, bytes.len());
        y4m_decode_must_not_panic(&bytes[..cut])?;
        // a cut inside the header or a frame is an error; a cut at a
        // frame boundary is a shorter valid stream
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let frame_len = (bytes.len() - header_end) / {
            let (_, _, frames) = decode_y4m(&bytes).unwrap();
            frames.len()
        };
        let on_boundary = cut >= header_end && (cut - header_end) % frame_len == 0;
        ensure_eq!(decode_y4m(&bytes[..cut]).is_ok(), on_boundary);
        Ok(())
    });
}

#[test]
fn y4m_bit_flips_yield_a_verdict_never_a_panic() {
    proputil::check("y4m_bit_flip", 200, |g| {
        let mut bytes = arb_y4m(g);
        for _ in 0..g.usize_in(1, 5) {
            let byte = g.usize_in(0, bytes.len());
            bytes[byte] ^= 1 << g.usize_in(0, 8);
        }
        y4m_decode_must_not_panic(&bytes)
    });
}
