//! Netpbm (PGM/PPM) and 24-bit BMP codecs.
//!
//! Implemented directly from the format specifications so the workspace
//! needs no external codec crates (the `image` crate's dependency tree
//! is far too heavy for this repo's needs; see DESIGN.md §5). Supported:
//!
//! * PGM: `P2` (ASCII) and `P5` (binary), maxval ≤ 65535 (16-bit values
//!   big-endian per spec).
//! * PPM: `P3` (ASCII) and `P6` (binary), maxval ≤ 255.
//! * BMP: uncompressed 24-bit `BITMAPINFOHEADER` write + read, useful
//!   for eyeballing results with any desktop viewer.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::image::Image;
use crate::pixel::{Gray16, Gray8, Rgb8};

/// Errors raised while decoding.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The byte stream does not follow the expected format.
    Malformed(String),
    /// Format feature we deliberately do not support (e.g. compressed BMP).
    Unsupported(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed image: {m}"),
            CodecError::Unsupported(m) => write!(f, "unsupported feature: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> CodecError {
    CodecError::Malformed(msg.into())
}

// ---------------------------------------------------------------------
// Netpbm header tokenizer: whitespace-separated tokens, `#` comments.
// ---------------------------------------------------------------------

struct PnmTokens<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PnmTokens<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn skip_ws_and_comments(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'#' {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn token(&mut self) -> Result<&'a [u8], CodecError> {
        self.skip_ws_and_comments();
        let start = self.pos;
        while self.pos < self.bytes.len() && !self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if start == self.pos {
            Err(malformed("unexpected end of header"))
        } else {
            Ok(&self.bytes[start..self.pos])
        }
    }

    fn number(&mut self) -> Result<u32, CodecError> {
        let t = self.token()?;
        std::str::from_utf8(t)
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| malformed(format!("expected number, got {:?}", t)))
    }

    /// Position just past the single whitespace byte that terminates the
    /// header (the raster of binary formats starts there).
    fn raster_start(&self) -> usize {
        self.pos + 1
    }
}

// ---------------------------------------------------------------------
// PGM
// ---------------------------------------------------------------------

/// Encode an 8-bit grayscale image as binary PGM (`P5`).
pub fn encode_pgm(img: &Image<Gray8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.len() + 32);
    write!(out, "P5\n{} {}\n255\n", img.width(), img.height()).unwrap();
    out.extend(img.pixels().iter().map(|p| p.0));
    out
}

/// Encode a 16-bit grayscale image as binary PGM (`P5`, big-endian
/// samples per the Netpbm spec).
pub fn encode_pgm16(img: &Image<Gray16>) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.len() * 2 + 32);
    write!(out, "P5\n{} {}\n65535\n", img.width(), img.height()).unwrap();
    for p in img.pixels() {
        out.extend_from_slice(&p.0.to_be_bytes());
    }
    out
}

/// Encode an 8-bit grayscale image as ASCII PGM (`P2`).
pub fn encode_pgm_ascii(img: &Image<Gray8>) -> Vec<u8> {
    let mut out = Vec::new();
    write!(out, "P2\n{} {}\n255\n", img.width(), img.height()).unwrap();
    for row in img.rows() {
        let line: Vec<String> = row.iter().map(|p| p.0.to_string()).collect();
        writeln!(out, "{}", line.join(" ")).unwrap();
    }
    out
}

/// Decode a PGM (`P2` or `P5`) byte stream into an 8-bit image.
/// 16-bit inputs are narrowed to 8 bits.
pub fn decode_pgm(bytes: &[u8]) -> Result<Image<Gray8>, CodecError> {
    let mut t = PnmTokens::new(bytes);
    let magic = t.token()?;
    let binary = match magic {
        b"P5" => true,
        b"P2" => false,
        other => {
            return Err(malformed(format!(
                "not a PGM file (magic {:?})",
                String::from_utf8_lossy(other)
            )))
        }
    };
    let w = t.number()?;
    let h = t.number()?;
    let maxval = t.number()?;
    if maxval == 0 || maxval > 65535 {
        return Err(malformed(format!("invalid maxval {maxval}")));
    }
    let n = raster_len(w, h, 1)?;
    let data: Vec<Gray8> = if binary {
        let start = t.raster_start();
        if maxval < 256 {
            raster(bytes, start, n)?
                .iter()
                .map(|&b| Gray8(scale_to_u8(b as u32, maxval)))
                .collect()
        } else {
            raster(bytes, start, raster_len(w, h, 2)?)?
                .chunks_exact(2)
                .map(|c| Gray8(scale_to_u8(u16::from_be_bytes([c[0], c[1]]) as u32, maxval)))
                .collect()
        }
    } else {
        // every ASCII sample takes at least one input byte
        let mut data = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            let v = t.number()?;
            if v > maxval {
                return Err(malformed(format!("sample {v} exceeds maxval {maxval}")));
            }
            data.push(Gray8(scale_to_u8(v, maxval)));
        }
        data
    };
    Ok(Image::from_vec(w, h, data))
}

/// Byte length of a `w`×`h` raster at `per_pixel` bytes per pixel,
/// or `Malformed` when the header's dimensions overflow it.
fn raster_len(w: u32, h: u32, per_pixel: usize) -> Result<usize, CodecError> {
    (w as usize)
        .checked_mul(h as usize)
        .and_then(|n| n.checked_mul(per_pixel))
        .ok_or_else(|| malformed(format!("{w}x{h} raster size overflows")))
}

/// The `len` raster bytes at `start`, or `Malformed` when the input
/// ends first.
fn raster(bytes: &[u8], start: usize, len: usize) -> Result<&[u8], CodecError> {
    start
        .checked_add(len)
        .and_then(|end| bytes.get(start..end))
        .ok_or_else(|| malformed("raster truncated"))
}

/// Scale a sample in `[0, maxval]` to `[0, 255]` with rounding.
fn scale_to_u8(v: u32, maxval: u32) -> u8 {
    ((v * 255 + maxval / 2) / maxval) as u8
}

// ---------------------------------------------------------------------
// PPM
// ---------------------------------------------------------------------

/// Encode an RGB image as binary PPM (`P6`).
pub fn encode_ppm(img: &Image<Rgb8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.len() * 3 + 32);
    write!(out, "P6\n{} {}\n255\n", img.width(), img.height()).unwrap();
    for p in img.pixels() {
        out.extend_from_slice(&[p.r, p.g, p.b]);
    }
    out
}

/// Decode a PPM (`P3` or `P6`) byte stream (maxval ≤ 255).
pub fn decode_ppm(bytes: &[u8]) -> Result<Image<Rgb8>, CodecError> {
    let mut t = PnmTokens::new(bytes);
    let magic = t.token()?;
    let binary = match magic {
        b"P6" => true,
        b"P3" => false,
        other => {
            return Err(malformed(format!(
                "not a PPM file (magic {:?})",
                String::from_utf8_lossy(other)
            )))
        }
    };
    let w = t.number()?;
    let h = t.number()?;
    let maxval = t.number()?;
    if maxval == 0 || maxval > 255 {
        return Err(CodecError::Unsupported(format!(
            "PPM maxval {maxval} (only <=255 supported)"
        )));
    }
    let n = raster_len(w, h, 1)?;
    let data: Vec<Rgb8> = if binary {
        raster(bytes, t.raster_start(), raster_len(w, h, 3)?)?
            .chunks_exact(3)
            .map(|c| {
                Rgb8::new(
                    scale_to_u8(c[0] as u32, maxval),
                    scale_to_u8(c[1] as u32, maxval),
                    scale_to_u8(c[2] as u32, maxval),
                )
            })
            .collect()
    } else {
        // every ASCII sample takes at least one input byte
        let mut data = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            let r = t.number()?;
            let g = t.number()?;
            let b = t.number()?;
            if r > maxval || g > maxval || b > maxval {
                return Err(malformed("sample exceeds maxval"));
            }
            data.push(Rgb8::new(
                scale_to_u8(r, maxval),
                scale_to_u8(g, maxval),
                scale_to_u8(b, maxval),
            ));
        }
        data
    };
    Ok(Image::from_vec(w, h, data))
}

// ---------------------------------------------------------------------
// BMP (24-bit uncompressed, BITMAPINFOHEADER)
// ---------------------------------------------------------------------

/// Encode an RGB image as an uncompressed 24-bit BMP.
pub fn encode_bmp(img: &Image<Rgb8>) -> Vec<u8> {
    let w = img.width();
    let h = img.height();
    let row_bytes = (w as usize * 3 + 3) & !3; // rows padded to 4 bytes
    let raster_size = row_bytes * h as usize;
    let file_size = 14 + 40 + raster_size;

    let mut out = Vec::with_capacity(file_size);
    // BITMAPFILEHEADER
    out.extend_from_slice(b"BM");
    out.extend_from_slice(&(file_size as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&54u32.to_le_bytes()); // raster offset
                                                 // BITMAPINFOHEADER
    out.extend_from_slice(&40u32.to_le_bytes());
    out.extend_from_slice(&(w as i32).to_le_bytes());
    out.extend_from_slice(&(h as i32).to_le_bytes()); // bottom-up
    out.extend_from_slice(&1u16.to_le_bytes()); // planes
    out.extend_from_slice(&24u16.to_le_bytes()); // bpp
    out.extend_from_slice(&0u32.to_le_bytes()); // BI_RGB
    out.extend_from_slice(&(raster_size as u32).to_le_bytes());
    out.extend_from_slice(&2835u32.to_le_bytes()); // 72 dpi
    out.extend_from_slice(&2835u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    // raster, bottom row first, BGR order
    for y in (0..h).rev() {
        let mut written = 0;
        for p in img.row(y) {
            out.extend_from_slice(&[p.b, p.g, p.r]);
            written += 3;
        }
        while written % 4 != 0 {
            out.push(0);
            written += 1;
        }
    }
    out
}

/// Decode an uncompressed 24-bit BMP produced by [`encode_bmp`] (or any
/// other writer of the same baseline format).
pub fn decode_bmp(bytes: &[u8]) -> Result<Image<Rgb8>, CodecError> {
    if bytes.len() < 54 || &bytes[0..2] != b"BM" {
        return Err(malformed("not a BMP file"));
    }
    let le32 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let le16 = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
    let raster_off = le32(10) as usize;
    let header_size = le32(14);
    if header_size < 40 {
        return Err(CodecError::Unsupported("BITMAPCOREHEADER".into()));
    }
    let w = le32(18) as i32;
    let h = le32(22) as i32;
    let bpp = le16(28);
    let compression = le32(30);
    if bpp != 24 || compression != 0 {
        return Err(CodecError::Unsupported(format!(
            "bpp={bpp} compression={compression} (only 24-bit BI_RGB)"
        )));
    }
    if w <= 0 {
        return Err(malformed("non-positive width"));
    }
    let bottom_up = h > 0;
    let height = h.unsigned_abs();
    let width = w as u32;
    let row_bytes = (width as usize * 3 + 3) & !3;
    let need = raster_off + row_bytes * height as usize;
    if bytes.len() < need {
        return Err(malformed("raster truncated"));
    }
    let mut img = Image::new(width, height);
    for row in 0..height {
        let src_row = if bottom_up { height - 1 - row } else { row };
        let base = raster_off + src_row as usize * row_bytes;
        for x in 0..width {
            let o = base + x as usize * 3;
            img.set(x, row, Rgb8::new(bytes[o + 2], bytes[o + 1], bytes[o]));
        }
    }
    Ok(img)
}

// ---------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------

/// Write a grayscale image to a `.pgm` file.
pub fn save_pgm(img: &Image<Gray8>, path: impl AsRef<Path>) -> Result<(), CodecError> {
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&encode_pgm(img))?;
    Ok(())
}

/// Read a grayscale image from a `.pgm` file.
pub fn load_pgm(path: impl AsRef<Path>) -> Result<Image<Gray8>, CodecError> {
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    decode_pgm(&bytes)
}

/// Write an RGB image to a `.ppm` file.
pub fn save_ppm(img: &Image<Rgb8>, path: impl AsRef<Path>) -> Result<(), CodecError> {
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&encode_ppm(img))?;
    Ok(())
}

/// Read an RGB image from a `.ppm` file.
pub fn load_ppm(path: impl AsRef<Path>) -> Result<Image<Rgb8>, CodecError> {
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    decode_ppm(&bytes)
}

/// Write an RGB image to a `.bmp` file.
pub fn save_bmp(img: &Image<Rgb8>, path: impl AsRef<Path>) -> Result<(), CodecError> {
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&encode_bmp(img))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_gray() -> Image<Gray8> {
        Image::from_fn(5, 3, |x, y| Gray8((x * 40 + y * 13) as u8))
    }

    fn test_rgb() -> Image<Rgb8> {
        Image::from_fn(5, 3, |x, y| Rgb8::new(x as u8 * 50, y as u8 * 80, 200))
    }

    #[test]
    fn pgm_binary_roundtrip() {
        let img = test_gray();
        let enc = encode_pgm(&img);
        let dec = decode_pgm(&enc).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn pgm_ascii_roundtrip() {
        let img = test_gray();
        let enc = encode_pgm_ascii(&img);
        assert!(enc.starts_with(b"P2"));
        let dec = decode_pgm(&enc).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn pgm16_header_and_length() {
        let img = Image::from_fn(3, 2, |x, y| Gray16((x * 1000 + y * 30000) as u16));
        let enc = encode_pgm16(&img);
        assert!(enc.starts_with(b"P5\n3 2\n65535\n"));
        let header_len = b"P5\n3 2\n65535\n".len();
        assert_eq!(enc.len(), header_len + 6 * 2);
        // decodes (narrowed to 8 bits) without error
        let dec = decode_pgm(&enc).unwrap();
        assert_eq!(dec.dims(), (3, 2));
    }

    #[test]
    fn pgm_comments_are_skipped() {
        let data = b"P2\n# a comment\n2 2\n# another\n255\n0 64\n128 255\n";
        let img = decode_pgm(data).unwrap();
        assert_eq!(img.pixel(1, 0), Gray8(64));
        assert_eq!(img.pixel(1, 1), Gray8(255));
    }

    #[test]
    fn pgm_maxval_rescaling() {
        // maxval 100 -> sample 50 scales to ~128
        let data = b"P2\n1 1\n100\n50\n";
        let img = decode_pgm(data).unwrap();
        assert_eq!(img.pixel(0, 0), Gray8(128));
    }

    #[test]
    fn pgm_rejects_garbage() {
        assert!(decode_pgm(b"JUNK").is_err());
        assert!(decode_pgm(b"P5\n2 2\n255\nab").is_err()); // truncated raster
        assert!(decode_pgm(b"P2\n1 1\n255\n300\n").is_err()); // > maxval
        assert!(decode_pgm(b"P2\n1 1\n0\n0\n").is_err()); // maxval 0
    }

    #[test]
    fn oversized_pnm_headers_are_malformed_not_panics() {
        // headers claiming rasters the input cannot hold: no panic, no
        // allocation sized by the header
        for dims in ["4294967295 4294967295", "65535 65535"] {
            for magic in ["P5", "P2"] {
                let data = format!("{magic}\n{dims}\n255\n");
                let r = decode_pgm(data.as_bytes());
                assert!(matches!(r, Err(CodecError::Malformed(_))), "{data:?}");
            }
            for magic in ["P6", "P3"] {
                let data = format!("{magic}\n{dims}\n255\n");
                let r = decode_ppm(data.as_bytes());
                assert!(matches!(r, Err(CodecError::Malformed(_))), "{data:?}");
            }
        }
    }

    #[test]
    fn ppm_binary_roundtrip() {
        let img = test_rgb();
        let dec = decode_ppm(&encode_ppm(&img)).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn ppm_ascii_decode() {
        let data = b"P3\n2 1\n255\n255 0 0  0 255 0\n";
        let img = decode_ppm(data).unwrap();
        assert_eq!(img.pixel(0, 0), Rgb8::new(255, 0, 0));
        assert_eq!(img.pixel(1, 0), Rgb8::new(0, 255, 0));
    }

    #[test]
    fn ppm_rejects_16bit() {
        let data = b"P6\n1 1\n65535\n\0\0\0\0\0\0";
        assert!(matches!(decode_ppm(data), Err(CodecError::Unsupported(_))));
    }

    #[test]
    fn bmp_roundtrip_odd_width() {
        // width 5 forces row padding (15 bytes -> 16)
        let img = test_rgb();
        let enc = encode_bmp(&img);
        let dec = decode_bmp(&enc).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn bmp_roundtrip_aligned_width() {
        let img = Image::from_fn(4, 4, |x, y| Rgb8::new(x as u8, y as u8, (x + y) as u8));
        let dec = decode_bmp(&encode_bmp(&img)).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn bmp_rejects_non_bmp() {
        assert!(decode_bmp(b"nope").is_err());
        let mut enc = encode_bmp(&test_rgb());
        enc[28] = 8; // claim 8bpp
        assert!(matches!(decode_bmp(&enc), Err(CodecError::Unsupported(_))));
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir();
        let g = dir.join("pixmap_test.pgm");
        let c = dir.join("pixmap_test.ppm");
        save_pgm(&test_gray(), &g).unwrap();
        save_ppm(&test_rgb(), &c).unwrap();
        assert_eq!(load_pgm(&g).unwrap(), test_gray());
        assert_eq!(load_ppm(&c).unwrap(), test_rgb());
        let _ = std::fs::remove_file(g);
        let _ = std::fs::remove_file(c);
    }
}
