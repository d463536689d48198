//! YUV4MPEG2 (`.y4m`) stream writer and reader.
//!
//! The standard uncompressed video interchange format (mpv, ffmpeg and
//! every encoder accept it), so the pipeline examples can emit real
//! playable video. Only the C420jpeg-less plain `C420` variant is
//! implemented — full frames, progressive, no interlacing metadata.

// The decoder reads bytes from outside (files, pipes): every length
// is computed with checked arithmetic and every slice is taken with
// `get`, so a malformed stream is an `Err`, never a panic (the
// proputil harness in tests/proptests.rs checks the same property
// dynamically). The writer's asserts check its caller's own
// arguments and live outside the decoder.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::io::{self, Write};

use crate::image::Image;
use crate::pixel::Gray8;
use crate::yuv::Yuv420;

/// Streams YUV420 frames as YUV4MPEG2.
pub struct Y4mWriter<W: Write> {
    sink: W,
    width: u32,
    height: u32,
    frames: u64,
    header_written: bool,
    fps_num: u32,
    fps_den: u32,
}

impl<W: Write> Y4mWriter<W> {
    /// Writer for `width`×`height` frames at `fps_num/fps_den` Hz.
    /// Dimensions must be even (4:2:0 chroma).
    pub fn new(sink: W, width: u32, height: u32, fps_num: u32, fps_den: u32) -> Self {
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "C420 needs even dims"
        );
        assert!(fps_num > 0 && fps_den > 0, "frame rate must be positive");
        Y4mWriter {
            sink,
            width,
            height,
            frames: 0,
            header_written: false,
            fps_num,
            fps_den,
        }
    }

    /// Append one frame.
    pub fn write_frame(&mut self, frame: &Yuv420) -> io::Result<()> {
        if frame.dims() != (self.width, self.height) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame {:?} does not match stream {}x{}",
                    frame.dims(),
                    self.width,
                    self.height
                ),
            ));
        }
        if !self.header_written {
            writeln!(
                self.sink,
                "YUV4MPEG2 W{} H{} F{}:{} Ip A1:1 C420",
                self.width, self.height, self.fps_num, self.fps_den
            )?;
            self.header_written = true;
        }
        self.sink.write_all(b"FRAME\n")?;
        for p in frame.y.pixels() {
            self.sink.write_all(&[p.0])?;
        }
        for p in frame.cb.pixels() {
            self.sink.write_all(&[p.0])?;
        }
        for p in frame.cr.pixels() {
            self.sink.write_all(&[p.0])?;
        }
        self.frames += 1;
        Ok(())
    }

    /// Frames written so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Flush and return the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Parse a `.y4m` byte stream produced by [`Y4mWriter`] (plain C420).
/// Returns `(width, height, frames)`. Malformed input — a bad header,
/// odd dimensions, a size past the address space, a truncated frame —
/// is an `Err`, never a panic, and allocation stays bounded by the
/// input: a frame's planes are built only once its whole payload is
/// present.
pub fn decode_y4m(bytes: &[u8]) -> Result<(u32, u32, Vec<Yuv420>), String> {
    let (header, mut rest) = split_line(bytes).ok_or("missing stream header")?;
    let header = std::str::from_utf8(header).map_err(|e| e.to_string())?;
    if !header.starts_with("YUV4MPEG2") {
        return Err("not a YUV4MPEG2 stream".into());
    }
    let mut w = 0u32;
    let mut h = 0u32;
    for tok in header.split_whitespace().skip(1) {
        let mut chars = tok.chars();
        match chars.next() {
            Some('W') => w = chars.as_str().parse().map_err(|_| "bad W")?,
            Some('H') => h = chars.as_str().parse().map_err(|_| "bad H")?,
            Some('C') if chars.as_str() != "420" => {
                return Err(format!("unsupported chroma mode {tok}"));
            }
            _ => {}
        }
    }
    if w == 0 || h == 0 {
        return Err("missing dimensions".into());
    }
    if !w.is_multiple_of(2) || !h.is_multiple_of(2) {
        return Err(format!("C420 needs even dims, got {w}x{h}"));
    }
    let y_len = (w as usize)
        .checked_mul(h as usize)
        .ok_or("frame size overflows")?;
    let c_len = y_len / 4;
    let frame_len = c_len
        .checked_mul(2)
        .and_then(|c| c.checked_add(y_len))
        .ok_or("frame size overflows")?;
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (marker, after) = split_line(rest).ok_or("truncated frame header")?;
        if !marker.starts_with(b"FRAME") {
            return Err("expected FRAME marker".into());
        }
        let (payload, next) = after
            .split_at_checked(frame_len)
            .ok_or("truncated frame payload")?;
        let (y, chroma) = payload.split_at_checked(y_len).ok_or("truncated luma")?;
        let (cb, cr) = chroma.split_at_checked(c_len).ok_or("truncated chroma")?;
        frames.push(Yuv420 {
            y: plane(y, w, h),
            cb: plane(cb, w / 2, h / 2),
            cr: plane(cr, w / 2, h / 2),
        });
        rest = next;
    }
    Ok((w, h, frames))
}

/// The bytes before the first `\n` and the bytes after it, or `None`
/// when there is no newline.
fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let (line, rest) = bytes.split_at_checked(nl)?;
    Some((line, rest.get(1..)?))
}

/// A `w`×`h` plane over exactly `w * h` bytes (the caller's split
/// guarantees the length).
fn plane(data: &[u8], w: u32, h: u32) -> Image<Gray8> {
    Image::from_vec(w, h, data.iter().map(|&b| Gray8(b)).collect())
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;
    use crate::scene::random_rgb;

    fn frame(seed: u64) -> Yuv420 {
        Yuv420::from_rgb(&random_rgb(16, 12, seed))
    }

    #[test]
    fn roundtrip_multi_frame() {
        let mut w = Y4mWriter::new(Vec::new(), 16, 12, 30, 1);
        let f0 = frame(1);
        let f1 = frame(2);
        w.write_frame(&f0).unwrap();
        w.write_frame(&f1).unwrap();
        assert_eq!(w.frames(), 2);
        let bytes = w.finish().unwrap();
        let (dw, dh, frames) = decode_y4m(&bytes).unwrap();
        assert_eq!((dw, dh), (16, 12));
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], f0);
        assert_eq!(frames[1], f1);
    }

    #[test]
    fn header_format() {
        let mut w = Y4mWriter::new(Vec::new(), 32, 24, 30000, 1001);
        w.write_frame(&Yuv420::from_rgb(&random_rgb(32, 24, 3)))
            .unwrap();
        let bytes = w.finish().unwrap();
        let header =
            std::str::from_utf8(&bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()]).unwrap();
        assert_eq!(header, "YUV4MPEG2 W32 H24 F30000:1001 Ip A1:1 C420");
    }

    #[test]
    fn rejects_mismatched_frame() {
        let mut w = Y4mWriter::new(Vec::new(), 16, 12, 25, 1);
        let wrong = Yuv420::from_rgb(&random_rgb(8, 8, 4));
        assert!(w.write_frame(&wrong).is_err());
        assert_eq!(w.frames(), 0);
    }

    #[test]
    #[should_panic(expected = "even dims")]
    fn odd_dims_rejected() {
        let _ = Y4mWriter::new(Vec::new(), 15, 12, 25, 1);
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(decode_y4m(b"not a stream\n").is_err());
        assert!(decode_y4m(b"YUV4MPEG2 W16\n").is_err()); // missing H
                                                          // truncated payload
        let mut w = Y4mWriter::new(Vec::new(), 16, 12, 25, 1);
        w.write_frame(&frame(5)).unwrap();
        let bytes = w.finish().unwrap();
        assert!(decode_y4m(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn odd_dims_are_an_error_not_a_panic() {
        // the chroma planes of a 4x3 frame would be 2x1 from 3 bytes
        let mut bytes = b"YUV4MPEG2 W4 H3 C420\nFRAME\n".to_vec();
        bytes.extend_from_slice(&[0u8; 12 + 2 * 3]);
        let err = decode_y4m(&bytes).unwrap_err();
        assert!(err.contains("even dims"), "{err}");
    }

    #[test]
    fn huge_dims_are_an_error_not_an_overflow() {
        // 65536 x 65536 overflows a u32 pixel count; the stream holds
        // no payload, so nothing may be allocated for it either
        let bytes = b"YUV4MPEG2 W65536 H65536 C420\nFRAME\n";
        let err = decode_y4m(bytes).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn empty_stream_has_no_frames() {
        // header-only stream (no frames written yet -> no header
        // either; decode of a bare header is fine)
        let bytes = b"YUV4MPEG2 W16 H12 F25:1 Ip A1:1 C420\n".to_vec();
        let (_, _, frames) = decode_y4m(&bytes).unwrap();
        assert!(frames.is_empty());
    }
}
