//! Synthetic video sources.
//!
//! Stand-ins for the paper's camera feed, both [`FrameSource`]s for
//! [`run_frame_pipeline`](crate::pipeline::run_frame_pipeline):
//!
//! * [`CycledFrames`] — cycles a small set of whole [`Frame`]s (gray,
//!   YUV 4:2:0 or planar RGB; e.g. fully ray-traced fisheye captures:
//!   expensive to build, realistic content).
//! * [`ShiftVideo`] — a single gray8 capture translated by a growing
//!   offset each frame (cheap per frame; models a panning camera well
//!   enough for throughput work where frame *content* is irrelevant).

use std::time::Instant;

use fisheye_core::frame::{Frame, FrameFormat};
use pixmap::{Gray8, Image};

/// A timestamped frame traveling through the pipeline.
#[derive(Clone, Debug)]
pub struct FramePacket {
    /// Sequence number (0-based).
    pub seq: u64,
    /// Capture timestamp (latency measurements start here).
    pub captured_at: Instant,
    /// The distorted fisheye frame, all planes.
    pub frame: Frame,
}

/// A source of frames. `next_frame` returns `None` at end of stream;
/// every frame must share [`format`](Self::format) and
/// [`dims`](Self::dims).
pub trait FrameSource: Send {
    /// Produce the next frame, or `None` when the stream ends.
    fn next_frame(&mut self) -> Option<FramePacket>;

    /// Full-resolution frame dimensions.
    fn dims(&self) -> (u32, u32);

    /// The format of every frame this source produces.
    fn format(&self) -> FrameFormat;
}

/// Cycles through a fixed set of frames for `total` frames.
pub struct CycledFrames {
    frames: Vec<Frame>,
    total: u64,
    seq: u64,
}

impl CycledFrames {
    /// A stream of `total` frames cycling `frames` (must be non-empty,
    /// all the same format and size).
    pub fn new(frames: Vec<Frame>, total: u64) -> Self {
        assert!(!frames.is_empty(), "need at least one frame");
        let format = frames[0].format();
        let dims = frames[0].dims();
        assert!(
            frames
                .iter()
                .all(|f| f.format() == format && f.dims() == dims),
            "all frames must share format and dimensions"
        );
        CycledFrames {
            frames,
            total,
            seq: 0,
        }
    }
}

impl FrameSource for CycledFrames {
    fn next_frame(&mut self) -> Option<FramePacket> {
        if self.seq >= self.total {
            return None;
        }
        let frame = self.frames[(self.seq % self.frames.len() as u64) as usize].clone();
        let p = FramePacket {
            seq: self.seq,
            captured_at: Instant::now(),
            frame,
        };
        self.seq += 1;
        Some(p)
    }

    fn dims(&self) -> (u32, u32) {
        self.frames[0].dims()
    }

    fn format(&self) -> FrameFormat {
        self.frames[0].format()
    }
}

/// Translates a gray8 base frame horizontally by `step` pixels per
/// frame (wrapping), modeling a panning camera.
pub struct ShiftVideo {
    base: Image<Gray8>,
    step: u32,
    total: u64,
    seq: u64,
}

impl ShiftVideo {
    /// A video of `total` frames shifting `base` by `step` px/frame.
    pub fn new(base: Image<Gray8>, step: u32, total: u64) -> Self {
        ShiftVideo {
            base,
            step,
            total,
            seq: 0,
        }
    }
}

impl FrameSource for ShiftVideo {
    fn next_frame(&mut self) -> Option<FramePacket> {
        if self.seq >= self.total {
            return None;
        }
        let (w, h) = self.base.dims();
        let shift = (self.seq as u32 * self.step) % w;
        let mut image = Image::new(w, h);
        for y in 0..h {
            let src = self.base.row(y);
            let dst = image.row_mut(y);
            let s = shift as usize;
            dst[..w as usize - s].copy_from_slice(&src[s..]);
            dst[w as usize - s..].copy_from_slice(&src[..s]);
        }
        let p = FramePacket {
            seq: self.seq,
            captured_at: Instant::now(),
            frame: Frame::Gray8(image),
        };
        self.seq += 1;
        Some(p)
    }

    fn dims(&self) -> (u32, u32) {
        self.base.dims()
    }

    fn format(&self) -> FrameFormat {
        FrameFormat::Gray8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixmap::scene::random_gray;

    /// The gray8 plane of a packet.
    fn gray(p: FramePacket) -> Image<Gray8> {
        match p.frame {
            Frame::Gray8(img) => img,
            other => panic!("gray8 packet expected, got {}", other.format()),
        }
    }

    #[test]
    fn cycled_video_counts_and_cycles() {
        let a = random_gray(16, 16, 1);
        let b = random_gray(16, 16, 2);
        let mut v = CycledFrames::new(vec![Frame::Gray8(a.clone()), Frame::Gray8(b.clone())], 5);
        assert_eq!(v.dims(), (16, 16));
        assert_eq!(v.format(), FrameFormat::Gray8);
        let frames: Vec<_> = std::iter::from_fn(|| v.next_frame()).collect();
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[4].seq, 4);
        let images: Vec<_> = frames.into_iter().map(gray).collect();
        assert_eq!(images[0], a);
        assert_eq!(images[1], b);
        assert_eq!(images[2], a);
        assert!(v.next_frame().is_none());
    }

    #[test]
    #[should_panic(expected = "share format and dimensions")]
    fn cycled_video_checks_dims() {
        let _ = CycledFrames::new(
            vec![
                Frame::Gray8(random_gray(8, 8, 1)),
                Frame::Gray8(random_gray(9, 8, 1)),
            ],
            2,
        );
    }

    #[test]
    fn shift_video_translates_and_wraps() {
        let base = random_gray(10, 4, 3);
        let mut v = ShiftVideo::new(base.clone(), 3, 20);
        assert_eq!(v.format(), FrameFormat::Gray8);
        let f0 = gray(v.next_frame().unwrap());
        assert_eq!(f0, base, "frame 0 unshifted");
        let f1 = gray(v.next_frame().unwrap());
        assert_eq!(f1.pixel(0, 0), base.pixel(3, 0));
        assert_eq!(f1.pixel(7, 2), base.pixel(0, 2), "wraparound");
        // shift is periodic with period w/gcd: frame 10 back to 0 shift
        let mut v2 = ShiftVideo::new(base.clone(), 5, 20);
        let _ = v2.next_frame();
        let _ = v2.next_frame();
        let f2 = gray(v2.next_frame().unwrap()); // shift 10 % 10 = 0
        assert_eq!(f2, base);
    }

    #[test]
    fn cycled_frames_counts_cycles_and_reports_format() {
        let a = Frame::new(FrameFormat::Yuv420, 16, 12);
        let mut b = Frame::new(FrameFormat::Yuv420, 16, 12);
        if let Frame::Yuv420(yuv) = &mut b {
            yuv.y = random_gray(16, 12, 9);
        }
        let mut s = CycledFrames::new(vec![a.clone(), b.clone()], 5);
        assert_eq!(s.dims(), (16, 12));
        assert_eq!(s.format(), FrameFormat::Yuv420);
        let packets: Vec<_> = std::iter::from_fn(|| s.next_frame()).collect();
        assert_eq!(packets.len(), 5);
        assert_eq!(packets[0].frame, a);
        assert_eq!(packets[1].frame, b);
        assert_eq!(packets[2].frame, a);
        assert_eq!(packets[4].seq, 4);
        assert!(s.next_frame().is_none());
    }

    #[test]
    #[should_panic(expected = "share format and dimensions")]
    fn cycled_frames_checks_format() {
        let _ = CycledFrames::new(
            vec![
                Frame::new(FrameFormat::Yuv420, 16, 12),
                Frame::new(FrameFormat::Rgb8, 16, 12),
            ],
            2,
        );
    }

    #[test]
    fn shift_video_total_respected() {
        let mut v = ShiftVideo::new(random_gray(8, 8, 4), 1, 3);
        assert!(v.next_frame().is_some());
        assert!(v.next_frame().is_some());
        assert!(v.next_frame().is_some());
        assert!(v.next_frame().is_none());
    }
}
