//! A shared synthetic camera.
//!
//! Serving simulations need one source feeding many sessions — the
//! whole point of the layer is that N views share one camera. A
//! [`CameraFeed`] generates deterministic frames as `Arc<Frame>` so
//! every session's queue holds the *same* allocation: submitting a
//! frame to eight sessions clones eight `Arc`s, not eight frames.

use std::sync::Arc;

use fisheye_core::frame::{Frame, FrameFormat};
use pixmap::scene::random_gray;
use pixmap::yuv::Yuv420;
use pixmap::{Gray8, Image};

/// Deterministic frame generator: a fixed random base image whose
/// rows rotate one step per frame, cheap enough that the serving loop
/// — not the source — is the bottleneck.
#[derive(Clone, Debug)]
pub struct CameraFeed {
    base: Vec<Gray8>,
    width: u32,
    height: u32,
    t: u32,
}

impl CameraFeed {
    /// A `width`×`height` feed seeded with `seed`.
    pub fn new(width: u32, height: u32, seed: u64) -> CameraFeed {
        CameraFeed {
            base: random_gray(width, height, seed).pixels().to_vec(),
            width,
            height,
            t: 0,
        }
    }

    /// Frame dimensions `(w, h)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// The next frame in `format`, shared-ownership so many sessions
    /// can queue it without copying pixels. The luma/first plane is
    /// the rotating base; extra planes are deterministic
    /// phase-shifted derivations of it, so chroma is non-neutral
    /// (corrections that drop or misplace a chroma plane show up as
    /// pixel diffs, not as silently-gray output).
    pub fn next_frame_in(&mut self, format: FrameFormat) -> Arc<Frame> {
        let y = self.rotated();
        let frame = match format {
            FrameFormat::Gray8 => Frame::Gray8(y),
            FrameFormat::Yuv420 => {
                let (cw, ch) = (self.width.div_ceil(2), self.height.div_ceil(2));
                Frame::Yuv420(Yuv420 {
                    cb: self.derived_plane(cw, ch, 17),
                    cr: self.derived_plane(cw, ch, 71),
                    y,
                })
            }
            FrameFormat::Rgb8 => Frame::Rgb8 {
                r: y.clone(),
                g: self.derived_plane(self.width, self.height, 29),
                b: self.derived_plane(self.width, self.height, 131),
            },
        };
        Arc::new(frame)
    }

    /// The rotating base plane; advances the feed's clock.
    fn rotated(&mut self) -> Image<Gray8> {
        let row = (self.t % self.height.max(1)) as usize * self.width as usize;
        self.t = self.t.wrapping_add(1);
        let mut data = Vec::with_capacity(self.base.len());
        data.extend_from_slice(&self.base[row..]);
        data.extend_from_slice(&self.base[..row]);
        Image::from_vec(self.width, self.height, data)
    }

    /// A `w`×`h` plane sampled out of the base at a phase offset, so
    /// each plane differs from the others but stays deterministic.
    fn derived_plane(&self, w: u32, h: u32, phase: usize) -> Image<Gray8> {
        let n = self.base.len();
        let t = self.t as usize;
        Image::from_fn(w, h, |x, y| {
            let i = (y as usize * self.width as usize + x as usize) * 2 + phase + t;
            self.base[i % n]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_frames_are_deterministic_with_live_chroma() {
        let mut a = CameraFeed::new(32, 24, 7);
        let mut b = CameraFeed::new(32, 24, 7);
        let fa = a.next_frame_in(FrameFormat::Yuv420);
        let fb = b.next_frame_in(FrameFormat::Yuv420);
        assert_eq!(*fa, *fb, "same seed, same frames");
        assert_eq!(fa.format(), FrameFormat::Yuv420);
        assert_eq!(fa.dims(), (32, 24));
        let Frame::Yuv420(yuv) = fa.as_ref() else {
            panic!("yuv requested");
        };
        assert_eq!(yuv.cb.dims(), (16, 12));
        let cb = yuv.cb.pixels();
        assert!(cb.iter().any(|p| *p != cb[0]), "chroma must be non-neutral");
        assert_ne!(yuv.cb, yuv.cr, "chroma planes differ");
        let f2 = a.next_frame_in(FrameFormat::Yuv420);
        assert_ne!(*fa, *f2, "frames advance");
        let rgb = a.next_frame_in(FrameFormat::Rgb8);
        assert_eq!(rgb.format(), FrameFormat::Rgb8);
        assert_eq!(rgb.dims(), (32, 24));
    }

    #[test]
    fn frames_are_deterministic_and_rotate() {
        let mut a = CameraFeed::new(32, 24, 7);
        let mut b = CameraFeed::new(32, 24, 7);
        let f0a = a.next_frame_in(FrameFormat::Gray8);
        let f0b = b.next_frame_in(FrameFormat::Gray8);
        assert_eq!(*f0a, *f0b, "same seed, same frames");
        let f1a = a.next_frame_in(FrameFormat::Gray8);
        assert_ne!(*f0a, *f1a, "frames advance");
        assert_eq!(f1a.dims(), (32, 24));
    }
}
