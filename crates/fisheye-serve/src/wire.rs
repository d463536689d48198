//! The wire protocol: a zero-dependency, length-prefixed binary
//! framing for frame submit/receive over `std::net`.
//!
//! Everything on this path faces bytes from the network, so the
//! hardening bar is the zenbitmaps one: **panic-free, checked
//! arithmetic, zero-copy decode**. The decoder never indexes past a
//! bound, never allocates for payload bytes (plane data and the
//! backend string are borrowed straight out of the receive buffer),
//! and answers every malformed, truncated or oversized input with a
//! typed [`WireError`] — a hostile peer can cost a server one closed
//! connection, never a shard.
//!
//! # Frame layout
//!
//! Every message travels as one length-prefixed frame, all integers
//! little-endian:
//!
//! ```text
//! +----------------+-----------+------------------+
//! | body_len: u32  | tag: u8   | payload…         |
//! +----------------+-----------+------------------+
//! ```
//!
//! `body_len` counts the tag plus payload and is capped at
//! [`MAX_BODY_BYTES`]; a larger prefix is rejected before any
//! allocation happens. [`decode_frame`] is incremental: with fewer
//! than `4 + body_len` bytes buffered it returns `Ok(None)` ("read
//! more"), so a streaming reader needs no framing logic of its own.
//!
//! | tag | message        | direction        | payload |
//! |-----|----------------|------------------|---------|
//! | 1   | [`Message::Hello`]       | both   | `version:u16 session:u64` |
//! | 2   | [`Message::Connect`]     | c → s  | lens, view, source, format, interp, deadline, backend |
//! | 3   | [`Message::SubmitFrame`] | c → s  | `seq:u64` + frame payload |
//! | 4   | [`Message::FrameDone`]   | s → c  | `seq:u64 latency_us:u32 missed:u8 level:u8` + frame payload |
//! | 5   | [`Message::SetView`]     | c → s  | view |
//! | 6   | [`Message::Shed`]        | s → c  | `seq:u64 reason:u8` |
//! | 7   | [`Message::Goodbye`]     | both   | empty |
//!
//! A frame payload is `format:u8 width:u32 height:u32 count:u8`
//! followed by `count` planes of `len:u32 bytes…`; every plane length
//! must equal the exact size its format and dimensions imply (chroma
//! planes of 4:2:0 at `ceil(dim/2)`), so a decoded payload can be
//! trusted structurally without a second validation pass.
//!
//! Handshake: the client sends `Hello` then `Connect`; the server
//! answers one `Hello` whose `session` field carries the assigned
//! session id, or `Shed { seq: 0, reason: Rejected }` followed by
//! `Goodbye` when admission fails. `f64` fields travel as raw IEEE
//! bits (exact round-trip) and must decode to finite values.

// This module is wire-facing, long-running server code: an explicit
// panic here is a denial-of-service primitive, so the panicking
// escape hatches are denied outright (the fuzz harness in
// tests/wire_props.rs enforces the same property dynamically).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use fisheye_core::frame::{Frame, FrameFormat};
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, LensModel, PerspectiveView};
use pixmap::{Gray8, Image};

use crate::server::DegradeLevel;

/// Protocol version spoken by this build.
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on one frame's body (tag + payload). Large enough for an
/// 8-bit 4K RGB frame with headroom, small enough that a hostile
/// length prefix cannot drive an allocation spree.
pub const MAX_BODY_BYTES: usize = 1 << 26;

/// Most planes any wire format carries.
pub const MAX_PLANES: usize = 3;

/// Typed decode/encode failure. Every variant is a protocol-level
/// verdict: the connection that produced it should be closed, but
/// nothing about the process state is suspect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_BODY_BYTES`].
    Oversized {
        /// Claimed body length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// The message tag is not one this protocol version knows.
    UnknownTag(u8),
    /// The body's structure contradicts itself (truncated field,
    /// trailing bytes, plane length mismatch, …).
    Malformed(&'static str),
    /// A field decoded but holds a value outside its domain
    /// (non-finite float, unknown enum code, zero dimension, …).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "wire frame body of {len} bytes exceeds the {max}-byte cap"
                )
            }
            WireError::UnknownTag(t) => write!(f, "unknown wire message tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed wire frame: {what}"),
            WireError::BadValue(what) => write!(f, "bad wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why the server shed work, carried by [`Message::Shed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue was full and the newest frame was refused.
    QueueRefused,
    /// The queue was full and this (oldest) frame was replaced.
    ReplacedOldest,
    /// Admission failed: the server is at capacity.
    Rejected,
    /// The server is shutting down; the frame was not corrected.
    Shutdown,
    /// The peer violated the protocol; the connection closes.
    Protocol,
    /// An internal error failed the frame (never the shard).
    Internal,
}

impl ShedReason {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            ShedReason::QueueRefused => 0,
            ShedReason::ReplacedOldest => 1,
            ShedReason::Rejected => 2,
            ShedReason::Shutdown => 3,
            ShedReason::Protocol => 4,
            ShedReason::Internal => 5,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Result<ShedReason, WireError> {
        match code {
            0 => Ok(ShedReason::QueueRefused),
            1 => Ok(ShedReason::ReplacedOldest),
            2 => Ok(ShedReason::Rejected),
            3 => Ok(ShedReason::Shutdown),
            4 => Ok(ShedReason::Protocol),
            5 => Ok(ShedReason::Internal),
            _ => Err(WireError::BadValue("unknown shed reason")),
        }
    }

    /// Short name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueRefused => "queue_refused",
            ShedReason::ReplacedOldest => "replaced_oldest",
            ShedReason::Rejected => "rejected",
            ShedReason::Shutdown => "shutdown",
            ShedReason::Protocol => "protocol",
            ShedReason::Internal => "internal",
        }
    }
}

/// Everything a [`Message::Connect`] must say for the server to build
/// a [`SessionConfig`](crate::SessionConfig): optics, view, source
/// geometry and execution knobs. The backend travels as its registry
/// name (`serial`, `smp:dynamic:4`, `fixed:12`, …) and is parsed —
/// not trusted — on the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionDesc<'a> {
    /// The camera's lens (f64 fields travel as raw bits).
    pub lens: FisheyeLens,
    /// The view to render.
    pub view: PerspectiveView,
    /// Source frame dimensions (full-res/luma).
    pub source: (u32, u32),
    /// Frame format the session submits and receives.
    pub format: FrameFormat,
    /// Full-quality interpolation kernel.
    pub interp: Interpolator,
    /// Per-frame deadline in µs; 0 means the server default.
    pub deadline_us: u32,
    /// Backend spec by registry name, borrowed from the buffer.
    pub backend: &'a str,
}

/// One frame's pixel payload on the wire: format, full-res dims, and
/// per-plane byte slices **borrowed from the receive buffer** (the
/// zero-copy half of the hardening bar — decoding a 3 MB frame moves
/// no pixel bytes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FramePayload<'a> {
    format: FrameFormat,
    width: u32,
    height: u32,
    planes: [&'a [u8]; MAX_PLANES],
}

/// The plane dimensions `format` implies at full-res `w`×`h`; unused
/// slots are `(0, 0)`.
pub fn wire_plane_dims(format: FrameFormat, w: u32, h: u32) -> [(u32, u32); MAX_PLANES] {
    let c = (w.div_ceil(2), h.div_ceil(2));
    match format {
        FrameFormat::Gray8 => [(w, h), (0, 0), (0, 0)],
        FrameFormat::Yuv420 => [(w, h), c, c],
        FrameFormat::Rgb8 => [(w, h), (w, h), (w, h)],
    }
}

/// Exact byte length of a `w`×`h` 8-bit plane, or an error when the
/// product overflows (checked arithmetic: a hostile dimension pair
/// must not wrap into a small "valid" length).
fn plane_len(w: u32, h: u32) -> Result<usize, WireError> {
    (w as usize)
        .checked_mul(h as usize)
        .ok_or(WireError::BadValue("plane dimensions overflow"))
}

impl<'a> FramePayload<'a> {
    /// Build a payload, validating that `planes` matches what
    /// `format` at `width`×`height` requires — count and exact byte
    /// length per plane.
    pub fn new(
        format: FrameFormat,
        width: u32,
        height: u32,
        planes: &[&'a [u8]],
    ) -> Result<FramePayload<'a>, WireError> {
        if width == 0 || height == 0 {
            return Err(WireError::BadValue("frame dimensions must be positive"));
        }
        if planes.len() != format.planes() {
            return Err(WireError::BadValue("plane count does not match format"));
        }
        let dims = wire_plane_dims(format, width, height);
        let mut stored: [&'a [u8]; MAX_PLANES] = [&[]; MAX_PLANES];
        for ((slot, plane), (pw, ph)) in stored.iter_mut().zip(planes).zip(dims) {
            if plane.len() != plane_len(pw, ph)? {
                return Err(WireError::BadValue("plane byte length does not match dims"));
            }
            *slot = plane;
        }
        Ok(FramePayload {
            format,
            width,
            height,
            planes: stored,
        })
    }

    /// The payload's frame format.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// Full-resolution dimensions.
    pub fn dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// The plane byte slices, one per plane in plane order.
    pub fn planes(&self) -> &[&'a [u8]] {
        self.planes.get(..self.format.planes()).unwrap_or(&[])
    }

    /// Materialize the payload as an owned [`Frame`] — the one copy a
    /// received frame costs, made only once the bytes are validated.
    pub fn to_frame(&self) -> Frame {
        let dims = wire_plane_dims(self.format, self.width, self.height);
        let mut images = self
            .planes()
            .iter()
            .zip(dims)
            .map(|(bytes, (w, h))| image_from_bytes(w, h, bytes));
        let first = images.next().unwrap_or_else(|| Image::new(1, 1));
        match self.format {
            FrameFormat::Yuv420 => {
                let cb = images.next().unwrap_or_else(|| Image::new(1, 1));
                let cr = images.next().unwrap_or_else(|| Image::new(1, 1));
                Frame::Yuv420(pixmap::yuv::Yuv420 { y: first, cb, cr })
            }
            FrameFormat::Rgb8 => {
                let g = images.next().unwrap_or_else(|| Image::new(1, 1));
                let b = images.next().unwrap_or_else(|| Image::new(1, 1));
                Frame::Rgb8 { r: first, g, b }
            }
            _ => Frame::Gray8(first),
        }
    }
}

/// A validated byte plane lifted into an image (lengths are equal by
/// construction — `FramePayload::new` and the decoder both check).
fn image_from_bytes(w: u32, h: u32, bytes: &[u8]) -> Image<Gray8> {
    Image::from_vec(w, h, bytes.iter().map(|&b| Gray8(b)).collect())
}

/// One protocol message. Payload bytes and strings borrow from the
/// buffer they were decoded from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Message<'a> {
    /// Handshake. Client → server: `session` is 0. Server → client:
    /// `session` is the assigned session id (the connect accept).
    Hello {
        /// Protocol version of the sender.
        version: u16,
        /// Session id (0 until the server assigns one).
        session: u64,
    },
    /// Open a session (client → server).
    Connect(SessionDesc<'a>),
    /// Submit one frame for correction (client → server).
    SubmitFrame {
        /// Client-chosen sequence number, echoed on completion.
        seq: u64,
        /// The frame's pixels.
        frame: FramePayload<'a>,
    },
    /// A corrected frame (server → client).
    FrameDone {
        /// Echo of the submitted sequence number.
        seq: u64,
        /// Submit → corrected latency in µs (saturated).
        latency_us: u32,
        /// Whether the frame missed its deadline.
        missed: bool,
        /// Ladder level the frame was served at.
        level: DegradeLevel,
        /// The corrected pixels.
        frame: FramePayload<'a>,
    },
    /// Repoint the session (client → server).
    SetView(PerspectiveView),
    /// Work was shed (server → client).
    Shed {
        /// Sequence number of the shed frame (0 when not per-frame).
        seq: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// Orderly close (either direction).
    Goodbye,
}

const TAG_HELLO: u8 = 1;
const TAG_CONNECT: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_DONE: u8 = 4;
const TAG_SET_VIEW: u8 = 5;
const TAG_SHED: u8 = 6;
const TAG_GOODBYE: u8 = 7;

/// Wire code for a frame format.
fn wire_format_code(format: FrameFormat) -> u8 {
    match format {
        FrameFormat::Gray8 => 0,
        FrameFormat::Yuv420 => 1,
        FrameFormat::Rgb8 => 2,
    }
}

fn wire_format_from(code: u8) -> Result<FrameFormat, WireError> {
    match code {
        0 => Ok(FrameFormat::Gray8),
        1 => Ok(FrameFormat::Yuv420),
        2 => Ok(FrameFormat::Rgb8),
        _ => Err(WireError::BadValue("unknown frame format code")),
    }
}

fn interp_code(interp: Interpolator) -> u8 {
    match interp {
        Interpolator::Nearest => 0,
        Interpolator::Bilinear => 1,
        Interpolator::Bicubic => 2,
    }
}

fn interp_from(code: u8) -> Result<Interpolator, WireError> {
    match code {
        0 => Ok(Interpolator::Nearest),
        1 => Ok(Interpolator::Bilinear),
        2 => Ok(Interpolator::Bicubic),
        _ => Err(WireError::BadValue("unknown interpolator code")),
    }
}

fn model_code(model: LensModel) -> u8 {
    LensModel::ALL.iter().position(|m| *m == model).unwrap_or(0) as u8
}

fn model_from(code: u8) -> Result<LensModel, WireError> {
    LensModel::ALL
        .get(code as usize)
        .copied()
        .ok_or(WireError::BadValue("unknown lens model code"))
}

fn level_from(code: u8) -> Result<DegradeLevel, WireError> {
    DegradeLevel::LADDER
        .get(code as usize)
        .copied()
        .ok_or(WireError::BadValue("unknown degrade level code"))
}

// ---------------------------------------------------------------- encode

/// Append little-endian scalar writers. All infallible: a `Vec` grows.
fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_view(out: &mut Vec<u8>, view: &PerspectiveView) {
    put_f64(out, view.pan);
    put_f64(out, view.tilt);
    put_f64(out, view.roll);
    put_f64(out, view.h_fov);
    put_u32(out, view.width);
    put_u32(out, view.height);
}

/// Write the frame-payload head; plane bytes follow separately so
/// image-backed encoders can stream pixels without a staging buffer.
fn put_payload_head(out: &mut Vec<u8>, format: FrameFormat, width: u32, height: u32) {
    put_u8(out, wire_format_code(format));
    put_u32(out, width);
    put_u32(out, height);
    put_u8(out, format.planes() as u8);
}

fn put_payload(out: &mut Vec<u8>, frame: &FramePayload<'_>) -> Result<(), WireError> {
    put_payload_head(out, frame.format, frame.width, frame.height);
    for plane in frame.planes() {
        let len = u32::try_from(plane.len()).map_err(|_| WireError::Oversized {
            len: plane.len(),
            max: MAX_BODY_BYTES,
        })?;
        put_u32(out, len);
        out.extend_from_slice(plane);
    }
    Ok(())
}

/// Begin a frame: reserve the length prefix, returning its offset.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    start
}

/// Finish a frame: patch the length prefix, or roll the buffer back
/// and report oversize.
fn end_frame(out: &mut Vec<u8>, start: usize) -> Result<(), WireError> {
    let body_len = out.len().saturating_sub(start).saturating_sub(4);
    if body_len > MAX_BODY_BYTES {
        out.truncate(start);
        return Err(WireError::Oversized {
            len: body_len,
            max: MAX_BODY_BYTES,
        });
    }
    let prefix = (body_len as u32).to_le_bytes();
    if let Some(slot) = out.get_mut(start..start.saturating_add(4)) {
        slot.copy_from_slice(&prefix);
    }
    Ok(())
}

impl Message<'_> {
    /// Append this message as one length-prefixed frame. The buffer
    /// is unchanged on error.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = begin_frame(out);
        let body = (|| -> Result<(), WireError> {
            match self {
                Message::Hello { version, session } => {
                    put_u8(out, TAG_HELLO);
                    put_u16(out, *version);
                    put_u64(out, *session);
                }
                Message::Connect(desc) => {
                    put_u8(out, TAG_CONNECT);
                    put_u8(out, model_code(desc.lens.model));
                    put_f64(out, desc.lens.focal_px);
                    put_f64(out, desc.lens.cx);
                    put_f64(out, desc.lens.cy);
                    put_f64(out, desc.lens.max_theta);
                    put_view(out, &desc.view);
                    put_u32(out, desc.source.0);
                    put_u32(out, desc.source.1);
                    put_u8(out, wire_format_code(desc.format));
                    put_u8(out, interp_code(desc.interp));
                    put_u32(out, desc.deadline_us);
                    let backend = desc.backend.as_bytes();
                    let len = u16::try_from(backend.len())
                        .map_err(|_| WireError::BadValue("backend name too long"))?;
                    put_u16(out, len);
                    out.extend_from_slice(backend);
                }
                Message::SubmitFrame { seq, frame } => {
                    put_u8(out, TAG_SUBMIT);
                    put_u64(out, *seq);
                    put_payload(out, frame)?;
                }
                Message::FrameDone {
                    seq,
                    latency_us,
                    missed,
                    level,
                    frame,
                } => {
                    put_u8(out, TAG_DONE);
                    put_u64(out, *seq);
                    put_u32(out, *latency_us);
                    put_u8(out, u8::from(*missed));
                    put_u8(out, level.index() as u8);
                    put_payload(out, frame)?;
                }
                Message::SetView(view) => {
                    put_u8(out, TAG_SET_VIEW);
                    put_view(out, view);
                }
                Message::Shed { seq, reason } => {
                    put_u8(out, TAG_SHED);
                    put_u64(out, *seq);
                    put_u8(out, reason.code());
                }
                Message::Goodbye => {
                    put_u8(out, TAG_GOODBYE);
                }
            }
            Ok(())
        })();
        match body {
            Ok(()) => end_frame(out, start),
            Err(e) => {
                out.truncate(start);
                Err(e)
            }
        }
    }
}

/// Encode a `SubmitFrame` directly from a [`Frame`]'s images — the
/// client hot path. Pixel bytes stream straight from the planes into
/// `out` (one pass, no staging payload).
pub fn encode_submit(seq: u64, frame: &Frame, out: &mut Vec<u8>) -> Result<(), WireError> {
    let (w, h) = frame.dims();
    let start = begin_frame(out);
    let body = (|| -> Result<(), WireError> {
        put_u8(out, TAG_SUBMIT);
        put_u64(out, seq);
        put_payload_head(out, frame.format(), w, h);
        match frame {
            Frame::Gray8(img) => put_plane_pixels(out, img)?,
            Frame::Yuv420(yuv) => {
                put_plane_pixels(out, &yuv.y)?;
                put_plane_pixels(out, &yuv.cb)?;
                put_plane_pixels(out, &yuv.cr)?;
            }
            Frame::Rgb8 { r, g, b } => {
                put_plane_pixels(out, r)?;
                put_plane_pixels(out, g)?;
                put_plane_pixels(out, b)?;
            }
        }
        Ok(())
    })();
    match body {
        Ok(()) => end_frame(out, start),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Encode a `FrameDone` directly from corrected plane images — the
/// server hot path (pooled output buffers are not a contiguous
/// `Frame`, so this takes the planes as slices of images).
pub fn encode_frame_done(
    seq: u64,
    latency_us: u32,
    missed: bool,
    level: DegradeLevel,
    format: FrameFormat,
    planes: &[&Image<Gray8>],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let (w, h) = planes
        .first()
        .map(|p| p.dims())
        .ok_or(WireError::BadValue("frame has no planes"))?;
    if planes.len() != format.planes() {
        return Err(WireError::BadValue("plane count does not match format"));
    }
    let start = begin_frame(out);
    let body = (|| -> Result<(), WireError> {
        put_u8(out, TAG_DONE);
        put_u64(out, seq);
        put_u32(out, latency_us);
        put_u8(out, u8::from(missed));
        put_u8(out, level.index() as u8);
        put_payload_head(out, format, w, h);
        for plane in planes {
            put_plane_pixels(out, plane)?;
        }
        Ok(())
    })();
    match body {
        Ok(()) => end_frame(out, start),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

fn put_plane_pixels(out: &mut Vec<u8>, plane: &Image<Gray8>) -> Result<(), WireError> {
    let len = u32::try_from(plane.len()).map_err(|_| WireError::Oversized {
        len: plane.len(),
        max: MAX_BODY_BYTES,
    })?;
    put_u32(out, len);
    out.extend(plane.pixels().iter().map(|p| p.0));
    Ok(())
}

// ---------------------------------------------------------------- decode

/// A bounds-checked reading head over a frame body. Every accessor
/// either yields a value or a typed error — there is no panicking
/// path through this struct.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("field runs past the frame body"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        match self.take(1)? {
            [b] => Ok(*b),
            _ => Err(WireError::Malformed("u8 field")),
        }
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let bytes =
            <[u8; 2]>::try_from(self.take(2)?).map_err(|_| WireError::Malformed("u16 field"))?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes =
            <[u8; 4]>::try_from(self.take(4)?).map_err(|_| WireError::Malformed("u32 field"))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes =
            <[u8; 8]>::try_from(self.take(8)?).map_err(|_| WireError::Malformed("u64 field"))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A finite f64 from raw IEEE bits: NaN or ±∞ in a geometry field
    /// would poison every downstream computation, so they are wire
    /// errors, not values.
    fn f64(&mut self) -> Result<f64, WireError> {
        let v = f64::from_bits(self.u64()?);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(WireError::BadValue("non-finite f64 field"))
        }
    }

    fn view(&mut self) -> Result<PerspectiveView, WireError> {
        let pan = self.f64()?;
        let tilt = self.f64()?;
        let roll = self.f64()?;
        let h_fov = self.f64()?;
        let width = self.u32()?;
        let height = self.u32()?;
        if width == 0 || height == 0 {
            return Err(WireError::BadValue("view dimensions must be positive"));
        }
        if h_fov <= 0.0 || h_fov >= std::f64::consts::PI {
            return Err(WireError::BadValue("view h_fov out of (0, pi)"));
        }
        Ok(PerspectiveView {
            pan,
            tilt,
            roll,
            h_fov,
            width,
            height,
        })
    }

    fn payload(&mut self) -> Result<FramePayload<'a>, WireError> {
        let format = wire_format_from(self.u8()?)?;
        let width = self.u32()?;
        let height = self.u32()?;
        if width == 0 || height == 0 {
            return Err(WireError::BadValue("frame dimensions must be positive"));
        }
        let count = self.u8()? as usize;
        if count != format.planes() {
            return Err(WireError::Malformed("plane count does not match format"));
        }
        let dims = wire_plane_dims(format, width, height);
        let mut planes: [&'a [u8]; MAX_PLANES] = [&[]; MAX_PLANES];
        for (slot, (pw, ph)) in planes.iter_mut().zip(dims).take(count) {
            let declared = self.u32()? as usize;
            if declared != plane_len(pw, ph)? {
                return Err(WireError::Malformed(
                    "plane byte length does not match dims",
                ));
            }
            *slot = self.take(declared)?;
        }
        Ok(FramePayload {
            format,
            width,
            height,
            planes,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the message"))
        }
    }
}

/// Decode one message frame from the front of `buf`.
///
/// * `Ok(Some((msg, consumed)))` — a complete frame; advance the
///   buffer by `consumed`.
/// * `Ok(None)` — the frame is not complete yet; read more bytes.
/// * `Err(_)` — the peer violated the protocol; close the connection.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Message<'_>, usize)>, WireError> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let body_len = <[u8; 4]>::try_from(prefix)
        .map(u32::from_le_bytes)
        .map_err(|_| WireError::Malformed("length prefix"))? as usize;
    if body_len > MAX_BODY_BYTES {
        return Err(WireError::Oversized {
            len: body_len,
            max: MAX_BODY_BYTES,
        });
    }
    if body_len == 0 {
        return Err(WireError::Malformed("empty frame body"));
    }
    let total = body_len
        .checked_add(4)
        .ok_or(WireError::Malformed("length prefix overflows"))?;
    let Some(body) = buf.get(4..total) else {
        return Ok(None);
    };
    let mut c = Cursor { buf: body };
    let tag = c.u8()?;
    let msg = match tag {
        TAG_HELLO => Message::Hello {
            version: c.u16()?,
            session: c.u64()?,
        },
        TAG_CONNECT => {
            let model = model_from(c.u8()?)?;
            let focal_px = c.f64()?;
            let cx = c.f64()?;
            let cy = c.f64()?;
            let max_theta = c.f64()?;
            if focal_px <= 0.0 {
                return Err(WireError::BadValue("lens focal length must be positive"));
            }
            if max_theta <= 0.0 || max_theta > std::f64::consts::PI {
                return Err(WireError::BadValue("lens max_theta out of (0, pi]"));
            }
            let lens = FisheyeLens {
                model,
                focal_px,
                cx,
                cy,
                max_theta,
            };
            let view = c.view()?;
            let source = (c.u32()?, c.u32()?);
            if source.0 == 0 || source.1 == 0 {
                return Err(WireError::BadValue("source dimensions must be positive"));
            }
            let format = wire_format_from(c.u8()?)?;
            let interp = interp_from(c.u8()?)?;
            let deadline_us = c.u32()?;
            let backend_len = c.u16()? as usize;
            let backend = std::str::from_utf8(c.take(backend_len)?)
                .map_err(|_| WireError::BadValue("backend name is not utf-8"))?;
            Message::Connect(SessionDesc {
                lens,
                view,
                source,
                format,
                interp,
                deadline_us,
                backend,
            })
        }
        TAG_SUBMIT => Message::SubmitFrame {
            seq: c.u64()?,
            frame: c.payload()?,
        },
        TAG_DONE => {
            let seq = c.u64()?;
            let latency_us = c.u32()?;
            let missed = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::BadValue("missed flag out of {0, 1}")),
            };
            let level = level_from(c.u8()?)?;
            Message::FrameDone {
                seq,
                latency_us,
                missed,
                level,
                frame: c.payload()?,
            }
        }
        TAG_SET_VIEW => Message::SetView(c.view()?),
        TAG_SHED => Message::Shed {
            seq: c.u64()?,
            reason: ShedReason::from_code(c.u8()?)?,
        },
        TAG_GOODBYE => Message::Goodbye,
        other => return Err(WireError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(Some((msg, total)))
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

    fn lens() -> FisheyeLens {
        FisheyeLens::equidistant_fov(128, 96, 180.0)
    }

    fn view() -> PerspectiveView {
        PerspectiveView::centered(64, 48, 90.0).look(3.5, -1.25)
    }

    fn desc(backend: &str) -> SessionDesc<'_> {
        SessionDesc {
            lens: lens(),
            view: view(),
            source: (128, 96),
            format: FrameFormat::Gray8,
            interp: Interpolator::Bicubic,
            deadline_us: 16_000,
            backend,
        }
    }

    fn round_trip(msg: &Message<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode_into(&mut buf).expect("encodable");
        let (decoded, consumed) = decode_frame(&buf).expect("valid").expect("complete");
        assert_eq!(consumed, buf.len());
        assert_eq!(&decoded, msg);
        buf
    }

    #[test]
    fn every_message_type_round_trips() {
        round_trip(&Message::Hello {
            version: WIRE_VERSION,
            session: 99,
        });
        round_trip(&Message::Connect(desc("smp:dynamic:4")));
        let y = vec![7u8; 8 * 6];
        let c = vec![3u8; 4 * 3];
        let payload =
            FramePayload::new(FrameFormat::Yuv420, 8, 6, &[&y, &c, &c]).expect("valid payload");
        round_trip(&Message::SubmitFrame {
            seq: 5,
            frame: payload,
        });
        round_trip(&Message::FrameDone {
            seq: 5,
            latency_us: 1234,
            missed: true,
            level: DegradeLevel::InterpDown,
            frame: payload,
        });
        round_trip(&Message::SetView(view()));
        round_trip(&Message::Shed {
            seq: 17,
            reason: ShedReason::ReplacedOldest,
        });
        round_trip(&Message::Goodbye);
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let buf = round_trip(&Message::Connect(desc("serial")));
        for cut in 0..buf.len() {
            let r = decode_frame(buf.get(..cut).unwrap_or(&[]));
            assert_eq!(r, Ok(None), "cut at {cut} must be incomplete, not an error");
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_BODY_BYTES + 1) as u32);
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut buf = Vec::new();
        Message::Goodbye.encode_into(&mut buf).expect("encodable");
        // grow the declared body by one byte of junk
        let last = buf.len();
        buf.push(0xEE);
        let n = (last - 4 + 1) as u32;
        buf.splice(0..4, n.to_le_bytes());
        assert!(matches!(decode_frame(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_tag_is_typed() {
        let buf = [1u8, 0, 0, 0, 0xAB];
        assert_eq!(decode_frame(&buf), Err(WireError::UnknownTag(0xAB)));
    }

    #[test]
    fn non_finite_geometry_is_rejected() {
        let mut d = desc("serial");
        d.lens.focal_px = f64::NAN;
        let mut buf = Vec::new();
        Message::Connect(d)
            .encode_into(&mut buf)
            .expect("encodable");
        assert_eq!(
            decode_frame(&buf),
            Err(WireError::BadValue("non-finite f64 field"))
        );
    }

    #[test]
    fn plane_length_mismatch_is_malformed() {
        let y = vec![0u8; 8 * 6];
        assert_eq!(
            FramePayload::new(FrameFormat::Gray8, 8, 7, &[&y]).unwrap_err(),
            WireError::BadValue("plane byte length does not match dims")
        );
        // and on the wire: corrupt the declared plane length
        let ok = FramePayload::new(FrameFormat::Gray8, 8, 6, &[&y]).expect("valid");
        let mut buf = Vec::new();
        Message::SubmitFrame { seq: 1, frame: ok }
            .encode_into(&mut buf)
            .expect("encodable");
        // plane len field sits right before the pixel bytes
        let pix_at = buf.len() - y.len() - 4;
        buf.splice(pix_at..pix_at + 4, 47u32.to_le_bytes());
        assert!(decode_frame(&buf).is_err());
    }

    #[test]
    fn image_encoders_match_the_message_encoder() {
        let y = Image::from_fn(8, 6, |x, yy| Gray8((x * 7 + yy * 3) as u8));
        let frame = Frame::Gray8(y.clone());
        let mut a = Vec::new();
        encode_submit(42, &frame, &mut a).expect("encodable");
        let bytes: Vec<u8> = y.pixels().iter().map(|p| p.0).collect();
        let payload = FramePayload::new(FrameFormat::Gray8, 8, 6, &[&bytes]).expect("valid");
        let mut b = Vec::new();
        Message::SubmitFrame {
            seq: 42,
            frame: payload,
        }
        .encode_into(&mut b)
        .expect("encodable");
        assert_eq!(a, b);

        let mut d = Vec::new();
        encode_frame_done(
            7,
            900,
            false,
            DegradeLevel::Normal,
            FrameFormat::Gray8,
            &[&y],
            &mut d,
        )
        .expect("encodable");
        let (msg, _) = decode_frame(&d).expect("valid").expect("complete");
        match msg {
            Message::FrameDone { seq, frame, .. } => {
                assert_eq!(seq, 7);
                assert_eq!(frame.to_frame(), Frame::Gray8(y));
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn payload_round_trips_to_frame() {
        let y = vec![9u8; 8 * 6];
        let c = vec![4u8; 4 * 3];
        let p = FramePayload::new(FrameFormat::Yuv420, 8, 6, &[&y, &c, &c]).expect("valid");
        let frame = p.to_frame();
        assert_eq!(frame.format(), FrameFormat::Yuv420);
        let mut buf = Vec::new();
        encode_submit(0, &frame, &mut buf).expect("encodable");
        let (msg, _) = decode_frame(&buf).expect("valid").expect("complete");
        match msg {
            Message::SubmitFrame { frame: p2, .. } => assert_eq!(p2.to_frame(), frame),
            other => panic!("wrong message {other:?}"),
        }
    }
}
