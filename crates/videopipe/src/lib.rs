//! # videopipe — the real-time video pipeline
//!
//! The paper's motivating deployment is continuous video: frames
//! arrive from the camera, are corrected, and are consumed (displayed
//! or encoded) with bounded latency. This crate provides that harness:
//!
//! * [`channel`] — a bounded blocking MPMC queue built from the
//!   `par_runtime::sync` lock wrappers (the back-pressure mechanism
//!   between stages), implemented here rather than imported so its
//!   behaviour under the measurement load is fully known.
//! * [`source`] — synthetic video sources: a cycled set of captured
//!   fisheye frames and a cheap per-frame shift variant for motion.
//! * [`pipeline`] — capture → correct (N workers) → sink, with
//!   per-frame latency and end-to-end throughput measurement
//!   (experiment F10). [`run_frame_pipeline`] is the one pipeline: it
//!   drives any byte-planed
//!   [`FrameFormat`](fisheye_core::frame::FrameFormat) — gray8 as the
//!   one-plane case, YUV 4:2:0, planar RGB — through the same
//!   worker/pool/resequencer machinery with per-plane kernel
//!   accounting.

pub mod channel;
pub mod latency;
pub mod pipeline;
pub mod resequencer;
pub mod source;

pub use channel::BoundedQueue;
pub use latency::LatencyStats;
pub use pipeline::{run_frame_pipeline, PipeConfig, PipeReport};
pub use resequencer::Resequencer;
pub use source::{CycledFrames, FramePacket, FrameSource, ShiftVideo};
