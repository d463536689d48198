//! Multi-session serving layer for fisheye correction.
//!
//! Everything below this crate corrects one frame for one consumer.
//! Real deployments — the security console the paper's introduction
//! motivates — serve *N concurrent view-sessions* from shared camera
//! sources, and three things change qualitatively at that boundary:
//!
//! * **Plan compilation amortizes across tenants, not frames.** A
//!   [`PlanCache`] keyed by the pre-compile request digest makes a
//!   view change a lookup whenever *any* session already compiled
//!   that view; identical views share one `Arc<RemapPlan>`.
//! * **Capacity is a budget, not a hope.** A [`Server`] admits
//!   sessions up to a fixed cap and rejects beyond it with an
//!   explicit [`fisheye::Error::Rejected`] — no unbounded queue
//!   anywhere in the layer.
//! * **Overload degrades, it doesn't collapse.** Sustained deadline
//!   misses walk a [`DegradeLevel`] ladder — drop-oldest, then
//!   interpolation downgrade, then shedding per-session color
//!   grading, then resolution halving — and walk back down when load
//!   subsides.
//!
//! The [`Registry`] is the single observability sink: admissions,
//! rejections, drops, deadline misses, ladder transitions, cache and
//! pool counters, plus every engine [`FrameReport`], all in one text
//! [snapshot](Registry::snapshot).
//!
//! Every frame is a [`Frame`](fisheye_core::frame::Frame): a gray8
//! session runs the same one-plane path a yuv420 session runs with
//! three planes.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use fisheye_core::frame::FrameFormat;
//! use fisheye_serve::{CameraFeed, Server, ServerConfig, SessionConfig};
//! use fisheye_geom::{FisheyeLens, PerspectiveView};
//!
//! let server = Server::new(ServerConfig {
//!     capacity: 2,
//!     ..ServerConfig::default()
//! })?;
//! let lens = FisheyeLens::equidistant_fov(128, 96, 180.0);
//! let view = PerspectiveView::centered(64, 48, 90.0);
//! let cfg = SessionConfig::new(lens, view, (128, 96));
//!
//! let mut a = server.connect(cfg.clone())?;
//! let mut b = server.connect(cfg.clone())?; // same view: plan cache hit
//! assert!(server.connect(cfg).is_err()); // over capacity: rejected
//!
//! let mut camera = CameraFeed::new(128, 96, 1);
//! let frame = camera.next_frame_in(FrameFormat::Gray8);
//! a.submit_frame(Arc::clone(&frame));
//! b.submit_frame(frame);
//! let corrected = a.pump_one()?.expect("one frame pending");
//! assert_eq!(corrected.frame.dims(), (64, 48));
//! assert_eq!(corrected.frame.planes().len(), 1); // gray8: one plane
//! assert_eq!(server.cache().stats().misses, 1);
//! # Ok::<(), fisheye::Error>(())
//! ```
//!
//! [`FrameReport`]: fisheye_core::engine::FrameReport

pub mod cache;
pub mod client;
pub mod feed;
pub mod metrics;
mod readiness;
pub mod server;
pub mod shard;
pub mod wire;

pub use cache::{CacheStats, PlanCache};
pub use client::{Client, ClientEvent};
pub use feed::CameraFeed;
pub use metrics::{Histogram, Registry};
pub use server::{
    pump_round, AdmissionBudget, DegradeConfig, DegradeLevel, FrameOutcome, ServedFrame, Server,
    ServerConfig, Session, SessionConfig, SubmitOutcome, Workload,
};
pub use shard::{NetServer, NetServerConfig};
pub use wire::{Message, SessionDesc, ShedReason, WireError};
