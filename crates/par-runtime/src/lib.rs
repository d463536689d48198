//! # par-runtime — a small OpenMP-style parallel loop runtime
//!
//! The paper's multicore implementation parallelizes the two kernel
//! loops with OpenMP `parallel for` under different scheduling
//! policies. Rust has excellent data-parallel libraries (rayon), but
//! none exposes OpenMP's *scheduling policy* knob — which is precisely
//! what the paper studies — so this crate implements the runtime from
//! scratch:
//!
//! * [`ThreadPool`] — persistent worker threads with a broadcast
//!   primitive (every worker runs the same closure once per parallel
//!   region), built on the [`sync`] lock wrappers over `std::sync`.
//! * [`Schedule`] — `Static`, `Dynamic` and `Guided` loop scheduling
//!   with OpenMP semantics (chunk parameter included).
//! * [`ThreadPool::parallel_for`] — the `#pragma omp parallel for`
//!   equivalent over an index range.
//! * [`ThreadPool::parallel_rows`] — safe parallel mutation of a
//!   row-major buffer, the access pattern of the correction kernel.
//! * [`LoopStats`] — per-worker chunk/iteration counts, used by the
//!   scheduling experiment (F2) to report load imbalance.
//!
//! The implementation contains one `unsafe` block (lifetime erasure of
//! the broadcast closure) and one `unsafe impl Send` (a pointer wrapper
//! for disjoint row writes); both are documented at the definition
//! site with the invariants that make them sound, following the
//! methodology of *Rust Atomics and Locks* (Bos, 2023).

mod pool;
mod schedule;
mod slice;
pub mod sync;

pub use pool::{LoopStats, ThreadPool};
pub use schedule::{ChunkQueue, Schedule};
pub use slice::RowTable;
