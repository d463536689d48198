//! # fisheye-bench — experiment harness
//!
//! Regenerates every table and figure of the evaluation (see
//! DESIGN.md §3 for the experiment index). Each experiment lives in
//! [`experiments`] as a function returning a [`table::Table`]; the
//! `repro` binary prints one (`repro <slug>`), the smoke set
//! (`repro smoke`) or the whole evaluation (`repro all`), and exits
//! non-zero when a table's [gate](table::Gate) fails. Micro-benchmarks for the underlying kernels are under
//! `benches/`, running on the in-tree [`timing`] harness (warmup +
//! median-of-N batches), so `cargo bench` works fully offline.
//!
//! Two measurement regimes coexist deliberately:
//!
//! * **Measured** — wall-clock timings of the real Rust kernels on
//!   this host (single-core measurements are meaningful anywhere;
//!   multi-thread measurements only show real speedup on multi-core
//!   hosts).
//! * **Modeled** — platform models ([`smp_model`], `cellsim`,
//!   `gpusim`, `streamsim`) that reproduce the *shapes* of the paper's
//!   hardware results from first-principles cost accounting, since the
//!   2010 hardware is unavailable (DESIGN.md §6).
//!
//! Every table says which regime each column comes from.

pub mod experiments;
pub mod smp_model;
pub mod table;
pub mod timing;
pub mod workloads;

/// Experiment scale: `Quick` keeps every experiment in seconds on a
/// laptop core; `Full` (`repro --full`) uses the paper-scale
/// resolutions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Reduced resolutions, fewer repetitions.
    Quick,
    /// Paper-scale resolutions (slower).
    Full,
}
