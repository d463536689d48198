//! The correction-engine layer: one interface over every execution
//! path.
//!
//! The paper's central move is running *one* undistortion kernel on
//! several platforms (serial host, SMP, Cell SPEs, GPU) and comparing
//! them. This module gives the repo the same shape: an [`EngineSpec`]
//! names an execution path, a [`CorrectionEngine`] runs frames through
//! it, and every run returns a [`FrameReport`] — a uniform
//! observability payload (phase timing, rows/tiles processed, invalid
//! pixels, and backend-specific model statistics folded into one
//! key/value section) that the facade `Corrector`, the videopipe
//! latency accounting, the serve metrics and the bench CSV emission
//! all consume.
//!
//! Engines correct byte planes: every frame format carries 8-bit
//! planes, so a [`CorrectionEngine`] takes an `Image<Gray8>` in and
//! writes one out. The golden references (`correct`, `correct_plan`,
//! `correct_fixed`) and the `interp` samplers stay generic over the
//! pixel type.
//!
//! Host paths (`serial`, `smp`, `direct`, `fixed`, `simd`) are
//! implemented here, by [`execute_host_post`]: each plan-based spec
//! picks its datapath's span kernel (`crate::plan`) and one row driver
//! runs the plan's valid-span walk with it, the same kernels and driver
//! the composite executor runs its segment walk with. The accelerator
//! models (`cell` in `cellsim`, `gpu` in `gpusim`) and the SIMT
//! interpreter (`simt` in `fisheye-codegen`) implement
//! [`CorrectionEngine`] in their own crates, and the `fisheye` facade
//! crate's `Corrector` resolves *any* spec to a boxed engine. Adding
//! the next backend means implementing the trait in one file and
//! registering its spec — no consumer changes.
//!
//! The `simd` and `fixed` span kernels split every x-range at the
//! plan's interior runs ([`RemapPlan::interior_runs`]): interior runs
//! go to the 8-lane gather and the unclamped Q-format loop, whose taps
//! are read with no range check and no clamp, and border runs to the
//! clamping scalar samplers.

// Every served frame runs this module's dispatch; a panic here takes
// streams down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, Image, Pixel};

use crate::interp::Interpolator;
use crate::plan::{span_row, with_sampler, Fixed, Float, Lanes, RemapPlan};
use crate::post::PostPlan;
use crate::simd;

/// Default fractional weight bits for the quantized (fixed-point)
/// paths — the accuracy knee of experiment F7.
pub const DEFAULT_FRAC_BITS: u32 = 12;
/// Default Cell tile size (the F4 sweet spot for the default config).
pub const DEFAULT_TILE: (u32, u32) = (32, 16);
/// Default GPU threads per block.
pub const DEFAULT_GPU_BLOCK: usize = 256;
/// Default SIMT interpreter workgroup size (threads per workgroup;
/// 32-lane warps, so 256 threads = a 32x8 output tile — the same
/// geometry `gpusim` models with its default block).
pub const DEFAULT_SIMT_WG: usize = 256;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why an engine could not be built or could not run a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The (spec, context) combination has no implementation — e.g.
    /// `simd` off bilinear, or an accelerator spec handed to the
    /// host-only builder.
    Unsupported {
        /// Canonical backend name.
        backend: String,
        /// What is missing.
        reason: String,
    },
    /// The backend exists but failed on this frame (dimension
    /// mismatch, local-store overflow, …).
    Backend {
        /// Canonical backend name.
        backend: String,
        /// Failure description.
        message: String,
    },
}

impl EngineError {
    /// Convenience constructor for [`EngineError::Unsupported`].
    pub fn unsupported(backend: impl Into<String>, reason: impl Into<String>) -> Self {
        EngineError::Unsupported {
            backend: backend.into(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`EngineError::Backend`].
    pub fn backend(backend: impl Into<String>, message: impl Into<String>) -> Self {
        EngineError::Backend {
            backend: backend.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported { backend, reason } => {
                write!(f, "backend '{backend}' unsupported here: {reason}")
            }
            EngineError::Backend { backend, message } => {
                write!(f, "backend '{backend}' failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

// ---------------------------------------------------------------------
// FrameReport
// ---------------------------------------------------------------------

/// Per-frame execution report — the one observability type every
/// consumer reads.
///
/// The fixed fields cover what every backend can report; anything
/// platform-specific (DMA bytes, cache hit rates, modeled cycles)
/// goes into the uniform [`FrameReport::model`] key/value section so
/// downstream code (stats accumulation, CSV emission) never needs a
/// per-backend type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameReport {
    /// Canonical spec name of the engine that produced the frame.
    pub backend: String,
    /// Wall-clock time of the correction phase on this machine (for
    /// modeled platforms this is the functional simulation time; the
    /// modeled frame time is in `model["frame_cycles"]`).
    pub correct_time: Duration,
    /// Output rows processed.
    pub rows: u64,
    /// Tiles/blocks processed (0 for row-oriented paths).
    pub tiles: u64,
    /// Output pixels with no valid source mapping (rendered black).
    pub invalid_pixels: u64,
    /// Backend-specific statistics, flattened to `name -> value`.
    pub model: BTreeMap<String, f64>,
}

impl FrameReport {
    /// Empty report for a backend.
    pub fn new(backend: impl Into<String>) -> Self {
        FrameReport {
            backend: backend.into(),
            ..Default::default()
        }
    }

    /// Insert a model statistic.
    pub fn kv(&mut self, key: &str, value: f64) {
        self.model.insert(key.to_string(), value);
    }

    /// Fold one plane's (or stereo eye's) report into this
    /// frame-level report: times and counters sum, the plane's own
    /// time, rows and invalid pixels land under `label.correct_ms`,
    /// `label.rows` and `label.invalid`, and its model statistics keep
    /// their identity under a `label.` prefix.
    pub fn merge_plane(&mut self, label: &str, plane: &FrameReport) {
        self.correct_time += plane.correct_time;
        self.rows += plane.rows;
        self.tiles += plane.tiles;
        self.invalid_pixels += plane.invalid_pixels;
        self.kv(
            &format!("{label}.correct_ms"),
            plane.correct_time.as_secs_f64() * 1e3,
        );
        self.kv(&format!("{label}.rows"), plane.rows as f64);
        self.kv(&format!("{label}.invalid"), plane.invalid_pixels as f64);
        for (k, v) in &plane.model {
            self.kv(&format!("{label}.{k}"), *v);
        }
    }

    /// The model section as sorted `key=value` strings (CSV/report
    /// emission).
    pub fn model_pairs(&self) -> Vec<String> {
        self.model
            .iter()
            .map(|(k, v)| format!("{k}={v:.6}"))
            .collect()
    }
}

// ---------------------------------------------------------------------
// EngineSpec: naming + parsing + registry
// ---------------------------------------------------------------------

/// Numeric class of a backend: what serial reference its output must
/// be bit-exact with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericClass {
    /// Float arithmetic — reference is [`crate::correct()`](fn@crate::correct) with the
    /// same interpolator.
    Float,
    /// Integer datapath through a quantized LUT — reference is
    /// [`crate::correct_fixed`] with the same weight width.
    Fixed {
        /// Fractional weight bits of the quantized LUT.
        frac_bits: u32,
    },
}

/// A named execution path. `spec.name()` and [`EngineSpec::parse`]
/// round-trip, and [`EngineSpec::registry`] lists one canonical spec
/// per backend — the same names `fisheye-cli --backend` accepts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineSpec {
    /// Single-threaded host reference (`serial`).
    Serial,
    /// Multicore host path over a thread pool (`smp`,
    /// `smp:dynamic:2`, …).
    Smp {
        /// Row-distribution policy.
        schedule: Schedule,
    },
    /// LUT-free per-pixel recomputation (`direct`, the F9 comparison
    /// mode). Needs lens + view geometry.
    Direct,
    /// Integer-only host path through a quantized LUT (`fixed`,
    /// `fixed:10`).
    FixedPoint {
        /// Fractional weight bits.
        frac_bits: u32,
    },
    /// 8-lane SoA bilinear span kernel (`simd`). Bilinear only.
    Simd,
    /// Cell/B.E. tiled local-store model (`cell`, `cell:64x32`,
    /// `cell:32x16:single`, `cell:q10`). Implemented in `cellsim`.
    Cell {
        /// Tile width in output pixels.
        tile_w: u32,
        /// Tile height in output pixels.
        tile_h: u32,
        /// Overlap DMA with compute.
        double_buffer: bool,
        /// Fractional weight bits of the SPE integer kernel.
        frac_bits: u32,
    },
    /// SIMT GPU model (`gpu`, `gpu:512`). Implemented in `gpusim`.
    Gpu {
        /// Threads per block.
        block_threads: usize,
    },
    /// SIMT batch interpreter executing the codegen layer's
    /// WGSL-shaped kernel in-process (`simt`, `simt:64`). Implemented
    /// in `fisheye-codegen`; unlike `gpu` it produces real output
    /// while counting warp divergence and line coalescing.
    Simt {
        /// Threads per workgroup (32-lane warps; the workgroup maps
        /// to a `32 x workgroup/32` output tile).
        workgroup: usize,
    },
}

/// What an execution path can and cannot do — the one source of truth
/// consumers (videopipe, fisheye-serve, the CLI) query instead of
/// hard-coding per-backend rejection lists. Returned by
/// [`EngineSpec::capabilities`]; every registry spec's answers are
/// pinned by a registry-loop test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// The engine can fuse a compiled post stage into its correction
    /// traversal (`fused=1`); engines without it fall back to the
    /// two-pass [`post_pass`].
    pub fused_post: bool,
    /// The engine needs the plan compiled with a quantized LUT of
    /// this width (`PlanOptions::frac_bits`); running without one
    /// still works but requantizes per plan (`plan_miss=1`).
    pub requires_lut: Option<u32>,
    /// The engine wants the plan compiled with this tile geometry
    /// (`PlanOptions::tiles`); absent tiles are derived lazily.
    pub requires_tiles: Option<(u32, u32)>,
    /// Distinct frames may be corrected concurrently through one
    /// engine instance without oversubscription — false for engines
    /// that own a thread pool (`smp`) or model one device (`cell`,
    /// `gpu`).
    pub supports_frame_concurrency: bool,
    /// The spec is built and run by this module's host builder;
    /// false means the facade crate resolves it (accelerator models
    /// and the SIMT interpreter).
    pub host_executable: bool,
    /// The engine consumes a compiled [`RemapPlan`] (everything but
    /// `direct`, which recomputes the projection per pixel).
    pub uses_plan: bool,
    /// The engine implements exactly one interpolator; requesting any
    /// other is a build error (the `simd` SoA kernel is bilinear
    /// only).
    pub interp_locked: Option<Interpolator>,
}

impl EngineSpec {
    /// Canonical name. Default parameters are omitted so the registry
    /// names stay short (`cell`, not `cell:32x16:double:q12`).
    pub fn name(&self) -> String {
        match *self {
            EngineSpec::Serial => "serial".into(),
            EngineSpec::Smp { schedule } => match schedule {
                Schedule::Static { chunk: None } => "smp".into(),
                Schedule::Static { chunk: Some(c) } => format!("smp:static:{c}"),
                Schedule::Dynamic { chunk } => format!("smp:dynamic:{chunk}"),
                Schedule::Guided { min_chunk } => format!("smp:guided:{min_chunk}"),
            },
            EngineSpec::Direct => "direct".into(),
            EngineSpec::FixedPoint { frac_bits } => {
                if frac_bits == DEFAULT_FRAC_BITS {
                    "fixed".into()
                } else {
                    format!("fixed:{frac_bits}")
                }
            }
            EngineSpec::Simd => "simd".into(),
            EngineSpec::Cell {
                tile_w,
                tile_h,
                double_buffer,
                frac_bits,
            } => {
                let mut s = "cell".to_string();
                if (tile_w, tile_h) != DEFAULT_TILE {
                    s.push_str(&format!(":{tile_w}x{tile_h}"));
                }
                if !double_buffer {
                    s.push_str(":single");
                }
                if frac_bits != DEFAULT_FRAC_BITS {
                    s.push_str(&format!(":q{frac_bits}"));
                }
                s
            }
            EngineSpec::Gpu { block_threads } => {
                if block_threads == DEFAULT_GPU_BLOCK {
                    "gpu".into()
                } else {
                    format!("gpu:{block_threads}")
                }
            }
            EngineSpec::Simt { workgroup } => {
                if workgroup == DEFAULT_SIMT_WG {
                    "simt".into()
                } else {
                    format!("simt:{workgroup}")
                }
            }
        }
    }

    /// One canonical spec per backend, in report order. Every entry
    /// here is exercised by `tests/platform_consistency.rs` and
    /// selectable via `fisheye-cli --backend <name>`.
    pub fn registry() -> Vec<EngineSpec> {
        vec![
            EngineSpec::Serial,
            EngineSpec::Smp {
                schedule: Schedule::default_static(),
            },
            EngineSpec::Direct,
            EngineSpec::FixedPoint {
                frac_bits: DEFAULT_FRAC_BITS,
            },
            EngineSpec::Simd,
            EngineSpec::Cell {
                tile_w: DEFAULT_TILE.0,
                tile_h: DEFAULT_TILE.1,
                double_buffer: true,
                frac_bits: DEFAULT_FRAC_BITS,
            },
            EngineSpec::Gpu {
                block_threads: DEFAULT_GPU_BLOCK,
            },
            EngineSpec::Simt {
                workgroup: DEFAULT_SIMT_WG,
            },
        ]
    }

    /// Parse a spec name. Accepts everything [`EngineSpec::name`]
    /// emits plus parameterized forms:
    /// `smp[:static[:C]|:dynamic[:C]|:guided[:M]]`, `fixed[:BITS]`,
    /// `cell[:WxH][:single|:double][:qBITS]`, `gpu[:THREADS]`,
    /// `simt[:THREADS]`.
    pub fn parse(s: &str) -> Result<EngineSpec, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let no_params = |rest: &[&str], name: &str| -> Result<(), String> {
            if rest.is_empty() {
                Ok(())
            } else {
                Err(format!("backend '{name}' takes no parameters"))
            }
        };
        match head {
            "serial" => {
                no_params(&rest, "serial")?;
                Ok(EngineSpec::Serial)
            }
            "direct" => {
                no_params(&rest, "direct")?;
                Ok(EngineSpec::Direct)
            }
            "simd" => {
                no_params(&rest, "simd")?;
                Ok(EngineSpec::Simd)
            }
            "smp" => {
                let schedule = match rest.as_slice() {
                    [] | ["static"] => Schedule::Static { chunk: None },
                    ["static", c] => Schedule::Static {
                        chunk: Some(parse_num(c, "static chunk")?),
                    },
                    ["dynamic"] => Schedule::Dynamic { chunk: 1 },
                    ["dynamic", c] => Schedule::Dynamic {
                        chunk: parse_num(c, "dynamic chunk")?,
                    },
                    ["guided"] => Schedule::Guided { min_chunk: 1 },
                    ["guided", m] => Schedule::Guided {
                        min_chunk: parse_num(m, "guided min chunk")?,
                    },
                    _ => return Err(format!("bad smp schedule in '{s}'")),
                };
                Ok(EngineSpec::Smp { schedule })
            }
            "fixed" => {
                let frac_bits = match rest.as_slice() {
                    [] => DEFAULT_FRAC_BITS,
                    [b] => parse_num(b, "fixed frac bits")?,
                    _ => return Err(format!("bad fixed spec '{s}'")),
                };
                if !(1..=15).contains(&frac_bits) {
                    return Err(format!("fixed frac bits must be 1..=15, got {frac_bits}"));
                }
                Ok(EngineSpec::FixedPoint { frac_bits })
            }
            "cell" => {
                let (mut tile_w, mut tile_h) = DEFAULT_TILE;
                let mut double_buffer = true;
                let mut frac_bits = DEFAULT_FRAC_BITS;
                for tok in rest {
                    if tok == "single" {
                        double_buffer = false;
                    } else if tok == "double" {
                        double_buffer = true;
                    } else if let Some(b) = tok.strip_prefix('q') {
                        frac_bits = parse_num(b, "cell frac bits")?;
                    } else if let Some((w, h)) = tok.split_once('x') {
                        tile_w = parse_num(w, "cell tile width")?;
                        tile_h = parse_num(h, "cell tile height")?;
                        if tile_w == 0 || tile_h == 0 {
                            return Err("cell tile dimensions must be positive".into());
                        }
                    } else {
                        return Err(format!("bad cell parameter '{tok}' in '{s}'"));
                    }
                }
                if !(1..=15).contains(&frac_bits) {
                    return Err(format!("cell frac bits must be 1..=15, got {frac_bits}"));
                }
                Ok(EngineSpec::Cell {
                    tile_w,
                    tile_h,
                    double_buffer,
                    frac_bits,
                })
            }
            "gpu" => {
                let block_threads = match rest.as_slice() {
                    [] => DEFAULT_GPU_BLOCK,
                    [t] => parse_num(t, "gpu block threads")?,
                    _ => return Err(format!("bad gpu spec '{s}'")),
                };
                if block_threads == 0 || block_threads % 32 != 0 {
                    return Err(format!(
                        "gpu block threads must be a positive multiple of 32, got {block_threads}"
                    ));
                }
                Ok(EngineSpec::Gpu { block_threads })
            }
            "simt" => {
                let workgroup = match rest.as_slice() {
                    [] => DEFAULT_SIMT_WG,
                    [t] => parse_num(t, "simt workgroup")?,
                    _ => return Err(format!("bad simt spec '{s}'")),
                };
                if workgroup == 0 || workgroup % 32 != 0 {
                    return Err(format!(
                        "simt workgroup must be a positive multiple of 32, got {workgroup}"
                    ));
                }
                Ok(EngineSpec::Simt { workgroup })
            }
            other => {
                let names: Vec<String> = EngineSpec::registry().iter().map(|s| s.name()).collect();
                Err(format!(
                    "unknown backend '{other}' (registered: {})",
                    names.join(" ")
                ))
            }
        }
    }

    /// Which serial reference this backend's output must match
    /// bit-exactly.
    pub fn numeric_class(&self) -> NumericClass {
        match *self {
            EngineSpec::FixedPoint { frac_bits } | EngineSpec::Cell { frac_bits, .. } => {
                NumericClass::Fixed { frac_bits }
            }
            _ => NumericClass::Float,
        }
    }

    /// True when this spec is one of the host paths this module can
    /// execute itself (the accelerator models live in `cellsim` /
    /// `gpusim`, the SIMT interpreter in `fisheye-codegen`).
    pub fn is_host(&self) -> bool {
        !matches!(
            self,
            EngineSpec::Cell { .. } | EngineSpec::Gpu { .. } | EngineSpec::Simt { .. }
        )
    }

    /// What this execution path can do — the one answer consumers
    /// query instead of maintaining their own per-backend rejection
    /// lists. See [`Capabilities`] for field semantics.
    pub fn capabilities(&self) -> Capabilities {
        // the conservative baseline: a plan-consuming engine with no
        // fused post, no artifact requirements and no concurrency or
        // host guarantees — each arm widens what it actually supports
        let base = Capabilities {
            fused_post: false,
            requires_lut: None,
            requires_tiles: None,
            supports_frame_concurrency: false,
            host_executable: true,
            uses_plan: true,
            interp_locked: None,
        };
        match *self {
            EngineSpec::Serial => Capabilities {
                fused_post: true,
                supports_frame_concurrency: true,
                ..base
            },
            // smp owns its thread pool: concurrent frames through one
            // instance oversubscribe the machine
            EngineSpec::Smp { .. } => Capabilities {
                fused_post: true,
                ..base
            },
            EngineSpec::Direct => Capabilities {
                uses_plan: false,
                supports_frame_concurrency: true,
                ..base
            },
            EngineSpec::FixedPoint { frac_bits } => Capabilities {
                fused_post: true,
                requires_lut: Some(frac_bits),
                supports_frame_concurrency: true,
                ..base
            },
            EngineSpec::Simd => Capabilities {
                fused_post: true,
                interp_locked: Some(Interpolator::Bilinear),
                supports_frame_concurrency: true,
                ..base
            },
            EngineSpec::Cell {
                tile_w,
                tile_h,
                frac_bits,
                ..
            } => Capabilities {
                requires_lut: Some(frac_bits),
                requires_tiles: Some((tile_w, tile_h)),
                host_executable: false,
                ..base
            },
            EngineSpec::Gpu { .. } => Capabilities {
                host_executable: false,
                ..base
            },
            EngineSpec::Simt { workgroup } => Capabilities {
                fused_post: true,
                requires_tiles: Some(simt_tile(workgroup)),
                supports_frame_concurrency: true,
                host_executable: false,
                ..base
            },
        }
    }
}

/// Output tile geometry of a `simt` workgroup: one 32-lane warp per
/// tile row, `workgroup / 32` rows.
pub fn simt_tile(workgroup: usize) -> (u32, u32) {
    (32, (workgroup / 32).max(1) as u32)
}

/// `Display` prints [`EngineSpec::name`], so `format!("{spec}")` and
/// `spec.parse()` round-trip losslessly: for every spec the registry
/// can produce, `s.to_string().parse() == Ok(s)`.
impl fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// `FromStr` delegates to [`EngineSpec::parse`]; the error is the
/// same human-readable message.
impl std::str::FromStr for EngineSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineSpec, String> {
        EngineSpec::parse(s)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what}: cannot parse '{s}'"))
}

// ---------------------------------------------------------------------
// The engine trait
// ---------------------------------------------------------------------

/// One execution path, prepared and ready to correct byte planes.
///
/// Implementations must be bit-exact with the serial reference of
/// their [`NumericClass`]: the engine layer may route any consumer's
/// frames through any backend, so "simulate" and "compute" must be
/// indistinguishable functionally.
///
/// Engines are stateless with respect to the map: everything derived
/// from it (quantized LUTs, tile plans, span indices) lives in the
/// caller's compiled [`RemapPlan`]. An engine handed a plan missing an
/// artifact it needs derives it on the fly and sets `plan_miss=1` in
/// the report's model section — functional, but the caller is leaving
/// per-frame work on the table.
pub trait CorrectionEngine: Send + Sync {
    /// Canonical spec name ([`EngineSpec::name`]).
    fn name(&self) -> String;

    /// Correct `src` through the compiled `plan` into `out`
    /// (dimensions must match the plan) and report what happened.
    fn correct_frame(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError>;

    /// [`CorrectionEngine::correct_frame`] with an optional compiled
    /// post stage. The default runs the correction and then the
    /// two-pass [`post_pass`] over the output (reported as `post_ms`
    /// with `fused=0`) — correct for every backend, including the
    /// accelerator models that cannot fuse; the host engines override
    /// this to grade each row as the span walk finishes it (`fused=1`,
    /// post cost inside `correct_time`). Both paths grade through
    /// [`PostPlan::apply_row`], so they are bit-exact with each other
    /// by construction.
    fn correct_frame_post(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        let mut report = self.correct_frame(src, plan, out)?;
        post_pass(post, out, &mut report);
        Ok(report)
    }
}

/// The two-pass post application: a full extra traversal of `out`,
/// measured into `post_ms` with `fused=0`. This is the golden
/// reference the fused path must match byte for byte, and the only
/// path available to engines that cannot fuse. An inert stage is
/// skipped entirely.
pub fn post_pass(post: Option<&PostPlan>, out: &mut Image<Gray8>, report: &mut FrameReport) {
    let Some(pp) = post.filter(|p| !p.is_noop()) else {
        return;
    };
    let w = (out.dims().0 as usize).max(1);
    let t0 = Instant::now();
    for (y, row) in out.pixels_mut().chunks_mut(w).enumerate() {
        pp.apply_row(row, y as u32);
    }
    report.kv("post_ms", t0.elapsed().as_secs_f64() * 1e3);
    report.kv("fused", 0.0);
}

// ---------------------------------------------------------------------
// Host execution
// ---------------------------------------------------------------------

/// Shared resources a host execution may borrow from its caller. The
/// boxed host engine owns its resources; callers that already hold
/// a pool / geometry (e.g. serve's composite sessions) pass them here
/// instead so nothing is rebuilt per frame. Map-derived state
/// (quantized LUTs, span indices) comes from the compiled
/// [`RemapPlan`], never from here.
#[derive(Clone, Copy, Default)]
pub struct HostEnv<'a> {
    /// Thread pool for `smp` (required by that spec).
    pub pool: Option<&'a ThreadPool>,
    /// Lens + view for `direct` (required by that spec).
    pub geometry: Option<(&'a FisheyeLens, &'a PerspectiveView)>,
}

/// The dimension check every engine runs before a frame: `out` must
/// have the plan's output dims and `src` the plan's source dims, or
/// the frame is refused with [`EngineError::Backend`] under `name`.
pub fn check_frame_dims(
    name: &str,
    src: &Image<Gray8>,
    plan: &RemapPlan,
    out: &Image<Gray8>,
) -> Result<(), EngineError> {
    if out.dims() != (plan.width(), plan.height()) {
        return Err(EngineError::backend(
            name,
            format!(
                "output {:?} does not match plan {:?}",
                out.dims(),
                (plan.width(), plan.height())
            ),
        ));
    }
    if src.dims() != plan.src_dims() {
        return Err(EngineError::backend(
            name,
            format!(
                "source {:?} does not match plan source {:?}",
                src.dims(),
                plan.src_dims()
            ),
        ));
    }
    Ok(())
}

/// The refusals every host executor shares: `simd` off bilinear, and
/// the accelerator specs, which run outside this crate. Every other
/// spec passes.
pub(crate) fn refuse_host(
    name: &str,
    spec: &EngineSpec,
    interp: Interpolator,
) -> Result<(), EngineError> {
    let reason: String = match *spec {
        EngineSpec::Simd if interp != Interpolator::Bilinear => {
            format!("simd implements bilinear only, not {}", interp.name())
        }
        EngineSpec::Cell { .. } | EngineSpec::Gpu { .. } | EngineSpec::Simt { .. } => {
            "accelerator model — build it via the facade crate's engine module".into()
        }
        _ => return Ok(()),
    };
    Err(EngineError::unsupported(name, reason))
}

/// The pool an `smp` spec spreads its rows over, recording `threads`;
/// `None` (rows in order on the calling thread) for every other spec.
pub(crate) fn host_pool<'a>(
    name: &str,
    spec: &EngineSpec,
    env: &HostEnv<'a>,
    report: &mut FrameReport,
) -> Result<Option<(&'a ThreadPool, Schedule)>, EngineError> {
    let EngineSpec::Smp { schedule } = *spec else {
        return Ok(None);
    };
    let pool = env
        .pool
        .ok_or_else(|| EngineError::unsupported(name, "smp needs a thread pool (HostEnv::pool)"))?;
    report.kv("threads", pool.threads() as f64);
    Ok(Some((pool, schedule)))
}

/// The row driver every host datapath shares: `row` fills output row
/// `y`, in order on the calling thread or across `pool`. An active
/// `post` stage then grades each finished row while it is still hot in
/// cache, through the two-pass path's own [`PostPlan::apply_row`], so
/// fusing cannot change a byte. Returns the time the rows took.
pub(crate) fn drive_rows(
    pool: Option<(&ThreadPool, Schedule)>,
    post: Option<&PostPlan>,
    out: &mut Image<Gray8>,
    row: impl Fn(u32, &mut [Gray8]) + Sync,
) -> Duration {
    let t0 = Instant::now();
    let body = |y: usize, out_row: &mut [Gray8]| {
        row(y as u32, out_row);
        if let Some(pp) = post {
            pp.apply_row(out_row, y as u32);
        }
    };
    let w = (out.dims().0 as usize).max(1);
    match pool {
        Some((pool, schedule)) => pool.parallel_rows(out.pixels_mut(), w, schedule, &body),
        None => {
            for (y, out_row) in out.pixels_mut().chunks_mut(w).enumerate() {
                body(y, out_row);
            }
        }
    }
    t0.elapsed()
}

/// Execute a host spec over a compiled plan, with an optional
/// compiled post stage. This is the single dispatch point the boxed
/// host engine and videopipe share: the spec picks its datapath's span
/// kernel once, and one row driver runs the plan's valid-span walk
/// with it, so no pixel loop branches on validity. `fixed` reads the
/// plan's prequantized LUT, requantizing (and reporting `plan_miss=1`)
/// only when the plan was compiled without the requested width.
///
/// Every plan-driven datapath (`serial`, `smp`, `fixed`, `simd`) fuses
/// the post stage in the row driver, grading each row as it is
/// finished (`fused=1`, cost inside `correct_time`); `direct` corrects
/// the frame and then runs the [`post_pass`] reference over the output
/// (`fused=0`, cost in `post_ms`). All paths are bit-exact with each
/// other.
pub fn execute_host_post(
    spec: &EngineSpec,
    interp: Interpolator,
    src: &Image<Gray8>,
    plan: &RemapPlan,
    post: Option<&PostPlan>,
    env: &HostEnv,
    out: &mut Image<Gray8>,
) -> Result<FrameReport, EngineError> {
    let name = spec.name();
    if spec.is_host() {
        check_frame_dims(&name, src, plan, out)?;
    }
    refuse_host(&name, spec, interp)?;
    let post = post.filter(|p| !p.is_noop());
    let mut report = FrameReport::new(&name);
    report.rows = plan.height() as u64;
    report.invalid_pixels = plan.invalid_pixels();
    match *spec {
        EngineSpec::Serial | EngineSpec::Smp { .. } => {
            let pool = host_pool(&name, spec, env, &mut report)?;
            report.correct_time = with_sampler!(interp, f => {
                let k = Float::new(src, plan, f);
                drive_rows(pool, post, out, |y, row| span_row(plan, &k, y, row))
            });
        }
        EngineSpec::Direct => {
            let (lens, view) = env.geometry.ok_or_else(|| {
                EngineError::unsupported(&name, "direct needs lens+view (HostEnv::geometry)")
            })?;
            if (view.width, view.height) != (plan.width(), plan.height()) {
                return Err(EngineError::backend(
                    &name,
                    "view dimensions do not match the plan",
                ));
            }
            report = execute_direct(interp, src, lens, view, out)?;
            post_pass(post, out, &mut report);
            return Ok(report);
        }
        EngineSpec::FixedPoint { frac_bits } => {
            // only the first frame after a (delta) compile without this
            // width pays the quantization; later frames hit the memo
            let (lut, derived_ms) = plan.fixed_lazy(frac_bits);
            if let Some(ms) = derived_ms {
                report.kv("plan_miss", 1.0);
                report.kv("plan_derive_ms", ms);
            }
            let k = Fixed::new(src, plan, &lut);
            report.correct_time = drive_rows(None, post, out, |y, row| span_row(plan, &k, y, row));
            report.kv("frac_bits", frac_bits as f64);
        }
        EngineSpec::Simd => {
            let k = Lanes::new(src, plan);
            report.correct_time = drive_rows(None, post, out, |y, row| span_row(plan, &k, y, row));
            report.kv("lanes", simd::LANES as f64);
        }
        EngineSpec::Cell { .. } | EngineSpec::Gpu { .. } | EngineSpec::Simt { .. } => {
            unreachable!("refuse_host refuses {name}")
        }
    }
    if post.is_some() {
        report.kv("fused", 1.0);
    }
    Ok(report)
}

/// Execute the LUT-free `direct` path — the one host spec that needs
/// no [`crate::RemapMap`] at all (the F9 comparison mode). `out` must match
/// the view's dimensions.
pub fn execute_direct(
    interp: Interpolator,
    src: &Image<Gray8>,
    lens: &FisheyeLens,
    view: &PerspectiveView,
    out: &mut Image<Gray8>,
) -> Result<FrameReport, EngineError> {
    let name = EngineSpec::Direct.name();
    if out.dims() != (view.width, view.height) {
        return Err(EngineError::backend(
            &name,
            format!(
                "output {:?} does not match view {:?}",
                out.dims(),
                (view.width, view.height)
            ),
        ));
    }
    let mut report = FrameReport::new(&name);
    report.rows = view.height as u64;
    let (sw, sh) = src.dims();
    let mut invalid = 0u64;
    let t0 = Instant::now();
    for y in 0..view.height {
        for x in 0..view.width {
            let ray = view.pixel_ray(x as f64 + 0.5, y as f64 + 0.5);
            let v = match lens.project(ray) {
                Some((sx, sy)) if sx >= 0.0 && sx < sw as f64 && sy >= 0.0 && sy < sh as f64 => {
                    interp.sample(src, sx as f32, sy as f32)
                }
                _ => {
                    invalid += 1;
                    Gray8::BLACK
                }
            };
            out.set(x, y, v);
        }
    }
    report.correct_time = t0.elapsed();
    report.invalid_pixels = invalid;
    Ok(report)
}

// ---------------------------------------------------------------------
// Boxed host engines
// ---------------------------------------------------------------------

/// Build context for [`build_host`]: the interpolator every engine
/// uses, the pool size `smp` engines allocate, and the geometry the
/// `direct` engine captures.
#[derive(Clone, Copy)]
pub struct HostCtx<'a> {
    /// Interpolation kernel.
    pub interp: Interpolator,
    /// Worker threads for `smp` engines.
    pub threads: usize,
    /// Lens + view, required by `direct`.
    pub geometry: Option<(&'a FisheyeLens, &'a PerspectiveView)>,
}

impl Default for HostCtx<'_> {
    fn default() -> Self {
        HostCtx {
            interp: Interpolator::Bilinear,
            threads: 4,
            geometry: None,
        }
    }
}

/// Build a boxed host engine for `spec`. Accelerator specs return
/// [`EngineError::Unsupported`]; the `fisheye` facade crate resolves
/// those.
pub fn build_host(
    spec: &EngineSpec,
    ctx: &HostCtx,
) -> Result<Box<dyn CorrectionEngine>, EngineError> {
    let name = spec.name();
    refuse_host(&name, spec, ctx.interp)?;
    let mut engine = HostEngine {
        spec: *spec,
        interp: ctx.interp,
        pool: None,
        geometry: None,
    };
    match *spec {
        EngineSpec::Smp { .. } => engine.pool = Some(ThreadPool::new(ctx.threads.max(1))),
        EngineSpec::Direct => {
            let (lens, view) = ctx.geometry.ok_or_else(|| {
                EngineError::unsupported(&name, "direct needs lens+view (HostCtx::geometry)")
            })?;
            engine.geometry = Some((*lens, *view));
        }
        _ => {}
    }
    Ok(Box::new(engine))
}

/// The one boxed host engine: every host spec runs through
/// [`execute_host_post`] with the resources [`build_host`] resolved
/// for it.
struct HostEngine {
    spec: EngineSpec,
    interp: Interpolator,
    /// Row-level pool, `smp` only.
    pool: Option<ThreadPool>,
    /// Lens + view, `direct` only.
    geometry: Option<(FisheyeLens, PerspectiveView)>,
}

impl CorrectionEngine for HostEngine {
    fn name(&self) -> String {
        self.spec.name()
    }

    fn correct_frame(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        self.correct_frame_post(src, plan, None, out)
    }

    fn correct_frame_post(
        &self,
        src: &Image<Gray8>,
        plan: &RemapPlan,
        post: Option<&PostPlan>,
        out: &mut Image<Gray8>,
    ) -> Result<FrameReport, EngineError> {
        let env = HostEnv {
            pool: self.pool.as_ref(),
            geometry: self.geometry.as_ref().map(|(lens, view)| (lens, view)),
        };
        execute_host_post(&self.spec, self.interp, src, plan, post, &env, out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::correct::{correct, correct_fixed};
    use crate::map::RemapMap;
    use crate::plan::PlanOptions;

    fn workload() -> (FisheyeLens, PerspectiveView, RemapMap, Image<Gray8>) {
        let lens = FisheyeLens::equidistant_fov(160, 120, 180.0);
        let view = PerspectiveView::centered(80, 60, 90.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = pixmap::scene::random_gray(160, 120, 42);
        (lens, view, map, src)
    }

    /// Compile a plan covering every registry spec's needs.
    fn plan_for(map: &RemapMap) -> RemapPlan {
        RemapPlan::compile(map, PlanOptions::for_specs(&EngineSpec::registry()))
    }

    #[test]
    fn names_round_trip_through_parse() {
        for spec in EngineSpec::registry() {
            let name = spec.name();
            let parsed = EngineSpec::parse(&name).unwrap();
            assert_eq!(parsed, spec, "{name}");
        }
        // parameterized forms too
        for s in [
            "smp:dynamic:4",
            "smp:guided:2",
            "smp:static:8",
            "fixed:10",
            "cell:64x32",
            "cell:16x16:single:q8",
            "gpu:512",
            "simt:64",
        ] {
            let spec = EngineSpec::parse(s).unwrap();
            assert_eq!(EngineSpec::parse(&spec.name()).unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn display_from_str_round_trip_is_lossless() {
        let mut specs = EngineSpec::registry();
        specs.extend([
            EngineSpec::Smp {
                schedule: Schedule::Dynamic { chunk: 3 },
            },
            EngineSpec::FixedPoint { frac_bits: 9 },
            EngineSpec::Cell {
                tile_w: 16,
                tile_h: 8,
                double_buffer: false,
                frac_bits: 7,
            },
            EngineSpec::Gpu { block_threads: 128 },
            EngineSpec::Simt { workgroup: 64 },
        ]);
        for spec in specs {
            let shown = spec.to_string();
            assert_eq!(shown, spec.name(), "Display must print the canonical name");
            let parsed: EngineSpec = shown.parse().unwrap();
            assert_eq!(parsed, spec, "{shown}");
        }
        assert!("warp-drive".parse::<EngineSpec>().is_err());
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(EngineSpec::parse("warp-drive").is_err());
        assert!(EngineSpec::parse("serial:4").is_err());
        assert!(EngineSpec::parse("fixed:0").is_err());
        assert!(EngineSpec::parse("fixed:16").is_err());
        assert!(EngineSpec::parse("gpu:100").is_err());
        assert!(EngineSpec::parse("cell:0x8").is_err());
        assert!(EngineSpec::parse("cell:wat").is_err());
        assert!(EngineSpec::parse("simt:0").is_err());
        assert!(EngineSpec::parse("simt:100").is_err());
        assert!(EngineSpec::parse("simt:64:64").is_err());
    }

    #[test]
    fn registry_capabilities_are_pinned() {
        // the one-source-of-truth contract: every consumer that used
        // to hard-code a backend list now reads these answers, so a
        // change here is a change to videopipe/serve/CLI behavior and
        // must be deliberate
        let expect = |name: &str| match name {
            "serial" => (true, None, None, true, true, true, None),
            "smp" => (true, None, None, false, true, true, None),
            "direct" => (false, None, None, true, true, false, None),
            "fixed" => (true, Some(12), None, true, true, true, None),
            "simd" => (
                true,
                None,
                None,
                true,
                true,
                true,
                Some(Interpolator::Bilinear),
            ),
            "cell" => (false, Some(12), Some((32, 16)), false, false, true, None),
            "gpu" => (false, None, None, false, false, true, None),
            "simt" => (true, None, Some((32, 8)), true, false, true, None),
            other => panic!("registry grew '{other}' without pinning its capabilities"),
        };
        for spec in EngineSpec::registry() {
            let name = spec.name();
            let c = spec.capabilities();
            let (fused, lut, tiles, conc, host, plan, locked) = expect(&name);
            assert_eq!(c.fused_post, fused, "{name} fused_post");
            assert_eq!(c.requires_lut, lut, "{name} requires_lut");
            assert_eq!(c.requires_tiles, tiles, "{name} requires_tiles");
            assert_eq!(c.supports_frame_concurrency, conc, "{name} concurrency");
            assert_eq!(c.host_executable, host, "{name} host_executable");
            assert_eq!(c.host_executable, spec.is_host(), "{name} is_host agrees");
            assert_eq!(c.uses_plan, plan, "{name} uses_plan");
            assert_eq!(c.interp_locked, locked, "{name} interp_locked");
        }
    }

    #[test]
    fn parameterized_capabilities_follow_their_parameters() {
        let c = EngineSpec::parse("fixed:9").unwrap().capabilities();
        assert_eq!(c.requires_lut, Some(9));
        let c = EngineSpec::parse("cell:64x32:q10").unwrap().capabilities();
        assert_eq!(c.requires_lut, Some(10));
        assert_eq!(c.requires_tiles, Some((64, 32)));
        let c = EngineSpec::parse("simt:64").unwrap().capabilities();
        assert_eq!(c.requires_tiles, Some((32, 2)));
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = EngineSpec::registry().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn host_engines_match_serial_reference_gray8() {
        let (lens, view, map, src) = workload();
        let plan = plan_for(&map);
        let reference = correct(&src, &map, Interpolator::Bilinear);
        let ctx = HostCtx {
            geometry: Some((&lens, &view)),
            ..Default::default()
        };
        for spec in EngineSpec::registry().iter().filter(|s| s.is_host()) {
            let engine = build_host(spec, &ctx).unwrap();
            let mut out = Image::new(map.width(), map.height());
            let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
            assert_eq!(report.backend, spec.name());
            assert_eq!(report.rows, 60);
            match spec.numeric_class() {
                NumericClass::Float => {
                    assert_eq!(out, reference, "{}", spec.name());
                }
                NumericClass::Fixed { frac_bits } => {
                    let fixed_ref = correct_fixed(&src, &map.to_fixed(frac_bits));
                    assert_eq!(out, fixed_ref, "{}", spec.name());
                    assert!(
                        !report.model.contains_key("plan_miss"),
                        "registry plan must satisfy {}",
                        spec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn accelerator_specs_rejected_by_host_builder() {
        let (_, _, map, src) = workload();
        let plan = plan_for(&map);
        let ctx = HostCtx::default();
        for s in ["cell", "gpu", "simt"] {
            let spec = EngineSpec::parse(s).unwrap();
            assert!(matches!(
                build_host(&spec, &ctx),
                Err(EngineError::Unsupported { .. })
            ));
            // the host dispatcher refuses them too, recoverably
            let mut out = Image::new(80, 60);
            assert!(matches!(
                execute_host_post(
                    &spec,
                    Interpolator::Bilinear,
                    &src,
                    &plan,
                    None,
                    &HostEnv::default(),
                    &mut out
                ),
                Err(EngineError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn simd_rejects_non_bilinear() {
        let ctx = HostCtx {
            interp: Interpolator::Bicubic,
            ..Default::default()
        };
        assert!(build_host(&EngineSpec::Simd, &ctx).is_err());
    }

    #[test]
    fn direct_needs_geometry() {
        assert!(matches!(
            build_host(&EngineSpec::Direct, &HostCtx::default()),
            Err(EngineError::Unsupported { .. })
        ));
        // the dispatcher refuses a spec whose borrowed resource is
        // missing (direct without geometry, smp without a pool) with
        // a recoverable error, not a panic
        let (_, _, map, src) = workload();
        let plan = plan_for(&map);
        let smp = EngineSpec::Smp {
            schedule: Schedule::default_static(),
        };
        for spec in [EngineSpec::Direct, smp] {
            let mut out = Image::new(80, 60);
            assert!(matches!(
                execute_host_post(
                    &spec,
                    Interpolator::Bilinear,
                    &src,
                    &plan,
                    None,
                    &HostEnv::default(),
                    &mut out
                ),
                Err(EngineError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let (_, _, map, src) = workload();
        let plan = plan_for(&map);
        let engine = build_host(&EngineSpec::Serial, &HostCtx::default()).unwrap();
        let mut wrong: Image<Gray8> = Image::new(10, 10);
        assert!(matches!(
            engine.correct_frame(&src, &plan, &mut wrong),
            Err(EngineError::Backend { .. })
        ));
        // a source frame of the wrong size is refused the same way
        let small: Image<Gray8> = Image::new(10, 10);
        let mut out = Image::new(80, 60);
        assert!(matches!(
            engine.correct_frame(&small, &plan, &mut out),
            Err(EngineError::Backend { .. })
        ));
    }

    #[test]
    fn report_counts_invalid_pixels() {
        // a view wider than the lens: black corners
        let lens = FisheyeLens::equidistant_fov(160, 120, 120.0);
        let view = PerspectiveView::centered(80, 60, 140.0);
        let map = RemapMap::build(&lens, &view, 160, 120);
        let src = pixmap::scene::random_gray(160, 120, 7);
        let ctx = HostCtx {
            geometry: Some((&lens, &view)),
            ..Default::default()
        };
        let expect = map.entries().iter().filter(|e| !e.is_valid()).count() as u64;
        assert!(expect > 0);
        let plan = plan_for(&map);
        assert_eq!(plan.invalid_pixels(), expect);
        for spec in EngineSpec::registry().iter().filter(|s| s.is_host()) {
            let engine = build_host(spec, &ctx).unwrap();
            let mut out = Image::new(80, 60);
            let report = engine.correct_frame(&src, &plan, &mut out).unwrap();
            assert_eq!(report.invalid_pixels, expect, "{}", spec.name());
        }
    }

    #[test]
    fn fixed_engine_follows_the_plan_it_is_handed() {
        // engines hold no map-derived state: swapping plans swaps the
        // quantized LUT with them, with nothing stale in between
        let (lens, view, map, src) = workload();
        let engine = build_host(
            &EngineSpec::FixedPoint { frac_bits: 12 },
            &HostCtx::default(),
        )
        .unwrap();
        let mut out = Image::new(80, 60);
        engine
            .correct_frame(&src, &plan_for(&map), &mut out)
            .unwrap();
        let first = out.clone();
        let map2 = RemapMap::build(&lens, &view.look(25.0, 0.0), 160, 120);
        engine
            .correct_frame(&src, &plan_for(&map2), &mut out)
            .unwrap();
        assert_eq!(out, correct_fixed(&src, &map2.to_fixed(12)));
        assert_ne!(out, first);
    }

    #[test]
    fn fixed_engine_survives_a_plan_miss() {
        // a plan compiled without the fixed LUT still works — the
        // engine requantizes per frame and flags it
        let (_, _, map, src) = workload();
        let bare = RemapPlan::compile(&map, PlanOptions::default());
        let engine = build_host(
            &EngineSpec::FixedPoint { frac_bits: 12 },
            &HostCtx::default(),
        )
        .unwrap();
        let mut out = Image::new(80, 60);
        let report = engine.correct_frame(&src, &bare, &mut out).unwrap();
        assert_eq!(out, correct_fixed(&src, &map.to_fixed(12)));
        assert_eq!(report.model.get("plan_miss"), Some(&1.0));
    }

    #[test]
    fn frame_report_model_pairs_sorted() {
        let mut r = FrameReport::new("x");
        r.kv("zeta", 1.0);
        r.kv("alpha", 2.0);
        let pairs = r.model_pairs();
        assert!(pairs[0].starts_with("alpha=") && pairs[1].starts_with("zeta="));
    }
}
