//! Admission control, sessions and the degradation ladder.
//!
//! A [`Server`] owns the shared [`PlanCache`] and [`Registry`] and
//! admits [`Session`]s against a fixed capacity budget: past the cap,
//! [`Server::connect`] returns [`fisheye::Error::Rejected`]
//! immediately — there is no wait queue to grow without bound, the
//! caller decides whether to retry. Each admitted session owns its
//! plans (a single-camera session through a [`Corrector`] resolved
//! from its [`EngineSpec`]), a bounded queue of [`Frame`]s and a
//! [`PlanePool`] of output planes (one plane for gray8), and measures
//! every frame against its deadline.
//!
//! Under sustained overload — a windowed fraction of frames missing
//! their deadlines — the server walks a degradation ladder, one rung
//! per evaluation window:
//!
//! 1. [`DegradeLevel::DropOldest`] — full queues shed their *oldest*
//!    frame instead of refusing the newest, so latency stops
//!    compounding;
//! 2. [`DegradeLevel::InterpDown`] — interpolation steps down one
//!    kernel (bicubic → bilinear);
//! 3. [`DegradeLevel::InterpFloor`] — interpolation floors at
//!    nearest-neighbour;
//! 4. [`DegradeLevel::DropGrading`] — per-session post-correction
//!    color work (grade / tone map / dither) is shed; geometry is
//!    untouched, so this rung costs no plan compile at all;
//! 5. [`DegradeLevel::HalfRes`] — views render at half resolution
//!    (quarter the pixels), through half-res plans that the cache
//!    compiles once and shares like any others. Grading stays shed.
//!
//! When the miss ratio falls back below the recovery threshold the
//! ladder walks down again, automatically — degradation is a state
//! the server passes through, not a one-way door. Every admission,
//! rejection, drop, deadline miss and level transition is counted in
//! the registry; [`Registry::snapshot`] is the audit trail.
//!
//! A rung sets three things, each derived from the session's base
//! configuration: the interpolation kernel, the output view and
//! whether grading runs. A session changes only what differs from
//! what it applied last, whatever its workload: a grading change
//! recompiles the 256-entry post tables, a kernel change rebuilds a
//! single-camera session's engine (composite executors take the
//! kernel per frame), and only a view change — [`Session::set_view`]
//! or `HalfRes` — or a rig change resolves plans through the cache.
//! Plans are keyed by geometry and plan options alone, never by the
//! kernel or the post stage, so sessions of one view share one
//! compiled plan whatever kernel they run and whether they grade.
//!
//! Besides the classic single-camera session, a [`SessionConfig`] may
//! declare a composite [`Workload`]: an N-camera
//! [`Workload::Panorama`] whose per-camera plans are ordinary
//! cache entries (keyed by
//! [`fisheye_core::composite::panorama_camera_digest`]),
//! or a rectified [`Workload::StereoPair`] whose two eye plans share
//! one epipolar surface. Composite sessions submit one frame per
//! camera through [`Session::submit_rig`] and ride the same
//! degradation ladder; a one-camera rig change
//! ([`Session::set_rig`]) recompiles only the plans of the camera
//! that moved, counted under `serve.plan.delta_recompiles`.

// Every served frame runs `Session::pump_one`: a panic here takes
// the shard and every session on it down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye::Corrector;
use fisheye_core::composite::{
    execute_composite_host, panorama_camera_digest, panorama_camera_map, rectified_camera_digest,
    rectified_camera_map, CompositePlan, CompositeViewPlan, StereoPlan,
};
use fisheye_core::engine::{execute_host_post, EngineSpec, FrameReport};
use fisheye_core::frame::{Frame, FrameFormat, PlaneRequest, ViewPlan};
use fisheye_core::map::RemapMap;
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::post::{PostPlan, PostStage};
use fisheye_core::Interpolator;
use fisheye_geom::{CameraRig, FisheyeLens, PerspectiveView, StereoRig};
use par_runtime::sync::Mutex;
use par_runtime::{Schedule, ThreadPool};
use pixmap::{Gray8, Image, PlanePool, PooledFrame};

use crate::cache::PlanCache;
use crate::metrics::Registry;

/// How far the server has degraded service quality, in ladder order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeLevel {
    /// Full quality; full queues refuse the newest frame.
    Normal,
    /// Full queues shed their oldest frame to keep latency fresh.
    DropOldest,
    /// Interpolation stepped down one kernel (plus drop-oldest).
    InterpDown,
    /// Interpolation floored at nearest-neighbour.
    InterpFloor,
    /// Post-correction grading shed (plus nearest + drop-oldest);
    /// cheaper than touching geometry, so it comes before half-res.
    DropGrading,
    /// Views render at half resolution (plus no grading, nearest,
    /// drop-oldest).
    HalfRes,
}

impl DegradeLevel {
    /// All levels, mildest first.
    pub const LADDER: [DegradeLevel; 6] = [
        DegradeLevel::Normal,
        DegradeLevel::DropOldest,
        DegradeLevel::InterpDown,
        DegradeLevel::InterpFloor,
        DegradeLevel::DropGrading,
        DegradeLevel::HalfRes,
    ];

    /// Position on the ladder (0 = normal).
    pub fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> DegradeLevel {
        DegradeLevel::LADDER[i.min(DegradeLevel::LADDER.len() - 1)]
    }

    /// Short lowercase name for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::DropOldest => "drop_oldest",
            DegradeLevel::InterpDown => "interp_down",
            DegradeLevel::InterpFloor => "interp_floor",
            DegradeLevel::DropGrading => "drop_grading",
            DegradeLevel::HalfRes => "half_res",
        }
    }
}

/// Degradation controller tuning.
#[derive(Clone, Copy, Debug)]
pub struct DegradeConfig {
    /// Completed frames per evaluation window.
    pub window: usize,
    /// Escalate one rung when the window's deadline-miss ratio
    /// reaches this.
    pub up_threshold: f64,
    /// Recover one rung when the ratio falls to this or below.
    pub down_threshold: f64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            window: 32,
            up_threshold: 0.5,
            down_threshold: 0.05,
        }
    }
}

/// Server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently admitted sessions; connects past this are
    /// rejected outright.
    pub capacity: usize,
    /// Ready entries the shared plan cache holds.
    pub plan_cache_capacity: usize,
    /// Pending frames a session queues before shedding.
    pub queue_depth: usize,
    /// Default per-frame latency budget, submit → corrected
    /// (sessions may override per [`SessionConfig::deadline`]).
    pub frame_deadline: Duration,
    /// Worker threads for SMP-backed correctors.
    pub threads: usize,
    /// Degradation controller tuning.
    pub degrade: DegradeConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 8,
            plan_cache_capacity: 32,
            queue_depth: 4,
            frame_deadline: Duration::from_millis(33),
            threads: 4,
            degrade: DegradeConfig::default(),
        }
    }
}

/// What a session corrects: the classic single camera, or a
/// multi-camera composite resolved through the same shared plan
/// cache. Composite sessions take their *output* dimensions from
/// [`SessionConfig::view`] (`width × height`); the config's lens,
/// view optics and source dims describe no camera of theirs and are
/// ignored.
#[derive(Clone, Debug)]
pub enum Workload {
    /// One camera, one remap plan per plane class.
    Single,
    /// N-camera panorama: one cache-shared [`RemapPlan`] per (camera,
    /// plane class), composited per the rig's blend geometry. Any
    /// byte format; frames arrive via [`Session::submit_rig`], one
    /// per rig camera in rig order.
    Panorama {
        /// The camera rig, in blend order.
        rig: CameraRig,
    },
    /// Rectified fisheye stereo pair: one cache-shared plan per eye
    /// over the shared epipolar-aligned surface. Gray sessions only;
    /// frames arrive via [`Session::submit_rig`] as `[left, right]`.
    StereoPair {
        /// The stereo rig (boxed so the enum stays register-sized).
        rig: Box<StereoRig>,
        /// Longitude span of the rectified grid, degrees.
        h_fov_deg: f64,
        /// Epipolar-plane-angle span of the rectified grid, degrees.
        v_fov_deg: f64,
    },
}

/// Per-session configuration presented at [`Server::connect`].
/// (`Clone` but not `Copy`: the post stage carries an `Arc`'d LUT.)
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The camera's lens.
    pub lens: FisheyeLens,
    /// The view this session renders.
    pub view: PerspectiveView,
    /// Source frame dimensions `(w, h)` — full-resolution (luma)
    /// dims for multi-plane formats.
    pub source: (u32, u32),
    /// The frame format this session submits (through
    /// [`Session::submit_frame`]) and receives.
    pub format: FrameFormat,
    /// Execution backend.
    pub backend: EngineSpec,
    /// Full-quality interpolation kernel.
    pub interp: Interpolator,
    /// Per-session post-correction color stage (grade / tone map /
    /// dither), identity by default. Shed wholesale at
    /// [`DegradeLevel::DropGrading`] and above.
    pub post: PostStage,
    /// Per-frame deadline override (`None` = server default).
    pub deadline: Option<Duration>,
    /// The session's workload shape — [`Workload::Single`] for the
    /// classic one-camera session; composite workloads route their
    /// per-camera plans through the same shared cache.
    pub workload: Workload,
}

impl SessionConfig {
    /// A serial-backend bilinear gray session for `lens`/`view`.
    pub fn new(lens: FisheyeLens, view: PerspectiveView, source: (u32, u32)) -> SessionConfig {
        SessionConfig {
            lens,
            view,
            source,
            format: FrameFormat::Gray8,
            backend: EngineSpec::Serial,
            interp: Interpolator::Bilinear,
            post: PostStage::identity(),
            deadline: None,
            workload: Workload::Single,
        }
    }
}

/// The cross-server admission budget: a claim/release counter over a
/// fixed session capacity. Clone-cheap (`Arc` inside); a sharded
/// front end hands every shard's [`Server`] a clone of one budget, so
/// capacity is enforced globally while each shard keeps its own
/// ladder and registry.
#[derive(Clone)]
pub struct AdmissionBudget {
    inner: Arc<BudgetInner>,
}

struct BudgetInner {
    active: AtomicUsize,
    capacity: usize,
}

impl std::fmt::Debug for AdmissionBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionBudget")
            .field("active", &self.active())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl AdmissionBudget {
    /// A budget admitting at most `capacity` concurrent sessions.
    pub fn new(capacity: usize) -> AdmissionBudget {
        AdmissionBudget {
            inner: Arc::new(BudgetInner {
                active: AtomicUsize::new(0),
                capacity,
            }),
        }
    }

    /// Total session capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Currently claimed sessions.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Claim one slot: `Ok(new_active)` or `Err(active)` when spent.
    fn claim(&self) -> Result<usize, usize> {
        self.inner
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.inner.capacity).then_some(n + 1)
            })
            .map(|prev| prev + 1)
    }

    /// Release one slot, returning the remaining active count.
    fn release(&self) -> usize {
        self.inner.active.fetch_sub(1, Ordering::SeqCst) - 1
    }
}

struct LadderState {
    level: usize,
    window: Vec<bool>,
}

struct ServerInner {
    cfg: ServerConfig,
    cache: PlanCache,
    metrics: Registry,
    budget: AdmissionBudget,
    next_id: AtomicU64,
    ladder: Mutex<LadderState>,
    /// Shared worker pool for row-parallel map traces, created on the
    /// first multi-threaded compile. `par_runtime`'s broadcast is
    /// single-submitter, so the pool lives behind its mutex:
    /// concurrent cache misses serialize their traces.
    map_pool: Mutex<Option<ThreadPool>>,
}

/// The serving front end: admission control plus the shared plan
/// cache, metrics registry and degradation controller. Clone-cheap;
/// clones are handles onto one server.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("capacity", &self.inner.cfg.capacity)
            .field("active", &self.active_sessions())
            .field("level", &self.level())
            .finish()
    }
}

impl Server {
    /// A server with `cfg`, validating it ([`fisheye::Error::Config`]
    /// on nonsense — never a panic).
    pub fn new(cfg: ServerConfig) -> Result<Server, fisheye::Error> {
        let budget = AdmissionBudget::new(cfg.capacity);
        let cache = PlanCache::new(cfg.plan_cache_capacity)?;
        Server::with_parts(cfg, budget, cache, Registry::new())
    }

    /// A server assembled from externally owned parts — the shard
    /// constructor. A sharded front end builds N of these sharing one
    /// [`AdmissionBudget`] (capacity is global) and one [`PlanCache`]
    /// (a clone: compiles single-flight machine-wide, and only
    /// admission and view changes take its lock), while each carries
    /// a private [`Registry`] merged at snapshot time, so nothing on
    /// the frame path crosses a shard boundary.
    pub fn with_parts(
        cfg: ServerConfig,
        budget: AdmissionBudget,
        cache: PlanCache,
        metrics: Registry,
    ) -> Result<Server, fisheye::Error> {
        if budget.capacity() == 0 {
            return Err(fisheye::Error::config("server capacity must be at least 1"));
        }
        if cfg.queue_depth == 0 {
            return Err(fisheye::Error::config("queue depth must be at least 1"));
        }
        if cfg.threads == 0 {
            return Err(fisheye::Error::config("threads must be at least 1"));
        }
        if cfg.degrade.window == 0 {
            return Err(fisheye::Error::config("degrade window must be at least 1"));
        }
        let (up, down) = (cfg.degrade.up_threshold, cfg.degrade.down_threshold);
        if !(0.0..=1.0).contains(&up) || !(0.0..=1.0).contains(&down) || down >= up {
            return Err(fisheye::Error::config(
                "degrade thresholds must satisfy 0 <= down < up <= 1",
            ));
        }
        metrics.gauge("serve.degrade.level", 0.0);
        // one labeled gauge per rung, so a scrape shows *which* rung
        // is active by name, not just a bare index
        for rung in DegradeLevel::LADDER {
            let active = rung == DegradeLevel::Normal;
            metrics.gauge(
                &format!("serve.degrade.rung.{}", rung.name()),
                if active { 1.0 } else { 0.0 },
            );
        }
        metrics.gauge("serve.sessions.active", 0.0);
        Ok(Server {
            inner: Arc::new(ServerInner {
                cfg,
                cache,
                metrics,
                budget,
                next_id: AtomicU64::new(1),
                ladder: Mutex::new(LadderState {
                    level: 0,
                    window: Vec::new(),
                }),
                map_pool: Mutex::new(None),
            }),
        })
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// Currently admitted sessions (across every server sharing this
    /// one's admission budget).
    pub fn active_sessions(&self) -> usize {
        self.inner.budget.active()
    }

    /// The admission budget this server claims slots from.
    pub fn budget(&self) -> &AdmissionBudget {
        &self.inner.budget
    }

    /// The configuration this server runs.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// The ladder's current level.
    pub fn level(&self) -> DegradeLevel {
        DegradeLevel::from_index(self.inner.ladder.lock().level)
    }

    /// Admit a session, or reject it when the capacity budget is
    /// spent. The session's first plan comes from the shared cache —
    /// identical views across sessions compile once.
    pub fn connect(&self, cfg: SessionConfig) -> Result<Session, fisheye::Error> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.connect_with_id(cfg, id)
    }

    /// [`Server::connect`] with a caller-assigned session id — the
    /// sharded front end's entry point, where the acceptor assigns
    /// globally unique ids and routes each connection to the shard
    /// its id hashes to (so the shard's server must not mint its
    /// own).
    pub fn connect_with_id(&self, cfg: SessionConfig, id: u64) -> Result<Session, fisheye::Error> {
        let active = match self.inner.budget.claim() {
            Ok(active) => active,
            Err(full) => {
                self.inner.metrics.inc("serve.rejected");
                return Err(fisheye::Error::Rejected {
                    active: full,
                    capacity: self.inner.budget.capacity(),
                });
            }
        };
        match self.admit(cfg, id) {
            Ok(session) => {
                self.inner.metrics.inc("serve.admitted");
                self.inner
                    .metrics
                    .gauge("serve.sessions.active", active as f64);
                Ok(session)
            }
            Err(e) => {
                self.inner.budget.release();
                Err(e)
            }
        }
    }

    fn admit(&self, cfg: SessionConfig, id: u64) -> Result<Session, fisheye::Error> {
        let single = matches!(cfg.workload, Workload::Single);
        // composites run on the host executors: accelerator specs
        // have no multi-source gather
        if !single && !cfg.backend.is_host() {
            return Err(fisheye::Error::config(format!(
                "composite sessions run on host backends, not {}",
                cfg.backend.name()
            )));
        }
        // a composite on a kernel-locked backend (bilinear-only simd)
        // hands its executors the locked kernel from the start instead
        // of failing per frame; plans hold no kernel, so the choice
        // reaches only the engine or executor, never a plan key
        let interp = match cfg.backend.capabilities().interp_locked {
            Some(locked) if !single => locked,
            _ => cfg.interp,
        };
        let opts = PlanOptions::for_specs(&[cfg.backend]);
        let dims = (cfg.view.width, cfg.view.height);
        let work = match &cfg.workload {
            Workload::Single => {
                let plan =
                    self.view_plan_for(&cfg.lens, &cfg.view, cfg.source, cfg.format, &opts, None)?;
                Workhorse::Single(Box::new(
                    Corrector::builder()
                        .lens(cfg.lens)
                        .view(cfg.view)
                        .source(cfg.source.0, cfg.source.1)
                        .format(cfg.format)
                        .backend(cfg.backend)
                        .interp(interp)
                        .post_stage(cfg.post.clone())
                        .threads(self.inner.cfg.threads)
                        .view_plan(plan)
                        .build()?,
                ))
            }
            Workload::Panorama { rig } => Workhorse::Panorama {
                plan: self.composite_plan_for(rig, cfg.format, dims, &opts, None)?,
                rig: rig.clone(),
            },
            Workload::StereoPair {
                rig,
                h_fov_deg,
                v_fov_deg,
            } => {
                if cfg.format != FrameFormat::Gray8 {
                    return Err(fisheye::Error::config(format!(
                        "stereo sessions serve gray8, not {}",
                        cfg.format
                    )));
                }
                let fovs = (*h_fov_deg, *v_fov_deg);
                Workhorse::Stereo {
                    plan: self.stereo_plan_for(rig, dims, fovs, &opts, None)?,
                    rig: rig.clone(),
                    fovs,
                }
            }
        };
        // a single session's corrector compiles its own post tables
        // and owns its engine's pool
        let (post, smp) = if single {
            (Vec::new(), None)
        } else {
            let smp = matches!(cfg.backend, EngineSpec::Smp { .. })
                .then(|| ThreadPool::new(self.inner.cfg.threads.max(1)));
            (cfg.format.compile_post(&cfg.post), smp)
        };
        let pool_dims = work.plane_dims();
        Ok(Session {
            id,
            server: self.clone(),
            base_view: cfg.view,
            base_interp: cfg.interp,
            format: cfg.format,
            spec: cfg.backend,
            deadline: cfg.deadline.unwrap_or(self.inner.cfg.frame_deadline),
            applied_view: cfg.view,
            interp,
            graded: !cfg.post.is_identity(),
            base_post: cfg.post,
            post,
            smp,
            work,
            queue: VecDeque::new(),
            seq: 0,
            applied: DegradeLevel::Normal,
            pool: primed_pool(&pool_dims),
            pool_dims,
            pool_seen: (0, 0),
        })
    }

    /// Compile-through-cache for one (lens, view, source, format,
    /// options) request: one cache entry **per plane class**, so a
    /// YUV session's full-res luma plan is the same cache entry a gray
    /// session of the same view uses, and its half-res chroma plan is
    /// shared with every other 4:2:0 session — never confused with a
    /// full-res plan thanks to the class-salted digest.
    ///
    /// `base` is the session's outgoing plan, when the request is a
    /// view *change* rather than a first compile: a cache miss then
    /// delta-recompiles from the matching class plan
    /// ([`Server::cached_plan`]).
    fn view_plan_for(
        &self,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        (src_w, src_h): (u32, u32),
        format: FrameFormat,
        opts: &PlanOptions,
        base: Option<&ViewPlan>,
    ) -> Result<ViewPlan, fisheye::Error> {
        let plans = ViewPlan::plane_requests(format, lens, view, src_w, src_h)
            .into_iter()
            .map(|req| {
                let prev = base.and_then(|b| b.class_plan(req.class));
                self.cached_plan(req.digest(opts), opts, prev, || self.build_plane_map(&req))
            })
            .collect();
        self.inner.cache.export(&self.inner.metrics, "serve.cache");
        Ok(ViewPlan::from_plans(format, plans)?)
    }

    /// Compile-through-cache for one panorama composite: one cache
    /// entry **per (camera, plane class)**, keyed by
    /// [`panorama_camera_digest`] over the class-scaled rig geometry.
    /// Two panorama sessions sharing a camera orientation share that
    /// camera's plans; the composite segment/weight program is
    /// assembled per session (it is cheap relative to a plan compile
    /// and carries no interpolation state).
    ///
    /// `base` is the session's outgoing composite on a rig or view
    /// *change*: a per-camera cache miss then delta-recompiles from
    /// the same camera's outgoing class plan — so a one-camera rig
    /// rotation recompiles only that camera's plans (counted under
    /// `serve.plan.delta_recompiles`) while every other camera's
    /// plans are cache hits.
    fn composite_plan_for(
        &self,
        rig: &CameraRig,
        format: FrameFormat,
        (out_w, out_h): (u32, u32),
        opts: &PlanOptions,
        base: Option<&CompositeViewPlan>,
    ) -> Result<CompositeViewPlan, fisheye::Error> {
        let classes = format.classes();
        let mut class_plans = Vec::with_capacity(classes.len());
        for (ci, &class) in classes.iter().enumerate() {
            let (cw, ch) = class.apply((out_w, out_h));
            let class_rig = if class.scale() == 1.0 {
                rig.clone()
            } else {
                rig.scaled(class.scale())
            };
            let mut sources = Vec::with_capacity(class_rig.len());
            for (cam_i, cam) in class_rig.cameras().iter().enumerate() {
                let digest = panorama_camera_digest(cam, cw, ch, opts);
                let prev = base
                    .and_then(|b| b.class_plans().get(ci))
                    .and_then(|p| p.sources().get(cam_i));
                sources.push(
                    self.cached_plan(digest, opts, prev, || panorama_camera_map(cam, cw, ch)),
                );
            }
            class_plans.push(CompositePlan::from_rig_plans(&class_rig, sources, cw, ch));
        }
        self.inner.cache.export(&self.inner.metrics, "serve.cache");
        CompositeViewPlan::from_plans(format, class_plans, out_w, out_h)
            .map_err(fisheye::Error::config)
    }

    /// Compile-through-cache for one stereo pair: one cache entry per
    /// eye, keyed by [`rectified_camera_digest`] over the shared
    /// rectified surface. A pure-translation rig's two eyes share one
    /// digest — and therefore one cached plan — by construction.
    fn stereo_plan_for(
        &self,
        rig: &StereoRig,
        (out_w, out_h): (u32, u32),
        (h_fov_deg, v_fov_deg): (f64, f64),
        opts: &PlanOptions,
        base: Option<&StereoPlan>,
    ) -> Result<StereoPlan, fisheye::Error> {
        let pair = rig.rectify(out_w, out_h, h_fov_deg, v_fov_deg);
        let mut eyes = Vec::with_capacity(2);
        for (eye, prev) in [
            (&rig.left, base.map(|b| &b.left)),
            (&rig.right, base.map(|b| &b.right)),
        ] {
            let digest = rectified_camera_digest(&pair, eye, opts);
            eyes.push(self.cached_plan(digest, opts, prev, || rectified_camera_map(&pair, eye)));
        }
        self.inner.cache.export(&self.inner.metrics, "serve.cache");
        let right = eyes.pop();
        let left = eyes.pop();
        match (left, right) {
            (Some(left), Some(right)) => Ok(StereoPlan { pair, left, right }),
            // two pushes above: structurally unreachable
            _ => Err(fisheye::Error::config("stereo plan resolution lost an eye")),
        }
    }

    /// Resolve one plan through the shared cache under `digest`, the
    /// plan's geometric digest. A hit returns the cached plan. A miss
    /// traces the map with `map` and delta-recompiles it from `prev`,
    /// the session's outgoing plan for the same plane or camera, when
    /// `prev` can seed it ([`RemapPlan::can_seed`]: compiled under
    /// `opts`, with the map's output and source dimensions), counted
    /// under `serve.plan.delta_recompiles`: bit-exact, same digest,
    /// much cheaper for small view perturbations. Otherwise — no
    /// outgoing plan, other options, or a size change such as
    /// `HalfRes` — it compiles cold.
    ///
    /// The key holds geometry and plan options alone. A session's
    /// kernel and post stage shape its output bytes but not its plans,
    /// so sessions of one view share one entry whatever their kernel
    /// or grading.
    fn cached_plan(
        &self,
        digest: u64,
        opts: &PlanOptions,
        prev: Option<&Arc<RemapPlan>>,
        map: impl FnOnce() -> RemapMap,
    ) -> Arc<RemapPlan> {
        self.inner.cache.get_or_compile(digest, || {
            let map = map();
            match prev {
                Some(prev) if prev.can_seed(opts, (map.width(), map.height()), map.src_dims()) => {
                    self.inner.metrics.inc("serve.plan.delta_recompiles");
                    prev.recompile(map)
                }
                _ => RemapPlan::compile(&map, opts.clone()),
            }
        })
    }

    /// Trace one plane request's map, row-parallel on the server's
    /// shared pool when the server is configured multi-threaded. The
    /// pool mutex is held across the whole trace (single-submitter
    /// broadcast), so concurrent compiles queue here rather than
    /// corrupt each other.
    fn build_plane_map(&self, req: &PlaneRequest) -> RemapMap {
        if self.inner.cfg.threads <= 1 {
            return req.build_map(None);
        }
        let mut slot = self.inner.map_pool.lock();
        let pool = slot.get_or_insert_with(|| ThreadPool::new(self.inner.cfg.threads));
        req.build_map(Some((pool, Schedule::Static { chunk: None })))
    }

    /// Record one completed frame's deadline fate and run the ladder
    /// controller over the closing window.
    fn note_frame(&self, missed: bool) {
        let cfg = self.inner.cfg.degrade;
        let mut st = self.inner.ladder.lock();
        st.window.push(missed);
        if st.window.len() < cfg.window {
            return;
        }
        let transition = evaluate_window(&cfg, &mut st);
        drop(st);
        self.record_transition(transition);
    }

    /// Evaluate whatever partial window is in flight (one sample is
    /// enough) instead of discarding it. Sessions call this on
    /// teardown so sustained misses straddling a close still count;
    /// a serving loop may also call it at shutdown. A full window is
    /// never left partial by `note_frame`, so this only ever sees the
    /// in-flight tail.
    pub fn flush_window(&self) {
        let cfg = self.inner.cfg.degrade;
        let mut st = self.inner.ladder.lock();
        if st.window.is_empty() {
            return;
        }
        let transition = evaluate_window(&cfg, &mut st);
        drop(st);
        self.record_transition(transition);
    }

    fn record_transition(&self, transition: Option<(&'static str, usize)>) {
        if let Some((counter, level)) = transition {
            self.inner.metrics.inc(counter);
            self.inner
                .metrics
                .gauge("serve.degrade.level", level as f64);
            for rung in DegradeLevel::LADDER {
                let active = rung.index() == level;
                self.inner.metrics.gauge(
                    &format!("serve.degrade.rung.{}", rung.name()),
                    if active { 1.0 } else { 0.0 },
                );
            }
        }
    }
}

/// Close the window: compute its miss ratio, clear it, and walk the
/// ladder at most one rung. Returns the transition counter to bump
/// and the new level, if the level moved. Callers hold the ladder
/// lock; metrics happen after it drops.
fn evaluate_window(cfg: &DegradeConfig, st: &mut LadderState) -> Option<(&'static str, usize)> {
    let misses = st.window.iter().filter(|&&m| m).count();
    let ratio = misses as f64 / st.window.len() as f64;
    st.window.clear();
    let max = DegradeLevel::LADDER.len() - 1;
    if ratio >= cfg.up_threshold && st.level < max {
        st.level += 1;
        Some(("serve.degrade.escalations", st.level))
    } else if ratio <= cfg.down_threshold && st.level > 0 {
        st.level -= 1;
        Some(("serve.degrade.recoveries", st.level))
    } else {
        None
    }
}

/// What happened to a submitted frame at the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued for the next pump.
    Queued,
    /// Queued; the oldest pending frame (whose sequence number is
    /// carried) was shed to make room — the drop-oldest rung.
    DroppedOldest(u64),
    /// Refused: the queue is full and the server is not shedding.
    DroppedNewest,
}

/// One pending frame — single-camera sessions queue one shared
/// frame, composite sessions one frame per rig camera.
enum SourceFrame {
    Single(Arc<Frame>),
    Rig(Vec<Arc<Frame>>),
}

/// One pending frame.
struct Pending {
    seq: u64,
    submitted: Instant,
    frame: SourceFrame,
}

/// A session's output pool, primed for one frame in flight plus one
/// the caller still holds.
fn primed_pool(dims: &[(u32, u32)]) -> PlanePool<Gray8> {
    let pool = PlanePool::new(dims);
    pool.prime(2);
    pool
}

/// A corrected frame leaving [`Session::pump_one`] on pooled buffers:
/// the session's format and one plane per output buffer, in plane
/// order — one plane for gray8, `y`/`cb`/`cr` for yuv420, `r`/`g`/`b`
/// for rgb8, and `[left, right]` for a stereo pair (two gray8 eyes
/// on the rectified grid). Dropping it recycles every buffer into the
/// session's pool; [`PooledFrame::detach`] keeps an image.
pub struct ServedFrame {
    format: FrameFormat,
    planes: Vec<PooledFrame<Gray8>>,
}

impl ServedFrame {
    /// Full-resolution output dims (the first plane's).
    pub fn dims(&self) -> (u32, u32) {
        self.planes[0].dims()
    }

    /// The served format ([`FrameFormat::Gray8`] for a stereo pair).
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// The corrected planes, in plane order.
    pub fn planes(&self) -> &[PooledFrame<Gray8>] {
        &self.planes
    }

    /// The corrected planes, in plane order, by value; dropping them
    /// recycles them.
    pub fn into_planes(self) -> Vec<PooledFrame<Gray8>> {
        self.planes
    }
}

impl std::fmt::Debug for ServedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedFrame")
            .field("format", &self.format())
            .field("dims", &self.dims())
            .finish()
    }
}

/// A corrected frame leaving [`Session::pump_one`]. Dropping it
/// recycles the output buffer(s) into the session's pool;
/// [`PooledFrame::detach`] keeps an image.
pub struct FrameOutcome {
    /// Submission sequence number.
    pub seq: u64,
    /// Submit → corrected latency.
    pub latency: Duration,
    /// Whether the deadline was missed.
    pub missed: bool,
    /// Ladder level the frame was served at.
    pub level: DegradeLevel,
    /// Engine-attributed execution report: the engine's (or composite
    /// executor's) own for a one-plane gray8 frame, merged across
    /// planes for a multi-plane format or a stereo pair, with
    /// per-plane `<label>.*` model keys.
    pub report: FrameReport,
    /// The corrected frame, on pooled buffers.
    pub frame: ServedFrame,
}

impl std::fmt::Debug for FrameOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameOutcome")
            .field("seq", &self.seq)
            .field("latency", &self.latency)
            .field("missed", &self.missed)
            .field("level", &self.level)
            .finish()
    }
}

/// The plans behind one session, per workload shape, at the applied
/// view. The single-camera variant keeps the classic facade corrector
/// (with its engine); composite variants hold only geometry and plans
/// and run through the host executors with the session's spec,
/// kernel, post plans and pool.
enum Workhorse {
    Single(Box<Corrector<Gray8>>),
    Panorama {
        rig: CameraRig,
        /// Per-class composites.
        plan: CompositeViewPlan,
    },
    Stereo {
        rig: Box<StereoRig>,
        /// Rectified grid spans `(h_fov_deg, v_fov_deg)`.
        fovs: (f64, f64),
        /// Both eye plans over the shared surface.
        plan: StereoPlan,
    },
}

impl Workhorse {
    /// Output dimensions of every served buffer, in plane order —
    /// what sizes the session pool.
    fn plane_dims(&self) -> Vec<(u32, u32)> {
        match self {
            Workhorse::Single(c) => c.view_plan().plane_dims(),
            Workhorse::Panorama { plan, .. } => plan.plane_dims(),
            Workhorse::Stereo { plan, .. } => {
                let dims = (plan.pair.width, plan.pair.height);
                vec![dims, dims]
            }
        }
    }
}

/// One admitted view-session: cache-shared plans, a bounded frame
/// queue and a pooled output path. Dropping the session releases its
/// admission slot.
pub struct Session {
    id: u64,
    server: Server,
    base_view: PerspectiveView,
    base_interp: Interpolator,
    base_post: PostStage,
    format: FrameFormat,
    spec: EngineSpec,
    deadline: Duration,
    /// Applied output view: the base view, halved at `HalfRes`.
    applied_view: PerspectiveView,
    /// Applied interpolation kernel.
    interp: Interpolator,
    /// Whether the base grading is applied.
    graded: bool,
    /// A composite's compiled post plan per plane (`None` where the
    /// applied stage is inert); empty for a single session, whose
    /// corrector compiles its own.
    post: Vec<Option<PostPlan>>,
    /// Row pool a composite's `smp` executors share.
    smp: Option<ThreadPool>,
    work: Workhorse,
    queue: VecDeque<Pending>,
    seq: u64,
    applied: DegradeLevel,
    pool: PlanePool<Gray8>,
    pool_dims: Vec<(u32, u32)>,
    /// Pool counters already flushed into the registry.
    pool_seen: (u64, u64),
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shed_pending();
        self.flush_pool_counters();
        self.server.flush_window();
        let left = self.server.inner.budget.release();
        self.server.inner.metrics.inc("serve.sessions.closed");
        self.server
            .inner
            .metrics
            .gauge("serve.sessions.active", left as f64);
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("view", &self.base_view)
            .field("pending", &self.queue.len())
            .field("applied", &self.applied)
            .finish()
    }
}

impl Session {
    /// Server-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The full-quality view this session renders.
    pub fn view(&self) -> PerspectiveView {
        self.base_view
    }

    /// The frame format this session serves.
    pub fn format(&self) -> FrameFormat {
        self.format
    }

    /// Frames waiting to be pumped.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The sequence number the *next* submitted frame will get
    /// (assigned even to refused frames). The network front end uses
    /// this to map its clients' wire sequence numbers onto the
    /// session's internal ones.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Per-frame latency budget.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// The ladder level this session last reconfigured to (sessions
    /// follow the server's level lazily, at their next pump).
    pub fn applied_level(&self) -> DegradeLevel {
        self.applied
    }

    /// The session's corrector (its plan, spec and dims are the
    /// currently *applied* — possibly degraded — configuration), when
    /// this is a single-camera session: composite sessions execute
    /// through their plans ([`Session::composite_plan`],
    /// [`Session::stereo_plan`]), not a facade corrector.
    pub fn corrector(&self) -> Option<&Corrector<Gray8>> {
        match &self.work {
            Workhorse::Single(c) => Some(c),
            _ => None,
        }
    }

    /// The applied panorama composite, when this is a panorama
    /// session.
    pub fn composite_plan(&self) -> Option<&CompositeViewPlan> {
        match &self.work {
            Workhorse::Panorama { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The applied stereo plan, when this is a stereo session.
    pub fn stereo_plan(&self) -> Option<&StereoPlan> {
        match &self.work {
            Workhorse::Stereo { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// Point the session at a new view. The plan comes from the
    /// shared cache — if any session already watches this view with
    /// the same plan options (those of its backend; its kernel plays
    /// no part), the switch is a lookup, not a compile. On a composite
    /// session the view supplies the output dimensions; its plans
    /// re-resolve through the cache at the new size.
    pub fn set_view(&mut self, view: PerspectiveView) -> Result<(), fisheye::Error> {
        if view.width == 0 || view.height == 0 {
            return Err(fisheye::Error::config("view dimensions must be positive"));
        }
        let old = self.base_view;
        self.base_view = view;
        let level = self.applied;
        if let Err(e) = self.reconfigure(level) {
            self.base_view = old;
            return Err(e);
        }
        self.server.inner.metrics.inc("serve.view_changes");
        Ok(())
    }

    /// Queue a frame for correction on a single-camera session. Sheds
    /// per the current ladder level when the queue is full; never
    /// blocks, never grows past the configured depth. The frame's
    /// format must match the session's; a mismatch surfaces at the
    /// pump as a config error.
    pub fn submit_frame(&mut self, frame: Arc<Frame>) -> SubmitOutcome {
        self.enqueue(SourceFrame::Single(frame))
    }

    /// Queue one frame per rig camera for a composite session
    /// (panorama: rig order; stereo: `[left, right]`), with the same
    /// shedding rules as [`Session::submit_frame`]. Count and format
    /// mismatches surface at the pump.
    pub fn submit_rig(&mut self, frames: Vec<Arc<Frame>>) -> SubmitOutcome {
        self.enqueue(SourceFrame::Rig(frames))
    }

    /// Re-orient a panorama session's rig. Plans resolve through the
    /// shared cache per camera: cameras that did not move are cache
    /// hits, and a moved camera's plans delta-recompile from their
    /// outgoing selves (`serve.plan.delta_recompiles`) instead of
    /// compiling cold — the "one camera nudged" fast path.
    pub fn set_rig(&mut self, rig: CameraRig) -> Result<(), fisheye::Error> {
        let opts = self.plan_options();
        let Workhorse::Panorama { rig: current, plan } = &mut self.work else {
            return Err(fisheye::Error::config(
                "set_rig reconfigures panorama sessions",
            ));
        };
        if rig.len() != current.len() {
            return Err(fisheye::Error::config(format!(
                "session rig has {} cameras, got {}",
                current.len(),
                rig.len()
            )));
        }
        let dims = (self.applied_view.width, self.applied_view.height);
        *plan = self
            .server
            .composite_plan_for(&rig, self.format, dims, &opts, Some(plan))?;
        *current = rig;
        self.server.metrics().inc("serve.view_changes");
        Ok(())
    }

    /// Shed every pending frame without correcting it, returning the
    /// shed sequence numbers. This is the drain half of a graceful
    /// shutdown (and runs implicitly when a session drops), counted
    /// under `serve.frames.shed_shutdown` so the conservation
    /// invariant — submitted = completed + dropped + shed + pending —
    /// holds through teardown.
    pub fn shed_pending(&mut self) -> Vec<u64> {
        let seqs: Vec<u64> = self.queue.drain(..).map(|p| p.seq).collect();
        if !seqs.is_empty() {
            self.server
                .metrics()
                .add("serve.frames.shed_shutdown", seqs.len() as u64);
        }
        seqs
    }

    fn enqueue(&mut self, frame: SourceFrame) -> SubmitOutcome {
        let m = self.server.metrics();
        m.inc("serve.frames.submitted");
        let seq = self.seq;
        self.seq += 1;
        let pending = Pending {
            seq,
            submitted: Instant::now(),
            frame,
        };
        if self.queue.len() >= self.server.inner.cfg.queue_depth {
            if self.server.level() >= DegradeLevel::DropOldest {
                let shed = self.queue.pop_front();
                self.queue.push_back(pending);
                m.inc("serve.frames.dropped_oldest");
                return match shed {
                    Some(p) => SubmitOutcome::DroppedOldest(p.seq),
                    None => SubmitOutcome::Queued,
                };
            }
            m.inc("serve.frames.dropped_newest");
            return SubmitOutcome::DroppedNewest;
        }
        self.queue.push_back(pending);
        SubmitOutcome::Queued
    }

    /// Correct the oldest pending frame (after syncing to the
    /// server's ladder level), or `Ok(None)` when idle. Errors are
    /// engine failures — configuration mistakes surfaced per-frame,
    /// e.g. a submitted frame whose dimensions don't match the lens.
    pub fn pump_one(&mut self) -> Result<Option<FrameOutcome>, fisheye::Error> {
        let level = self.server.level();
        if level != self.applied {
            self.reconfigure(level)?;
        }
        let Some(pending) = self.queue.pop_front() else {
            return Ok(None);
        };
        self.sync_pool();
        let (report, frame) = self.correct_pending(&pending.frame)?;
        let latency = pending.submitted.elapsed();
        let missed = latency > self.deadline;
        let m = self.server.metrics();
        m.inc("serve.frames.completed");
        m.observe("serve.latency_us", latency);
        m.inc(&format!("serve.degrade.frames.{}", self.applied.name()));
        if missed {
            m.inc("serve.frames.deadline_missed");
        }
        m.absorb_frame_report("serve.engine", &report);
        if self.format.is_multi_plane() {
            for label in self.format.plane_labels() {
                if let Some(ms) = report.model.get(&format!("{label}.correct_ms")) {
                    m.observe(
                        &format!("serve.plane.{label}.correct_us"),
                        Duration::from_secs_f64(ms.max(0.0) / 1e3),
                    );
                }
            }
        }
        self.flush_pool_counters();
        self.server.note_frame(missed);
        Ok(Some(FrameOutcome {
            seq: pending.seq,
            latency,
            missed,
            level: self.applied,
            report,
            frame,
        }))
    }

    /// Route one pending frame through the session's workhorse onto
    /// pooled output buffers.
    fn correct_pending(
        &self,
        src: &SourceFrame,
    ) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
        match &self.work {
            Workhorse::Single(corrector) => correct_single(corrector, self.format, &self.pool, src),
            Workhorse::Panorama { rig, plan } => {
                self.correct_panorama(plan, rig_frames(src, rig.len(), "panorama")?)
            }
            Workhorse::Stereo { plan, .. } => {
                self.correct_stereo(plan, rig_frames(src, 2, "stereo")?)
            }
        }
    }

    /// Composite one panorama output from per-camera frames, plane by
    /// plane through the host composite executor. A single-plane format
    /// returns the executor's report unchanged; a multi-plane format
    /// merges the per-plane reports under the plane labels.
    fn correct_panorama(
        &self,
        plan: &CompositeViewPlan,
        frames: &[Arc<Frame>],
    ) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
        let format = self.format;
        for (i, f) in frames.iter().enumerate() {
            if f.format() != format {
                return Err(fisheye::Error::config(format!(
                    "panorama session serves {format}, camera {i} submitted {}",
                    f.format()
                )));
            }
        }
        let plane_sets: Vec<Vec<&Image<Gray8>>> = frames.iter().map(|f| f.planes()).collect();
        let composite = |p: usize, out: &mut Image<Gray8>| -> Result<FrameReport, fisheye::Error> {
            let plane_srcs: Vec<&Image<Gray8>> = plane_sets.iter().map(|set| set[p]).collect();
            Ok(execute_composite_host(
                &self.spec,
                self.interp,
                &plane_srcs,
                plan.plane_plan(p),
                self.post[p].as_ref(),
                self.smp.as_ref(),
                out,
            )?)
        };
        let mut planes = self.pool.acquire();
        let report = if let [out] = &mut planes[..] {
            composite(0, out)?
        } else {
            let mut merged = FrameReport::new(self.spec.name());
            for (p, (out, label)) in planes.iter_mut().zip(format.plane_labels()).enumerate() {
                merged.merge_plane(label, &composite(p, out)?);
            }
            merged
        };
        Ok((report, ServedFrame { format, planes }))
    }

    /// Correct both eyes of a stereo pair through the host executor
    /// onto the pool's two eye buffers, merging the per-eye reports
    /// under `left.` / `right.` keys.
    fn correct_stereo(
        &self,
        plan: &StereoPlan,
        frames: &[Arc<Frame>],
    ) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
        let mut eyes = Vec::with_capacity(2);
        for (i, f) in frames.iter().enumerate() {
            match f.as_ref() {
                Frame::Gray8(img) => eyes.push(img),
                other => {
                    return Err(fisheye::Error::config(format!(
                        "stereo sessions serve gray8, eye {i} submitted {}",
                        other.format()
                    )))
                }
            }
        }
        let post = self.post.first().and_then(Option::as_ref);
        let mut planes = self.pool.acquire();
        let mut merged = FrameReport::new(self.spec.name());
        let eye_plans = [&plan.left, &plan.right];
        for (i, (out, label)) in planes.iter_mut().zip(["left", "right"]).enumerate() {
            let report = execute_host_post(
                &self.spec,
                self.interp,
                eyes[i],
                eye_plans[i],
                post,
                self.smp.as_ref(),
                out,
            )?;
            merged.merge_plane(label, &report);
        }
        Ok((
            merged,
            ServedFrame {
                format: self.format,
                planes,
            },
        ))
    }

    /// The plan options the session resolves plans under: its
    /// spec's artifact set.
    fn plan_options(&self) -> PlanOptions {
        PlanOptions::for_specs(&[self.spec])
    }

    /// Apply `level`. A rung sets the kernel, the output view and
    /// whether grading runs, each derived from the session's base so
    /// levels compose and recovery is exact, and only what differs
    /// from the applied state changes: a grading change recompiles
    /// post tables, a kernel change rebuilds a single session's
    /// engine, and a view change resolves plans through the cache,
    /// the outgoing plans seeding delta recompilation on a miss.
    fn reconfigure(&mut self, level: DegradeLevel) -> Result<(), fisheye::Error> {
        // grading is shed at DropGrading and stays shed above it;
        // restored exactly from the session's base on recovery
        let graded = level < DegradeLevel::DropGrading && !self.base_post.is_identity();
        if graded != self.graded {
            if !graded {
                self.server.metrics().inc("serve.degrade.post_shed");
            }
            let stage = if graded {
                self.base_post.clone()
            } else {
                PostStage::identity()
            };
            match &mut self.work {
                Workhorse::Single(corrector) => corrector.set_post(stage),
                _ => self.post = self.format.compile_post(&stage),
            }
            self.graded = graded;
        }
        let steps = match level {
            DegradeLevel::Normal | DegradeLevel::DropOldest => 0,
            DegradeLevel::InterpDown => 1,
            DegradeLevel::InterpFloor | DegradeLevel::DropGrading | DegradeLevel::HalfRes => 2,
        };
        let mut interp = downgrade(self.base_interp, steps);
        // a kernel-locked backend (bilinear-only simd) skips the
        // interpolation rungs: its capabilities declare the lock up
        // front, and degradation must never take a session down
        if let Some(locked) = self.spec.capabilities().interp_locked {
            if locked != interp {
                self.server
                    .metrics()
                    .inc("serve.degrade.interp_unsupported");
            }
            interp = locked;
        }
        if interp != self.interp {
            if let Workhorse::Single(corrector) = &mut self.work {
                corrector.set_interp(interp)?;
            }
            self.interp = interp;
        }
        let view = if level == DegradeLevel::HalfRes {
            halved(self.base_view)
        } else {
            self.base_view
        };
        if view != self.applied_view {
            self.resolve_plans(view)?;
        }
        self.applied = level;
        Ok(())
    }

    /// Resolve the session's plans for `view` (for a composite, its
    /// output dims) through the server's cache.
    fn resolve_plans(&mut self, view: PerspectiveView) -> Result<(), fisheye::Error> {
        let opts = self.plan_options();
        let dims = (view.width, view.height);
        let server = &self.server;
        match &mut self.work {
            Workhorse::Single(corrector) => {
                let plan = server.view_plan_for(
                    &corrector.lens(),
                    &view,
                    corrector.source_dims(),
                    self.format,
                    &opts,
                    Some(corrector.view_plan()),
                )?;
                corrector.set_view_plan(view, plan)?;
            }
            Workhorse::Panorama { rig, plan } => {
                *plan = server.composite_plan_for(rig, self.format, dims, &opts, Some(plan))?;
            }
            Workhorse::Stereo { rig, fovs, plan } => {
                *plan = server.stereo_plan_for(rig, dims, *fovs, &opts, Some(plan))?;
            }
        }
        self.applied_view = view;
        Ok(())
    }

    /// Swap the output pool(s) when a reconfigure changed output dims.
    fn sync_pool(&mut self) {
        let dims = self.work.plane_dims();
        if dims != self.pool_dims {
            self.flush_pool_counters();
            self.pool = primed_pool(&dims);
            self.pool_dims = dims;
            self.pool_seen = (0, 0);
        }
    }

    /// Push pool hit/miss deltas into the shared registry.
    fn flush_pool_counters(&mut self) {
        let (hits, misses) = (self.pool.hits(), self.pool.misses());
        let m = self.server.metrics();
        m.add("serve.pool.hits", hits - self.pool_seen.0);
        m.add("serve.pool.misses", misses - self.pool_seen.1);
        self.pool_seen = (hits, misses);
    }
}

/// `steps` kernel downgrades from `interp`, saturating at nearest.
fn downgrade(interp: Interpolator, steps: u32) -> Interpolator {
    let mut cur = interp;
    for _ in 0..steps {
        cur = match cur {
            Interpolator::Bicubic => Interpolator::Bilinear,
            Interpolator::Bilinear | Interpolator::Nearest => Interpolator::Nearest,
        };
    }
    cur
}

/// `view` at half output resolution, same optics.
fn halved(view: PerspectiveView) -> PerspectiveView {
    PerspectiveView {
        width: (view.width / 2).max(1),
        height: (view.height / 2).max(1),
        ..view
    }
}

/// The single-camera frame path: correct one pending frame through
/// the corrector's frame layer onto pooled planes.
fn correct_single(
    corrector: &Corrector<Gray8>,
    format: FrameFormat,
    pool: &PlanePool<Gray8>,
    src: &SourceFrame,
) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
    let SourceFrame::Single(frame) = src else {
        return Err(fisheye::Error::config(
            "single-camera sessions take one frame via submit_frame",
        ));
    };
    if frame.format() != format {
        return Err(fisheye::Error::config(format!(
            "session serves {format}, got a {} frame",
            frame.format()
        )));
    }
    let mut planes = pool.acquire();
    let report = corrector
        .frame_corrector()
        .correct_u8_planes_into(frame, &mut planes)?;
    Ok((report, ServedFrame { format, planes }))
}

/// The per-camera frames of a composite session's pending source.
fn rig_frames<'a>(
    src: &'a SourceFrame,
    want: usize,
    kind: &str,
) -> Result<&'a [Arc<Frame>], fisheye::Error> {
    let SourceFrame::Rig(frames) = src else {
        return Err(fisheye::Error::config(format!(
            "{kind} sessions take one frame per camera via submit_rig"
        )));
    };
    if frames.len() != want {
        return Err(fisheye::Error::config(format!(
            "{kind} session expects {want} camera frames, got {}",
            frames.len()
        )));
    }
    Ok(frames)
}

/// Drive `sessions` round-robin until all queues drain or `budget`
/// wall time elapses — the serving loop's inner step. The budget is
/// what creates overload pressure: with more work queued than the
/// budget covers, frames age, deadlines slip, and the ladder engages.
/// The registry counts what a round served (`serve.frames.completed`,
/// `serve.frames.deadline_missed`).
pub fn pump_round(sessions: &mut [Session], budget: Duration) -> Result<(), fisheye::Error> {
    let started = Instant::now();
    loop {
        let mut any = false;
        for session in sessions.iter_mut() {
            if started.elapsed() >= budget {
                return Ok(());
            }
            if session.pump_one()?.is_some() {
                any = true;
            }
        }
        if !any {
            return Ok(());
        }
    }
}
