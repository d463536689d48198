//! Admission control, sessions and the degradation ladder.
//!
//! A [`Server`] owns the shared [`PlanCache`] and [`Registry`] and
//! admits [`Session`]s against a fixed capacity budget: past the cap,
//! [`Server::connect`] returns [`fisheye::Error::Rejected`]
//! immediately — there is no wait queue to grow without bound, the
//! caller decides whether to retry. Each admitted session owns a
//! [`Corrector`] resolved from its [`EngineSpec`], a bounded frame
//! queue and a [`FramePool`] of output buffers, and measures every
//! frame against its deadline.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye::Corrector;
use fisheye_core::composite::{
    execute_composite_host, panorama_camera_digest, panorama_camera_map, rectified_camera_digest,
    rectified_camera_map, CompositePlan, CompositeViewPlan, StereoPlan,
};
use fisheye_core::engine::{
    build_host, CorrectionEngine, EngineSpec, FrameReport, HostCtx, HostEnv,
};
use fisheye_core::frame::{Frame, FrameFormat, PlaneRequest, ViewPlan};
use fisheye_core::map::RemapMap;
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::post::{PostChannel, PostPlan, PostStage};
use fisheye_core::Interpolator;
use fisheye_geom::{CameraRig, FisheyeLens, PerspectiveView, StereoRig};
use par_runtime::sync::Mutex;
use par_runtime::{Schedule, ThreadPool};
use pixmap::{FramePool, Gray8, Image, PlanePool, PooledFrame};

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
    /// The frame format this session submits and receives. Gray
    /// sessions use [`Session::submit`]; multi-plane sessions use
    /// [`Session::submit_frame`]. `grayf32` is not servable (the
    /// serving layer's pools and ladder are byte-plane machinery).
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
/// cache, ladder and registry.
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
    /// [`AdmissionBudget`] (capacity is global) while each carries a
    /// private hot [`PlanCache`] (usually
    /// [`with_cold_tier`](PlanCache::with_cold_tier) over one shared
    /// cold cache) and a private [`Registry`] merged at snapshot
    /// time, so nothing on the frame path crosses a shard boundary.
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
        // admission is format-capability driven: the pools, ladder
        // and wire protocol are byte-plane machinery, so any format
        // without u8 planes is refused up front
        if !cfg.format.has_u8_planes() {
            return Err(fisheye::Error::config(format!(
                "the serving layer corrects byte formats; {} is not servable",
                cfg.format
            )));
        }
        let work = match &cfg.workload {
            Workload::Single => Workhorse::Single(self.admit_single(&cfg)?),
            Workload::Panorama { rig } => Workhorse::Panorama(self.admit_panorama(&cfg, rig)?),
            Workload::StereoPair {
                rig,
                h_fov_deg,
                v_fov_deg,
            } => Workhorse::Stereo(self.admit_stereo(&cfg, rig, *h_fov_deg, *v_fov_deg)?),
        };
        let (pool, pool_dims) = SessionPool::for_dims(&work.plane_dims());
        Ok(Session {
            id,
            server: self.clone(),
            base_view: cfg.view,
            base_interp: cfg.interp,
            base_post: cfg.post,
            format: cfg.format,
            deadline: cfg.deadline.unwrap_or(self.inner.cfg.frame_deadline),
            work,
            queue: VecDeque::new(),
            seq: 0,
            applied: DegradeLevel::Normal,
            pool,
            pool_dims,
            pool_seen: (0, 0),
        })
    }

    /// Build the classic single-camera corrector on a cache-shared
    /// plan.
    fn admit_single(&self, cfg: &SessionConfig) -> Result<Corrector<Gray8>, fisheye::Error> {
        let (src_w, src_h) = cfg.source;
        let plan = self.view_plan_for(
            &cfg.lens,
            &cfg.view,
            (src_w, src_h),
            cfg.format,
            &cfg.backend,
            cfg.interp,
            &cfg.post,
            None,
        )?;
        Corrector::builder()
            .lens(cfg.lens)
            .view(cfg.view)
            .source(src_w, src_h)
            .format(cfg.format)
            .backend(cfg.backend)
            .interp(cfg.interp)
            .post_stage(cfg.post.clone())
            .threads(self.inner.cfg.threads)
            .view_plan(plan)
            .build()
    }

    /// Build a panorama session's state: per-camera plans through the
    /// shared cache, one composite per plane class.
    fn admit_panorama(
        &self,
        cfg: &SessionConfig,
        rig: &CameraRig,
    ) -> Result<PanoramaState, fisheye::Error> {
        // the composite executor is the plan-consuming host path:
        // accelerator specs have no multi-source gather, and direct
        // mode has no plan to composite through
        if !cfg.backend.is_host() || matches!(cfg.backend, EngineSpec::Direct) {
            return Err(fisheye::Error::config(format!(
                "panorama sessions run on plan-consuming host backends, not {}",
                cfg.backend.name()
            )));
        }
        // a kernel-locked backend (bilinear-only simd) serves its
        // locked kernel from the start instead of failing per-frame
        let interp = cfg
            .backend
            .capabilities()
            .interp_locked
            .unwrap_or(cfg.interp);
        let dims = (cfg.view.width, cfg.view.height);
        let plan =
            self.composite_plan_for(rig, cfg.format, dims, &cfg.backend, interp, &cfg.post, None)?;
        let pool = match cfg.backend {
            EngineSpec::Smp { .. } => Some(ThreadPool::new(self.inner.cfg.threads.max(1))),
            _ => None,
        };
        Ok(PanoramaState {
            rig: rig.clone(),
            spec: cfg.backend,
            plan,
            interp,
            dims,
            post: cfg.format.compile_post(&cfg.post),
            graded: !cfg.post.is_identity(),
            pool,
        })
    }

    /// Build a stereo session's state: both eye plans through the
    /// shared cache over one rectified surface.
    fn admit_stereo(
        &self,
        cfg: &SessionConfig,
        rig: &StereoRig,
        h_fov_deg: f64,
        v_fov_deg: f64,
    ) -> Result<StereoState, fisheye::Error> {
        if cfg.format != FrameFormat::Gray8 {
            return Err(fisheye::Error::config(format!(
                "stereo sessions serve gray8, not {}",
                cfg.format
            )));
        }
        let interp = cfg
            .backend
            .capabilities()
            .interp_locked
            .unwrap_or(cfg.interp);
        let engine = build_host::<Gray8>(
            &cfg.backend,
            &HostCtx {
                interp,
                threads: self.inner.cfg.threads,
                geometry: None,
            },
        )?;
        let dims = (cfg.view.width, cfg.view.height);
        let plan = self.stereo_plan_for(
            rig,
            dims,
            (h_fov_deg, v_fov_deg),
            &cfg.backend,
            interp,
            &cfg.post,
            None,
        )?;
        let graded = !cfg.post.is_identity();
        Ok(StereoState {
            rig: rig.clone(),
            fovs: (h_fov_deg, v_fov_deg),
            spec: cfg.backend,
            plan,
            engine,
            interp,
            dims,
            post: if graded {
                Some(cfg.post.compile(PostChannel::Luma))
            } else {
                None
            },
            graded,
        })
    }

    /// Compile-through-cache for one (lens, view, source, format,
    /// backend, interp) request: one cache entry **per plane class**,
    /// so a YUV session's full-res luma plan is the same cache entry
    /// a gray session of the same view uses, and its half-res chroma
    /// plan is shared with every other 4:2:0 session — never confused
    /// with a full-res plan thanks to the class-salted digest.
    ///
    /// `base` is the session's outgoing plan, when the request is a
    /// view *change* rather than a first compile: a cache miss then
    /// delta-recompiles from the matching class plan instead of
    /// compiling cold — bit-exact, same digest, much cheaper for
    /// small view perturbations. A base compiled under different
    /// [`PlanOptions`] (e.g. across a degradation rung's interp
    /// change) is ignored: its digests live in a different key space
    /// and must never seed this one.
    ///
    /// The session's post stage salts the digest (identity stages
    /// don't): a cache entry's key then covers everything that shapes
    /// the session's output bytes, matching the facade's
    /// `request_digest` contract, and shedding the grading at
    /// [`DegradeLevel::DropGrading`] re-keys the session onto the
    /// plans ungraded sessions of the same view already share.
    #[allow(clippy::too_many_arguments)]
    fn view_plan_for(
        &self,
        lens: &FisheyeLens,
        view: &PerspectiveView,
        (src_w, src_h): (u32, u32),
        format: FrameFormat,
        spec: &EngineSpec,
        interp: Interpolator,
        post: &PostStage,
        base: Option<&ViewPlan>,
    ) -> Result<ViewPlan, fisheye::Error> {
        let opts = PlanOptions::for_spec(spec, interp);
        let post_salt = if post.is_identity() { 0 } else { post.digest() };
        let plans = ViewPlan::plane_requests(format, lens, view, src_w, src_h)
            .into_iter()
            .map(|req| {
                let digest = req.digest(&opts) ^ post_salt;
                self.inner.cache.get_or_compile(digest, || {
                    match base.and_then(|b| b.class_plan(req.class)) {
                        Some(prev) if prev.opts() == &opts => {
                            self.inner.metrics.inc("serve.plan.delta_recompiles");
                            prev.recompile(self.build_plane_map(&req))
                        }
                        _ => RemapPlan::compile(&self.build_plane_map(&req), opts.clone()),
                    }
                })
            })
            .collect();
        self.inner.cache.export(&self.inner.metrics, "serve.cache");
        Ok(ViewPlan::from_plans(format, plans)?)
    }

    /// Compile-through-cache for one panorama composite: one cache
    /// entry **per (camera, plane class)**, keyed by
    /// [`panorama_camera_digest`] over the class-scaled rig geometry
    /// and salted by the post stage exactly like [`Server::view_plan_for`].
    /// Two panorama sessions sharing a camera orientation share that
    /// camera's plans; the composite segment/weight program is
    /// assembled per session (it is cheap relative to a plan compile
    /// and carries no interpolation state).
    ///
    /// `base` is the session's outgoing composite on a rig or quality
    /// *change*: a per-camera cache miss then delta-recompiles from
    /// the same camera's outgoing class plan — so a one-camera rig
    /// rotation recompiles only that camera's plans (counted under
    /// `serve.plan.delta_recompiles`) while every other camera's
    /// plans are cache hits.
    #[allow(clippy::too_many_arguments)]
    fn composite_plan_for(
        &self,
        rig: &CameraRig,
        format: FrameFormat,
        (out_w, out_h): (u32, u32),
        spec: &EngineSpec,
        interp: Interpolator,
        post: &PostStage,
        base: Option<&CompositeViewPlan>,
    ) -> Result<CompositeViewPlan, fisheye::Error> {
        let opts = PlanOptions::for_spec(spec, interp);
        let post_salt = if post.is_identity() { 0 } else { post.digest() };
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
                let digest = panorama_camera_digest(cam, cw, ch, &opts) ^ post_salt;
                let prev = base
                    .and_then(|b| b.class_plans().get(ci))
                    .and_then(|p| p.sources().get(cam_i))
                    .cloned();
                let plan = self.inner.cache.get_or_compile(digest, || match prev {
                    Some(prev) if prev.opts() == &opts => {
                        self.inner.metrics.inc("serve.plan.delta_recompiles");
                        prev.recompile(panorama_camera_map(cam, cw, ch))
                    }
                    _ => RemapPlan::compile(&panorama_camera_map(cam, cw, ch), opts.clone()),
                });
                sources.push(plan);
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
    #[allow(clippy::too_many_arguments)]
    fn stereo_plan_for(
        &self,
        rig: &StereoRig,
        (out_w, out_h): (u32, u32),
        (h_fov_deg, v_fov_deg): (f64, f64),
        spec: &EngineSpec,
        interp: Interpolator,
        post: &PostStage,
        base: Option<&StereoPlan>,
    ) -> Result<StereoPlan, fisheye::Error> {
        let opts = PlanOptions::for_spec(spec, interp);
        let post_salt = if post.is_identity() { 0 } else { post.digest() };
        let pair = rig.rectify(out_w, out_h, h_fov_deg, v_fov_deg);
        let mut eyes = Vec::with_capacity(2);
        for (eye, prev) in [
            (&rig.left, base.map(|b| Arc::clone(&b.left))),
            (&rig.right, base.map(|b| Arc::clone(&b.right))),
        ] {
            let digest = rectified_camera_digest(&pair, eye, &opts) ^ post_salt;
            let plan = self.inner.cache.get_or_compile(digest, || match prev {
                Some(prev) if prev.opts() == &opts => {
                    self.inner.metrics.inc("serve.plan.delta_recompiles");
                    prev.recompile(rectified_camera_map(&pair, eye))
                }
                _ => RemapPlan::compile(&rectified_camera_map(&pair, eye), opts.clone()),
            });
            eyes.push(plan);
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

/// One pending frame — gray sessions queue shared images, format
/// sessions queue shared multi-plane frames, composite sessions
/// queue one frame per rig camera.
enum SourceFrame {
    Gray(Arc<Image<Gray8>>),
    Multi(Arc<Frame>),
    Rig(Vec<Arc<Frame>>),
}

/// One pending frame.
struct Pending {
    seq: u64,
    submitted: Instant,
    frame: SourceFrame,
}

/// The session's output-buffer pool: one full-res pool for gray
/// sessions, one pool per plane size class for format sessions.
enum SessionPool {
    Gray(FramePool<Gray8>),
    Planes(PlanePool<Gray8>),
}

impl SessionPool {
    /// Build (and prime) the pool for one output buffer per entry of
    /// `dims`, returning the per-plane dims it was sized for. One
    /// plane pools as a gray frame; several (a multi-plane format's
    /// planes, or a stereo session's two eyes) pool per plane.
    fn for_dims(dims: &[(u32, u32)]) -> (SessionPool, Vec<(u32, u32)>) {
        let pool = if dims.len() > 1 {
            let pool = PlanePool::new(dims);
            pool.prime(2);
            SessionPool::Planes(pool)
        } else {
            let pool = FramePool::new(dims[0].0, dims[0].1);
            pool.prime(2);
            SessionPool::Gray(pool)
        };
        (pool, dims.to_vec())
    }

    fn counters(&self) -> (u64, u64) {
        match self {
            SessionPool::Gray(p) => (p.hits(), p.misses()),
            SessionPool::Planes(p) => (p.hits(), p.misses()),
        }
    }
}

/// A corrected frame leaving [`Session::pump_one`] on pooled buffers.
/// Dropping it recycles every buffer into the session's pool;
/// [`PooledFrame::detach`] keeps an image.
pub enum ServedFrame {
    /// A gray session's single corrected plane.
    Gray(PooledFrame<Gray8>),
    /// A format session's corrected planes, in plane order
    /// (`y`/`cb`/`cr` or `r`/`g`/`b`).
    Planes {
        /// The session's frame format.
        format: FrameFormat,
        /// One corrected buffer per plane.
        planes: Vec<PooledFrame<Gray8>>,
    },
    /// A stereo session's rectified pair, epipolar-row-aligned.
    Stereo {
        /// Left eye on the rectified grid.
        left: PooledFrame<Gray8>,
        /// Right eye on the rectified grid.
        right: PooledFrame<Gray8>,
    },
}

impl ServedFrame {
    /// Full-resolution output dims (the first plane's).
    pub fn dims(&self) -> (u32, u32) {
        match self {
            ServedFrame::Gray(f) => f.dims(),
            ServedFrame::Planes { planes, .. } => planes[0].dims(),
            ServedFrame::Stereo { left, .. } => left.dims(),
        }
    }

    /// The served format ([`FrameFormat::Gray8`] for gray and stereo
    /// sessions — a stereo output is two gray planes).
    pub fn format(&self) -> FrameFormat {
        match self {
            ServedFrame::Gray(_) | ServedFrame::Stereo { .. } => FrameFormat::Gray8,
            ServedFrame::Planes { format, .. } => *format,
        }
    }

    /// The gray plane, when this is a gray session's output.
    pub fn as_gray(&self) -> Option<&PooledFrame<Gray8>> {
        match self {
            ServedFrame::Gray(f) => Some(f),
            ServedFrame::Planes { .. } | ServedFrame::Stereo { .. } => None,
        }
    }

    /// The rectified eye pair, when this is a stereo session's output.
    pub fn as_stereo(&self) -> Option<(&PooledFrame<Gray8>, &PooledFrame<Gray8>)> {
        match self {
            ServedFrame::Stereo { left, right } => Some((left, right)),
            _ => None,
        }
    }

    /// All planes in plane order, uniformly (a gray output is one
    /// plane, a stereo output is `[left, right]`). Consumes the
    /// frame; dropping the planes recycles them.
    pub fn into_planes(self) -> Vec<PooledFrame<Gray8>> {
        match self {
            ServedFrame::Gray(f) => vec![f],
            ServedFrame::Planes { planes, .. } => planes,
            ServedFrame::Stereo { left, right } => vec![left, right],
        }
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
    /// Engine-attributed execution report (merged across planes for
    /// format sessions, with per-plane `<label>.*` model keys).
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

/// The execution state behind one session, per workload shape. The
/// single-camera variant keeps the classic facade corrector;
/// composite variants hold their cache-resolved plans plus whatever
/// executes them, at the currently *applied* (possibly degraded)
/// quality.
enum Workhorse {
    Single(Corrector<Gray8>),
    Panorama(PanoramaState),
    Stereo(StereoState),
}

impl Workhorse {
    /// Output dimensions of every served buffer, in plane order —
    /// what sizes the session pool.
    fn plane_dims(&self) -> Vec<(u32, u32)> {
        match self {
            Workhorse::Single(c) => c.view_plan().plane_dims(),
            Workhorse::Panorama(st) => st.plan.plane_dims(),
            Workhorse::Stereo(st) => {
                let dims = (st.plan.pair.width, st.plan.pair.height);
                vec![dims, dims]
            }
        }
    }
}

/// Applied state of a panorama session.
struct PanoramaState {
    rig: CameraRig,
    spec: EngineSpec,
    /// Per-class composites at the applied quality.
    plan: CompositeViewPlan,
    /// Applied interpolation kernel.
    interp: Interpolator,
    /// Applied full-resolution output dims.
    dims: (u32, u32),
    /// Compiled post plan per plane (`None` where the applied stage
    /// is inert).
    post: Vec<Option<PostPlan>>,
    /// Whether the session's base grading is currently applied.
    graded: bool,
    /// Worker pool for the smp spec.
    pool: Option<ThreadPool>,
}

/// Applied state of a stereo session.
struct StereoState {
    rig: StereoRig,
    /// Rectified grid spans `(h_fov_deg, v_fov_deg)`.
    fovs: (f64, f64),
    spec: EngineSpec,
    /// Both eye plans over the shared surface, at applied quality.
    plan: StereoPlan,
    /// Host engine both eyes run through.
    engine: Box<dyn CorrectionEngine<Gray8>>,
    /// Applied interpolation kernel.
    interp: Interpolator,
    /// Applied rectified-grid dims.
    dims: (u32, u32),
    /// Compiled post plan (`None` when ungraded).
    post: Option<PostPlan>,
    /// Whether the session's base grading is currently applied.
    graded: bool,
}

/// One admitted view-session: a corrector on a cache-shared plan, a
/// bounded frame queue and a pooled output path. Dropping the session
/// releases its admission slot.
pub struct Session {
    id: u64,
    server: Server,
    base_view: PerspectiveView,
    base_interp: Interpolator,
    base_post: PostStage,
    format: FrameFormat,
    deadline: Duration,
    work: Workhorse,
    queue: VecDeque<Pending>,
    seq: u64,
    applied: DegradeLevel,
    pool: SessionPool,
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
    /// currently *applied* — possibly degraded — configuration).
    /// Single-camera sessions only: composite sessions execute
    /// through their plans, not a facade corrector.
    ///
    /// # Panics
    /// On a panorama or stereo session.
    pub fn corrector(&self) -> &Corrector<Gray8> {
        match &self.work {
            Workhorse::Single(c) => c,
            _ => panic!("composite sessions have no single-camera corrector"),
        }
    }

    /// The applied panorama composite, when this is a panorama
    /// session.
    pub fn composite_plan(&self) -> Option<&CompositeViewPlan> {
        match &self.work {
            Workhorse::Panorama(st) => Some(&st.plan),
            _ => None,
        }
    }

    /// The applied stereo plan, when this is a stereo session.
    pub fn stereo_plan(&self) -> Option<&StereoPlan> {
        match &self.work {
            Workhorse::Stereo(st) => Some(&st.plan),
            _ => None,
        }
    }

    /// Point the session at a new view. The plan comes from the
    /// shared cache — if any session already watches this view (at
    /// this quality), the switch is a lookup, not a compile. On a
    /// composite session the view supplies the output dimensions;
    /// its plans re-resolve through the cache at the new size.
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

    /// Queue a gray frame for correction. Sheds per the current
    /// ladder level when the queue is full; never blocks, never grows
    /// past the configured depth. On a multi-plane session the
    /// mismatch surfaces at the pump as a config error — use
    /// [`Session::submit_frame`] there.
    pub fn submit(&mut self, frame: Arc<Image<Gray8>>) -> SubmitOutcome {
        self.enqueue(SourceFrame::Gray(frame))
    }

    /// Queue a multi-plane frame for correction — the format-session
    /// counterpart of [`Session::submit`], with the same shedding
    /// rules. The frame's format must match the session's
    /// (a gray [`Frame`] on a gray session is fine); mismatches
    /// surface at the pump.
    pub fn submit_frame(&mut self, frame: Arc<Frame>) -> SubmitOutcome {
        self.enqueue(SourceFrame::Multi(frame))
    }

    /// Queue one frame per rig camera for a composite session
    /// (panorama: rig order; stereo: `[left, right]`), with the same
    /// shedding rules as [`Session::submit`]. Count and format
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
        let Workhorse::Panorama(st) = &mut self.work else {
            return Err(fisheye::Error::config(
                "set_rig reconfigures panorama sessions",
            ));
        };
        if rig.len() != st.rig.len() {
            return Err(fisheye::Error::config(format!(
                "session rig has {} cameras, got {}",
                st.rig.len(),
                rig.len()
            )));
        }
        let stage = if st.graded {
            self.base_post.clone()
        } else {
            PostStage::identity()
        };
        let plan = self.server.composite_plan_for(
            &rig,
            self.format,
            st.dims,
            &st.spec,
            st.interp,
            &stage,
            Some(&st.plan),
        )?;
        st.rig = rig;
        st.plan = plan;
        self.server.inner.metrics.inc("serve.view_changes");
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
        &mut self,
        src: &SourceFrame,
    ) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
        match &self.work {
            Workhorse::Single(corrector) => correct_single(corrector, self.format, &self.pool, src),
            Workhorse::Panorama(st) => {
                let frames = rig_frames(src, st.rig.len(), "panorama")?;
                correct_panorama(st, self.format, &self.pool, frames)
            }
            Workhorse::Stereo(st) => {
                let frames = rig_frames(src, 2, "stereo")?;
                correct_stereo(st, &self.pool, frames)
            }
        }
    }

    /// Apply `level` to the workhorse: interpolation downgrade and/or
    /// half-resolution plan swap, both derived from the session's
    /// full-quality base so levels compose and recovery is exact.
    /// Composite sessions walk the same rungs; their re-resolved
    /// plans seed per-camera delta recompilation from the outgoing
    /// plans.
    fn reconfigure(&mut self, level: DegradeLevel) -> Result<(), fisheye::Error> {
        let desired_interp = match level {
            DegradeLevel::Normal | DegradeLevel::DropOldest => self.base_interp,
            DegradeLevel::InterpDown => downgrade(self.base_interp, 1),
            DegradeLevel::InterpFloor | DegradeLevel::DropGrading | DegradeLevel::HalfRes => {
                downgrade(self.base_interp, 2)
            }
        };
        let desired_view = if level == DegradeLevel::HalfRes {
            halved(self.base_view)
        } else {
            self.base_view
        };
        // grading is shed at DropGrading and stays shed above it;
        // restored exactly from the session's base on recovery
        let desired_graded = level < DegradeLevel::DropGrading && !self.base_post.is_identity();
        let desired_post = if desired_graded {
            self.base_post.clone()
        } else {
            PostStage::identity()
        };
        let server = self.server.clone();
        let format = self.format;
        match &mut self.work {
            Workhorse::Single(corrector) => {
                if corrector.post_stage().digest() != desired_post.digest() {
                    if desired_post.is_identity() {
                        server.inner.metrics.inc("serve.degrade.post_shed");
                    }
                    corrector.set_post(desired_post);
                }
                if corrector.interp() != desired_interp {
                    // an engine locked to one kernel (the bilinear-only
                    // SIMD path) skips the rung — its capabilities
                    // declare the lock up front, so no trial rebuild is
                    // needed, and degradation must never take a session
                    // down
                    match corrector.spec().capabilities().interp_locked {
                        Some(locked) if locked != desired_interp => {
                            server.inner.metrics.inc("serve.degrade.interp_unsupported");
                        }
                        _ => corrector.set_interp(desired_interp)?,
                    }
                }
                if corrector.view() != Some(desired_view) {
                    // the outgoing plan seeds delta recompilation on a
                    // cache miss — a small pan recompiles only the rows
                    // it moved
                    let post = corrector.post_stage().clone();
                    let plan = server.view_plan_for(
                        &corrector.lens(),
                        &desired_view,
                        corrector.source_dims(),
                        format,
                        &corrector.spec(),
                        corrector.interp(),
                        &post,
                        Some(corrector.view_plan()),
                    )?;
                    corrector.set_view_plan(desired_view, plan)?;
                }
            }
            Workhorse::Panorama(st) => {
                let desired_interp = clamp_locked_interp(&server, &st.spec, desired_interp);
                let desired_dims = (desired_view.width, desired_view.height);
                if st.graded && !desired_graded {
                    server.inner.metrics.inc("serve.degrade.post_shed");
                }
                if st.interp != desired_interp
                    || st.dims != desired_dims
                    || st.graded != desired_graded
                {
                    let plan = server.composite_plan_for(
                        &st.rig,
                        format,
                        desired_dims,
                        &st.spec,
                        desired_interp,
                        &desired_post,
                        Some(&st.plan),
                    )?;
                    st.plan = plan;
                    st.interp = desired_interp;
                    st.dims = desired_dims;
                    if st.graded != desired_graded {
                        st.graded = desired_graded;
                        st.post = format.compile_post(&desired_post);
                    }
                }
            }
            Workhorse::Stereo(st) => {
                let desired_interp = clamp_locked_interp(&server, &st.spec, desired_interp);
                let desired_dims = (desired_view.width, desired_view.height);
                if st.graded && !desired_graded {
                    server.inner.metrics.inc("serve.degrade.post_shed");
                }
                if st.interp != desired_interp
                    || st.dims != desired_dims
                    || st.graded != desired_graded
                {
                    let plan = server.stereo_plan_for(
                        &st.rig,
                        desired_dims,
                        st.fovs,
                        &st.spec,
                        desired_interp,
                        &desired_post,
                        Some(&st.plan),
                    )?;
                    if st.interp != desired_interp {
                        st.engine = build_host::<Gray8>(
                            &st.spec,
                            &HostCtx {
                                interp: desired_interp,
                                threads: server.inner.cfg.threads,
                                geometry: None,
                            },
                        )?;
                    }
                    st.plan = plan;
                    st.interp = desired_interp;
                    st.dims = desired_dims;
                    if st.graded != desired_graded {
                        st.graded = desired_graded;
                        st.post = if desired_graded {
                            Some(desired_post.compile(PostChannel::Luma))
                        } else {
                            None
                        };
                    }
                }
            }
        }
        self.applied = level;
        Ok(())
    }

    /// Swap the output pool(s) when a reconfigure changed output dims.
    fn sync_pool(&mut self) {
        let dims = self.work.plane_dims();
        if dims != self.pool_dims {
            self.flush_pool_counters();
            let (pool, pool_dims) = SessionPool::for_dims(&dims);
            self.pool = pool;
            self.pool_dims = pool_dims;
            self.pool_seen = (0, 0);
        }
    }

    /// Push pool hit/miss deltas into the shared registry.
    fn flush_pool_counters(&mut self) {
        let (hits, misses) = self.pool.counters();
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

/// A kernel-locked backend (the bilinear-only SIMD path) skips
/// interpolation rungs: keep its locked kernel and count the skipped
/// rung, so degradation never takes a session down.
fn clamp_locked_interp(server: &Server, spec: &EngineSpec, desired: Interpolator) -> Interpolator {
    match spec.capabilities().interp_locked {
        Some(locked) => {
            if locked != desired {
                server.inner.metrics.inc("serve.degrade.interp_unsupported");
            }
            locked
        }
        None => desired,
    }
}

/// The single-camera frame path: route one pending source through
/// the corrector onto pooled buffers.
fn correct_single(
    corrector: &Corrector<Gray8>,
    format: FrameFormat,
    pool: &SessionPool,
    src: &SourceFrame,
) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
    match (pool, src) {
        (SessionPool::Gray(pool), SourceFrame::Gray(img)) => {
            let mut out = pool.acquire();
            let report = corrector.correct_into(img, &mut out)?;
            Ok((report, ServedFrame::Gray(out)))
        }
        // a gray session accepts a gray Frame too, so feeds can be
        // format-uniform
        (SessionPool::Gray(pool), SourceFrame::Multi(f)) => match f.as_ref() {
            Frame::Gray8(img) => {
                let mut out = pool.acquire();
                let report = corrector.correct_into(img, &mut out)?;
                Ok((report, ServedFrame::Gray(out)))
            }
            other => Err(fisheye::Error::config(format!(
                "session serves {}, got a {} frame",
                format,
                other.format()
            ))),
        },
        (SessionPool::Planes(pool), SourceFrame::Multi(f)) => {
            if f.format() != format {
                return Err(fisheye::Error::config(format!(
                    "session serves {}, got a {} frame",
                    format,
                    f.format()
                )));
            }
            let srcs = f
                .u8_planes()
                .expect("grayf32 sessions are rejected at connect");
            let mut planes = pool.acquire();
            let mut refs: Vec<&mut Image<Gray8>> = planes.iter_mut().map(|p| &mut **p).collect();
            let report = corrector
                .frame_corrector()
                .correct_u8_planes_into(&srcs, &mut refs)?;
            Ok((report, ServedFrame::Planes { format, planes }))
        }
        (SessionPool::Planes(_), SourceFrame::Gray(_)) => Err(fisheye::Error::config(format!(
            "session serves {}; submit a multi-plane Frame via submit_frame",
            format
        ))),
        (_, SourceFrame::Rig(_)) => Err(fisheye::Error::config(
            "single-camera sessions take one frame via submit/submit_frame",
        )),
    }
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

/// Composite one panorama output from per-camera frames, plane by
/// plane through the host composite executor.
fn correct_panorama(
    st: &PanoramaState,
    format: FrameFormat,
    pool: &SessionPool,
    frames: &[Arc<Frame>],
) -> Result<(FrameReport, ServedFrame), fisheye::Error> {
    for (i, f) in frames.iter().enumerate() {
        if f.format() != format {
            return Err(fisheye::Error::config(format!(
                "panorama session serves {format}, camera {i} submitted {}",
                f.format()
            )));
        }
    }
    let plane_sets: Vec<Vec<&Image<Gray8>>> = frames
        .iter()
        .map(|f| {
            f.u8_planes()
                .ok_or_else(|| fisheye::Error::config("grayf32 sessions are rejected at connect"))
        })
        .collect::<Result<_, _>>()?;
    let env = HostEnv {
        pool: st.pool.as_ref(),
        ..HostEnv::default()
    };
    match pool {
        SessionPool::Planes(pool) => {
            let labels = format.plane_labels();
            let mut merged = FrameReport::new(st.spec.name());
            let mut planes = pool.acquire();
            for (p, out) in planes.iter_mut().enumerate() {
                let plane_srcs: Vec<&Image<Gray8>> = plane_sets.iter().map(|set| set[p]).collect();
                let report = execute_composite_host(
                    &st.spec,
                    st.interp,
                    &plane_srcs,
                    st.plan.plane_plan(p),
                    st.post[p].as_ref(),
                    &env,
                    &mut **out,
                )?;
                merged.merge_plane(labels[p], &report);
            }
            Ok((merged, ServedFrame::Planes { format, planes }))
        }
        SessionPool::Gray(pool) => {
            let mut out = pool.acquire();
            let plane_srcs: Vec<&Image<Gray8>> = plane_sets.iter().map(|set| set[0]).collect();
            let report = execute_composite_host(
                &st.spec,
                st.interp,
                &plane_srcs,
                st.plan.plane_plan(0),
                st.post[0].as_ref(),
                &env,
                &mut *out,
            )?;
            Ok((report, ServedFrame::Gray(out)))
        }
    }
}

/// Correct both eyes of a stereo pair through the session's host
/// engine onto the pool's two eye buffers, merging the per-eye
/// reports under `left.` / `right.` keys.
fn correct_stereo(
    st: &StereoState,
    pool: &SessionPool,
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
    let SessionPool::Planes(pool) = pool else {
        return Err(fisheye::Error::config(
            "stereo session pool must hold two eye buffers",
        ));
    };
    let mut planes = pool.acquire();
    let mut merged = FrameReport::new(st.spec.name());
    let plans = [&st.plan.left, &st.plan.right];
    let labels = ["left", "right"];
    for (i, out) in planes.iter_mut().enumerate() {
        let report =
            st.engine
                .correct_frame_post(eyes[i], plans[i], st.post.as_ref(), &mut **out)?;
        merged.merge_plane(labels[i], &report);
    }
    let right = planes.pop();
    let left = planes.pop();
    match (left, right) {
        (Some(left), Some(right)) => Ok((merged, ServedFrame::Stereo { left, right })),
        // the pool is built from two eye dims: structurally unreachable
        _ => Err(fisheye::Error::config("stereo pool lost an eye buffer")),
    }
}

/// Aggregate result of one [`pump_round`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Frames corrected this round.
    pub processed: u64,
    /// Of those, frames over their deadline.
    pub missed: u64,
}

/// Drive `sessions` round-robin until all queues drain or `budget`
/// wall time elapses — the serving loop's inner step. The budget is
/// what creates overload pressure: with more work queued than the
/// budget covers, frames age, deadlines slip, and the ladder engages.
pub fn pump_round(sessions: &mut [Session], budget: Duration) -> Result<PumpStats, fisheye::Error> {
    let started = Instant::now();
    let mut stats = PumpStats::default();
    loop {
        let mut any = false;
        for session in sessions.iter_mut() {
            if started.elapsed() >= budget {
                return Ok(stats);
            }
            if let Some(outcome) = session.pump_one()? {
                stats.processed += 1;
                if outcome.missed {
                    stats.missed += 1;
                }
                any = true;
            }
        }
        if !any {
            return Ok(stats);
        }
    }
}
