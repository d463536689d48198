//! `console_churn`: an in-process `Server` (plan cache of 32 entries,
//! one worker) driven round by round from one thread, like a security
//! console whose operators keep switching views. With a worker per
//! core, where the scheduler placed the workers beside the driving
//! thread moved the timings by 6–13% of their medians from run to run,
//! with one worker by 3–7%; the planes of a frame and the rows of a map
//! trace now run one after another.
//!
//! Each round serves one frame on every session, after:
//! * three of the 24 single-camera sessions (VGA in, QVGA out; gray8
//!   and yuv420 across `serial`, `simd` and `fixed`) switch to another
//!   of 8 shared preset views — cache reads. The sessions take their
//!   turns in a seeded order, each once every 8 rounds, so every few
//!   rounds hold the same mix of session kinds;
//! * the PTZ session pans a fraction of a degree — a cache write and a
//!   delta recompile, which evicts presets;
//! * every fourth round, one camera of the 2-camera `serial` panorama
//!   is nudged.
//!
//! With `--trace 0`, a second of warm-up rounds precedes the timed
//! window, which is cut into one-second windows; the end-to-end figures
//! are read from the quiet ones (see [`crate::stats::quietest`]).
//!
//! Counts (cache, recompiles, allocations) are taken over the first
//! [`COUNT_ROUNDS`] rounds, which every run completes, so they repeat
//! exactly for a seed.

use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye::par::{Schedule, ThreadPool};
use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameFormat, PlaneClass, PlaneRequest};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::post::PostStage;
use fisheye_core::Interpolator;
use fisheye_geom::{CameraRig, FisheyeLens, Mat3, PerspectiveView};
use fisheye_serve::{
    CameraFeed, FrameOutcome, ServedFrame, Server, ServerConfig, Session, SessionConfig,
    SubmitOutcome, Workload,
};

use crate::report::{
    report_times, share_name, windows_detail, Json, RunOutput, GATHER_BYTES_PER_PX,
};
use crate::stats::{digest, kept, mean, median, quietest, Dist, Rng, Timeline, Windows, WINDOW_S};
use crate::trace::Trace;
use crate::{alloc, check, host, Args};

const SRC: (u32, u32) = (640, 480);
const OUT: (u32, u32) = (320, 240);
const PANO_OUT: (u32, u32) = (640, 320);
/// The server's worker threads.
const WORKERS: usize = 1;
const SINGLES: usize = 24;
const PRESETS: usize = 8;
const SWITCHES_PER_ROUND: usize = SINGLES / 8;
const NUDGE_EVERY: u64 = 4;
const FRAMES: usize = 6;
/// Rounds every run completes; the counts cover exactly these.
pub const COUNT_ROUNDS: u64 = 40;
/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed rounds before the timed window of a `--trace 0` run, s.
const WARMUP_S: f64 = 1.0;
/// PTZ views replayed through `build_map` and `recompile`.
const PTZ_REPLAY: usize = 60;
const PTZ_STEP_DEG: f64 = 0.3;
const PTZ_LIMIT_DEG: f64 = 35.0;
const NUDGE_LIMIT_DEG: f64 = 3.0;
const DEADLINE: Duration = Duration::from_secs(60);
const PTZ: usize = SINGLES;
const PANO: usize = SINGLES + 1;

/// The seeded inputs.
struct Inputs {
    lens: FisheyeLens,
    presets: Vec<PerspectiveView>,
    /// `(format, backend, first preset)` per single-camera session.
    singles: Vec<(FrameFormat, EngineSpec, usize)>,
    ptz: PerspectiveView,
    rig: CameraRig,
    gray: Vec<Arc<Frame>>,
    yuv: Vec<Arc<Frame>>,
    /// The order in which the single-camera sessions switch presets.
    switch_order: Vec<usize>,
    /// Seed of the per-round schedule.
    schedule: u64,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, "console_churn");
        let lens = FisheyeLens::equidistant_fov(SRC.0, SRC.1, 180.0);
        let presets = (0..PRESETS)
            .map(|_| {
                // one field of view, so seeds move the presets but not
                // their cost
                PerspectiveView::centered(OUT.0, OUT.1, 75.0)
                    .look(rng.range(-25.0, 25.0), rng.range(-12.0, 12.0))
            })
            .collect();
        let backends = [
            EngineSpec::Serial,
            EngineSpec::Simd,
            EngineSpec::FixedPoint { frac_bits: 12 },
        ];
        let singles = (0..SINGLES)
            .map(|i| {
                let backend = backends[i % 3];
                // Fixed sessions serve gray only: with them the presets
                // take 24 of the cache's 32 entries. Serial serves four
                // gray8 and four yuv420 sessions, simd three and five:
                // with these counts neither the median of a round's 26
                // frames nor that of 8 rounds' 32 switches falls on the
                // boundary between two kinds of session, where it would
                // rest on one extreme sample of each and jump from run
                // to run.
                let g = i / 3;
                let gray = match backend {
                    EngineSpec::FixedPoint { .. } => true,
                    EngineSpec::Simd => g % 2 == 0 && g < 6,
                    _ => g % 2 == 0,
                };
                let format = if gray {
                    FrameFormat::Gray8
                } else {
                    FrameFormat::Yuv420
                };
                (format, backend, rng.below(PRESETS))
            })
            .collect();
        let ptz = PerspectiveView::centered(OUT.0, OUT.1, 75.0)
            .look(rng.range(-20.0, 20.0), rng.range(-8.0, 8.0));
        let mut feed = CameraFeed::new(SRC.0, SRC.1, rng.next_u64());
        let mut frames = |format| -> Vec<Arc<Frame>> {
            (0..FRAMES).map(|_| feed.next_frame_in(format)).collect()
        };
        let gray = frames(FrameFormat::Gray8);
        let yuv = frames(FrameFormat::Yuv420);
        Inputs {
            lens,
            presets,
            singles,
            ptz,
            rig: CameraRig::symmetric(SRC.0, SRC.1, 200.0),
            gray,
            yuv,
            switch_order: shuffled(SINGLES, &mut rng),
            schedule: rng.next_u64(),
        }
    }

    fn frame(&self, format: FrameFormat, k: usize) -> &Arc<Frame> {
        match format {
            FrameFormat::Yuv420 => &self.yuv[k],
            _ => &self.gray[k],
        }
    }

    fn rig_frames(&self, k: usize) -> Vec<Arc<Frame>> {
        vec![
            Arc::clone(&self.gray[k]),
            Arc::clone(&self.gray[(k + 1) % FRAMES]),
        ]
    }

    fn fingerprint(&self) -> Json {
        let views = self
            .presets
            .iter()
            .chain([&self.ptz])
            .flat_map(|v| [v.pan.to_bits(), v.tilt.to_bits(), v.h_fov.to_bits()])
            .chain([self.schedule])
            .chain(self.switch_order.iter().map(|&i| i as u64))
            .fold(0u64, |h, b| h.rotate_left(7) ^ b);
        let frames = self
            .gray
            .iter()
            .chain(&self.yuv)
            .fold(0u64, |h, f| h.rotate_left(7) ^ check::frame_digest(f));
        Json::obj([
            ("views", Json::from(format!("{views:016x}"))),
            ("frames", Json::from(format!("{frames:016x}"))),
        ])
    }
}

/// `0..n` in a seeded order (Fisher–Yates).
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// What a sampled frame must equal.
#[derive(Clone)]
enum Want {
    Single {
        format: FrameFormat,
        spec: EngineSpec,
        view: PerspectiveView,
        k: usize,
    },
    Pano {
        rig: CameraRig,
        k: usize,
    },
}

/// The console: the server, its sessions, and the round schedule's
/// state.
struct Console {
    server: Server,
    sessions: Vec<Session>,
    current: Vec<usize>,
    ptz: PerspectiveView,
    ptz_dir: f64,
    nudge_deg: f64,
    rig: CameraRig,
    rng: Rng,
    /// Count allocations around each `pump_one` (traced counted rounds).
    count_allocs: bool,
}

/// Everything the rounds measure.
#[derive(Default)]
struct Tally {
    frames: u64,
    submitted: Vec<u64>,
    done: Vec<u64>,
    shed: Vec<u64>,
    lost: Vec<u64>,
    switches: u64,
    switch_errors: u64,
    /// Start of the current timed phase; samples are stamped from it.
    start: Option<Instant>,
    latency_ms: Timeline,
    switch_ms: Timeline,
    checks: Vec<(Want, u64)>,
    ptz_views: Vec<PerspectiveView>,
    allocs: Vec<u64>,
}

/// Per-layer numbers from the traced rounds.
#[derive(Default)]
struct Layers {
    trace: Trace,
    /// Worker threads of each session's plane pool.
    workers: usize,
    turnaround_us: Dist,
    pump_us: Dist,
    server_self_us: Dist,
    kernel_us: Dist,
    luma_us: Dist,
    chroma_us: Dist,
    dispatch_us: Dist,
    out_px: f64,
    pano_pump_ms: Dist,
    nudge_ms: Dist,
    hit_us: Dist,
    miss_ms: Dist,
    // self time, µs, summed over the traced rounds
    cache: f64,
    plan: f64,
    composite: f64,
    server: f64,
    engine: f64,
    frame: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Console {
    /// Start the server, admit every session and serve each one frame.
    fn start(inputs: &Inputs, t: &mut Tally) -> Result<(Console, Duration), String> {
        let t0 = Instant::now();
        let server = Server::new(ServerConfig {
            capacity: SINGLES + 2,
            threads: WORKERS,
            frame_deadline: DEADLINE,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let single = |format, backend, view| SessionConfig {
            format,
            backend,
            ..SessionConfig::new(inputs.lens, view, SRC)
        };
        let mut sessions = Vec::with_capacity(SINGLES + 2);
        for &(format, backend, p) in &inputs.singles {
            sessions.push(single(format, backend, inputs.presets[p]));
        }
        sessions.push(single(FrameFormat::Gray8, EngineSpec::Simd, inputs.ptz));
        sessions.push(SessionConfig {
            workload: Workload::Panorama {
                rig: inputs.rig.clone(),
            },
            ..SessionConfig::new(
                inputs.lens,
                PerspectiveView::centered(PANO_OUT.0, PANO_OUT.1, 90.0),
                SRC,
            )
        });
        let sessions = sessions
            .into_iter()
            .map(|cfg| SessionConfig {
                post: PostStage::identity(),
                interp: Interpolator::Bilinear,
                ..cfg
            })
            .map(|cfg| server.connect(cfg).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut console = Console {
            server,
            sessions,
            current: inputs.singles.iter().map(|s| s.2).collect(),
            ptz: inputs.ptz,
            ptz_dir: 1.0,
            nudge_deg: 0.0,
            rig: inputs.rig.clone(),
            rng: Rng::new(inputs.schedule, "schedule"),
            count_allocs: false,
        };
        for i in 0..console.sessions.len() {
            console.serve(inputs, t, i, 0, None, None, None);
        }
        Ok((console, t0.elapsed()))
    }

    /// Submit frame `k` to session `i` and pump it. `switched` is when
    /// the view this frame is the first at was requested; `check`
    /// records its digest against `check`'s reference.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &mut self,
        inputs: &Inputs,
        t: &mut Tally,
        i: usize,
        k: usize,
        switched: Option<Instant>,
        check: Option<Want>,
        layers: Option<&mut Layers>,
    ) {
        let session = &mut self.sessions[i];
        let t0 = Instant::now();
        let queued = if i == PANO {
            session.submit_rig(inputs.rig_frames(k))
        } else {
            let format = session.format();
            session.submit_frame(Arc::clone(inputs.frame(format, k)))
        };
        let t1 = Instant::now();
        t.submitted[i] += 1;
        if queued != SubmitOutcome::Queued {
            t.shed[i] += 1;
            return;
        }
        let count = self.count_allocs;
        let (pumped, allocs) = if count {
            alloc::count(|| session.pump_one())
        } else {
            (session.pump_one(), 0)
        };
        let t2 = Instant::now();
        let outcome = match pumped {
            Ok(Some(o)) => o,
            _ => {
                t.lost[i] += 1;
                return;
            }
        };
        t.done[i] += 1;
        t.frames += 1;
        let at = t.start.map_or(0.0, |s| (t2 - s).as_secs_f64());
        t.latency_ms.push(at, (t2 - t0).as_secs_f64() * 1e3);
        if let Some(s) = switched {
            t.switch_ms.push(at, (t2 - s).as_secs_f64() * 1e3);
        }
        if count {
            t.allocs.push(allocs);
        }
        if let Some(l) = layers {
            l.absorb(i, t.frames, &outcome, t0, t1, t2);
        }
        if let Some(want) = check {
            t.checks.push((want, served_digest(outcome.frame)));
        }
    }

    /// Repoint single-camera session `i`, timing the call; a switch
    /// that missed the cache is plan work, one that hit is cache work.
    fn switch(
        &mut self,
        i: usize,
        view: PerspectiveView,
        t: &mut Tally,
        layers: Option<&mut Layers>,
    ) -> Option<Instant> {
        let misses = layers.as_ref().map(|_| self.server.cache().stats().misses);
        let t0 = Instant::now();
        let ok = self.sessions[i].set_view(view).is_ok();
        let t1 = Instant::now();
        t.switches += 1;
        if !ok {
            t.switch_errors += 1;
            return None;
        }
        if let (Some(l), Some(before)) = (layers, misses) {
            let id = t.frames;
            let missed = self.server.cache().stats().misses > before;
            if missed {
                l.trace.span(id, "set_view.miss", None, t0, t1);
                l.miss_ms.push((t1 - t0).as_secs_f64() * 1e3);
                l.plan += us(t1 - t0);
            } else {
                l.trace.span(id, "set_view.hit", None, t0, t1);
                l.hit_us.push(us(t1 - t0));
                l.cache += us(t1 - t0);
            }
        }
        Some(t0)
    }

    /// One round of the schedule. The round's switches are drawn
    /// first; then each session in turn makes its switch, if any, and
    /// is served its frame right after, so a switch's latency is the
    /// switch plus that first frame.
    fn round(&mut self, inputs: &Inputs, r: u64, t: &mut Tally, mut layers: Option<&mut Layers>) {
        let k = r as usize % FRAMES;
        self.count_allocs = layers.is_some() && r < COUNT_ROUNDS;
        let mut to: Vec<Option<PerspectiveView>> = vec![None; self.sessions.len()];
        for j in 0..SWITCHES_PER_ROUND {
            let turn = r as usize * SWITCHES_PER_ROUND + j;
            let i = inputs.switch_order[turn % SINGLES];
            let mut p = self.rng.below(PRESETS);
            if p == self.current[i] {
                p = (p + 1) % PRESETS;
            }
            self.current[i] = p;
            to[i] = Some(inputs.presets[p]);
        }
        let pan = self.ptz.pan.to_degrees() + self.ptz_dir * PTZ_STEP_DEG;
        if pan.abs() > PTZ_LIMIT_DEG {
            self.ptz_dir = -self.ptz_dir;
        }
        self.ptz = self.ptz.look(pan, self.ptz.tilt.to_degrees());
        t.ptz_views.push(self.ptz);
        to[PTZ] = Some(self.ptz);
        let nudged = r % NUDGE_EVERY == NUDGE_EVERY - 1;
        if nudged {
            let step = if self.rng.below(2) == 0 { 0.25 } else { -0.25 };
            self.nudge_deg = (self.nudge_deg + step).clamp(-NUDGE_LIMIT_DEG, NUDGE_LIMIT_DEG);
            self.rig = inputs
                .rig
                .with_camera_rotation(1, Mat3::rot_y(PI + self.nudge_deg.to_radians()));
        }
        let sampled = self.rng.below(SINGLES);

        for (i, view) in to.into_iter().enumerate() {
            let switched = match view {
                Some(view) => self.switch(i, view, t, layers.as_deref_mut()),
                None => None,
            };
            if i == PANO && nudged {
                self.nudge(t, layers.as_deref_mut());
            }
            let want = if i == PANO {
                (nudged || r == 0).then(|| Want::Pano {
                    rig: self.rig.clone(),
                    k,
                })
            } else if i == PTZ || i == sampled {
                Some(Want::Single {
                    format: self.sessions[i].format(),
                    spec: if i == PTZ {
                        EngineSpec::Simd
                    } else {
                        inputs.singles[i].1
                    },
                    view: self.sessions[i].view(),
                    k,
                })
            } else {
                None
            };
            self.serve(inputs, t, i, k, switched, want, layers.as_deref_mut());
        }
    }

    /// Re-orient the panorama's rig to `self.rig`, timing the call.
    fn nudge(&mut self, t: &mut Tally, layers: Option<&mut Layers>) {
        let t0 = Instant::now();
        let ok = self.sessions[PANO].set_rig(self.rig.clone()).is_ok();
        let t1 = Instant::now();
        t.switches += 1;
        if !ok {
            t.switch_errors += 1;
        }
        if let Some(l) = layers {
            l.trace.span(t.frames, "set_rig", None, t0, t1);
            l.nudge_ms.push((t1 - t0).as_secs_f64() * 1e3);
            l.composite += us(t1 - t0);
        }
    }
}

impl Layers {
    fn new(workers: usize) -> Layers {
        Layers {
            trace: Trace::new(Instant::now(), 1 << 16),
            workers,
            ..Layers::default()
        }
    }

    /// Fold one served frame into the per-layer numbers. Single-camera
    /// frames split into engine (the plane kernels' wall time), frame
    /// layer (the frame wall minus that) and server (pump minus the
    /// frame wall); the panorama's kernel time is the composite
    /// executor's.
    fn absorb(
        &mut self,
        i: usize,
        id: u64,
        o: &FrameOutcome,
        t0: Instant,
        t1: Instant,
        t2: Instant,
    ) {
        let trace = &mut self.trace;
        trace.span(id, "server.submit", None, t0, t1);
        trace.span(id, "server.pump", None, t1, t2);
        trace.reported(id, "server.turnaround", "server.pump", o.latency);
        self.turnaround_us.push(us(o.latency));
        let pump = us(t2 - t1);
        self.pump_us.push(pump);
        self.server += us(t1 - t0);
        if i == PANO {
            let kernel = us(o.report.correct_time);
            trace.reported(
                id,
                "composite.correct",
                "server.pump",
                o.report.correct_time,
            );
            self.pano_pump_ms.push(pump / 1e3);
            self.composite += kernel;
            self.server += pump - kernel;
            self.server_self_us.push(pump - kernel);
            return;
        }
        let t = report_times(&o.report, self.workers);
        trace.reported(id, "engine.correct", "server.pump", o.report.correct_time);
        self.kernel_us.push(t.kernel);
        self.engine += t.critical;
        self.frame += t.wall - t.critical;
        self.server += pump - t.wall;
        self.server_self_us.push(pump - t.wall);
        self.out_px += o.frame.dims().0 as f64
            * o.frame.dims().1 as f64
            * if o.frame.format() == FrameFormat::Yuv420 {
                1.5
            } else {
                1.0
            };
        if let Some((luma, chroma)) = t.planes {
            self.luma_us.push(luma);
            self.chroma_us.push(chroma);
            self.dispatch_us.push(t.wall - t.critical);
        }
    }
}

fn served_digest(frame: ServedFrame) -> u64 {
    let planes = frame.into_planes();
    digest(&planes.iter().map(|p| &**p).collect::<Vec<_>>())
}

/// Compare every sampled frame with its reference, on one thread per
/// core after the timed phases; returns the mismatches.
fn verify(inputs: &Inputs, checks: &[(Want, u64)]) -> u64 {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || verify_some(inputs, checks.iter().skip(w).step_by(workers)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .sum()
    })
}

fn verify_some<'a>(inputs: &Inputs, checks: impl Iterator<Item = &'a (Want, u64)>) -> u64 {
    let mut memo: HashMap<(&'static str, u32, [u64; 3], usize), u64> = HashMap::new();
    let mut bad = 0;
    for (want, got) in checks {
        let expected = match want {
            Want::Single {
                format,
                spec,
                view,
                k,
            } => {
                // serial and simd share the float reference
                let class = match spec {
                    EngineSpec::FixedPoint { frac_bits } => *frac_bits,
                    _ => 0,
                };
                let geometry = [
                    view.pan.to_bits(),
                    view.tilt.to_bits(),
                    view.h_fov.to_bits(),
                ];
                *memo
                    .entry((format.name(), class, geometry, *k))
                    .or_insert_with(|| {
                        check::single(&inputs.lens, view, spec, inputs.frame(*format, *k))
                    })
            }
            Want::Pano { rig, k } => {
                let frames = inputs.rig_frames(*k);
                let refs: Vec<&Frame> = frames.iter().map(|f| f.as_ref()).collect();
                check::panorama(rig, PANO_OUT.0, PANO_OUT.1, &refs)
            }
        };
        if expected != *got {
            bad += 1;
        }
    }
    bad
}

/// Replay PTZ views through `PlaneRequest::build_map` (on a pool like
/// the server's, if it has one) and `RemapPlan::recompile`, splitting a
/// PTZ miss into map-trace and compile time: `(map_ms, recompile_ms)`.
fn ptz_replay(inputs: &Inputs, views: &[PerspectiveView]) -> (Dist, Dist) {
    let pool = (WORKERS > 1).then(|| ThreadPool::new(WORKERS));
    let opts = PlanOptions::for_spec(&EngineSpec::Simd, Interpolator::Bilinear);
    let req =
        |v: &PerspectiveView| PlaneRequest::derive(PlaneClass::Full, &inputs.lens, v, SRC.0, SRC.1);
    let (mut map_ms, mut recompile_ms) = (Dist::default(), Dist::default());
    let Some(first) = views.first() else {
        return (map_ms, recompile_ms);
    };
    let mut prev = RemapPlan::compile(&req(first).build_map(None), opts);
    for v in views.iter().skip(1).take(PTZ_REPLAY) {
        let t0 = Instant::now();
        let map = req(v).build_map(pool.as_ref().map(|p| (p, Schedule::Static { chunk: None })));
        let t1 = Instant::now();
        prev = prev.recompile(map);
        let t2 = Instant::now();
        map_ms.push((t1 - t0).as_secs_f64() * 1e3);
        recompile_ms.push((t2 - t1).as_secs_f64() * 1e3);
    }
    (map_ms, recompile_ms)
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let inputs = Inputs::new(args.seed);
    let streams = SINGLES + 2;
    let mut t = Tally {
        submitted: vec![0; streams],
        done: vec![0; streams],
        shed: vec![0; streams],
        lost: vec![0; streams],
        ..Tally::default()
    };
    let mut out = RunOutput::default();

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut live = None;
    for _ in 0..setups {
        // the previous console shuts down before the next one starts
        drop(live.take());
        let (console, took) = Console::start(&inputs, &mut t)?;
        setup_s.push(took.as_secs_f64());
        live = Some(console);
    }
    let mut console = live.expect("at least one set-up");
    t.latency_ms = Timeline::default();

    let stats0 = console.server.cache().stats();
    let delta0 = console
        .server
        .metrics()
        .counter("serve.plan.delta_recompiles");
    let mut counts = None;
    let mut r = 0u64;
    let mut rounds = |console: &mut Console,
                      t: &mut Tally,
                      start: Instant,
                      secs: f64,
                      mut layers: Option<&mut Layers>| {
        t.start = Some(start);
        let until = start + Duration::from_secs_f64(secs);
        let first = r;
        let counting = layers.is_some();
        while Instant::now() < until || (counting && r < COUNT_ROUNDS) {
            console.round(&inputs, r, t, layers.as_deref_mut());
            r += 1;
            if r == COUNT_ROUNDS {
                let s = console.server.cache().stats();
                let delta = console
                    .server
                    .metrics()
                    .counter("serve.plan.delta_recompiles");
                counts = Some((s, delta, s.bytes));
            }
        }
        (start.elapsed(), r - first)
    };

    if !args.trace {
        rounds(&mut console, &mut t, Instant::now(), WARMUP_S, None);
        t.latency_ms = Timeline::default();
        t.switch_ms = Timeline::default();
        let cpu = host::CpuTicks::now();
        let win = Windows::new(args.seconds, WINDOW_S);
        let ((_, n_rounds), stolen) = host::stolen_windows(win, |start| {
            rounds(&mut console, &mut t, start, args.seconds, None)
        });
        out.detail("cpu", host::CpuTicks::now().since(&cpu));
        out.set("rss_peak_mib", host::rss_peak_mib());
        let keep = quietest(&stolen);
        let rates = t.latency_ms.rates(win);
        out.set("fps", mean(&kept(&rates, &keep)));
        let mut lat = t.latency_ms.pooled(win, &keep);
        out.set("latency_p50_ms", lat.p50());
        out.set("latency_p90_ms", lat.p90());
        let mut switches = t.switch_ms.pooled(win, &keep);
        out.set("switch_p50_ms", switches.p50());
        out.set("switch_p90_ms", switches.p90());
        out.set("setup_s", median(&setup_s));
        out.detail("rounds", Json::from(n_rounds));
        out.detail("latency_ms", lat.summary());
        out.detail("latency_ms_all_windows", t.latency_ms.all().summary());
        out.detail("switch_ms", switches.summary());
        out.detail("switch_ms_all_windows", t.switch_ms.all().summary());
        out.detail(
            "windows",
            windows_detail(&t.latency_ms, win, &rates, &stolen, &keep),
        );
        out.detail(
            "setup_s",
            Json::Arr(setup_s.iter().map(|&v| Json::from(v)).collect()),
        );
    } else {
        let mut layers = Layers::new(console.server.config().threads);
        // traced first, so the counted rounds are traced ones
        let (traced_wall, traced_rounds) = rounds(
            &mut console,
            &mut t,
            Instant::now(),
            args.seconds * 0.5,
            Some(&mut layers),
        );
        let mut traced_lat = std::mem::take(&mut t.latency_ms).all();
        let (_, untraced_rounds) = rounds(
            &mut console,
            &mut t,
            Instant::now(),
            args.seconds * 0.3,
            None,
        );
        let mut untraced_lat = std::mem::take(&mut t.latency_ms).all();
        out.set("trace.overhead", traced_lat.p50() / untraced_lat.p50());
        out.detail("rounds", Json::from(traced_rounds + untraced_rounds));
        out.detail("traced_latency_ms", traced_lat.summary());
        out.detail("untraced_latency_ms", untraced_lat.summary());

        let (stats, delta, bytes) = counts.expect("count window completed");
        let hits = (stats.hits - stats0.hits) as f64;
        let misses = (stats.misses - stats0.misses) as f64;
        let deltas = (delta - delta0) as f64;
        out.set("cache.hits", hits);
        out.set("cache.misses", misses);
        out.set(
            "cache.evictions",
            (stats.evictions - stats0.evictions) as f64,
        );
        out.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        out.set("cache.resident_mib", bytes as f64 / (1 << 20) as f64);
        out.set("cache.switch_hit_us", layers.hit_us.p50());
        out.set("plan.switch_miss_ms", layers.miss_ms.p50());
        out.set("plan.compiles", misses - deltas);
        out.set("plan.delta_recompiles", deltas);
        let views: Vec<PerspectiveView> =
            t.ptz_views.iter().take(PTZ_REPLAY + 1).copied().collect();
        let (mut map_ms, mut recompile_ms) = ptz_replay(&inputs, &views);
        out.set("plan.map_ms", map_ms.p50());
        out.set("plan.recompile_ms", recompile_ms.p50());

        for name in [
            "client.submit_us",
            "wire.submit_encode_us",
            "wire.submit_decode_us",
            "wire.done_encode_us",
            "wire.done_decode_us",
            "wire.bytes_per_frame",
            "shard.residual_p50_us",
            "shard.residual_p90_us",
        ] {
            out.set(name, 0.0);
        }
        out.set("server.turnaround_p50_us", layers.turnaround_us.p50());
        out.set("server.turnaround_p90_us", layers.turnaround_us.p90());
        out.set("server.pump_us", layers.pump_us.p50());
        out.set("server.self_us", layers.server_self_us.p50());
        let allocs: Vec<f64> = t.allocs.iter().map(|&a| a as f64).collect();
        out.set("server.allocs_per_frame", median(&allocs));
        out.set("engine.correct_us", layers.kernel_us.p50());
        let kernel_s = layers.kernel_us.sum() / 1e6;
        out.set("engine.mpix_s", layers.out_px / kernel_s / 1e6);
        out.set(
            "engine.gbps",
            GATHER_BYTES_PER_PX * layers.out_px / kernel_s / 1e9,
        );
        out.set("frame.luma_us", layers.luma_us.p50());
        out.set("frame.chroma_us", layers.chroma_us.p50());
        out.set("frame.dispatch_us", layers.dispatch_us.p50());
        out.set("composite.pump_ms", layers.pano_pump_ms.p50());
        out.set("composite.nudge_ms", layers.nudge_ms.p50());

        // Self time over the traced rounds' wall time W: set_view spans
        // that hit are cache, those that missed are plan; set_rig and
        // the panorama's kernel are composite; submit_* and pump_one
        // minus the frame wall are server; the frame wall minus the
        // kernels' wall time is the frame layer; the kernels' wall time
        // is engine. What no span covers is the benchmark's own loop.
        let w = us(traced_wall);
        let per_layer = [
            ("client", 0.0),
            ("wire", 0.0),
            ("shard", 0.0),
            ("server", layers.server),
            ("cache", layers.cache),
            ("plan", layers.plan),
            ("engine", layers.engine),
            ("frame", layers.frame),
            ("composite", layers.composite),
        ];
        let covered: f64 = per_layer.iter().map(|(_, v)| v).sum();
        for (layer, v) in per_layer {
            out.set(share_name(layer), v / w);
        }
        out.set("trace.unaccounted_frac", ((w - covered) / w).max(0.0));
        out.detail("counted_rounds", Json::from(COUNT_ROUNDS));
        let (l3, dram) = host::ruler()?;
        out.set("host.copy_l3_gbps", l3);
        out.set("host.copy_dram_gbps", dram);
        crate::write_spans(&layers.trace, "console_churn", args.seed)?;
    }

    let bad = verify(&inputs, &t.checks);
    out.failed += bad + t.switch_errors;
    out.attempted += t.switches;
    for i in 0..streams {
        out.conserve(
            &format!("session {i}"),
            t.submitted[i],
            t.done[i],
            t.shed[i],
            t.lost[i],
        );
        out.attempted += t.submitted[i];
        out.failed += t.shed[i] + t.lost[i];
    }
    out.set(
        "ok_frac",
        out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.detail("checked_frames", Json::from(t.checks.len() as u64));
    out.detail("mismatched_frames", Json::from(bad));
    out.detail("inputs", inputs.fingerprint());
    Ok(out)
}
