//! The loopback workloads, `thumb_gray8` and `hd_yuv420`: a sharded
//! `NetServer` on 127.0.0.1 with two shards and one worker thread per
//! session, driven by two `Client` connections, each on its own
//! thread with one frame in flight (a closed loop). Both views a
//! session uses have the same size and field of view, so the gather's
//! work stays the same all run.
//!
//! With `--trace 0`, one frame in eight (thumb) or four (hd) on each
//! connection first switches the session between its two views, whose
//! plans the shard holds after the first visits: those round trips are
//! the switch samples. After a second of warm-up the timed window is
//! cut into one-second windows, and the end-to-end figures are read
//! from the quiet ones (see [`crate::stats::quietest`]).
//!
//! With `--trace 1` the view is fixed and the run has three phases
//! after set-up: the closed loop untraced; then traced, with
//! spans around `Client::submit` and the wait for `FrameDone` plus the
//! server's own `latency_us`; then an in-process replay of the same
//! frames through the calls a shard makes (`wire::decode_frame` +
//! `FramePayload::to_frame` → `Session::submit_frame` →
//! `Session::pump_one` → `wire::encode_frame_done` → client-side
//! decode), one span per call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameFormat};
use fisheye_core::post::PostStage;
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::wire::{self, Message, SessionDesc};
use fisheye_serve::{
    CameraFeed, Client, ClientEvent, NetServer, NetServerConfig, Server, ServerConfig,
    SessionConfig, SubmitOutcome, Workload,
};
use pixmap::{Gray8, Image};

use crate::report::{
    report_times, share_name, windows_detail, Json, RunOutput, GATHER_BYTES_PER_PX,
};
use crate::stats::{kept, mean, median, quietest, Dist, Rng, Timeline, Windows, WINDOW_S};
use crate::trace::Trace;
use crate::{alloc, check, host, Args};

/// One loopback workload's shape.
pub struct Shape {
    pub name: &'static str,
    pub src: (u32, u32),
    pub out: (u32, u32),
    pub format: FrameFormat,
    /// Distinct seeded frames, cycled.
    pub frames: usize,
    /// One delivered frame in this many is checked, chosen by the seed.
    pub check_every: usize,
    /// Frames replayed in process in the traced run.
    pub replay_frames: usize,
    /// In `--trace 0` runs, one frame in this many on each connection
    /// is preceded by a view switch.
    pub switch_every: u64,
}

/// Small frames: the socket and the shard loop's idle wait set the
/// latency; the gather and the copies do little. (A 320×240 source made
/// the client's socket write a larger share of this round trip than of
/// the 1080p one; the source is sized so that the layer shares order
/// the way the workloads are meant to.)
pub const THUMB: Shape = Shape {
    name: "thumb_gray8",
    src: (160, 120),
    out: (64, 48),
    format: FrameFormat::Gray8,
    frames: 16,
    check_every: 4,
    replay_frames: 2000,
    switch_every: 8,
};

/// A 3 MB source, larger than a core's L2: the memory-bound gather and
/// the three-plane frame layer dominate the round trip.
pub const HD: Shape = Shape {
    name: "hd_yuv420",
    src: (1920, 1080),
    out: (960, 540),
    format: FrameFormat::Yuv420,
    frames: 4,
    check_every: 8,
    replay_frames: 40,
    // enough switches in the kept windows for a steady p90
    switch_every: 4,
};

const CONNS: usize = 2;
const SHARDS: usize = 2;
/// Set-ups per `--trace 0` run: at least `SETUPS.0`, then more while
/// they have taken under `SETUP_BUDGET_S` in all, up to `SETUPS.1`;
/// `setup_s` is their median.
const SETUPS: (usize, usize) = (5, 41);
const SETUP_BUDGET_S: f64 = 0.5;
/// Far above any latency, so the degradation ladder never engages.
const DEADLINE: Duration = Duration::from_secs(60);
const RECV_TIMEOUT: Duration = Duration::from_secs(30);
/// Upper end of the seeded think time a client waits before each
/// submit or switch, µs. It spreads arrivals over the shard loop's
/// 500 µs idle sleep instead of letting a closed loop lock onto one
/// phase of it, which would make percentiles jump between runs.
const THINK_US: usize = 1000;
/// Untimed closed loop before the timed window of a `--trace 0` run.
const WARMUP_S: f64 = 1.0;
/// More frames per second than one connection delivers: sizes the
/// sample store up front.
const MAX_FPS_PER_CONN: f64 = 5000.0;
/// Replayed frames before allocation counting starts (pools warm up).
const WARM_FRAMES: usize = 4;

/// The seeded inputs: the view, a second view to switch to, and the
/// cycled frames with their reference digests.
struct Inputs {
    lens: FisheyeLens,
    view: PerspectiveView,
    alt: PerspectiveView,
    frames: Vec<Frame>,
    /// Reference digests at `view` and at `alt`, per frame.
    refs: Vec<u64>,
    alt_refs: Vec<u64>,
}

impl Inputs {
    fn new(shape: &Shape, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, shape.name);
        let (sw, sh) = shape.src;
        let lens = FisheyeLens::equidistant_fov(sw, sh, 180.0);
        // one field of view, so seeds move the view but not its cost
        let pick = |rng: &mut Rng| {
            PerspectiveView::centered(shape.out.0, shape.out.1, 80.0)
                .look(rng.range(-15.0, 15.0), rng.range(-10.0, 10.0))
        };
        let view = pick(&mut rng);
        let alt = pick(&mut rng);
        let mut feed = CameraFeed::new(sw, sh, rng.next_u64());
        let frames: Vec<Frame> = (0..shape.frames)
            .map(|_| Arc::unwrap_or_clone(feed.next_frame_in(shape.format)))
            .collect();
        let refs_at = |v: &PerspectiveView| {
            frames
                .iter()
                .map(|f| check::single(&lens, v, &EngineSpec::Serial, f))
                .collect()
        };
        let (refs, alt_refs) = (refs_at(&view), refs_at(&alt));
        Inputs {
            lens,
            view,
            alt,
            frames,
            refs,
            alt_refs,
        }
    }

    fn desc(&self, shape: &Shape) -> SessionDesc<'static> {
        SessionDesc {
            lens: self.lens,
            view: self.view,
            source: shape.src,
            format: shape.format,
            interp: Interpolator::Bilinear,
            deadline_us: 0,
            backend: "simd",
        }
    }

    /// Digest of the views and frame contents, so the self-test can
    /// tell two seeds' inputs apart.
    fn fingerprint(&self) -> Json {
        let views: Vec<u64> = [self.view, self.alt]
            .iter()
            .flat_map(|v| [v.pan.to_bits(), v.tilt.to_bits(), v.h_fov.to_bits()])
            .collect();
        let views = views.iter().fold(0u64, |h, &b| h.rotate_left(7) ^ b);
        let frames = self
            .frames
            .iter()
            .fold(0u64, |h, f| h.rotate_left(7) ^ check::frame_digest(f));
        Json::obj([
            ("views", Json::from(format!("{views:016x}"))),
            ("frames", Json::from(format!("{frames:016x}"))),
        ])
    }
}

fn net_config() -> NetServerConfig {
    NetServerConfig {
        server: ServerConfig {
            capacity: CONNS,
            threads: 1,
            frame_deadline: DEADLINE,
            ..ServerConfig::default()
        },
        shards: SHARDS,
        ..NetServerConfig::default()
    }
}

enum Outcome {
    Done { latency_us: u32, frame: Frame },
    Shed,
    Lost,
}

/// One closed-loop exchange: submit at `t0`, submit returned at `t1`,
/// `FrameDone` decoded at `t2`. `errors` counts non-frame `Shed`s (a
/// refused view switch) seen while waiting.
struct Exchange {
    t0: Instant,
    t1: Instant,
    t2: Instant,
    outcome: Outcome,
}

fn exchange(c: &mut Client, seq: u64, frame: &Frame, errors: &mut u64) -> Exchange {
    let t0 = Instant::now();
    let submitted = c.submit(seq, frame);
    let t1 = Instant::now();
    let outcome = if submitted.is_err() {
        Outcome::Lost
    } else {
        loop {
            match c.recv(RECV_TIMEOUT) {
                Ok(Some(ClientEvent::FrameDone {
                    seq: s,
                    latency_us,
                    frame,
                    ..
                })) if s == seq => break Outcome::Done { latency_us, frame },
                Ok(Some(ClientEvent::Shed { seq: 0, .. })) => *errors += 1,
                Ok(Some(ClientEvent::Shed { seq: s, .. })) if s == seq => break Outcome::Shed,
                _ => break Outcome::Lost,
            }
        }
    };
    Exchange {
        t0,
        t1,
        t2: Instant::now(),
        outcome,
    }
}

/// One connection: its client, its seeded check sampler and its tallies.
struct Conn {
    index: usize,
    client: Client,
    rng: Rng,
    submitted: u64,
    done: u64,
    shed: u64,
    lost: u64,
    errors: u64,
    checked: u64,
    mismatched: u64,
    switches: u64,
    /// Whether the session is at the second view.
    at_alt: bool,
    /// Round trips of the timed window, ms, stamped from its start.
    latency_ms: Timeline,
    /// View switches, `set_view` to the first frame at the new view, ms.
    switch_ms: Timeline,
    /// Traced frames (traced window only).
    recs: Vec<Rec>,
}

/// One traced frame from the socket run.
struct Rec {
    seq: u64,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    latency_us: u32,
}

impl Conn {
    /// Exchange `frame`, tally the outcome and, when `want` is given,
    /// check the delivered frame's digest. Returns the exchange and the
    /// server-reported latency of a delivered frame.
    fn step(&mut self, frame: &Frame, want: Option<u64>) -> (Exchange, Option<u32>) {
        let seq = ((self.index as u64) << 32) | self.submitted;
        let ex = exchange(&mut self.client, seq, frame, &mut self.errors);
        self.submitted += 1;
        match &ex.outcome {
            Outcome::Done { latency_us, frame } => {
                self.done += 1;
                if let Some(want) = want {
                    self.checked += 1;
                    if check::frame_digest(frame) != want {
                        self.mismatched += 1;
                    }
                }
                let latency_us = *latency_us;
                (ex, Some(latency_us))
            }
            Outcome::Shed => {
                self.shed += 1;
                (ex, None)
            }
            Outcome::Lost => {
                self.lost += 1;
                (ex, None)
            }
        }
    }

    fn think(&mut self) {
        std::thread::sleep(Duration::from_micros(self.rng.below(THINK_US) as u64));
    }

    /// The closed loop: one frame in flight until `until`. With
    /// `switching`, every `shape.switch_every`th frame first switches the
    /// session between the two views (both cached in the shard after the
    /// first visits), and its round trip from `set_view` is a switch
    /// sample instead of a frame one.
    fn drive(
        &mut self,
        inputs: &Inputs,
        shape: &Shape,
        start: Instant,
        until: Instant,
        switching: bool,
        traced: bool,
    ) {
        let secs = until.saturating_duration_since(start).as_secs_f64();
        self.latency_ms.reserve((secs * MAX_FPS_PER_CONN) as usize);
        while Instant::now() < until {
            self.think();
            let k = (self.submitted as usize + self.index) % inputs.frames.len();
            let every = shape.switch_every;
            let switch = switching && self.submitted % every == every - 1;
            let t_switch = Instant::now();
            if switch {
                self.at_alt = !self.at_alt;
                self.switches += 1;
                let view = if self.at_alt { inputs.alt } else { inputs.view };
                if self.client.set_view(view).is_err() {
                    self.errors += 1;
                    break;
                }
            }
            let refs = if self.at_alt {
                &inputs.alt_refs
            } else {
                &inputs.refs
            };
            let want = (switch || self.rng.below(shape.check_every) == 0).then(|| refs[k]);
            let (ex, lat) = self.step(&inputs.frames[k], want);
            let Some(latency_us) = lat else { break };
            let at = ex.t2.duration_since(start).as_secs_f64();
            if switch {
                self.switch_ms
                    .push(at, (ex.t2 - t_switch).as_secs_f64() * 1e3);
                continue;
            }
            self.latency_ms
                .push(at, (ex.t2 - ex.t0).as_secs_f64() * 1e3);
            if traced {
                self.recs.push(Rec {
                    seq: ((self.index as u64) << 32) | (self.submitted - 1),
                    t0: ex.t0,
                    t1: ex.t1,
                    t2: ex.t2,
                    latency_us,
                });
            }
        }
    }

    fn failed(&self) -> u64 {
        self.shed + self.lost + self.errors + self.mismatched
    }
}

/// Run `f` on every connection, one thread each.
fn each(conns: &mut [Conn], f: impl Fn(&mut Conn) + Sync) {
    std::thread::scope(|scope| {
        for c in conns.iter_mut() {
            let f = &f;
            scope.spawn(move || f(c));
        }
    });
}

/// Both connections' closed loops for `secs`; returns the stolen share
/// of CPU time in each of the phase's windows.
fn window(
    conns: &mut [Conn],
    inputs: &Inputs,
    shape: &Shape,
    secs: f64,
    switching: bool,
    traced: bool,
) -> Vec<f64> {
    let ((), stolen) = host::stolen_windows(Windows::new(secs, WINDOW_S), |start| {
        let until = start + Duration::from_secs_f64(secs);
        each(conns, |c| {
            c.drive(inputs, shape, start, until, switching, traced)
        });
    });
    stolen
}

/// Start the server, admit both sessions (the first compiles the plans
/// into the shared cold tier, the second finds them there) and serve
/// one frame on each. Returns the server and the set-up time.
///
/// Between starting the server and the first connect the benchmark
/// waits a seeded think time drawn from `rng`, left out of the set-up
/// time: without it every set-up met the new shards' idle sleep at the
/// same phase, and a run's set-ups all took 2.3 ms or all took 3.5 ms.
fn start(
    shape: &Shape,
    inputs: &Inputs,
    conns: &mut Vec<Conn>,
    seed: u64,
    rng: &mut Rng,
) -> Result<(NetServer, Duration), String> {
    let t0 = Instant::now();
    let srv = NetServer::bind("127.0.0.1:0", net_config()).map_err(|e| e.to_string())?;
    let bound = t0.elapsed();
    std::thread::sleep(Duration::from_micros(rng.below(THINK_US) as u64));
    let t1 = Instant::now();
    let desc = inputs.desc(shape);
    for index in 0..CONNS {
        let client = Client::connect(srv.addr(), &desc, RECV_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        match conns.get_mut(index) {
            Some(c) => c.client = client,
            None => conns.push(Conn {
                index,
                client,
                rng: Rng::new(seed, &format!("{}-check-{index}", shape.name)),
                submitted: 0,
                done: 0,
                shed: 0,
                lost: 0,
                errors: 0,
                checked: 0,
                mismatched: 0,
                switches: 0,
                at_alt: false,
                latency_ms: Timeline::default(),
                switch_ms: Timeline::default(),
                recs: Vec::new(),
            }),
        }
    }
    for c in conns.iter_mut() {
        c.step(&inputs.frames[0], Some(inputs.refs[0]));
    }
    Ok((srv, bound + t1.elapsed()))
}

/// Say goodbye on every connection and stop the server (it sheds and
/// counts anything still queued, and joins its threads).
fn stop(mut srv: NetServer, conns: &mut [Conn]) {
    for c in conns.iter_mut() {
        let _ = c.client.goodbye();
    }
    srv.shutdown();
}

pub fn run(shape: &Shape, args: &Args) -> Result<RunOutput, String> {
    let inputs = Inputs::new(shape, args.seed);
    let mut out = RunOutput::default();
    let mut conns = Vec::with_capacity(CONNS);

    // set-up, repeated; the last one stays up for the timed phases
    let (min, max) = if args.trace { (1, 1) } else { SETUPS };
    let mut setup_s: Vec<f64> = Vec::with_capacity(max);
    let mut setup_rng = Rng::new(args.seed, &format!("{}-setup", shape.name));
    let srv = loop {
        let (srv, t) = start(shape, &inputs, &mut conns, args.seed, &mut setup_rng)?;
        setup_s.push(t.as_secs_f64());
        let n = setup_s.len();
        if n >= max || (n >= min && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S) {
            break srv;
        }
        stop(srv, &mut conns);
    };

    if args.trace {
        traced(shape, &inputs, args, srv, &mut conns, &mut out)?;
    } else {
        window(&mut conns, &inputs, shape, WARMUP_S, true, false);
        for c in conns.iter_mut() {
            c.latency_ms = Timeline::default();
            c.switch_ms = Timeline::default();
        }
        let cpu = host::CpuTicks::now();
        let stolen = window(&mut conns, &inputs, shape, args.seconds, true, false);
        out.detail("cpu", host::CpuTicks::now().since(&cpu));
        // before the benchmark's own post-processing allocates
        out.set("rss_peak_mib", host::rss_peak_mib());
        stop(srv, &mut conns);
        let (mut lat, mut switches) = (Timeline::default(), Timeline::default());
        for c in &conns {
            lat.extend(&c.latency_ms);
            switches.extend(&c.switch_ms);
        }
        // every delivered frame counts toward fps, switch frames too
        let mut delivered = lat.clone();
        delivered.extend(&switches);
        let win = Windows::new(args.seconds, WINDOW_S);
        let keep = quietest(&stolen);
        let rates = delivered.rates(win);
        out.set("fps", mean(&kept(&rates, &keep)));
        let mut quiet = lat.pooled(win, &keep);
        out.set("latency_p50_ms", quiet.p50());
        out.set("latency_p90_ms", quiet.p90());
        let mut quiet_switches = switches.pooled(win, &keep);
        out.set("switch_p50_ms", quiet_switches.p50());
        out.set("switch_p90_ms", quiet_switches.p90());
        out.set("setup_s", median(&setup_s));
        out.detail("latency_ms", quiet.summary());
        out.detail("latency_ms_all_windows", lat.all().summary());
        out.detail("switch_ms", quiet_switches.summary());
        out.detail("switch_ms_all_windows", switches.all().summary());
        out.detail("windows", windows_detail(&lat, win, &rates, &stolen, &keep));
        out.detail(
            "setup_s",
            Json::Arr(setup_s.iter().map(|&v| Json::from(v)).collect()),
        );
    }

    let mut checked = 0;
    for c in &conns {
        out.conserve(
            &format!("connection {}", c.index),
            c.submitted,
            c.done,
            c.shed,
            c.lost,
        );
        out.attempted += c.submitted + c.switches;
        out.failed += c.failed();
        checked += c.checked;
    }
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.set("ok_frac", ok);
    out.detail("checked_frames", Json::from(checked));
    out.detail("inputs", inputs.fingerprint());
    Ok(out)
}

fn traced(
    shape: &Shape,
    inputs: &Inputs,
    args: &Args,
    srv: NetServer,
    conns: &mut [Conn],
    out: &mut RunOutput,
) -> Result<(), String> {
    let epoch = Instant::now();
    // untraced, then traced, on the same connections
    let phase = args.seconds * 0.5;
    window(conns, inputs, shape, phase, false, false);
    let mut untraced = Dist::default();
    for c in conns.iter_mut() {
        untraced.extend(&std::mem::take(&mut c.latency_ms).all());
    }
    let before = srv.metrics_snapshot();
    window(conns, inputs, shape, phase, false, true);
    let after = srv.metrics_snapshot();
    let resident = srv.resident_plan_bytes();
    stop(srv, conns);

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut trace = Trace::new(epoch, 1 << 18);
    let (mut rt, mut submit, mut residual, mut turnaround) = (
        Dist::default(),
        Dist::default(),
        Dist::default(),
        Dist::default(),
    );
    for r in conns.iter().flat_map(|c| &c.recs) {
        let server = Duration::from_micros(u64::from(r.latency_us));
        trace.span(r.seq, "roundtrip", None, r.t0, r.t2);
        trace.span(r.seq, "client.submit", Some("roundtrip"), r.t0, r.t1);
        trace.span(r.seq, "client.wait", Some("roundtrip"), r.t1, r.t2);
        trace.reported(r.seq, "server.turnaround", "client.wait", server);
        rt.push(us(r.t2 - r.t0));
        submit.push(us(r.t1 - r.t0));
        turnaround.push(us(server));
        residual.push(us(r.t2 - r.t0) - us(server) - us(r.t1 - r.t0));
    }

    let mut rp = replay(shape, inputs, &mut trace)?;
    out.attempted += rp.frames;
    out.failed += rp.mismatched;

    let delta =
        |k: &str| after.gauge_value(k).unwrap_or(0.0) - before.gauge_value(k).unwrap_or(0.0);
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    let deltas = after.counter("serve.plan.delta_recompiles") as f64
        - before.counter("serve.plan.delta_recompiles") as f64;
    out.set("cache.hits", hits);
    out.set("cache.misses", misses);
    out.set("cache.evictions", delta("serve.cache.evictions"));
    out.set(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set("cache.resident_mib", resident as f64 / (1 << 20) as f64);
    out.set("plan.compiles", misses - deltas);
    out.set("plan.delta_recompiles", deltas);
    // the view is fixed while frames are timed: no switch, no plan work
    // and no composite on this path
    for name in [
        "cache.switch_hit_us",
        "plan.switch_miss_ms",
        "plan.map_ms",
        "plan.recompile_ms",
        "composite.pump_ms",
        "composite.nudge_ms",
    ] {
        out.set(name, 0.0);
    }

    out.set("client.submit_us", submit.p50());
    out.set("shard.residual_p50_us", residual.p50());
    out.set("shard.residual_p90_us", residual.p90());
    out.set("server.turnaround_p50_us", turnaround.p50());
    out.set("server.turnaround_p90_us", turnaround.p90());
    let (mut e1, mut d1) = (
        trace.us("wire.submit_encode"),
        trace.us("wire.submit_decode"),
    );
    let (mut e2, mut d2) = (trace.us("wire.done_encode"), trace.us("wire.done_decode"));
    let mut pump = trace.us("server.pump");
    let mut kernel = trace.us("engine.correct");
    out.set("wire.submit_encode_us", e1.p50());
    out.set("wire.submit_decode_us", d1.p50());
    out.set("wire.done_encode_us", e2.p50());
    out.set("wire.done_decode_us", d2.p50());
    out.set("wire.bytes_per_frame", rp.bytes_per_frame as f64);
    out.set("server.pump_us", pump.p50());
    out.set("server.self_us", rp.server_self.p50());
    out.set("server.allocs_per_frame", rp.allocs);
    out.set("engine.correct_us", kernel.p50());
    out.set("engine.mpix_s", rp.out_px as f64 / kernel.mean());
    out.set(
        "engine.gbps",
        GATHER_BYTES_PER_PX * rp.out_px as f64 / kernel.mean() / 1e3,
    );
    out.set("frame.luma_us", rp.luma.p50());
    out.set("frame.chroma_us", rp.chroma.p50());
    out.set("frame.dispatch_us", rp.dispatch.p50());

    // Self time per frame, µs, as means. The socket run gives the round
    // trip R, `Client::submit` C and the server's turnaround T; the
    // replay gives the wire calls, `Session::submit_frame` S and how
    // `pump_one` P splits into server self time, the frame layer's
    // dispatch (wall F minus the kernels' wall time K) and the kernels:
    //   client = C − encode_submit
    //   wire   = encode_submit + decode_frame/to_frame
    //            + encode_frame_done + client-side decode
    //   server = S + T·(P − F)/P,  frame = T·(F − K)/P,  engine = T·K/P
    //   shard  = R − all of the above: the socket and the shard loop,
    //            which no span covers (`trace.unaccounted_frac`).
    let (p, f, k) = (pump.mean(), rp.wall.mean(), rp.critical.mean());
    let t = turnaround.mean();
    let per_frame = [
        ("client", (submit.mean() - e1.mean()).max(0.0)),
        ("wire", e1.mean() + d1.mean() + e2.mean() + d2.mean()),
        ("server", trace.us("server.submit").mean() + t * (p - f) / p),
        ("engine", t * k / p),
        ("frame", (t * (f - k) / p).max(0.0)),
        ("cache", 0.0),
        ("plan", 0.0),
        ("composite", 0.0),
    ];
    let r = rt.mean();
    let shard = (r - per_frame.iter().map(|(_, v)| v).sum::<f64>()).max(0.0);
    for (layer, v) in per_frame {
        out.set(share_name(layer), v / r);
    }
    out.set(share_name("shard"), shard / r);
    out.set("trace.unaccounted_frac", shard / r);
    out.set("trace.overhead", rt.p50() / 1e3 / untraced.p50());
    out.detail("roundtrip_us", rt.summary());
    out.detail("untraced_roundtrip_ms", untraced.summary());
    out.detail("replayed_frames", Json::from(rp.frames));

    let (l3, dram) = host::ruler()?;
    out.set("host.copy_l3_gbps", l3);
    out.set("host.copy_dram_gbps", dram);
    crate::write_spans(&trace, shape.name, args.seed)
}

/// What the in-process replay measured beyond its spans.
#[derive(Default)]
struct Replay {
    frames: u64,
    mismatched: u64,
    bytes_per_frame: usize,
    out_px: usize,
    /// Median allocations per steady-state `pump_one`.
    allocs: f64,
    server_self: Dist,
    wall: Dist,
    critical: Dist,
    luma: Dist,
    chroma: Dist,
    dispatch: Dist,
}

/// Replay the seeded frames through the calls a shard makes, one span
/// per call, for `shape.replay_frames` frames.
fn replay(shape: &Shape, inputs: &Inputs, trace: &mut Trace) -> Result<Replay, String> {
    let server = Server::new(ServerConfig {
        capacity: 1,
        ..net_config().server
    })
    .map_err(|e| e.to_string())?;
    let mut session = server
        .connect(SessionConfig {
            format: shape.format,
            backend: EngineSpec::Simd,
            interp: Interpolator::Bilinear,
            post: PostStage::identity(),
            workload: Workload::Single,
            ..SessionConfig::new(inputs.lens, inputs.view, shape.src)
        })
        .map_err(|e| e.to_string())?;
    let wire_err = |e: wire::WireError| format!("wire: {e}");
    let mut rp = Replay::default();
    let mut allocs = Vec::new();
    let (mut sub, mut done) = (Vec::new(), Vec::new());
    for n in 0..shape.replay_frames {
        let k = n % inputs.frames.len();
        let seq = n as u64;
        sub.clear();
        let t0 = Instant::now();
        wire::encode_submit(seq, &inputs.frames[k], &mut sub).map_err(wire_err)?;
        let t1 = Instant::now();
        let received = match wire::decode_frame(&sub).map_err(wire_err)? {
            Some((Message::SubmitFrame { frame, .. }, _)) => frame.to_frame(),
            _ => return Err("replay: submit did not decode to a frame".into()),
        };
        let t2 = Instant::now();
        let queued = session.submit_frame(Arc::new(received));
        let t3 = Instant::now();
        if queued != SubmitOutcome::Queued {
            return Err(format!("replay: submit refused: {queued:?}"));
        }
        let (pumped, count) = alloc::count(|| session.pump_one());
        let t4 = Instant::now();
        let outcome = pumped
            .map_err(|e| format!("replay pump: {e}"))?
            .ok_or("replay: nothing to pump")?;
        let latency_us = u32::try_from(outcome.latency.as_micros()).unwrap_or(u32::MAX);
        let times = report_times(&outcome.report, net_config().server.threads);
        let format = outcome.frame.format();
        let planes = outcome.frame.into_planes();
        let refs: Vec<&Image<Gray8>> = planes.iter().map(|p| &**p).collect();
        done.clear();
        let t5 = Instant::now();
        wire::encode_frame_done(
            seq,
            latency_us,
            outcome.missed,
            outcome.level,
            format,
            &refs,
            &mut done,
        )
        .map_err(wire_err)?;
        let t6 = Instant::now();
        let delivered = match wire::decode_frame(&done).map_err(wire_err)? {
            Some((Message::FrameDone { frame, .. }, _)) => frame.to_frame(),
            _ => return Err("replay: FrameDone did not decode to a frame".into()),
        };
        let t7 = Instant::now();

        trace.span(seq, "wire.submit_encode", None, t0, t1);
        trace.span(seq, "wire.submit_decode", None, t1, t2);
        trace.span(seq, "server.submit", None, t2, t3);
        trace.span(seq, "server.pump", None, t3, t4);
        trace.reported(
            seq,
            "frame.wall",
            "server.pump",
            Duration::from_secs_f64(times.wall / 1e6),
        );
        trace.reported(
            seq,
            "engine.correct",
            "frame.wall",
            outcome.report.correct_time,
        );
        trace.span(seq, "wire.done_encode", None, t5, t6);
        trace.span(seq, "wire.done_decode", None, t6, t7);
        rp.server_self
            .push((t4 - t3).as_secs_f64() * 1e6 - times.wall);
        rp.wall.push(times.wall);
        rp.critical.push(times.critical);
        if let Some((luma, chroma)) = times.planes {
            rp.luma.push(luma);
            rp.chroma.push(chroma);
            rp.dispatch.push(times.wall - times.critical);
        }
        if n >= WARM_FRAMES {
            allocs.push(count as f64);
        }
        rp.bytes_per_frame = sub.len() + done.len();
        rp.out_px = refs.iter().map(|p| p.len()).sum();
        if check::frame_digest(&delivered) != inputs.refs[k] {
            rp.mismatched += 1;
        }
        rp.frames += 1;
    }
    rp.allocs = median(&allocs);
    Ok(rp)
}
