//! T7 — serve soak: the sharded network front end under a thousand
//! concurrent wire-protocol sessions on loopback.
//!
//! Driver threads hold a fixed fleet of [`Client`]s against one
//! [`NetServer`], submitting a tiny frame per session per round while
//! two kinds of churn run continuously: ~10% of each driver's
//! sessions disconnect and reconnect every round (exercising the
//! admission budget and per-shard session teardown), and ~20% change
//! view each round from a small shared pool (exercising the shared
//! plan cache without unbounded plan growth).
//!
//! Two soak claims are measured, both declared as gates on the T7
//! table (with the ≥1000-session floor) and checked by `repro`:
//!
//! * **Bounded p99.** The measured window splits in half; the late
//!   half's server-side latency p99 — isolated with
//!   [`Histogram::diff`] — must not grow unboundedly over the early
//!   half's. A leaking queue or a degrading shard loop shows up here.
//! * **Bounded resident plan bytes.** Views come from a fixed pool,
//!   so once every plan is compiled the resident bytes of the shared
//!   plan cache must plateau: end-of-soak bytes may not exceed
//!   mid-soak bytes by more than slack.
//!
//! Frames are tiny (64×48 source, 32×24 views) on purpose: the soak
//! stresses session count, connection churn and cache behavior, not
//! per-pixel throughput — T1/F1 own that.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use fisheye_core::frame::FrameFormat;
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::wire::SessionDesc;
use fisheye_serve::{
    CameraFeed, Client, ClientEvent, Histogram, NetServer, NetServerConfig, ServerConfig,
};

use crate::table::{f2, Cmp, Table};
use crate::Scale;

/// Source frame size — tiny, so a single core can pump a thousand
/// sessions per round.
const SRC: (u32, u32) = (64, 48);
/// View (output) size.
const VIEW: (u32, u32) = (32, 24);
/// Distinct views in the shared pool; bounds the plan population.
const VIEW_POOL: usize = 8;
/// Fraction (1/N) of sessions that change view each round.
const VIEW_CHURN_STRIDE: usize = 5;

/// Soak shape: how many sessions, how long, how much churn.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Driver threads.
    pub drivers: usize,
    /// Sessions per driver (total = `drivers * per_driver`).
    pub per_driver: usize,
    /// Rounds before measurement starts (connect storm settles).
    pub warmup_rounds: usize,
    /// Measured rounds, split into an early and a late half.
    pub measured_rounds: usize,
    /// Percent of each driver's sessions reconnecting per round.
    pub churn_pct: usize,
    /// Server shards.
    pub shards: usize,
}

impl SoakConfig {
    /// The soak shape for `scale`. Quick still holds ≥1000 concurrent
    /// sessions — that is the claim under test — it just soaks for
    /// fewer rounds.
    pub fn at(scale: Scale) -> SoakConfig {
        match scale {
            Scale::Quick => SoakConfig {
                drivers: 8,
                per_driver: 125,
                warmup_rounds: 2,
                measured_rounds: 8,
                churn_pct: 10,
                shards: 2,
            },
            Scale::Full => SoakConfig {
                drivers: 8,
                per_driver: 150,
                warmup_rounds: 3,
                measured_rounds: 24,
                churn_pct: 10,
                shards: 4,
            },
        }
    }

    /// Total concurrent sessions held through the soak.
    pub fn sessions(&self) -> usize {
        self.drivers * self.per_driver
    }
}

/// What the soak measured.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(Default))]
pub struct SoakResult {
    /// Concurrent sessions held.
    pub sessions: usize,
    /// Measured rounds.
    pub rounds: usize,
    /// Frames the clients saw complete.
    pub frames_done: u64,
    /// Frames the clients saw shed.
    pub frames_shed: u64,
    /// Reconnects performed (connect/disconnect churn).
    pub reconnects: u64,
    /// Server-side latency p99 over the early measured half, µs.
    pub p99_early_us: u64,
    /// Same over the late half (isolated via [`Histogram::diff`]), µs.
    pub p99_late_us: u64,
    /// `p99_late / p99_early`.
    pub p99_growth: f64,
    /// Resident plan bytes of the shared plan cache at mid-soak.
    pub bytes_mid: usize,
    /// Resident plan bytes at end of soak.
    pub bytes_end: usize,
    /// Plan compiles (cache misses) over the whole soak.
    pub plan_compiles: u64,
    /// Late p99 within `4× early + 50 ms`.
    pub bounded_p99: bool,
    /// End bytes within `1.25× mid` (the plan population plateaued).
    pub bounded_bytes: bool,
}

/// The shared view pool: `VIEW_POOL` distinct pans of the same
/// perspective window, so every view a session can ever ask for maps
/// to one of a fixed set of plan digests.
fn view_pool() -> Vec<PerspectiveView> {
    let base = PerspectiveView::centered(VIEW.0, VIEW.1, 90.0);
    (0..VIEW_POOL)
        .map(|i| base.look(i as f64 * 6.0 - (VIEW_POOL as f64 - 1.0) * 3.0, 0.0))
        .collect()
}

fn desc_for(view: PerspectiveView) -> SessionDesc<'static> {
    SessionDesc {
        lens: FisheyeLens::equidistant_fov(SRC.0, SRC.1, 180.0),
        view,
        source: SRC,
        format: FrameFormat::Gray8,
        interp: Interpolator::Bilinear,
        // no deadline: the soak measures raw service latency, not the
        // degradation ladder
        deadline_us: 0,
        backend: "serial",
    }
}

fn connect(addr: std::net::SocketAddr, view: PerspectiveView) -> Client {
    // one retry absorbs the transient over-budget window while the
    // server is still tearing down a churned-out predecessor
    for _ in 0..2 {
        match Client::connect(addr, &desc_for(view), Duration::from_secs(30)) {
            Ok(c) => return c,
            Err(e) if e.is_rejected() => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("soak connect failed: {e}"),
        }
    }
    Client::connect(addr, &desc_for(view), Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("soak connect failed after retries: {e}"))
}

#[derive(Default)]
struct DriverStats {
    done: u64,
    shed: u64,
    lost: u64,
    reconnects: u64,
}

/// Tiny deterministic RNG (splitmix64) so churn choices are stable
/// per driver without `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Driver {
    clients: Vec<Client>,
    feed: CameraFeed,
    rng: Rng,
    pool: Vec<PerspectiveView>,
    addr: std::net::SocketAddr,
    churn_per_round: usize,
    churn_cursor: usize,
    round: u64,
    stats: DriverStats,
}

impl Driver {
    /// One soak round for this driver's fleet: churn a slice of
    /// sessions, pan a stride of views, then submit one frame per
    /// session in lockstep (submit, wait for its verdict).
    fn round(&mut self) {
        for _ in 0..self.churn_per_round {
            let idx = self.churn_cursor % self.clients.len();
            self.churn_cursor += 1;
            let view = self.pool[(self.rng.next() as usize) % self.pool.len()];
            let fresh = connect(self.addr, view);
            let mut old = std::mem::replace(&mut self.clients[idx], fresh);
            let _ = old.goodbye();
            self.stats.reconnects += 1;
        }
        let frame = self.feed.next_frame_in(FrameFormat::Gray8);
        let seq = self.round;
        for (i, c) in self.clients.iter_mut().enumerate() {
            if (i + self.round as usize).is_multiple_of(VIEW_CHURN_STRIDE) {
                let view = self.pool[(self.rng.next() as usize) % self.pool.len()];
                if c.set_view(view).is_err() {
                    self.stats.lost += 1;
                    continue;
                }
            }
            if c.submit(seq, &frame).is_err() {
                self.stats.lost += 1;
                continue;
            }
            loop {
                match c.recv(Duration::from_secs(30)) {
                    Ok(Some(ClientEvent::FrameDone { seq: s, .. })) => {
                        self.stats.done += 1;
                        if s == seq {
                            break;
                        }
                    }
                    Ok(Some(ClientEvent::Shed { .. })) => {
                        self.stats.shed += 1;
                        break;
                    }
                    Ok(Some(ClientEvent::Goodbye)) | Ok(None) | Err(_) => {
                        self.stats.lost += 1;
                        break;
                    }
                }
            }
        }
        self.round += 1;
    }
}

fn latency_hist(srv: &NetServer) -> Histogram {
    srv.metrics_snapshot()
        .histogram("serve.latency_us")
        .unwrap_or_default()
}

/// Run the soak and measure it. See the module docs for the protocol;
/// the phase fences are [`Barrier`]s shared with the measuring thread
/// so the early/late histogram windows have crisp edges.
pub fn soak(cfg: SoakConfig) -> SoakResult {
    assert!(cfg.drivers >= 1 && cfg.per_driver >= 1);
    assert!(cfg.measured_rounds >= 2, "need an early and a late half");
    let sessions = cfg.sessions();
    let net_cfg = NetServerConfig {
        server: ServerConfig {
            // headroom for churned-out sessions the shards have not
            // finished tearing down when their replacements dial in
            capacity: sessions + sessions / 4 + cfg.drivers,
            queue_depth: 2,
            frame_deadline: Duration::from_secs(3600),
            threads: 1,
            ..ServerConfig::default()
        },
        shards: cfg.shards,
        ..NetServerConfig::default()
    };
    let mut srv = NetServer::bind("127.0.0.1:0", net_cfg).expect("soak server bind");
    let addr = srv.addr();

    let early_rounds = cfg.measured_rounds / 2;
    let late_rounds = cfg.measured_rounds - early_rounds;
    // drivers + the measuring (main) thread; each phase edge is a
    // double wait: one to fence the phase end, one to release the next
    let barrier = Arc::new(Barrier::new(cfg.drivers + 1));
    let pool = view_pool();

    let handles: Vec<_> = (0..cfg.drivers)
        .map(|d| {
            let barrier = Arc::clone(&barrier);
            let pool = pool.clone();
            std::thread::Builder::new()
                .name(format!("t7-driver-{d}"))
                .spawn(move || {
                    let clients = (0..cfg.per_driver)
                        // round-robin over the pool: every view's plan
                        // is compiled during the connect storm, so the
                        // cache is saturated before measurement
                        .map(|i| connect(addr, pool[(d + i) % pool.len()]))
                        .collect();
                    let mut driver = Driver {
                        clients,
                        feed: CameraFeed::new(SRC.0, SRC.1, 0xC0FFEE ^ d as u64),
                        rng: Rng(d as u64),
                        pool,
                        addr,
                        churn_per_round: (cfg.per_driver * cfg.churn_pct) / 100,
                        churn_cursor: d,
                        round: 0,
                        stats: DriverStats::default(),
                    };
                    for phase_rounds in [cfg.warmup_rounds, early_rounds, late_rounds] {
                        barrier.wait(); // phase end fence
                        barrier.wait(); // phase start release
                        for _ in 0..phase_rounds {
                            driver.round();
                        }
                    }
                    barrier.wait(); // final fence
                    for mut c in driver.clients {
                        let _ = c.goodbye();
                    }
                    driver.stats
                })
                .expect("spawn driver")
        })
        .collect();

    barrier.wait(); // all fleets connected
    barrier.wait(); // release warmup
    barrier.wait(); // warmup done
    let h_warm = latency_hist(&srv);
    barrier.wait(); // release early half
    barrier.wait(); // early half done
    let h_mid = latency_hist(&srv);
    let bytes_mid = srv.resident_plan_bytes();
    barrier.wait(); // release late half
    barrier.wait(); // late half done
    let h_end = latency_hist(&srv);
    let bytes_end = srv.resident_plan_bytes();
    let plan_compiles = srv
        .metrics_snapshot()
        .gauge_value("serve.cache.misses")
        .unwrap_or(0.0) as u64;

    let mut stats = DriverStats::default();
    for h in handles {
        let s = h.join().expect("driver thread");
        stats.done += s.done;
        stats.shed += s.shed;
        stats.lost += s.lost;
        stats.reconnects += s.reconnects;
    }
    srv.shutdown();

    let early = h_mid.diff(&h_warm);
    let late = h_end.diff(&h_mid);
    let p99_early_us = early.quantile(0.99).as_micros() as u64;
    let p99_late_us = late.quantile(0.99).as_micros() as u64;
    let p99_growth = p99_late_us as f64 / p99_early_us.max(1) as f64;
    SoakResult {
        sessions,
        rounds: cfg.measured_rounds,
        frames_done: stats.done,
        frames_shed: stats.shed + stats.lost,
        reconnects: stats.reconnects,
        p99_early_us,
        p99_late_us,
        p99_growth,
        bytes_mid,
        bytes_end,
        plan_compiles,
        // generous on a loaded single core: a real leak compounds far
        // past 4× + 50 ms, while scheduler noise stays well inside
        bounded_p99: p99_late_us <= p99_early_us.saturating_mul(4) + 50_000,
        bounded_bytes: bytes_end <= bytes_mid + bytes_mid / 4,
    }
}

/// Run the soak at `scale`.
pub fn point(scale: Scale) -> SoakResult {
    soak(SoakConfig::at(scale))
}

/// Render the result as the T7 table.
pub fn table(r: &SoakResult) -> Table {
    let mut t = Table::new(
        format!(
            "T7 — serve soak: {} concurrent wire sessions over loopback, {} measured rounds, \
             connect/disconnect + view churn",
            r.sessions, r.rounds
        ),
        &[
            "sessions",
            "frames_done",
            "shed",
            "reconnects",
            "p99_early_us",
            "p99_late_us",
            "p99_growth",
            "bytes_mid",
            "bytes_end",
            "plan_compiles",
            "bounded_p99",
            "bounded_bytes",
        ],
    );
    t.row(vec![
        r.sessions.to_string(),
        r.frames_done.to_string(),
        r.frames_shed.to_string(),
        r.reconnects.to_string(),
        r.p99_early_us.to_string(),
        r.p99_late_us.to_string(),
        f2(r.p99_growth),
        r.bytes_mid.to_string(),
        r.bytes_end.to_string(),
        r.plan_compiles.to_string(),
        if r.bounded_p99 { "yes" } else { "NO" }.to_string(),
        if r.bounded_bytes { "yes" } else { "NO" }.to_string(),
    ]);
    t.note("p99_early/p99_late: server-side serve.latency_us p99 over the first/second half of the measured window (late isolated via Histogram::diff)");
    t.note("bounded_p99: late p99 <= 4x early + 50 ms — sustained service does not degrade as the soak runs");
    t.note("bounded_bytes: resident bytes of the plan cache the shards share plateau once the fixed view pool is compiled");
    t.note("frames are deliberately tiny (64x48 -> 32x24): the soak stresses sessions, churn and caches, not pixels");
    t.gate("sessions", r.sessions as f64, Cmp::AtLeast, 1000.0);
    t.gate_flag("bounded_p99", r.bounded_p99);
    t.gate_flag("bounded_bytes", r.bounded_bytes);
    t
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    table(&point(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape check at debug-build scale: a small fleet, same protocol.
    /// The thousand-session claim itself runs under release via
    /// `repro t7_serve_soak`, whose `sessions` gate this fleet fails.
    #[test]
    fn soak_shape_holds_on_a_small_fleet() {
        let _serial = crate::experiments::serialize();
        let r = soak(SoakConfig {
            drivers: 2,
            per_driver: 12,
            warmup_rounds: 1,
            measured_rounds: 4,
            churn_pct: 20,
            shards: 2,
        });
        assert_eq!(r.sessions, 24);
        assert!(r.frames_done > 0, "no frames served: {r:?}");
        // 2 churned sessions per driver per round across 5 rounds
        assert!(r.reconnects >= 10, "churn did not run: {r:?}");
        assert!(r.plan_compiles >= 1, "no plans compiled: {r:?}");
        assert!(
            r.plan_compiles <= VIEW_POOL as u64,
            "plan population leaked past the view pool: {r:?}"
        );
        assert!(r.bytes_mid > 0 && r.bounded_bytes, "{r:?}");
        assert!(r.p99_late_us > 0, "late window empty: {r:?}");
        let t = table(&r);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.headers.len(), 12);
        let names: Vec<&str> = t.gates.iter().map(|g| g.name).collect();
        assert_eq!(names, ["sessions", "bounded_p99", "bounded_bytes"]);
        assert!(!t.gates[0].passes() && t.gates[0].observed == 24.0);
        assert!(t.gates[2].passes(), "{:?}", t.gates[2]);
    }
}
