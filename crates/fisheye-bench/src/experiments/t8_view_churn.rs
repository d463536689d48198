//! T8 — view churn: what an interactive view change costs, and what
//! sustained service looks like when every session keeps changing
//! views.
//!
//! Two measurements per resolution:
//!
//! * **Cold vs delta recompilation.** Both paths trace the new
//!   view's map (row-parallel when cores allow; `map_ms`); from
//!   there the old interactive path pays an eager
//!   [`RemapPlan::compile`] carrying every registry artifact, while
//!   the new one hands the map to [`RemapPlan::recompile`], which
//!   reuses the span index of bit-identical rows and defers LUT/tile
//!   materialization to first use. The delta plan is asserted
//!   bit-exact (same digest) against the cold compile every run.
//! * **Sustained fps under churn.** A server with every session
//!   panning to a fresh shared view every `CHURN_PERIOD` frames:
//!   the fps the serving layer sustains while plan compilation keeps
//!   happening on the delta path (`serve.plan.delta_recompiles`
//!   counts the recompiles the cache misses were served by).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::FrameFormat;
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{Interpolator, RemapMap};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::{pump_round, CameraFeed, Server, ServerConfig, SessionConfig};
use par_runtime::{Schedule, ThreadPool};

use crate::table::{f1, f2, Cmp, Table};
use crate::workloads::{resolution, time_median, Resolution};
use crate::Scale;

/// Sessions served during the churn phase.
const SESSIONS: usize = 4;
/// Every session pans to a fresh view once per this many ticks.
const CHURN_PERIOD: usize = 4;

/// One resolution's measurements.
#[cfg_attr(test, derive(Default))]
pub struct ChurnPoint {
    /// Resolution name.
    pub res: &'static str,
    /// Map trace for the new view (row-parallel when cores allow),
    /// ms (median) — paid by cold and delta paths alike.
    pub map_ms: f64,
    /// Eager registry-union [`RemapPlan::compile`], ms (median).
    pub full_ms: f64,
    /// [`RemapPlan::recompile`] against the previous view's plan,
    /// ms (median).
    pub delta_ms: f64,
    /// `full_ms / delta_ms`.
    pub speedup: f64,
    /// Delta plan digest-identical to the cold compile.
    pub bit_exact: bool,
    /// Sustained fps with every session churning views.
    pub churn_fps: f64,
    /// Plan-cache compiles during the churn phase.
    pub plan_compiles: u64,
    /// Of those, compiles served by delta recompilation.
    pub delta_recompiles: u64,
}

/// Measure one resolution: the cold/delta view-change comparison plus
/// the serve-layer churn fps.
fn churn_point(res: Resolution, reps: usize, ticks: usize) -> ChurnPoint {
    let (w, h) = (res.w, res.h);
    let lens = FisheyeLens::equidistant_fov(w, h, 180.0);
    let view0 = PerspectiveView::centered(w, h, 90.0);
    let view1 = view0.look(1.0, 0.0); // the canonical small change
    let opts = PlanOptions::for_specs(&EngineSpec::registry());

    // the previous plan an interactive view change starts from
    let prev = RemapPlan::compile(&RemapMap::build(&lens, &view0, w, h), opts.clone());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let pool = ThreadPool::new(threads);
    let sched = Schedule::Static { chunk: None };

    // both paths trace the same map; the delta path hands it to
    // recompile by value (no clone) exactly as `Corrector::set_view`
    // does, while the cold path's internal clone is part of what
    // `RemapPlan::compile` costs
    let map_ms = 1e3
        * time_median(reps, || {
            black_box(RemapMap::build_pooled(
                &lens,
                &view1,
                w,
                h,
                Some((&pool, sched)),
            ));
        });
    let map = RemapMap::build_pooled(&lens, &view1, w, h, Some((&pool, sched)));
    let full_ms = 1e3
        * time_median(reps, || {
            black_box(RemapPlan::compile(&map, opts.clone()));
        });
    let delta_ms = 1e3
        * median_of(
            reps,
            || map.clone(),
            |m| {
                black_box(prev.recompile(m));
            },
        );

    let cold = RemapPlan::compile(&map, opts.clone());
    let delta = prev.recompile(map.clone());
    let bit_exact =
        delta.digest() == cold.digest() && delta.invalid_pixels() == cold.invalid_pixels();

    let (churn_fps, plan_compiles, delta_recompiles) = churn_fps(res, ticks);
    ChurnPoint {
        res: res.name,
        map_ms,
        full_ms,
        delta_ms,
        speedup: full_ms / delta_ms.max(1e-9),
        bit_exact,
        churn_fps,
        plan_compiles,
        delta_recompiles,
    }
}

/// Median-of-`reps` wall time of `f`, seconds, with a per-rep
/// `setup` excluded from the timed region (the delta path consumes
/// its map by value, so each rep needs a fresh one).
fn median_of<T>(reps: usize, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    assert!(reps >= 1);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Serve `SESSIONS` sessions for `ticks` camera ticks, panning every
/// session to a fresh shared view every [`CHURN_PERIOD`] ticks.
/// Returns `(fps, cache_compiles, delta_recompiles)`.
fn churn_fps(res: Resolution, ticks: usize) -> (f64, u64, u64) {
    let (w, h) = (res.w, res.h);
    let server = Server::new(ServerConfig {
        capacity: SESSIONS,
        queue_depth: 4,
        // churn fps measures throughput, not the ladder: a generous
        // deadline keeps every frame at full quality
        frame_deadline: Duration::from_secs(3600),
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("valid churn config");
    let lens = FisheyeLens::equidistant_fov(w, h, 180.0);
    let out = ((w / 2).max(1), (h / 2).max(1));
    let base = PerspectiveView::centered(out.0, out.1, 90.0);
    let mut sessions: Vec<_> = (0..SESSIONS)
        .map(|_| {
            server
                .connect(SessionConfig {
                    interp: Interpolator::Bilinear,
                    backend: EngineSpec::Serial,
                    ..SessionConfig::new(lens, base, (w, h))
                })
                .expect("within capacity")
        })
        .collect();

    let mut camera = CameraFeed::new(w, h, 42);
    let mut pans = 0u32;
    let started = Instant::now();
    for t in 0..ticks {
        if t > 0 && t % CHURN_PERIOD == 0 {
            // everyone pans to the same *fresh* view: one compile
            // (served by delta recompilation), SESSIONS-1 cache hits
            pans += 1;
            let target = base.look(0.5 * pans as f64, 0.0);
            for s in sessions.iter_mut() {
                s.set_view(target).expect("valid churn view");
            }
        }
        let frame = camera.next_frame_in(FrameFormat::Gray8);
        for s in sessions.iter_mut() {
            let _ = s.submit_frame(Arc::clone(&frame));
        }
        pump_round(&mut sessions, Duration::from_secs(60)).expect("pump");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let m = server.metrics();
    let completed = m.counter("serve.frames.completed");
    (
        completed as f64 / elapsed.max(1e-9),
        server.cache().stats().misses,
        m.counter("serve.plan.delta_recompiles"),
    )
}

/// Measure every resolution for `scale`.
pub fn points(scale: Scale) -> Vec<ChurnPoint> {
    let (names, reps, ticks): (&[&str], usize, usize) = match scale {
        Scale::Quick => (&["QVGA", "VGA"], 3, 16),
        Scale::Full => (&["QVGA", "VGA", "720p", "1080p"], 5, 48),
    };
    names
        .iter()
        .map(|n| churn_point(resolution(n), reps, ticks))
        .collect()
}

/// Render measured points as the T8 table.
pub fn table(points: &[ChurnPoint]) -> Table {
    let mut t = Table::new(
        format!(
            "T8 — view churn: cold vs delta view-change compile (1° pan, registry-union \
             options) and sustained serve fps ({SESSIONS} sessions panning every \
             {CHURN_PERIOD} frames)"
        ),
        &[
            "res",
            "map_ms",
            "full_ms",
            "delta_ms",
            "speedup",
            "bit_exact",
            "churn_fps",
            "plan_compiles",
            "delta_recompiles",
        ],
    );
    for p in points {
        t.row(vec![
            p.res.to_string(),
            f2(p.map_ms),
            f2(p.full_ms),
            f2(p.delta_ms),
            f2(p.speedup),
            if p.bit_exact { "yes" } else { "NO" }.to_string(),
            f1(p.churn_fps),
            p.plan_compiles.to_string(),
            p.delta_recompiles.to_string(),
        ]);
    }
    t.note("map_ms: tracing the new view's map (row-parallel when cores allow) — paid by cold and delta paths alike");
    t.note("full = eager RemapPlan::compile with registry-union options (the pre-delta interactive path); delta = RemapPlan::recompile: span reuse for unchanged rows, LUT/tile artifacts deferred to first use");
    t.note("bit_exact: the delta plan's digest equals a cold compile's — the fast path is not an approximation");
    t.note("churn_fps: sessions share each fresh view, so every pan costs one delta recompile plus cache hits");
    // the full-scale claim is >=3x at 1080p; every scale holds a
    // conservative 2x floor (NaN start: no rows fails the gate)
    let min_speedup = points.iter().map(|p| p.speedup).fold(f64::NAN, f64::min);
    t.gate("min_speedup", min_speedup, Cmp::AtLeast, 2.0);
    t.gate_flag("all_bit_exact", points.iter().all(|p| p.bit_exact));
    t
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    table(&points(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_delta_beats_cold_and_stays_bit_exact() {
        let _serial = crate::experiments::serialize();
        let points = points(Scale::Quick);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.bit_exact, "{}: delta plan must be bit-exact", p.res);
            assert!(
                p.map_ms > 0.0 && p.full_ms > 0.0 && p.delta_ms > 0.0,
                "{}",
                p.res
            );
            assert!(p.churn_fps > 0.0, "{}: churn phase served no frames", p.res);
            // each pan compiles once (shared view), on the delta path
            assert!(p.delta_recompiles > 0, "{}: no delta recompiles", p.res);
            assert!(
                p.delta_recompiles <= p.plan_compiles,
                "{}: deltas exceed compiles",
                p.res
            );
            // the speed claim proper (>= 3x at 1080p) is gated at
            // release scale by `repro`; debug builds still must not
            // regress below parity by more than noise
            assert!(
                p.speedup >= 1.3,
                "{}: delta recompile barely beats cold compile ({:.2}x)",
                p.res,
                p.speedup
            );
        }
        let t = table(&points);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), 9);
        let names: Vec<&str> = t.gates.iter().map(|g| g.name).collect();
        assert_eq!(names, ["min_speedup", "all_bit_exact"]);
        assert!(t.gates[1].passes(), "{:?}", t.gates[1]);
    }
}
