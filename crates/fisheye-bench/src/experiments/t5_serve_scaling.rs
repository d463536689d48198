//! T5 — serving-layer scaling: offered sessions swept from half to
//! 4× the server's capacity, all sharing views, against fixed
//! per-frame deadlines and a fixed pump budget per tick.
//!
//! What the table demonstrates, point by point:
//!
//! * **Admission control bounds the work.** Admitted sessions cap at
//!   capacity; everything past it is rejected at connect, so p99
//!   latency stays bounded no matter how many sessions are offered —
//!   the 4× column looks like the 1× column, plus a rejection count.
//! * **The plan cache absorbs shared views.** Sessions watch the same
//!   rotating pair of views, so across connects and view churn
//!   almost every plan request is a digest hit; the compile count
//!   stays at a handful while lookups run to the hundreds.
//! * **Degradation is measured, not anecdotal.** The final `overload`
//!   row forces every frame over deadline: the ladder climbs and the
//!   `degraded_pct` column shows what fraction of frames were served
//!   below full quality — all of them accounted in the same metrics
//!   that sum to the submitted total.
//!
//! Every row asserts the conservation law `submitted = completed +
//! shed + pending` internally; a frame cannot vanish.

use std::sync::Arc;
use std::time::Duration;

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::FrameFormat;
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::{pump_round, CameraFeed, DegradeLevel, Server, ServerConfig, SessionConfig};

use crate::table::{f1, Table};
use crate::workloads::resolution;
use crate::Scale;

/// Server capacity for the sweep.
const CAPACITY: usize = 4;

struct Point {
    admitted: usize,
    rejected: u64,
    submitted: u64,
    completed: u64,
    shed: u64,
    p50: Duration,
    p99: Duration,
    miss_pct: f64,
    cache_hit_pct: f64,
    degraded_pct: f64,
    final_level: &'static str,
}

/// Run one sweep point: `offered` connect attempts against a fresh
/// server, `frames` camera ticks with view churn between two shared
/// views, then drain and read the registry.
fn serve_point(
    offered: usize,
    src: (u32, u32),
    frames: usize,
    deadline: Duration,
    budget: Duration,
) -> Point {
    let server = Server::new(ServerConfig {
        capacity: CAPACITY,
        queue_depth: 4,
        frame_deadline: deadline,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("valid sweep config");
    let lens = FisheyeLens::equidistant_fov(src.0, src.1, 180.0);
    let out = ((src.0 / 2).max(1), (src.1 / 2).max(1));
    // the two views every session rotates through — shared across
    // sessions, so the cache compiles each once per quality variant
    let views = [
        PerspectiveView::centered(out.0, out.1, 90.0),
        PerspectiveView::centered(out.0, out.1, 90.0).look(18.0, 0.0),
    ];
    let mut sessions = Vec::new();
    for _ in 0..offered {
        let cfg = SessionConfig {
            interp: Interpolator::Bicubic,
            backend: EngineSpec::Serial,
            ..SessionConfig::new(lens, views[0], src)
        };
        match server.connect(cfg) {
            Ok(s) => sessions.push(s),
            Err(e) => assert!(e.is_rejected(), "unexpected connect failure: {e}"),
        }
    }
    let admitted = sessions.len();

    let mut camera = CameraFeed::new(src.0, src.1, 21);
    for t in 0..frames {
        let frame = camera.next_frame_in(FrameFormat::Gray8);
        for s in sessions.iter_mut() {
            let _ = s.submit_frame(Arc::clone(&frame));
        }
        if t % 2 == 1 {
            // everyone pans to the *other* shared view: one compile
            // (at most), admitted-1 hits
            let target = views[(t / 2 + 1) % 2];
            for s in sessions.iter_mut() {
                s.set_view(target).expect("valid churn view");
            }
        }
        pump_round(&mut sessions, budget).expect("pump");
    }
    pump_round(&mut sessions, Duration::from_secs(60)).expect("drain");
    let pending: u64 = sessions.iter().map(|s| s.pending() as u64).sum();

    let m = server.metrics();
    let submitted = m.counter("serve.frames.submitted");
    let completed = m.counter("serve.frames.completed");
    let shed = m.counter("serve.frames.dropped_oldest") + m.counter("serve.frames.dropped_newest");
    assert_eq!(
        submitted,
        completed + shed + pending,
        "conservation: a submitted frame is completed, shed or pending"
    );
    let degraded: u64 = DegradeLevel::LADDER
        .iter()
        .filter(|l| **l != DegradeLevel::Normal)
        .map(|l| m.counter(&format!("serve.degrade.frames.{}", l.name())))
        .sum();
    let pct = |n: u64| {
        if completed == 0 {
            0.0
        } else {
            n as f64 / completed as f64 * 100.0
        }
    };
    let hist = m.histogram("serve.latency_us").unwrap_or_default();
    Point {
        admitted,
        rejected: m.counter("serve.rejected"),
        submitted,
        completed,
        shed,
        p50: hist.quantile(0.5),
        p99: hist.quantile(0.99),
        miss_pct: pct(m.counter("serve.frames.deadline_missed")),
        cache_hit_pct: server.cache().stats().hit_rate() * 100.0,
        degraded_pct: pct(degraded),
        final_level: server.level().name(),
    }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let (res, frames, deadline) = match scale {
        Scale::Quick => (resolution("QVGA"), 24, Duration::from_millis(25)),
        Scale::Full => (resolution("VGA"), 96, Duration::from_millis(33)),
    };
    let budget = Duration::from_millis(8);
    let mut table = Table::new(
        format!(
            "T5 — serving-layer scaling ({}, capacity {CAPACITY}, {frames} ticks, \
             serial backend, 2 shared views)",
            res.name
        ),
        &[
            "sessions",
            "admitted",
            "rejected",
            "submitted",
            "completed",
            "shed",
            "p50_ms",
            "p99_ms",
            "miss_pct",
            "cache_hit_pct",
            "degraded_pct",
            "final_level",
        ],
    );
    let src = (res.w, res.h);
    let mut points = Vec::new();
    for offered in [CAPACITY / 2, CAPACITY, 2 * CAPACITY, 4 * CAPACITY] {
        points.push((
            format!("{offered}"),
            serve_point(offered, src, frames, deadline, budget),
        ));
    }
    // forced overload: a zero deadline makes every frame late, so the
    // ladder's occupancy accounting is exercised deterministically
    points.push((
        format!("{}(overload)", 4 * CAPACITY),
        serve_point(4 * CAPACITY, src, frames, Duration::ZERO, budget),
    ));
    for (label, p) in points {
        table.row(vec![
            label,
            p.admitted.to_string(),
            p.rejected.to_string(),
            p.submitted.to_string(),
            p.completed.to_string(),
            p.shed.to_string(),
            f1(p.p50.as_secs_f64() * 1e3),
            f1(p.p99.as_secs_f64() * 1e3),
            f1(p.miss_pct),
            f1(p.cache_hit_pct),
            f1(p.degraded_pct),
            p.final_level.to_string(),
        ]);
    }
    table.note("admission caps work at capacity: offered sessions beyond it are rejected, so p99 stays bounded at 4x offered load");
    table.note("sessions share two rotating views: the plan cache compiles each quality variant once and serves the rest as digest hits");
    table.note("the overload row (deadline 0) forces the degradation ladder up: degraded_pct counts frames served below full quality");
    table.note("every row satisfies submitted = completed + shed + pending; shed = drop-oldest + refused-at-queue");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_admission_cache_and_degradation() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 5);
        let num = |s: &str| s.parse::<f64>().unwrap_or_else(|_| panic!("number: {s}"));
        for r in &t.rows {
            let offered: usize = r[0]
                .trim_end_matches("(overload)")
                .parse()
                .expect("offered");
            let admitted = num(&r[1]) as usize;
            let rejected = num(&r[2]) as usize;
            assert_eq!(admitted, offered.min(CAPACITY), "row {}", r[0]);
            assert_eq!(rejected, offered - admitted, "row {}", r[0]);
            assert!(num(&r[4]) > 0.0, "row {}: no frames completed", r[0]);
        }
        let at = |label: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("row {label}"))
        };
        let full = at("4");
        let sixteen = at("16");
        // shared views keep the cache hot even while 16 sessions churn
        assert!(
            num(&sixteen[9]) >= 90.0,
            "4x capacity cache hit rate {}% < 90%",
            sixteen[9]
        );
        // admission keeps p99 in the same regime as at capacity: the
        // queues are bounded, so the structural worst case is a few
        // service times, never offered-load-proportional
        let p99_at_cap = num(&full[7]);
        let p99_at_4x = num(&sixteen[7]);
        assert!(
            p99_at_4x <= (10.0 * p99_at_cap).max(250.0),
            "p99 grew with offered load: {p99_at_4x} ms vs {p99_at_cap} ms at capacity"
        );
        // forced overload: ladder engaged, frames served degraded, and
        // still fully accounted (the conservation assert ran in-point)
        let overload = at("16(overload)");
        assert!(
            num(&overload[10]) > 0.0,
            "overload row shows no degraded frames"
        );
        assert!(
            num(&overload[8]) > 99.0,
            "zero deadline must miss everything"
        );
        assert_ne!(overload[11], "normal", "ladder must have escalated");
    }
}
