//! End-to-end contracts of the serving layer: admission against the
//! capacity budget, plan sharing across sessions, the degradation
//! ladder engaging under deterministic overload and recovering when
//! it lifts, and the metrics snapshot accounting for every frame.

use std::sync::Arc;
use std::time::Duration;

use fisheye::ErrorKind;
use fisheye_core::frame::FrameFormat;
use fisheye_core::post::{Lut3d, PostStage, ToneMap};
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::{
    CameraFeed, DegradeConfig, DegradeLevel, ServedFrame, Server, ServerConfig, SessionConfig,
    SubmitOutcome,
};

const SRC: (u32, u32) = (128, 96);

fn lens() -> FisheyeLens {
    FisheyeLens::equidistant_fov(SRC.0, SRC.1, 180.0)
}

fn wide_view() -> PerspectiveView {
    PerspectiveView::centered(64, 48, 90.0)
}

fn test_server(capacity: usize) -> Server {
    Server::new(ServerConfig {
        capacity,
        queue_depth: 2,
        degrade: DegradeConfig {
            window: 8,
            up_threshold: 0.5,
            down_threshold: 0.05,
        },
        ..ServerConfig::default()
    })
    .expect("valid config")
}

fn session_cfg() -> SessionConfig {
    SessionConfig {
        interp: Interpolator::Bicubic,
        ..SessionConfig::new(lens(), wide_view(), SRC)
    }
}

#[test]
fn admission_is_a_budget_not_a_queue() {
    let server = test_server(2);
    let a = server.connect(session_cfg()).expect("slot 1");
    let b = server.connect(session_cfg()).expect("slot 2");
    assert_eq!(server.active_sessions(), 2);

    let err = server.connect(session_cfg()).expect_err("over capacity");
    assert!(err.is_rejected());
    assert_eq!(err.kind(), ErrorKind::Rejected);
    assert_eq!(
        err.to_string(),
        "session rejected: 2/2 slots in use",
        "rejection names the budget"
    );

    // a released slot is immediately reusable
    drop(a);
    assert_eq!(server.active_sessions(), 1);
    let c = server.connect(session_cfg()).expect("freed slot");
    drop(b);
    drop(c);
    let m = server.metrics();
    assert_eq!(m.counter("serve.admitted"), 3);
    assert_eq!(m.counter("serve.rejected"), 1);
    assert_eq!(m.counter("serve.sessions.closed"), 3);
    assert_eq!(m.gauge_value("serve.sessions.active"), Some(0.0));
}

#[test]
fn identical_views_share_one_compiled_plan() {
    let server = test_server(4);
    let sessions: Vec<_> = (0..4)
        .map(|_| server.connect(session_cfg()).expect("capacity 4"))
        .collect();
    let stats = server.cache().stats();
    assert_eq!(stats.misses, 1, "one compile for four identical views");
    assert_eq!(stats.hits, 3);
    for s in &sessions[1..] {
        assert!(
            Arc::ptr_eq(sessions[0].corrector().plan(), s.corrector().plan()),
            "sessions share the same plan allocation"
        );
    }
    // a view change to a *new* view compiles once; back to the shared
    // view is a pure hit
    let mut sessions = sessions;
    let other = PerspectiveView::centered(64, 48, 70.0).look(30.0, 0.0);
    sessions[0].set_view(other).expect("valid view");
    assert_eq!(server.cache().stats().misses, 2);
    sessions[0].set_view(wide_view()).expect("valid view");
    assert_eq!(server.cache().stats().misses, 2, "return trip is cached");
    assert!(server.cache().stats().hit_rate() > 0.5);
}

#[test]
fn ladder_escalates_under_overload_and_recovers() {
    let server = test_server(2);
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 3);

    // deterministic overload: a zero deadline makes every completed
    // frame a miss, closing each 8-frame window at a 100% miss ratio
    let mut hot = server
        .connect(SessionConfig {
            deadline: Some(Duration::ZERO),
            ..session_cfg()
        })
        .expect("slot");
    let mut climb = Vec::new();
    for _ in 0..5 {
        for _ in 0..8 {
            assert_ne!(
                hot.submit(camera.next_frame()),
                SubmitOutcome::DroppedNewest
            );
            hot.pump_one().expect("engine ok").expect("frame pending");
        }
        climb.push(server.level());
        // the active rung is readable by *name*: exactly one labeled
        // rung gauge is high, and it is the current level's
        let m = server.metrics();
        for rung in DegradeLevel::LADDER {
            let gauge = format!("serve.degrade.rung.{}", rung.name());
            let expect = if rung == server.level() { 1.0 } else { 0.0 };
            assert_eq!(m.gauge_value(&gauge), Some(expect), "{gauge}");
        }
    }
    assert_eq!(
        climb,
        vec![
            DegradeLevel::DropOldest,
            DegradeLevel::InterpDown,
            DegradeLevel::InterpFloor,
            DegradeLevel::DropGrading,
            DegradeLevel::HalfRes,
        ],
        "one rung per saturated window"
    );

    // the session followed the ladder: kernel floored, output halved
    let out = {
        hot.submit(camera.next_frame());
        hot.pump_one().expect("engine ok").expect("frame pending")
    };
    assert_eq!(out.level, DegradeLevel::HalfRes);
    assert_eq!(
        out.frame.dims(),
        (32, 24),
        "half resolution at the top rung"
    );
    assert_eq!(hot.corrector().interp(), Interpolator::Nearest);
    assert_eq!(hot.applied_level(), DegradeLevel::HalfRes);

    // at drop-oldest and above, a full queue sheds its *oldest* frame
    hot.submit(camera.next_frame());
    hot.submit(camera.next_frame());
    let shed = hot.submit(camera.next_frame());
    assert!(matches!(shed, SubmitOutcome::DroppedOldest(_)), "{shed:?}");
    assert!(hot.pending() <= 2, "queue depth is a hard bound");
    drop(hot);

    // overload lifts: a generous deadline misses nothing and the
    // ladder walks all the way back down, automatically (six
    // windows: the first flushes the misses the checks above left in
    // the controller's buffer, five recover the five rungs)
    let mut cool = server
        .connect(SessionConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..session_cfg()
        })
        .expect("slot");
    for _ in 0..6 {
        for _ in 0..8 {
            cool.submit(camera.next_frame());
            cool.pump_one().expect("engine ok").expect("frame pending");
        }
    }
    assert_eq!(server.level(), DegradeLevel::Normal, "full recovery");
    cool.submit(camera.next_frame());
    let out = cool.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.frame.dims(), (64, 48), "full resolution restored");
    assert_eq!(cool.corrector().interp(), Interpolator::Bicubic);

    let m = server.metrics();
    assert_eq!(m.counter("serve.degrade.escalations"), 5);
    assert_eq!(m.counter("serve.degrade.recoveries"), 5);
    assert_eq!(m.gauge_value("serve.degrade.level"), Some(0.0));
    assert_eq!(m.gauge_value("serve.degrade.rung.normal"), Some(1.0));
    assert_eq!(m.gauge_value("serve.degrade.rung.half_res"), Some(0.0));
}

/// The ladder sheds grading before resolution on the way up, and
/// restores resolution before grading on the way down: DropGrading
/// sits between InterpFloor and HalfRes in both directions.
#[test]
fn grading_is_shed_before_resolution_and_restored_after() {
    let server = test_server(2);
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 21);
    let post = PostStage::identity()
        .with_grade(Arc::new(Lut3d::builtin("warm").expect("builtin lut")), 1.0)
        .with_tone_map(ToneMap::McFace);
    let mut hot = server
        .connect(SessionConfig {
            post: post.clone(),
            deadline: Some(Duration::ZERO),
            ..session_cfg()
        })
        .expect("slot");
    assert!(!hot.corrector().post_stage().is_identity());

    // the post stage salts the plan digest: an ungraded session of
    // the same view compiles its own cache entry rather than aliasing
    // the graded one
    let misses_before = server.cache().stats().misses;
    drop(server.connect(session_cfg()).expect("slot"));
    assert_eq!(server.cache().stats().misses, misses_before + 1);

    // four saturated windows climb to DropGrading: grading shed,
    // geometry (resolution) untouched
    for _ in 0..4 {
        for _ in 0..8 {
            hot.submit(camera.next_frame());
            hot.pump_one().expect("engine ok").expect("frame pending");
        }
    }
    assert_eq!(server.level(), DegradeLevel::DropGrading);
    hot.submit(camera.next_frame());
    let out = hot.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::DropGrading);
    assert!(
        hot.corrector().post_stage().is_identity(),
        "grading shed at DropGrading"
    );
    assert_eq!(out.frame.dims(), (64, 48), "resolution survives the rung");
    assert_eq!(server.metrics().counter("serve.degrade.post_shed"), 1);

    // one more saturated window: only then does resolution halve, and
    // grading stays shed
    for _ in 0..7 {
        hot.submit(camera.next_frame());
        hot.pump_one().expect("engine ok").expect("frame pending");
    }
    assert_eq!(server.level(), DegradeLevel::HalfRes);
    hot.submit(camera.next_frame());
    let out = hot.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::HalfRes);
    assert_eq!(out.frame.dims(), (32, 24));
    assert!(hot.corrector().post_stage().is_identity());
    drop(hot);

    // recovery runs the rungs in reverse: resolution comes back while
    // grading is still shed, and grading returns only below
    // DropGrading — fully restored from the session's base at Normal
    let mut cool = server
        .connect(SessionConfig {
            post: post.clone(),
            deadline: Some(Duration::from_secs(3600)),
            ..session_cfg()
        })
        .expect("slot");
    let mut saw_restored_res_without_grading = false;
    for _ in 0..6 {
        for _ in 0..8 {
            cool.submit(camera.next_frame());
            let out = cool.pump_one().expect("engine ok").expect("frame pending");
            if out.level == DegradeLevel::DropGrading {
                assert_eq!(out.frame.dims(), (64, 48));
                assert!(cool.corrector().post_stage().is_identity());
                saw_restored_res_without_grading = true;
            }
        }
    }
    assert!(
        saw_restored_res_without_grading,
        "recovery must pass through DropGrading (full res, no grading)"
    );
    assert_eq!(server.level(), DegradeLevel::Normal, "full recovery");
    cool.submit(camera.next_frame());
    let out = cool.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::Normal);
    assert!(
        !cool.corrector().post_stage().is_identity(),
        "grading restored from the base config"
    );
    assert_eq!(out.frame.dims(), (64, 48));

    // and the restored grading really reaches the pixels: the same
    // source frame serves differently on a graded vs ungraded session
    let mut plain = server
        .connect(SessionConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..session_cfg()
        })
        .expect("slot");
    let frame = camera.next_frame();
    cool.submit(Arc::clone(&frame));
    plain.submit(frame);
    let graded = cool.pump_one().expect("ok").expect("pending");
    let ungraded = plain.pump_one().expect("ok").expect("pending");
    let g = graded.frame.as_gray().expect("gray session");
    let u = ungraded.frame.as_gray().expect("gray session");
    assert_ne!(g.pixels(), u.pixels(), "grading changes output bytes");
}

#[test]
fn snapshot_accounts_for_every_submitted_frame() {
    let server = test_server(2);
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 9);
    let mut s = server
        .connect(SessionConfig {
            deadline: Some(Duration::ZERO), // engage drop-oldest quickly
            ..session_cfg()
        })
        .expect("slot");

    // uneven submit/pump pressure: some frames complete, some are
    // refused at Normal, some are shed at DropOldest+
    for burst in 0..20 {
        for _ in 0..3 {
            s.submit(camera.next_frame());
        }
        let pumps = if burst % 2 == 0 { 1 } else { 2 };
        for _ in 0..pumps {
            let _ = s.pump_one().expect("engine ok");
        }
    }
    let pending = s.pending() as u64;
    let m = server.metrics();
    let submitted = m.counter("serve.frames.submitted");
    let completed = m.counter("serve.frames.completed");
    let dropped_oldest = m.counter("serve.frames.dropped_oldest");
    let dropped_newest = m.counter("serve.frames.dropped_newest");
    assert_eq!(submitted, 60);
    assert_eq!(
        submitted,
        completed + dropped_oldest + dropped_newest + pending,
        "every frame is exactly one of completed/shed/refused/pending"
    );
    assert!(dropped_oldest > 0, "overload must engage shedding");
    assert_eq!(
        m.counter("serve.frames.deadline_missed"),
        completed,
        "zero deadline: every completed frame misses"
    );
    let h = m.histogram("serve.latency_us").expect("latency histogram");
    assert_eq!(h.count(), completed);

    // the text snapshot carries the whole story
    let snap = m.snapshot();
    for key in [
        "serve.admitted",
        "serve.frames.submitted",
        "serve.frames.completed",
        "serve.frames.dropped_oldest",
        "serve.frames.deadline_missed",
        "serve.degrade.escalations",
        "serve.cache.hit_rate",
        "serve.engine.frames",
        "serve.latency_us histogram",
        "serve.pool.hits",
    ] {
        assert!(snap.contains(key), "snapshot missing {key}:\n{snap}");
    }
}

#[test]
fn invalid_configs_are_errors_not_panics() {
    for cfg in [
        ServerConfig {
            capacity: 0,
            ..ServerConfig::default()
        },
        ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        },
        ServerConfig {
            plan_cache_capacity: 0,
            ..ServerConfig::default()
        },
        ServerConfig {
            degrade: DegradeConfig {
                window: 0,
                ..DegradeConfig::default()
            },
            ..ServerConfig::default()
        },
        ServerConfig {
            degrade: DegradeConfig {
                up_threshold: 0.2,
                down_threshold: 0.4,
                ..DegradeConfig::default()
            },
            ..ServerConfig::default()
        },
    ] {
        let err = Server::new(cfg).expect_err("must reject");
        assert_eq!(err.kind(), ErrorKind::Config, "{cfg:?}");
    }
}

#[test]
fn yuv_sessions_share_plane_plans_and_serve_bit_exact_frames() {
    let server = test_server(4);
    let yuv_cfg = SessionConfig {
        format: FrameFormat::Yuv420,
        ..session_cfg()
    };
    let mut a = server.connect(yuv_cfg.clone()).expect("slot 1");
    let _b = server.connect(yuv_cfg).expect("slot 2");
    let stats = server.cache().stats();
    assert_eq!(
        stats.misses, 2,
        "one compile per plane class (full luma + half chroma)"
    );
    assert_eq!(stats.hits, 2, "the second session reuses both");

    // a gray session of the same view shares the full-res plan with
    // the YUV sessions' luma plane — cross-format, same cache entry
    let _gray = server.connect(session_cfg()).expect("slot 3");
    let stats = server.cache().stats();
    assert_eq!(stats.misses, 2, "gray full-res plan is the luma plan");
    assert_eq!(stats.hits, 3);

    let mut camera = CameraFeed::new(SRC.0, SRC.1, 5);
    let frame = camera.next_frame_in(FrameFormat::Yuv420);
    a.submit_frame(Arc::clone(&frame));
    let out = a.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.frame.dims(), (64, 48));
    assert_eq!(out.frame.format(), FrameFormat::Yuv420);

    // bit-exact per plane against the offline plan path
    let ServedFrame::Planes { planes, .. } = &out.frame else {
        panic!("yuv session serves planes");
    };
    assert_eq!(planes.len(), 3);
    assert_eq!(planes[1].dims(), (32, 24), "chroma at half view res");
    let plan = a.corrector().view_plan().clone();
    let srcs = frame.u8_planes().expect("yuv has byte planes");
    for (i, (src, got)) in srcs.iter().zip(planes.iter()).enumerate() {
        let expect = fisheye_core::correct_plan(src, plan.plane_plan(i), Interpolator::Bicubic);
        assert_eq!(**got, expect, "plane {i} bit-exact");
    }

    // plane-labelled accounting reached the registry
    let m = server.metrics();
    for label in ["y", "cb", "cr"] {
        let h = m
            .histogram(&format!("serve.plane.{label}.correct_us"))
            .unwrap_or_else(|| panic!("serve.plane.{label}.correct_us missing"));
        assert_eq!(h.count(), 1);
    }
    assert_eq!(
        m.gauge_value("serve.engine.model.planes"),
        Some(3.0),
        "merged report carries the plane count"
    );
}

#[test]
fn yuv_sessions_ride_the_halfres_rung() {
    let server = test_server(1);
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 11);
    let mut hot = server
        .connect(SessionConfig {
            format: FrameFormat::Yuv420,
            deadline: Some(Duration::ZERO),
            ..session_cfg()
        })
        .expect("slot");
    // saturate five 8-frame windows: one rung per window, to HalfRes
    for _ in 0..5 {
        for _ in 0..8 {
            hot.submit_frame(camera.next_frame_in(FrameFormat::Yuv420));
            hot.pump_one().expect("engine ok").expect("frame pending");
        }
    }
    assert_eq!(server.level(), DegradeLevel::HalfRes);
    hot.submit_frame(camera.next_frame_in(FrameFormat::Yuv420));
    let out = hot.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::HalfRes);
    assert_eq!(out.frame.dims(), (32, 24), "halved luma");
    let ServedFrame::Planes { planes, .. } = &out.frame else {
        panic!("yuv session serves planes");
    };
    assert_eq!(planes[1].dims(), (16, 12), "halved chroma follows");
}

#[test]
fn format_mismatches_and_grayf32_are_config_errors() {
    let server = test_server(3);
    let err = server
        .connect(SessionConfig {
            format: FrameFormat::GrayF32,
            ..session_cfg()
        })
        .expect_err("grayf32 is not servable");
    assert_eq!(err.kind(), ErrorKind::Config);

    let mut camera = CameraFeed::new(SRC.0, SRC.1, 13);
    let mut yuv = server
        .connect(SessionConfig {
            format: FrameFormat::Yuv420,
            ..session_cfg()
        })
        .expect("slot");
    yuv.submit(camera.next_frame());
    let err = yuv.pump_one().expect_err("gray image on a yuv session");
    assert_eq!(err.kind(), ErrorKind::Config);
    yuv.submit_frame(camera.next_frame_in(FrameFormat::Rgb8));
    let err = yuv.pump_one().expect_err("rgb frame on a yuv session");
    assert_eq!(err.kind(), ErrorKind::Config);

    // a gray session accepts a gray Frame through submit_frame
    let mut gray = server.connect(session_cfg()).expect("slot");
    gray.submit_frame(camera.next_frame_in(FrameFormat::Gray8));
    let out = gray.pump_one().expect("engine ok").expect("frame pending");
    assert!(out.frame.as_gray().is_some());
}

#[test]
fn mismatched_frames_surface_as_errors_at_the_pump() {
    let server = test_server(1);
    let mut s = server.connect(session_cfg()).expect("slot");
    let mut wrong = CameraFeed::new(32, 32, 1);
    s.submit(wrong.next_frame());
    let err = s.pump_one().expect_err("dims mismatch");
    assert_eq!(err.kind(), ErrorKind::Engine);
}

#[test]
fn partial_windows_flush_on_session_close() {
    // fewer completed frames than a full window used to vanish with
    // the session: sustained misses straddling a close never counted
    let server = Server::new(ServerConfig {
        capacity: 2,
        degrade: DegradeConfig {
            window: 32,
            up_threshold: 0.5,
            down_threshold: 0.05,
        },
        ..ServerConfig::default()
    })
    .expect("valid config");
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 7);
    let mut hot = server
        .connect(SessionConfig {
            deadline: Some(Duration::ZERO), // every completed frame misses
            ..session_cfg()
        })
        .expect("slot");
    for _ in 0..8 {
        hot.submit(camera.next_frame());
        hot.pump_one().expect("engine ok").expect("frame pending");
    }
    assert_eq!(
        server.level(),
        DegradeLevel::Normal,
        "8 of 32 samples: the window is still open"
    );
    drop(hot);
    assert_eq!(
        server.level(),
        DegradeLevel::DropOldest,
        "teardown evaluates the partial window (8/8 missed)"
    );
    assert_eq!(server.metrics().counter("serve.degrade.escalations"), 1);
}

#[test]
fn view_changes_delta_recompile_from_the_outgoing_plan() {
    use fisheye_core::engine::EngineSpec;
    use fisheye_core::map::RemapMap;
    use fisheye_core::plan::{PlanOptions, RemapPlan};

    let server = test_server(2);
    let mut s = server.connect(session_cfg()).expect("slot");
    let m = server.metrics();
    assert_eq!(
        m.counter("serve.plan.delta_recompiles"),
        0,
        "first compile is cold"
    );

    let panned = wide_view().look(1.0, 0.0);
    s.set_view(panned).expect("valid view");
    assert_eq!(
        m.counter("serve.plan.delta_recompiles"),
        1,
        "the cache miss was served by delta recompilation from the outgoing plan"
    );

    // bit-exact against a cold offline compile of the same view: same
    // digest (so the cache entry is shared with cold-compiled
    // sessions) and bit-identical corrected frames
    let cold = RemapPlan::compile(
        &RemapMap::build(&lens(), &panned, SRC.0, SRC.1),
        PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bicubic),
    );
    assert_eq!(s.corrector().plan().digest(), cold.digest());
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 5);
    let frame = camera.next_frame();
    s.submit(Arc::clone(&frame));
    let out = s.pump_one().expect("engine ok").expect("frame pending");
    let got = out.frame.as_gray().expect("gray session");
    assert_eq!(
        **got,
        fisheye_core::correct_plan(&frame, &cold, Interpolator::Bicubic),
        "delta-recompiled plan corrects bit-exactly"
    );
}

#[test]
fn degraded_interp_never_seeds_delta_recompilation() {
    use fisheye_core::engine::EngineSpec;
    use fisheye_core::map::RemapMap;
    use fisheye_core::plan::{PlanOptions, RemapPlan};

    // walk the ladder to InterpDown: the corrector now runs bilinear
    // while its plan was compiled under bicubic options
    let server = test_server(2);
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 17);
    let mut hot = server
        .connect(SessionConfig {
            deadline: Some(Duration::ZERO),
            ..session_cfg()
        })
        .expect("slot");
    for _ in 0..17 {
        hot.submit(camera.next_frame());
        hot.pump_one().expect("engine ok").expect("frame pending");
    }
    assert_eq!(server.level(), DegradeLevel::InterpDown);
    assert_eq!(hot.applied_level(), DegradeLevel::InterpDown);
    assert_eq!(hot.corrector().interp(), Interpolator::Bilinear);

    // a pan at this rung compiles into the *bilinear* key space; the
    // outgoing bicubic-opts plan must not seed it
    let panned = wide_view().look(1.0, 0.0);
    hot.set_view(panned).expect("valid view");
    assert_eq!(
        server.metrics().counter("serve.plan.delta_recompiles"),
        0,
        "mismatched plan options fall back to a cold compile"
    );
    let cold = RemapPlan::compile(
        &RemapMap::build(&lens(), &panned, SRC.0, SRC.1),
        PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear),
    );
    assert_eq!(hot.corrector().plan().digest(), cold.digest());
}

// ---------------------------------------------------------------------
// Composite workloads: panorama and stereo sessions
// ---------------------------------------------------------------------

mod composite_sessions {
    use super::*;
    use fisheye_core::composite::{CompositePlan, CompositeViewPlan, StereoPlan};
    use fisheye_core::engine::{EngineSpec, HostEnv};
    use fisheye_core::frame::Frame;
    use fisheye_core::plan::PlanOptions;
    use fisheye_core::{correct_plan, execute_composite_host};
    use fisheye_geom::{CameraRig, Mat3, StereoRig};
    use fisheye_serve::Workload;
    use pixmap::{Gray8, Image};

    /// Two back-to-back 200° cameras on 96×96 sensors.
    fn pano_rig() -> CameraRig {
        CameraRig::symmetric(96, 96, 200.0)
    }

    /// A panorama session; the view supplies the output dimensions.
    fn pano_cfg(w: u32, h: u32) -> SessionConfig {
        SessionConfig {
            workload: Workload::Panorama { rig: pano_rig() },
            ..SessionConfig::new(lens(), PerspectiveView::centered(w, h, 90.0), SRC)
        }
    }

    fn rig_frames(seed: u64) -> Vec<Arc<Frame>> {
        (0..2)
            .map(|i| Arc::new(Frame::Gray8(pixmap::scene::random_gray(96, 96, seed + i))))
            .collect()
    }

    fn sources(frames: &[Arc<Frame>]) -> Vec<&Image<Gray8>> {
        frames
            .iter()
            .map(|f| match f.as_ref() {
                Frame::Gray8(img) => img,
                other => panic!("gray source expected, got {}", other.format()),
            })
            .collect()
    }

    #[test]
    fn panorama_sessions_composite_through_the_shared_cache() {
        let server = test_server(2);
        let mut a = server.connect(pano_cfg(128, 64)).expect("slot");
        assert_eq!(
            server.cache().stats().misses,
            2,
            "one cached plan per rig camera"
        );
        let b = server.connect(pano_cfg(128, 64)).expect("slot");
        assert_eq!(
            server.cache().stats().misses,
            2,
            "a second identical panorama is all cache hits"
        );
        assert!(server.cache().stats().hits >= 2);
        drop(b);

        let frames = rig_frames(7);
        assert_eq!(a.submit_rig(frames.clone()), SubmitOutcome::Queued);
        let out = a.pump_one().expect("engine ok").expect("frame pending");
        assert_eq!(out.report.model.get("sources").copied(), Some(2.0));
        let served = out.frame.as_gray().expect("gray panorama serves gray");

        // bit-exact with the directly compiled serial composite
        let opts = PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear);
        let plan = CompositePlan::compile_panorama(&pano_rig(), 128, 64, &opts);
        let mut want: Image<Gray8> = Image::new(128, 64);
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &sources(&frames),
            &plan,
            None,
            &HostEnv::default(),
            &mut want,
        )
        .expect("serial composite");
        assert_eq!(&**served, &want);
    }

    #[test]
    fn yuv420_panorama_sessions_composite_every_plane() {
        let server = test_server(1);
        let mut s = server
            .connect(SessionConfig {
                format: FrameFormat::Yuv420,
                ..pano_cfg(128, 64)
            })
            .expect("slot");
        let frames: Vec<Arc<Frame>> = (0..2)
            .map(|i| {
                Arc::new(Frame::Yuv420(pixmap::yuv::Yuv420 {
                    y: pixmap::scene::random_gray(96, 96, 40 + i),
                    cb: pixmap::scene::random_gray(48, 48, 50 + i),
                    cr: pixmap::scene::random_gray(48, 48, 60 + i),
                }))
            })
            .collect();
        assert_eq!(s.submit_rig(frames.clone()), SubmitOutcome::Queued);
        let out = s.pump_one().expect("engine ok").expect("frame pending");
        assert_eq!(out.frame.format(), FrameFormat::Yuv420);
        assert_eq!(out.report.model.get("cr.sources").copied(), Some(2.0));
        let served = out.frame.into_planes();

        // every plane is bit-exact with the directly compiled serial
        // composite of its class plan; chroma runs at half resolution
        let opts = PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear);
        let plan =
            CompositeViewPlan::compile_panorama(&pano_rig(), FrameFormat::Yuv420, 128, 64, &opts);
        let cams: Vec<Vec<&Image<Gray8>>> = frames
            .iter()
            .map(|f| f.u8_planes().expect("yuv planes"))
            .collect();
        assert_eq!(served.len(), 3);
        for (p, got) in served.iter().enumerate() {
            let pp = plan.plane_plan(p);
            let mut want: Image<Gray8> = Image::new(pp.width(), pp.height());
            execute_composite_host(
                &EngineSpec::Serial,
                Interpolator::Bilinear,
                &[cams[0][p], cams[1][p]],
                pp,
                None,
                &HostEnv::default(),
                &mut want,
            )
            .expect("plane composite");
            assert_eq!(&**got, &want, "plane {p}");
        }
        assert_eq!(served[1].dims(), (64, 32));
    }

    #[test]
    fn one_camera_nudge_delta_recompiles_only_that_camera() {
        let server = test_server(1);
        let mut s = server.connect(pano_cfg(128, 64)).expect("slot");
        let before = server.cache().stats();
        assert_eq!(before.misses, 2);
        assert_eq!(server.metrics().counter("serve.plan.delta_recompiles"), 0);

        let moved = pano_rig().with_camera_rotation(1, Mat3::rot_y(3.0));
        s.set_rig(moved).expect("rig change");
        let after = server.cache().stats();
        assert_eq!(
            after.misses,
            before.misses + 1,
            "only the moved camera's plan recompiles"
        );
        assert!(
            after.hits > before.hits,
            "the unmoved camera is a cache hit"
        );
        assert_eq!(
            server.metrics().counter("serve.plan.delta_recompiles"),
            1,
            "the recompile is a delta from the outgoing plan"
        );
        assert_eq!(server.metrics().counter("serve.view_changes"), 1);

        // the session still serves frames on the new rig
        s.submit_rig(rig_frames(3));
        let out = s.pump_one().expect("engine ok").expect("frame pending");
        assert_eq!(out.frame.dims(), (128, 64));
    }

    #[test]
    fn stereo_pure_translation_eyes_share_one_cached_plan() {
        let server = test_server(1);
        let slens = FisheyeLens::equidistant_fov(96, 96, 180.0);
        let rig = StereoRig::side_by_side(slens, 0.1);
        let mut s = server
            .connect(SessionConfig {
                workload: Workload::StereoPair {
                    rig: Box::new(rig.clone()),
                    h_fov_deg: 120.0,
                    v_fov_deg: 90.0,
                },
                ..SessionConfig::new(lens(), PerspectiveView::centered(96, 64, 90.0), SRC)
            })
            .expect("slot");
        let stats = server.cache().stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (1, 1),
            "a pure-translation rig's two eyes share one cached plan"
        );

        let left = pixmap::scene::random_gray(96, 96, 21);
        let right = pixmap::scene::random_gray(96, 96, 22);
        s.submit_rig(vec![
            Arc::new(Frame::Gray8(left.clone())),
            Arc::new(Frame::Gray8(right.clone())),
        ]);
        let out = s.pump_one().expect("engine ok").expect("frame pending");
        let (sl, sr) = out.frame.as_stereo().expect("stereo output");
        assert_eq!(sl.dims(), (96, 64));
        assert_eq!(out.frame.format(), FrameFormat::Gray8);

        // each eye is the plain single-plan correction over the shared
        // rectified surface
        let opts = PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear);
        let plan = StereoPlan::compile(&rig, 96, 64, 120.0, 90.0, &opts);
        assert_eq!(
            &**sl,
            &correct_plan(&left, &plan.left, Interpolator::Bilinear)
        );
        assert_eq!(
            &**sr,
            &correct_plan(&right, &plan.right, Interpolator::Bilinear)
        );
    }

    #[test]
    fn panorama_sessions_ride_the_ladder_to_halfres() {
        let server = test_server(1);
        let mut s = server
            .connect(SessionConfig {
                deadline: Some(Duration::ZERO),
                ..pano_cfg(128, 64)
            })
            .expect("slot");
        // five 8-frame windows of guaranteed misses: one escalation
        // each, normal → half-res
        for _ in 0..5 {
            for i in 0..8 {
                s.submit_rig(rig_frames(i));
                s.pump_one().expect("engine ok").expect("frame pending");
            }
        }
        assert_eq!(server.level(), DegradeLevel::HalfRes);
        s.submit_rig(rig_frames(9));
        let out = s.pump_one().expect("engine ok").expect("frame pending");
        assert_eq!(out.level, DegradeLevel::HalfRes);
        assert_eq!(out.frame.dims(), (64, 32), "half-res composite output");

        // recovery: generous deadlines walk the ladder back down, and
        // the full-res plans come back as cache hits
        let mut relaxed = Vec::new();
        for _ in 0..40 {
            s.submit_rig(rig_frames(11));
            let out = s.pump_one().expect("engine ok").expect("frame pending");
            relaxed.push(out.missed);
        }
        // the zero deadline still misses; drop the session's pressure
        // by checking the ladder at least reconfigured without errors
        assert!(relaxed.iter().all(|&m| m));
    }

    #[test]
    fn composite_misuse_is_a_config_error_not_a_panic() {
        let server = test_server(4);

        // wrong submit surface: single session fed a rig
        let mut single = server.connect(session_cfg()).expect("slot");
        single.submit_rig(rig_frames(1));
        let err = single.pump_one().expect_err("rig on a single session");
        assert_eq!(err.kind(), ErrorKind::Config);

        // wrong camera count at the pump
        let mut pano = server.connect(pano_cfg(64, 32)).expect("slot");
        pano.submit_rig(vec![rig_frames(1).remove(0)]);
        let err = pano.pump_one().expect_err("one frame for two cameras");
        assert_eq!(err.kind(), ErrorKind::Config);

        // gray submit on a panorama session
        pano.submit(Arc::new(pixmap::scene::random_gray(96, 96, 5)));
        let err = pano.pump_one().expect_err("gray frame on a rig session");
        assert_eq!(err.kind(), ErrorKind::Config);

        // stereo sessions are gray-only
        let slens = FisheyeLens::equidistant_fov(64, 64, 180.0);
        let err = server
            .connect(SessionConfig {
                format: FrameFormat::Yuv420,
                workload: Workload::StereoPair {
                    rig: Box::new(StereoRig::side_by_side(slens, 0.1)),
                    h_fov_deg: 100.0,
                    v_fov_deg: 80.0,
                },
                ..SessionConfig::new(lens(), PerspectiveView::centered(64, 48, 90.0), SRC)
            })
            .expect_err("yuv stereo");
        assert_eq!(err.kind(), ErrorKind::Config);

        // panoramas need a plan-consuming host backend
        let err = server
            .connect(SessionConfig {
                backend: EngineSpec::Simt { workgroup: 32 },
                ..pano_cfg(64, 32)
            })
            .expect_err("simt panorama");
        assert_eq!(err.kind(), ErrorKind::Config);
    }
}
