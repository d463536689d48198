//! End-to-end contracts of the serving layer: admission against the
//! capacity budget, plan sharing across sessions, the degradation
//! ladder engaging under deterministic overload and recovering when
//! it lifts, and the metrics snapshot accounting for every frame.

use std::sync::Arc;
use std::time::Duration;

use fisheye::ErrorKind;
use fisheye_core::frame::{Frame, FrameFormat};
use fisheye_core::post::{Lut3d, PostStage, ToneMap};
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::{
    CameraFeed, DegradeConfig, DegradeLevel, FrameOutcome, Server, ServerConfig, Session,
    SessionConfig, SubmitOutcome,
};
use pixmap::{Gray8, Image};

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

/// The camera's next frame as a gray8 [`Frame`].
fn gray(camera: &mut CameraFeed) -> Arc<Frame> {
    camera.next_frame_in(FrameFormat::Gray8)
}

/// The one plane of a gray8 frame.
fn gray_image(frame: &Frame) -> &Image<Gray8> {
    match frame {
        Frame::Gray8(img) => img,
        other => panic!("gray8 frame expected, got {}", other.format()),
    }
}

/// Walk a zero-deadline session on a [`test_server`] up the whole
/// ladder: every frame misses, so each 8-frame window closes one rung
/// higher. `submit` queues one frame; `at_rung` sees the session and
/// the outcome of each rung's first frame. Every frame must be served.
fn climb_ladder(
    session: &mut Session,
    mut submit: impl FnMut(&mut Session),
    mut at_rung: impl FnMut(&Session, &FrameOutcome),
) {
    for rung in DegradeLevel::LADDER {
        for i in 0..8 {
            submit(session);
            let out = session
                .pump_one()
                .unwrap_or_else(|e| panic!("{} serves frames: {e}", rung.name()))
                .expect("frame pending");
            assert_eq!(out.level, rung);
            if i == 0 {
                at_rung(session, &out);
            }
        }
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
            Arc::ptr_eq(
                sessions[0].corrector().expect("single session").plan(),
                s.corrector().expect("single session").plan()
            ),
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
                hot.submit_frame(gray(&mut camera)),
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
        hot.submit_frame(gray(&mut camera));
        hot.pump_one().expect("engine ok").expect("frame pending")
    };
    assert_eq!(out.level, DegradeLevel::HalfRes);
    assert_eq!(
        out.frame.dims(),
        (32, 24),
        "half resolution at the top rung"
    );
    assert_eq!(
        hot.corrector().expect("single session").interp(),
        Interpolator::Nearest
    );
    assert_eq!(hot.applied_level(), DegradeLevel::HalfRes);

    // at drop-oldest and above, a full queue sheds its *oldest* frame
    hot.submit_frame(gray(&mut camera));
    hot.submit_frame(gray(&mut camera));
    let shed = hot.submit_frame(gray(&mut camera));
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
            cool.submit_frame(gray(&mut camera));
            cool.pump_one().expect("engine ok").expect("frame pending");
        }
    }
    assert_eq!(server.level(), DegradeLevel::Normal, "full recovery");
    cool.submit_frame(gray(&mut camera));
    let out = cool.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.frame.dims(), (64, 48), "full resolution restored");
    assert_eq!(
        cool.corrector().expect("single session").interp(),
        Interpolator::Bicubic
    );

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
    assert!(!hot
        .corrector()
        .expect("single session")
        .post_stage()
        .is_identity());

    // plans are keyed by geometry alone: an ungraded session of the
    // same view shares the graded session's cache entry
    let (hits_before, misses_before) = {
        let stats = server.cache().stats();
        (stats.hits, stats.misses)
    };
    drop(server.connect(session_cfg()).expect("slot"));
    assert_eq!(server.cache().stats().misses, misses_before);
    assert_eq!(server.cache().stats().hits, hits_before + 1);

    // four saturated windows climb to DropGrading: grading shed,
    // geometry (resolution) untouched
    for _ in 0..4 {
        for _ in 0..8 {
            hot.submit_frame(gray(&mut camera));
            hot.pump_one().expect("engine ok").expect("frame pending");
        }
    }
    assert_eq!(server.level(), DegradeLevel::DropGrading);
    hot.submit_frame(gray(&mut camera));
    let out = hot.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::DropGrading);
    assert!(
        hot.corrector()
            .expect("single session")
            .post_stage()
            .is_identity(),
        "grading shed at DropGrading"
    );
    assert_eq!(out.frame.dims(), (64, 48), "resolution survives the rung");
    assert_eq!(server.metrics().counter("serve.degrade.post_shed"), 1);

    // one more saturated window: only then does resolution halve, and
    // grading stays shed
    for _ in 0..7 {
        hot.submit_frame(gray(&mut camera));
        hot.pump_one().expect("engine ok").expect("frame pending");
    }
    assert_eq!(server.level(), DegradeLevel::HalfRes);
    hot.submit_frame(gray(&mut camera));
    let out = hot.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::HalfRes);
    assert_eq!(out.frame.dims(), (32, 24));
    assert!(hot
        .corrector()
        .expect("single session")
        .post_stage()
        .is_identity());
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
            cool.submit_frame(gray(&mut camera));
            let out = cool.pump_one().expect("engine ok").expect("frame pending");
            if out.level == DegradeLevel::DropGrading {
                assert_eq!(out.frame.dims(), (64, 48));
                assert!(cool
                    .corrector()
                    .expect("single session")
                    .post_stage()
                    .is_identity());
                saw_restored_res_without_grading = true;
            }
        }
    }
    assert!(
        saw_restored_res_without_grading,
        "recovery must pass through DropGrading (full res, no grading)"
    );
    assert_eq!(server.level(), DegradeLevel::Normal, "full recovery");
    cool.submit_frame(gray(&mut camera));
    let out = cool.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.level, DegradeLevel::Normal);
    assert!(
        !cool
            .corrector()
            .expect("single session")
            .post_stage()
            .is_identity(),
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
    let frame = gray(&mut camera);
    cool.submit_frame(Arc::clone(&frame));
    plain.submit_frame(frame);
    let graded = cool.pump_one().expect("ok").expect("pending");
    let ungraded = plain.pump_one().expect("ok").expect("pending");
    let [g] = graded.frame.planes() else {
        panic!("gray session serves one plane");
    };
    let [u] = ungraded.frame.planes() else {
        panic!("gray session serves one plane");
    };
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
            s.submit_frame(gray(&mut camera));
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
    let planes = out.frame.planes();
    assert_eq!(planes.len(), 3);
    assert_eq!(planes[1].dims(), (32, 24), "chroma at half view res");
    let plan = a.corrector().expect("single session").view_plan().clone();
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
    let planes = out.frame.planes();
    assert_eq!(planes.len(), 3, "yuv session serves three planes");
    assert_eq!(planes[1].dims(), (16, 12), "halved chroma follows");
}

#[test]
fn format_mismatches_and_grayf32_are_config_errors() {
    // every session format carries byte planes: a float gray format
    // does not even name one
    assert!("grayf32".parse::<FrameFormat>().is_err());

    let server = test_server(3);
    let mut camera = CameraFeed::new(SRC.0, SRC.1, 13);
    let mut yuv = server
        .connect(SessionConfig {
            format: FrameFormat::Yuv420,
            ..session_cfg()
        })
        .expect("slot");
    yuv.submit_frame(gray(&mut camera));
    let err = yuv.pump_one().expect_err("gray frame on a yuv session");
    assert_eq!(err.kind(), ErrorKind::Config);
    yuv.submit_frame(camera.next_frame_in(FrameFormat::Rgb8));
    let err = yuv.pump_one().expect_err("rgb frame on a yuv session");
    assert_eq!(err.kind(), ErrorKind::Config);

    // a gray session serves a gray Frame as one plane
    let mut gray = server.connect(session_cfg()).expect("slot");
    gray.submit_frame(camera.next_frame_in(FrameFormat::Gray8));
    let out = gray.pump_one().expect("engine ok").expect("frame pending");
    assert_eq!(out.frame.format(), FrameFormat::Gray8);
    assert_eq!(out.frame.planes().len(), 1);
}

#[test]
fn mismatched_frames_surface_as_errors_at_the_pump() {
    let server = test_server(1);
    let mut s = server.connect(session_cfg()).expect("slot");
    let mut wrong = CameraFeed::new(32, 32, 1);
    s.submit_frame(gray(&mut wrong));
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
        hot.submit_frame(gray(&mut camera));
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

    // at Normal the session runs bicubic; two saturated windows (zero
    // deadline) later it runs bilinear at InterpDown on the same
    // plans, which hold no kernel: a pan delta-recompiles either way
    for (level, climb, kernel) in [
        (DegradeLevel::Normal, 0, Interpolator::Bicubic),
        (DegradeLevel::InterpDown, 17, Interpolator::Bilinear),
    ] {
        let server = test_server(2);
        let mut camera = CameraFeed::new(SRC.0, SRC.1, 5);
        let mut s = server
            .connect(SessionConfig {
                deadline: (climb > 0).then_some(Duration::ZERO),
                ..session_cfg()
            })
            .expect("slot");
        for _ in 0..climb {
            s.submit_frame(gray(&mut camera));
            s.pump_one().expect("engine ok").expect("frame pending");
        }
        assert_eq!(s.applied_level(), level);
        assert_eq!(
            s.corrector().expect("single session").interp(),
            kernel,
            "{}",
            level.name()
        );
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
            "{}: the cache miss was served by delta recompilation from the outgoing plan",
            level.name()
        );

        // bit-exact against a cold offline compile of the same view:
        // same digest (so the cache entry is shared with cold-compiled
        // sessions) and bit-identical corrected frames
        let cold = RemapPlan::compile(
            &RemapMap::build(&lens(), &panned, SRC.0, SRC.1),
            PlanOptions::for_specs(&[EngineSpec::Serial]),
        );
        assert_eq!(
            s.corrector().expect("single session").plan().digest(),
            cold.digest(),
            "{}",
            level.name()
        );
        let frame = gray(&mut camera);
        s.submit_frame(Arc::clone(&frame));
        let out = s.pump_one().expect("engine ok").expect("frame pending");
        assert_eq!(out.level, level);
        let [got] = out.frame.planes() else {
            panic!("gray session serves one plane");
        };
        assert_eq!(
            **got,
            fisheye_core::correct_plan(gray_image(&frame), &cold, kernel),
            "{}: delta-recompiled plan corrects bit-exactly",
            level.name()
        );
    }
}

/// Every rung serves the kernel it names, whatever engine runs it: a
/// bicubic single session's first frame at each rung is exactly the
/// plan-driven reference under that rung's kernel, on `simt` as on
/// `serial`.
#[test]
fn every_rung_serves_its_kernel_on_every_backend() {
    use fisheye_core::engine::EngineSpec;

    let rung_kernels = [
        Interpolator::Bicubic,
        Interpolator::Bicubic,
        Interpolator::Bilinear,
        Interpolator::Nearest,
        Interpolator::Nearest,
        Interpolator::Nearest,
    ];
    let frame = Arc::new(Frame::Gray8(pixmap::scene::random_gray(SRC.0, SRC.1, 29)));
    for backend in [EngineSpec::Serial, EngineSpec::Simt { workgroup: 64 }] {
        let server = test_server(1);
        let mut s = server
            .connect(SessionConfig {
                backend,
                deadline: Some(Duration::ZERO),
                ..session_cfg()
            })
            .expect("slot");
        climb_ladder(
            &mut s,
            |s| {
                s.submit_frame(Arc::clone(&frame));
            },
            |s, out| {
                let kernel = rung_kernels[out.level.index()];
                let corrector = s.corrector().expect("single session");
                let at = format!("{} at {}", backend.name(), out.level.name());
                assert_eq!(corrector.interp(), kernel, "{at}");
                let [got] = out.frame.planes() else {
                    panic!("gray session serves one plane");
                };
                let want = fisheye_core::correct_plan(gray_image(&frame), corrector.plan(), kernel);
                assert_eq!(**got, want, "{at} serves {}", kernel.name());
            },
        );
    }
}

// ---------------------------------------------------------------------
// Composite workloads: panorama and stereo sessions
// ---------------------------------------------------------------------

mod composite_sessions {
    use super::*;
    use fisheye_core::composite::{CompositePlan, CompositeViewPlan, StereoPlan};
    use fisheye_core::engine::EngineSpec;
    use fisheye_core::plan::PlanOptions;
    use fisheye_core::{correct_plan, execute_composite_host};
    use fisheye_geom::{CameraRig, Mat3, StereoRig};
    use fisheye_serve::Workload;

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
        frames.iter().map(|f| gray_image(f)).collect()
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
        let [served] = out.frame.planes() else {
            panic!("gray panorama serves one plane");
        };

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
            None,
            &mut want,
        )
        .expect("serial composite");
        assert_eq!(&**served, &want);
    }

    /// A gray8 frame is one plane: its report is the engine's (single
    /// session) or the composite executor's (panorama) own, with none
    /// of a merged multi-plane report's keys — so `serve.engine.*`
    /// metric names don't depend on the frame layer.
    #[test]
    fn gray8_reports_are_the_engines_own() {
        use fisheye_core::engine::{build_host, HostCtx};

        let server = test_server(2);
        let mut single = server.connect(session_cfg()).expect("slot");
        let mut pano = server.connect(pano_cfg(128, 64)).expect("slot");
        let mut camera = CameraFeed::new(SRC.0, SRC.1, 23);
        let frame = gray(&mut camera);
        single.submit_frame(Arc::clone(&frame));
        pano.submit_rig(rig_frames(23));
        let reports = [
            single
                .pump_one()
                .expect("engine ok")
                .expect("pending")
                .report,
            pano.pump_one().expect("engine ok").expect("pending").report,
        ];
        for report in &reports {
            assert_eq!(report.backend, "serial");
            for key in report.model.keys() {
                assert!(
                    !["frame_wall_ms", "planes", "plane_concurrent"].contains(&key.as_str())
                        && !key.starts_with("y."),
                    "merged-report key {key} on a one-plane frame"
                );
            }
        }

        // the single session's report is what the engine itself reports
        let engine = build_host(
            &EngineSpec::Serial,
            &HostCtx {
                interp: Interpolator::Bicubic,
                threads: 1,
            },
        )
        .expect("serial engine");
        let mut out = Image::new(64, 48);
        let direct = engine
            .correct_frame_post(
                gray_image(&frame),
                single.corrector().expect("single session").plan(),
                None,
                &mut out,
            )
            .expect("direct run");
        assert_eq!(
            (reports[0].rows, reports[0].tiles, reports[0].invalid_pixels),
            (direct.rows, direct.tiles, direct.invalid_pixels)
        );
        assert!(reports[0].model.keys().eq(direct.model.keys()));
        // and the panorama's carries the executor's keys unprefixed
        assert_eq!(reports[1].model.get("sources").copied(), Some(2.0));
        let m = server.metrics();
        assert_eq!(m.gauge_value("serve.engine.model.frame_wall_ms"), None);
        assert_eq!(m.gauge_value("serve.engine.model.sources"), Some(2.0));
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
                None,
                &mut want,
            )
            .expect("plane composite");
            assert_eq!(&**got, &want, "plane {p}");
        }
        assert_eq!(served[1].dims(), (64, 32));
    }

    /// Every merged report carries its per-plane keys, so a yuv420
    /// panorama records the per-plane timings a yuv420 single session
    /// does.
    #[test]
    fn yuv420_panorama_sessions_record_per_plane_timings() {
        let server = test_server(1);
        let mut s = server
            .connect(SessionConfig {
                format: FrameFormat::Yuv420,
                ..pano_cfg(128, 64)
            })
            .expect("slot");
        let mut feed = CameraFeed::new(96, 96, 41);
        s.submit_rig(
            (0..2)
                .map(|_| feed.next_frame_in(FrameFormat::Yuv420))
                .collect(),
        );
        let out = s.pump_one().expect("engine ok").expect("frame pending");
        let m = server.metrics();
        for label in ["y", "cb", "cr"] {
            assert!(out
                .report
                .model
                .contains_key(&format!("{label}.correct_ms")));
            let h = m
                .histogram(&format!("serve.plane.{label}.correct_us"))
                .unwrap_or_else(|| panic!("serve.plane.{label}.correct_us missing"));
            assert_eq!(h.count(), 1);
        }
    }

    /// A rung recompiles only what it changes: the kernel and grading
    /// rungs resolve no plan, graded or not, and only HalfRes (a view
    /// change) goes through the cache.
    #[test]
    fn panorama_rungs_resolve_plans_only_at_halfres() {
        let graded = PostStage::identity()
            .with_grade(Arc::new(Lut3d::builtin("warm").expect("builtin lut")), 1.0)
            .with_tone_map(ToneMap::McFace);
        for post in [PostStage::identity(), graded] {
            let server = test_server(1);
            let mut s = server
                .connect(SessionConfig {
                    interp: Interpolator::Bicubic,
                    post: post.clone(),
                    deadline: Some(Duration::ZERO),
                    ..pano_cfg(128, 64)
                })
                .expect("slot");
            let mut seed = 0;
            let mut misses = Vec::new();
            climb_ladder(
                &mut s,
                |s| {
                    seed += 2;
                    s.submit_rig(rig_frames(seed));
                },
                |_, _| misses.push(server.cache().stats().misses),
            );
            let graded = !post.is_identity();
            assert_eq!(misses, [2, 2, 2, 2, 2, 4], "graded: {graded}");
            assert_eq!(
                server.metrics().counter("serve.plan.delta_recompiles"),
                0,
                "graded: {graded}"
            );
        }
    }

    /// A kernel-locked backend (bilinear-only simd) skips every rung
    /// that asks for another kernel, counting each skip, and keeps
    /// serving to HalfRes: a single session declared bilinear and a
    /// panorama declared bicubic alike.
    #[test]
    fn locked_kernel_sessions_skip_interp_rungs_and_serve_to_halfres() {
        let unsupported =
            |server: &Server| server.metrics().counter("serve.degrade.interp_unsupported");

        let server = test_server(1);
        let mut single = server
            .connect(SessionConfig {
                backend: EngineSpec::Simd,
                deadline: Some(Duration::ZERO),
                ..SessionConfig::new(lens(), wide_view(), SRC)
            })
            .expect("slot");
        let mut camera = CameraFeed::new(SRC.0, SRC.1, 31);
        let mut seen = Vec::new();
        climb_ladder(
            &mut single,
            |s| {
                s.submit_frame(gray(&mut camera));
            },
            |s, out| {
                let corrector = s.corrector().expect("single session");
                assert_eq!(corrector.interp(), Interpolator::Bilinear);
                seen.push((out.frame.dims(), unsupported(&server)));
            },
        );
        let full = (64, 48);
        assert_eq!(
            seen,
            [
                (full, 0),
                (full, 0),
                (full, 1),
                (full, 2),
                (full, 3),
                ((32, 24), 4)
            ]
        );

        let server = test_server(1);
        let mut pano = server
            .connect(SessionConfig {
                backend: EngineSpec::Simd,
                interp: Interpolator::Bicubic,
                deadline: Some(Duration::ZERO),
                ..pano_cfg(128, 64)
            })
            .expect("slot");
        let mut seed = 0;
        let mut seen = Vec::new();
        climb_ladder(
            &mut pano,
            |s| {
                seed += 2;
                s.submit_rig(rig_frames(seed));
            },
            |_, out| seen.push((out.frame.dims(), unsupported(&server))),
        );
        let full = (128, 64);
        assert_eq!(
            seen,
            [
                (full, 0),
                (full, 1),
                (full, 1),
                (full, 2),
                (full, 3),
                ((64, 32), 4)
            ]
        );
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
        let [sl, sr] = out.frame.planes() else {
            panic!("stereo output is [left, right]");
        };
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

    /// A bicubic panorama climbs to HalfRes under a zero deadline and
    /// is dropped; a panorama of the same view with a generous
    /// deadline then walks the ladder back down. Only HalfRes resolves
    /// plans, and plans hold no kernel, so the way down compiles
    /// nothing: Normal runs on the plans the climb started from.
    #[test]
    fn panorama_sessions_ride_the_ladder_to_halfres() {
        let server = test_server(1);
        let cfg = |deadline| SessionConfig {
            interp: Interpolator::Bicubic,
            deadline: Some(deadline),
            ..pano_cfg(128, 64)
        };
        let digests = |s: &Session| -> Vec<u64> {
            let plan = s.composite_plan().expect("panorama session");
            plan.class_plans()
                .iter()
                .flat_map(|c| c.sources().iter().map(|p| p.digest()))
                .collect()
        };
        let mut hot = server.connect(cfg(Duration::ZERO)).expect("slot");
        let pre_climb = digests(&hot);
        let mut seed = 0;
        climb_ladder(
            &mut hot,
            |s| {
                seed += 2;
                s.submit_rig(rig_frames(seed));
            },
            |_, out| {
                let full = out.level < DegradeLevel::HalfRes;
                let dims = if full { (128, 64) } else { (64, 32) };
                assert_eq!(out.frame.dims(), dims, "{}", out.level.name());
            },
        );
        assert_eq!(server.level(), DegradeLevel::HalfRes);
        assert_eq!(
            server.cache().stats().misses,
            4,
            "two full-res and two half-res camera plans"
        );
        drop(hot);

        let mut cool = server.connect(cfg(Duration::from_secs(60))).expect("slot");
        let mut walked = Vec::new();
        for _ in 0..8 * DegradeLevel::LADDER.len() {
            seed += 2;
            cool.submit_rig(rig_frames(seed));
            let out = cool.pump_one().expect("engine ok").expect("frame pending");
            if walked.last().map(|&(level, _)| level) != Some(out.level) {
                walked.push((out.level, server.cache().stats().misses));
            }
            if out.level == DegradeLevel::Normal {
                assert_eq!(out.frame.dims(), (128, 64), "full resolution restored");
                break;
            }
        }
        let down: Vec<_> = DegradeLevel::LADDER.iter().rev().map(|&l| (l, 4)).collect();
        assert_eq!(walked, down, "(rung, cache misses) on the way down");
        assert_eq!(
            digests(&cool),
            pre_climb,
            "Normal runs on the pre-climb plans"
        );
        assert_eq!(server.metrics().counter("serve.plan.delta_recompiles"), 0);
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

        // single-frame submit on a panorama session
        pano.submit_frame(Arc::new(Frame::Gray8(pixmap::scene::random_gray(
            96, 96, 5,
        ))));
        let err = pano.pump_one().expect_err("one frame on a rig session");
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

        // panoramas need a host backend
        let err = server
            .connect(SessionConfig {
                backend: EngineSpec::Simt { workgroup: 32 },
                ..pano_cfg(64, 32)
            })
            .expect_err("simt panorama");
        assert_eq!(err.kind(), ErrorKind::Config);
    }
}
