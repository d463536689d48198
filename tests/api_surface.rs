//! Pin the public API surface of the `fisheye` facade crate.
//!
//! Two properties are under test:
//!
//! 1. **The prelude is complete and stable.** The explicit use-list
//!    below is the contract: everything a downstream crate needs for
//!    the common paths — building a [`Corrector`], handling
//!    [`Error`], picking a backend, pooling frames — importable from
//!    `fisheye::prelude` alone. Removing or renaming any of these is
//!    a compile failure here first.
//! 2. **`EngineSpec` names round-trip.** `Display` output parses back
//!    to the same spec for every registry entry (and the parameterised
//!    forms), so specs can travel through CLIs, configs and cache
//!    keys as plain strings.

#![allow(unused_imports)]

use fisheye::prelude::{
    // codegen: kernel source emission from compiled plans
    emit_kernel,
    // geom: lens and view models
    BrownConrady,
    // core: plans, maps, engines, pipeline
    CorrectionEngine,
    // corrector: the single entry point for correction
    Corrector,
    CorrectorBuilder,
    CorrectorPixel,
    // post: the fused color pipeline
    DitherSeed,
    EmittedKernel,
    EngineSpec,
    // error: the unified error type
    Error,
    ErrorKind,
    FisheyeLens,
    FixedRemapMap,
    // frame layer: multi-plane formats, plans, dispatch
    Frame,
    FrameCorrector,
    FrameFormat,
    // img: pixel formats, frames, pooling
    FramePool,
    FrameReport,
    Gray8,
    GrayF32,
    Image,
    Interpolator,
    KernelTarget,
    LensModel,
    Lut3d,
    OutputProjection,
    PerspectiveView,
    Pixel,
    PlanOptions,
    PlaneClass,
    PlanePool,
    PostStage,
    RemapMap,
    RemapPlan,
    Rgb8,
    // par: the thread runtime
    Schedule,
    ThreadPool,
    TilePlan,
    ToneMap,
    ViewPlan,
};

/// Every registry spec's `Display` form parses back to itself.
#[test]
fn engine_spec_display_round_trips_through_fromstr() {
    for spec in EngineSpec::registry() {
        let shown = spec.to_string();
        let parsed: EngineSpec = shown.parse().unwrap_or_else(|e| {
            panic!("registry spec `{shown}` failed to re-parse: {e}");
        });
        assert_eq!(parsed, spec, "round trip changed `{shown}`");
        // and the Display form is the canonical registry name
        assert_eq!(shown, spec.name(), "Display diverges from name()");
    }
}

/// Parameterised spellings round-trip too, not just registry defaults.
#[test]
fn parameterised_specs_round_trip() {
    for name in [
        "smp:dynamic:4",
        "smp:guided:2",
        "smp:static:8",
        "cell:48x16",
        "cell:16x16:single:q8",
        "gpu:512",
        "simt:64",
    ] {
        let spec: EngineSpec = name.parse().expect(name);
        assert_eq!(spec.to_string().parse::<EngineSpec>().expect(name), spec);
    }
}

/// Unknown spec names are `Err`, never a panic or a silent default.
#[test]
fn unknown_spec_names_are_errors() {
    for name in ["warp-drive", "", "smp:", "cell:0x0"] {
        assert!(name.parse::<EngineSpec>().is_err(), "`{name}` parsed");
    }
}

/// The prelude types compose: a Corrector built from prelude imports
/// alone corrects a frame, and its failures surface as `Error` with a
/// stable `ErrorKind`.
#[test]
fn prelude_is_sufficient_for_the_common_path() {
    let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
    let view = PerspectiveView::centered(32, 24, 90.0);
    let corrector = Corrector::builder()
        .lens(lens)
        .view(view)
        .source(64, 48)
        .backend(EngineSpec::Serial)
        .interp(Interpolator::Bilinear)
        .build()
        .expect("prelude-only build");
    let src: Image<Gray8> = Image::new(64, 48);
    let pool = FramePool::new(32, 24);
    let mut out = pool.acquire();
    let report: FrameReport = corrector.correct_into(&src, &mut out).expect("correct");
    assert_eq!(report.backend, "serial");

    let err: Error = Corrector::<Gray8>::builder()
        .source(64, 48)
        .build()
        .expect_err("missing lens/view must not build");
    assert_eq!(err.kind(), ErrorKind::Config);
}

/// The post-pipeline types are in the prelude and compose with the
/// builder: grade, tone map and dither build without reaching into
/// `fisheye::core::post`.
#[test]
fn prelude_is_sufficient_for_the_graded_path() {
    use std::sync::Arc;
    let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
    let view = PerspectiveView::centered(32, 24, 90.0);
    let corrector = Corrector::<Gray8>::builder()
        .lens(lens)
        .view(view)
        .grade(Arc::new(Lut3d::builtin("warm").expect("builtin lut")), 0.5)
        .tone_map(ToneMap::McFace)
        .dither(DitherSeed(7))
        .build()
        .expect("graded build");
    assert!(!corrector.post_stage().is_identity());
    assert!(PostStage::identity().is_identity());
    // tone map names round-trip like specs and formats do
    for tone in ToneMap::ALL {
        assert_eq!(ToneMap::parse(tone.name()), Some(tone));
    }
}

/// The codegen entry points are in the prelude: lowering a compiled
/// plan to kernel source needs no `fisheye::codegen` path import, and
/// refusals surface as `Error` with the stable `Codegen` kind.
#[test]
fn prelude_is_sufficient_for_kernel_emission() {
    let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
    let view = PerspectiveView::centered(32, 24, 90.0);
    let map = RemapMap::build(&lens, &view, 64, 48);
    let plan = RemapPlan::compile(&map, PlanOptions::default());
    for target in [KernelTarget::Wgsl, KernelTarget::C] {
        let kernel: EmittedKernel =
            emit_kernel(&plan, &EngineSpec::Simt { workgroup: 64 }, target).expect("emit");
        assert_eq!(kernel.target, target);
        assert_eq!(kernel.plan_digest, plan.digest());
        assert!(kernel.file_name().ends_with(target.file_extension()));
        assert!(!kernel.source.is_empty());
    }
    let err: Error = emit_kernel(&plan, &EngineSpec::Direct, KernelTarget::Wgsl)
        .expect_err("direct has no plan kernel");
    assert_eq!(err.kind(), ErrorKind::Codegen);
}

/// Every `FrameFormat`'s `Display` form parses back to the same
/// format, so formats can travel through CLIs and session configs as
/// plain strings — same contract `EngineSpec` pins above.
#[test]
fn frame_format_display_round_trips_through_fromstr() {
    for format in FrameFormat::ALL {
        let shown = format.to_string();
        let parsed: FrameFormat = shown.parse().unwrap_or_else(|e| {
            panic!("format `{shown}` failed to re-parse: {e}");
        });
        assert_eq!(parsed, format, "round trip changed `{shown}`");
        assert_eq!(shown, format.name(), "Display diverges from name()");
        assert_eq!(format.plane_labels().len(), format.planes());
    }
    assert!(
        "nv12".parse::<FrameFormat>().is_err(),
        "unknown formats are Err"
    );
}

/// The prelude's frame layer composes: a multi-plane `ViewPlan`
/// compiled from prelude imports alone drives a `FrameCorrector` and
/// the format-aware `Corrector` facade, with `PlanePool` supplying
/// the output planes.
#[test]
fn prelude_is_sufficient_for_the_multi_plane_path() {
    let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
    let view = PerspectiveView::centered(32, 24, 90.0);
    let spec = EngineSpec::Serial;
    let interp = Interpolator::Bilinear;
    let opts = PlanOptions::for_spec(&spec, interp);
    let plan = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, 64, 48, &opts);
    assert_eq!(plan.plans().len(), FrameFormat::Yuv420.classes().len());
    assert_eq!(PlaneClass::Full.scale(), 1.0);
    assert_eq!(PlaneClass::HalfChroma.scale(), 0.5);

    let corrector: Corrector = Corrector::builder()
        .lens(lens)
        .view(view)
        .source(64, 48)
        .format(FrameFormat::Yuv420)
        .backend(spec)
        .interp(interp)
        .build()
        .expect("prelude-only multi-plane build");
    assert_eq!(corrector.format(), FrameFormat::Yuv420);
    let src = Frame::new(FrameFormat::Yuv420, 64, 48);
    let (out, report) = corrector.correct_frame(&src).expect("correct frame");
    assert_eq!(out.dims(), (32, 24));
    assert_eq!(report.model.get("planes").copied(), Some(3.0));

    // the dispatcher and pool are reachable directly too
    let frames: &FrameCorrector = corrector.frame_corrector();
    let pool = PlanePool::<Gray8>::new(&frames.plan().plane_dims());
    let planes = pool.acquire();
    assert_eq!(planes.len(), FrameFormat::Yuv420.planes());
}
