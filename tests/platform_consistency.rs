//! Cross-platform functional consistency, driven by the engine
//! registry: every registered [`EngineSpec`] — host serial, SMP,
//! fixed-point, SIMD, Cell model, GPU model, SIMT interpreter — is built
//! through the [`Corrector`] facade and must reproduce its
//! numeric-class reference bit-exactly:
//!
//! * [`NumericClass::Float`] engines match `correct(serial)`;
//! * [`NumericClass::Fixed`] engines match
//!   `correct_fixed(&src, &map.to_fixed(frac_bits))`.
//!
//! Every engine executes the same single [`RemapPlan`], compiled once
//! with the union of what the whole registry needs and injected into
//! each corrector via [`CorrectorBuilder::plan`] — the compile/
//! execute split's core claim is exactly that one immutable plan
//! serves every backend (and, since PR 4, every tenant).
//!
//! The streaming (FPGA) datapath generates its own quantized map, so
//! it is held to a PSNR bound rather than bit-exactness.

use std::sync::Arc;

use fisheye::core::engine::{execute_host_post, NumericClass};
use fisheye::core::{correct, correct_fixed};
use fisheye::img::metrics::psnr;
use fisheye::prelude::*;
use fisheye::stream::FixedMapGen;

fn registry() -> Vec<EngineSpec> {
    EngineSpec::registry()
}

/// One plan for the whole registry.
fn plan_for_registry(map: &RemapMap) -> Arc<RemapPlan> {
    Arc::new(RemapPlan::compile(map, PlanOptions::for_specs(&registry())))
}

fn workload() -> (FisheyeLens, PerspectiveView, Arc<RemapPlan>, Image<Gray8>) {
    let lens = FisheyeLens::equidistant_fov(256, 192, 180.0);
    let view = PerspectiveView::centered(128, 96, 90.0);
    let map = RemapMap::build(&lens, &view, 256, 192);
    let frame = fisheye::img::scene::random_gray(256, 192, 123);
    (lens, view, plan_for_registry(&map), frame)
}

/// Build a corrector for `spec` running on the shared registry plan.
fn corrector_for(
    spec: EngineSpec,
    lens: FisheyeLens,
    view: PerspectiveView,
    plan: &Arc<RemapPlan>,
) -> Corrector<Gray8> {
    Corrector::builder()
        .lens(lens)
        .view(view)
        .backend(spec)
        .plan(Arc::clone(plan))
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
}

/// The bit-exactness promise for a Gray8 frame: what the engine's
/// numeric class says its output must equal.
fn gray8_reference(spec: &EngineSpec, frame: &Image<Gray8>, map: &RemapMap) -> Image<Gray8> {
    match spec.numeric_class() {
        NumericClass::Float => correct(frame, map, Interpolator::Bilinear),
        NumericClass::Fixed { frac_bits } => correct_fixed(frame, &map.to_fixed(frac_bits)),
    }
}

#[test]
fn every_registered_engine_bit_exact_on_gray8() {
    let (lens, view, plan, frame) = workload();
    for spec in registry() {
        let name = spec.name();
        let corrector = corrector_for(spec, lens, view, &plan);
        let mut out = Image::new(128, 96);
        let report = corrector
            .correct_into(&frame, &mut out)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out, gray8_reference(&spec, &frame, plan.map()), "{name}");
        assert_eq!(report.backend, name);
        assert!(
            report.rows > 0 || report.tiles > 0,
            "{name}: report must attribute work"
        );
        assert_eq!(
            report.model.get("plan_miss"),
            None,
            "{name}: the registry-union plan must carry every artifact"
        );
    }
}

#[test]
fn engines_round_trip_ragged_and_invalid_tiles() {
    // narrow lens behind a wide view on non-multiple-of-tile-size
    // output dims: ragged edge tiles plus tiles whose LUT entries are
    // all invalid (empty source footprint). Every engine must still
    // match its reference, black corners included.
    let lens = FisheyeLens::equidistant_fov(160, 120, 110.0);
    let view = PerspectiveView::centered(101, 67, 150.0).look(4.0, -3.0);
    let map = RemapMap::build(&lens, &view, 160, 120);
    let frame: Image<Gray8> = fisheye::img::scene::random_gray(160, 120, 77);
    assert!(
        map.entries().iter().any(|e| !e.is_valid()),
        "workload must include invalid entries"
    );
    let plan = plan_for_registry(&map);
    for spec in registry() {
        let name = spec.name();
        let corrector = corrector_for(spec, lens, view, &plan);
        let mut out = Image::new(101, 67);
        let report = corrector
            .correct_into(&frame, &mut out)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out, gray8_reference(&spec, &frame, &map), "{name}");
        assert_eq!(out.pixel(0, 0), Gray8(0), "{name}: invalid corner is black");
        assert!(report.invalid_pixels > 0, "{name}: reports invalid pixels");
    }
}

#[test]
fn odd_dimension_chroma_bit_exact_on_every_engine() {
    // Odd source and view dims: the 4:2:0 chroma planes are ceil'd,
    // where the scaled-lens chroma formulation used to shift the
    // chroma center by up to half a luma pixel. Every backend must
    // reproduce its numeric-class reference on the chroma planes of
    // the (correctly registered) chroma plan.
    use fisheye::core::frame::{Frame, FrameFormat, PlaneClass, ViewPlan};
    use fisheye::img::yuv::Yuv420;

    let lens = FisheyeLens::equidistant_fov(159, 119, 180.0);
    let view = PerspectiveView::centered(101, 75, 90.0);
    let opts = PlanOptions::for_specs(&registry());
    let vp = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, 159, 119, &opts);
    let chroma = vp.class_plan(PlaneClass::HalfChroma).expect("chroma plan");
    assert_eq!(chroma.src_dims(), (80, 60));
    let chroma_map = chroma.map().clone();
    let src = Yuv420 {
        y: fisheye::img::scene::random_gray(159, 119, 31),
        cb: fisheye::img::scene::random_gray(80, 60, 32),
        cr: fisheye::img::scene::random_gray(80, 60, 33),
    };
    let mut ran = 0u32;
    for spec in registry() {
        let name = spec.name();
        let built = Corrector::<Gray8>::builder()
            .lens(lens)
            .view(view)
            .source(159, 119)
            .format(FrameFormat::Yuv420)
            .backend(spec)
            .view_plan(vp.clone())
            .build();
        let corrector = match built {
            Ok(c) => c,
            // a backend that cannot drive multi-plane frames must say
            // so at build time, not corrupt chroma silently
            Err(e) => {
                assert!(
                    matches!(e.kind(), ErrorKind::Engine | ErrorKind::Config),
                    "{name}: {e}"
                );
                continue;
            }
        };
        let (out, _report) = corrector
            .correct_frame(&Frame::Yuv420(src.clone()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = match out {
            Frame::Yuv420(out) => out,
            other => panic!("{name}: yuv420 in, {} out", other.format()),
        };
        assert_eq!(
            out.cb,
            gray8_reference(&spec, &src.cb, &chroma_map),
            "{name} cb"
        );
        assert_eq!(
            out.cr,
            gray8_reference(&spec, &src.cr, &chroma_map),
            "{name} cr"
        );
        ran += 1;
    }
    assert!(ran >= 4, "only {ran} engines ran the odd-dims workload");
}

#[test]
fn smp_schedules_bit_exact() {
    // beyond the registry's default smp entry: every schedule family
    // at several widths
    let (_, _, plan, frame) = workload();
    let map = plan.map();
    let serial = correct(&frame, map, Interpolator::Bilinear);
    for threads in [2usize, 3, 8] {
        let pool = ThreadPool::new(threads);
        for sched in [
            Schedule::Static { chunk: None },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let spec = EngineSpec::Smp { schedule: sched };
            let mut par = Image::new(map.width(), map.height());
            execute_host_post(
                &spec,
                Interpolator::Bilinear,
                &frame,
                &plan,
                None,
                Some(&pool),
                &mut par,
            )
            .unwrap_or_else(|e| panic!("{threads} threads {sched:?}: {e}"));
            assert_eq!(serial, par, "{threads} threads {sched:?}");
        }
    }
}

#[test]
fn stream_datapath_within_quantization_of_host() {
    let (lens, view, plan, frame) = workload();
    let host = correct(&frame, plan.map(), Interpolator::Bilinear);
    let mut gen = FixedMapGen::typical();
    let fixed_map = gen.generate(&lens, &view, 256, 192);
    let out = correct_fixed(&frame, &fixed_map);
    let q = psnr(&host, &out);
    assert!(q > 30.0, "streaming datapath PSNR vs host: {q:.1} dB");
}

#[test]
fn fixed_host_path_within_quantization_of_float() {
    let (_, _, plan, frame) = workload();
    let float = correct(&frame, plan.map(), Interpolator::Bilinear);
    let fixed = correct_fixed(&frame, &plan.map().to_fixed(14));
    let q = psnr(&float, &fixed);
    assert!(q > 50.0, "14-bit weights PSNR {q:.1} dB");
}
