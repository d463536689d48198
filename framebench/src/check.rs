//! Output references. A served frame is correct when its digest equals
//! the digest of an independent reference for the same input:
//!
//! * float backends (`serial`, `simd`): a `serial` [`Corrector`] built
//!   for the same lens, view and format;
//! * `fixed`: the map-based fixed-point reference
//!   ([`fisheye_core::correct_fixed`]) per plane;
//! * the panorama: [`compose_two_pass`] over a directly compiled
//!   `serial` composite.

use fisheye::Corrector;
use fisheye_core::composite::{compose_two_pass, CompositePlan};
use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameFormat, ViewPlan};
use fisheye_core::plan::PlanOptions;
use fisheye_core::Interpolator;
use fisheye_geom::{CameraRig, FisheyeLens, PerspectiveView};
use pixmap::{Gray8, Image};

use crate::stats::digest;

/// Digest of every `u8` plane of `frame`.
pub fn frame_digest(frame: &Frame) -> u64 {
    digest(
        &frame
            .u8_planes()
            .expect("benchmark frames have byte planes"),
    )
}

/// The reference digest for `src` corrected to `view` by a backend of
/// `spec`'s numeric class.
pub fn single(lens: &FisheyeLens, view: &PerspectiveView, spec: &EngineSpec, src: &Frame) -> u64 {
    let (w, h) = src.dims();
    match spec {
        EngineSpec::FixedPoint { frac_bits } => {
            let planes = src.u8_planes().expect("byte planes");
            let outs: Vec<Image<Gray8>> = ViewPlan::plane_requests(src.format(), lens, view, w, h)
                .iter()
                .zip(planes)
                .map(|(req, plane)| {
                    fisheye_core::correct_fixed(plane, &req.build_map(None).to_fixed(*frac_bits))
                })
                .collect();
            digest(&outs.iter().collect::<Vec<_>>())
        }
        _ => {
            let corrector: Corrector<Gray8> = Corrector::builder()
                .lens(*lens)
                .view(*view)
                .source(w, h)
                .format(src.format())
                .backend(EngineSpec::Serial)
                .interp(Interpolator::Bilinear)
                .threads(1)
                .build()
                .expect("serial reference corrector");
            let (out, _) = corrector.correct_frame(src).expect("serial reference");
            frame_digest(&out)
        }
    }
}

/// The reference digest for a gray panorama of `rig` at `w`×`h`.
pub fn panorama(rig: &CameraRig, w: u32, h: u32, srcs: &[&Frame]) -> u64 {
    assert!(srcs.iter().all(|f| f.format() == FrameFormat::Gray8));
    let opts = PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear);
    let plan = CompositePlan::compile_panorama(rig, w, h, &opts);
    let planes: Vec<&Image<Gray8>> = srcs
        .iter()
        .map(|f| f.u8_planes().expect("byte planes")[0])
        .collect();
    digest(&[&compose_two_pass(&planes, &plan, Interpolator::Bilinear)])
}
