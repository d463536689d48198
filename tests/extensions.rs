//! Integration tests of the extension features through the facade:
//! YUV 4:2:0, alternative projections, adaptive anti-aliasing,
//! dual-fisheye stitching, Y4M output.

use fisheye::core::antialias::{correct_antialiased, supersampled_fraction, AaConfig};
use fisheye::core::composite::CompositePlan;
use fisheye::core::correct;
use fisheye::core::engine::EngineSpec;
use fisheye::core::plan::PlanOptions;
use fisheye::core::synth::{capture_fisheye, World};
use fisheye::geom::OutputProjection;
use fisheye::img::y4m::{decode_y4m, Y4mWriter};
use fisheye::img::yuv::Yuv420;
use fisheye::prelude::*;
use fisheye::Corrector;

/// A YUV420 facade corrector for the color tests.
fn yuv_corrector(lens: FisheyeLens, view: PerspectiveView, src: (u32, u32)) -> Corrector {
    Corrector::builder()
        .lens(lens)
        .view(view)
        .source(src.0, src.1)
        .format(FrameFormat::Yuv420)
        .build()
        .expect("valid yuv420 corrector")
}

/// Correct one YUV420 frame through the facade, unwrapping the format.
fn correct_yuv(corrector: &Corrector, yuv: Yuv420) -> Yuv420 {
    let (frame, _report) = corrector
        .correct_frame(&Frame::Yuv420(yuv))
        .expect("correct yuv frame");
    match frame {
        Frame::Yuv420(out) => out,
        other => panic!("yuv420 in, {} out", other.format()),
    }
}

#[test]
fn color_pipeline_end_to_end_preserves_hue() {
    // a colorful scene through the YUV420 path: the corrected output's
    // dominant channel ordering must match the input's
    let lens = FisheyeLens::equidistant_fov(128, 128, 180.0);
    let view = PerspectiveView::centered(64, 64, 70.0);
    let rgb = fisheye::img::Image::from_fn(128, 128, |x, _| {
        if x < 64 {
            fisheye::img::Rgb8::new(220, 40, 30)
        } else {
            fisheye::img::Rgb8::new(30, 60, 210)
        }
    });
    let corrector = yuv_corrector(lens, view, (128, 128));
    let corrected = correct_yuv(&corrector, Yuv420::from_rgb(&rgb));
    let out = corrected.to_rgb();
    // left half red-ish, right half blue-ish (the view is centered and
    // narrower than the lens, so sides map to sides)
    let l = out.pixel(8, 32);
    let r = out.pixel(56, 32);
    assert!(l.r > l.b, "left should stay red: {l:?}");
    assert!(r.b > r.r, "right should stay blue: {r:?}");
}

#[test]
fn corrected_video_roundtrips_through_y4m() {
    let lens = FisheyeLens::equidistant_fov(64, 64, 180.0);
    let view = PerspectiveView::centered(32, 32, 90.0);
    let corrector = yuv_corrector(lens, view, (64, 64));
    let mut writer = Y4mWriter::new(Vec::new(), 32, 32, 30, 1);
    let mut originals = Vec::new();
    for seed in 0..3u64 {
        let frame = Yuv420::from_rgb(&fisheye::img::scene::random_rgb(64, 64, seed));
        let corrected = correct_yuv(&corrector, frame);
        writer.write_frame(&corrected).unwrap();
        originals.push(corrected);
    }
    let bytes = writer.finish().unwrap();
    let (w, h, frames) = decode_y4m(&bytes).unwrap();
    assert_eq!((w, h), (32, 32));
    assert_eq!(frames, originals);
}

#[test]
fn cylindrical_panorama_straightens_verticals() {
    // vertical scene lines must stay within one output column in the
    // cylindrical panorama (the mode's defining property)
    use fisheye::img::scene::LineGrid;
    let scene = LineGrid {
        lines: 8,
        thickness: 0.04,
    };
    let lens = FisheyeLens::equidistant_fov(256, 256, 180.0);
    // scene painted on a 100° view plane straight ahead
    let plane = PerspectiveView::centered(256, 256, 100.0);
    let world = World::Planar(&plane);
    let captured = capture_fisheye(&scene, world, &lens, 256, 256, 2);
    let proj = OutputProjection::Cylindrical {
        h_span: 80f64.to_radians(),
        v_half_fov: 30f64.to_radians(),
        pan: 0.0,
        width: 160,
        height: 120,
    };
    let map = RemapMap::build_projection(&lens, &proj, 256, 256);
    let pano = correct(&captured, &map, Interpolator::Bilinear);
    // find dark (line) pixels per column in the central band; a
    // vertical line's column support must be narrow
    let mut col_is_dark = vec![0u32; 160];
    for x in 0..160u32 {
        for y in 40..80u32 {
            if pano.pixel(x, y).0 < 100 {
                col_is_dark[x as usize] += 1;
            }
        }
    }
    // columns are either mostly-line or mostly-background — a bowed
    // line would smear across many columns with partial counts
    let partial = col_is_dark.iter().filter(|&&c| c > 8 && c < 32).count();
    assert!(
        partial <= 8,
        "{partial} columns with partial line coverage — verticals not straight"
    );
}

#[test]
fn adaptive_aa_is_noop_where_map_magnifies() {
    // zoomed-in view: every Jacobian step < 1, AA must equal bilinear
    let lens = FisheyeLens::equidistant_fov(128, 128, 180.0);
    let view = PerspectiveView::centered(128, 128, 30.0);
    let map = RemapMap::build(&lens, &view, 128, 128);
    assert_eq!(supersampled_fraction(&map, &AaConfig::default()), 0.0);
    let src = fisheye::img::scene::random_gray(128, 128, 9);
    let aa = correct_antialiased(&src, &map, &AaConfig::default());
    let plain = correct(&src, &map, Interpolator::Bilinear);
    assert_eq!(aa, plain);
}

#[test]
fn stitch_covers_sphere_and_blends() {
    let rig = fisheye::geom::CameraRig::symmetric(128, 128, 190.0);
    let opts = PlanOptions::for_spec(&EngineSpec::Serial, Interpolator::Bilinear);
    let plan = CompositePlan::compile_panorama(&rig, 96, 48, &opts);
    // full coverage: a >180° back-to-back pair sees the whole sphere
    assert_eq!(plan.uncovered_pixels(), 0);
    assert!(plan.blend_pixels() > 0, "overlap band must blend");
    // compositing constant frames gives a constant panorama (blending
    // cannot invent contrast)
    let front = fisheye::img::Image::filled(128, 128, Gray8(180));
    let back = fisheye::img::Image::filled(128, 128, Gray8(180));
    let mut pano = fisheye::img::Image::new(96, 48);
    fisheye::core::execute_composite_host(
        &EngineSpec::Serial,
        Interpolator::Bilinear,
        &[&front, &back],
        &plan,
        None,
        None,
        &mut pano,
    )
    .expect("serial composite");
    for p in pano.pixels() {
        assert!((p.0 as i32 - 180).abs() <= 1, "{}", p.0);
    }
}
