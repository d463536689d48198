//! F11 — color cost: grayscale vs YUV 4:2:0 vs full RGB correction.
//!
//! The paper-era deployment corrects YUV420 (luma full-res + chroma at
//! quarter area ×2 ≈ 1.5× the grayscale work) rather than RGB (3×).
//! This experiment verifies that cost structure holds in the
//! implementation: YUV goes through the multi-plane [`ViewPlan`] /
//! [`FrameCorrector`] stack (full-res luma plan + one shared half-res
//! chroma plan), RGB through three passes of the full-res plan.

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameCorrector, FrameFormat, ViewPlan};
use fisheye_core::plan::PlanOptions;
use fisheye_core::{correct, Interpolator, RemapMap};
use pixmap::yuv::Yuv420;
use pixmap::{Image, Rgb8};

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, resolution, time_median};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = match scale {
        Scale::Quick => resolution("QVGA"),
        Scale::Full => default_resolution(scale),
    };
    let reps = 9;
    let spec = EngineSpec::Serial;
    let interp = Interpolator::Bilinear;
    let lens = fisheye_geom::FisheyeLens::equidistant_fov(res.w, res.h, 180.0);
    let view = fisheye_geom::PerspectiveView::centered(res.w, res.h, 90.0);
    let rgb: Image<Rgb8> = pixmap::scene::random_rgb(res.w, res.h, 3);
    let gray = rgb.map(pixmap::Gray8::from);
    let yuv = Frame::Yuv420(Yuv420::from_rgb(&rgb));

    let map = RemapMap::build(&lens, &view, res.w, res.h);
    let opts = PlanOptions::for_spec(&spec, interp);
    let plan = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, res.w, res.h, &opts);
    let corrector = FrameCorrector::host(FrameFormat::Yuv420, plan, &spec, interp, 1)
        .expect("serial backend corrects yuv420");

    // measure the three formats interleaved, rep by rep, and keep each
    // format's fastest rep: scheduling noise (e.g. a busy test runner)
    // only ever adds time, and interleaving exposes every format to the
    // same machine-load drift
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        let rep = [
            time_median(1, || {
                std::hint::black_box(correct(&gray, &map, interp));
            }),
            time_median(1, || {
                std::hint::black_box(corrector.correct_frame(&yuv).expect("yuv420 correction"));
            }),
            time_median(1, || {
                std::hint::black_box(correct(&rgb, &map, interp));
            }),
        ];
        for (b, t) in best.iter_mut().zip(rep) {
            *b = b.min(t);
        }
    }
    let [t_gray, t_yuv, t_rgb] = best;

    let mut table = Table::new(
        format!("F11 — color format cost ({})", res.name),
        &["format", "ms_per_frame", "vs_gray", "bytes_per_px"],
    );
    table.row(vec!["gray".into(), f2(t_gray * 1e3), f2(1.0), "1.0".into()]);
    table.row(vec![
        "yuv420".into(),
        f2(t_yuv * 1e3),
        f2(t_yuv / t_gray),
        "1.5".into(),
    ]);
    table.row(vec![
        "rgb".into(),
        f2(t_rgb * 1e3),
        f2(t_rgb / t_gray),
        "3.0".into(),
    ]);
    table.note("measured serial kernels; YUV420 = FrameCorrector over a full-res luma plan + half-res chroma plan, RGB = 3 channels through one map");
    table.note("times are each format's fastest of interleaved reps, so scheduling noise and load drift drop out");
    table.note("expected shape: yuv420 ≈ 1.5x gray; rgb ≈ 2-3x gray");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_yuv_between_gray_and_rgb() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let v = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[2]
                .parse()
                .unwrap()
        };
        let yuv = v("yuv420");
        let rgb = v("rgb");
        assert!(yuv > 1.0, "yuv must cost more than gray: {yuv}");
        assert!(yuv < rgb, "yuv {yuv} must be cheaper than rgb {rgb}");
        assert!(yuv < 2.4, "yuv overhead out of family: {yuv}");
    }
}
