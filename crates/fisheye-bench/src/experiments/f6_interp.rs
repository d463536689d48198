//! F6 — interpolation quality vs cost, plus the Brown–Conrady
//! baseline row.
//!
//! Quality is PSNR/SSIM against the analytic ground truth of a
//! synthetic capture; cost is measured ns/pixel of the serial kernel.

use fisheye_core::synth::{standard_case, TestCase};
use fisheye_core::{correct, Interpolator, RemapMap};
use fisheye_geom::{BrownConrady, PerspectiveView};
use pixmap::metrics::quality;
use pixmap::scene::scene_by_name;

use crate::table::{f2, ns_per_px, Table};
use crate::workloads::time_median;
use crate::Scale;

fn case(scale: Scale) -> TestCase {
    let (src, out) = match scale {
        Scale::Quick => (384u32, 192u32),
        Scale::Full => (1536, 768),
    };
    let scene = scene_by_name("bricks").unwrap();
    let view = PerspectiveView::centered(out, out, 80.0);
    standard_case(scene.as_ref(), src, src, view, 2)
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let case = case(scale);
    let map = RemapMap::build(
        &case.lens,
        &case.view,
        case.distorted.width(),
        case.distorted.height(),
    );
    let pixels = (case.view.width * case.view.height) as u64;
    let reps = 3;

    let mut table = Table::new(
        "F6 — interpolation quality vs cost (bricks scene)",
        &["method", "psnr_db", "ssim", "max_err", "ns_per_px", "taps"],
    );
    for interp in Interpolator::ALL {
        let out = correct(&case.distorted, &map, interp);
        let q = quality(&out, &case.truth);
        let t = time_median(reps, || {
            std::hint::black_box(correct(&case.distorted, &map, interp));
        });
        table.row(vec![
            interp.name().to_string(),
            f2(q.psnr_db),
            f2(q.ssim),
            f2(q.max_err),
            ns_per_px(std::time::Duration::from_secs_f64(t), pixels),
            interp.taps().to_string(),
        ]);
    }
    // Brown–Conrady baseline: polynomial fit to the same lens, LUT
    // built from the polynomial, bilinear sampling
    let (bc, _) = BrownConrady::fit(case.lens.model, case.lens.max_theta, 256);
    let bc_map = RemapMap::build_brown_conrady(
        &bc,
        case.lens.focal_px,
        case.view.width,
        case.view.height,
        case.distorted.width(),
        case.distorted.height(),
    );
    let out = correct(&case.distorted, &bc_map, Interpolator::Bilinear);
    let q = quality(&out, &case.truth);
    let t = time_median(reps, || {
        std::hint::black_box(correct(&case.distorted, &bc_map, Interpolator::Bilinear));
    });
    table.row(vec![
        "brown-conrady+bilinear".into(),
        f2(q.psnr_db),
        f2(q.ssim),
        f2(q.max_err),
        ns_per_px(std::time::Duration::from_secs_f64(t), pixels),
        "4".into(),
    ]);
    // Jacobian-adaptive supersampling (extension feature)
    let aa_cfg = fisheye_core::AaConfig::default();
    let out = fisheye_core::correct_antialiased(&case.distorted, &map, &aa_cfg);
    let q = quality(&out, &case.truth);
    let t = time_median(reps, || {
        std::hint::black_box(fisheye_core::correct_antialiased(
            &case.distorted,
            &map,
            &aa_cfg,
        ));
    });
    table.row(vec![
        "bilinear+adaptive-aa".into(),
        f2(q.psnr_db),
        f2(q.ssim),
        f2(q.max_err),
        ns_per_px(std::time::Duration::from_secs_f64(t), pixels),
        "4-64".into(),
    ]);
    // mip-pyramid trilinear (texture-unit style minification AA)
    let out = fisheye_core::antialias::correct_mip(&case.distorted, &map);
    let q = quality(&out, &case.truth);
    let t = time_median(reps, || {
        std::hint::black_box(fisheye_core::antialias::correct_mip(&case.distorted, &map));
    });
    table.row(vec![
        "mip-trilinear".into(),
        f2(q.psnr_db),
        f2(q.ssim),
        f2(q.max_err),
        ns_per_px(std::time::Duration::from_secs_f64(t), pixels),
        "8".into(),
    ]);
    table.note("PSNR/SSIM vs analytic ground truth; ns/px measured serially on this host");
    table.note("expected shape: bilinear is the knee; bicubic costs ~3-4x bilinear for a small PSNR gain; the polynomial baseline cannot fit a 180-degree lens and lands far below the exact inverse");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_quality_ordering() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let psnr = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        let nearest = psnr("nearest");
        let bilinear = psnr("bilinear");
        let bicubic = psnr("bicubic");
        let baseline = psnr("brown-conrady+bilinear");
        assert!(
            bilinear > nearest,
            "bilinear {bilinear} vs nearest {nearest}"
        );
        assert!(
            bicubic >= bilinear - 0.3,
            "bicubic {bicubic} vs bilinear {bilinear}"
        );
        assert!(
            baseline < bilinear - 3.0,
            "polynomial baseline {baseline} must trail the exact inverse {bilinear}"
        );
    }
}
