//! F9 — LUT precompute vs direct recomputation crossover.
//!
//! When the view changes every frame the LUT is rebuilt every frame
//! and buys nothing; when the view is stable the LUT amortizes its
//! build across many frames. This experiment measures effective
//! per-frame time as a function of frames-between-view-changes.

use fisheye_core::engine::execute_direct;
use fisheye_core::{correct, Interpolator, RemapMap};
use pixmap::{Gray8, Image};

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, random_workload, resolution, time_median};
use crate::Scale;

/// Frames between view changes.
pub const PERIODS: &[u32] = &[1, 2, 4, 8, 16, 32, 64];

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = match scale {
        Scale::Quick => resolution("QVGA"),
        Scale::Full => default_resolution(scale),
    };
    let w = random_workload(res, 13);
    let reps = 3;
    // component timings
    let t_build = time_median(reps, || {
        std::hint::black_box(RemapMap::build(&w.lens, &w.view, res.w, res.h));
    });
    let t_apply = time_median(reps, || {
        std::hint::black_box(correct(&w.frame, &w.map, Interpolator::Bilinear));
    });
    // a fresh output per frame, like `correct` above
    let t_direct = time_median(reps, || {
        let mut out = Image::<Gray8>::new(w.view.width, w.view.height);
        execute_direct(Interpolator::Bilinear, &w.frame, &w.lens, &w.view, &mut out)
            .expect("output sized to the view");
        std::hint::black_box(out);
    });

    let mut table = Table::new(
        format!("F9 — LUT vs direct recomputation ({})", res.name),
        &[
            "frames_per_view",
            "lut_ms_per_frame",
            "direct_ms_per_frame",
            "winner",
        ],
    );
    for &k in PERIODS {
        let lut = (t_build / k as f64 + t_apply) * 1e3;
        let direct = t_direct * 1e3;
        table.row(vec![
            k.to_string(),
            f2(lut),
            f2(direct),
            if lut < direct { "lut" } else { "direct" }.to_string(),
        ]);
    }
    table.note(format!(
        "measured components: build {:.2} ms, apply {:.2} ms, direct {:.2} ms",
        t_build * 1e3,
        t_apply * 1e3,
        t_direct * 1e3
    ));
    table.note("expected shape: direct wins only when the view changes every frame or two; the LUT amortizes quickly");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_lut_amortizes() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), PERIODS.len());
        let lut: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // monotone decreasing effective LUT cost
        for w in lut.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{lut:?}");
        }
        // at 64 frames/view the LUT must win
        assert_eq!(t.rows.last().unwrap()[3], "lut");
        // direct column constant
        let d0: f64 = t.rows[0][2].parse().unwrap();
        let dn: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!((d0 - dn).abs() < 1e-9);
    }
}
