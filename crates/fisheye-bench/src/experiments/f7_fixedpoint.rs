//! F7 — fixed-point precision sweep.
//!
//! Two knobs of the accelerator datapath: (a) bilinear weight bits in
//! the quantized LUT, (b) CORDIC iterations in the streaming map
//! generator. Quality is PSNR against the float-path output (isolating
//! quantization, not interpolation, error).

use fisheye_core::{correct, correct_fixed, Interpolator};
use pixmap::metrics::psnr;
use streamsim::FixedMapGen;

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, random_workload, resolution};
use crate::Scale;

/// Weight-bit sweep.
pub const WEIGHT_BITS: &[u32] = &[1, 2, 3, 4, 6, 8, 10, 12, 14];

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = match scale {
        Scale::Quick => resolution("QVGA"),
        Scale::Full => default_resolution(scale),
    };
    let w = random_workload(res, 11);
    let float_out = correct(&w.frame, &w.map, Interpolator::Bilinear);

    let mut table = Table::new(
        format!("F7 — fixed-point precision sweep ({})", res.name),
        &["config", "psnr_vs_float_db", "lut_bytes_per_px"],
    );
    for &bits in WEIGHT_BITS {
        let fixed = w.map.to_fixed(bits);
        let out = correct_fixed(&w.frame, &fixed);
        table.row(vec![
            format!("weights Q0.{bits}"),
            f2(psnr(&float_out, &out)),
            "8".into(),
        ]);
    }
    // CORDIC iteration sweep through the full streaming datapath
    for iters in [8u32, 12, 16, 20, 24] {
        let mut gen = FixedMapGen::new(iters, 1024, 8);
        let fixed = gen.generate(&w.lens, &w.view, res.w, res.h);
        let out = correct_fixed(&w.frame, &fixed);
        table.row(vec![
            format!("datapath cordic={iters}"),
            f2(psnr(&float_out, &out)),
            "8".into(),
        ]);
    }
    table.note("PSNR vs the float-path output on the same frame (quantization error only)");
    table.note("expected shape: ~6 dB per weight bit until the plateau; CORDIC error vanishes beyond ~16 iterations");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_monotone_in_bits_until_plateau() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let weights: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("weights"))
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert_eq!(weights.len(), WEIGHT_BITS.len());
        // non-decreasing within 0.5 dB noise
        for w in weights.windows(2) {
            assert!(w[1] >= w[0] - 0.5, "psnr regressed: {weights:?}");
        }
        // 1-bit weights are bad, 12-bit are excellent
        assert!(weights[0] < 35.0);
        assert!(weights[weights.len() - 2] > 45.0, "{weights:?}");
        // rough 6 dB/bit in the early regime
        let gain_per_bit = (weights[3] - weights[0]) / 3.0;
        assert!(
            gain_per_bit > 3.0 && gain_per_bit < 9.0,
            "gain/bit {gain_per_bit}"
        );
    }

    #[test]
    fn shape_cordic_converges() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        let cordic: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("datapath"))
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert_eq!(cordic.len(), 5);
        assert!(
            cordic.last().unwrap() >= cordic.first().unwrap(),
            "{cordic:?}"
        );
    }
}
