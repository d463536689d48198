//! T11 — composite plans: what an N-camera panorama costs against the
//! sum of its per-camera corrections, what a rectified stereo pair
//! costs per eye, and whether mixed single/panorama/stereo serving
//! sessions actually share one plan cache.
//!
//! The composite executor walks the output surface once: exclusive
//! spans run one camera's span program, overlap spans gather every
//! contributing camera under prequantized u8 weights. The per-camera
//! baseline runs each camera's full [`RemapPlan`] over the same
//! surface — the work a naive compose-after-correct pipeline pays
//! before it even starts blending. The composite must therefore stay
//! within a small factor of the per-camera *sum* (the blend arithmetic
//! and the second gather on the overlap band are the only extras);
//! the acceptance band `composite <= 1.15x sum` is a gate on the T11
//! table, which `repro` checks at release scale alongside
//! bit-exactness against the two-pass reference.
//!
//! The soak rows exercise the serve layer: panorama sessions sharing a
//! rig compile each (camera, plane-class) plan once for the whole
//! fleet, pure-translation stereo eyes share a single plan, and a
//! one-camera rig nudge recompiles only the plans that moved
//! (`serve.plan.delta_recompiles`).
//!
//! [`RemapPlan`]: fisheye_core::plan::RemapPlan

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fisheye_core::composite::{compose_two_pass, CompositePlan, StereoPlan};
use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::Frame;
use fisheye_core::plan::{correct_plan_into, PlanOptions};
use fisheye_core::{execute_composite_host, Interpolator};
use fisheye_geom::{CameraRig, FisheyeLens, Mat3, PerspectiveView, StereoRig};
use fisheye_serve::{Server, ServerConfig, SessionConfig, Workload};
use pixmap::{Gray8, Image};

use crate::table::{f2, Cmp, Table};
use crate::workloads::{resolution, Resolution};
use crate::Scale;

/// One resolution's composite measurement. Sensor frames are square at
/// the resolution's height; the panorama surface is the classic 2:1
/// equirectangular of that sensor size.
#[cfg_attr(test, derive(Default))]
pub struct CompositePoint {
    /// Resolution name (sets the sensor size).
    pub res: &'static str,
    /// Rig camera count.
    pub cameras: usize,
    /// Panorama surface, pixels.
    pub out: (u32, u32),
    /// Serial composite execution, ms (best of reps).
    pub composite_ms: f64,
    /// Sum of per-camera plan executions over the same surface, ms.
    pub percam_sum_ms: f64,
    /// `composite / percam_sum` — the amortization claim.
    pub ratio: f64,
    /// Both stereo eyes corrected (same sensor size), ms.
    pub stereo_pair_ms: f64,
    /// Composite output byte-identical to the two-pass reference.
    pub bit_exact: bool,
}

/// Mixed-workload serving soak: plan sharing across session kinds.
#[cfg_attr(test, derive(Default))]
pub struct SoakStats {
    /// Sessions connected (singles + panoramas + stereo pairs).
    pub sessions: usize,
    /// Plan-cache hits after the fleet connected.
    pub cache_hits: u64,
    /// Plan-cache misses (unique plans compiled).
    pub cache_misses: u64,
    /// Delta recompiles triggered by the one-camera rig nudge.
    pub delta_recompiles: u64,
    /// Frames served to completion.
    pub completed: u64,
}

/// Best-of-reps: interference only adds time (see T9).
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Measure one resolution: back-to-back 195° pair onto a 2:1 surface,
/// plus a side-by-side stereo pair rectified at the sensor size.
fn composite_point(res: Resolution, reps: usize) -> CompositePoint {
    let s = res.h;
    let (ow, oh) = (2 * s, s);
    let rig = CameraRig::symmetric(s, s, 195.0);
    let frames: Vec<Image<Gray8>> = (0..rig.len())
        .map(|i| pixmap::scene::random_gray(s, s, 0x7011 + i as u64))
        .collect();
    let srcs: Vec<&Image<Gray8>> = frames.iter().collect();
    let opts = PlanOptions::default();
    let plan = CompositePlan::compile_panorama(&rig, ow, oh, &opts);

    // bit-exactness first: one composite pass vs correct-then-blend
    let reference = compose_two_pass(&srcs, &plan, Interpolator::Bilinear);
    let mut out = Image::<Gray8>::new(ow, oh);
    execute_composite_host(
        &EngineSpec::Serial,
        Interpolator::Bilinear,
        &srcs,
        &plan,
        None,
        None,
        &mut out,
    )
    .expect("serial composite");
    let bit_exact = out == reference;

    // the stereo pair: both eyes over the shared rectified surface
    let stereo_rig = StereoRig::side_by_side(FisheyeLens::equidistant_fov(s, s, 190.0), 0.1);
    let stereo = StereoPlan::compile(&stereo_rig, s, s * 3 / 4, 140.0, 100.0, &opts);
    let left = pixmap::scene::random_gray(s, s, 0x7011aa);
    let right = pixmap::scene::random_gray(s, s, 0x7011bb);
    let mut eye_l = Image::<Gray8>::new(s, s * 3 / 4);
    let mut eye_r = Image::<Gray8>::new(s, s * 3 / 4);

    // per-camera layer buffers for the baseline, allocated once so
    // both timed variants do zero allocation per rep
    let mut layers: Vec<Image<Gray8>> = (0..rig.len()).map(|_| Image::new(ow, oh)).collect();

    // warmup, then interleave the timed reps (see T9 on why)
    let mut composite = Vec::with_capacity(reps);
    let mut percam = Vec::with_capacity(reps);
    let mut stereo_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        execute_composite_host(
            &EngineSpec::Serial,
            Interpolator::Bilinear,
            &srcs,
            &plan,
            None,
            None,
            &mut out,
        )
        .expect("composite rep");
        composite.push(t0.elapsed().as_secs_f64());
        black_box(&out);

        let t0 = Instant::now();
        for (sp, (src, layer)) in plan.sources().iter().zip(srcs.iter().zip(&mut layers)) {
            correct_plan_into(src, sp, Interpolator::Bilinear, layer);
        }
        percam.push(t0.elapsed().as_secs_f64());
        black_box(&layers);

        let t0 = Instant::now();
        correct_plan_into(&left, &stereo.left, Interpolator::Bilinear, &mut eye_l);
        correct_plan_into(&right, &stereo.right, Interpolator::Bilinear, &mut eye_r);
        stereo_ms.push(t0.elapsed().as_secs_f64());
        black_box((&eye_l, &eye_r));
    }

    let (t_comp, t_sum) = (best(&composite), best(&percam));
    CompositePoint {
        res: res.name,
        cameras: rig.len(),
        out: (ow, oh),
        composite_ms: t_comp * 1e3,
        percam_sum_ms: t_sum * 1e3,
        ratio: t_comp / t_sum.max(1e-12),
        stereo_pair_ms: best(&stereo_ms) * 1e3,
        bit_exact,
    }
}

/// Mixed single/panorama/stereo fleet against one server: the cache
/// must dedupe plans *across* workload kinds (every panorama session
/// of the same rig rides the first one's compiles; a pure-translation
/// stereo pair's eyes share a single plan), and a one-camera rig nudge
/// must recompile only that camera's plans.
pub fn soak(sessions_per_kind: usize, frames_per_session: usize) -> SoakStats {
    let server = Server::new(ServerConfig {
        capacity: 3 * sessions_per_kind,
        ..ServerConfig::default()
    })
    .expect("server");
    let (sw, sh) = (96u32, 96u32);
    let lens = FisheyeLens::equidistant_fov(sw, sh, 180.0);
    let pano_rig = CameraRig::symmetric(sw, sh, 195.0);
    let stereo_rig = StereoRig::side_by_side(lens, 0.1);

    let mut singles = Vec::new();
    let mut panos = Vec::new();
    let mut stereos = Vec::new();
    for _ in 0..sessions_per_kind {
        singles.push(
            server
                .connect(SessionConfig::new(
                    lens,
                    PerspectiveView::centered(64, 48, 90.0),
                    (sw, sh),
                ))
                .expect("single session"),
        );
        panos.push(
            server
                .connect(SessionConfig {
                    workload: Workload::Panorama {
                        rig: pano_rig.clone(),
                    },
                    ..SessionConfig::new(lens, PerspectiveView::centered(128, 64, 90.0), (sw, sh))
                })
                .expect("panorama session"),
        );
        stereos.push(
            server
                .connect(SessionConfig {
                    workload: Workload::StereoPair {
                        rig: Box::new(stereo_rig.clone()),
                        h_fov_deg: 140.0,
                        v_fov_deg: 100.0,
                    },
                    ..SessionConfig::new(lens, PerspectiveView::centered(80, 60, 90.0), (sw, sh))
                })
                .expect("stereo session"),
        );
    }

    let rig_frame = |seed: u64| Arc::new(Frame::Gray8(pixmap::scene::random_gray(sw, sh, seed)));
    let mut completed = 0u64;
    for i in 0..frames_per_session {
        let single_frame = rig_frame(0x701100 + i as u64);
        for s in &mut singles {
            let _ = s.submit_frame(Arc::clone(&single_frame));
            completed += u64::from(s.pump_one().expect("pump single").is_some());
        }
        for s in &mut panos {
            let _ = s.submit_rig(vec![rig_frame(1 + i as u64), rig_frame(2 + i as u64)]);
            completed += u64::from(s.pump_one().expect("pump panorama").is_some());
        }
        for s in &mut stereos {
            let _ = s.submit_rig(vec![rig_frame(3 + i as u64), rig_frame(4 + i as u64)]);
            completed += u64::from(s.pump_one().expect("pump stereo").is_some());
        }
    }

    // nudge one camera of one panorama session: only that camera's
    // plan recompiles (counted), the other camera stays cached
    let nudged = pano_rig.with_camera_rotation(1, Mat3::rot_y(std::f64::consts::PI + 0.03));
    panos[0].set_rig(nudged).expect("rig nudge");

    let stats = server.cache().stats();
    SoakStats {
        sessions: 3 * sessions_per_kind,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        delta_recompiles: server.metrics().counter("serve.plan.delta_recompiles"),
        completed,
    }
}

/// Measure every resolution for `scale`.
pub fn points(scale: Scale) -> Vec<CompositePoint> {
    let (names, reps): (&[&str], usize) = match scale {
        Scale::Quick => (&["QVGA", "VGA"], 15),
        Scale::Full => (&["QVGA", "VGA", "720p", "1080p"], 11),
    };
    names
        .iter()
        .map(|n| composite_point(resolution(n), reps))
        .collect()
}

/// Render measured points plus the soak as the T11 table.
pub fn table(points: &[CompositePoint], soak: &SoakStats) -> Table {
    let mut t = Table::new(
        "T11 — composite plans: 2-camera panorama vs per-camera sum, stereo pair \
         cost, mixed-workload plan sharing (serial, bilinear)",
        &[
            "res",
            "cameras",
            "out",
            "composite_ms",
            "percam_sum_ms",
            "ratio",
            "stereo_pair_ms",
            "bit_exact",
        ],
    );
    for p in points {
        t.row(vec![
            p.res.to_string(),
            p.cameras.to_string(),
            format!("{}x{}", p.out.0, p.out.1),
            f2(p.composite_ms),
            f2(p.percam_sum_ms),
            f2(p.ratio),
            f2(p.stereo_pair_ms),
            if p.bit_exact { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.note("composite = one-pass span walk over the panorama surface; percam_sum = every camera's full plan over the same surface (the compose-after-correct baseline, before any blending)");
    t.note("ratio = composite/percam_sum (band: <= 1.15x) — the overlap band's second gather and the u8 blend are the only extra work");
    t.note("stereo_pair = both eyes of a side-by-side rig over the shared rectified surface");
    t.note(format!(
        "soak: {} mixed sessions, cache {} hits / {} misses, {} delta recompiles after a one-camera rig nudge, {} frames completed",
        soak.sessions, soak.cache_hits, soak.cache_misses, soak.delta_recompiles, soak.completed
    ));
    // NaN start: no rows fails the ratio gate
    let max_ratio = points.iter().map(|p| p.ratio).fold(f64::NAN, f64::max);
    t.gate("max_ratio", max_ratio, Cmp::AtMost, 1.15);
    t.gate_flag("all_bit_exact", points.iter().all(|p| p.bit_exact));
    // a one-camera rig nudge recompiles exactly one plan
    t.gate(
        "soak_delta_recompiles",
        soak.delta_recompiles as f64,
        Cmp::Equal,
        1.0,
    );
    t
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let soak = match scale {
        Scale::Quick => soak(4, 3),
        Scale::Full => soak(16, 5),
    };
    table(&points(scale), &soak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_composite_amortizes_and_fleet_shares_plans() {
        let _serial = crate::experiments::serialize();
        // tiny local point: the shape claims, not the release bands
        let p = composite_point(
            Resolution {
                name: "tiny",
                w: 192,
                h: 96,
            },
            5,
        );
        assert!(p.bit_exact, "composite must match the two-pass reference");
        assert!(p.composite_ms > 0.0 && p.percam_sum_ms > 0.0 && p.stereo_pair_ms > 0.0);
        // debug builds are noisy; the release band (1.15x) is gated by
        // `repro` — here the one-pass walk just must not cost
        // multiples of the per-camera sum
        assert!(
            p.ratio < 2.0,
            "composite {:.3}ms vs per-camera sum {:.3}ms ({:.2}x)",
            p.composite_ms,
            p.percam_sum_ms,
            p.ratio
        );

        let s = soak(2, 2);
        assert_eq!(s.sessions, 6);
        assert_eq!(s.completed, 12, "every submitted frame completes");
        // 2nd panorama session reuses both camera plans, 2nd stereo
        // session reuses the shared eye plan, and the pure-translation
        // pair shares one plan across eyes — hits must dominate
        assert!(
            s.cache_hits >= s.cache_misses,
            "fleet must share plans: {} hits / {} misses",
            s.cache_hits,
            s.cache_misses
        );
        assert_eq!(
            s.delta_recompiles, 1,
            "one-camera nudge recompiles exactly one plan"
        );
    }
}
