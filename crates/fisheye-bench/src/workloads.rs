//! Standard workloads shared by the experiments.

use fisheye_core::engine::{execute_host_post, EngineSpec, HostEnv};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::synth::{capture_fisheye, World};
use fisheye_core::{Interpolator, RemapMap};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use par_runtime::{Schedule, ThreadPool};
use pixmap::scene::scene_by_name;
use pixmap::{Gray8, Image};

use crate::Scale;

/// A named resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resolution {
    pub name: &'static str,
    pub w: u32,
    pub h: u32,
}

/// The paper-era video resolutions.
pub const RESOLUTIONS: &[Resolution] = &[
    Resolution {
        name: "QVGA",
        w: 320,
        h: 240,
    },
    Resolution {
        name: "VGA",
        w: 640,
        h: 480,
    },
    Resolution {
        name: "720p",
        w: 1280,
        h: 720,
    },
    Resolution {
        name: "1080p",
        w: 1920,
        h: 1080,
    },
    Resolution {
        name: "4K",
        w: 3840,
        h: 2160,
    },
];

/// Resolution by name.
pub fn resolution(name: &str) -> Resolution {
    *RESOLUTIONS
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("unknown resolution {name}"))
}

/// The default working resolution for a scale.
pub fn default_resolution(scale: Scale) -> Resolution {
    match scale {
        Scale::Quick => resolution("VGA"),
        Scale::Full => resolution("1080p"),
    }
}

/// One prepared correction workload.
pub struct Workload {
    /// The simulated camera (equidistant, 180°).
    pub lens: FisheyeLens,
    /// The output view (straight ahead, 90° hFOV, same size as input).
    pub view: PerspectiveView,
    /// A captured distorted frame ("bricks" scene).
    pub frame: Image<Gray8>,
    /// The prebuilt float LUT.
    pub map: RemapMap,
}

impl Workload {
    /// Compile an execution plan for `spec` over this workload's map.
    pub fn plan_for(&self, spec: &EngineSpec) -> RemapPlan {
        RemapPlan::compile(&self.map, PlanOptions::for_specs(&[*spec]))
    }
}

/// Build the standard workload at a resolution: 180° equidistant lens,
/// 90° straight-ahead output view of the same size, bricks scene.
pub fn standard_workload(res: Resolution) -> Workload {
    let lens = FisheyeLens::equidistant_fov(res.w, res.h, 180.0);
    let view = PerspectiveView::centered(res.w, res.h, 90.0);
    let scene = scene_by_name("bricks").expect("bricks scene registered");
    let frame = capture_fisheye(scene.as_ref(), World::Spherical, &lens, res.w, res.h, 1);
    let map = RemapMap::build(&lens, &view, res.w, res.h);
    Workload {
        lens,
        view,
        frame,
        map,
    }
}

/// A cheap random frame (skips ray tracing) for timing-only runs
/// where content is irrelevant.
pub fn random_workload(res: Resolution, seed: u64) -> Workload {
    let lens = FisheyeLens::equidistant_fov(res.w, res.h, 180.0);
    let view = PerspectiveView::centered(res.w, res.h, 90.0);
    let frame = pixmap::scene::random_gray(res.w, res.h, seed);
    let map = RemapMap::build(&lens, &view, res.w, res.h);
    Workload {
        lens,
        view,
        frame,
        map,
    }
}

/// Median-of-`reps` wall time of `f`, seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps >= 1);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median-of-`reps` wall time, seconds, of the `smp` engine correcting
/// `frame` over `plan` on `pool` under `schedule` — the path served
/// frames take, with the plan compiled by the caller.
pub fn time_smp(
    reps: usize,
    frame: &Image<Gray8>,
    plan: &RemapPlan,
    pool: &ThreadPool,
    schedule: Schedule,
) -> f64 {
    let spec = EngineSpec::Smp { schedule };
    let env = HostEnv {
        pool: Some(pool),
        geometry: None,
    };
    let mut out = Image::new(plan.width(), plan.height());
    time_median(reps, || {
        execute_host_post(
            &spec,
            Interpolator::Bilinear,
            frame,
            plan,
            None,
            &env,
            &mut out,
        )
        .expect("smp correction");
        std::hint::black_box(&out);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolutions_lookup() {
        assert_eq!(resolution("1080p").w, 1920);
        assert_eq!(default_resolution(Scale::Quick).name, "VGA");
        assert_eq!(default_resolution(Scale::Full).name, "1080p");
    }

    #[test]
    #[should_panic(expected = "unknown resolution")]
    fn unknown_resolution_panics() {
        let _ = resolution("8K");
    }

    #[test]
    fn standard_workload_consistent() {
        let w = standard_workload(resolution("QVGA"));
        assert_eq!(w.frame.dims(), (320, 240));
        assert_eq!(w.map.src_dims(), (320, 240));
        assert_eq!((w.map.width(), w.map.height()), (320, 240));
        // content present
        assert!(w.frame.pixels().iter().any(|p| p.0 > 50));
    }

    #[test]
    fn time_median_positive_and_ordered() {
        let t = time_median(3, || {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
