//! T1 — the headline platform comparison: corrected frames per second
//! per platform per resolution.

use fisheye::Corrector;
use fisheye_core::engine::EngineSpec;
use fisheye_core::{correct, Interpolator};
use par_runtime::Schedule;
use pixmap::Image;
use streamsim::{FixedMapGen, StreamConfig};

use crate::smp_model::{modeled_time, KernelProfile, SmpConfig};
use crate::table::{f1, Table};
use crate::workloads::{random_workload, resolution, time_median, Resolution};
use crate::Scale;

fn resolutions(scale: Scale) -> Vec<Resolution> {
    match scale {
        Scale::Quick => vec![resolution("VGA"), resolution("720p")],
        Scale::Full => vec![resolution("VGA"), resolution("720p"), resolution("1080p")],
    }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "T1 — platform comparison (correction fps, bilinear)",
        &[
            "resolution",
            "host_1t_fps",
            "smp8_model_fps",
            "cell6_model_fps",
            "gpu_model_fps",
            "stream_model_fps",
            "realtime_30fps",
        ],
    );
    for res in resolutions(scale) {
        let w = random_workload(res, 2);
        let t1 = time_median(3, || {
            std::hint::black_box(correct(&w.frame, &w.map, Interpolator::Bilinear));
        });
        let prof = KernelProfile::from_measured(t1, 0.7, res.h as usize);
        let smp8 = 1.0
            / modeled_time(
                &SmpConfig::default(),
                &prof,
                8,
                Schedule::Static { chunk: None },
            );

        // accelerator legs go through the Corrector: build by spec
        // name, read the model's throughput from the report
        let model_fps = |name: &str| -> f64 {
            let spec = EngineSpec::parse(name).expect("registry spec");
            let corrector = Corrector::builder()
                .lens(w.lens)
                .view(w.view)
                .source(res.w, res.h)
                .backend(spec)
                .build()
                .expect("accelerator engine");
            let (ow, oh) = corrector.out_dims();
            let mut out = Image::new(ow, oh);
            corrector
                .correct_into(&w.frame, &mut out)
                .map(|r| r.model.get("model_fps").copied().unwrap_or(f64::NAN))
                .unwrap_or(f64::NAN)
        };
        let cell = model_fps("cell:64x32");
        let gpu = model_fps("gpu");
        let sr =
            streamsim::stream::analyze(&w.map, &FixedMapGen::typical(), &StreamConfig::default());
        let all = [1.0 / t1, smp8, cell, gpu, sr.fps];
        let rt = all.iter().filter(|f| **f >= 30.0).count();
        table.row(vec![
            res.name.to_string(),
            f1(1.0 / t1),
            f1(smp8),
            f1(cell),
            f1(gpu),
            f1(sr.fps),
            format!("{rt}/5"),
        ]);
    }
    table.note("host measured on this machine; smp8 modeled from calibrated roofline; cell/gpu/stream modeled platforms");
    table.note("expected shape: accelerators sustain real-time HD; a single host thread does not at 1080p-class sizes");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_platform_ordering() {
        let _serial = crate::experiments::serialize();
        let t = run(Scale::Quick);
        for r in &t.rows {
            let host: f64 = r[1].parse().unwrap();
            let smp: f64 = r[2].parse().unwrap();
            let cell: f64 = r[3].parse().unwrap();
            let gpu: f64 = r[4].parse().unwrap();
            assert!(smp > host, "{}: smp {smp} vs host {host}", r[0]);
            assert!(cell > host, "{}: cell {cell} vs host {host}", r[0]);
            assert!(gpu > host, "{}: gpu {gpu} vs host {host}", r[0]);
        }
    }
}
