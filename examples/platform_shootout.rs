//! Platform shootout: run the same frame through every platform —
//! host serial, host multicore, Cell/B.E. model, GPU model, streaming
//! accelerator model — and print a comparison, verifying that all
//! functional paths agree.
//!
//! ```sh
//! cargo run --release --example platform_shootout
//! ```

use fisheye::cell::{CellConfig, CellRunner};
use fisheye::core::correct_fixed;
use fisheye::gpu::{GpuConfig, GpuRunner};
use fisheye::prelude::*;
use fisheye::stream::{FixedMapGen, StreamConfig};

fn main() {
    let (w, h) = (640u32, 480u32);
    let lens = FisheyeLens::equidistant_fov(w, h, 180.0);
    let view = PerspectiveView::centered(w, h, 90.0);
    let frame = fisheye::img::scene::random_gray(w, h, 42);
    let map = RemapMap::build(&lens, &view, w, h);
    let fmap = map.to_fixed(12);
    println!(
        "workload: {w}x{h}, bilinear, LUT {} KB\n",
        map.bytes() / 1024
    );

    // host serial (measured)
    let serial = Corrector::builder()
        .lens(lens)
        .view(view)
        .backend(EngineSpec::Serial)
        .build()
        .unwrap();
    let (host_out, sr) = serial.correct(&frame).unwrap();
    println!(
        "host 1 thread   : {:7.1} fps  (measured)",
        1.0 / sr.correct_time.as_secs_f64()
    );

    // host multicore (measured; flat on single-core machines)
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let smp = Corrector::builder()
        .lens(lens)
        .view(view)
        .backend(EngineSpec::Smp {
            schedule: Schedule::Static { chunk: None },
        })
        .threads(threads)
        .build()
        .unwrap();
    let (par_out, pr) = smp.correct(&frame).unwrap();
    println!(
        "host {threads} threads  : {:7.1} fps  (measured)",
        1.0 / pr.correct_time.as_secs_f64()
    );
    assert_eq!(host_out, par_out, "parallel output must be bit-exact");

    // Cell/B.E. (modeled)
    let plan = TilePlan::build(&map, 64, 32);
    let cell = CellRunner::new(CellConfig::default());
    let (cell_out, cr) = cell.correct_frame(&frame, &fmap, &plan).unwrap();
    println!(
        "cell 6 SPEs     : {:7.1} fps  (modeled; {:.1} MB DMA/frame, compute/DMA {:.1})",
        cr.fps,
        (cr.dma.bytes_in + cr.dma.bytes_out) as f64 / 1e6,
        cr.compute_to_dma()
    );
    assert_eq!(
        cell_out,
        correct_fixed(&frame, &fmap),
        "cell output must match the host fixed path"
    );

    // GPU (modeled)
    let gpu = GpuRunner::new(GpuConfig::default());
    let (gpu_out, gr) = gpu.correct_frame(&frame, &map, Interpolator::Bilinear);
    println!(
        "gpu 30 SMs      : {:7.1} fps  (modeled; tex hit rate {:.0}%, {})",
        gr.fps,
        gr.cache_hit_rate * 100.0,
        if gr.memory_bound {
            "memory-bound"
        } else {
            "compute-bound"
        }
    );
    assert_eq!(gpu_out, host_out, "gpu output must be bit-exact vs host");

    // streaming accelerator (modeled)
    let gen = FixedMapGen::typical();
    let sr = fisheye::stream::stream::analyze(&map, &gen, &StreamConfig::default());
    println!(
        "stream @150 MHz : {:7.1} fps  (modeled; {} line-buffer rows, {} DSPs, {} KB BRAM, feasible: {})",
        sr.fps,
        sr.line_buffers.max_rows_needed,
        sr.dsp_count,
        sr.bram_bytes / 1024,
        sr.feasible
    );

    println!("\nall functional outputs verified consistent");
}
