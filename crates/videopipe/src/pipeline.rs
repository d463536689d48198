//! The capture → correct → sink pipeline.
//!
//! Three stage groups connected by bounded queues:
//!
//! ```text
//! [capture thread] → q_in → [N corrector workers] → q_out → [sink]
//! ```
//!
//! All corrector workers share one immutable [`ViewPlan`] (one
//! compiled plan per plane class), so adding workers scales the
//! memory-bound phase-2 kernel exactly as the paper's multicore port
//! does — but across *frames* instead of rows (frame-level
//! parallelism, the natural choice for a pipeline). The plan is
//! compiled by the caller, once per view: workers do no quantization,
//! no span indexing, no per-map setup of any kind. A gray8 stream is
//! the one-plane case of the same path.
//!
//! Output planes come from an internal [`PlanePool`] primed with the
//! maximum number of frames that can be in flight at once, so the
//! steady-state per-frame path recycles every buffer: each worker
//! reuses planes the sink already released. The sink hands each
//! frame's [`PooledFrame`]s to `on_frame` *by value* — dropping them
//! returns the buffers to the pool (the zero-copy common case), while
//! [`PooledFrame::detach`] keeps an image and lets the pool replace
//! the buffer. The report carries the pool's hit/miss counters; a
//! steady-state run reports a 100 % hit rate.
//!
//! Per-frame latency is measured from capture to sink; the report
//! carries the distribution summary the F10 experiment prints.

use std::time::{Duration, Instant};

use fisheye_core::engine::{Capabilities, EngineSpec, FrameReport};
use fisheye_core::frame::{FrameCorrector, ViewPlan};
use fisheye_core::Interpolator;
use pixmap::{Gray8, PlanePool, PooledFrame};

use crate::channel::BoundedQueue;
use crate::source::{FramePacket, FrameSource};

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Corrector worker threads.
    pub workers: usize,
    /// Queue capacity between stages (frames in flight bound).
    pub queue_capacity: usize,
    /// Interpolation kernel.
    pub interp: Interpolator,
    /// Per-frame execution path inside each worker. Workers already
    /// provide the frame-level parallelism, so only the
    /// single-threaded LUT engines are valid here: `serial`, `fixed`
    /// and `simd` (the quantized LUT must already be in the plan —
    /// compile it with `PlanOptions::for_spec`).
    pub engine: EngineSpec,
    /// When `Some(cap)`, the sink reorders frames through a
    /// [`crate::Resequencer`] with that buffer capacity, delivering
    /// `on_frame` calls strictly in sequence (late frames are
    /// dropped and counted in [`PipeReport::dropped`]).
    pub resequence: Option<usize>,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            workers: 1,
            queue_capacity: 4,
            interp: Interpolator::Bilinear,
            engine: EngineSpec::Serial,
            resequence: None,
        }
    }
}

/// End-of-run measurements.
#[derive(Clone, Debug)]
pub struct PipeReport {
    /// Frames that reached the sink.
    pub frames: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// End-to-end throughput.
    pub fps: f64,
    /// Mean capture→sink latency.
    pub mean_latency: Duration,
    /// Median capture→sink latency.
    pub p50_latency: Duration,
    /// 95th-percentile capture→sink latency.
    pub p95_latency: Duration,
    /// Worst capture→sink latency.
    pub max_latency: Duration,
    /// Input-queue high-water mark (backlog indicator).
    pub in_queue_high_water: usize,
    /// Frames that arrived at the sink out of order (frame-parallel
    /// correction reorders; consumers needing order must resequence).
    pub out_of_order: u64,
    /// Frames dropped by the resequencer (0 when resequencing is off).
    pub dropped: u64,
    /// Total correction-kernel time summed over all sunk frames (CPU
    /// work, as opposed to the queue-inclusive latency percentiles).
    pub kernel_time: Duration,
    /// Output pixels with no valid source mapping, summed over all
    /// sunk frames.
    pub invalid_pixels: u64,
    /// Output-buffer acquisitions served by the frame pool's free
    /// list (no allocation).
    pub pool_hits: u64,
    /// Output-buffer acquisitions that had to allocate. The pool is
    /// primed for the maximum number of in-flight frames, so this
    /// stays 0 unless the sink detaches frames from the pool.
    pub pool_misses: u64,
    /// Per-plane kernel time summed over all sunk frames, labelled in
    /// plane order (`y` for gray8, `y`/`cb`/`cr`, `r`/`g`/`b`); the
    /// entries sum to [`kernel_time`](Self::kernel_time).
    pub plane_kernel: Vec<(String, Duration)>,
}

impl PipeReport {
    /// Mean per-frame kernel time (`Duration::ZERO` when no frames
    /// reached the sink, never a division by zero).
    pub fn kernel_per_frame(&self) -> Duration {
        if self.frames == 0 {
            Duration::ZERO
        } else {
            self.kernel_time / self.frames as u32
        }
    }

    /// Fraction of output buffers served without allocating, or 1.0
    /// for a run with no frames (nothing was ever requested).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// The capability gate for the worker pool. Workers run the engine's
/// host datapath concurrently over one shared plan, so admission is
/// exactly `spec.is_host() && supports_frame_concurrency` — derived
/// from the spec and [`EngineSpec::capabilities`], not an engine name
/// allow-list, so a new host engine that declares frame concurrency
/// is admitted without an edit here. Returns the capabilities so the
/// caller can apply the engine's LUT requirement to its plans.
fn check_worker_engine(spec: &EngineSpec, interp: Interpolator) -> Capabilities {
    let caps = spec.capabilities();
    assert!(
        spec.is_host() && caps.supports_frame_concurrency,
        "videopipe workers support engines that are host-executable \
         and frame-concurrent; '{}' is not",
        spec.name()
    );
    if let Some(locked) = caps.interp_locked {
        assert!(
            interp == locked,
            "the {} engine implements {} only",
            spec.name(),
            locked.name()
        );
    }
    caps
}

/// A corrected frame arriving at the sink.
struct CorrectedPlanes {
    seq: u64,
    captured_at: Instant,
    planes: Vec<PooledFrame<Gray8>>,
    kernel_time: Duration,
    plane_times: Vec<Duration>,
    invalid_pixels: u64,
}

/// Drive `source` through the correction pipeline to exhaustion and
/// return the measurements. Every worker owns a [`FrameCorrector`]
/// over the shared [`ViewPlan`], which corrects a frame's planes in
/// order on the worker's thread: the parallelism is across frames, one
/// per worker. Output planes come from a primed [`PlanePool`], and
/// `on_frame` is invoked at the sink for every corrected frame with
/// its pooled planes in plane order, **by value**: drop them to
/// recycle the buffers, or [`PooledFrame::detach`] one to keep the
/// image (pass `|_, _| {}` to discard). The report's
/// [`plane_kernel`](PipeReport::plane_kernel) carries per-plane kernel
/// time totals; [`kernel_time`](PipeReport::kernel_time) is their sum.
///
/// Panics if `config.engine` is not one of the worker-compatible
/// specs (see [`PipeConfig::engine`]), conflicts with the
/// interpolator, or needs a fixed-point LUT that some plane class's
/// plan was not compiled with — engine/plan compatibility is a
/// configuration error, caught before any thread starts.
pub fn run_frame_pipeline(
    mut source: Box<dyn FrameSource>,
    plan: &ViewPlan,
    config: PipeConfig,
    mut on_frame: impl FnMut(u64, Vec<PooledFrame<Gray8>>) + Send,
) -> PipeReport {
    assert!(config.workers >= 1, "need at least one worker");
    let format = source.format();
    let caps = check_worker_engine(&config.engine, config.interp);
    if let Some(frac_bits) = caps.requires_lut {
        for class_plan in plan.plans() {
            assert!(
                class_plan.fixed(frac_bits).is_some(),
                "a plane plan was not compiled with a {frac_bits}-bit LUT for engine \
                 '{}' — compile the ViewPlan with PlanOptions::for_spec",
                config.engine.name()
            );
        }
    }
    let labels = format.plane_labels();
    let q_in: BoundedQueue<FramePacket> = BoundedQueue::new(config.queue_capacity);
    let q_out: BoundedQueue<CorrectedPlanes> = BoundedQueue::new(config.queue_capacity);
    // one output frame per possible in-flight frame: q_out slots, one
    // per worker, the resequencer's window, one in the sink's hands —
    // primed up front, so the steady state only recycles
    let pool: PlanePool<Gray8> = PlanePool::new(&plan.plane_dims());
    pool.prime(config.queue_capacity + config.workers + config.resequence.unwrap_or(0) + 1);

    let started = Instant::now();
    let mut frames = 0u64;
    let mut latency = crate::latency::LatencyStats::new();
    let mut out_of_order = 0u64;
    let mut dropped = 0u64;
    let mut kernel_time = Duration::ZERO;
    let mut plane_times = vec![Duration::ZERO; labels.len()];
    let mut invalid_pixels = 0u64;
    let mut last_seq: Option<u64> = None;

    std::thread::scope(|s| {
        // capture stage
        let q_in_prod = q_in.clone();
        s.spawn(move || {
            while let Some(packet) = source.next_frame() {
                if q_in_prod.push(packet).is_err() {
                    break;
                }
            }
            q_in_prod.close();
        });
        // corrector workers — one frame corrector each over the shared
        // per-class plans
        let worker_handles: Vec<_> = (0..config.workers)
            .map(|_| {
                let q_in = q_in.clone();
                let q_out = q_out.clone();
                let pool = pool.clone();
                let interp = config.interp;
                let spec = config.engine;
                let plan = plan.clone();
                s.spawn(move || {
                    let fc = FrameCorrector::host(format, plan, &spec, interp, 1)
                        .expect("engine validated before workers started");
                    while let Some(packet) = q_in.pop() {
                        let mut planes = pool.acquire();
                        let report = fc
                            .correct_u8_planes_into(&packet.frame, &mut planes)
                            .expect("engine validated before workers started");
                        let done = CorrectedPlanes {
                            seq: packet.seq,
                            captured_at: packet.captured_at,
                            planes,
                            kernel_time: report.correct_time,
                            plane_times: per_plane_times(&report, labels),
                            invalid_pixels: report.invalid_pixels,
                        };
                        if q_out.push(done).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        // closer: when all workers exit, close the output queue
        {
            let q_out = q_out.clone();
            s.spawn(move || {
                for h in worker_handles {
                    let _ = h.join();
                }
                q_out.close();
            });
        }
        // sink (this thread)
        let mut reseq = config
            .resequence
            .map(crate::resequencer::Resequencer::<CorrectedPlanes>::new);
        while let Some(done) = q_out.pop() {
            latency.record(done.captured_at.elapsed());
            kernel_time += done.kernel_time;
            for (acc, t) in plane_times.iter_mut().zip(&done.plane_times) {
                *acc += *t;
            }
            invalid_pixels += done.invalid_pixels;
            if let Some(prev) = last_seq {
                if done.seq < prev {
                    out_of_order += 1;
                }
            }
            last_seq = Some(done.seq.max(last_seq.unwrap_or(0)));
            match reseq.as_mut() {
                Some(r) => {
                    for (seq, f) in r.push(done.seq, done) {
                        on_frame(seq, f.planes);
                        frames += 1;
                    }
                }
                None => {
                    on_frame(done.seq, done.planes);
                    frames += 1;
                }
            }
        }
        if let Some(r) = reseq.as_mut() {
            for (seq, f) in r.flush() {
                on_frame(seq, f.planes);
                frames += 1;
            }
            dropped = r.dropped();
        }
    });

    let elapsed = started.elapsed();
    PipeReport {
        frames,
        elapsed,
        fps: if elapsed.as_secs_f64() > 0.0 {
            frames as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        mean_latency: latency.mean(),
        p50_latency: latency.percentile(0.5),
        p95_latency: latency.percentile(0.95),
        max_latency: latency.max(),
        in_queue_high_water: q_in.high_water(),
        out_of_order,
        dropped,
        kernel_time,
        invalid_pixels,
        pool_hits: pool.hits(),
        pool_misses: pool.misses(),
        plane_kernel: labels
            .iter()
            .map(|l| l.to_string())
            .zip(plane_times)
            .collect(),
    }
}

/// Per-plane kernel times of one frame's report, in plane order: a
/// single-plane report is the engine's own, whose kernel time is the
/// plane's; a merged report carries each plane's under its label.
fn per_plane_times(report: &FrameReport, labels: &[&str]) -> Vec<Duration> {
    if let [_] = labels {
        return vec![report.correct_time];
    }
    labels
        .iter()
        .map(|label| {
            let ms = report
                .model
                .get(&format!("{label}.correct_ms"))
                .copied()
                .unwrap_or(0.0);
            Duration::from_secs_f64(ms / 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CycledFrames, ShiftVideo};
    use fisheye_core::frame::{Frame, FrameFormat};
    use fisheye_core::plan::PlanOptions;
    use fisheye_core::{correct, correct_fixed, correct_plan};
    use fisheye_geom::{FisheyeLens, PerspectiveView};
    use pixmap::scene::random_gray;
    use pixmap::yuv::Yuv420;
    use pixmap::Image;

    fn test_plan_in(format: FrameFormat, spec: &EngineSpec) -> ViewPlan {
        let lens = FisheyeLens::equidistant_fov(128, 96, 180.0);
        let view = PerspectiveView::centered(64, 48, 90.0);
        ViewPlan::compile(
            format,
            &lens,
            &view,
            128,
            96,
            &PlanOptions::for_spec(spec, Interpolator::Bilinear),
        )
    }

    /// The gray8 serial-engine plan most tests run.
    fn test_plan() -> ViewPlan {
        test_plan_in(FrameFormat::Gray8, &EngineSpec::Serial)
    }

    fn yuv_frame(seed: u64) -> Frame {
        Frame::Yuv420(Yuv420 {
            y: random_gray(128, 96, seed),
            cb: random_gray(64, 48, seed + 100),
            cr: random_gray(64, 48, seed + 200),
        })
    }

    /// `total` frames of a gray8 capture panning `step` px per frame.
    fn gray_video(seed: u64, step: u32, total: u64) -> Box<dyn FrameSource> {
        Box::new(ShiftVideo::new(random_gray(128, 96, seed), step, total))
    }

    /// `total` frames in `format`: a panning gray8 capture, or two
    /// cycled yuv420 captures.
    fn video(format: FrameFormat, seed: u64, total: u64) -> Box<dyn FrameSource> {
        match format {
            FrameFormat::Gray8 => gray_video(seed, 1, total),
            _ => Box::new(CycledFrames::new(
                vec![yuv_frame(seed), yuv_frame(seed + 1)],
                total,
            )),
        }
    }

    fn detach_all(planes: Vec<PooledFrame<Gray8>>) -> Vec<Image<Gray8>> {
        planes.into_iter().map(|p| p.detach()).collect()
    }

    #[test]
    fn all_frames_reach_sink() {
        let plan = test_plan();
        let mut seen = Vec::new();
        let report = run_frame_pipeline(
            gray_video(1, 2, 25),
            &plan,
            PipeConfig::default(),
            |seq, planes| {
                assert_eq!(planes.len(), 1, "gray8 is one plane");
                assert_eq!(planes[0].dims(), (64, 48));
                seen.push(seq);
            },
        );
        assert_eq!(report.frames, 25);
        seen.sort_unstable();
        let expect: Vec<u64> = (0..25).collect();
        assert_eq!(seen, expect);
        assert!(report.fps > 0.0);
        assert!(report.mean_latency <= report.max_latency);
    }

    #[test]
    fn single_worker_preserves_order() {
        let plan = test_plan();
        let report = run_frame_pipeline(
            gray_video(2, 1, 15),
            &plan,
            PipeConfig::default(),
            |_, _| {},
        );
        assert_eq!(report.out_of_order, 0);
    }

    #[test]
    fn multiple_workers_process_everything() {
        let plan = test_plan();
        let config = PipeConfig {
            workers: 4,
            ..Default::default()
        };
        let mut count = 0u64;
        let report = run_frame_pipeline(gray_video(3, 1, 40), &plan, config, |_, _| count += 1);
        assert_eq!(report.frames, 40);
        assert_eq!(count, 40);
    }

    #[test]
    fn output_matches_offline_correction() {
        let plan = test_plan();
        let base = random_gray(128, 96, 4);
        let src = Box::new(ShiftVideo::new(base.clone(), 0, 1));
        let mut got = None;
        let _ = run_frame_pipeline(src, &plan, PipeConfig::default(), |_, planes| {
            got = Some(detach_all(planes));
        });
        let expect = correct(&base, plan.full().map(), Interpolator::Bilinear);
        assert_eq!(got.unwrap(), vec![expect]);
    }

    /// Frames dropped at the sink go straight back to the pool: after
    /// the primed warmup, no acquisition ever allocates.
    fn assert_steady_state_recycles(format: FrameFormat, frames: u64, planes: u64) {
        let plan = test_plan_in(format, &EngineSpec::Serial);
        let config = PipeConfig {
            workers: 4,
            ..Default::default()
        };
        let report = run_frame_pipeline(video(format, 31, frames), &plan, config, |_, _| {});
        assert_eq!(report.frames, frames);
        assert_eq!(report.pool_misses, 0, "steady state must never allocate");
        assert_eq!(
            report.pool_hits,
            frames * planes,
            "one plane buffer per plane per frame"
        );
        assert!((report.pool_hit_rate() - 1.0).abs() < 1e-12);
        assert!(report.kernel_time > Duration::ZERO);
        assert_eq!(report.plane_kernel.len() as u64, planes);
        let plane_sum: Duration = report.plane_kernel.iter().map(|(_, t)| *t).sum();
        assert!(
            plane_sum <= report.kernel_time * 2 && plane_sum * 2 >= report.kernel_time,
            "per-plane kernel times sum to the same order as the total \
             ({plane_sum:?} vs {:?})",
            report.kernel_time
        );
    }

    #[test]
    fn steady_state_recycles_every_output_buffer() {
        assert_steady_state_recycles(FrameFormat::Gray8, 60, 1);
    }

    #[test]
    fn frame_pipeline_steady_state_recycles_every_plane() {
        assert_steady_state_recycles(FrameFormat::Yuv420, 40, 3);
    }

    #[test]
    fn empty_source_yields_empty_report() {
        let plan = test_plan();
        let report =
            run_frame_pipeline(gray_video(5, 1, 0), &plan, PipeConfig::default(), |_, _| {});
        assert_eq!(report.frames, 0);
        assert_eq!(report.fps, 0.0);
        assert_eq!(report.mean_latency, Duration::ZERO);
        assert_eq!(report.pool_hit_rate(), 1.0);
    }

    /// With a resequencing window deeper than the stream, frames reach
    /// the sink strictly in order and none is dropped. (A shallower
    /// window can drop a frame by design: with more workers than
    /// cores, one worker can be descheduled while the others finish
    /// more frames than the window holds.)
    fn assert_resequenced(
        format: FrameFormat,
        engine: EngineSpec,
        seed: u64,
        frames: u64,
        window: usize,
    ) {
        let plan = test_plan_in(format, &engine);
        let config = PipeConfig {
            workers: 4,
            engine,
            resequence: Some(window),
            ..Default::default()
        };
        let mut seqs = Vec::new();
        let report = run_frame_pipeline(video(format, seed, frames), &plan, config, |seq, _| {
            seqs.push(seq)
        });
        let expect: Vec<u64> = (0..report.frames).collect();
        assert_eq!(seqs, expect);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.frames, frames);
    }

    #[test]
    fn resequencer_restores_order_with_many_workers() {
        assert_resequenced(FrameFormat::Gray8, EngineSpec::Serial, 7, 50, 64);
    }

    #[test]
    fn frame_pipeline_resequences_in_order() {
        assert_resequenced(FrameFormat::Yuv420, EngineSpec::Simd, 41, 30, 32);
    }

    /// A 12-bit fixed-point worker pool reproduces the offline fixed
    /// reference, which requantizes each plane's map afresh.
    fn assert_fixed_matches_offline(frame: Frame) {
        let spec = EngineSpec::FixedPoint { frac_bits: 12 };
        let plan = test_plan_in(frame.format(), &spec);
        let expect: Vec<_> = frame
            .planes()
            .iter()
            .enumerate()
            .map(|(i, src)| correct_fixed(src, &plan.plane_plan(i).map().to_fixed(12)))
            .collect();
        let src = Box::new(CycledFrames::new(vec![frame], 1));
        let config = PipeConfig {
            engine: spec,
            ..Default::default()
        };
        let mut got = None;
        let report = run_frame_pipeline(src, &plan, config, |_, planes| {
            got = Some(detach_all(planes));
        });
        assert_eq!(got.unwrap(), expect);
        assert!(report.kernel_time > Duration::ZERO);
        assert_eq!(report.kernel_per_frame(), report.kernel_time);
    }

    #[test]
    fn fixed_engine_matches_offline_fixed_reference() {
        assert_fixed_matches_offline(Frame::Gray8(random_gray(128, 96, 8)));
    }

    #[test]
    fn frame_pipeline_fixed_engine_matches_offline() {
        assert_fixed_matches_offline(yuv_frame(51));
    }

    #[test]
    fn simd_engine_matches_serial_through_pipeline() {
        let plan = test_plan();
        let base = random_gray(128, 96, 9);
        let src = Box::new(ShiftVideo::new(base.clone(), 0, 1));
        let config = PipeConfig {
            engine: EngineSpec::Simd,
            workers: 2,
            ..Default::default()
        };
        let mut got = None;
        let _ = run_frame_pipeline(src, &plan, config, |_, planes| {
            got = Some(detach_all(planes));
        });
        assert_eq!(
            got.unwrap(),
            vec![correct(&base, plan.full().map(), Interpolator::Bilinear)]
        );
    }

    #[test]
    fn registry_admission_follows_capabilities() {
        // The worker-pool gate is host + frame concurrency, not an
        // engine allow-list: walking the whole registry, every host
        // spec whose capabilities say frame-concurrent runs frames,
        // and every other spec panics up front with the admission
        // message. A new engine is admitted (or refused) here purely
        // by what it declares.
        for spec in EngineSpec::registry() {
            let admitted = spec.is_host() && spec.capabilities().supports_frame_concurrency;
            let name = spec.name();
            let outcome = std::panic::catch_unwind(|| {
                let plan = test_plan_in(FrameFormat::Gray8, &spec);
                let config = PipeConfig {
                    engine: spec,
                    ..Default::default()
                };
                run_frame_pipeline(gray_video(21, 1, 2), &plan, config, |_, _| {}).frames
            });
            match outcome {
                Ok(frames) => {
                    assert!(admitted, "{name}: capabilities say reject, pipeline ran");
                    assert_eq!(frames, 2, "{name}");
                }
                Err(payload) => {
                    assert!(
                        !admitted,
                        "{name}: capabilities say admit, pipeline panicked"
                    );
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        msg.contains("videopipe workers support engines"),
                        "{name}: unexpected panic: {msg}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "videopipe workers support engines")]
    fn accelerator_engine_rejected_up_front() {
        let plan = test_plan();
        let config = PipeConfig {
            engine: EngineSpec::parse("gpu").unwrap(),
            ..Default::default()
        };
        let _ = run_frame_pipeline(gray_video(10, 1, 3), &plan, config, |_, _| {});
    }

    /// A fixed-point worker pool on plans compiled for the serial
    /// engine only is a configuration error, not a silent per-frame
    /// requantization on every worker.
    fn run_fixed_on_serial_plan(format: FrameFormat, seed: u64) {
        let plan = test_plan_in(format, &EngineSpec::Serial);
        let config = PipeConfig {
            engine: EngineSpec::FixedPoint { frac_bits: 12 },
            ..Default::default()
        };
        let _ = run_frame_pipeline(video(format, seed, 3), &plan, config, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "a plane plan was not compiled with a 12-bit LUT")]
    fn fixed_engine_without_plan_lut_rejected_up_front() {
        run_fixed_on_serial_plan(FrameFormat::Gray8, 12);
    }

    #[test]
    #[should_panic(expected = "a plane plan was not compiled with a 12-bit LUT")]
    fn frame_pipeline_fixed_without_lut_rejected_up_front() {
        run_fixed_on_serial_plan(FrameFormat::Yuv420, 61);
    }

    #[test]
    fn yuv_frames_reach_sink_and_match_offline() {
        let plan = test_plan_in(FrameFormat::Yuv420, &EngineSpec::Serial);
        let frame = yuv_frame(21);
        let srcs = frame.planes();
        let expect: Vec<_> = srcs
            .iter()
            .enumerate()
            .map(|(i, src)| correct_plan(src, plan.plane_plan(i), Interpolator::Bilinear))
            .collect();
        let src = Box::new(CycledFrames::new(vec![frame.clone()], 1));
        let mut got = None;
        let report = run_frame_pipeline(src, &plan, PipeConfig::default(), |_, planes| {
            got = Some(detach_all(planes));
        });
        let got = got.unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].dims(), (64, 48), "luma at full view resolution");
        assert_eq!(got[1].dims(), (32, 24), "chroma at half resolution");
        assert_eq!(got, expect, "pipeline output matches offline per-plane");
        assert_eq!(report.frames, 1);
        let labels: Vec<&str> = report
            .plane_kernel
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, ["y", "cb", "cr"]);
    }

    #[test]
    fn backpressure_bounds_queue() {
        let plan = test_plan();
        let config = PipeConfig {
            queue_capacity: 2,
            ..Default::default()
        };
        let report = run_frame_pipeline(gray_video(6, 1, 30), &plan, config, |_, _| {});
        assert!(report.in_queue_high_water <= 2);
        assert_eq!(report.frames, 30);
    }
}
