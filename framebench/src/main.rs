//! Frame-journey benchmark for the fisheye serving stack.
//!
//! ```text
//! framebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (all closed loops, inputs generated from `--seed`):
//! * `thumb_gray8` — two loopback streams of 160×120 gray8 frames to a
//!   64×48 view on `simd`;
//! * `hd_yuv420` — two loopback streams of 1920×1080 yuv420 frames to a
//!   960×540 view on `simd`. `BENCHMARK.json` does not list it: on a
//!   shared 2-vCPU host its memory-bound gather follows the state of
//!   the host, and back-to-back runs came out up to 2.4× apart with no
//!   CPU time stolen, so no bound a regression gate can use holds;
//! * `console_churn` — an in-process console of 26 sessions on one
//!   worker thread with preset switches, a panning PTZ view and a
//!   nudged panorama.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced phases and prints the per-layer metrics.
//! Every run checks served frames against independent references and
//! prints `correct: false` on any mismatch, loss or shed frame.

mod alloc;
mod check;
mod console;
mod host;
mod loopback;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{Json, RunOutput, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: framebench --workload <thumb_gray8|hd_yuv420|console_churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Write the traced run's spans under `.framebench/` in the working
/// directory.
pub fn write_spans(trace: &trace::Trace, workload: &str, seed: u64) -> Result<(), String> {
    let path =
        std::path::Path::new(".framebench").join(format!("{workload}-seed{seed}.spans.jsonl"));
    trace
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<RunOutput, String> {
    match args.workload.as_str() {
        "thumb_gray8" => loopback::run(&loopback::THUMB, args),
        "hd_yuv420" => loopback::run(&loopback::HD, args),
        "console_churn" => console::run(args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("ruler") {
        host::ruler_main();
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("framebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for v in &out.violations {
        eprintln!("violation: {v}");
    }
    for &(name, unit) in table {
        eprintln!(
            "{name:>28} {:>14.6} {unit}",
            out.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    let (l3, dram) = host::ruler_sizes();
    let mut detail = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::from(args.seconds)),
        ("trace".to_string(), Json::from(args.trace)),
        ("host".to_string(), host::record()),
        (
            "ruler_array_bytes".to_string(),
            Json::obj([
                ("l3", Json::from(l3 as u64)),
                ("dram", Json::from(dram as u64)),
            ]),
        ),
        (
            "violations".to_string(),
            Json::Arr(
                out.violations
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect(),
            ),
        ),
    ];
    detail.extend(out.detail.iter().cloned());
    println!("{}", Json::obj([("detail", Json::Obj(detail))]).to_line());
    println!("{}", out.result_line(table));
    ExitCode::SUCCESS
}
