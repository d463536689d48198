//! The metric vocabulary and the output lines.
//!
//! A run prints a human-readable summary on stderr, then two lines on
//! stdout: a `{"detail": ...}` line (host record, percentiles with
//! their sample counts, exact counts, input fingerprints) and, last,
//! the result line `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are [`END_TO_END`], with `--trace 1`
//! [`PER_LAYER`]; every name is printed on every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fisheye_core::engine::FrameReport;

use crate::stats::{Timeline, Windows};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("fps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("switch_p50_ms", "ms"),
    ("switch_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. A layer a
/// workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.submit_us", "us"),
    ("wire.submit_encode_us", "us"),
    ("wire.submit_decode_us", "us"),
    ("wire.done_encode_us", "us"),
    ("wire.done_decode_us", "us"),
    ("wire.bytes_per_frame", "bytes"),
    ("shard.residual_p50_us", "us"),
    ("shard.residual_p90_us", "us"),
    ("server.turnaround_p50_us", "us"),
    ("server.turnaround_p90_us", "us"),
    ("server.pump_us", "us"),
    ("server.self_us", "us"),
    ("server.allocs_per_frame", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.resident_mib", "MiB"),
    ("cache.switch_hit_us", "us"),
    ("plan.switch_miss_ms", "ms"),
    ("plan.compiles", "count"),
    ("plan.delta_recompiles", "count"),
    ("plan.map_ms", "ms"),
    ("plan.recompile_ms", "ms"),
    ("engine.correct_us", "us"),
    ("engine.mpix_s", "Mpx/s"),
    ("engine.gbps", "GB/s"),
    ("frame.luma_us", "us"),
    ("frame.chroma_us", "us"),
    ("frame.dispatch_us", "us"),
    ("composite.pump_ms", "ms"),
    ("composite.nudge_ms", "ms"),
    ("client.self_share", "ratio"),
    ("wire.self_share", "ratio"),
    ("shard.self_share", "ratio"),
    ("server.self_share", "ratio"),
    ("cache.self_share", "ratio"),
    ("plan.self_share", "ratio"),
    ("engine.self_share", "ratio"),
    ("frame.self_share", "ratio"),
    ("composite.self_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
    ("host.copy_l3_gbps", "GB/s"),
    ("host.copy_dram_gbps", "GB/s"),
];

/// Computed bytes per output pixel of a `u8` bilinear gather: two f32
/// coordinates, four taps and the output byte.
pub const GATHER_BYTES_PER_PX: f64 = 8.0 + 4.0 + 1.0;

/// A timed phase's windows for the detail line: each one's rate and
/// latency p50 and p90, the share of the CPU time the guest wanted
/// that the host stole while it lasted, and whether the end-to-end
/// figures were read from it.
pub fn windows_detail(
    latency_ms: &Timeline,
    win: Windows,
    rates: &[f64],
    stolen: &[f64],
    keep: &[bool],
) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    Json::obj([
        ("rate", nums(rates)),
        ("p50_ms", nums(&latency_ms.window_quantiles(win, 0.5))),
        ("p90_ms", nums(&latency_ms.window_quantiles(win, 0.9))),
        ("stolen", nums(stolen)),
        (
            "kept",
            Json::Arr(keep.iter().map(|&k| Json::from(k)).collect()),
        ),
    ])
}

/// The per-layer metric `<layer>.self_share`.
pub fn share_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_suffix(".self_share") == Some(layer))
        .expect("every layer has a share metric")
}

/// Engine and frame-layer times of one served frame's report, µs.
pub struct Times {
    /// Summed plane kernels (the report's `correct_time`).
    pub kernel: f64,
    /// The frame layer's wall time: `frame_wall_ms`, or the kernel for a
    /// single gray plane, which goes straight to its one kernel.
    pub wall: f64,
    /// Kernel time on the wall clock: with planes running concurrently
    /// on two or more workers, the luma plane beside the two chroma
    /// planes; otherwise every kernel in turn.
    pub critical: f64,
    /// Luma and summed chroma kernels, for a multi-plane frame.
    pub planes: Option<(f64, f64)>,
}

/// Read [`Times`] from `report`; `workers` is the plane pool's size.
pub fn report_times(report: &FrameReport, workers: usize) -> Times {
    let kernel = report.correct_time.as_secs_f64() * 1e6;
    let us = |k: &str| report.model.get(k).map(|ms| ms * 1e3);
    match us("frame_wall_ms") {
        Some(wall) => {
            let luma = us("y.correct_ms").unwrap_or(0.0);
            let chroma = us("cb.correct_ms").unwrap_or(0.0) + us("cr.correct_ms").unwrap_or(0.0);
            let concurrent = report.model.get("plane_concurrent") == Some(&1.0) && workers >= 2;
            Times {
                kernel,
                wall,
                critical: if concurrent { luma.max(chroma) } else { kernel },
                planes: Some((luma, chroma)),
            }
        }
        None => Times {
            kernel,
            wall: kernel,
            critical: kernel,
            planes: None,
        },
    }
}

/// A minimal JSON value: enough for the two output lines.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Num(f64),
    Int(i128),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i128::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            // Rust's shortest round-trip form keeps every digit; a
            // non-finite value has no JSON spelling and would be a bug
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) | Json::Null => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every operation attempted: frames submitted plus view and rig
    /// switches.
    pub attempted: u64,
    /// Operations that were shed, lost, errored or failed their output
    /// check.
    pub failed: u64,
    /// Conservation and other invariants that are not per-operation.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub detail: Vec<(String, Json)>,
}

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// Record one stream's frame conservation: every submitted frame
    /// was delivered, shed or lost.
    pub fn conserve(&mut self, stream: &str, submitted: u64, done: u64, shed: u64, lost: u64) {
        if submitted != done + shed + lost {
            self.violations.push(format!(
                "{stream}: submitted {submitted} != done {done} + shed {shed} + lost {lost}"
            ));
        }
    }

    /// The result line for `table`. Panics if a workload forgot a
    /// metric: that is a bug in this benchmark, not in the program.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics = table.iter().map(|&(name, unit)| {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not set metric {name}"));
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        });
        Json::obj([
            (
                "correct",
                Json::from(self.failed == 0 && self.violations.is_empty()),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }
}
