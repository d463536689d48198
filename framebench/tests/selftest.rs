//! Self-test of the benchmark: short runs of every workload, checking
//! that
//! * every metric `BENCHMARK.json` names is printed with its unit;
//! * every count repeats exactly for the same seed (cache hits, misses
//!   and evictions, delta recompiles, allocations per frame, bytes per
//!   frame);
//! * another seed gives other views, pans and frame contents;
//! * the traced run reports `trace.unaccounted_frac`;
//! * every run's outputs pass their checks.
//!
//! Run with `cargo test --release --offline` in this directory.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough for the benchmark's output).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m
                .get(key)
                .unwrap_or_else(|| panic!("no key {key} in {self:?}")),
            _ => panic!("{key}: not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    m.insert(k, v);
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                    out.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // copy one UTF-8 sequence
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    Parser::parse(&text)
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    Parser::parse(&text)
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

/// One run: `(detail, result)` from its last two stdout lines.
fn run(workload: &str, seed: u64, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_framebench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a detail and a result line"
    );
    let detail = Parser::parse(lines[lines.len() - 2]).get("detail").clone();
    let result = Parser::parse(lines[lines.len() - 1]);
    let Json::Obj(top) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload} seed {seed}: {detail:?}"
    );
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    (detail, result)
}

/// Every declared metric is printed, with its declared unit.
fn check_metrics(workload: &str, result: &Json, table: &[(String, String)]) {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), table.len(), "{workload}: metric count");
    for (name, unit) in table {
        let m = result.get("metrics").get(name);
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(
            m.get("value").num().is_finite(),
            "{workload}: {name} is not finite"
        );
    }
}

const COUNTS: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "plan.delta_recompiles",
    "server.allocs_per_frame",
    "wire.bytes_per_frame",
];

#[test]
fn every_workload_prints_its_metrics_repeats_its_counts_and_follows_its_seed() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(layers.iter().any(|(n, _)| n == "trace.unaccounted_frac"));
    for workload in workloads() {
        let (_, untraced) = run(&workload, 7, false);
        check_metrics(&workload, &untraced, &e2e);

        let (detail_a, a) = run(&workload, 7, true);
        let (_, b) = run(&workload, 7, true);
        let (detail_c, _) = run(&workload, 8, true);
        check_metrics(&workload, &a, &layers);
        let value = |r: &Json, name: &str| r.get("metrics").get(name).get("value").num();
        for count in COUNTS {
            assert_eq!(
                value(&a, count),
                value(&b, count),
                "{workload}: {count} differs for one seed"
            );
        }
        let unaccounted = value(&a, "trace.unaccounted_frac");
        assert!(
            (0.0..=1.0).contains(&unaccounted),
            "{workload}: unaccounted {unaccounted}"
        );
        for input in ["views", "frames"] {
            assert_ne!(
                detail_a.get("inputs").get(input),
                detail_c.get("inputs").get(input),
                "{workload}: seeds 7 and 8 gave the same {input}"
            );
        }
    }
}
