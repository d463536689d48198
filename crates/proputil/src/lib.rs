//! # proputil — a small, dependency-free property-test harness
//!
//! The workspace's invariants ("every schedule covers each index
//! exactly once", "codecs round-trip arbitrary images", "fixed-point
//! error stays within quantization bounds") are property tests. The
//! external `proptest` crate served this role in early revisions; it
//! was replaced by this ~300-line harness so the workspace builds with
//! zero external crates and zero network (DESIGN.md §5).
//!
//! The model is deliberately simple:
//!
//! * every test case is driven by a deterministic PRNG seeded from a
//!   per-test base seed and the case index;
//! * each case *records* the raw 64-bit draws it makes, so a failure
//!   can be **shrunk** by rewriting individual draws (toward zero, by
//!   halving) and replaying the case — "shrinking-lite";
//! * the minimal failing case is reported together with the base seed
//!   and case index so the failure replays exactly with
//!   `PROPUTIL_SEED=<seed> PROPUTIL_CASE=<index>`.
//!
//! ```
//! proputil::check("addition_commutes", 64, |g| {
//!     let a = g.i64_in(-1000, 1000);
//!     let b = g.i64_in(-1000, 1000);
//!     proputil::ensure!(a + b == b + a, "{a} + {b}");
//!     Ok(())
//! });
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64 step — the seeding hash (also used to decorrelate the
/// per-case streams).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The case generator handed to a property closure.
///
/// All values derive from raw `u64` draws, and every draw is recorded;
/// during shrinking the recorded tape is edited and replayed, which is
/// what lets the harness shrink *through* arbitrary derived types
/// without per-type shrinkers.
pub struct Gen {
    state: [u64; 4],
    /// Raw draws made so far in this case (the shrink tape).
    tape: Vec<u64>,
    /// When replaying, draws come from here first.
    replay: Vec<u64>,
    cursor: usize,
}

impl Gen {
    /// A generator seeded for one case (xoshiro256++ state filled via
    /// SplitMix64, per Blackman & Vigna's recommendation).
    pub fn from_seed(seed: u64) -> Gen {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Gen {
            state,
            tape: Vec::new(),
            replay: Vec::new(),
            cursor: 0,
        }
    }

    fn with_replay(seed: u64, replay: Vec<u64>) -> Gen {
        let mut g = Gen::from_seed(seed);
        g.replay = replay;
        g
    }

    #[inline]
    fn raw_next(&mut self) -> u64 {
        // xoshiro256++ (public domain reference algorithm)
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draw a raw `u64` (recorded on the shrink tape).
    pub fn next_u64(&mut self) -> u64 {
        let v = if self.cursor < self.replay.len() {
            self.replay[self.cursor]
        } else {
            self.raw_next()
        };
        self.cursor += 1;
        self.tape.push(v);
        v
    }

    /// Uniform `u64` in `[lo, hi]` (inclusive; shrinks toward `lo`).
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64() % (span + 1)
    }

    /// Uniform `usize` in `[lo, hi)` (half-open like a Rust range).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in: empty range");
        self.u64_in(lo as u64, hi as u64 - 1) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "u32_in: empty range");
        self.u64_in(lo as u64, hi as u64 - 1) as u32
    }

    /// Uniform `i64` in `[lo, hi)` (shrinks toward `lo`).
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "i64_in: empty range");
        let span = (hi - 1).wrapping_sub(lo) as u64;
        lo.wrapping_add(self.u64_in(0, span) as i64)
    }

    /// Uniform `f64` in `[lo, hi)` (shrinks toward `lo`).
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "f64_in: empty range");
        // 53 significant bits, exactly representable increments
        let frac = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + frac * (hi - lo)
    }

    /// A full-range byte.
    pub fn u8_any(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A full-range `u64`.
    pub fn u64_any(&mut self) -> u64 {
        self.next_u64()
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Pick one element of a non-empty slice (shrinks toward index 0).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick: empty slice");
        &items[self.usize_in(0, items.len())]
    }
}

/// Outcome of one property closure: `Ok(())` on success, `Err(msg)`
/// (usually via [`ensure!`]) on failure. Panics inside the closure are
/// caught and treated as failures too, so plain `assert!` also works.
pub type CaseResult = Result<(), String>;

fn run_once<F>(f: &F, seed: u64, replay: Vec<u64>) -> (Result<(), String>, Vec<u64>)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    let mut g = Gen::with_replay(seed, replay);
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut g)));
    let tape = std::mem::take(&mut g.tape);
    let res = match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(msg)) => Err(msg),
        Err(p) => Err(panic_message(p)),
    };
    (res, tape)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Shrink a failing tape by repeatedly halving / zeroing individual
/// draws while the failure persists. Returns the smallest failing tape
/// found and its failure message.
fn shrink<F>(f: &F, seed: u64, mut tape: Vec<u64>, mut msg: String) -> (Vec<u64>, String)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    let mut budget = 500usize; // hard cap on replay attempts
    let mut improved = true;
    while improved && budget > 0 {
        improved = false;
        // a successful step replaces the tape with its replay, which
        // can be shorter, so every step re-scans from the new tape
        'scan: for i in 0..tape.len() {
            if tape[i] == 0 {
                continue;
            }
            for candidate in [0u64, tape[i] / 2] {
                if candidate == tape[i] || budget == 0 {
                    continue;
                }
                let mut attempt = tape.clone();
                attempt[i] = candidate;
                budget -= 1;
                let (res, replay_tape) = run_once(f, seed, attempt);
                if let Err(m) = res {
                    tape = replay_tape;
                    msg = m;
                    improved = true;
                    break 'scan;
                }
            }
        }
    }
    (tape, msg)
}

/// Run `cases` generated cases of the property `f`.
///
/// On failure, shrinks the case, then panics with the failure message,
/// the minimal tape, and the `PROPUTIL_SEED`/`PROPUTIL_CASE` pair that
/// replays it. Set `PROPUTIL_SEED` (decimal or 0x-hex) to change the
/// base seed, and `PROPUTIL_CASE` to run exactly one case.
pub fn check<F>(name: &str, cases: u32, f: F)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    let base_seed = env_u64("PROPUTIL_SEED").unwrap_or_else(|| default_seed(name));
    let only_case = env_u64("PROPUTIL_CASE");
    for case in 0..cases as u64 {
        if let Some(only) = only_case {
            if case != only {
                continue;
            }
        }
        let mut s = base_seed ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let case_seed = splitmix64(&mut s);
        let (res, tape) = run_once(&f, case_seed, Vec::new());
        if let Err(msg) = res {
            let (min_tape, min_msg) = shrink(&f, case_seed, tape, msg);
            panic!(
                "property `{name}` failed (case {case} of {cases}):\n  {min_msg}\n  \
                 minimal tape: {min_tape:?}\n  \
                 replay with: PROPUTIL_SEED={base_seed} PROPUTIL_CASE={case}"
            );
        }
    }
}

/// Replay one explicit regression case: the property runs once with
/// the given draw tape (ported from a committed `.proptest-regressions`
/// seed or from a previous failure report). Panics on failure.
pub fn check_regression<F>(name: &str, tape: &[u64], f: F)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    let (res, _) = run_once(&f, default_seed(name), tape.to_vec());
    if let Err(msg) = res {
        panic!("regression `{name}` failed:\n  {msg}\n  tape: {tape:?}");
    }
}

/// Stable per-test default seed derived from the property name, so
/// every test exercises a distinct but reproducible stream.
fn default_seed(name: &str) -> u64 {
    // FNV-1a, then mixed — stable across platforms and releases
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut s = h;
    splitmix64(&mut s)
}

fn env_u64(key: &str) -> Option<u64> {
    let v = std::env::var(key).ok()?;
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Fail the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("ensure failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!(
                "ensure failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "ensure_eq failed: {} != {} ({:?} vs {:?})",
                stringify!($a),
                stringify!($b),
                va,
                vb
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "ensure_eq failed: {} != {} ({:?} vs {:?}) — {}",
                stringify!($a),
                stringify!($b),
                va,
                vb,
                format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        check("always_true", 50, |g| {
            let _ = g.u64_in(0, 100);
            count.set(count.get() + 1);
            Ok(())
        });
        assert_eq!(count.get(), 50);
    }

    #[test]
    fn failing_property_panics_with_replay_line() {
        let r = catch_unwind(|| {
            check("always_false", 10, |g| {
                let v = g.u64_in(0, 1000);
                crate::ensure!(v > 2000, "v={v}");
                Ok(())
            });
        });
        let msg = panic_message(r.unwrap_err());
        assert!(msg.contains("always_false"), "{msg}");
        assert!(msg.contains("PROPUTIL_SEED="), "{msg}");
    }

    #[test]
    fn shrinker_drives_draws_toward_zero() {
        // fails whenever the drawn value is >= 10; the minimal
        // counterexample after halving-shrink must be small
        let r = catch_unwind(|| {
            check("shrinks", 20, |g| {
                let v = g.u64_any();
                crate::ensure!(v < 10, "v={v}");
                Ok(())
            });
        });
        let msg = panic_message(r.unwrap_err());
        // the tape is printed; halving from any failure lands in [10, 19]
        let tape_val: u64 = msg
            .split("minimal tape: [")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("tape in message");
        assert!((10..20).contains(&tape_val), "{msg}");
    }

    #[test]
    fn shrinking_through_a_shorter_replay_still_reports_the_case() {
        // the first draw sets how many follow, so zeroing it shortens
        // the replay tape under the shrinker's scan
        let r = catch_unwind(|| {
            check("shorter_replay", 5, |g| {
                let n = g.usize_in(1, 8);
                let _: Vec<u64> = (0..n).map(|_| g.u64_any()).collect();
                Err(format!("n={n}"))
            });
        });
        let msg = panic_message(r.unwrap_err());
        assert!(msg.contains("minimal tape:"), "{msg}");
        assert!(msg.contains("PROPUTIL_CASE="), "{msg}");
    }

    #[test]
    fn panics_are_caught_as_failures() {
        let r = catch_unwind(|| {
            check("panicky", 5, |_| {
                panic!("inner assertion");
            });
        });
        let msg = panic_message(r.unwrap_err());
        assert!(msg.contains("inner assertion"), "{msg}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = Gen::from_seed(7);
        let mut b = Gen::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Gen::from_seed(8);
        assert_ne!(Gen::from_seed(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut g = Gen::from_seed(99);
        for _ in 0..1000 {
            let v = g.u64_in(10, 20);
            assert!((10..=20).contains(&v));
            let f = g.f64_in(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&f));
            let i = g.i64_in(-5, 5);
            assert!((-5..5).contains(&i));
            let u = g.usize_in(0, 3);
            assert!(u < 3);
        }
    }

    #[test]
    fn pick_covers_all_items() {
        let mut g = Gen::from_seed(3);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*g.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn regression_replays_tape() {
        // tape forces the first draw to 42
        check_regression("replay", &[42], |g| {
            crate::ensure_eq!(g.u64_in(0, 100), 42);
            Ok(())
        });
    }

    #[test]
    fn ensure_eq_reports_values() {
        let f = |g: &mut Gen| -> CaseResult {
            let v = g.u64_in(5, 5);
            crate::ensure_eq!(v, 6u64);
            Ok(())
        };
        let (res, _) = run_once(&f, 1, Vec::new());
        let msg = res.unwrap_err();
        assert!(msg.contains('5') && msg.contains('6'), "{msg}");
    }
}
