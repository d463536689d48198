//! Exact statistics over raw samples, the seeded generator and the
//! output digest.

use pixmap::{Gray8, Image};

use crate::report::Json;

/// Raw samples held in memory; every percentile is read from them
/// exactly (linear interpolation between the two closest ranks),
/// never from a bucketed histogram.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Dist {
    pub fn with_capacity(n: usize) -> Dist {
        Dist {
            sorted: Vec::with_capacity(n),
            dirty: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.sorted.push(v);
        self.dirty = true;
    }

    pub fn extend(&mut self, other: &Dist) {
        self.sorted.extend_from_slice(&other.sorted);
        self.dirty = true;
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn sort(&mut self) {
        if self.dirty {
            self.sorted.sort_by(f64::total_cmp);
            self.dirty = false;
        }
    }

    /// The `q` quantile (0..=1); 0 for an empty sample.
    pub fn q(&mut self, q: f64) -> f64 {
        self.sort();
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn p50(&mut self) -> f64 {
        self.q(0.5)
    }

    pub fn p90(&mut self) -> f64 {
        self.q(0.9)
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum() / self.sorted.len() as f64
        }
    }

    /// p50, p90, p99 and max with the sample count, for the detail line.
    pub fn summary(&mut self) -> Json {
        Json::obj([
            ("n", Json::from(self.len() as u64)),
            ("p50", Json::from(self.q(0.5))),
            ("p90", Json::from(self.q(0.9))),
            ("p99", Json::from(self.q(0.99))),
            ("max", Json::from(self.q(1.0))),
        ])
    }
}

/// Samples stamped with when they completed, in seconds from the start
/// of a timed window, so that a run can be split into sub-windows.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    /// Room for `n` more samples, so that growing the sample store does
    /// not copy it (and briefly double its resident size) mid-run.
    pub fn reserve(&mut self, n: usize) {
        self.samples.reserve(n);
    }

    pub fn push(&mut self, at_s: f64, value: f64) {
        self.samples.push((at_s, value));
    }

    pub fn extend(&mut self, other: &Timeline) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Every sample, whatever its window.
    pub fn all(&self) -> Dist {
        let mut d = Dist::with_capacity(self.samples.len());
        for &(_, v) in &self.samples {
            d.push(v);
        }
        d
    }

    /// The window of `win` a sample completed in, if any.
    fn window_of(win: Windows, at: f64) -> Option<usize> {
        let w = (at / win.width).floor();
        (w >= 0.0 && (w as usize) < win.count).then_some(w as usize)
    }

    /// Each window's rate, samples per second.
    pub fn rates(&self, win: Windows) -> Vec<f64> {
        let mut counts = vec![0usize; win.count];
        for &(at, _) in &self.samples {
            if let Some(w) = Self::window_of(win, at) {
                counts[w] += 1;
            }
        }
        counts.iter().map(|&n| n as f64 / win.width).collect()
    }

    /// Each window's `q` quantile.
    pub fn window_quantiles(&self, win: Windows, q: f64) -> Vec<f64> {
        let mut windows = vec![Dist::default(); win.count];
        for &(at, v) in &self.samples {
            if let Some(w) = Self::window_of(win, at) {
                windows[w].push(v);
            }
        }
        windows.iter_mut().map(|w| w.q(q)).collect()
    }

    /// The samples of the windows `keep` marks, pooled.
    pub fn pooled(&self, win: Windows, keep: &[bool]) -> Dist {
        let mut d = Dist::with_capacity(self.samples.len());
        for &(at, v) in &self.samples {
            if Self::window_of(win, at).is_some_and(|w| keep[w]) {
                d.push(v);
            }
        }
        d
    }
}

/// Window length of a timed phase, s.
pub const WINDOW_S: f64 = 1.0;
/// Share of a timed phase's windows the end-to-end figures are read
/// from at least: the quietest ones, see [`quietest`].
pub const QUIET_SHARE: f64 = 1.0 / 3.0;
/// A window in which the host stole at most this share of the CPU time
/// the guest wanted counts as quiet: a few 10 ms ticks a second.
pub const QUIET_STOLEN: f64 = 0.03;

/// A timed phase of `count` equal windows of `width` seconds.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub count: usize,
    pub width: f64,
}

impl Windows {
    /// `secs` cut into whole windows of about `width` seconds.
    pub fn new(secs: f64, width: f64) -> Windows {
        let count = ((secs / width).floor() as usize).max(1);
        Windows {
            count,
            width: secs / count as f64,
        }
    }
}

/// Marks the windows the end-to-end figures are read from: every
/// window in which the host stole at most [`QUIET_STOLEN`] of the CPU
/// time the guest wanted (`stolen`, one share per window), and at
/// least the [`QUIET_SHARE`] of them in which it stole the least.
/// Other machines on a shared host take CPU time in bursts of a few
/// seconds that slow every layer at once; the figures read from the
/// kept windows measure the program, and a burst moves which windows
/// are kept instead of the figures.
pub fn quietest(stolen: &[f64]) -> Vec<bool> {
    let mut sorted = stolen.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = (sorted.len() as f64 * QUIET_SHARE).ceil() as usize;
    let cut = sorted
        .get(n.saturating_sub(1))
        .map_or(QUIET_STOLEN, |&s| s.max(QUIET_STOLEN));
    stolen.iter().map(|&s| s <= cut).collect()
}

/// The values `keep` marks.
pub fn kept(values: &[f64], keep: &[bool]) -> Vec<f64> {
    values
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&v, _)| v)
        .collect()
}

/// Mean of a few values; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a few values (set-up repeats, per-frame counts).
pub fn median(values: &[f64]) -> f64 {
    let mut d = Dist::default();
    for &v in values {
        d.push(v);
    }
    d.p50()
}

/// SplitMix64: every seeded choice the workloads make comes from one
/// of these, so the same seed gives the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `salt` so that workloads and
    /// streams sharing a seed still draw different sequences.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// A 64-bit digest of every byte of every plane, in plane order. Served
/// frames are compared with their references through it, so a sampled
/// frame costs the check one pass over its bytes and no stored copy.
pub fn digest(planes: &[&Image<Gray8>]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for plane in planes {
        let (w, ht) = plane.dims();
        h = mix(h, (u64::from(w) << 32) | u64::from(ht));
        let px = plane.pixels();
        let mut chunks = px.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes([
                c[0].0, c[1].0, c[2].0, c[3].0, c[4].0, c[5].0, c[6].0, c[7].0,
            ]);
            h = mix(h, word);
        }
        for p in chunks.remainder() {
            h = mix(h, u64::from(p.0));
        }
    }
    h
}

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}
