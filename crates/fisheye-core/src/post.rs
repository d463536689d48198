//! Post-correction color pipeline: grade, tone-map, dither, encode.
//!
//! The paper's phase-2 gather is memory-bound (DESIGN.md §3), so
//! per-pixel ALU appended to the remap traversal is nearly free —
//! the same observation that makes GPU display transforms fold
//! 3D-LUT grades, tone mapping, dither and the sRGB OETF into one
//! fused shader instead of extra full-frame passes. This module is
//! the CPU analogue: a [`PostStage`] describes the color chain
//! (3D-LUT grade → tone map → sRGB encode → interleaved-gradient-
//! noise dither), and [`PostStage::compile`] lowers it into a
//! [`PostPlan`] — an immutable per-plane execution artifact
//! analogous to [`RemapPlan`](crate::plan::RemapPlan) — whose row
//! grade ([`PostPlan::apply_row`]) the host engines' row driver runs
//! on each corrected row while it is still hot in cache
//! ([`execute_host_post`](crate::engine::execute_host_post)).
//!
//! # Bit-exactness by construction
//!
//! Byte planes go through a 256-entry table: `table[b]` is computed
//! by *the same scalar expression* ([`PostStage::transfer255`]) that
//! the per-pixel reference ([`PostPlan::apply_u8`]) evaluates, and the
//! fused path and the two-pass golden reference
//! ([`post_pass`](crate::engine::post_pass) over an already-corrected
//! frame) both grade through [`PostPlan::apply_row`], so they produce
//! identical f32 intermediates and identical rounded bytes — the T9
//! bench and the proputil properties assert this, they do not tolerate
//! it.
//!
//! An identity stage (no grade, linear tone, dither off) has a
//! strictly identity transfer — the sRGB EOTF/OETF pair is only
//! entered when a grade or tone curve is active, so "post configured
//! but inert" is byte-identical to "no post at all".
//!
//! # Determinism
//!
//! Dither noise is a pure function of the output pixel coordinate
//! and an explicit [`DitherSeed`] — no RNG state, no thread
//! interaction — so repeated corrections of the same frame are
//! byte-identical across backends and thread counts.

// Every graded frame's rows run through this module, and `parse_cube`
// reads users' LUT files for the CLI; a panic here takes streams down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;
use std::sync::Arc;

use pixmap::Gray8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(state: u64, word: u64) -> u64 {
    let mut h = state;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 3D color lookup table in a tiled-atlas layout: `size` z-slices
/// of `size`×`size` laid side by side, the layout GPU grade shaders
/// index a 2D LUT texture with. Sampling is trilinear with clamped
/// lattice coordinates and NaN guards.
#[derive(Clone, Debug, PartialEq)]
pub struct Lut3d {
    size: u32,
    /// `data[y * size² + z * size + x]` is the lattice color at
    /// `(r, g, b)` index `(x, y, z)` — the tiled-atlas address.
    data: Vec<[f32; 3]>,
    digest: u64,
}

impl Lut3d {
    /// Build a LUT by evaluating `f` at every lattice point, with
    /// `(r, g, b)` arguments in `[0, 1]`. `size` must be ≥ 2.
    pub fn from_fn(size: u32, f: impl Fn(f32, f32, f32) -> [f32; 3]) -> Lut3d {
        let n = size.max(2);
        let step = 1.0 / (n - 1) as f32;
        let mut data = vec![[0.0f32; 3]; (n * n * n) as usize];
        for y in 0..n {
            for z in 0..n {
                for x in 0..n {
                    let idx = (y * n * n + z * n + x) as usize;
                    data[idx] = f(x as f32 * step, y as f32 * step, z as f32 * step);
                }
            }
        }
        let mut digest = fnv_mix(FNV_OFFSET, n as u64);
        for c in &data {
            for v in c {
                digest = fnv_mix(digest, v.to_bits() as u64);
            }
        }
        Lut3d {
            size: n,
            data,
            digest,
        }
    }

    /// The identity LUT: every lattice point maps to itself.
    pub fn identity(size: u32) -> Lut3d {
        Lut3d::from_fn(size, |r, g, b| [r, g, b])
    }

    /// A named built-in grade, for CLI and doc examples that should
    /// not depend on external `.cube` files. Names: `identity`,
    /// `warm`, `cool`, `noir`.
    pub fn builtin(name: &str) -> Option<Lut3d> {
        let lut = match name {
            "identity" => Lut3d::identity(17),
            // lift reds, sink blues — a gentle tungsten cast
            "warm" => Lut3d::from_fn(17, |r, g, b| {
                [
                    (r * 1.08 + 0.02).clamp(0.0, 1.0),
                    g,
                    (b * 0.92).clamp(0.0, 1.0),
                ]
            }),
            // the inverse cast
            "cool" => Lut3d::from_fn(17, |r, g, b| {
                [
                    (r * 0.92).clamp(0.0, 1.0),
                    g,
                    (b * 1.08 + 0.02).clamp(0.0, 1.0),
                ]
            }),
            // desaturate toward rec601 luma with a slight s-curve
            "noir" => Lut3d::from_fn(17, |r, g, b| {
                let l = 0.299 * r + 0.587 * g + 0.114 * b;
                let s = l * l * (3.0 - 2.0 * l);
                [s, s, s]
            }),
            _ => return None,
        };
        Some(lut)
    }

    /// Parse an Adobe `.cube` 3D LUT (the `LUT_3D_SIZE` format, red
    /// index fastest). Returns a [`CubeError`] on malformed input —
    /// never panics.
    #[deny(clippy::indexing_slicing)]
    pub fn parse_cube(text: &str) -> Result<Lut3d, CubeError> {
        let mut size: Option<u32> = None;
        let mut entries: Vec<[f32; 3]> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let Some(first) = parts.next() else { continue };
            if first == "LUT_3D_SIZE" {
                let n: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CubeError::BadSize { line, size: None })?;
                if !(2..=129).contains(&n) {
                    return Err(CubeError::BadSize {
                        line,
                        size: Some(n),
                    });
                }
                size = Some(n);
                continue;
            }
            if first
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
            {
                // TITLE, DOMAIN_MIN/MAX and other keywords: skipped
                continue;
            }
            let bad = || CubeError::BadSample { line };
            let r: f32 = first.parse().map_err(|_| bad())?;
            let g: f32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let b: f32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            entries.push([r, g, b]);
        }
        let n = size.ok_or(CubeError::MissingSize)?;
        let expect = (n * n * n) as usize;
        if entries.len() != expect {
            return Err(CubeError::CountMismatch {
                size: n,
                got: entries.len(),
            });
        }
        // .cube is red-fastest: entry i is lattice (r, g, b) =
        // (i % n, i/n % n, i/n²); re-address into the tiled atlas.
        let mut data = vec![[0.0f32; 3]; expect];
        for (i, c) in entries.into_iter().enumerate() {
            let x = i as u32 % n;
            let y = (i as u32 / n) % n;
            let z = i as u32 / (n * n);
            if let Some(slot) = data.get_mut((y * n * n + z * n + x) as usize) {
                *slot = c;
            }
        }
        let mut digest = fnv_mix(FNV_OFFSET, n as u64);
        for c in &data {
            for v in c {
                digest = fnv_mix(digest, v.to_bits() as u64);
            }
        }
        Ok(Lut3d {
            size: n,
            data,
            digest,
        })
    }

    /// Lattice points per axis.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Content digest (FNV-1a over size and sample bits).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    #[inline]
    fn at(&self, x: u32, y: u32, z: u32) -> [f32; 3] {
        self.data[(y * self.size * self.size + z * self.size + x) as usize]
    }

    /// Trilinear sample at `(r, g, b)` in `[0, 1]`. Out-of-gamut
    /// inputs clamp to the lattice; NaN components clamp to 0.
    pub fn sample(&self, r: f32, g: f32, b: f32) -> [f32; 3] {
        let hi = (self.size - 1) as f32;
        let pos = |v: f32| -> f32 {
            // NaN guard: NaN != NaN, fold to 0 before scaling
            let v = if v.is_nan() { 0.0 } else { v };
            v.clamp(0.0, 1.0) * hi
        };
        let (rp, gp, bp) = (pos(r), pos(g), pos(b));
        let split = |p: f32| -> (u32, u32, f32) {
            let lo = p.floor();
            let i = lo as u32;
            let j = (i + 1).min(self.size - 1);
            (i, j, p - lo)
        };
        let (x0, x1, fx) = split(rp);
        let (y0, y1, fy) = split(gp);
        let (z0, z1, fz) = split(bp);
        let lerp3 = |a: [f32; 3], b: [f32; 3], t: f32| -> [f32; 3] {
            [
                a[0] + (b[0] - a[0]) * t,
                a[1] + (b[1] - a[1]) * t,
                a[2] + (b[2] - a[2]) * t,
            ]
        };
        let c00 = lerp3(self.at(x0, y0, z0), self.at(x1, y0, z0), fx);
        let c10 = lerp3(self.at(x0, y1, z0), self.at(x1, y1, z0), fx);
        let c01 = lerp3(self.at(x0, y0, z1), self.at(x1, y0, z1), fx);
        let c11 = lerp3(self.at(x0, y1, z1), self.at(x1, y1, z1), fx);
        let c0 = lerp3(c00, c10, fy);
        let c1 = lerp3(c01, c11, fy);
        lerp3(c0, c1, fz)
    }
}

/// Why [`Lut3d::parse_cube`] refused a `.cube` text. `Display`
/// gives the message the CLI prints; line numbers count from 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CubeError {
    /// A `LUT_3D_SIZE` line whose size does not parse (`size` is
    /// `None`) or lies outside 2..=129.
    BadSize {
        /// Line of the size keyword.
        line: usize,
        /// The parsed size, when it parsed.
        size: Option<u32>,
    },
    /// A sample line without three parseable numbers.
    BadSample {
        /// Line of the sample.
        line: usize,
    },
    /// The text holds a number of samples other than size³.
    CountMismatch {
        /// The declared `LUT_3D_SIZE`.
        size: u32,
        /// Samples found.
        got: usize,
    },
    /// No `LUT_3D_SIZE` line.
    MissingSize,
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::BadSize { line, size: None } => {
                write!(f, "line {line}: bad LUT_3D_SIZE")
            }
            CubeError::BadSize { size: Some(n), .. } => {
                write!(f, "LUT_3D_SIZE {n} out of range (2..=129)")
            }
            CubeError::BadSample { line } => write!(f, "line {line}: bad sample"),
            CubeError::CountMismatch { size, got } => write!(
                f,
                "expected {} samples for LUT_3D_SIZE {size}, got {got}",
                (*size as usize).pow(3)
            ),
            CubeError::MissingSize => f.write_str("missing LUT_3D_SIZE"),
        }
    }
}

impl std::error::Error for CubeError {}

/// The tone-mapping curve applied after the grade, in linear light.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ToneMap {
    /// No curve: linear through.
    Linear,
    /// A tony-mc-mapface-style filmic display transform,
    /// implemented as the smooth rational approximation
    /// `x(2.51x + 0.03) / (x(2.43x + 0.59) + 0.14)`, clamped to
    /// `[0, 1]`.
    McFace,
}

impl ToneMap {
    /// All curves, for CLI enumeration.
    pub const ALL: [ToneMap; 2] = [ToneMap::Linear, ToneMap::McFace];

    /// Short lowercase name (`linear` / `mcface`).
    pub fn name(self) -> &'static str {
        match self {
            ToneMap::Linear => "linear",
            ToneMap::McFace => "mcface",
        }
    }

    /// Parse a curve name.
    pub fn parse(s: &str) -> Option<ToneMap> {
        ToneMap::ALL.into_iter().find(|t| t.name() == s)
    }

    /// Apply the curve to a linear-light value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ToneMap::Linear => x,
            ToneMap::McFace => {
                let x = if x.is_nan() { 0.0 } else { x.max(0.0) };
                let y = (x * (2.51 * x + 0.03)) / (x * (2.43 * x + 0.59) + 0.14);
                y.clamp(0.0, 1.0)
            }
        }
    }
}

impl std::fmt::Display for ToneMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Seed for the deterministic dither pattern. The seed is hashed
/// (splitmix64) into a coordinate offset for the interleaved-
/// gradient-noise lattice, so two seeds give decorrelated patterns
/// while each seed is a pure function of the pixel coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DitherSeed(pub u64);

impl DitherSeed {
    /// The `(dx, dy)` coordinate offset this seed shifts the IGN
    /// lattice by.
    pub fn offsets(self) -> (u32, u32) {
        let mut state = self.0;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        ((next() & 0xFFFF) as u32, (next() & 0xFFFF) as u32)
    }
}

/// Interleaved gradient noise at pixel `(x, y)`: uniform-ish in
/// `[0, 1)` with a high-frequency spatial spectrum that dithers
/// banding without visible grain.
#[inline]
pub fn ign(x: u32, y: u32) -> f32 {
    let v = 0.067_110_56_f32 * x as f32 + 0.005_837_15_f32 * y as f32;
    (52.982_918_f32 * v.fract()).fract()
}

/// Signed dither offset in LSB units for pixel `(x, y)` under
/// lattice offsets `(dx, dy)`: `(ign - ½) × 0.95`, magnitude
/// strictly below half an LSB so dither alone never changes an
/// exactly-representable byte.
#[inline]
pub fn dither_offset(x: u32, y: u32, (dx, dy): (u32, u32)) -> f32 {
    (ign(x.wrapping_add(dx), y.wrapping_add(dy)) - 0.5) * 0.95
}

/// Which color component a plane carries, deciding how the stage's
/// grade and tone curve project onto that plane's 1D transfer.
///
/// Planes are corrected independently, so a plane only ever sees a
/// per-channel transfer: luma and the RGB channels sample the grade
/// LUT along its gray diagonal (`lut(v, v, v)`), which still
/// exercises the full trilinear interpolation across lattice cells;
/// chroma planes pass through the curve untouched (grading
/// subsampled difference channels through an RGB LUT would need the
/// co-sited luma, which a per-plane pipeline does not have) and
/// receive dither only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PostChannel {
    /// A gray or Y′ plane: rec601 luma of the diagonal LUT sample.
    Luma,
    /// A Cb/Cr plane: curve-exempt, dither only.
    Chroma,
    /// The R plane of planar RGB: red component of the diagonal.
    Red,
    /// The G plane of planar RGB.
    Green,
    /// The B plane of planar RGB.
    Blue,
}

impl PostChannel {
    /// Digest salt, so per-channel plans never collide.
    fn salt(self) -> u64 {
        match self {
            PostChannel::Luma => 0x6c75_6d61,
            PostChannel::Chroma => 0x6368_726f,
            PostChannel::Red => 0x7265_6400,
            PostChannel::Green => 0x6772_6e00,
            PostChannel::Blue => 0x626c_7500,
        }
    }
}

/// sRGB electro-optical transfer: encoded `[0,1]` → linear light.
#[inline]
fn srgb_eotf(s: f32) -> f32 {
    let s = if s.is_nan() { 0.0 } else { s.clamp(0.0, 1.0) };
    if s <= 0.040_45 {
        s / 12.92
    } else {
        ((s + 0.055) / 1.055).powf(2.4)
    }
}

/// sRGB opto-electrical transfer: linear light → encoded `[0,1]`.
#[inline]
fn srgb_oetf(l: f32) -> f32 {
    let l = if l.is_nan() { 0.0 } else { l.clamp(0.0, 1.0) };
    if l <= 0.003_130_8 {
        12.92 * l
    } else {
        1.055 * l.powf(1.0 / 2.4) - 0.055
    }
}

/// The post-correction color chain: an optional 3D-LUT grade with a
/// strength mix, a tone-map curve, and optional deterministic
/// dither. [`PostStage::compile`] lowers it per plane channel into
/// the [`PostPlan`] the engines execute.
#[derive(Clone, Debug)]
pub struct PostStage {
    grade: Option<(Arc<Lut3d>, f32)>,
    tone: ToneMap,
    dither: Option<DitherSeed>,
}

impl Default for PostStage {
    fn default() -> Self {
        PostStage::identity()
    }
}

impl PostStage {
    /// The inert stage: no grade, linear tone, no dither. Applying
    /// it is byte-identical to not applying post at all.
    pub fn identity() -> PostStage {
        PostStage {
            grade: None,
            tone: ToneMap::Linear,
            dither: None,
        }
    }

    /// Add a 3D-LUT grade mixed at `strength` (0 = off, 1 = full;
    /// clamped).
    pub fn with_grade(mut self, lut: Arc<Lut3d>, strength: f32) -> PostStage {
        let s = if strength.is_nan() {
            0.0
        } else {
            strength.clamp(0.0, 1.0)
        };
        self.grade = Some((lut, s));
        self
    }

    /// Set the tone-map curve.
    pub fn with_tone_map(mut self, tone: ToneMap) -> PostStage {
        self.tone = tone;
        self
    }

    /// Enable deterministic dither under `seed`.
    pub fn with_dither(mut self, seed: DitherSeed) -> PostStage {
        self.dither = Some(seed);
        self
    }

    /// The grade LUT and strength, if any.
    pub fn grade(&self) -> Option<(&Arc<Lut3d>, f32)> {
        self.grade.as_ref().map(|(l, s)| (l, *s))
    }

    /// The tone-map curve.
    pub fn tone_map(&self) -> ToneMap {
        self.tone
    }

    /// The dither seed, if dithering.
    pub fn dither(&self) -> Option<DitherSeed> {
        self.dither
    }

    /// Whether a grade or tone curve is active (a zero-strength
    /// grade is not).
    fn curve_active(&self) -> bool {
        self.grade.as_ref().is_some_and(|(_, s)| *s != 0.0) || self.tone != ToneMap::Linear
    }

    /// Whether this stage is completely inert.
    pub fn is_identity(&self) -> bool {
        !self.curve_active() && self.dither.is_none()
    }

    /// Content digest over the chain's parameters (LUT samples,
    /// strength, curve, seed) — every [`PostPlan`] compiled from the
    /// stage folds it into its own digest.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        match &self.grade {
            Some((lut, s)) => {
                h = fnv_mix(h, lut.digest());
                h = fnv_mix(h, s.to_bits() as u64);
            }
            None => h = fnv_mix(h, 0),
        }
        h = fnv_mix(h, self.tone as u64 + 1);
        h = fnv_mix(h, self.dither.map_or(0, |d| d.0 ^ 0x6469_7468_6572));
        h
    }

    /// The stage's 1D transfer for `channel` on a `[0, 1]` value —
    /// the scalar everything else is defined in terms of. Identity
    /// (returns `v` untouched, no EOTF/OETF round trip) when no
    /// curve applies to the channel.
    #[inline]
    pub fn transfer01(&self, channel: PostChannel, v: f32) -> f32 {
        if channel == PostChannel::Chroma || !self.curve_active() {
            return if v.is_nan() { 0.0 } else { v };
        }
        let lin = srgb_eotf(v);
        let graded = match &self.grade {
            Some((lut, s)) if *s != 0.0 => {
                let c = lut.sample(lin, lin, lin);
                let g = match channel {
                    PostChannel::Luma => 0.299 * c[0] + 0.587 * c[1] + 0.114 * c[2],
                    PostChannel::Red => c[0],
                    PostChannel::Green => c[1],
                    PostChannel::Blue => c[2],
                    PostChannel::Chroma => lin,
                };
                lin + (g - lin) * s
            }
            _ => lin,
        };
        srgb_oetf(self.tone.apply(graded))
    }

    /// [`PostStage::transfer01`] in the 255-scaled domain byte
    /// planes live in. The table build and the per-pixel reference
    /// both call this, which is what makes fused and two-pass
    /// bit-exact by construction.
    #[inline]
    pub fn transfer255(&self, channel: PostChannel, x: f32) -> f32 {
        if channel == PostChannel::Chroma || !self.curve_active() {
            return if x.is_nan() { 0.0 } else { x };
        }
        self.transfer01(channel, x / 255.0) * 255.0
    }

    /// Compile the stage into the per-plane execution artifact for
    /// `channel`.
    pub fn compile(&self, channel: PostChannel) -> PostPlan {
        let mut table = [0.0f32; 256];
        let mut table_u8 = [0u8; 256];
        for b in 0..256usize {
            table[b] = self.transfer255(channel, b as f32);
            table_u8[b] = quantize255(table[b]);
        }
        let curve = channel != PostChannel::Chroma && self.curve_active();
        let dither = self.dither.map(DitherSeed::offsets);
        let mut digest = fnv_mix(self.digest(), channel.salt());
        digest = fnv_mix(digest, if curve { 1 } else { 0 });
        PostPlan {
            channel,
            stage: self.clone(),
            table: Box::new(table),
            table_u8: Box::new(table_u8),
            dither,
            noop: !curve && dither.is_none(),
            digest,
        }
    }
}

/// Round a 255-domain value to a byte: `floor(x + ½)`, clamped,
/// NaN → 0.
#[inline]
fn quantize255(x: f32) -> u8 {
    if x.is_nan() {
        return 0;
    }
    (x + 0.5).floor().clamp(0.0, 255.0) as u8
}

/// A compiled per-plane post stage: the channel's 1D transfer baked
/// into a 256-entry table (plus a pre-rounded byte table for the
/// dither-free fast path), the dither lattice offsets, and a noop
/// flag engines use to skip the stage entirely. Analogous to
/// [`RemapPlan`](crate::plan::RemapPlan): immutable once compiled,
/// cheap to clone conceptually (engines take `&PostPlan`).
#[derive(Clone, Debug)]
pub struct PostPlan {
    channel: PostChannel,
    stage: PostStage,
    table: Box<[f32; 256]>,
    table_u8: Box<[u8; 256]>,
    dither: Option<(u32, u32)>,
    noop: bool,
    digest: u64,
}

impl PostPlan {
    /// The channel this plan was compiled for.
    pub fn channel(&self) -> PostChannel {
        self.channel
    }

    /// The stage this plan was compiled from.
    pub fn stage(&self) -> &PostStage {
        &self.stage
    }

    /// Whether applying this plan is a byte-identical no-op.
    pub fn is_noop(&self) -> bool {
        self.noop
    }

    /// Digest over stage parameters and channel.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The 255-domain transfer table (`table[b] = transfer255(b)`).
    pub fn table(&self) -> &[f32; 256] {
        &self.table
    }

    /// The pre-rounded byte table for the dither-free fast path.
    pub fn table_u8(&self) -> &[u8; 256] {
        &self.table_u8
    }

    /// Whether dither is active, and its lattice offsets.
    pub fn dither(&self) -> Option<(u32, u32)> {
        self.dither
    }

    /// Apply the plan to one byte at output pixel `(x, y)`.
    #[inline]
    pub fn apply_u8(&self, b: u8, x: u32, y: u32) -> u8 {
        match self.dither {
            None => self.table_u8[b as usize],
            Some(off) => quantize255(self.table[b as usize] + dither_offset(x, y, off)),
        }
    }

    /// Grade output row `y` in place: the row grade the fused row
    /// driver and the two-pass [`post_pass`](crate::engine::post_pass)
    /// both run, byte for byte [`PostPlan::apply_u8`] at every pixel.
    pub fn apply_row(&self, row: &mut [Gray8], y: u32) {
        if self.noop {
            return;
        }
        match self.dither {
            // dither-free: a pure table pass, no per-pixel rounding
            None => {
                let table = &self.table_u8;
                for p in row.iter_mut() {
                    p.0 = table[p.0 as usize];
                }
            }
            Some(off) => {
                let table = &self.table;
                for (x, p) in row.iter_mut().enumerate() {
                    p.0 = quantize255(table[p.0 as usize] + dither_offset(x as u32, y, off));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn warm() -> Arc<Lut3d> {
        match Lut3d::builtin("warm") {
            Some(l) => Arc::new(l),
            None => panic!("warm is a builtin"),
        }
    }

    #[test]
    fn identity_lut_diagonal_is_linear() {
        let lut = Lut3d::identity(9);
        for i in 0..=64 {
            let v = i as f32 / 64.0;
            let c = lut.sample(v, v, v);
            for ch in c {
                assert!((ch - v).abs() < 1e-6, "lut({v}) = {ch}");
            }
        }
    }

    #[test]
    fn lut_guards_nan_and_gamut() {
        let lut = Lut3d::identity(5);
        assert_eq!(lut.sample(f32::NAN, 0.5, 2.0), lut.sample(0.0, 0.5, 1.0));
        assert_eq!(lut.sample(-3.0, 0.0, 0.0), lut.sample(0.0, 0.0, 0.0));
    }

    #[test]
    fn cube_roundtrip_matches_builtin() {
        let lut = Lut3d::identity(3);
        let mut text = String::from("# test\nLUT_3D_SIZE 3\n");
        for b in 0..3 {
            for g in 0..3 {
                for r in 0..3 {
                    text.push_str(&format!(
                        "{} {} {}\n",
                        r as f32 / 2.0,
                        g as f32 / 2.0,
                        b as f32 / 2.0
                    ));
                }
            }
        }
        let parsed = match Lut3d::parse_cube(&text) {
            Ok(l) => l,
            Err(e) => panic!("parse: {e}"),
        };
        assert_eq!(parsed, lut);
        assert_eq!(parsed.digest(), lut.digest());
    }

    #[test]
    fn cube_rejects_malformed() {
        // each refusal's variant, and the message the CLI prints for it
        let cases = [
            ("", CubeError::MissingSize, "missing LUT_3D_SIZE"),
            (
                "LUT_3D_SIZE 2\n0 0 0\n",
                CubeError::CountMismatch { size: 2, got: 1 },
                "expected 8 samples for LUT_3D_SIZE 2, got 1",
            ),
            (
                "LUT_3D_SIZE 200\n",
                CubeError::BadSize {
                    line: 1,
                    size: Some(200),
                },
                "LUT_3D_SIZE 200 out of range (2..=129)",
            ),
            (
                "# c\nLUT_3D_SIZE x\n",
                CubeError::BadSize {
                    line: 2,
                    size: None,
                },
                "line 2: bad LUT_3D_SIZE",
            ),
            (
                "LUT_3D_SIZE 2\n0 0\n",
                CubeError::BadSample { line: 2 },
                "line 2: bad sample",
            ),
        ];
        for (text, err, shown) in cases {
            assert_eq!(err.to_string(), shown);
            assert_eq!(Lut3d::parse_cube(text), Err(err), "{text:?}");
        }
    }

    /// Random `.cube` text: a size line (in and out of range), sample
    /// counts at and around size³, keyword and comment lines, triples
    /// with `nan`, `inf` and `1e400`, and random truncations. Every
    /// input gets a verdict; an `Ok` LUT holds exactly size³ samples.
    #[test]
    fn parse_cube_random_text_yields_a_verdict_never_a_panic() {
        const SIZES: [&str; 6] = ["2", "3", "1", "130", "-1", "x"];
        const FIRST: [&str; 4] = ["0", "0.5", "-3", "1e400"];
        const ANY: [&str; 8] = ["0", "0.5", "-3", "1e400", "nan", "inf", "NaN", "x"];
        const OTHER: [&str; 4] = ["TITLE \"t\"", "DOMAIN_MIN 0 0 0", "# c", "nan 1 1"];
        let oks = std::cell::Cell::new(0u32);
        proputil::check("parse_cube_random_text", 300, |g| {
            let mut text = format!("LUT_3D_SIZE {}\n", g.pick(&SIZES));
            for _ in 0..*g.pick(&[8usize, 27, 7, 9, 28, 0]) {
                if g.usize_in(0, 8) == 0 {
                    let other = g.pick(&OTHER);
                    text.push_str(&format!("{other}\n"));
                }
                let (r, gg, b) = (g.pick(&FIRST), g.pick(&ANY), g.pick(&ANY));
                text.push_str(&format!("{r} {gg} {b}\n"));
            }
            if g.bool() {
                // ASCII only: every cut is a char boundary
                text.truncate(g.usize_in(0, text.len() + 1));
            }
            let parsed = std::panic::catch_unwind(|| Lut3d::parse_cube(&text));
            match parsed {
                Ok(Ok(lut)) => {
                    oks.set(oks.get() + 1);
                    proputil::ensure_eq!(lut.data.len(), (lut.size as usize).pow(3));
                }
                Ok(Err(_)) => {}
                Err(_) => return Err(format!("parse_cube panicked on {text:?}")),
            }
            Ok(())
        });
        assert!(oks.get() > 0, "no case parsed: the Ok claim went unchecked");
    }

    #[test]
    fn identity_stage_tables_are_exact() {
        let plan = PostStage::identity().compile(PostChannel::Luma);
        assert!(plan.is_noop());
        for b in 0..256usize {
            assert_eq!(plan.table()[b], b as f32);
            assert_eq!(plan.table_u8()[b], b as u8);
        }
    }

    #[test]
    fn identity_lut_full_strength_roundtrips_bytes() {
        // oetf(eotf(v)) is not the identity in f32, but its error is
        // far below half an LSB — the byte table must come back exact.
        let stage = PostStage::identity().with_grade(Arc::new(Lut3d::identity(17)), 1.0);
        assert!(!stage.is_identity());
        let plan = stage.compile(PostChannel::Luma);
        for b in 0..256usize {
            assert_eq!(plan.table_u8()[b], b as u8, "byte {b} drifted");
        }
    }

    #[test]
    fn zero_strength_grade_is_identity() {
        let stage = PostStage::identity().with_grade(warm(), 0.0);
        assert!(stage.is_identity());
        let plan = stage.compile(PostChannel::Luma);
        for b in 0..256usize {
            assert_eq!(plan.table()[b], b as f32);
        }
    }

    #[test]
    fn chroma_planes_are_curve_exempt() {
        let stage = PostStage::identity()
            .with_grade(warm(), 1.0)
            .with_tone_map(ToneMap::McFace);
        let plan = stage.compile(PostChannel::Chroma);
        assert!(plan.is_noop());
        for b in 0..256usize {
            assert_eq!(plan.table_u8()[b], b as u8);
        }
    }

    #[test]
    fn dither_alone_preserves_bytes() {
        // |offset| ≤ 0.475 < 0.5, so an exact byte never moves
        let stage = PostStage::identity().with_dither(DitherSeed(7));
        let plan = stage.compile(PostChannel::Luma);
        assert!(!plan.is_noop());
        for b in 0..=255u8 {
            for (x, y) in [(0, 0), (3, 5), (640, 480), (1 << 20, 9)] {
                assert_eq!(plan.apply_u8(b, x, y), b);
            }
        }
    }

    #[test]
    fn dither_is_deterministic_and_seeded() {
        let a = DitherSeed(1).offsets();
        let b = DitherSeed(1).offsets();
        let c = DitherSeed(2).offsets();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (x, y) in [(0u32, 0u32), (17, 4), (1000, 999)] {
            let n = ign(x, y);
            assert_eq!(n, ign(x, y));
            assert!((0.0..1.0).contains(&n));
        }
    }

    /// Golden bytes: the dither pattern is part of the output
    /// contract — a formula change must show up here.
    #[test]
    fn dither_golden_bytes() {
        let stage = PostStage::identity()
            .with_tone_map(ToneMap::McFace)
            .with_dither(DitherSeed(0xfee1_600d_u64 ^ 0x67));
        let plan = stage.compile(PostChannel::Luma);
        let got: Vec<u8> = (0..16)
            .map(|i| plan.apply_u8(8 * i as u8 + 3, i % 4, i / 4))
            .collect();
        let again: Vec<u8> = (0..16)
            .map(|i| plan.apply_u8(8 * i as u8 + 3, i % 4, i / 4))
            .collect();
        assert_eq!(got, again);
        // values locked by the first run of this test
        assert_eq!(
            got,
            [1, 3, 7, 14, 22, 31, 42, 53, 65, 78, 90, 103, 115, 126, 138, 148]
        );
    }

    #[test]
    fn tone_map_bounds() {
        assert_eq!(ToneMap::McFace.apply(f32::NAN), 0.0);
        for t in ToneMap::ALL {
            for i in 0..=100 {
                let v = i as f32 / 100.0;
                let y = t.apply(v);
                assert!((0.0..=1.0).contains(&y), "{}({v}) = {y}", t.name());
            }
        }
        assert_eq!(ToneMap::parse("mcface"), Some(ToneMap::McFace));
        assert_eq!(ToneMap::parse("nope"), None);
    }

    #[test]
    fn digests_separate_stages_and_channels() {
        let a = PostStage::identity().with_grade(warm(), 1.0);
        let b = PostStage::identity().with_grade(warm(), 0.5);
        let c = PostStage::identity();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(
            a.compile(PostChannel::Luma).digest(),
            a.compile(PostChannel::Red).digest()
        );
    }

    #[test]
    fn table_matches_reference_transfer() {
        let stage = PostStage::identity()
            .with_grade(warm(), 0.8)
            .with_tone_map(ToneMap::McFace);
        for channel in [PostChannel::Luma, PostChannel::Red, PostChannel::Blue] {
            let plan = stage.compile(channel);
            for b in 0..256usize {
                assert_eq!(plan.table()[b], stage.transfer255(channel, b as f32));
            }
        }
    }

    #[test]
    fn post_row_matches_per_pixel() {
        let stage = PostStage::identity()
            .with_grade(warm(), 1.0)
            .with_dither(DitherSeed(42));
        let plan = stage.compile(PostChannel::Luma);
        let mut row: Vec<Gray8> = (0..64u32).map(|i| Gray8((i * 4) as u8)).collect();
        let per_pixel: Vec<Gray8> = row
            .iter()
            .enumerate()
            .map(|(x, p)| Gray8(plan.apply_u8(p.0, x as u32, 9)))
            .collect();
        plan.apply_row(&mut row, 9);
        assert_eq!(row, per_pixel);
    }
}
