//! C emitter: renders the kernel IR as portable C99 — the `fixed` /
//! `simd` engine loops as source a host compiler (or an accelerator
//! SDK) can build. Float kernels emit the span-friendly row loop with
//! a 4-wide unrolled inner body (the SoA-SIMD shape) around samplers
//! that compute as the host's `interp` samplers do, op for op, on
//! channels in [0, 1]; the fixed-LUT kernel emits the 8-byte entry
//! struct and the 64-bit two-stage accumulator exactly as
//! `sample_bilinear_fixed_gray8` computes it. The fused post stage
//! grades as the host's `PostPlan::apply_u8` does: the stage's f32
//! transfer table, the dither offset only when the stage dithers, and
//! the host's rounding. Built without FMA contraction
//! (`-ffp-contract=off`), all of it is bit-exact with the host
//! (`tests/emitted_c.rs`).

use crate::ir::{KernelIr, KernelOp, SampleMode};

/// Render `ir` as a self-contained C99 translation unit.
pub fn emit(ir: &KernelIr) -> String {
    let mut s = String::new();
    header(&mut s, ir);
    if ir.fused_post {
        post_fns(&mut s);
    }
    match ir.sample {
        SampleMode::FixedLut { frac_bits } => fixed_kernel(&mut s, ir, frac_bits),
        _ => float_kernel(&mut s, ir),
    }
    s
}

fn header(s: &mut String, ir: &KernelIr) {
    s.push_str(&format!(
        "/* {} — generated by fisheye-codegen (do not edit)\n\
         \x20* plan: 0x{:016x}\n\
         \x20* out: {}x{}  src: {}x{}  tile: {}x{}  fused_post: {}\n\
         \x20*/\n\
         #include <stddef.h>\n#include <stdint.h>\n#include <math.h>\n\n\
         #define FISHEYE_OUT_W {}u\n#define FISHEYE_OUT_H {}u\n\
         #define FISHEYE_SRC_W {}u\n#define FISHEYE_SRC_H {}u\n\n",
        ir.name,
        ir.plan_digest,
        ir.out_dims.0,
        ir.out_dims.1,
        ir.src_dims.0,
        ir.src_dims.1,
        ir.workgroup.0,
        ir.workgroup.1,
        if ir.fused_post { "yes" } else { "no" },
        ir.out_dims.0,
        ir.out_dims.1,
        ir.src_dims.0,
        ir.src_dims.1,
    ));
    s.push_str(
        "/* Border-clamped source fetch (pixel_clamped on the host). */\n\
         static inline uint8_t fisheye_load_src(const uint8_t *src, int64_t x, int64_t y) {\n\
         \x20   if (x < 0) x = 0;\n\
         \x20   if (x >= (int64_t)FISHEYE_SRC_W) x = (int64_t)FISHEYE_SRC_W - 1;\n\
         \x20   if (y < 0) y = 0;\n\
         \x20   if (y >= (int64_t)FISHEYE_SRC_H) y = (int64_t)FISHEYE_SRC_H - 1;\n\
         \x20   return src[(size_t)y * FISHEYE_SRC_W + (size_t)x];\n\
         }\n\n",
    );
}

fn post_fns(s: &mut String) {
    s.push_str(
        "/* Interleaved-gradient-noise dither, same constants as the host\n\
         \x20* post stage. */\n\
         static inline float fisheye_ign(float x, float y) {\n\
         \x20   float t = 0.06711056f * x + 0.00583715f * y;\n\
         \x20   t = t - floorf(t);\n\
         \x20   t = 52.982918f * t;\n\
         \x20   return t - floorf(t);\n\
         }\n\n\
         /* The host's post grade: the stage's 255-domain transfer table,\n\
         \x20* plus the dither offset when the stage dithers, rounded to a\n\
         \x20* byte. Pass table == NULL to disable the stage. */\n\
         static inline uint8_t fisheye_post(uint8_t v, uint32_t x, uint32_t y,\n\
         \x20                                  const float *table, uint32_t dither,\n\
         \x20                                  uint32_t dither_x, uint32_t dither_y) {\n\
         \x20   float out = table[v];\n\
         \x20   if (dither) out = out + (fisheye_ign((float)(x + dither_x), (float)(y + dither_y)) - 0.5f) * 0.95f;\n\
         \x20   if (out < 0.0f) out = 0.0f;\n\
         \x20   if (out > 255.0f) out = 255.0f;\n\
         \x20   return (uint8_t)(out + 0.5f);\n\
         }\n\n",
    );
}

fn sample_fn(s: &mut String, ir: &KernelIr) {
    if ir.sample != SampleMode::Nearest {
        // the float samplers read and write channels as the host's
        // `Gray8` does, so the arithmetic is the host's op for op
        s.push_str(
            "/* A texel's channel value in [0, 1] (channel_f32 on the host). */\n\
             static inline float fisheye_chan(const uint8_t *src, int64_t x, int64_t y) {\n\
             \x20   return (float)fisheye_load_src(src, x, y) / 255.0f;\n\
             }\n\n\
             /* Clamp to [0, 1] and round to a byte (quantize_u8 on the host). */\n\
             static inline uint8_t fisheye_quantize(float v) {\n\
             \x20   if (v < 0.0f) v = 0.0f;\n\
             \x20   if (v > 1.0f) v = 1.0f;\n\
             \x20   return (uint8_t)(v * 255.0f + 0.5f);\n\
             }\n\n",
        );
    }
    match ir.sample {
        SampleMode::Nearest => s.push_str(
            "static inline uint8_t fisheye_sample(const uint8_t *src, float sx, float sy) {\n\
             \x20   return fisheye_load_src(src, (int64_t)floorf(sx), (int64_t)floorf(sy));\n\
             }\n\n",
        ),
        SampleMode::Bilinear | SampleMode::FixedLut { .. } => s.push_str(
            "static inline uint8_t fisheye_sample(const uint8_t *src, float sx, float sy) {\n\
             \x20   float fx = sx - 0.5f;\n\
             \x20   float fy = sy - 0.5f;\n\
             \x20   float x0 = floorf(fx);\n\
             \x20   float y0 = floorf(fy);\n\
             \x20   float wx = fx - x0;\n\
             \x20   float wy = fy - y0;\n\
             \x20   int64_t ix = (int64_t)x0;\n\
             \x20   int64_t iy = (int64_t)y0;\n\
             \x20   float p00 = fisheye_chan(src, ix, iy);\n\
             \x20   float p10 = fisheye_chan(src, ix + 1, iy);\n\
             \x20   float p01 = fisheye_chan(src, ix, iy + 1);\n\
             \x20   float p11 = fisheye_chan(src, ix + 1, iy + 1);\n\
             \x20   float top = p00 * (1.0f - wx) + p10 * wx;\n\
             \x20   float bot = p01 * (1.0f - wx) + p11 * wx;\n\
             \x20   return fisheye_quantize(top * (1.0f - wy) + bot * wy);\n\
             }\n\n",
        ),
        SampleMode::Bicubic => s.push_str(
            "static inline float fisheye_catmull_rom(float t) {\n\
             \x20   float a = fabsf(t);\n\
             \x20   if (a < 1.0f) return 1.5f * a * a * a - 2.5f * a * a + 1.0f;\n\
             \x20   if (a < 2.0f) return -0.5f * a * a * a + 2.5f * a * a - 4.0f * a + 2.0f;\n\
             \x20   return 0.0f;\n\
             }\n\n\
             static inline uint8_t fisheye_sample(const uint8_t *src, float sx, float sy) {\n\
             \x20   float fx = sx - 0.5f;\n\
             \x20   float fy = sy - 0.5f;\n\
             \x20   float x0 = floorf(fx);\n\
             \x20   float y0 = floorf(fy);\n\
             \x20   float tx = fx - x0;\n\
             \x20   float ty = fy - y0;\n\
             \x20   int64_t ix = (int64_t)x0;\n\
             \x20   int64_t iy = (int64_t)y0;\n\
             \x20   float wx[4] = {fisheye_catmull_rom(tx + 1.0f), fisheye_catmull_rom(tx),\n\
             \x20                  fisheye_catmull_rom(tx - 1.0f), fisheye_catmull_rom(tx - 2.0f)};\n\
             \x20   float wy[4] = {fisheye_catmull_rom(ty + 1.0f), fisheye_catmull_rom(ty),\n\
             \x20                  fisheye_catmull_rom(ty - 1.0f), fisheye_catmull_rom(ty - 2.0f)};\n\
             \x20   float acc = 0.0f;\n\
             \x20   for (int j = 0; j < 4; j++) {\n\
             \x20       float row = 0.0f;\n\
             \x20       for (int i = 0; i < 4; i++) {\n\
             \x20           row += fisheye_chan(src, ix - 1 + i, iy - 1 + j) * wx[i];\n\
             \x20       }\n\
             \x20       acc += row * wy[j];\n\
             \x20   }\n\
             \x20   return fisheye_quantize(acc);\n\
             }\n\n",
        ),
    }
}

fn body_ops(s: &mut String, ir: &KernelIr, sample_call: &str, valid_expr: &str) {
    for op in &ir.ops {
        match *op {
            KernelOp::LoadCoords | KernelOp::Gather { .. } | KernelOp::Sample(_) => {}
            KernelOp::ValidCheck => s.push_str(&format!(
                "            /* ValidCheck + Gather + Sample */\n\
                 \x20           uint8_t v = 0;\n\
                 \x20           if ({valid_expr}) v = {sample_call};\n",
            )),
            KernelOp::FillGap => s.push_str(
                "            /* FillGap: v stays 0 (black) for gap lanes */\n",
            ),
            KernelOp::Post => s.push_str(
                "            /* Post (fused; covers gap lanes too) */\n\
                 \x20           if (post_table) v = fisheye_post(v, x, y, post_table, post_dither, dither_x, dither_y);\n",
            ),
            KernelOp::Store => s.push_str("            /* Store */\n            dst[idx] = v;\n"),
        }
    }
}

fn float_kernel(s: &mut String, ir: &KernelIr) {
    sample_fn(s, ir);
    s.push_str(&format!(
        "/* Row loop in the SoA-SIMD shape: the inner body is unrolled\n\
         \x20* 4-wide by the remainder split so an autovectorizer (or a\n\
         \x20* hand-intrinsics port) can widen it. */\n\
         void {}(const float *map_sx, const float *map_sy,\n\
         \x20        const uint8_t *src, uint8_t *dst{}) {{\n\
         \x20   for (uint32_t y = 0; y < FISHEYE_OUT_H; y++) {{\n\
         \x20       const float *row_sx = map_sx + (size_t)y * FISHEYE_OUT_W;\n\
         \x20       const float *row_sy = map_sy + (size_t)y * FISHEYE_OUT_W;\n\
         \x20       uint32_t x = 0;\n\
         \x20       for (; x + 4 <= FISHEYE_OUT_W; x += 4) {{\n\
         \x20           for (uint32_t l = 0; l < 4; l++) {{\n\
         \x20               uint32_t xl = x + l;\n\
         \x20               size_t idx = (size_t)y * FISHEYE_OUT_W + xl;\n\
         \x20               float sx = row_sx[xl];\n\
         \x20               float sy = row_sy[xl];\n{}\
         \x20           }}\n\
         \x20       }}\n\
         \x20       for (; x < FISHEYE_OUT_W; x++) {{\n\
         \x20           size_t idx = (size_t)y * FISHEYE_OUT_W + x;\n\
         \x20           float sx = row_sx[x];\n\
         \x20           float sy = row_sy[x];\n{}\
         \x20       }}\n\
         \x20   }}\n\
         }}\n",
        ir.name,
        post_params(ir),
        lane_body(ir, "xl"),
        lane_body(ir, "x"),
    ));
}

fn post_params(ir: &KernelIr) -> &'static str {
    if ir.fused_post {
        ",\n        const float *post_table, uint32_t post_dither,\n        uint32_t dither_x, uint32_t dither_y"
    } else {
        ""
    }
}

fn lane_body(ir: &KernelIr, x_name: &str) -> String {
    let mut b = String::new();
    let mut tmp = String::new();
    // Reuse the op walker with the lane's x spelled per loop level.
    body_ops(
        &mut tmp,
        ir,
        "fisheye_sample(src, sx, sy)",
        "sx == sx /* NaN marks gaps */",
    );
    for line in tmp.lines() {
        b.push_str("    ");
        b.push_str(&line.replace("(v, x, y,", &format!("(v, {x_name}, y,")));
        b.push('\n');
    }
    b
}

fn fixed_kernel(s: &mut String, ir: &KernelIr, frac_bits: u32) {
    s.push_str(&format!(
        "/* Quantized LUT entry: top-left texel + Q0.{frac_bits} weights.\n\
         \x20* x0 == INT16_MIN marks a gap. 8 bytes, DMA-friendly. */\n\
         typedef struct {{\n\
         \x20   int16_t x0, y0;\n\
         \x20   uint16_t wx, wy;\n\
         }} fisheye_fixed_entry;\n\n\
         /* Integer bilinear, two lerp stages in a 64-bit accumulator\n\
         \x20* (Q8.{} needs up to 39 bits — a hardware port provisions a\n\
         \x20* 40-bit DSP accumulator), round-to-nearest at the end. */\n\
         static inline uint8_t fisheye_sample_fixed(const uint8_t *src, fisheye_fixed_entry e) {{\n\
         \x20   uint64_t one = 1ull << {frac_bits};\n\
         \x20   uint64_t wx = e.wx;\n\
         \x20   uint64_t wy = e.wy;\n\
         \x20   uint64_t p00 = fisheye_load_src(src, e.x0, e.y0);\n\
         \x20   uint64_t p10 = fisheye_load_src(src, e.x0 + 1, e.y0);\n\
         \x20   uint64_t p01 = fisheye_load_src(src, e.x0, e.y0 + 1);\n\
         \x20   uint64_t p11 = fisheye_load_src(src, e.x0 + 1, e.y0 + 1);\n\
         \x20   uint64_t top = p00 * (one - wx) + p10 * wx;\n\
         \x20   uint64_t bot = p01 * (one - wx) + p11 * wx;\n\
         \x20   uint64_t acc = top * (one - wy) + bot * wy;\n\
         \x20   unsigned shift = {};\n\
         \x20   uint64_t round = shift ? (1ull << (shift - 1)) : 0;\n\
         \x20   return (uint8_t)((acc + round) >> shift);\n\
         }}\n\n",
        2 * frac_bits,
        2 * frac_bits,
    ));
    s.push_str(&format!(
        "void {}(const fisheye_fixed_entry *map,\n\
         \x20        const uint8_t *src, uint8_t *dst{}) {{\n\
         \x20   for (uint32_t y = 0; y < FISHEYE_OUT_H; y++) {{\n\
         \x20       for (uint32_t x = 0; x < FISHEYE_OUT_W; x++) {{\n\
         \x20           size_t idx = (size_t)y * FISHEYE_OUT_W + x;\n\
         \x20           fisheye_fixed_entry e = map[idx];\n{}\
         \x20       }}\n\
         \x20   }}\n\
         }}\n",
        ir.name,
        post_params(ir),
        fixed_lane_body(ir),
    ));
}

fn fixed_lane_body(ir: &KernelIr) -> String {
    let mut b = String::new();
    body_ops(
        &mut b,
        ir,
        "fisheye_sample_fixed(src, e)",
        "e.x0 != INT16_MIN",
    );
    b
}
