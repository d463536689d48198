/* fisheye_remap_fixed_q12 — generated by fisheye-codegen (do not edit)
 * plan: 0x89339ad58d1b838a
 * out: 160x120  src: 320x240  tile: 32x8  fused_post: yes
 */
#include <stddef.h>
#include <stdint.h>
#include <math.h>

#define FISHEYE_OUT_W 160u
#define FISHEYE_OUT_H 120u
#define FISHEYE_SRC_W 320u
#define FISHEYE_SRC_H 240u

/* Border-clamped source fetch (pixel_clamped on the host). */
static inline uint8_t fisheye_load_src(const uint8_t *src, int64_t x, int64_t y) {
    if (x < 0) x = 0;
    if (x >= (int64_t)FISHEYE_SRC_W) x = (int64_t)FISHEYE_SRC_W - 1;
    if (y < 0) y = 0;
    if (y >= (int64_t)FISHEYE_SRC_H) y = (int64_t)FISHEYE_SRC_H - 1;
    return src[(size_t)y * FISHEYE_SRC_W + (size_t)x];
}

/* Interleaved-gradient-noise dither, same constants as the host
 * post stage. */
static inline float fisheye_ign(float x, float y) {
    float t = 0.06711056f * x + 0.00583715f * y;
    t = t - floorf(t);
    t = 52.982918f * t;
    return t - floorf(t);
}

/* The host's post grade: the stage's 255-domain transfer table,
 * plus the dither offset when the stage dithers, rounded to a
 * byte. Pass table == NULL to disable the stage. */
static inline uint8_t fisheye_post(uint8_t v, uint32_t x, uint32_t y,
                                   const float *table, uint32_t dither,
                                   uint32_t dither_x, uint32_t dither_y) {
    float out = table[v];
    if (dither) out = out + (fisheye_ign((float)(x + dither_x), (float)(y + dither_y)) - 0.5f) * 0.95f;
    if (out < 0.0f) out = 0.0f;
    if (out > 255.0f) out = 255.0f;
    return (uint8_t)(out + 0.5f);
}

/* Quantized LUT entry: top-left texel + Q0.12 weights.
 * x0 == INT16_MIN marks a gap. 8 bytes, DMA-friendly. */
typedef struct {
    int16_t x0, y0;
    uint16_t wx, wy;
} fisheye_fixed_entry;

/* Integer bilinear, two lerp stages in a 64-bit accumulator
 * (Q8.24 needs up to 39 bits — a hardware port provisions a
 * 40-bit DSP accumulator), round-to-nearest at the end. */
static inline uint8_t fisheye_sample_fixed(const uint8_t *src, fisheye_fixed_entry e) {
    uint64_t one = 1ull << 12;
    uint64_t wx = e.wx;
    uint64_t wy = e.wy;
    uint64_t p00 = fisheye_load_src(src, e.x0, e.y0);
    uint64_t p10 = fisheye_load_src(src, e.x0 + 1, e.y0);
    uint64_t p01 = fisheye_load_src(src, e.x0, e.y0 + 1);
    uint64_t p11 = fisheye_load_src(src, e.x0 + 1, e.y0 + 1);
    uint64_t top = p00 * (one - wx) + p10 * wx;
    uint64_t bot = p01 * (one - wx) + p11 * wx;
    uint64_t acc = top * (one - wy) + bot * wy;
    unsigned shift = 24;
    uint64_t round = shift ? (1ull << (shift - 1)) : 0;
    return (uint8_t)((acc + round) >> shift);
}

void fisheye_remap_fixed_q12(const fisheye_fixed_entry *map,
         const uint8_t *src, uint8_t *dst,
        const float *post_table, uint32_t post_dither,
        uint32_t dither_x, uint32_t dither_y) {
    for (uint32_t y = 0; y < FISHEYE_OUT_H; y++) {
        for (uint32_t x = 0; x < FISHEYE_OUT_W; x++) {
            size_t idx = (size_t)y * FISHEYE_OUT_W + x;
            fisheye_fixed_entry e = map[idx];
            /* ValidCheck + Gather + Sample */
            uint8_t v = 0;
            if (e.x0 != INT16_MIN) v = fisheye_sample_fixed(src, e);
            /* FillGap: v stays 0 (black) for gap lanes */
            /* Post (fused; covers gap lanes too) */
            if (post_table) v = fisheye_post(v, x, y, post_table, post_dither, dither_x, dither_y);
            /* Store */
            dst[idx] = v;
        }
    }
}
