/* fisheye_remap_bilinear — generated by fisheye-codegen (do not edit)
 * plan: 0x65e94cfd8c6661ab
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

/* A texel's channel value in [0, 1] (channel_f32 on the host). */
static inline float fisheye_chan(const uint8_t *src, int64_t x, int64_t y) {
    return (float)fisheye_load_src(src, x, y) / 255.0f;
}

/* Clamp to [0, 1] and round to a byte (quantize_u8 on the host). */
static inline uint8_t fisheye_quantize(float v) {
    if (v < 0.0f) v = 0.0f;
    if (v > 1.0f) v = 1.0f;
    return (uint8_t)(v * 255.0f + 0.5f);
}

static inline uint8_t fisheye_sample(const uint8_t *src, float sx, float sy) {
    float fx = sx - 0.5f;
    float fy = sy - 0.5f;
    float x0 = floorf(fx);
    float y0 = floorf(fy);
    float wx = fx - x0;
    float wy = fy - y0;
    int64_t ix = (int64_t)x0;
    int64_t iy = (int64_t)y0;
    float p00 = fisheye_chan(src, ix, iy);
    float p10 = fisheye_chan(src, ix + 1, iy);
    float p01 = fisheye_chan(src, ix, iy + 1);
    float p11 = fisheye_chan(src, ix + 1, iy + 1);
    float top = p00 * (1.0f - wx) + p10 * wx;
    float bot = p01 * (1.0f - wx) + p11 * wx;
    return fisheye_quantize(top * (1.0f - wy) + bot * wy);
}

/* Row loop in the SoA-SIMD shape: the inner body is unrolled
 * 4-wide by the remainder split so an autovectorizer (or a
 * hand-intrinsics port) can widen it. */
void fisheye_remap_bilinear(const float *map_sx, const float *map_sy,
         const uint8_t *src, uint8_t *dst,
        const float *post_table, uint32_t post_dither,
        uint32_t dither_x, uint32_t dither_y) {
    for (uint32_t y = 0; y < FISHEYE_OUT_H; y++) {
        const float *row_sx = map_sx + (size_t)y * FISHEYE_OUT_W;
        const float *row_sy = map_sy + (size_t)y * FISHEYE_OUT_W;
        uint32_t x = 0;
        for (; x + 4 <= FISHEYE_OUT_W; x += 4) {
            for (uint32_t l = 0; l < 4; l++) {
                uint32_t xl = x + l;
                size_t idx = (size_t)y * FISHEYE_OUT_W + xl;
                float sx = row_sx[xl];
                float sy = row_sy[xl];
                /* ValidCheck + Gather + Sample */
                uint8_t v = 0;
                if (sx == sx /* NaN marks gaps */) v = fisheye_sample(src, sx, sy);
                /* FillGap: v stays 0 (black) for gap lanes */
                /* Post (fused; covers gap lanes too) */
                if (post_table) v = fisheye_post(v, xl, y, post_table, post_dither, dither_x, dither_y);
                /* Store */
                dst[idx] = v;
            }
        }
        for (; x < FISHEYE_OUT_W; x++) {
            size_t idx = (size_t)y * FISHEYE_OUT_W + x;
            float sx = row_sx[x];
            float sy = row_sy[x];
                /* ValidCheck + Gather + Sample */
                uint8_t v = 0;
                if (sx == sx /* NaN marks gaps */) v = fisheye_sample(src, sx, sy);
                /* FillGap: v stays 0 (black) for gap lanes */
                /* Post (fused; covers gap lanes too) */
                if (post_table) v = fisheye_post(v, x, y, post_table, post_dither, dither_x, dither_y);
                /* Store */
                dst[idx] = v;
        }
    }
}
