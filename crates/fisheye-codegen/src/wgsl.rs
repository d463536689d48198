//! WGSL compute emitter: renders the kernel IR as a WGSL compute
//! shader, one workgroup per output tile (workgroup = tile, one warp
//! of the `@workgroup_size(32, H, 1)` grid per tile row). The float
//! samplers and the fused post compute as the C emitter's do, which
//! the C harness runs bit-exact against the host: channels in [0, 1],
//! the host's expression order and quantizer, and the post stage's f32
//! transfer table with dither only when the stage dithers. No WGSL
//! runtime checks the shader; the emitted text is pinned by golden
//! snapshot tests keyed to the plan digest.

use crate::ir::{KernelIr, KernelOp, SampleMode};

/// Render `ir` as a WGSL compute shader module.
pub fn emit(ir: &KernelIr) -> String {
    let mut s = String::new();
    header(&mut s, ir);
    params(&mut s, ir);
    bindings(&mut s, ir);
    load_src(&mut s);
    sampler(&mut s, ir);
    if ir.fused_post {
        post_fns(&mut s, ir);
    }
    entry(&mut s, ir);
    s
}

fn header(s: &mut String, ir: &KernelIr) {
    s.push_str(&format!(
        "// {} — generated by fisheye-codegen (do not edit)\n\
         // plan: 0x{:016x}\n\
         // out: {}x{}  src: {}x{}  workgroup: {}x{}  fused_post: {}\n\n",
        ir.name,
        ir.plan_digest,
        ir.out_dims.0,
        ir.out_dims.1,
        ir.src_dims.0,
        ir.src_dims.1,
        ir.workgroup.0,
        ir.workgroup.1,
        if ir.fused_post { "yes" } else { "no" },
    ));
    s.push_str("// Pixels travel as one f32 per texel holding a byte value (0..255).\n\n");
}

fn params(s: &mut String, ir: &KernelIr) {
    s.push_str(
        "struct Params {\n    out_w: u32,\n    out_h: u32,\n    src_w: u32,\n    src_h: u32,\n",
    );
    if ir.fused_post {
        s.push_str(
            "    post_enabled: u32,\n    dither_enabled: u32,\n    dither_x: u32,\n    dither_y: u32,\n",
        );
    }
    s.push_str("}\n\n");
}

fn bindings(s: &mut String, ir: &KernelIr) {
    s.push_str("@group(0) @binding(0) var<uniform> params: Params;\n");
    if matches!(ir.sample, SampleMode::FixedLut { .. }) {
        s.push_str(
            "// Quantized LUT entries, 8 bytes each packed as two u32:\n\
             // e.x = x0 | (y0 << 16) (two's-complement i16 halves,\n\
             // x0 == -32768 marks a gap), e.y = wx | (wy << 16).\n\
             @group(0) @binding(1) var<storage, read> map_fixed: array<vec2<u32>>;\n",
        );
    } else {
        s.push_str(
            "// SoA remap planes; invalid output pixels carry NaN.\n\
             @group(0) @binding(1) var<storage, read> map_sx: array<f32>;\n\
             @group(0) @binding(2) var<storage, read> map_sy: array<f32>;\n",
        );
    }
    let next = if matches!(ir.sample, SampleMode::FixedLut { .. }) {
        2
    } else {
        3
    };
    s.push_str(&format!(
        "@group(0) @binding({next}) var<storage, read> src_px: array<f32>;\n\
         @group(0) @binding({}) var<storage, read_write> dst_px: array<f32>;\n",
        next + 1,
    ));
    if ir.fused_post {
        s.push_str(&format!(
            "// 255-domain transfer table of the compiled post stage.\n\
             @group(0) @binding({}) var<storage, read> post_table: array<f32, 256>;\n",
            next + 2,
        ));
    }
    s.push('\n');
}

fn load_src(s: &mut String) {
    s.push_str(
        "// Border-clamped source fetch (pixel_clamped on the host).\n\
         fn load_src(x: i32, y: i32) -> f32 {\n\
         \x20   let cx = clamp(x, 0, i32(params.src_w) - 1);\n\
         \x20   let cy = clamp(y, 0, i32(params.src_h) - 1);\n\
         \x20   return src_px[u32(cy) * params.src_w + u32(cx)];\n\
         }\n\n",
    );
}

fn sampler(s: &mut String, ir: &KernelIr) {
    if matches!(ir.sample, SampleMode::Bilinear | SampleMode::Bicubic) {
        // the C samplers' channel reads and quantizer, op for op
        s.push_str(
            "// A texel's channel value in [0, 1] (channel_f32 on the host).\n\
             fn load_chan(x: i32, y: i32) -> f32 {\n\
             \x20   return load_src(x, y) / 255.0;\n\
             }\n\n\
             // Clamp to [0, 1] and round to a byte value (quantize_u8 on the host).\n\
             fn quantize(v: f32) -> f32 {\n\
             \x20   return floor(clamp(v, 0.0, 1.0) * 255.0 + 0.5);\n\
             }\n\n",
        );
    }
    match ir.sample {
        SampleMode::Nearest => s.push_str(
            "fn sample_px(sx: f32, sy: f32) -> f32 {\n\
             \x20   return load_src(i32(floor(sx)), i32(floor(sy)));\n\
             }\n\n",
        ),
        SampleMode::Bilinear => s.push_str(
            "fn sample_px(sx: f32, sy: f32) -> f32 {\n\
             \x20   let fx = sx - 0.5;\n\
             \x20   let fy = sy - 0.5;\n\
             \x20   let x0 = floor(fx);\n\
             \x20   let y0 = floor(fy);\n\
             \x20   let wx = fx - x0;\n\
             \x20   let wy = fy - y0;\n\
             \x20   let ix = i32(x0);\n\
             \x20   let iy = i32(y0);\n\
             \x20   let p00 = load_chan(ix, iy);\n\
             \x20   let p10 = load_chan(ix + 1, iy);\n\
             \x20   let p01 = load_chan(ix, iy + 1);\n\
             \x20   let p11 = load_chan(ix + 1, iy + 1);\n\
             \x20   let top = p00 * (1.0 - wx) + p10 * wx;\n\
             \x20   let bot = p01 * (1.0 - wx) + p11 * wx;\n\
             \x20   return quantize(top * (1.0 - wy) + bot * wy);\n\
             }\n\n",
        ),
        SampleMode::Bicubic => s.push_str(
            "fn catmull_rom(t: f32) -> f32 {\n\
             \x20   let a = abs(t);\n\
             \x20   if (a < 1.0) { return 1.5 * a * a * a - 2.5 * a * a + 1.0; }\n\
             \x20   if (a < 2.0) { return -0.5 * a * a * a + 2.5 * a * a - 4.0 * a + 2.0; }\n\
             \x20   return 0.0;\n\
             }\n\n\
             fn sample_px(sx: f32, sy: f32) -> f32 {\n\
             \x20   let fx = sx - 0.5;\n\
             \x20   let fy = sy - 0.5;\n\
             \x20   let x0 = floor(fx);\n\
             \x20   let y0 = floor(fy);\n\
             \x20   let tx = fx - x0;\n\
             \x20   let ty = fy - y0;\n\
             \x20   let ix = i32(x0);\n\
             \x20   let iy = i32(y0);\n\
             \x20   var wx = array<f32, 4>(catmull_rom(tx + 1.0), catmull_rom(tx),\n\
             \x20                          catmull_rom(tx - 1.0), catmull_rom(tx - 2.0));\n\
             \x20   var wy = array<f32, 4>(catmull_rom(ty + 1.0), catmull_rom(ty),\n\
             \x20                          catmull_rom(ty - 1.0), catmull_rom(ty - 2.0));\n\
             \x20   var acc = 0.0;\n\
             \x20   for (var j = 0; j < 4; j = j + 1) {\n\
             \x20       var row = 0.0;\n\
             \x20       for (var i = 0; i < 4; i = i + 1) {\n\
             \x20           row = row + load_chan(ix - 1 + i, iy - 1 + j) * wx[i];\n\
             \x20       }\n\
             \x20       acc = acc + row * wy[j];\n\
             \x20   }\n\
             \x20   return quantize(acc);\n\
             }\n\n",
        ),
        SampleMode::FixedLut { frac_bits } => s.push_str(&format!(
            "// Integer bilinear through the prequantized Q0.{frac_bits} LUT.\n\
             // The host accumulates in 64 bits (Q8.{} needs up to 39 bits);\n\
             // u32 suffices here only up to q12 — wider weights need a\n\
             // split accumulator on a real device.\n\
             fn sample_px(e: vec2<u32>) -> f32 {{\n\
             \x20   let x0 = i32(e.x << 16u) >> 16u;\n\
             \x20   let y0 = i32(e.x) >> 16u;\n\
             \x20   let wx = e.y & 0xffffu;\n\
             \x20   let wy = e.y >> 16u;\n\
             \x20   let one = 1u << {frac_bits}u;\n\
             \x20   let p00 = u32(load_src(x0, y0));\n\
             \x20   let p10 = u32(load_src(x0 + 1, y0));\n\
             \x20   let p01 = u32(load_src(x0, y0 + 1));\n\
             \x20   let p11 = u32(load_src(x0 + 1, y0 + 1));\n\
             \x20   let top = p00 * (one - wx) + p10 * wx;\n\
             \x20   let bot = p01 * (one - wx) + p11 * wx;\n\
             \x20   let acc = top * (one - wy) + bot * wy;\n\
             \x20   let shift = {}u;\n\
             \x20   var round = 0u;\n\
             \x20   if (shift > 0u) {{ round = 1u << (shift - 1u); }}\n\
             \x20   return f32((acc + round) >> shift);\n\
             }}\n\n",
            2 * frac_bits,
            2 * frac_bits,
        )),
    }
}

fn post_fns(s: &mut String, _ir: &KernelIr) {
    s.push_str(
        "// Interleaved-gradient-noise dither, same constants as the\n\
         // host post stage.\n\
         fn ign(x: f32, y: f32) -> f32 {\n\
         \x20   return fract(52.982918 * fract(0.06711056 * x + 0.00583715 * y));\n\
         }\n\n\
         // The host's post grade: the transfer table, plus the dither\n\
         // offset when the stage dithers, rounded to a byte value.\n\
         fn post_apply(v: f32, x: u32, y: u32) -> f32 {\n\
         \x20   var t = post_table[u32(clamp(v, 0.0, 255.0))];\n\
         \x20   if (params.dither_enabled != 0u) {\n\
         \x20       t = t + (ign(f32(x + params.dither_x), f32(y + params.dither_y)) - 0.5) * 0.95;\n\
         \x20   }\n\
         \x20   return clamp(floor(t + 0.5), 0.0, 255.0);\n\
         }\n\n",
    );
}

fn entry(s: &mut String, ir: &KernelIr) {
    s.push_str(&format!(
        "@compute @workgroup_size({}, {}, 1)\n\
         fn {}(@builtin(global_invocation_id) gid: vec3<u32>) {{\n\
         \x20   let x = gid.x;\n\
         \x20   let y = gid.y;\n\
         \x20   if (x >= params.out_w || y >= params.out_h) {{ return; }}\n\
         \x20   let idx = y * params.out_w + x;\n",
        ir.workgroup.0, ir.workgroup.1, ir.name,
    ));
    for op in &ir.ops {
        match *op {
            KernelOp::LoadCoords => {
                if matches!(ir.sample, SampleMode::FixedLut { .. }) {
                    s.push_str("    // LoadCoords\n    let e = map_fixed[idx];\n");
                } else {
                    s.push_str(
                        "    // LoadCoords\n    let sx = map_sx[idx];\n    let sy = map_sy[idx];\n",
                    );
                }
            }
            KernelOp::ValidCheck => {
                if matches!(ir.sample, SampleMode::FixedLut { .. }) {
                    s.push_str(
                        "    // ValidCheck: x0 == i16::MIN marks a gap\n\
                         \x20   let lane_valid = (i32(e.x << 16u) >> 16u) != -32768;\n",
                    );
                } else {
                    s.push_str(
                        "    // ValidCheck: invalid coords are NaN-encoded (NaN != NaN)\n\
                         \x20   let lane_valid = !(sx != sx);\n",
                    );
                }
                s.push_str("    var v: f32;\n");
            }
            KernelOp::Gather { .. } => {
                // Gather + Sample fold into one guarded call: the
                // sample function performs its own taps.
                if matches!(ir.sample, SampleMode::FixedLut { .. }) {
                    s.push_str(
                        "    // Gather + Sample\n    if (lane_valid) { v = sample_px(e); }\n",
                    );
                } else {
                    s.push_str(
                        "    // Gather + Sample\n    if (lane_valid) { v = sample_px(sx, sy); }\n",
                    );
                }
            }
            KernelOp::Sample(_) => {}
            KernelOp::FillGap => {
                s.push_str("    // FillGap\n    if (!lane_valid) { v = 0.0; }\n");
            }
            KernelOp::Post => {
                s.push_str(
                    "    // Post (fused; covers gap lanes too, like the host)\n\
                     \x20   if (params.post_enabled != 0u) { v = post_apply(v, x, y); }\n",
                );
            }
            KernelOp::Store => {
                s.push_str("    // Store\n    dst_px[idx] = v;\n");
            }
        }
    }
    s.push_str("}\n");
}
