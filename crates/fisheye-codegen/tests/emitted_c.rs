//! The emitted C kernels compile and run bit-exact with the host
//! references. Each test emits a kernel, writes it beside a small
//! `main` driver, the plan's coordinate planes (or quantized LUT) and
//! a random gray source into its own temporary directory, builds the
//! driver with `cc -std=c99 -O2 -ffp-contract=off` (contracting
//! multiply-adds into FMAs would change float rounding) and compares
//! the kernel's output with `correct_plan` or `correct_fixed`, pixel
//! for pixel. The fused post stage is off (`post_table` NULL) except in
//! the graded cases, which hand the `simt:64` bilinear and `fixed_q12`
//! kernels a stage whose transfer table has fractional entries, with
//! and without dither, and compare with the host reference graded row
//! by row.
//!
//! The kernel source opens the driver's translation unit, so it must
//! be self-contained: nothing it uses can come from the driver's own
//! includes. Without a `cc` on the path each test prints why and
//! passes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use fisheye_codegen::{emit_kernel, lower, KernelTarget};
use fisheye_core::engine::EngineSpec;
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{
    correct_fixed, correct_plan, DitherSeed, Interpolator, Lut3d, PostChannel, PostPlan, PostStage,
    RemapMap,
};
use fisheye_geom::{FisheyeLens, PerspectiveView};
use pixmap::{Gray8, Image};

/// `(source w, h, lens fov, output w, h, view fov)`: the snapshot
/// geometry, and a smaller one whose wide view leaves invalid corners.
const GEOMETRIES: [(u32, u32, f64, u32, u32, f64); 2] = [
    (320, 240, 180.0, 160, 120, 90.0),
    (96, 72, 160.0, 64, 48, 150.0),
];

const FRAC_BITS: u32 = 12;

fn cc_available() -> bool {
    match Command::new("cc").arg("--version").output() {
        Ok(out) => out.status.success(),
        Err(_) => false,
    }
}

/// A fresh temporary directory for one test and geometry.
fn scratch_dir(test: &str, geometry: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fisheye-emitted-c-{}-{test}-{geometry}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn plan_and_source(
    (sw, sh, lens_fov, ow, oh, view_fov): (u32, u32, f64, u32, u32, f64),
    seed: u64,
) -> (RemapPlan, Image<Gray8>) {
    let lens = FisheyeLens::equidistant_fov(sw, sh, lens_fov);
    let view = PerspectiveView::centered(ow, oh, view_fov);
    let map = RemapMap::build(&lens, &view, sw, sh);
    let plan = RemapPlan::compile(
        &map,
        PlanOptions {
            frac_bits: vec![FRAC_BITS],
            ..PlanOptions::default()
        },
    );
    (plan, pixmap::scene::random_gray(sw, sh, seed))
}

/// Write `main.c` around the kernel (already in `dir/kernel.c`), build
/// it, run it in `dir` and return the bytes it wrote.
fn build_and_run(dir: &Path, map_decl: &str, call: &str, out_len: usize) -> Vec<u8> {
    let driver = format!(
        "#include \"kernel.c\"\n\
         #include <stdio.h>\n\
         #include <stdlib.h>\n\n\
         static void *slurp(const char *path, size_t bytes) {{\n\
         \x20   FILE *f = fopen(path, \"rb\");\n\
         \x20   void *buf = malloc(bytes ? bytes : 1);\n\
         \x20   if (!f || !buf || fread(buf, 1, bytes, f) != bytes) {{\n\
         \x20       fprintf(stderr, \"cannot read %zu bytes of %s\\n\", bytes, path);\n\
         \x20       exit(2);\n\
         \x20   }}\n\
         \x20   fclose(f);\n\
         \x20   return buf;\n\
         }}\n\n\
         int main(void) {{\n\
         \x20   size_t n_out = (size_t)FISHEYE_OUT_W * FISHEYE_OUT_H;\n\
         \x20   size_t n_src = (size_t)FISHEYE_SRC_W * FISHEYE_SRC_H;\n\
         \x20   {map_decl}\n\
         \x20   const uint8_t *src = slurp(\"src.bin\", n_src);\n\
         \x20   uint8_t *dst = calloc(n_out, 1);\n\
         \x20   if (!dst) return 2;\n\
         \x20   {call};\n\
         \x20   FILE *f = fopen(\"out.bin\", \"wb\");\n\
         \x20   if (!f || fwrite(dst, 1, n_out, f) != n_out) return 2;\n\
         \x20   fclose(f);\n\
         \x20   return 0;\n\
         }}\n"
    );
    fs::write(dir.join("main.c"), driver).expect("write driver");
    let build = Command::new("cc")
        .current_dir(dir)
        .args([
            "-std=c99",
            "-O2",
            "-ffp-contract=off",
            "-o",
            "kernel_run",
            "main.c",
            "-lm",
        ])
        .output()
        .expect("spawn cc");
    assert!(
        build.status.success(),
        "cc failed on the emitted kernel:\n{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let run = Command::new(dir.join("kernel_run"))
        .current_dir(dir)
        .output()
        .expect("spawn kernel driver");
    assert!(
        run.status.success(),
        "kernel driver failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = fs::read(dir.join("out.bin")).expect("read kernel output");
    assert_eq!(out.len(), out_len, "kernel output size");
    out
}

fn pixels(img: &Image<Gray8>) -> Vec<u8> {
    img.pixels().iter().map(|p| p.0).collect()
}

/// The graded stage: builtin `warm` at strength 0.6, whose transfer
/// table has fractional entries, dithered or not.
fn graded(dither: bool) -> PostPlan {
    let warm = Lut3d::builtin("warm").expect("builtin LUT");
    let mut stage = PostStage::identity().with_grade(Arc::new(warm), 0.6);
    if dither {
        stage = stage.with_dither(DitherSeed(7));
    }
    let pp = stage.compile(PostChannel::Luma);
    assert!(pp.table().iter().any(|v| v.fract() != 0.0));
    pp
}

/// The post arguments of a fused kernel's call: `post_table` NULL
/// without a stage, else the stage's f32 transfer table (written to
/// `post.bin` and loaded by the returned declaration), whether it
/// dithers, and its dither offsets.
fn post_args(dir: &Path, post: Option<&PostPlan>) -> (String, String) {
    let Some(pp) = post else {
        return (String::new(), ", NULL, 0, 0, 0".into());
    };
    let table: Vec<u8> = pp.table().iter().flat_map(|v| v.to_ne_bytes()).collect();
    fs::write(dir.join("post.bin"), table).expect("write post table");
    let (dither, (dx, dy)) = pp.dither().map_or((0, (0, 0)), |off| (1, off));
    (
        "\n    const float *post_table = slurp(\"post.bin\", 256 * sizeof(float));".into(),
        format!(", post_table, {dither}u, {dx}u, {dy}u"),
    )
}

/// `reference` graded row by row with `post`, as the host engines do.
fn graded_pixels(mut reference: Image<Gray8>, post: Option<&PostPlan>) -> Vec<u8> {
    if let Some(pp) = post {
        for y in 0..reference.height() {
            pp.apply_row(reference.row_mut(y), y);
        }
    }
    pixels(&reference)
}

/// Emit the float kernel for `interp` on a `simt` spec, run it on every
/// geometry with the fused post stage `post` (off when `None`) and
/// compare it with `correct_plan`, graded by `post`.
fn check_float_kernel(test: &str, interp: Interpolator, post: Option<&PostPlan>) {
    if !cc_available() {
        println!("{test}: skipped, no `cc` on the path to build the emitted C");
        return;
    }
    let spec = EngineSpec::Simt { workgroup: 64 };
    for (gi, &geometry) in GEOMETRIES.iter().enumerate() {
        let (plan, src) = plan_and_source(geometry, 11 + gi as u64);
        let kernel = emit_kernel(&plan, &spec, interp, KernelTarget::C).expect("emit C");
        assert!(lower(&plan, &spec, interp).expect("lower").fused_post);
        let dir = scratch_dir(test, gi);
        fs::write(dir.join("kernel.c"), &kernel.source).expect("write kernel");
        let plane = |row: fn(&RemapPlan, u32) -> &[f32]| -> Vec<u8> {
            (0..plan.height())
                .flat_map(|y| row(&plan, y).iter().flat_map(|v| v.to_ne_bytes()))
                .collect()
        };
        fs::write(dir.join("sx.bin"), plane(RemapPlan::row_sx)).expect("write sx");
        fs::write(dir.join("sy.bin"), plane(RemapPlan::row_sy)).expect("write sy");
        fs::write(dir.join("src.bin"), pixels(&src)).expect("write source");
        let (post_decl, post_call) = post_args(&dir, post);
        let got = build_and_run(
            &dir,
            &format!(
                "const float *sx = slurp(\"sx.bin\", n_out * sizeof(float));\n\
                 \x20   const float *sy = slurp(\"sy.bin\", n_out * sizeof(float));{post_decl}"
            ),
            &format!("{}(sx, sy, src, dst{post_call})", kernel.name),
            (plan.width() * plan.height()) as usize,
        );
        let want = graded_pixels(correct_plan(&src, &plan, interp), post);
        let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert_eq!(
            differ, 0,
            "{test}: {differ} pixels differ from correct_plan on geometry {gi}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Emit the `fixed_q12` kernel, run it on every geometry with the
/// fused post stage `post` (off when `None`) and compare it with
/// `correct_fixed`, graded by `post`.
fn check_fixed_kernel(test: &str, post: Option<&PostPlan>) {
    if !cc_available() {
        println!("{test}: skipped, no `cc` on the path to build the emitted C");
        return;
    }
    let spec = EngineSpec::FixedPoint {
        frac_bits: FRAC_BITS,
    };
    for (gi, &geometry) in GEOMETRIES.iter().enumerate() {
        let (plan, src) = plan_and_source(geometry, 21 + gi as u64);
        let kernel =
            emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::C).expect("emit C");
        assert!(
            lower(&plan, &spec, Interpolator::Bilinear)
                .expect("lower")
                .fused_post
        );
        let lut = plan.fixed(FRAC_BITS).expect("compiled LUT");
        let dir = scratch_dir(test, gi);
        fs::write(dir.join("kernel.c"), &kernel.source).expect("write kernel");
        // the kernel's 8-byte entry: x0, y0 (int16), wx, wy (uint16)
        let entries: Vec<u8> = (0..plan.height())
            .flat_map(|y| (0..plan.width()).map(move |x| (x, y)))
            .flat_map(|(x, y)| {
                let e = lut.entry(x, y);
                [
                    e.x0.to_ne_bytes(),
                    e.y0.to_ne_bytes(),
                    e.wx.to_ne_bytes(),
                    e.wy.to_ne_bytes(),
                ]
                .concat()
            })
            .collect();
        fs::write(dir.join("lut.bin"), entries).expect("write LUT");
        fs::write(dir.join("src.bin"), pixels(&src)).expect("write source");
        let (post_decl, post_call) = post_args(&dir, post);
        let got = build_and_run(
            &dir,
            &format!(
                "if (sizeof(fisheye_fixed_entry) != 8) return 3;\n\
                 \x20   const fisheye_fixed_entry *map =\n\
                 \x20       slurp(\"lut.bin\", n_out * sizeof(fisheye_fixed_entry));{post_decl}"
            ),
            &format!("{}(map, src, dst{post_call})", kernel.name),
            (plan.width() * plan.height()) as usize,
        );
        let want = graded_pixels(correct_fixed(&src, lut), post);
        let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert_eq!(
            differ, 0,
            "{test}: {differ} pixels differ from correct_fixed on geometry {gi}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn emitted_c_nearest_matches_correct_plan() {
    check_float_kernel("nearest", Interpolator::Nearest, None);
}

#[test]
fn emitted_c_bilinear_matches_correct_plan() {
    check_float_kernel("bilinear", Interpolator::Bilinear, None);
}

#[test]
fn emitted_c_bicubic_matches_correct_plan() {
    check_float_kernel("bicubic", Interpolator::Bicubic, None);
}

#[test]
fn emitted_c_fixed_q12_matches_correct_fixed() {
    check_fixed_kernel("fixed_q12", None);
}

#[test]
fn emitted_c_bilinear_grades_as_the_host() {
    check_float_kernel(
        "bilinear_graded",
        Interpolator::Bilinear,
        Some(&graded(false)),
    );
    check_float_kernel(
        "bilinear_dithered",
        Interpolator::Bilinear,
        Some(&graded(true)),
    );
}

#[test]
fn emitted_c_fixed_q12_grades_as_the_host() {
    check_fixed_kernel("fixed_q12_graded", Some(&graded(false)));
    check_fixed_kernel("fixed_q12_dithered", Some(&graded(true)));
}
