//! Golden snapshot tests on the emitted kernel text. The emitters
//! must be deterministic functions of (plan, spec, target): any drift
//! in the generated WGSL/C shows up as a diff against the checked-in
//! snapshot and must be reviewed by regenerating with
//! `UPDATE_SNAPSHOTS=1 cargo test -p fisheye-codegen --test snapshots`.
//!
//! The snapshot plan is fixed (the DESIGN.md example geometry), and
//! every snapshot embeds the plan digest in its header, so a silent
//! change to plan compilation also fails here.

use std::fs;
use std::path::PathBuf;

use fisheye_codegen::{emit_kernel, lower, CodegenError, EmittedKernel, KernelTarget, SampleMode};
use fisheye_core::engine::EngineSpec;
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::{Interpolator, RemapMap};
use fisheye_geom::{FisheyeLens, PerspectiveView};

/// The fixed snapshot geometry: the same 320×240 → 160×120 equi-
/// distant setup the docs use everywhere. The plan holds no kernel;
/// every float snapshot lowers this one plan.
fn snapshot_plan(frac_bits: Option<u32>) -> RemapPlan {
    let lens = FisheyeLens::equidistant_fov(320, 240, 180.0);
    let view = PerspectiveView::centered(160, 120, 90.0);
    let map = RemapMap::build(&lens, &view, 320, 240);
    RemapPlan::compile(
        &map,
        PlanOptions {
            frac_bits: frac_bits.into_iter().collect(),
            ..PlanOptions::default()
        },
    )
}

fn snapshot_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots")
}

fn check_snapshot(kernel: &EmittedKernel, plan: &RemapPlan) {
    // Every emitted kernel is keyed to the plan it lowered from.
    let key = format!("plan: 0x{:016x}", plan.digest());
    assert!(
        kernel.source.contains(&key),
        "{}: emitted source lost its plan digest header ({key})",
        kernel.file_name()
    );
    let path = snapshot_dir().join(kernel.file_name());
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(snapshot_dir()).expect("create snapshot dir");
        fs::write(&path, &kernel.source).expect("write snapshot");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with UPDATE_SNAPSHOTS=1",
            path.display()
        )
    });
    assert_eq!(
        golden,
        kernel.source,
        "emitted {} drifted from its snapshot; review the diff and \
         regenerate with UPDATE_SNAPSHOTS=1 cargo test -p fisheye-codegen --test snapshots",
        kernel.file_name()
    );
}

#[test]
fn wgsl_bilinear_snapshot() {
    let plan = snapshot_plan(None);
    let spec = EngineSpec::Simt { workgroup: 256 };
    let kernel =
        emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::Wgsl).expect("emit");
    assert_eq!(kernel.name, "fisheye_remap_bilinear");
    assert_eq!(kernel.entry_point, kernel.name);
    assert_eq!(kernel.plan_digest, plan.digest());
    check_snapshot(&kernel, &plan);
}

#[test]
fn wgsl_bicubic_snapshot() {
    let plan = snapshot_plan(None);
    let spec = EngineSpec::Simt { workgroup: 256 };
    let kernel =
        emit_kernel(&plan, &spec, Interpolator::Bicubic, KernelTarget::Wgsl).expect("emit");
    assert_eq!(kernel.name, "fisheye_remap_bicubic");
    check_snapshot(&kernel, &plan);
}

#[test]
fn wgsl_fixed_lut_snapshot() {
    let plan = snapshot_plan(Some(12));
    let spec = EngineSpec::FixedPoint { frac_bits: 12 };
    let kernel =
        emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::Wgsl).expect("emit");
    assert_eq!(kernel.name, "fisheye_remap_fixed_q12");
    check_snapshot(&kernel, &plan);
}

#[test]
fn c_bilinear_snapshot() {
    let plan = snapshot_plan(None);
    let spec = EngineSpec::Simt { workgroup: 256 };
    let kernel = emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::C).expect("emit");
    assert_eq!(kernel.file_name(), "fisheye_remap_bilinear.c");
    check_snapshot(&kernel, &plan);
}

#[test]
fn c_fixed_lut_snapshot() {
    let plan = snapshot_plan(Some(12));
    let spec = EngineSpec::FixedPoint { frac_bits: 12 };
    let kernel = emit_kernel(&plan, &spec, Interpolator::Bilinear, KernelTarget::C).expect("emit");
    assert_eq!(kernel.file_name(), "fisheye_remap_fixed_q12.c");
    check_snapshot(&kernel, &plan);
}

#[test]
fn lowering_tracks_spec_datapath_and_tile_shape() {
    let plan = snapshot_plan(Some(10));
    // simd is locked to bilinear regardless of the kernel asked for.
    let ir = lower(&plan, &EngineSpec::Simd, Interpolator::Bicubic).expect("lower simd");
    assert_eq!(ir.sample, SampleMode::Bilinear);
    // fixed/cell lower to the LUT kernel at their own width.
    let ir = lower(
        &plan,
        &EngineSpec::Cell {
            tile_w: 64,
            tile_h: 16,
            double_buffer: true,
            frac_bits: 10,
        },
        Interpolator::Bicubic,
    )
    .expect("lower cell");
    assert_eq!(ir.sample, SampleMode::FixedLut { frac_bits: 10 });
    assert_eq!(ir.workgroup, (64, 16));
    // simt derives its tile from the workgroup: 32-wide warps.
    let ir = lower(
        &plan,
        &EngineSpec::Simt { workgroup: 96 },
        Interpolator::Bicubic,
    )
    .expect("lower simt");
    assert_eq!(ir.workgroup, (32, 3));
    assert_eq!(ir.sample, SampleMode::Bicubic);
    // serial lowers to the kernel it is handed and fuses post.
    let ir = lower(&plan, &EngineSpec::Serial, Interpolator::Nearest).expect("lower serial");
    assert_eq!(ir.sample, SampleMode::Nearest);
    assert!(ir.fused_post);
}

#[test]
fn direct_spec_has_no_plan_kernel() {
    let plan = snapshot_plan(None);
    let err = emit_kernel(
        &plan,
        &EngineSpec::Direct,
        Interpolator::Bilinear,
        KernelTarget::Wgsl,
    )
    .expect_err("direct must not lower");
    match err {
        CodegenError::Unsupported { backend, reason } => {
            assert_eq!(backend, "direct");
            assert!(reason.contains("per pixel"), "reason: {reason}");
        }
        other => panic!("unexpected error variant: {other:?}"),
    }
}

#[test]
fn emission_is_deterministic() {
    let plan = snapshot_plan(None);
    let spec = EngineSpec::Simt { workgroup: 256 };
    for target in [KernelTarget::Wgsl, KernelTarget::C] {
        let a = emit_kernel(&plan, &spec, Interpolator::Bilinear, target).expect("emit a");
        let b = emit_kernel(&plan, &spec, Interpolator::Bilinear, target).expect("emit b");
        assert_eq!(a, b, "emission must be deterministic for {target}");
    }
}
