//! Subcommand implementations.

use std::sync::Arc;

use fisheye::Corrector;
use fisheye_core::engine::{EngineSpec, HostEnv};
use fisheye_core::frame::{Frame, FrameFormat};
use fisheye_core::plan::{PlanOptions, RemapPlan};
use fisheye_core::post::{DitherSeed, Lut3d, PostStage, ToneMap};
use fisheye_core::synth::{capture_fisheye, World};
use fisheye_core::{Interpolator, RemapMap};
use fisheye_geom::calib::{select_model, Observation};
use fisheye_geom::{FisheyeLens, OutputProjection, PerspectiveView};
use fisheye_serve::{
    pump_round, CameraFeed, Client, ClientEvent, NetServer, NetServerConfig, Server, ServerConfig,
    SessionConfig, SessionDesc,
};
use par_runtime::Schedule;
use pixmap::codec::{load_pgm, save_pgm};
use pixmap::{Gray8, Image};

use crate::args::{ArgError, Args};
use crate::error::{with_path, CliError};

/// Help text.
pub const USAGE: &str = "\
fisheye — fisheye lens distortion correction

USAGE:
  fisheye capture   --scene NAME --out FILE [--size WxH] [--fov DEG]
  fisheye correct   --in FILE --out FILE [--fov DEG] [--view-fov DEG]
                    [--pan DEG] [--tilt DEG] [--out-size WxH]
                    [--interp nearest|bilinear|bicubic]
                    [--format gray8|yuv420|rgb8]
                    [--backend NAME] [--threads N]
                    [--lut NAME|FILE.cube] [--grade-strength F]
                    [--tone-map linear|mcface] [--dither-seed N]
  fisheye panorama  --in FILE --out FILE [--mode cylindrical|equirect]
                    [--fov DEG] [--out-size WxH] [--threads N]
  fisheye stitch    --front FILE --back FILE --out FILE [--fov DEG]
                    [--out-size WxH]
  fisheye rectify   --left FILE --right FILE --out-left FILE
                    --out-right FILE [--fov DEG] [--separation M]
                    [--h-fov DEG] [--v-fov DEG] [--out-size WxH]
  fisheye calibrate --obs FILE          (CSV lines: theta_rad,radius_px)
  fisheye serve-sim [--sessions N] [--capacity N] [--views N] [--frames N]
                    [--size WxH] [--deadline-ms F] [--budget-ms F]
                    [--format gray8|yuv420|rgb8] [--churn N]
                    [--backend NAME] [--interp NAME] [--queue N] [--threads N]
                    [--lut NAME|FILE.cube] [--grade-strength F]
                    [--tone-map linear|mcface]
  fisheye serve     [--bind HOST:PORT] [--shards N] [--capacity N] [--queue N]
                    [--deadline-ms F] [--threads N]
                    [--for-ms N]      (0 = run until killed)
  fisheye client    --connect HOST:PORT [--frames N] [--size WxH]
                    [--view-size WxH] [--fov DEG] [--view-fov DEG]
                    [--pan DEG] [--tilt DEG] [--format gray8|yuv420|rgb8]
                    [--interp NAME] [--backend NAME] [--deadline-ms F]
                    [--seed N] [--churn N] [--out FILE]
  fisheye info      --in FILE
  fisheye backends                      (list correction backends)
  fisheye emit-kernel --out FILE|DIR [--target wgsl|c] [--size WxH]
                    [--out-size WxH] [--fov DEG] [--view-fov DEG]
                    [--pan DEG] [--tilt DEG] [--interp NAME]
                    [--backend NAME]
  fisheye help

Scenes: checker circles grid bricks text gradient sinusoid.
Backends: run `fisheye backends` for the registry; parameterized forms
like smp:dynamic:4, fixed:10, cell:64x32, gpu:512 are accepted too.
LUTs: builtin names (identity warm cool noir) or a .cube file path.
All images are PGM.
";

type CmdResult = Result<(), CliError>;

/// Route a parsed command line.
pub fn dispatch(args: &Args) -> CmdResult {
    match args.command.as_str() {
        "capture" => capture(args),
        "correct" => run_correct(args),
        "panorama" => panorama(args),
        "stitch" => stitch(args),
        "rectify" => rectify(args),
        "calibrate" => calibrate(args),
        "serve-sim" => serve_sim(args),
        "serve" => serve(args),
        "client" => client(args),
        "info" => info(args),
        "backends" => backends(args),
        "emit-kernel" => emit_kernel(args),
        other => Err(CliError::Usage(format!(
            "unknown subcommand '{other}' (run `fisheye help`)"
        ))),
    }
}

/// Parse a `WxH` size string.
pub fn parse_size(s: &str) -> Result<(u32, u32), ArgError> {
    let (w, h) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| ArgError(format!("size '{s}' is not WxH")))?;
    let w: u32 = w
        .parse()
        .map_err(|_| ArgError(format!("bad width '{w}'")))?;
    let h: u32 = h
        .parse()
        .map_err(|_| ArgError(format!("bad height '{h}'")))?;
    if w == 0 || h == 0 {
        return Err(ArgError("size must be positive".into()));
    }
    Ok((w, h))
}

/// Parse a frame-format name (the `--format` flag).
pub fn parse_format(s: &str) -> Result<FrameFormat, ArgError> {
    s.parse().map_err(ArgError)
}

/// Parse an interpolator name.
pub fn parse_interp(s: &str) -> Result<Interpolator, ArgError> {
    match s {
        "nearest" => Ok(Interpolator::Nearest),
        "bilinear" => Ok(Interpolator::Bilinear),
        "bicubic" => Ok(Interpolator::Bicubic),
        _ => Err(ArgError(format!(
            "unknown interpolator '{s}' (nearest|bilinear|bicubic)"
        ))),
    }
}

/// Parse the post-stage flags shared by `correct` and `serve-sim`:
/// `--lut` names a builtin LUT or a `.cube` file, `--grade-strength`
/// scales the grade, `--tone-map` picks the curve, `--dither-seed`
/// enables deterministic dithering.
fn parse_post(args: &Args) -> Result<PostStage, CliError> {
    let mut stage = PostStage::identity();
    if let Some(lut_arg) = args.options.get("lut") {
        let lut = match Lut3d::builtin(lut_arg) {
            Some(l) => l,
            None => {
                let text = std::fs::read_to_string(lut_arg).map_err(with_path(lut_arg))?;
                Lut3d::parse_cube(&text)
                    .map_err(|e| CliError::Runtime(format!("{lut_arg}: {e}")))?
            }
        };
        let strength: f32 = args.num("grade-strength", 1.0)?;
        if !(0.0..=1.0).contains(&strength) {
            return Err(CliError::Usage(
                "--grade-strength must be between 0 and 1".into(),
            ));
        }
        stage = stage.with_grade(Arc::new(lut), strength);
    } else if args.options.contains_key("grade-strength") {
        return Err(CliError::Usage("--grade-strength needs --lut".into()));
    }
    if let Some(tone) = args.options.get("tone-map") {
        let tone = ToneMap::parse(tone)
            .ok_or_else(|| CliError::Usage(format!("unknown tone map '{tone}' (linear|mcface)")))?;
        stage = stage.with_tone_map(tone);
    }
    if let Some(seed) = args.options.get("dither-seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| ArgError(format!("--dither-seed: cannot parse '{seed}'")))?;
        stage = stage.with_dither(DitherSeed(seed));
    }
    Ok(stage)
}

fn read_pgm(path: &str) -> Result<Image<Gray8>, CliError> {
    load_pgm(path).map_err(with_path(path))
}

fn write_pgm(img: &Image<Gray8>, path: &str) -> Result<(), CliError> {
    save_pgm(img, path).map_err(with_path(path))
}

fn capture(args: &Args) -> CmdResult {
    args.allow_only(&["scene", "out", "size", "fov"])?;
    let scene_name = args.req("scene")?;
    let out = args.req("out")?;
    let (w, h) = parse_size(args.opt("size", "640x480"))?;
    let fov: f64 = args.num("fov", 180.0)?;
    let scene = pixmap::scene::scene_by_name(scene_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown scene '{scene_name}' (try: {})",
            pixmap::scene::SCENE_NAMES.join(" ")
        ))
    })?;
    let lens = FisheyeLens::equidistant_fov(w, h, fov);
    let img = capture_fisheye(scene.as_ref(), World::Spherical, &lens, w, h, 2);
    write_pgm(&img, out)?;
    println!("captured '{scene_name}' through a {fov}° lens -> {out} ({w}x{h})");
    Ok(())
}

fn run_correct(args: &Args) -> CmdResult {
    args.allow_only(&[
        "in",
        "out",
        "fov",
        "view-fov",
        "pan",
        "tilt",
        "out-size",
        "interp",
        "threads",
        "backend",
        "format",
        "lut",
        "grade-strength",
        "tone-map",
        "dither-seed",
    ])?;
    let fov: f64 = args.num("fov", 180.0)?;
    let view_fov: f64 = args.num("view-fov", 90.0)?;
    let pan: f64 = args.num("pan", 0.0)?;
    let tilt: f64 = args.num("tilt", 0.0)?;
    let interp = parse_interp(args.opt("interp", "bilinear"))?;
    let format = parse_format(args.opt("format", "gray8"))?;
    let mut threads: usize = args.num("threads", 1)?;
    let mut spec = EngineSpec::parse(args.opt("backend", "serial")).map_err(CliError::Usage)?;
    // back-compat: `--threads N` without an explicit backend means smp
    if spec == EngineSpec::Serial && args.opt("backend", "serial") == "serial" && threads > 1 {
        spec = EngineSpec::Smp {
            schedule: Schedule::default_static(),
        };
    }
    // an explicitly chosen smp backend without --threads gets a real
    // pool rather than a 1-thread one
    if matches!(spec, EngineSpec::Smp { .. }) && threads <= 1 {
        threads = 4;
    }
    let post = parse_post(args)?;
    let input = read_pgm(args.req("in")?)?;
    let (sw, sh) = input.dims();
    let (ow, oh) = parse_size(args.opt("out-size", &format!("{sw}x{sh}")))?;

    let lens = FisheyeLens::equidistant_fov(sw, sh, fov);
    let view = PerspectiveView::centered(ow, oh, view_fov).look(pan, tilt);
    // the builder traces the map(s), compiles the plan(s) with
    // whatever LUT or tile artifacts the chosen backend needs, and
    // resolves the engine — one validated handle instead of three
    // hand-wired steps
    let corrector = Corrector::<Gray8>::builder()
        .lens(lens)
        .view(view)
        .source(sw, sh)
        .format(format)
        .backend(spec)
        .interp(interp)
        .post_stage(post)
        .threads(threads.max(1))
        .build()?;
    let out = args.req("out")?;
    // lift the gray PGM into the requested format — one plane for
    // gray8, neutral chroma for 4:2:0, replicated planes for RGB — and
    // correct every plane through the frame path; the luma/first plane
    // is what the PGM output carries
    let frame = match format {
        FrameFormat::Yuv420 => Frame::Yuv420(pixmap::yuv::Yuv420::from_luma(input)),
        FrameFormat::Rgb8 => Frame::Rgb8 {
            r: input.clone(),
            g: input.clone(),
            b: input,
        },
        _ => Frame::Gray8(input),
    };
    let (out_frame, report) = corrector.correct_frame(&frame)?;
    write_pgm(out_frame.planes()[0], out)?;
    println!(
        "corrected {sw}x{sh} -> {ow}x{oh} ({format}, {}, backend {}): map {:.1} ms, plan {:.1} ms, correct {:.1} ms -> {out}",
        interp.name(),
        report.backend,
        corrector.map_time().as_secs_f64() * 1e3,
        corrector.plan_time().as_secs_f64() * 1e3,
        report.correct_time.as_secs_f64() * 1e3
    );
    if format.is_multi_plane() {
        let per_plane: Vec<String> = format
            .plane_labels()
            .iter()
            .filter_map(|label| {
                report
                    .model
                    .get(&format!("{label}.correct_ms"))
                    .map(|ms| format!("{label} {ms:.2} ms"))
            })
            .collect();
        println!("  planes: {}", per_plane.join(", "));
    } else if !report.model.is_empty() {
        println!("  model: {}", report.model_pairs().join(" "));
    }
    Ok(())
}

fn backends(args: &Args) -> CmdResult {
    args.allow_only(&[])?;
    println!("registered correction backends:");
    for spec in fisheye::engine::registry() {
        let class = match spec.numeric_class() {
            fisheye::engine::NumericClass::Float => "float".to_string(),
            fisheye::engine::NumericClass::Fixed { frac_bits } => {
                format!("fixed-point q{frac_bits}")
            }
        };
        let kind = if spec.is_host() { "host" } else { "model" };
        println!("  {:<8} {kind:<6} {class}", spec.name());
    }
    Ok(())
}

/// Lower a compiled remap plan to portable kernel source (`wgsl` or
/// `c`) for the requested backend, without running a correction. The
/// plan is traced and compiled exactly as `correct` would, so the
/// emitted kernel's plan digest matches what the engines execute.
fn emit_kernel(args: &Args) -> CmdResult {
    args.allow_only(&[
        "out", "target", "size", "out-size", "fov", "view-fov", "pan", "tilt", "interp", "backend",
    ])?;
    let (sw, sh) = parse_size(args.opt("size", "640x480"))?;
    let (ow, oh) = parse_size(args.opt("out-size", "640x480"))?;
    let fov: f64 = args.num("fov", 180.0)?;
    let view_fov: f64 = args.num("view-fov", 90.0)?;
    let pan: f64 = args.num("pan", 0.0)?;
    let tilt: f64 = args.num("tilt", 0.0)?;
    let interp = parse_interp(args.opt("interp", "bilinear"))?;
    let spec = EngineSpec::parse(args.opt("backend", "simt")).map_err(CliError::Usage)?;
    let target = match args.opt("target", "wgsl") {
        "wgsl" => fisheye::codegen::KernelTarget::Wgsl,
        "c" => fisheye::codegen::KernelTarget::C,
        other => {
            return Err(CliError::Usage(format!(
                "unknown target '{other}' (wgsl|c)"
            )))
        }
    };

    let lens = FisheyeLens::equidistant_fov(sw, sh, fov);
    let view = PerspectiveView::centered(ow, oh, view_fov).look(pan, tilt);
    let map = RemapMap::build(&lens, &view, sw, sh);
    let plan = RemapPlan::compile(&map, PlanOptions::for_specs(&[spec]));
    let kernel = fisheye::codegen::emit_kernel(&plan, &spec, interp, target)?;

    let out = args.req("out")?;
    let path = std::path::Path::new(out);
    // writing into a directory picks the kernel's own file name, so a
    // build script can emit several targets side by side
    let path = if path.is_dir() {
        path.join(kernel.file_name())
    } else {
        path.to_path_buf()
    };
    std::fs::write(&path, kernel.source.as_bytes()).map_err(with_path(out))?;
    println!(
        "emitted {} kernel '{}' for backend {} (plan 0x{:016x}, {} bytes) -> {}",
        kernel.target.name(),
        kernel.entry_point,
        spec.name(),
        kernel.plan_digest,
        kernel.source.len(),
        path.display()
    );
    Ok(())
}

fn panorama(args: &Args) -> CmdResult {
    args.allow_only(&["in", "out", "mode", "fov", "out-size", "threads"])?;
    let input = read_pgm(args.req("in")?)?;
    let (sw, sh) = input.dims();
    let fov: f64 = args.num("fov", 180.0)?;
    let (ow, oh) = parse_size(args.opt("out-size", "800x300"))?;
    let mode = args.opt("mode", "cylindrical");
    let proj = match mode {
        "cylindrical" => OutputProjection::cylinder_180(ow, oh, 40.0),
        "equirect" => OutputProjection::equirect_hemisphere(ow, oh),
        _ => {
            return Err(CliError::Usage(format!(
                "unknown mode '{mode}' (cylindrical|equirect)"
            )))
        }
    };
    let lens = FisheyeLens::equidistant_fov(sw, sh, fov);
    let threads: usize = args.num("threads", 1)?;
    let builder = Corrector::builder()
        .lens(lens)
        .projection(proj)
        .source(sw, sh);
    let corrector = if threads > 1 {
        // multicore map build stays available through plan injection:
        // trace the projection in parallel, compile once, hand the
        // plan to the builder
        let pool = par_runtime::ThreadPool::new(threads);
        let map = RemapMap::build_projection_parallel(
            &lens,
            &proj,
            sw,
            sh,
            &pool,
            par_runtime::Schedule::Static { chunk: None },
        );
        let plan = RemapPlan::compile(&map, PlanOptions::for_specs(&[EngineSpec::Serial]));
        builder.plan(Arc::new(plan)).build()?
    } else {
        builder.build()?
    };
    let coverage = corrector.plan().map().coverage();
    let (out_img, _) = corrector.correct(&input)?;
    let out = args.req("out")?;
    write_pgm(&out_img, out)?;
    println!(
        "{mode} panorama {ow}x{oh} -> {out} (coverage {:.0}%)",
        coverage * 100.0
    );
    Ok(())
}

fn stitch(args: &Args) -> CmdResult {
    args.allow_only(&["front", "back", "out", "fov", "out-size"])?;
    let front = read_pgm(args.req("front")?)?;
    let back = read_pgm(args.req("back")?)?;
    if front.dims() != back.dims() {
        return Err(CliError::Usage(format!(
            "front {:?} and back {:?} must match",
            front.dims(),
            back.dims()
        )));
    }
    let fov: f64 = args.num("fov", 190.0)?;
    let (ow, oh) = parse_size(args.opt("out-size", "1024x512"))?;
    let rig = fisheye_geom::CameraRig::symmetric(front.width(), front.height(), fov);
    let opts = PlanOptions::for_specs(&[EngineSpec::Serial]);
    let plan = fisheye_core::CompositePlan::compile_panorama(&rig, ow, oh, &opts);
    let mut pano = Image::<Gray8>::new(ow, oh);
    fisheye_core::execute_composite_host(
        &EngineSpec::Serial,
        Interpolator::Bilinear,
        &[&front, &back],
        &plan,
        None,
        &HostEnv::default(),
        &mut pano,
    )
    .map_err(|e| CliError::Runtime(e.to_string()))?;
    let out = args.req("out")?;
    write_pgm(&pano, out)?;
    println!(
        "stitched 360° panorama {ow}x{oh} -> {out} (overlap {:.1}%)",
        plan.overlap_fraction() * 100.0
    );
    Ok(())
}

fn rectify(args: &Args) -> CmdResult {
    args.allow_only(&[
        "left",
        "right",
        "out-left",
        "out-right",
        "fov",
        "separation",
        "h-fov",
        "v-fov",
        "out-size",
    ])?;
    let left = read_pgm(args.req("left")?)?;
    let right = read_pgm(args.req("right")?)?;
    if left.dims() != right.dims() {
        return Err(CliError::Usage(format!(
            "left {:?} and right {:?} must match",
            left.dims(),
            right.dims()
        )));
    }
    let fov: f64 = args.num("fov", 180.0)?;
    let separation: f64 = args.num("separation", 0.1)?;
    let h_fov: f64 = args.num("h-fov", 140.0)?;
    let v_fov: f64 = args.num("v-fov", 100.0)?;
    let (ow, oh) = parse_size(args.opt("out-size", "640x480"))?;
    let lens = FisheyeLens::equidistant_fov(left.width(), left.height(), fov);
    let rig = fisheye_geom::StereoRig::side_by_side(lens, separation);
    let opts = PlanOptions::for_specs(&[EngineSpec::Serial]);
    let plan = fisheye_core::StereoPlan::compile(&rig, ow, oh, h_fov, v_fov, &opts);
    let out_l = fisheye_core::correct_plan(&left, &plan.left, Interpolator::Bilinear);
    let out_r = fisheye_core::correct_plan(&right, &plan.right, Interpolator::Bilinear);
    let path_l = args.req("out-left")?;
    let path_r = args.req("out-right")?;
    write_pgm(&out_l, path_l)?;
    write_pgm(&out_r, path_r)?;
    let align = fisheye_geom::row_alignment_error(&rig, &plan.pair, &[0.5, 1.0, 5.0]);
    println!(
        "rectified stereo pair {ow}x{oh} -> {path_l}, {path_r} (row alignment {align:.2e} px)"
    );
    Ok(())
}

fn calibrate(args: &Args) -> CmdResult {
    args.allow_only(&["obs"])?;
    let path = args.req("obs")?;
    let text = std::fs::read_to_string(path).map_err(with_path(path))?;
    let mut obs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad_line = |what: &str| CliError::Runtime(format!("{path}:{}: {what}", lineno + 1));
        let (t, r) = line
            .split_once(',')
            .ok_or_else(|| bad_line("expected 'theta,radius'"))?;
        obs.push(Observation {
            theta: t
                .trim()
                .parse()
                .map_err(|_| bad_line(&format!("bad theta '{}'", t.trim())))?,
            radius_px: r
                .trim()
                .parse()
                .map_err(|_| bad_line(&format!("bad radius '{}'", r.trim())))?,
        });
    }
    if obs.len() < 2 {
        return Err(CliError::Runtime(format!(
            "{path}: need at least two observations"
        )));
    }
    let (model, focal, rms) = select_model(&obs);
    println!(
        "best model: {} (focal {focal:.3} px, rms {rms:.3} px, {} observations)",
        model.name(),
        obs.len()
    );
    Ok(())
}

/// Simulate a multi-session serving deployment: N sessions sharing
/// one camera (and, modulo `--views`, each other's compiled plans)
/// against a capacity budget and per-frame deadlines, with a pump
/// budget per tick that creates real overload pressure. Prints the
/// admission/degradation summary and the full metrics snapshot.
fn serve_sim(args: &Args) -> CmdResult {
    args.allow_only(&[
        "sessions",
        "capacity",
        "views",
        "frames",
        "size",
        "deadline-ms",
        "budget-ms",
        "queue",
        "backend",
        "interp",
        "threads",
        "format",
        "churn",
        "lut",
        "grade-strength",
        "tone-map",
        "dither-seed",
    ])?;
    let sessions: usize = args.num("sessions", 6)?;
    let capacity: usize = args.num("capacity", 4)?;
    let views: usize = args.num("views", 2)?;
    let frames: usize = args.num("frames", 90)?;
    let (sw, sh) = parse_size(args.opt("size", "256x192"))?;
    let deadline_ms: f64 = args.num("deadline-ms", 20.0)?;
    let budget_ms: f64 = args.num("budget-ms", 10.0)?;
    let queue: usize = args.num("queue", 4)?;
    // 0 = static views; N > 0 pans every session every N frames,
    // exercising the delta plan-recompilation path under load
    let churn: usize = args.num("churn", 0)?;
    let threads: usize = args.num("threads", 4)?;
    let spec = EngineSpec::parse(args.opt("backend", "serial")).map_err(CliError::Usage)?;
    let interp = parse_interp(args.opt("interp", "bicubic"))?;
    let format = parse_format(args.opt("format", "gray8"))?;
    let post = parse_post(args)?;
    if sessions == 0 || views == 0 || frames == 0 {
        return Err(CliError::Usage(
            "sessions, views and frames must be positive".into(),
        ));
    }
    if deadline_ms <= 0.0 || budget_ms <= 0.0 {
        return Err(CliError::Usage(
            "deadline-ms and budget-ms must be positive".into(),
        ));
    }

    let server = Server::new(ServerConfig {
        capacity,
        queue_depth: queue,
        frame_deadline: std::time::Duration::from_secs_f64(deadline_ms / 1e3),
        threads,
        ..ServerConfig::default()
    })?;
    let lens = FisheyeLens::equidistant_fov(sw, sh, 180.0);
    let mut admitted = Vec::new();
    let mut base_views = Vec::new();
    let mut rejected = 0usize;
    for i in 0..sessions {
        // sessions cycle through `views` distinct pan angles: every
        // session sharing an angle shares one compiled plan
        let pan = (i % views) as f64 * 14.0 - (views as f64 - 1.0) * 7.0;
        let view = PerspectiveView::centered((sw / 2).max(1), (sh / 2).max(1), 90.0).look(pan, 0.0);
        let cfg = SessionConfig {
            backend: spec,
            interp,
            format,
            post: post.clone(),
            ..SessionConfig::new(lens, view, (sw, sh))
        };
        match server.connect(cfg) {
            Ok(s) => {
                admitted.push(s);
                base_views.push(view);
            }
            Err(e) if e.is_rejected() => rejected += 1,
            Err(e) => return Err(e.into()),
        }
    }
    println!(
        "admitted {}/{sessions} sessions ({rejected} rejected at capacity {capacity}), \
         {views} distinct views, format {format}, backend {}, {}",
        admitted.len(),
        spec.name(),
        interp.name(),
    );

    let mut camera = CameraFeed::new(sw, sh, 42);
    let budget = std::time::Duration::from_secs_f64(budget_ms / 1e3);
    let mut pans = 0usize;
    for f in 0..frames {
        if churn > 0 && f > 0 && f % churn == 0 {
            // every session pans: one plan-cache miss per shared view,
            // served by delta recompilation from the outgoing plan
            pans += 1;
            for (s, base) in admitted.iter_mut().zip(&base_views) {
                s.set_view(base.look(0.5 * pans as f64, 0.0))?;
            }
        }
        // one camera, N sessions: every queue holds the same Arc
        let frame = camera.next_frame_in(format);
        for s in admitted.iter_mut() {
            let _ = s.submit_frame(Arc::clone(&frame));
        }
        pump_round(&mut admitted, budget)?;
    }
    // drain what's still queued, then report
    pump_round(&mut admitted, std::time::Duration::from_secs(60))?;

    let m = server.metrics();
    let completed = m.counter("serve.frames.completed");
    let missed = m.counter("serve.frames.deadline_missed");
    if let Some(h) = m.histogram("serve.latency_us") {
        println!(
            "served {completed} frames: p50 {:.1} ms, p99 {:.1} ms, {missed} deadline misses, \
             final level {}",
            h.quantile(0.5).as_secs_f64() * 1e3,
            h.quantile(0.99).as_secs_f64() * 1e3,
            server.level().name(),
        );
    }
    let cache = server.cache().stats();
    println!(
        "plan cache: {} compiles, {} hits ({:.0}% hit rate), {} entries, {} KiB",
        cache.misses,
        cache.hits,
        cache.hit_rate() * 100.0,
        cache.entries,
        cache.bytes / 1024,
    );
    if churn > 0 {
        println!(
            "view churn: {pans} pans every {churn} frames, {} delta recompiles",
            m.counter("serve.plan.delta_recompiles"),
        );
    }
    drop(admitted);
    println!("--- metrics snapshot ---");
    print!("{}", m.snapshot());
    Ok(())
}

/// Bind the sharded network front end and serve wire-protocol
/// sessions. `--for-ms` bounds the run (handy for scripts and tests);
/// the default 0 serves until the process is killed. The bound
/// address is printed (and flushed) first so `--bind 127.0.0.1:0`
/// callers can scrape the kernel-chosen port.
fn serve(args: &Args) -> CmdResult {
    args.allow_only(&[
        "bind",
        "shards",
        "capacity",
        "queue",
        "deadline-ms",
        "threads",
        "for-ms",
    ])?;
    let bind = args.opt("bind", "127.0.0.1:4590");
    let shards: usize = args.num("shards", 2)?;
    let capacity: usize = args.num("capacity", 64)?;
    let queue: usize = args.num("queue", 4)?;
    let deadline_ms: f64 = args.num("deadline-ms", 20.0)?;
    let threads: usize = args.num("threads", 1)?;
    let for_ms: u64 = args.num("for-ms", 0)?;
    if deadline_ms <= 0.0 {
        return Err(CliError::Usage("deadline-ms must be positive".into()));
    }
    let cfg = NetServerConfig {
        server: ServerConfig {
            capacity,
            queue_depth: queue,
            frame_deadline: std::time::Duration::from_secs_f64(deadline_ms / 1e3),
            threads,
            ..ServerConfig::default()
        },
        shards,
        ..NetServerConfig::default()
    };
    let mut srv = NetServer::bind(bind, cfg)?;
    println!(
        "serving on {} ({shards} shards, capacity {capacity}, queue {queue}, \
         deadline {deadline_ms} ms)",
        srv.addr()
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if for_ms == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(for_ms));
    srv.shutdown();
    let m = srv.metrics_snapshot();
    println!(
        "served {} frames over {} connections ({} shed, {} protocol errors)",
        m.counter("serve.frames.completed"),
        m.counter("serve.net.accepted"),
        m.counter("serve.frames.shed_shutdown") + m.counter("serve.frames.shed_internal"),
        m.counter("serve.net.protocol_errors"),
    );
    println!("--- metrics snapshot ---");
    print!("{}", m.snapshot());
    Ok(())
}

/// Drive one wire-protocol session against a running `fisheye serve`:
/// connect, stream synthetic camera frames (the same [`CameraFeed`]
/// the in-process sim uses), and report round-trip latency. `--churn`
/// pans the view every N frames; `--out` writes the last corrected
/// luma plane as PGM.
fn client(args: &Args) -> CmdResult {
    args.allow_only(&[
        "connect",
        "frames",
        "size",
        "view-size",
        "fov",
        "view-fov",
        "pan",
        "tilt",
        "format",
        "interp",
        "backend",
        "deadline-ms",
        "seed",
        "churn",
        "out",
    ])?;
    let addr_s = args.req("connect")?;
    let addr: std::net::SocketAddr = addr_s
        .parse()
        .map_err(|_| CliError::Usage(format!("--connect '{addr_s}' is not HOST:PORT")))?;
    let frames: u64 = args.num("frames", 30)?;
    let (sw, sh) = parse_size(args.opt("size", "256x192"))?;
    let default_view = format!("{}x{}", (sw / 2).max(1), (sh / 2).max(1));
    let (vw, vh) = parse_size(args.opt("view-size", &default_view))?;
    let fov: f64 = args.num("fov", 180.0)?;
    let view_fov: f64 = args.num("view-fov", 90.0)?;
    let pan: f64 = args.num("pan", 0.0)?;
    let tilt: f64 = args.num("tilt", 0.0)?;
    let format = parse_format(args.opt("format", "gray8"))?;
    let interp = parse_interp(args.opt("interp", "bilinear"))?;
    let backend = args.opt("backend", "serial");
    // validate locally before dialing so typos are usage errors, not
    // a protocol shed from the far end
    EngineSpec::parse(backend).map_err(CliError::Usage)?;
    let deadline_ms: f64 = args.num("deadline-ms", 0.0)?;
    if frames == 0 || deadline_ms < 0.0 {
        return Err(CliError::Usage(
            "frames must be positive and deadline-ms non-negative".into(),
        ));
    }
    let seed: u64 = args.num("seed", 42)?;
    let churn: u64 = args.num("churn", 0)?;

    let base_view = PerspectiveView::centered(vw, vh, view_fov).look(pan, tilt);
    let desc = SessionDesc {
        lens: FisheyeLens::equidistant_fov(sw, sh, fov),
        view: base_view,
        source: (sw, sh),
        format,
        interp,
        deadline_us: (deadline_ms * 1e3) as u32,
        backend,
    };
    let mut client = Client::connect(addr, &desc, std::time::Duration::from_secs(10))?;
    println!("session {} connected to {addr}", client.session_id());

    let mut feed = CameraFeed::new(sw, sh, seed);
    let (mut done, mut shed, mut missed) = (0u64, 0u64, 0u64);
    let (mut lat_sum, mut lat_max) = (0u64, 0u32);
    let mut last = None;
    let mut pans = 0u64;
    'drive: for seq in 0..frames {
        if churn > 0 && seq > 0 && seq % churn == 0 {
            pans += 1;
            client.set_view(base_view.look(pan + 0.5 * pans as f64, tilt))?;
        }
        client.submit(seq, &feed.next_frame_in(format))?;
        // lockstep: wait for this frame's verdict before the next one
        loop {
            match client.recv(std::time::Duration::from_secs(10))? {
                Some(ClientEvent::FrameDone {
                    seq: s,
                    latency_us,
                    missed: frame_missed,
                    frame,
                    ..
                }) => {
                    done += 1;
                    if frame_missed {
                        missed += 1;
                    }
                    lat_sum += latency_us as u64;
                    lat_max = lat_max.max(latency_us);
                    last = Some(frame);
                    if s == seq {
                        break;
                    }
                }
                Some(ClientEvent::Shed { .. }) => {
                    shed += 1;
                    break;
                }
                Some(ClientEvent::Goodbye) => break 'drive,
                None => return Err(CliError::Runtime("timed out waiting for the server".into())),
            }
        }
    }
    let _ = client.goodbye();
    let mean_ms = if done > 0 {
        lat_sum as f64 / done as f64 / 1e3
    } else {
        0.0
    };
    println!(
        "received {done}/{frames} frames ({shed} shed, {missed} deadline-missed): \
         latency mean {mean_ms:.2} ms, max {:.2} ms",
        lat_max as f64 / 1e3,
    );
    if let Some(out) = args.options.get("out") {
        let frame =
            last.ok_or_else(|| CliError::Runtime("no frame received; nothing to write".into()))?;
        let planes = frame.planes();
        let first = planes
            .first()
            .ok_or_else(|| CliError::Runtime("the served frame is empty".into()))?;
        write_pgm(first, out)?;
        println!("wrote the last corrected luma plane -> {out}");
    }
    Ok(())
}

fn info(args: &Args) -> CmdResult {
    args.allow_only(&["in"])?;
    let path = args.req("in")?;
    let img = read_pgm(path)?;
    let (w, h) = img.dims();
    let mut min = u8::MAX;
    let mut max = 0u8;
    let mut sum = 0u64;
    for p in img.pixels() {
        min = min.min(p.0);
        max = max.max(p.0);
        sum += p.0 as u64;
    }
    println!(
        "{path}: {w}x{h}, {} px, luma min {min} max {max} mean {:.1}",
        img.len(),
        sum as f64 / img.len() as f64
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parser() {
        assert_eq!(parse_size("640x480").unwrap(), (640, 480));
        assert_eq!(parse_size("8X4").unwrap(), (8, 4));
        assert!(parse_size("640").is_err());
        assert!(parse_size("0x4").is_err());
        assert!(parse_size("ax4").is_err());
    }

    #[test]
    fn interp_parser() {
        assert_eq!(parse_interp("nearest").unwrap(), Interpolator::Nearest);
        assert_eq!(parse_interp("bicubic").unwrap(), Interpolator::Bicubic);
        assert!(parse_interp("lanczos").is_err());
    }

    #[test]
    fn format_parser() {
        assert_eq!(parse_format("yuv420").unwrap(), FrameFormat::Yuv420);
        assert_eq!(parse_format("rgb8").unwrap(), FrameFormat::Rgb8);
        assert_eq!(parse_format("gray8").unwrap(), FrameFormat::Gray8);
        assert!(parse_format("nv12").is_err());
    }

    fn run(line: &str) -> CmdResult {
        dispatch(&Args::parse(line.split_whitespace().map(String::from)).unwrap())
    }

    #[test]
    fn capture_correct_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("fisheye_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cap = dir.join("cap.pgm");
        let flat = dir.join("flat.pgm");
        run(&format!(
            "capture --scene grid --out {} --size 160x120",
            cap.display()
        ))
        .unwrap();
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 80x60 --interp bilinear",
            cap.display(),
            flat.display()
        ))
        .unwrap();
        let img = load_pgm(&flat).unwrap();
        assert_eq!(img.dims(), (80, 60));
        run(&format!("info --in {}", flat.display())).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_kernel_writes_both_targets() {
        let dir = std::env::temp_dir().join("fisheye_cli_emit");
        std::fs::create_dir_all(&dir).unwrap();
        // explicit file path for wgsl
        let wgsl = dir.join("remap.wgsl");
        run(&format!(
            "emit-kernel --out {} --target wgsl --size 64x48 --out-size 32x24 --backend simt:64",
            wgsl.display()
        ))
        .unwrap();
        let src = std::fs::read_to_string(&wgsl).unwrap();
        assert!(src.contains("@compute"), "wgsl kernel body: {src}");
        assert!(src.contains("plan: 0x"), "plan digest header: {src}");
        // directory output picks the kernel's own file name
        run(&format!(
            "emit-kernel --out {} --target c --size 64x48 --out-size 32x24 --backend fixed",
            dir.display()
        ))
        .unwrap();
        let c_path = dir.join("fisheye_remap_fixed_q12.c");
        let c_src = std::fs::read_to_string(&c_path)
            .unwrap_or_else(|e| panic!("{}: {e}", c_path.display()));
        assert!(c_src.contains("#include"), "c kernel body: {c_src}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_kernel_refusals_are_usage_errors() {
        let dir = std::env::temp_dir().join("fisheye_cli_emit_err");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("k.wgsl");
        // the direct backend has no compiled plan to lower
        let err = run(&format!(
            "emit-kernel --out {} --backend direct --size 64x48 --out-size 32x24",
            out.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("codegen"), "{err}");
        // unknown targets are rejected before any work happens
        let err = run(&format!(
            "emit-kernel --out {} --target spirv",
            out.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_registry_backend_selectable_by_name() {
        let dir = std::env::temp_dir().join("fisheye_cli_backends");
        std::fs::create_dir_all(&dir).unwrap();
        let cap = dir.join("cap.pgm");
        run(&format!(
            "capture --scene circles --out {} --size 128x96",
            cap.display()
        ))
        .unwrap();
        let reference = {
            let flat = dir.join("flat-serial.pgm");
            run(&format!(
                "correct --in {} --out {} --view-fov 80 --out-size 64x48 --backend serial",
                cap.display(),
                flat.display()
            ))
            .unwrap();
            load_pgm(&flat).unwrap()
        };
        for spec in fisheye::engine::registry() {
            let name = spec.name();
            let flat = dir.join(format!("flat-{}.pgm", name.replace(':', "_")));
            run(&format!(
                "correct --in {} --out {} --view-fov 80 --out-size 64x48 --backend {name}",
                cap.display(),
                flat.display()
            ))
            .unwrap_or_else(|e| panic!("backend {name}: {e}"));
            let img = load_pgm(&flat).unwrap();
            assert_eq!(img.dims(), (64, 48), "backend {name}");
            // float backends must exactly reproduce the serial output
            if spec.numeric_class() == fisheye::engine::NumericClass::Float {
                assert_eq!(img, reference, "backend {name}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn correct_accepts_multi_plane_formats() {
        let dir = std::env::temp_dir().join("fisheye_cli_formats");
        std::fs::create_dir_all(&dir).unwrap();
        let cap = dir.join("cap.pgm");
        run(&format!(
            "capture --scene checker --out {} --size 128x96",
            cap.display()
        ))
        .unwrap();
        let gray = dir.join("flat-gray.pgm");
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 64x48 --format gray8",
            cap.display(),
            gray.display()
        ))
        .unwrap();
        for fmt in ["yuv420", "rgb8"] {
            let flat = dir.join(format!("flat-{fmt}.pgm"));
            run(&format!(
                "correct --in {} --out {} --view-fov 80 --out-size 64x48 --format {fmt}",
                cap.display(),
                flat.display()
            ))
            .unwrap_or_else(|e| panic!("format {fmt}: {e}"));
            let img = load_pgm(&flat).unwrap();
            assert_eq!(img.dims(), (64, 48), "format {fmt}");
            // the luma/first plane goes through the same full-res plan
            // as the gray path, so the PGM outputs are identical
            assert_eq!(img, load_pgm(&gray).unwrap(), "format {fmt}");
        }
        let e = run(&format!(
            "correct --in {} --out /tmp/x.pgm --format nv12",
            cap.display()
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2, "unknown format is a usage error: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backends_subcommand_lists_registry() {
        run("backends").unwrap();
    }

    #[test]
    fn correct_grades_through_builtin_and_cube_luts() {
        let dir = std::env::temp_dir().join("fisheye_cli_grade");
        std::fs::create_dir_all(&dir).unwrap();
        let cap = dir.join("cap.pgm");
        run(&format!(
            "capture --scene gradient --out {} --size 128x96",
            cap.display()
        ))
        .unwrap();
        let plain = dir.join("plain.pgm");
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 64x48",
            cap.display(),
            plain.display()
        ))
        .unwrap();
        // a builtin LUT with a tone map changes the bytes
        let warm = dir.join("warm.pgm");
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 64x48 \
             --lut warm --tone-map mcface --dither-seed 7",
            cap.display(),
            warm.display()
        ))
        .unwrap();
        assert_ne!(load_pgm(&warm).unwrap(), load_pgm(&plain).unwrap());
        // and the same command is deterministic, dither included
        let warm2 = dir.join("warm2.pgm");
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 64x48 \
             --lut warm --tone-map mcface --dither-seed 7",
            cap.display(),
            warm2.display()
        ))
        .unwrap();
        assert_eq!(load_pgm(&warm).unwrap(), load_pgm(&warm2).unwrap());
        // a .cube file loads through the same flag
        let cube = dir.join("boost.cube");
        std::fs::write(
            &cube,
            "TITLE \"boost\"\nLUT_3D_SIZE 2\n0 0 0\n1 .5 .5\n.5 1 .5\n1 1 .5\n.5 .5 1\n1 .5 1\n.5 1 1\n1 1 1\n",
        )
        .unwrap();
        let graded = dir.join("cube.pgm");
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 64x48 --lut {}",
            cap.display(),
            graded.display(),
            cube.display()
        ))
        .unwrap();
        assert_ne!(load_pgm(&graded).unwrap(), load_pgm(&plain).unwrap());
        // zero strength is the identity: byte-identical to no post
        let zero = dir.join("zero.pgm");
        run(&format!(
            "correct --in {} --out {} --view-fov 80 --out-size 64x48 \
             --lut warm --grade-strength 0",
            cap.display(),
            zero.display()
        ))
        .unwrap();
        assert_eq!(load_pgm(&zero).unwrap(), load_pgm(&plain).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_post_flags_are_usage_errors() {
        let e = run("correct --in /x.pgm --out /y.pgm --tone-map filmic").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("correct --in /x.pgm --out /y.pgm --grade-strength 0.5").unwrap_err();
        assert_eq!(e.exit_code(), 2, "--grade-strength without --lut: {e}");
        let e = run("correct --in /x.pgm --out /y.pgm --lut warm --grade-strength 2").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("correct --in /x.pgm --out /y.pgm --lut warm --dither-seed x").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("correct --in /x.pgm --out /y.pgm --lut /missing.cube").unwrap_err();
        assert_eq!(
            e.exit_code(),
            1,
            "missing cube file is a runtime error: {e}"
        );
    }

    #[test]
    fn unknown_backend_is_usage_error() {
        // arguments are validated before any file I/O, so the bad
        // backend name wins over the missing input file
        let e =
            run("correct --in /nonexistent.pgm --out /tmp/x.pgm --backend warp-drive").unwrap_err();
        assert_eq!(e.exit_code(), 2, "unknown backend is a usage error: {e}");
        assert!(e.to_string().contains("warp-drive"), "{e}");
    }

    #[test]
    fn panorama_and_stitch_via_files() {
        let dir = std::env::temp_dir().join("fisheye_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let cap = dir.join("cap.pgm");
        run(&format!(
            "capture --scene bricks --out {} --size 128x128",
            cap.display()
        ))
        .unwrap();
        let pano = dir.join("pano.pgm");
        run(&format!(
            "panorama --in {} --out {} --mode equirect --out-size 120x60",
            cap.display(),
            pano.display()
        ))
        .unwrap();
        assert_eq!(load_pgm(&pano).unwrap().dims(), (120, 60));
        let sphere = dir.join("sphere.pgm");
        run(&format!(
            "stitch --front {c} --back {c} --out {} --out-size 128x64",
            sphere.display(),
            c = cap.display()
        ))
        .unwrap();
        assert_eq!(load_pgm(&sphere).unwrap().dims(), (128, 64));
        let (rl, rr) = (dir.join("rect_l.pgm"), dir.join("rect_r.pgm"));
        run(&format!(
            "rectify --left {c} --right {c} --out-left {} --out-right {} --out-size 96x64",
            rl.display(),
            rr.display(),
            c = cap.display()
        ))
        .unwrap();
        assert_eq!(load_pgm(&rl).unwrap().dims(), (96, 64));
        assert_eq!(load_pgm(&rr).unwrap().dims(), (96, 64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_sim_runs_and_validates() {
        // over-capacity on purpose: 3 sessions, capacity 2
        run("serve-sim --sessions 3 --capacity 2 --views 1 --frames 6 \
             --size 96x72 --deadline-ms 50 --budget-ms 20")
        .unwrap();
        let e = run("serve-sim --sessions 0").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("serve-sim --deadline-ms -1").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("serve-sim --backend warp-drive").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("serve-sim --format grayf32").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
    }

    #[test]
    fn serve_sim_churns_views() {
        run("serve-sim --sessions 2 --capacity 2 --views 1 --frames 8 \
             --size 96x72 --deadline-ms 50 --budget-ms 20 --churn 3")
        .unwrap();
    }

    #[test]
    fn serve_sim_serves_yuv_sessions() {
        run("serve-sim --sessions 2 --capacity 2 --views 1 --frames 5 \
             --size 96x72 --deadline-ms 50 --budget-ms 20 --format yuv420")
        .unwrap();
    }

    #[test]
    fn serve_sim_serves_graded_sessions() {
        run("serve-sim --sessions 2 --capacity 2 --views 1 --frames 5 \
             --size 96x72 --deadline-ms 50 --budget-ms 20 \
             --lut warm --grade-strength 0.8 --tone-map mcface")
        .unwrap();
    }

    #[test]
    fn serve_subcommand_runs_a_bounded_window() {
        run("serve --bind 127.0.0.1:0 --shards 1 --for-ms 50").unwrap();
    }

    #[test]
    fn client_subcommand_drives_a_live_server() {
        let mut srv = fisheye_serve::NetServer::bind(
            "127.0.0.1:0",
            fisheye_serve::NetServerConfig {
                server: ServerConfig {
                    capacity: 8,
                    frame_deadline: std::time::Duration::from_secs(5),
                    threads: 1,
                    ..ServerConfig::default()
                },
                ..fisheye_serve::NetServerConfig::default()
            },
        )
        .unwrap();
        let dir = std::env::temp_dir().join("fisheye_cli_net");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("net.pgm");
        run(&format!(
            "client --connect {} --frames 4 --size 96x72 --churn 2 --out {}",
            srv.addr(),
            out.display()
        ))
        .unwrap();
        // default view is half the source size
        assert_eq!(load_pgm(&out).unwrap().dims(), (48, 36));
        srv.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_flags_are_validated_before_dialing() {
        let e = run("client --connect not-an-addr").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("client --connect 127.0.0.1:1 --format grayf32").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("client --connect 127.0.0.1:1 --backend warp-drive").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let e = run("client --connect 127.0.0.1:1 --frames 0").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        // a dead port is a runtime failure, not a usage one
        let e = run("client --connect 127.0.0.1:1 --frames 1").unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e}");
    }

    #[test]
    fn calibrate_from_csv() {
        let dir = std::env::temp_dir().join("fisheye_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let obs = dir.join("obs.csv");
        // equidistant with f = 200: r = 200*theta
        let mut text = String::from("# theta,radius\n");
        for i in 1..40 {
            let t = i as f64 * 0.035;
            text.push_str(&format!("{t},{}\n", 200.0 * t));
        }
        std::fs::write(&obs, text).unwrap();
        run(&format!("calibrate --obs {}", obs.display())).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_reported_with_exit_codes() {
        let e = run("nope").unwrap_err();
        assert_eq!(e.exit_code(), 2, "unknown subcommand is a usage error");
        let e = run("capture --scene nope --out /tmp/x.pgm").unwrap_err();
        assert_eq!(e.exit_code(), 2, "unknown scene is a usage error");
        let e = run("correct --in /does/not/exist.pgm --out /tmp/x.pgm").unwrap_err();
        assert_eq!(e.exit_code(), 1, "missing input is a runtime error");
        assert!(
            e.to_string().contains("/does/not/exist.pgm"),
            "error names the offending path: {e}"
        );
        let e = run("panorama --in /does/not/exist.pgm --out /tmp/x.pgm --mode weird").unwrap_err();
        assert_eq!(e.exit_code(), 1);
        let e = run("calibrate --obs /does/not/exist.csv").unwrap_err();
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn bad_calibration_line_pinpointed() {
        let dir = std::env::temp_dir().join("fisheye_cli_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let obs = dir.join("obs.csv");
        std::fs::write(&obs, "0.1,20\nnot-a-number,30\n").unwrap();
        let e = run(&format!("calibrate --obs {}", obs.display())).unwrap_err();
        assert!(e.to_string().contains(":2:"), "line number in: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
