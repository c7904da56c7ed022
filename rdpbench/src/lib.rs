//! The repository benchmark: one harness for every workload, reporting
//! end-to-end metrics (time next to the quality it bought) on untraced
//! runs and per-layer metrics, timed from outside the library, on traced
//! runs. `BENCHMARK.json` declares the workloads and metrics; `README.md`
//! explains them.

pub mod compare;
pub mod flow;
pub mod json;
pub mod layers;
pub mod procfs;
pub mod record;
pub mod route;
pub mod serve;
pub mod spec;
pub mod stats;

use rdp_db::Placement;
use rdp_gen::GeneratorConfig;
use record::Run;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Kernel threads every workload runs with (the flows' placer and router
/// pools; the server runs two workers of one thread each). A host with
/// fewer cores marks its runs degraded.
pub const KERNEL_THREADS: usize = 2;

/// Times each run sets its inputs up before its operations; `setup_s` is
/// the median over these and the repetitions between operations.
pub const SETUP_REPS: usize = 7;

/// Set-up repetitions after each operation of a flow or route workload.
pub const SETUP_REPS_PER_OP: usize = 2;

/// Input sizes: `Full` is the benchmark, `Smoke` a tiny version for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out: PathBuf,
}

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// A directory inside the output directory for files a run writes and
    /// removes again (Bookshelf copies, the server spool).
    pub scratch: PathBuf,
}

/// The seed a run uses when none is given (the placer's default jitter
/// seed).
pub const DEFAULT_SEED: u64 = 1;

/// Runs one workload and returns its record (header, metrics, counts).
pub fn run(opts: &Options) -> Result<Run, String> {
    let seed = opts.seed.unwrap_or(DEFAULT_SEED);
    let scratch = opts
        .out
        .join(format!(".scratch-{}-{}", opts.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let _cleanup = RemoveOnDrop(scratch.clone());
    let ctx = Ctx {
        seed,
        seconds: opts.seconds,
        trace: opts.trace,
        scale: opts.scale,
        scratch,
    };

    let mut run = Run::default();
    let cores = rdp_bench::detected_cores();
    run.setting("workload", opts.workload.as_str());
    run.setting("trace", opts.trace);
    run.setting("seed", seed);
    run.setting("scale", opts.scale.label());
    run.setting("seconds", opts.seconds);
    run.setting("git_revision", rdp_bench::git_revision());
    run.setting("available_cores", cores);
    run.setting("kernel_threads", KERNEL_THREADS);
    run.setting("degraded", cores < KERNEL_THREADS);
    run.setting("pid", u64::from(std::process::id()));
    run.setting(
        "started_unix_ms",
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
    );

    match opts.workload.as_str() {
        "paper_fenced" | "electro_ladder" => flow::run(&ctx, &opts.workload, &mut run)?,
        "route_congested" => route::run(&ctx, &mut run)?,
        "serve_mix" => serve::run(&ctx, &mut run)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    run.validate(spec::spec(), opts.trace);
    Ok(run)
}

/// The generator shape of the flow and route workloads: the `large`
/// preset's macro, fixed-block, I/O and module mix at `cells` standard
/// cells (the `tiny` preset's mix at smoke scale).
pub fn shape(name: &str, seed: u64, cells: usize, scale: Scale) -> GeneratorConfig {
    let mut cfg = match scale {
        Scale::Full => GeneratorConfig::large(name, seed),
        Scale::Smoke => GeneratorConfig::tiny(name, seed),
    };
    cfg.num_cells = cells;
    cfg
}

/// 64-bit FNV-1a hash.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A hash of every node's center bits and orientation: equal exactly when
/// two placements are bitwise equal (up to hash collisions).
pub fn fingerprint(placement: &Placement) -> String {
    let words = placement.centers().iter().enumerate().flat_map(|(i, c)| {
        let o = placement.orient(rdp_db::NodeId::from_index(i));
        [
            c.x.to_bits(),
            c.y.to_bits(),
            u64::from(o.quarter_turns()) | (u64::from(o.is_flipped()) << 8),
        ]
    });
    format!("{:016x}", fnv1a(words.flat_map(u64::to_le_bytes)))
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Process CPU utilisation over a window: CPU seconds spent ÷ (wall
/// seconds × kernel threads).
pub struct CpuWindow {
    wall: Instant,
    cpu: f64,
}

impl CpuWindow {
    pub fn start() -> Result<CpuWindow, String> {
        Ok(CpuWindow {
            wall: Instant::now(),
            cpu: procfs::cpu_seconds()?,
        })
    }

    pub fn utilisation(&self) -> Result<f64, String> {
        let cpu = procfs::cpu_seconds()? - self.cpu;
        Ok(cpu / (secs(self.wall) * KERNEL_THREADS as f64))
    }
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
