//! Grids, checks and helpers of the figure-regeneration benchmark.
//!
//! A benchmark *workload* is a list of [`Figure`]s: each one a sweep of
//! (paper benchmark, `SimConfig`) points plus the text renderer a user
//! sees. The seed picks the grid: [`DEFAULT_SEED`] reproduces the
//! paper's figure grids exactly, any other seed draws the same number of
//! configurations from the same families and ranges (held-out checks).
//! See `README.md` for why each workload exists.

use nsf_bench::figures::{fig09, fig10, fig14, summary, table1};
use nsf_bench::{
    nsf_config, nsf_lines_config, pct, segmented_config, segmented_software_config, Sweep,
    PAR_CTX_REGS, SEQ_CTX_REGS, SEQ_FILE_REGS,
};
use nsf_core::ReloadPolicy;
use nsf_sim::{batchable_program, RegFileSpec, RunReport, SimConfig};
use nsf_workloads::synth::{self, ParParams};
use std::fmt::Write;
use std::path::Path;

pub mod traced;

/// The seed that reproduces the paper's figure grids.
pub const DEFAULT_SEED: u64 = 0;
/// Problem size of every workload (`--scale`): the evaluation size.
pub const SCALE: u32 = 1;

/// Text renderer of one figure: `(scale, sweep, reports, quiet)`.
pub type Render = fn(u32, &Sweep, &[RunReport], bool) -> String;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Sequential programs under wide fans of register files that share
    /// one frontend; the store starts empty.
    SeqFanout,
    /// Multithreaded programs, which always run the live `Machine`.
    ParLive,
    /// The table1/fig09/fig10/fig14/summary grids against a store that
    /// set-up filled.
    RerunWarm,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::SeqFanout, Kind::ParLive, Kind::RerunWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SeqFanout => "seq-fanout",
            Kind::ParLive => "par-live",
            Kind::RerunWarm => "rerun-warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One sweep of a workload and how its text renders.
pub struct Figure {
    /// Name of the figure, also its output directory.
    pub name: &'static str,
    /// The grid.
    pub sweep: Sweep,
    /// The renderer a user sees the results through.
    pub render: Render,
}

/// Builds the figures of workload `kind` for `seed` at `scale`.
pub fn build(kind: Kind, seed: u64, scale: u32) -> Vec<Figure> {
    let mut rng = SplitMix::new(seed);
    let draw = (seed != DEFAULT_SEED).then_some(&mut rng);
    match kind {
        Kind::SeqFanout => seq_fanout(scale, draw),
        Kind::ParLive => par_live(scale, draw),
        Kind::RerunWarm => rerun_warm(scale, draw),
    }
}

/// Line widths of the sequential half of Figure 13.
const SEQ_WIDTHS: [u8; 5] = [1, 2, 4, 8, 16];
/// The three reload strategies of Figure 13.
const RELOAD_POLICIES: [ReloadPolicy; 3] = [
    ReloadPolicy::WholeLine,
    ReloadPolicy::ValidOnly,
    ReloadPolicy::SingleRegister,
];

/// GateSim, RTLSim and ZipFile, each under two fans of register files
/// with the default frontend: the Figs. 11–12 size sweep (18 points per
/// program: NSF and segmented at 2–10 frames) and the Fig. 13 line
/// width × reload policy sweep (15 points per program). A seeded draw
/// keeps each point near its figure's: NSF sizes move by up to ±10
/// registers and segmented files by up to ±1 frame in the size sweep,
/// and each line-sweep cell draws a 64-, 80- or 96-register file.
fn seq_fanout(scale: u32, mut draw: Option<&mut SplitMix>) -> Vec<Figure> {
    let mut size = Sweep::new();
    let seq = size.suite(nsf_workloads::sequential_suite(scale));
    for frames in 2..=10u32 {
        for &w in &seq {
            let regs = frames * u32::from(SEQ_CTX_REGS);
            let (nsf_regs, seg_frames) = match draw.as_mut() {
                None => (regs, frames),
                Some(r) => (
                    (regs + 2 * r.range(0, 10) as u32 - 10).max(40),
                    (frames + r.range(0, 2) as u32 - 1).clamp(2, 10),
                ),
            };
            size.point(w, nsf_config(nsf_regs));
            size.point(w, segmented_config(seg_frames, SEQ_CTX_REGS));
        }
    }
    let mut lines = Sweep::new();
    let seq = lines.suite(nsf_workloads::sequential_suite(scale));
    for &width in &SEQ_WIDTHS {
        for policy in RELOAD_POLICIES {
            let regs = draw
                .as_mut()
                .map_or(SEQ_FILE_REGS, |r| r.pick(&[64, 80, 96]));
            for &w in &seq {
                lines.point(w, nsf_lines_config(regs, width, policy));
            }
        }
    }
    vec![
        Figure {
            name: "size-fan",
            sweep: size,
            render: render_points,
        },
        Figure {
            name: "line-fan",
            sweep: lines,
            render: render_points,
        },
    ]
}

/// The six parallel benchmarks plus a `synth::parallel` program, each
/// under NSF-128, segmented 4×32 with hardware and with software spills,
/// and SPARC-like windows of 32 registers.
fn par_live(scale: u32, mut draw: Option<&mut SplitMix>) -> Vec<Figure> {
    let mut s = Sweep::new();
    let mut programs = s.suite(nsf_workloads::parallel_suite(scale));
    programs.push(s.workload(synth::parallel(synth_params(draw.as_deref_mut()))));
    for w in programs {
        let (nsf, seg, soft, windows) = match draw.as_mut() {
            None => (128, 4, 4, 8),
            Some(r) => (
                r.pick(&[112, 128, 144]),
                r.range(3, 5) as u32,
                r.range(3, 5) as u32,
                r.range(6, 8) as u32,
            ),
        };
        s.point(w, nsf_config(nsf));
        s.point(w, segmented_config(seg, PAR_CTX_REGS));
        s.point(w, segmented_software_config(soft, PAR_CTX_REGS));
        let mut win = nsf_core::WindowedConfig::sparc_like(PAR_CTX_REGS);
        win.windows = windows;
        s.point(w, SimConfig::with_regfile(RegFileSpec::Windowed(win)));
    }
    vec![Figure {
        name: "par-grid",
        sweep: s,
        render: render_points,
    }]
}

/// `synth::parallel` parameters: the generator's defaults, or a seeded
/// draw that keeps threads × iterations × work (the instruction budget)
/// near the default's.
pub fn synth_params(draw: Option<&mut SplitMix>) -> ParParams {
    let d = ParParams::default();
    let Some(r) = draw else { return d };
    let threads = r.range(4, 12) as u32;
    let work = r.range(12, 28) as u32;
    let budget = d.threads * d.iters * d.work;
    ParParams {
        threads,
        iters: (budget / (threads * work)).max(4),
        work,
        active_regs: r.range(12, 28) as u8,
    }
}

/// A figure binary's name, grid and renderer.
type FigureDef = (&'static str, fn(u32) -> Sweep, Render);

/// The table1/fig09/fig10/fig14/summary grids, rendered by the figure
/// binaries' own renderers. A seeded draw moves every NSF size by up to
/// ±16 registers and every segmented file by up to ±1 frame.
fn rerun_warm(scale: u32, mut draw: Option<&mut SplitMix>) -> Vec<Figure> {
    let figures: [FigureDef; 5] = [
        ("table1", table1::grid, table1::render),
        ("fig09", fig09::grid, fig09::render),
        ("fig10", fig10::grid, fig10::render),
        ("fig14", fig14::grid, fig14::render),
        ("summary", summary::grid, summary::render),
    ];
    figures
        .into_iter()
        .map(|(name, grid, render)| {
            let mut sweep = grid(scale);
            if let Some(r) = draw.as_mut() {
                for p in &mut sweep.points {
                    perturb(&mut p.cfg, r);
                }
            }
            Figure {
                name,
                sweep,
                render,
            }
        })
        .collect()
}

/// Redraws one configuration from its own family and range.
fn perturb(cfg: &mut SimConfig, r: &mut SplitMix) {
    match &mut cfg.regfile {
        RegFileSpec::Nsf(c) => {
            c.total_regs = c.total_regs + 8 * r.range(0, 4) as u32 - 16;
        }
        RegFileSpec::Segmented(c) => {
            c.frames = (i64::from(c.frames) + r.range(0, 2) as i64 - 1).max(2) as u32;
        }
        _ => {}
    }
}

/// Per-point table used for the sweeps that have no figure renderer of
/// their own: reloads per instruction, utilization and spill overhead.
pub fn render_points(scale: u32, sweep: &Sweep, reports: &[RunReport], _quiet: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Per-point register-file statistics, scale {scale}").unwrap();
    writeln!(
        out,
        "{:<10} {:<44} {:>9} {:>9} {:>9}",
        "Benchmark", "Register file", "Reloads", "Util", "Overhead"
    )
    .unwrap();
    for (i, r) in reports.iter().enumerate() {
        writeln!(
            out,
            "{:<10} {:<44} {:>9} {:>9} {:>9}",
            sweep.workload_of(i).name,
            r.regfile_desc,
            pct(r.reloads_per_instr()),
            pct(r.utilization()),
            pct(r.spill_overhead()),
        )
        .unwrap();
    }
    out
}

/// A comparable description of a workload's grid: one
/// `(figure, benchmark, configuration)` entry per point, in order.
pub fn grid_key(figures: &[Figure]) -> Vec<String> {
    figures
        .iter()
        .flat_map(|f| {
            f.sweep.points.iter().map(move |p| {
                let name = f.sweep.workloads[p.workload].name;
                format!("{} {} {:?}", f.name, name, p.cfg)
            })
        })
        .collect()
}

/// Whether a frontend group's stream can be captured and stored: its
/// program is batchable, and its head is untraced and single-issue.
pub fn capturable(sweep: &Sweep, group: &[usize]) -> bool {
    let p = &sweep.points[group[0]];
    batchable_program(&sweep.workloads[p.workload].program)
        && p.cfg.trace_depth == 0
        && p.cfg.issue_width == 1
}

/// Number of frontend groups of `sweep` whose stream can be stored.
pub fn capturable_groups(sweep: &Sweep) -> usize {
    sweep
        .frontend_groups()
        .iter()
        .filter(|g| capturable(sweep, g))
        .count()
}

/// FNV-1a 64 digest of a report's full `Debug` text.
pub fn digest(report: &RunReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One reference line per point: `figure index benchmark digest`.
pub fn reference_lines(figures: &[Figure], reports: &[Vec<RunReport>]) -> Vec<String> {
    figures
        .iter()
        .zip(reports)
        .flat_map(|(f, rs)| {
            rs.iter().enumerate().map(move |(i, r)| {
                format!(
                    "{} {i} {} {:016x}",
                    f.name,
                    f.sweep.workload_of(i).name,
                    digest(r)
                )
            })
        })
        .collect()
}

/// Total size in bytes of the regular files under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Name, size and modification time of every entry in `dir`, sorted:
/// two equal snapshots mean nothing was written, replaced or deleted.
pub fn dir_snapshot(dir: &Path) -> Vec<(String, u64, std::time::SystemTime)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            let name = e.file_name().to_string_lossy().into_owned();
            Some((name, m.len(), m.modified().ok()?))
        })
        .collect();
    out.sort();
    out
}

/// `(q1, median, q3)` of `xs` by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`; a single value is all three.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// SplitMix64: a small seeded generator, enough to draw grids.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// One element of `xs`.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.next_u64() as usize % xs.len()]
    }
}
