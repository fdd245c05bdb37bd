//! `nsfbench` — host time to regenerate the paper's figures.
//!
//! ```text
//! cargo run --release --manifest-path nsfbench/Cargo.toml -- \
//!     --workload seq-fanout --seed 0 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the default user
//! path (`nsf_bench::run_with_args`); `--trace 1` is a separate run that
//! mirrors that path with spans and prints the per-layer split. The last
//! line of standard output is one JSON object. `README.md` in this
//! directory defines every metric and workload.

use nsf_bench::{run_with_args, HarnessArgs};
use nsf_sim::RunReport;
use nsf_trace::{replay_events, StreamStore};
use nsfbench::traced::{self, Counters, Tracer};
use nsfbench::{
    build, capturable_groups, dir_bytes, dir_snapshot, quartiles, reference_lines, Figure, Kind,
    DEFAULT_SEED, SCALE,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: nsfbench --workload seq-fanout|par-live|rerun-warm \
     --seed N --seconds N --trace 0|1 [--write-reference]";

/// Set-ups before the measured passes; `setup_s` is the median of all
/// set-ups timed in a run.
const SETUPS: usize = 3;
/// Fewest measured passes per run, however long they take.
const MIN_PASSES: usize = 3;
/// Sweep worker threads (`--threads`); every host has at least one.
/// One worker keeps the peak resident set independent of how groups
/// happen to overlap on threads, keeps a second core free for the
/// host's other load, and lets the traced mirror run groups in order.
const THREADS: usize = 1;

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut write_reference) =
        (DEFAULT_SEED, 10.0_f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Opts {
        kind,
        seed,
        seconds,
        trace,
        write_reference,
    })
}

/// A workload's figures, built and (for `rerun-warm`) with a filled store.
struct Setup {
    figures: Vec<Figure>,
    args: Vec<HarnessArgs>,
    /// Grid and workload build alone.
    build_s: f64,
    /// Build plus store prefill.
    setup_s: f64,
    /// The prefill pass's outputs (`rerun-warm` only).
    prefill: Vec<Outcome>,
}

/// One figure through the default path: reports and rendered text, or
/// why it failed.
type Outcome = Result<(Vec<RunReport>, String), String>;

struct Bench {
    opts: Opts,
    run_dir: PathBuf,
    /// Notes on failed checks, printed before the result.
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn fig_dir(&self, fig: &Figure) -> PathBuf {
        self.run_dir.join(fig.name)
    }

    fn store_dir(&self, fig: &Figure) -> PathBuf {
        self.fig_dir(fig).join("store")
    }

    fn setup(&self) -> Setup {
        let t0 = Instant::now();
        let figures = build(self.opts.kind, self.opts.seed, SCALE);
        let build_s = t0.elapsed().as_secs_f64();
        let args: Vec<HarnessArgs> = figures
            .iter()
            .map(|f| {
                let raw = [
                    "--scale".to_string(),
                    SCALE.to_string(),
                    "--threads".to_string(),
                    THREADS.to_string(),
                    "--out".to_string(),
                    self.fig_dir(f).display().to_string(),
                ];
                HarnessArgs::try_from_args(raw).expect("the benchmark's own flags parse")
            })
            .collect();
        let mut prefill = Vec::new();
        if self.opts.kind == Kind::RerunWarm {
            for (f, a) in figures.iter().zip(&args) {
                let _ = std::fs::remove_dir_all(self.store_dir(f));
                prefill.push(run_default(f, a));
            }
        }
        Setup {
            figures,
            args,
            build_s,
            setup_s: t0.elapsed().as_secs_f64(),
            prefill,
        }
    }

    /// Puts every store in the state the workload's rule gives it before
    /// a measured pass: `seq-fanout` starts empty; `par-live` has none;
    /// `rerun-warm` keeps what set-up filled.
    fn reset_stores(&self, figures: &[Figure]) {
        if self.opts.kind == Kind::SeqFanout {
            for f in figures {
                let _ = std::fs::remove_dir_all(self.store_dir(f));
            }
        }
    }

    /// One timed pass of every figure through the default path.
    fn pass(&self, s: &Setup) -> (f64, Vec<Outcome>) {
        self.reset_stores(&s.figures);
        let before: Vec<_> = s
            .figures
            .iter()
            .map(|f| dir_snapshot(&self.store_dir(f)))
            .collect();
        let t0 = Instant::now();
        let outs: Vec<Outcome> = s
            .figures
            .iter()
            .zip(&s.args)
            .map(|(f, a)| run_default(f, a))
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        // The store-isolation guard, after the clock stopped.
        let outs = s
            .figures
            .iter()
            .zip(outs)
            .zip(before)
            .map(|((f, out), before)| out.and_then(|o| self.guard(f, &before).map(|()| o)))
            .collect();
        (secs, outs)
    }

    /// Store isolation: `seq-fanout` may not hit (every stored group
    /// missed and saved its own entry), `rerun-warm`'s measured pass may
    /// not miss or reject (the store is unchanged and holds every
    /// group), and `par-live` may not write.
    fn guard(
        &self,
        f: &Figure,
        before: &[(String, u64, std::time::SystemTime)],
    ) -> Result<(), String> {
        let after = dir_snapshot(&self.store_dir(f));
        let groups = capturable_groups(&f.sweep);
        let ok = match self.opts.kind {
            Kind::SeqFanout => after.len() == groups,
            Kind::RerunWarm => after == before && after.len() == groups,
            Kind::ParLive => after.is_empty(),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: store guard failed ({} stored groups, {} entries before, {} after)",
                f.name,
                groups,
                before.len(),
                after.len()
            ))
        }
    }

    /// Counts one pass's points, failing every point of a failed figure
    /// and every point whose report digest differs from `expected`.
    fn tally(&mut self, figures: &[Figure], outs: &[Outcome], expected: &[String]) {
        let mut lines = Vec::new();
        for (f, out) in figures.iter().zip(outs) {
            let n = f.sweep.points.len();
            self.attempted += n as u64;
            match out {
                Ok((reports, _)) => lines.extend(reference_lines(
                    std::slice::from_ref(f),
                    std::slice::from_ref(reports),
                )),
                Err(e) => {
                    self.failed += n as u64;
                    self.note(e.clone());
                    lines.extend((0..n).map(|_| String::new()));
                }
            }
        }
        let mismatched = lines
            .iter()
            .enumerate()
            .filter(|(i, l)| !l.is_empty() && expected.get(*i) != Some(*l))
            .count();
        if mismatched > 0 {
            self.failed += mismatched as u64;
            self.note(format!(
                "{mismatched} report digests differ from the reference"
            ));
        }
    }

    fn note(&mut self, msg: String) {
        if !self.notes.contains(&msg) {
            self.notes.push(msg);
        }
    }

    fn reference_path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{}.digests", self.opts.kind.name()))
    }

    /// The digests every pass must reproduce: the checked-in reference at
    /// the default seed, else the first outcome's.
    fn expected(&mut self, figures: &[Figure], first: &[Outcome]) -> Vec<String> {
        let ok: Option<Vec<Vec<RunReport>>> = first
            .iter()
            .map(|o| o.as_ref().ok().map(|(r, _)| r.clone()))
            .collect();
        let own = ok.map(|r| reference_lines(figures, &r)).unwrap_or_default();
        if self.opts.seed != DEFAULT_SEED {
            return own;
        }
        if self.opts.write_reference {
            let mut text = own.join("\n");
            text.push('\n');
            std::fs::write(self.reference_path(), text).expect("reference directory is writable");
        }
        match std::fs::read_to_string(self.reference_path()) {
            Ok(text) => text.lines().map(String::from).collect(),
            Err(e) => {
                self.note(format!("no reference digests: {e}"));
                own
            }
        }
    }
}

/// `run_with_args` plus the figure's renderer, with a panic (a failed
/// validation) turned into an error.
fn run_default(f: &Figure, args: &HarnessArgs) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| {
        let reports = run_with_args(&f.sweep, args);
        let text = (f.render)(args.scale, &f.sweep, &reports, args.quiet);
        (reports, text)
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{}: {msg}", f.name)
    })
}

fn instructions(outs: &[Outcome]) -> u64 {
    outs.iter()
        .flatten()
        .flat_map(|(r, _)| r)
        .map(|r| r.instructions)
        .sum()
}

/// Peak resident set of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb * 1024.0 / 1e6
}

/// Metric name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn describe(name: &str, xs: &[f64], unit: &str) -> String {
    let (q1, med, q3) = quartiles(xs);
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    format!(
        "{name:<16} median {med:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} max {max:<12.6} n {} ({unit})",
        xs.len()
    )
}

fn untraced(b: &mut Bench) -> Vec<Metric> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let s = b.setup();
        setup_s.push(s.setup_s);
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    let points: usize = s.figures.iter().map(|f| f.sweep.points.len()).sum();
    println!(
        "nsfbench {} seed {} scale {SCALE} threads {THREADS} points {points}",
        b.opts.kind.name(),
        b.opts.seed,
    );
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(b.opts.seconds);
    let (mut sweep_s, mut rate) = (Vec::new(), Vec::new());
    let mut expected = None;
    let mut texts = Vec::new();
    while sweep_s.len() < MIN_PASSES || Instant::now() < deadline {
        // A set-up without a store prefill takes about a millisecond:
        // sample one before every pass too, so that its median spans the
        // same stretch of host time as `sweep_s`.
        if s.prefill.is_empty() {
            setup_s.push(b.setup().setup_s);
        }
        let (secs, outs) = b.pass(&s);
        if expected.is_none() {
            let first = if s.prefill.is_empty() {
                &outs
            } else {
                &s.prefill
            };
            let exp = b.expected(&s.figures, first);
            if !s.prefill.is_empty() {
                b.tally(&s.figures, &s.prefill, &exp);
            }
            expected = Some(exp);
        }
        b.tally(&s.figures, &outs, expected.as_deref().unwrap_or_default());
        sweep_s.push(secs);
        rate.push(instructions(&outs) as f64 / secs);
        texts = outs;
    }
    // The rendered text a user would keep, beside the store.
    for (f, out) in s.figures.iter().zip(&texts) {
        if let Ok((_, text)) = out {
            let _ = std::fs::create_dir_all(b.fig_dir(f));
            std::fs::write(b.fig_dir(f).join("figure.txt"), text)
                .expect("run directory is writable");
        }
    }
    println!("{}", describe("sweep_s", &sweep_s, "s"));
    println!("sweep_s samples  {sweep_s:.4?}");
    println!("{}", describe("sim_instr_per_s", &rate, "1/s"));
    println!("{}", describe("setup_s", &setup_s, "s"));
    let failed_frac = b.failed as f64 / b.attempted.max(1) as f64;
    println!(
        "failed_frac      {failed_frac} ({} of {} points)",
        b.failed, b.attempted
    );
    vec![
        ("sweep_s", quartiles(&sweep_s).1, "s"),
        ("sim_instr_per_s", quartiles(&rate).1, "1/s"),
        ("setup_s", quartiles(&setup_s).1, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("store_disk_mb", dir_bytes(&b.run_dir) as f64 / 1e6, "MB"),
    ]
}

fn traced_run(b: &mut Bench) -> Vec<Metric> {
    let s = b.setup();
    let static_instr: usize = s
        .figures
        .iter()
        .flat_map(|f| &f.sweep.workloads)
        .map(|w| w.program.len())
        .sum();
    let points: usize = s.figures.iter().map(|f| f.sweep.points.len()).sum();
    let phase = std::time::Duration::from_secs_f64(b.opts.seconds / 3.0);

    // Untraced passes: the baseline of the tracing overhead.
    let (mut untraced_s, mut baseline) = (Vec::new(), None);
    let until = Instant::now() + phase;
    while untraced_s.len() < MIN_PASSES || Instant::now() < until {
        let (secs, outs) = b.pass(&s);
        untraced_s.push(secs);
        baseline.get_or_insert(outs);
    }
    let baseline = baseline.expect("at least one pass");
    let expected = b.expected(&s.figures, &baseline);
    b.tally(&s.figures, &baseline, &expected);

    // The program's own routing counters, for the mirror to match.
    let mut want = nsf_bench::FrontendCacheStats::default();
    b.reset_stores(&s.figures);
    for (f, a) in s.figures.iter().zip(&s.args) {
        let store = StreamStore::open(b.store_dir(f));
        match catch_unwind(AssertUnwindSafe(|| {
            f.sweep.run_stored_stats(a.threads, a.lanes, Some(&store)).1
        })) {
            Ok(st) => {
                want.replayed_points += st.replayed_points;
                want.store_hits += st.store_hits;
                want.store_misses += st.store_misses;
                want.store_served_points += st.store_served_points;
            }
            Err(_) => b.note(format!("{}: run_stored_stats failed", f.name)),
        }
    }

    // Traced passes.
    let mut tracer = Tracer::default();
    let (mut traced_s, mut iters) = (Vec::new(), 0u32);
    let mut c = Counters::default();
    let mut runs: Vec<Option<traced::FigureRun>> = Vec::new();
    let until = Instant::now() + phase;
    while traced_s.len() < MIN_PASSES || Instant::now() < until {
        b.reset_stores(&s.figures);
        c = Counters::default();
        let t0 = Instant::now();
        let outs: Vec<_> = s
            .figures
            .iter()
            .map(|f| {
                let store = StreamStore::open(b.store_dir(f));
                traced::run_figure(&mut tracer, iters, f, &store, SCALE)
            })
            .collect();
        traced_s.push(t0.elapsed().as_secs_f64());
        iters += 1;
        runs = outs
            .into_iter()
            .map(|o| match o {
                Ok((run, fc)) => {
                    c.add(&fc);
                    Some(run)
                }
                Err(e) => {
                    b.note(e);
                    None
                }
            })
            .collect();
        let as_outcomes: Vec<Outcome> = runs
            .iter()
            .zip(&s.figures)
            .map(|(r, f)| {
                r.as_ref()
                    .map(|r| (r.reports.clone(), r.text.clone()))
                    .ok_or_else(|| format!("{}: traced run failed", f.name))
            })
            .collect();
        // Tracing is observational: the same reports as untraced.
        b.tally(&s.figures, &as_outcomes, &expected);
        let got = (
            c.replay_points,
            c.load_hits,
            c.capture_calls,
            c.served_points,
        );
        let routed = (
            want.replayed_points,
            want.store_hits,
            want.store_misses,
            want.store_served_points,
        );
        if got != routed {
            b.failed += points as u64;
            b.note(format!(
                "traced route differs from run_stored_stats: (replayed, hits, captures, served) {got:?} vs {routed:?}"
            ));
        }
    }

    // Engine alone: each point's own register-event trace replayed
    // through its own configuration.
    let (mut engine_events, mut engine_s, mut engine_live_s) = (0u64, 0.0, 0.0);
    for (f, run) in s.figures.iter().zip(&runs) {
        for (i, p) in f.sweep.points.iter().enumerate() {
            let w = f.sweep.workload_of(i);
            let Ok((trace, report)) = nsf_trace::capture(w, p.cfg, "probe", SCALE) else {
                b.failed += 1;
                b.note(format!("{}: engine probe capture failed", f.name));
                continue;
            };
            let t0 = Instant::now();
            let replayed = replay_events(&trace.events, &p.cfg);
            let secs = t0.elapsed().as_secs_f64();
            match replayed {
                Ok(r) if r.stats == report.regfile => {
                    engine_events += r.events;
                    engine_s += secs;
                    if run.as_ref().is_some_and(|r| r.live[i]) {
                        engine_live_s += secs;
                    }
                }
                _ => {
                    b.failed += 1;
                    b.note(format!(
                        "{}: engine replay differs from the live run",
                        f.name
                    ));
                }
            }
        }
    }

    let spans = tracer.spans();
    let spans_path = b.run_dir.join("spans.jsonl");
    if let Err(e) = traced::write_spans(&spans_path, &spans) {
        b.note(format!("cannot write spans: {e}"));
    }
    let layers = traced::layer_times(&spans);
    let per_iter = |name: &str| {
        layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.2) / f64::from(iters.max(1))
    };
    let reports: Vec<&RunReport> = runs.iter().flatten().flat_map(|r| &r.reports).collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let n = points as f64;
    let live_s = per_iter("live.run");
    let (u, t) = (quartiles(&untraced_s).1, quartiles(&traced_s).1);
    let metrics: Vec<Metric> = vec![
        ("build.s", s.build_s, "s"),
        ("build.static_instr", static_instr as f64, "count"),
        ("live.points", c.live_points as f64, "count"),
        ("live.s", live_s, "s"),
        ("live.instr", c.live_instr as f64, "count"),
        (
            "live.instr_per_s",
            ratio(c.live_instr as f64, live_s),
            "1/s",
        ),
        ("live.setup_s", per_iter("live.setup"), "s"),
        ("check.s", per_iter("check"), "s"),
        ("sched.thread_switches", c.thread_switches as f64, "count"),
        ("sched.ctx_switches", c.ctx_switches as f64, "count"),
        ("sched.idle_cycles", c.idle_cycles as f64, "count"),
        ("engine.events", engine_events as f64, "count"),
        ("engine.s", engine_s, "s"),
        (
            "engine.events_per_s",
            ratio(engine_events as f64, engine_s),
            "1/s",
        ),
        ("engine.share_of_live", ratio(engine_live_s, live_s), "frac"),
        (
            "regfile.reloads",
            reports.iter().map(|r| r.regfile.regs_reloaded).sum::<u64>() as f64,
            "count",
        ),
        (
            "regfile.spills",
            reports.iter().map(|r| r.regfile.regs_spilled).sum::<u64>() as f64,
            "count",
        ),
        (
            "dcache.misses",
            reports.iter().map(|r| r.dcache.misses).sum::<u64>() as f64,
            "count",
        ),
        ("lanes.passes", c.capture_calls as f64, "count"),
        ("lanes.points", c.capture_calls as f64, "count"),
        ("lanes.s", per_iter("capture"), "s"),
        ("capture.calls", c.capture_calls as f64, "count"),
        ("capture.s", per_iter("capture"), "s"),
        ("capture.bytes", c.capture_bytes as f64, "B"),
        ("replay.points", c.replay_points as f64, "count"),
        ("replay.s", per_iter("replay"), "s"),
        (
            "replay.points_per_capture",
            ratio(
                (c.replay_points - c.served_points) as f64,
                c.capture_calls as f64,
            ),
            "count",
        ),
        ("cache.replayed_frac", c.replay_points as f64 / n, "frac"),
        ("store.load.calls", c.load_calls as f64, "count"),
        ("store.load.hits", c.load_hits as f64, "count"),
        ("store.load.s", per_iter("store.load"), "s"),
        ("store.load.bytes", c.load_bytes as f64, "B"),
        ("store.save.calls", c.save_calls as f64, "count"),
        ("store.save.s", per_iter("store.save"), "s"),
        ("store.save.bytes", c.save_bytes as f64, "B"),
        ("store.rejects", c.rejects as f64, "count"),
        ("store.served_frac", c.served_points as f64 / n, "frac"),
        ("render.s", per_iter("render"), "s"),
        ("trace.sweep_s", t, "s"),
        ("trace.untraced_sweep_s", u, "s"),
        ("trace.overhead_s", t - u, "s"),
    ];

    println!(
        "nsfbench {} seed {} scale {SCALE} threads {THREADS} points {points} traced passes {iters} (trace mode)",
        b.opts.kind.name(),
        b.opts.seed,
    );
    println!("{}", describe("untraced sweep_s", &untraced_s, "s"));
    println!("{}", describe("traced sweep_s", &traced_s, "s"));
    println!(
        "spans per traced pass (written to {}):",
        spans_path.display()
    );
    println!(
        "{:<12} {:>8} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, count, total, own) in &layers {
        let k = f64::from(iters.max(1));
        println!(
            "{name:<12} {:>8} {:>12.6} {:>12.6}",
            *count as f64 / k,
            total / k,
            own / k
        );
    }
    let mut table = String::new();
    let mut layer = "";
    for (name, value, unit) in &metrics {
        let prefix = name.split('.').next().unwrap_or(name);
        if prefix != layer {
            layer = prefix;
            let _ = writeln!(table, "[{layer}]");
        }
        let _ = writeln!(table, "  {name:<28} {value:>18.6} {unit}");
    }
    print!("{table}");
    metrics
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(opts.kind.name());
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).expect("run directory can be created");
    let mut b = Bench {
        opts,
        run_dir,
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let metrics = if b.opts.trace {
        traced_run(&mut b)
    } else {
        untraced(&mut b)
    };
    for n in &b.notes {
        println!("FAILED CHECK: {n}");
    }
    let correct = b.failed == 0 && b.notes.is_empty();
    println!("{}", json(correct, b.attempted.max(1), b.failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_flags() {
        let o = parse(&args(&[
            "--workload",
            "par-live",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.kind, Kind::ParLive);
        assert_eq!(o.seed, 7);
        assert!(o.trace);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "par-live", "--trace", "2"],
            &["--workload", "par-live", "--seconds"],
            &["--workload", "par-live", "--extra", "1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json(true, 3, 0, &[("sweep_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"sweep_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
