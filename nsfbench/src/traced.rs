//! The traced run: the default sweep path's routing, mirrored in the
//! benchmark's own code with a span around every call into a layer.
//!
//! [`run_figure`] takes the same route `nsf_bench::run_with_args` takes
//! with its default flags (`Sweep::run_stored_stats` over a persistent
//! store): a frontend group whose stream can be stored is looked up in
//! the store and replayed on a hit, or captured, saved and replayed on a
//! miss; every other group runs the live `Machine` point by point. The
//! caller checks the mirror's counters against the ones
//! `Sweep::run_stored_stats` returns, so a mirror that drifts from the
//! program's routing fails the run instead of timing the wrong thing.

use crate::{capturable, Figure};
use nsf_sim::{Machine, RunReport, SimConfig};
use nsf_trace::{capture_frontend, replay_frontend, stream_fingerprint, StreamStore};
use nsf_workloads::Workload;
use std::time::Instant;

/// One timed call: what ran, when, what caused it, and for which point.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer call, e.g. `capture` or `live.run`.
    pub name: &'static str,
    /// Figure the call worked for.
    pub figure: &'static str,
    /// Index of the (first) grid point the call worked for.
    pub point: Option<u32>,
    /// Traced pass.
    pub iter: u32,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Keeps every span in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    next: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    figure: &'static str,
    iter: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            figure: "",
            iter: 0,
        }
    }
}

impl Tracer {
    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Runs `f` inside a span named `name`; spans `f` opens are its
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.next;
        self.next += 1;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            figure: self.figure,
            point: point.map(|p| p as u32),
            iter: self.iter,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Work counts of one traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Points run by the live `Machine`.
    pub live_points: u64,
    /// Simulated instructions of those points.
    pub live_instr: u64,
    /// Simulated thread switches of those points.
    pub thread_switches: u64,
    /// Simulated context switches of those points.
    pub ctx_switches: u64,
    /// Simulated idle cycles of those points.
    pub idle_cycles: u64,
    /// `capture_frontend` calls (each one single-lane `LaneSet` pass).
    pub capture_calls: u64,
    /// Encoded bytes those captures produced.
    pub capture_bytes: u64,
    /// Points served by `replay_frontend`.
    pub replay_points: u64,
    /// `StreamStore::load_stream` calls.
    pub load_calls: u64,
    /// Loads whose entry was intact and replayed: the group was served.
    pub load_hits: u64,
    /// Bytes of the entries loaded.
    pub load_bytes: u64,
    /// `StreamStore::save_stream` calls.
    pub save_calls: u64,
    /// Bytes of the entries saved.
    pub save_bytes: u64,
    /// Entries rejected: damaged, foreign, or failing replay.
    pub rejects: u64,
    /// Points served from a stored stream.
    pub served_points: u64,
}

impl Counters {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counters) {
        self.live_points += o.live_points;
        self.live_instr += o.live_instr;
        self.thread_switches += o.thread_switches;
        self.ctx_switches += o.ctx_switches;
        self.idle_cycles += o.idle_cycles;
        self.capture_calls += o.capture_calls;
        self.capture_bytes += o.capture_bytes;
        self.replay_points += o.replay_points;
        self.load_calls += o.load_calls;
        self.load_hits += o.load_hits;
        self.load_bytes += o.load_bytes;
        self.save_calls += o.save_calls;
        self.save_bytes += o.save_bytes;
        self.rejects += o.rejects;
        self.served_points += o.served_points;
    }
}

/// Results of one traced figure: reports in grid order, which points
/// ran the live `Machine`, and the rendered text.
pub struct FigureRun {
    /// One report per grid point.
    pub reports: Vec<RunReport>,
    /// Whether each point ran live.
    pub live: Vec<bool>,
    /// The figure's text.
    pub text: String,
}

type GroupOut = Result<(Vec<RunReport>, bool), String>;

/// Runs `fig` along the default route over `store`, one group after
/// another as the default path does with one worker thread, with spans;
/// then renders it.
pub fn run_figure(
    t: &mut Tracer,
    iter: u32,
    fig: &Figure,
    store: &StreamStore,
    scale: u32,
) -> Result<(FigureRun, Counters), String> {
    t.figure = fig.name;
    t.iter = iter;
    let mut c = Counters::default();
    t.span("sweep", None, |t| {
        let mut reports: Vec<Option<RunReport>> = vec![None; fig.sweep.points.len()];
        let mut live = vec![false; reports.len()];
        for g in fig.sweep.frontend_groups() {
            let (rs, ran_live) = t.span("group", Some(g[0]), |t| {
                run_group(t, &mut c, fig, store, &g)
            })?;
            for (&i, r) in g.iter().zip(rs) {
                reports[i] = Some(r);
                live[i] = ran_live;
            }
        }
        let reports: Vec<RunReport> = reports
            .into_iter()
            .map(|r| r.ok_or_else(|| format!("{}: a point got no report", fig.name)))
            .collect::<Result<_, _>>()?;
        let text = t.span("render", None, |_| {
            (fig.render)(scale, &fig.sweep, &reports, false)
        });
        Ok((
            FigureRun {
                reports,
                live,
                text,
            },
            c,
        ))
    })
}

/// One frontend group along the default route; `true` when its points
/// ran the live `Machine`.
fn run_group(
    t: &mut Tracer,
    c: &mut Counters,
    fig: &Figure,
    store: &StreamStore,
    g: &[usize],
) -> GroupOut {
    let sweep = &fig.sweep;
    let w = sweep.workload_of(g[0]);
    let head = sweep.points[g[0]].cfg;
    let cfgs =
        |ix: &[usize]| -> Vec<SimConfig> { ix.iter().map(|&i| sweep.points[i].cfg).collect() };
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
    let fingerprint = if capturable(sweep, g) {
        stream_fingerprint(w, &head)
    } else {
        None
    };
    let Some(fp) = fingerprint else {
        let reports = g
            .iter()
            .map(|&i| live_point(t, c, w, sweep.points[i].cfg, i))
            .collect::<Result<_, _>>()?;
        return Ok((reports, true));
    };
    let at = Some(g[0]);
    let path = store.stream_path(fp);
    let size = std::fs::metadata(&path).map_or(0, |m| m.len());
    c.load_calls += 1;
    match t.span("store.load", at, |_| store.load_stream(fp, &head)) {
        Ok(Some(buf)) => match t.span("replay", at, |_| replay_frontend(&buf, w, &cfgs(g))) {
            Ok(reports) => {
                c.load_hits += 1;
                c.load_bytes += size;
                c.replay_points += g.len() as u64;
                c.served_points += g.len() as u64;
                return Ok((reports, false));
            }
            Err(_) => {
                c.rejects += 1;
                store.remove_stream(fp);
            }
        },
        Ok(None) => {}
        Err(_) => {
            c.rejects += 1;
            store.remove_stream(fp);
        }
    }
    let buf = t
        .span("capture", at, |_| capture_frontend(w, head))
        .map_err(|e| fail(&e))?;
    c.capture_calls += 1;
    c.capture_bytes += buf.encoded_len() as u64;
    // As on the default path, a failed save only costs later hits.
    let _ = t.span("store.save", at, |_| store.save_stream(fp, &buf));
    c.save_calls += 1;
    c.save_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    let mut reports = vec![buf.report.clone()];
    if g.len() > 1 {
        let rest = t
            .span("replay", Some(g[1]), |_| {
                replay_frontend(&buf, w, &cfgs(&g[1..]))
            })
            .map_err(|e| fail(&e))?;
        reports.extend(rest);
        c.replay_points += g.len() as u64 - 1;
    }
    Ok((reports, false))
}

/// One point on the live `Machine`, as `nsf_workloads::run` runs it:
/// build and stage memory, run, validate the output.
fn live_point(
    t: &mut Tracer,
    c: &mut Counters,
    w: &Workload,
    cfg: SimConfig,
    i: usize,
) -> Result<RunReport, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
    let mut m = t
        .span("live.setup", Some(i), |_| {
            let mut m = Machine::new(w.program.clone(), cfg)?;
            for (addr, words) in &w.mem_init {
                m.mem.poke_block(*addr, words);
            }
            Ok::<_, nsf_sim::SimError>(m)
        })
        .map_err(|e| fail(&e))?;
    let r = t
        .span("live.run", Some(i), |_| m.run_and_keep())
        .map_err(|e| fail(&e))?;
    t.span("check", Some(i), |_| (w.check)(&m.mem))
        .map_err(|e| fail(&format!("wrong output: {e}")))?;
    c.live_points += 1;
    c.live_instr += r.instructions;
    c.thread_switches += r.thread_switches;
    c.ctx_switches += r.context_switches;
    c.idle_cycles += r.idle_cycles;
    Ok(r)
}

/// Per span name: `(count, total seconds, self seconds)`, where self
/// time is a span's duration minus its children's (the tracer runs on
/// one thread, so children never overlap).
pub fn layer_times(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut child_secs = std::collections::HashMap::<u32, f64>::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for s in spans {
        let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.secs();
                e.3 += own;
            }
            None => out.push((s.name, 1, s.secs(), own)),
        }
    }
    out
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"figure\":\"{}\",\"point\":{},\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.figure,
            opt(s.point),
            s.iter,
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()
}
