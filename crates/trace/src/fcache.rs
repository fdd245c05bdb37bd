//! The frontend event-stream cache: pay a workload's frontend once.
//!
//! Every figure grid sweeps register-file organizations over a fixed
//! workload, so consecutive grid points re-execute an identical
//! fetch/decode/schedule/memory frontend. Lane batching
//! ([`nsf_sim::LaneSet`]) amortizes that inside one batched pass; this
//! module removes it from *every subsequent point of the sweep*: the
//! first point of each distinct workload/frontend runs live under a
//! [`FrontendProbe`] that records the frontend's architectural event
//! stream into a compact in-memory buffer (the `.nsftrace` varint
//! encoding layer, no file I/O — [`VarWriter`]/[`VarReader`]), and
//! every later frontend-equal point replays that buffer straight into
//! its [`EngineDispatch`] lane — no workload generation, no fetch, no
//! decode, no scheduling.
//!
//! ## The equivalence wall
//!
//! Replay is exact, and that claim is enforced three ways:
//!
//! - Every event that carries an architectural value (register reads,
//!   loads, atomics) stores the **live run's value** in the buffer, and
//!   every replay lane compares what its engine/memory produced against
//!   it — the first mismatch aborts with
//!   [`SimError::LaneDivergence`]. This is strictly stronger than lane
//!   batching's lane-vs-lane-0 check: replay is compared to the live
//!   capture itself.
//! - Replayed lanes end with real memory (inputs + program stores +
//!   spill frames), so [`replay_frontend`] validates every lane against
//!   the workload's own output check, exactly like
//!   [`nsf_workloads::run`].
//! - Decode errors (truncation, over-long varints, unknown tags) are
//!   typed [`TraceError`]s surfaced as [`SimError::BadConfig`] — a
//!   corrupt buffer can never silently produce statistics.
//!
//! ## Why replayed reports are exact
//!
//! For batchable programs the clock is write-only (see `lanes.rs`): a
//! lane's cycle count decomposes into the lane-invariant frontend
//! charges (recorded as one [`FrontendBuffer::shared_cycles`] sum) plus
//! its private register-file stalls and data-cache latencies, which the
//! replay regenerates by driving the real engine and a real per-lane
//! memory hierarchy through the recorded operation sequence. All other
//! frontend counters (instructions, class mix, calls, switches) are
//! lane-invariant and copied from the capture's report.

use crate::format::VarWriter;
use nsf_core::{Cid, EngineDispatch, EngineVisitor, LaneOp, RegAddr, RegisterFile};
use nsf_mem::{Addr, MemSystem, Word};
use nsf_sim::{
    FrontendProbe, LaneSet, LaneStore, OccupancySummary, RunReport, SimConfig, SimError,
    BACKING_STRIDE_WORDS,
};
use nsf_workloads::{Workload, WorkloadError};

// Frontend-cache event tags. Dense, disjoint per event kind; the buffer
// is in-memory and versionless (it never outlives the process), so the
// vocabulary can evolve freely.
const FTAG_READ: u8 = 1;
const FTAG_WRITE: u8 = 2;
const FTAG_SWITCH: u8 = 3;
const FTAG_CALL_PUSH: u8 = 4;
const FTAG_THREAD_SWITCH: u8 = 5;
const FTAG_FREE_CONTEXT: u8 = 6;
const FTAG_FREE_REG: u8 = 7;
const FTAG_LOAD: u8 = 8;
const FTAG_STORE: u8 = 9;
const FTAG_AMO: u8 = 10;
const FTAG_SAMPLE: u8 = 11;

/// A [`FrontendProbe`] that encodes the shared frontend's event stream
/// into a [`VarWriter`] as it happens. Attached to a single-lane
/// [`LaneSet`] run by [`capture_frontend`].
#[derive(Debug, Default)]
struct FrontendRecorder {
    w: VarWriter,
    events: u64,
    shared_cycles: u64,
}

impl FrontendProbe for FrontendRecorder {
    fn reg_op(&mut self, op: LaneOp, value: Option<Word>) {
        self.events += 1;
        match op {
            LaneOp::Read(a) => {
                self.w.put_u8(FTAG_READ);
                self.w.put_varint(u64::from(a.cid));
                self.w.put_u8(a.offset);
                // The live value: replay lanes must reproduce it.
                self.w
                    .put_varint(u64::from(value.expect("reads return a value")));
            }
            LaneOp::Write(a, v) => {
                self.w.put_u8(FTAG_WRITE);
                self.w.put_varint(u64::from(a.cid));
                self.w.put_u8(a.offset);
                self.w.put_varint(u64::from(v));
            }
            LaneOp::SwitchTo(cid) => {
                self.w.put_u8(FTAG_SWITCH);
                self.w.put_varint(u64::from(cid));
            }
            LaneOp::CallPush(cid) => {
                self.w.put_u8(FTAG_CALL_PUSH);
                self.w.put_varint(u64::from(cid));
            }
            LaneOp::ThreadSwitch(cid) => {
                self.w.put_u8(FTAG_THREAD_SWITCH);
                self.w.put_varint(u64::from(cid));
            }
            LaneOp::FreeContext(cid) => {
                self.w.put_u8(FTAG_FREE_CONTEXT);
                self.w.put_varint(u64::from(cid));
            }
            LaneOp::FreeReg(a) => {
                self.w.put_u8(FTAG_FREE_REG);
                self.w.put_varint(u64::from(a.cid));
                self.w.put_u8(a.offset);
            }
        }
    }

    fn mem_load(&mut self, addr: Addr, value: Word) {
        self.events += 1;
        self.w.put_u8(FTAG_LOAD);
        self.w.put_varint(u64::from(addr));
        self.w.put_varint(u64::from(value));
    }

    fn mem_store(&mut self, addr: Addr, value: Word) {
        self.events += 1;
        self.w.put_u8(FTAG_STORE);
        self.w.put_varint(u64::from(addr));
        self.w.put_varint(u64::from(value));
    }

    fn mem_amo(&mut self, addr: Addr, delta: i32, old: Word) {
        self.events += 1;
        self.w.put_u8(FTAG_AMO);
        self.w.put_varint(u64::from(addr));
        self.w.put_varint_signed(i64::from(delta));
        self.w.put_varint(u64::from(old));
    }

    fn shared_charge(&mut self, cycles: u32) {
        // Cycle accumulation is commutative, so the lane-invariant part
        // of the clock needs no per-event entries — one sum suffices.
        self.shared_cycles += u64::from(cycles);
    }

    fn occupancy_sample(&mut self) {
        self.events += 1;
        self.w.put_u8(FTAG_SAMPLE);
    }
}

/// One workload/frontend's captured event stream plus everything a
/// replay needs: the frontend configuration it is valid for, the
/// lane-invariant cycle total, and the capture run's full report (the
/// template for a replayed report's shared fields — and itself the
/// capture point's result).
#[derive(Debug)]
pub struct FrontendBuffer {
    /// The configuration the capture ran under. Replay is legal for any
    /// configuration with [`SimConfig::frontend_eq`] to this one.
    pub cfg: SimConfig,
    /// The encoded event stream (crate-visible so `crate::store` can
    /// persist and reconstruct buffers without re-encoding).
    pub(crate) bytes: Vec<u8>,
    /// Number of events encoded.
    pub events: u64,
    /// Sum of the lane-invariant frontend cycle charges.
    pub shared_cycles: u64,
    /// The capture run's validated report (bit-identical to
    /// [`nsf_workloads::run`] under the same configuration).
    pub report: RunReport,
}

impl FrontendBuffer {
    /// Encoded size in bytes (diagnostics; ~4 B/event like `.nsftrace`).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Runs `workload` under `cfg` live — single-lane [`LaneSet`], output
/// validated by the workload's check — while recording the frontend
/// event stream. Returns the buffer; its [`FrontendBuffer::report`] is
/// the capture point's own result.
pub fn capture_frontend(
    workload: &Workload,
    cfg: SimConfig,
) -> Result<FrontendBuffer, WorkloadError> {
    let mut rec = FrontendRecorder {
        // Scale-1 streams run to megabytes; reserving up front keeps the
        // encoder out of the vector's doubling copies.
        w: VarWriter::with_capacity(1 << 20),
        events: 0,
        shared_cycles: 0,
    };
    let mut lanes = LaneSet::new(workload.program.clone(), std::slice::from_ref(&cfg))?;
    for (addr, words) in &workload.mem_init {
        lanes.poke_block(*addr, words);
    }
    let mut reports = lanes.run_probed(&mut rec)?;
    (workload.check)(lanes.lane_mem(0)).map_err(|detail| WorkloadError::CheckFailed {
        name: workload.name,
        detail,
    })?;
    let report = reports.pop().expect("single-lane capture has one report");
    Ok(FrontendBuffer {
        cfg,
        bytes: rec.w.into_bytes(),
        events: rec.events,
        shared_cycles: rec.shared_cycles,
        report,
    })
}

/// Replays `buf` into every configuration in `cfgs` and returns one
/// report per configuration — bit-identical to what
/// [`nsf_workloads::run`] would return for each, with every lane's
/// final memory validated against the workload's check. The buffer is
/// decoded **once** into a flat replay program; each lane then runs as
/// its own engine+memory pass over it (see `ReplaySet::run`).
/// Any divergence from the recorded live values aborts with
/// [`SimError::LaneDivergence`]; corrupt buffers abort with
/// [`SimError::BadConfig`].
pub fn replay_frontend(
    buf: &FrontendBuffer,
    workload: &Workload,
    cfgs: &[SimConfig],
) -> Result<Vec<RunReport>, WorkloadError> {
    let mut set = ReplaySet::new(buf, cfgs)?;
    for (addr, words) in &workload.mem_init {
        set.poke_block(*addr, words);
    }
    set.run(buf)?;
    for i in 0..cfgs.len() {
        (workload.check)(&set.stores[i].mem).map_err(|detail| WorkloadError::CheckFailed {
            name: workload.name,
            detail: format!("cached-replay lane {i}: {detail}"),
        })?;
    }
    Ok(set.reports(buf))
}

/// Replay op kinds are the `FTAG_*` event tags plus two ops the decoder
/// synthesizes for Ctable maintenance.
const RTAG_MAP: u8 = 12;
const RTAG_UNMAP: u8 = 13;

/// One decoded frontend event in flat replay form (20 bytes): a kind
/// byte that dispatches directly, the operand fields, and the event
/// index for error reporting. Ctable maintenance is resolved at decode
/// time into explicit [`RTAG_MAP`]/[`RTAG_UNMAP`] entries — the decision
/// (first switch to a context since its last free) is lane-invariant, so
/// it is made once per buffer instead of once per lane. Mapping at first
/// switch is equivalent to the live machine's map-at-allocation because
/// a mapping is unobservable until the engine spills, which can only
/// happen after the context became current.
#[derive(Clone, Copy, Debug)]
struct ReplayOp {
    /// `FTAG_*` event tag, or `RTAG_MAP`/`RTAG_UNMAP`.
    kind: u8,
    /// Register offset within the context (register ops).
    off: u8,
    /// Context ID (register and Ctable ops).
    cid: Cid,
    /// First payload word: the live run's value for reads, the written
    /// value for writes, the memory address for loads/stores/atomics,
    /// the context's backing base address for maps.
    a: u32,
    /// Second payload word: the live run's value for loads, the stored
    /// value for stores, the delta (two's complement) for atomics.
    b: u32,
    /// Third payload word: the live run's old value for atomics.
    c: u32,
    /// Event index in the capture stream (error reporting only).
    pc: u32,
}

/// Decode-time cursor. [`VarReader`] is the same encoding, but its
/// per-field `Result` plumbing costs real time at half a dozen calls per
/// event times hundreds of thousands of events; this cursor keeps the
/// reads `Option`-shaped and fully inlined, and the (cold) error
/// formatting lives in [`corrupt_at`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    #[inline(always)]
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    #[inline(always)]
    fn varint(&mut self) -> Option<u64> {
        let b0 = *self.bytes.get(self.pos)?;
        self.pos += 1;
        if b0 < 0x80 {
            return Some(u64::from(b0));
        }
        let mut v = u64::from(b0 & 0x7F);
        let mut shift = 7u32;
        loop {
            let byte = *self.bytes.get(self.pos)?;
            self.pos += 1;
            if shift >= 64 || (shift == 63 && byte > 1) {
                // Tenth byte: only bit 0 still fits a u64 and it must
                // terminate — reject over-long and overflowing varints
                // instead of silently truncating (`x << 63` keeps only
                // the low payload bit).
                return None;
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    #[inline(always)]
    fn u16v(&mut self) -> Option<u16> {
        u16::try_from(self.varint()?).ok()
    }

    #[inline(always)]
    fn u32v(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    #[inline(always)]
    fn i32v(&mut self) -> Option<i32> {
        let z = self.varint()?;
        i32::try_from(((z >> 1) as i64) ^ -((z & 1) as i64)).ok()
    }
}

/// Truncated buffer or a varint overflowing its field.
#[cold]
fn corrupt_at(event: u64) -> SimError {
    SimError::BadConfig(format!(
        "frontend cache buffer corrupt: truncated or malformed field at event {event}"
    ))
}

/// Decodes the whole event stream into a flat replay program — paid
/// once per replay set, not once per lane. Truncation, over-long
/// varints and unknown tags surface as [`SimError::BadConfig`].
fn decode_ops(buf: &FrontendBuffer) -> Result<Vec<ReplayOp>, SimError> {
    let mut cur = Cursor {
        bytes: &buf.bytes,
        pos: 0,
    };
    // ~4.5 encoded bytes per event.
    let mut ops = Vec::with_capacity(buf.bytes.len() / 4 + 16);
    // `mapped[cid]`: Ctable entry built (lane-invariant — every lane
    // maps the same contexts at the same events).
    let mut mapped: Vec<bool> = Vec::new();
    let backing_base = buf.cfg.backing_base;
    let mut event: u64 = 0;
    macro_rules! field {
        ($read:expr) => {
            match $read {
                Some(v) => v,
                None => return Err(corrupt_at(event)),
            }
        };
    }
    fn ensure_mapped(ops: &mut Vec<ReplayOp>, mapped: &mut Vec<bool>, base: Addr, cid: Cid) {
        let i = usize::from(cid);
        if i >= mapped.len() {
            mapped.resize(i + 1, false);
        }
        if !mapped[i] {
            ops.push(ReplayOp {
                kind: RTAG_MAP,
                off: 0,
                cid,
                a: base + Addr::from(cid) * BACKING_STRIDE_WORDS,
                b: 0,
                c: 0,
                pc: 0,
            });
            mapped[i] = true;
        }
    }
    while cur.pos < cur.bytes.len() {
        let tag = cur.bytes[cur.pos];
        cur.pos += 1;
        let pc = u32::try_from(event).unwrap_or(u32::MAX);
        match tag {
            FTAG_READ | FTAG_WRITE => {
                let cid = field!(cur.u16v());
                let off = field!(cur.u8());
                let a = field!(cur.u32v());
                ops.push(ReplayOp {
                    kind: tag,
                    off,
                    cid,
                    a,
                    b: 0,
                    c: 0,
                    pc,
                });
            }
            FTAG_SWITCH | FTAG_CALL_PUSH | FTAG_THREAD_SWITCH => {
                let cid = field!(cur.u16v());
                ensure_mapped(&mut ops, &mut mapped, backing_base, cid);
                ops.push(ReplayOp {
                    kind: tag,
                    off: 0,
                    cid,
                    a: 0,
                    b: 0,
                    c: 0,
                    pc,
                });
            }
            FTAG_FREE_CONTEXT => {
                let cid = field!(cur.u16v());
                ops.push(ReplayOp {
                    kind: tag,
                    off: 0,
                    cid,
                    a: 0,
                    b: 0,
                    c: 0,
                    pc,
                });
                ops.push(ReplayOp {
                    kind: RTAG_UNMAP,
                    off: 0,
                    cid,
                    a: 0,
                    b: 0,
                    c: 0,
                    pc,
                });
                if let Some(m) = mapped.get_mut(usize::from(cid)) {
                    *m = false;
                }
            }
            FTAG_FREE_REG => {
                let cid = field!(cur.u16v());
                let off = field!(cur.u8());
                ops.push(ReplayOp {
                    kind: tag,
                    off,
                    cid,
                    a: 0,
                    b: 0,
                    c: 0,
                    pc,
                });
            }
            FTAG_LOAD | FTAG_STORE => {
                let a = field!(cur.u32v());
                let b = field!(cur.u32v());
                ops.push(ReplayOp {
                    kind: tag,
                    off: 0,
                    cid: 0,
                    a,
                    b,
                    c: 0,
                    pc,
                });
            }
            FTAG_AMO => {
                let a = field!(cur.u32v());
                let delta = field!(cur.i32v());
                let c = field!(cur.u32v());
                ops.push(ReplayOp {
                    kind: tag,
                    off: 0,
                    cid: 0,
                    a,
                    b: delta as u32,
                    c,
                    pc,
                });
            }
            FTAG_SAMPLE => ops.push(ReplayOp {
                kind: tag,
                off: 0,
                cid: 0,
                a: 0,
                b: 0,
                c: 0,
                pc,
            }),
            other => {
                return Err(SimError::BadConfig(format!(
                    "frontend cache buffer corrupt: unknown event tag {other} \
                     at event {event}"
                )))
            }
        }
        event += 1;
    }
    if event != buf.events {
        return Err(SimError::BadConfig(format!(
            "frontend cache buffer corrupt: decoded {event} events, \
             capture recorded {}",
            buf.events
        )));
    }
    Ok(ops)
}

/// N engine lanes driven by a decoded [`FrontendBuffer`] instead of a
/// live frontend: register files, per-lane memory hierarchies and
/// clocks.
struct ReplaySet {
    regfiles: Vec<EngineDispatch>,
    stores: Vec<LaneStore>,
    clocks: Vec<u64>,
    occupancy: Vec<OccupancySummary>,
}

impl ReplaySet {
    fn new(buf: &FrontendBuffer, cfgs: &[SimConfig]) -> Result<Self, SimError> {
        if cfgs.is_empty() {
            return Err(SimError::BadConfig(
                "a replay set needs at least one configuration".into(),
            ));
        }
        for cfg in cfgs {
            if !cfg.frontend_eq(&buf.cfg) {
                return Err(SimError::BadConfig(
                    "replay configuration's frontend differs from the captured \
                     one; the cached event stream would not be valid for it"
                        .into(),
                ));
            }
            let spill_regs = cfg.regfile.max_spill_regs();
            if spill_regs > BACKING_STRIDE_WORDS {
                return Err(SimError::BadConfig(format!(
                    "organization can spill {spill_regs} words per context, \
                     overflowing the {BACKING_STRIDE_WORDS}-word backing stride: \
                     context save areas would overlap"
                )));
            }
        }
        Ok(ReplaySet {
            regfiles: cfgs.iter().map(|c| c.regfile.build()).collect(),
            stores: cfgs
                .iter()
                .map(|c| LaneStore::new(MemSystem::new(c.mem)))
                .collect(),
            clocks: vec![0; cfgs.len()],
            occupancy: vec![OccupancySummary::default(); cfgs.len()],
        })
    }

    fn poke_block(&mut self, addr: Addr, words: &[Word]) {
        for s in &mut self.stores {
            s.mem.poke_block(addr, words);
        }
    }

    /// Decodes the event stream once, then runs the lanes one after
    /// another over it. Each lane enters [`replay_lane`] through
    /// [`EngineDispatch::visit`]: its engine family is matched once per
    /// lane, and the whole op loop runs monomorphized for it, with the
    /// engine's methods called (and inlined) statically. Lanes are
    /// independent, so lane order produces the same results as any
    /// interleaving. The first lane to fail stops the set with its error.
    fn run(&mut self, buf: &FrontendBuffer) -> Result<(), SimError> {
        let ops = decode_ops(buf)?;
        let lanes = self
            .regfiles
            .iter_mut()
            .zip(&mut self.stores)
            .zip(&mut self.clocks)
            .zip(&mut self.occupancy);
        for (lane, (((engine, store), clock), occupancy)) in lanes.enumerate() {
            engine.visit(LaneReplay {
                store,
                clock,
                occupancy,
                ops: &ops,
                lane,
            })?;
        }
        Ok(())
    }

    fn reports(&self, buf: &FrontendBuffer) -> Vec<RunReport> {
        (0..self.regfiles.len())
            .map(|i| {
                let mut r = buf.report.clone();
                r.cycles = buf.shared_cycles + self.clocks[i];
                r.regfile = *self.regfiles[i].stats();
                r.regfile_desc = self.regfiles[i].describe();
                r.regfile_capacity = self.regfiles[i].capacity();
                r.dcache = self.stores[i].mem.dcache_stats();
                r.occupancy = self.occupancy[i];
                r
            })
            .collect()
    }
}

/// One lane's pass over the decoded stream, handed to its engine by
/// [`EngineDispatch::visit`].
struct LaneReplay<'a> {
    store: &'a mut LaneStore,
    clock: &'a mut u64,
    occupancy: &'a mut OccupancySummary,
    ops: &'a [ReplayOp],
    lane: usize,
}

impl EngineVisitor for LaneReplay<'_> {
    type Output = Result<(), SimError>;

    fn visit<E: RegisterFile + ?Sized>(self, engine: &mut E) -> Self::Output {
        replay_lane(
            engine,
            self.store,
            self.clock,
            self.occupancy,
            self.ops,
            self.lane,
        )
    }
}

/// Drives one engine and its memory hierarchy through the decoded
/// stream: register ops go to `engine`, loads/stores/atomics and Ctable
/// maintenance to `store.mem`, and stall and cache cycles accumulate
/// into `clock`. Every value-bearing event is checked against the
/// recording; the first disagreement fails with
/// [`SimError::LaneDivergence`], an engine failure with
/// [`SimError::RegFile`].
fn replay_lane<E: RegisterFile + ?Sized>(
    engine: &mut E,
    store: &mut LaneStore,
    clock: &mut u64,
    occupancy: &mut OccupancySummary,
    ops: &[ReplayOp],
    lane: usize,
) -> Result<(), SimError> {
    let mut cycles = 0u64;
    for op in ops {
        let pc = op.pc;
        let failed = |source| SimError::RegFile { pc, source };
        match op.kind {
            FTAG_READ => {
                let addr = RegAddr::new(op.cid, op.off);
                let acc = engine.read(addr, store).map_err(failed)?;
                cycles += u64::from(acc.stall_cycles);
                if acc.value != op.a {
                    return Err(diverged(
                        pc,
                        lane,
                        format_args!(
                            "cached replay of read {addr} (event {pc}) returned {}, \
                             live run recorded {}",
                            acc.value, op.a
                        ),
                    ));
                }
            }
            FTAG_WRITE => {
                let addr = RegAddr::new(op.cid, op.off);
                let acc = engine.write(addr, op.a, store).map_err(failed)?;
                cycles += u64::from(acc.stall_cycles);
            }
            FTAG_SWITCH => cycles += u64::from(engine.switch_to(op.cid, store).map_err(failed)?),
            FTAG_CALL_PUSH => cycles += u64::from(engine.call_push(op.cid, store).map_err(failed)?),
            FTAG_THREAD_SWITCH => {
                cycles += u64::from(engine.thread_switch(op.cid, store).map_err(failed)?);
            }
            FTAG_FREE_CONTEXT => engine.free_context(op.cid, store),
            FTAG_FREE_REG => engine.free_reg(RegAddr::new(op.cid, op.off), store),
            FTAG_LOAD => {
                let (v, c) = store.mem.load(op.a);
                cycles += u64::from(c);
                if v != op.b {
                    return Err(diverged(
                        pc,
                        lane,
                        format_args!(
                            "cached replay of load {:#x} (event {pc}) read {v}, \
                             live run recorded {}",
                            op.a, op.b
                        ),
                    ));
                }
            }
            FTAG_STORE => cycles += u64::from(store.mem.store(op.a, op.b)),
            FTAG_AMO => {
                let (old, c) = store.mem.fetch_add(op.a, op.b as i32);
                cycles += u64::from(c);
                if old != op.c {
                    return Err(diverged(
                        pc,
                        lane,
                        format_args!(
                            "cached replay of amoadd {:#x} (event {pc}) read {old}, \
                             live run recorded {}",
                            op.a, op.c
                        ),
                    ));
                }
            }
            FTAG_SAMPLE => occupancy.record(engine.occupancy()),
            RTAG_MAP => store.mem.ctable_mut().map(op.cid, op.a),
            RTAG_UNMAP => store.mem.ctable_mut().unmap(op.cid),
            other => unreachable!("decode_ops admits no tag {other}"),
        }
    }
    *clock += cycles;
    Ok(())
}

/// A replayed value disagreed with the live run's recording.
#[cold]
fn diverged(pc: u32, lane: usize, detail: std::fmt::Arguments<'_>) -> SimError {
    SimError::LaneDivergence {
        pc,
        lane,
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::VarReader;
    use nsf_core::{RegFileError, SpillEngine};
    use nsf_sim::RegFileSpec;

    fn five_specs() -> Vec<SimConfig> {
        [
            RegFileSpec::paper_nsf(64),
            RegFileSpec::paper_segmented(4, 32),
            RegFileSpec::Conventional {
                regs: 32,
                engine: SpillEngine::hardware(),
            },
            RegFileSpec::sparc_windows(32),
            RegFileSpec::Oracle,
        ]
        .into_iter()
        .map(SimConfig::with_regfile)
        .collect()
    }

    #[test]
    fn capture_report_matches_live_run() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
        let live = nsf_workloads::run(&w, cfg).unwrap();
        let buf = capture_frontend(&w, cfg).unwrap();
        assert_eq!(buf.report, live, "capture must be observational");
        assert!(buf.events > 0);
        assert!(buf.encoded_len() > 0);
        assert!(buf.shared_cycles <= live.cycles);
    }

    #[test]
    fn replay_reproduces_live_reports_across_families() {
        let w = nsf_workloads::gatesim::build(0);
        let cfgs = five_specs();
        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
        for (cfg, rep) in cfgs.iter().zip(&replayed) {
            let live = nsf_workloads::run(&w, *cfg).unwrap();
            assert_eq!(*rep, live, "{}", rep.regfile_desc);
        }
    }

    #[test]
    fn replay_with_capture_config_is_bit_identical() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 32));
        let buf = capture_frontend(&w, cfg).unwrap();
        let replayed = replay_frontend(&buf, &w, &[cfg]).unwrap();
        assert_eq!(replayed[0], buf.report);
    }

    #[test]
    fn failing_lane_reports_its_own_typed_error_in_any_position() {
        let w = nsf_workloads::gatesim::build(0);
        let nsf = SimConfig::with_regfile(RegFileSpec::paper_nsf(64));
        let seg = SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 32));
        // Frames narrower than the program's register offsets: the
        // engine rejects the first out-of-range access.
        let narrow = SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 2));
        let buf = capture_frontend(&w, nsf).unwrap();
        let alone = replay_frontend(&buf, &w, &[narrow]).unwrap_err();
        let WorkloadError::Sim(SimError::RegFile {
            source: RegFileError::BadOffset(_),
            ..
        }) = &alone
        else {
            panic!("expected RegFile/BadOffset, got {alone:?}");
        };
        for at in [0, 2, 4] {
            let mut cfgs = vec![nsf, seg, nsf, seg, nsf];
            cfgs[at] = narrow;
            let err = replay_frontend(&buf, &w, &cfgs).unwrap_err();
            assert_eq!(
                format!("{err:?}"),
                format!("{alone:?}"),
                "failing lane at {at}"
            );
        }
    }

    #[test]
    fn mixed_size_fan_of_17_lanes_matches_live_runs() {
        // The Figs. 11-12 size fan as one replay group: NSF and
        // segmented files alternate, so every lane switches family.
        let w = nsf_workloads::gatesim::build(0);
        let mut cfgs = Vec::new();
        for frames in 2..=10u32 {
            cfgs.push(SimConfig::with_regfile(RegFileSpec::paper_nsf(frames * 20)));
            cfgs.push(SimConfig::with_regfile(RegFileSpec::paper_segmented(
                frames, 20,
            )));
        }
        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        let replayed = replay_frontend(&buf, &w, &cfgs[1..]).unwrap();
        assert_eq!(replayed.len(), 17);
        for (cfg, rep) in cfgs[1..].iter().zip(&replayed) {
            let live = nsf_workloads::run(&w, *cfg).unwrap();
            assert_eq!(*rep, live, "{}", rep.regfile_desc);
        }
    }

    #[test]
    fn mismatched_frontend_rejected() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::default();
        let buf = capture_frontend(&w, cfg).unwrap();
        let other = SimConfig {
            sample_interval: cfg.sample_interval + 1,
            ..cfg
        };
        let err = replay_frontend(&buf, &w, &[other]).unwrap_err();
        assert!(matches!(err, WorkloadError::Sim(SimError::BadConfig(_))));
    }

    #[test]
    fn cursor_varint_rejects_overflow_and_overlength() {
        let cur = |bytes: &[u8]| Cursor { bytes, pos: 0 }.varint();
        // u64::MAX is the widest legal encoding (nine 0xFF, then 0x01).
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(cur(&max), Some(u64::MAX));
        // Tenth-byte payload above bit 0 overflows a u64; a tenth-byte
        // continuation bit makes it over-long. Both must decode to None
        // (the caller reports a typed corruption error), never wrap.
        let mut over = vec![0xFFu8; 9];
        over.push(0x03);
        assert_eq!(cur(&over), None);
        let mut eleven = vec![0xFFu8; 10];
        eleven.push(0x00);
        assert_eq!(cur(&eleven), None);
        assert_eq!(cur(&[0xFF; 16]), None);
    }

    #[test]
    fn corrupt_buffer_is_a_typed_error() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::default();
        let mut buf = capture_frontend(&w, cfg).unwrap();
        buf.bytes.truncate(buf.bytes.len() / 2);
        let err = replay_frontend(&buf, &w, &[cfg]).unwrap_err();
        let WorkloadError::Sim(SimError::BadConfig(msg)) = &err else {
            panic!("expected BadConfig, got {err:?}");
        };
        assert!(msg.contains("corrupt"), "{msg}");
    }

    #[test]
    fn tampered_value_trips_the_divergence_wall() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::default();
        let mut buf = capture_frontend(&w, cfg).unwrap();
        // Flip the recorded value of the first read event: replay must
        // notice the engine no longer agrees with the "live" recording.
        let mut r = VarReader::new(&buf.bytes);
        let mut patch_at = None;
        while !r.done() {
            let tag = r.get_u8().unwrap();
            match tag {
                FTAG_READ => {
                    r.get_u16().unwrap();
                    r.get_u8().unwrap();
                    patch_at = Some(r.pos());
                    break;
                }
                FTAG_WRITE => {
                    r.get_u16().unwrap();
                    r.get_u8().unwrap();
                    r.get_u32().unwrap();
                }
                FTAG_SWITCH | FTAG_CALL_PUSH | FTAG_THREAD_SWITCH | FTAG_FREE_CONTEXT => {
                    r.get_u16().unwrap();
                }
                FTAG_FREE_REG => {
                    r.get_u16().unwrap();
                    r.get_u8().unwrap();
                }
                FTAG_LOAD | FTAG_STORE => {
                    r.get_u32().unwrap();
                    r.get_u32().unwrap();
                }
                FTAG_AMO => {
                    r.get_u32().unwrap();
                    r.get_varint_signed().unwrap();
                    r.get_u32().unwrap();
                }
                FTAG_SAMPLE => {}
                other => panic!("unknown tag {other}"),
            }
        }
        let at = patch_at.expect("gatesim reads registers");
        // Single-byte varints (< 0x80) can be flipped in place without
        // breaking the framing; skip the (rare) multi-byte case.
        if buf.bytes[at] < 0x80 {
            buf.bytes[at] ^= 1;
            let err = replay_frontend(&buf, &w, &[cfg]).unwrap_err();
            assert!(
                matches!(err, WorkloadError::Sim(SimError::LaneDivergence { .. })),
                "expected LaneDivergence, got {err:?}"
            );
        }
    }
}
