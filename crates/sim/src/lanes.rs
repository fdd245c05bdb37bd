//! Lane-batched execution: one instruction stream, N register files.
//!
//! Every figure in the paper sweeps *register file organizations* over a
//! fixed workload, so consecutive sweep points re-fetch, re-decode and
//! re-schedule an identical instruction stream and differ only in
//! register-file behaviour. [`LaneSet`] exploits that: it holds N
//! independent [`EngineDispatch`] lanes in structure-of-arrays form and
//! steps them interleaved through a single shared frontend — one fetch,
//! one decode, one scheduler decision and one branch resolution per
//! instruction, regardless of lane count.
//!
//! ## Why this is exact, not approximate
//!
//! For the programs lane batching accepts (single-threaded, no channel,
//! remote or synchronization operations — see [`batchable_program`]),
//! the clock is *write-only* during execution: scheduler decisions,
//! branch outcomes and memory addresses depend only on architectural
//! register values, and a register file organization may change only
//! *when* a value arrives, never *what* it is. So the lanes agree on
//! every architectural value at every step, the shared frontend replays
//! each serial run's control flow bit-for-bit, and each lane's private
//! clock, memory hierarchy and spill frames accumulate exactly the
//! timing its serial [`Machine`](crate::Machine) run would have.
//!
//! That claim is *enforced*, not assumed: every register read and every
//! memory access compares all lanes' values against lane 0 and fails
//! with [`SimError::LaneDivergence`] on the first disagreement — a
//! built-in equivalence wall in front of every batched data point, on
//! top of the serial-vs-lanes proptests in `tests/lane_equiv.rs`.

use crate::backing::LaneStore;
use crate::config::{SimConfig, BACKING_STRIDE_WORDS};
use crate::machine::{div_s, rem_s, SimError, Status, ICACHE_BASE};
use crate::metrics::{OccupancySummary, RunReport, SampleCountdown};
use nsf_core::{Cid, EngineDispatch, LaneOp, RegAddr, RegFileError, RegisterFile};
use nsf_isa::{Inst, InstClass, Program, Reg};
use nsf_mem::{Addr, Cache, MemSystem, Word};
use nsf_runtime::{SchedDecision, Scheduler, ThreadId};

/// `true` when `program` contains none of the operations that block a
/// thread or touch scheduler-visible state beyond one thread: spawns,
/// yields, channels, remote memory and synchronizing loads. Only such
/// single-threaded streams are lane-batchable — anything else wakes the
/// scheduler at clock-dependent times, and the clock is per-lane.
pub fn batchable_program(program: &Program) -> bool {
    use Inst::*;
    program.insts().iter().all(|i| {
        !matches!(
            i,
            Spawn { .. }
                | Yield
                | ChNew { .. }
                | ChSend { .. }
                | ChRecv { .. }
                | LwRemote { .. }
                | SwRemote { .. }
                | SyncWait { .. }
        )
    })
}

/// `true` when this (program, configurations) pair can execute as one
/// lane-batched pass: at least two lanes worth batching, identical
/// frontends (everything but the register file —
/// [`SimConfig::frontend_eq`]), tracing off, a single-issue frontend
/// (the multi-issue pipeline groups instructions by dynamic port
/// pressure, which is engine-dependent — such streams are not
/// lane-invariant and must run serial), and a batchable program.
pub fn batchable(program: &Program, cfgs: &[SimConfig]) -> bool {
    cfgs.len() > 1
        && cfgs[0].trace_depth == 0
        && cfgs[0].issue_width == 1
        && cfgs.iter().all(|c| cfgs[0].frontend_eq(c))
        && batchable_program(program)
}

/// Observer of a lane set's *shared frontend*: every architectural
/// event the fetch/decode/schedule/memory frontend produces, in
/// execution order, plus the lane-invariant cycle charges. All values
/// handed to a probe are lane-invariant (the equivalence wall enforces
/// that before the probe sees them), so a recording of one run drives a
/// replay of any frontend-equal configuration — the frontend event-
/// stream cache in `nsf-trace` is the intended consumer.
///
/// Methods default to no-ops; [`NoProbe`] (the plain [`LaneSet::
/// run_and_keep`] path) monomorphizes to nothing, so probing is free
/// when unused.
pub trait FrontendProbe {
    /// One register-file operation completed; `value` is the (lane-
    /// invariant) architectural result — `Some` for reads, else `None`.
    fn reg_op(&mut self, op: LaneOp, value: Option<Word>) {
        let _ = (op, value);
    }
    /// The program loaded `value` from `addr`.
    fn mem_load(&mut self, addr: Addr, value: Word) {
        let _ = (addr, value);
    }
    /// The program stored `value` at `addr`.
    fn mem_store(&mut self, addr: Addr, value: Word) {
        let _ = (addr, value);
    }
    /// The program atomically added `delta` at `addr`; `old` is the
    /// value read back.
    fn mem_amo(&mut self, addr: Addr, delta: i32, old: Word) {
        let _ = (addr, delta, old);
    }
    /// Every lane's clock advanced by `cycles` (base, fetch-penalty,
    /// taken-branch and switch-overhead charges — the lane-invariant
    /// part of the clock; per-lane stall and cache cycles are not
    /// reported, a replay regenerates them).
    fn shared_charge(&mut self, cycles: u32) {
        let _ = cycles;
    }
    /// The occupancy sampling interval elapsed (each lane records a
    /// sample at this point).
    fn occupancy_sample(&mut self) {}
}

/// The do-nothing probe behind [`LaneSet::run_and_keep`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl FrontendProbe for NoProbe {}

/// N independent register-file lanes stepped through one shared
/// fetch/decode/schedule frontend.
///
/// Shared across lanes: the program, the scheduler (pc, globals, call
/// stack, CID pool), instruction/class/call/switch counters, and the
/// instruction cache (the pc stream is identical, so every lane sees the
/// same fetch penalties). Private per lane: the register file engine,
/// the memory hierarchy with its Ctable and spill frames, the clock,
/// and occupancy samples.
///
/// # Examples
///
/// ```
/// use nsf_isa::asm::assemble;
/// use nsf_sim::{LaneSet, RegFileSpec, SimConfig};
///
/// let program = assemble(
///     "main: li r0, 6
///            li r1, 7
///            mul r2, r0, r1
///            li r3, 4096
///            sw r2, (r3)
///            halt",
/// )
/// .unwrap();
/// let cfgs = [
///     SimConfig::with_regfile(RegFileSpec::paper_nsf(128)),
///     SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 32)),
/// ];
/// let mut lanes = LaneSet::new(program, &cfgs)?;
/// let reports = lanes.run_and_keep()?;
/// assert_eq!(reports.len(), 2);
/// assert_eq!(reports[0].instructions, reports[1].instructions);
/// assert_eq!(lanes.lane_mem(0).peek(4096), 42);
/// assert_eq!(lanes.lane_mem(1).peek(4096), 42);
/// # Ok::<(), nsf_sim::SimError>(())
/// ```
pub struct LaneSet {
    cfg: SimConfig,
    program: Program,
    sched: Scheduler,
    regfiles: Vec<EngineDispatch>,
    stores: Vec<LaneStore>,
    clocks: Vec<u64>,
    occupancy: Vec<OccupancySummary>,
    /// Frontend counters shared by every lane; per-lane fields (cycles,
    /// regfile, dcache, occupancy, icache) are filled in per report.
    shared: RunReport,
    sample_clock: SampleCountdown,
    last_thread: Option<ThreadId>,
    active_cid: Option<Cid>,
    icache: Option<Cache>,
}

impl std::fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneSet")
            .field("lanes", &self.lanes())
            .field("clocks", &self.clocks)
            .field("instructions", &self.shared.instructions)
            .field("active_cid", &self.active_cid)
            .finish_non_exhaustive()
    }
}

impl LaneSet {
    /// Builds a lane set and spawns the initial thread, mirroring
    /// [`Machine::new`](crate::Machine::new) in every lane. Rejects
    /// incompatible configurations and unbatchable programs with
    /// [`SimError::BadConfig`].
    pub fn new(program: Program, cfgs: &[SimConfig]) -> Result<Self, SimError> {
        let first = cfgs.first().ok_or_else(|| {
            SimError::BadConfig("a lane set needs at least one configuration".into())
        })?;
        if !cfgs.iter().all(|c| first.frontend_eq(c)) {
            return Err(SimError::BadConfig(
                "lane configurations must agree on everything except the \
                 register file"
                    .into(),
            ));
        }
        if first.trace_depth != 0 {
            return Err(SimError::BadConfig(
                "lane batching does not support execution tracing".into(),
            ));
        }
        if first.issue_width > 1 {
            return Err(SimError::BadConfig(
                "lane batching supports only single-issue frontends; route \
                 multi-issue points through serial Machine runs"
                    .into(),
            ));
        }
        if !batchable_program(&program) {
            return Err(SimError::BadConfig(
                "program uses thread, channel or remote operations; lane \
                 batching needs a single-threaded stream"
                    .into(),
            ));
        }
        if (first.sched.cid_capacity as usize) > first.mem.ctable_slots {
            return Err(SimError::BadConfig(format!(
                "cid_capacity {} exceeds ctable_slots {}: contexts could not \
                 be mapped to backing store",
                first.sched.cid_capacity, first.mem.ctable_slots
            )));
        }
        for cfg in cfgs {
            let spill_regs = cfg.regfile.max_spill_regs();
            if spill_regs > BACKING_STRIDE_WORDS {
                return Err(SimError::BadConfig(format!(
                    "organization can spill {spill_regs} words per context, \
                     overflowing the {BACKING_STRIDE_WORDS}-word backing stride: \
                     context save areas would overlap"
                )));
            }
        }
        let mut set = LaneSet {
            cfg: *first,
            program,
            sched: Scheduler::new(first.sched),
            regfiles: cfgs.iter().map(|c| c.regfile.build()).collect(),
            stores: cfgs
                .iter()
                .map(|c| LaneStore::new(MemSystem::new(c.mem)))
                .collect(),
            clocks: vec![0; cfgs.len()],
            occupancy: vec![OccupancySummary::default(); cfgs.len()],
            shared: RunReport::default(),
            sample_clock: SampleCountdown::new(first.sample_interval),
            last_thread: None,
            active_cid: None,
            icache: first.icache.map(Cache::new),
        };
        let entry = set.program.entry();
        let tid = set.sched.spawn(entry, 0)?;
        let cid = set.sched.thread(tid).cid;
        set.map_ctable_all(cid);
        Ok(set)
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.regfiles.len()
    }

    /// One lane's memory system, for staging inputs and checking outputs.
    pub fn lane_mem(&self, lane: usize) -> &MemSystem {
        &self.stores[lane].mem
    }

    /// Writes `words` at `addr` in every lane's memory (input staging —
    /// lanes must start from identical data).
    pub fn poke_block(&mut self, addr: Addr, words: &[Word]) {
        for s in &mut self.stores {
            s.mem.poke_block(addr, words);
        }
    }

    /// Runs to completion and returns one report per lane, in lane
    /// order. Each report is bit-identical to what the corresponding
    /// serial [`Machine`](crate::Machine) run would produce.
    pub fn run_and_keep(&mut self) -> Result<Vec<RunReport>, SimError> {
        self.run_probed(&mut NoProbe)
    }

    /// [`LaneSet::run_and_keep`] with a [`FrontendProbe`] observing the
    /// shared frontend. Probing never perturbs the run: the reports (and
    /// every lane's memory) are identical to an unprobed run's.
    pub fn run_probed<P: FrontendProbe>(
        &mut self,
        probe: &mut P,
    ) -> Result<Vec<RunReport>, SimError> {
        loop {
            let decision = {
                let now = self.clocks[0];
                let (sched, mem) = (&mut self.sched, &self.stores[0].mem);
                sched.next(now, |addr| mem.peek(addr) == 0)
            };
            match decision {
                SchedDecision::Run(tid) => {
                    if self.last_thread != Some(tid) {
                        if self.last_thread.is_some() {
                            self.shared.thread_switches += 1;
                            self.charge_all(self.cfg.cycles.switch_overhead, probe);
                        }
                        self.last_thread = Some(tid);
                    }
                    let cid = self.sched.thread(tid).cid;
                    self.switch_all(cid, LaneOp::ThreadSwitch, probe)?;
                    self.run_current(probe)?;
                }
                SchedDecision::AllDone => break,
                SchedDecision::AdvanceTo(_) | SchedDecision::Deadlock => {
                    unreachable!("batchable programs never block")
                }
            }
        }
        Ok(self.reports())
    }

    fn reports(&mut self) -> Vec<RunReport> {
        self.shared.static_instructions = self.program.len();
        self.shared.thread_instructions = self
            .sched
            .threads()
            .iter()
            .map(|t| t.instructions)
            .collect();
        let icache_stats = self.icache.as_ref().map(|c| c.stats());
        (0..self.lanes())
            .map(|i| {
                let mut r = self.shared.clone();
                r.cycles = self.clocks[i];
                r.regfile = *self.regfiles[i].stats();
                r.regfile_desc = self.regfiles[i].describe();
                r.regfile_capacity = self.regfiles[i].capacity();
                r.dcache = self.stores[i].mem.dcache_stats();
                r.occupancy = self.occupancy[i];
                r.icache = icache_stats;
                r
            })
            .collect()
    }

    fn map_ctable_all(&mut self, cid: Cid) {
        let base = self.cfg.backing_base + Addr::from(cid) * BACKING_STRIDE_WORDS;
        for s in &mut self.stores {
            s.mem.ctable_mut().map(cid, base);
        }
    }

    /// Adds `cycles` to every lane's clock (frontend costs are identical
    /// across lanes by construction).
    fn charge_all<P: FrontendProbe>(&mut self, cycles: u32, probe: &mut P) {
        let c = u64::from(cycles);
        for clock in &mut self.clocks {
            *clock += c;
        }
        probe.shared_charge(cycles);
    }

    /// Applies one register-file operation to every lane, charging each
    /// lane's private stall cycles, and returns the (lane-invariant)
    /// architectural value. The first cross-lane disagreement fails with
    /// [`SimError::LaneDivergence`] — this is the equivalence wall.
    fn reg_op_all<P: FrontendProbe>(
        &mut self,
        op: LaneOp,
        pc: u32,
        probe: &mut P,
    ) -> Result<Option<Word>, SimError> {
        let LaneSet {
            regfiles,
            stores,
            clocks,
            ..
        } = self;
        let mut head: Option<Option<Word>> = None;
        let mut diverged: Option<(usize, Option<Word>, Option<Word>)> = None;
        let mut failed: Option<RegFileError> = None;
        EngineDispatch::step_lanes(regfiles, stores, op, |i, r| match r {
            Ok(step) => {
                clocks[i] += u64::from(step.stall_cycles);
                match head {
                    None => head = Some(step.value),
                    Some(h) => {
                        if h != step.value && diverged.is_none() {
                            diverged = Some((i, h, step.value));
                        }
                    }
                }
            }
            Err(e) => {
                if failed.is_none() {
                    failed = Some(e);
                }
            }
        });
        if let Some(source) = failed {
            return Err(SimError::RegFile { pc, source });
        }
        if let Some((lane, expect, got)) = diverged {
            return Err(SimError::LaneDivergence {
                pc,
                lane,
                detail: format!("{op:?} returned {got:?}, lane 0 returned {expect:?}"),
            });
        }
        let value = head.expect("lane sets are non-empty");
        probe.reg_op(op, value);
        Ok(value)
    }

    fn read_reg_all<P: FrontendProbe>(
        &mut self,
        cid: Cid,
        r: Reg,
        pc: u32,
        probe: &mut P,
    ) -> Result<Word, SimError> {
        match r {
            Reg::G(i) => Ok(self.sched.current_mut().globals[i as usize]),
            Reg::R(off) => Ok(self
                .reg_op_all(LaneOp::Read(RegAddr::new(cid, off)), pc, probe)?
                .expect("reads return a value")),
        }
    }

    fn write_reg_all<P: FrontendProbe>(
        &mut self,
        cid: Cid,
        r: Reg,
        value: Word,
        pc: u32,
        probe: &mut P,
    ) -> Result<(), SimError> {
        match r {
            Reg::G(i) => {
                self.sched.current_mut().globals[i as usize] = value;
                Ok(())
            }
            Reg::R(off) => {
                self.reg_op_all(LaneOp::Write(RegAddr::new(cid, off), value), pc, probe)?;
                Ok(())
            }
        }
    }

    /// Notifies every lane's register file that `cid` is now running
    /// (no-op when it already is), charging each lane's switch cycles.
    /// `op` routes to the organization's call-push / thread-switch /
    /// plain handler, mirroring the serial machine's `SwitchKind`.
    fn switch_all<P: FrontendProbe>(
        &mut self,
        cid: Cid,
        op: fn(Cid) -> LaneOp,
        probe: &mut P,
    ) -> Result<(), SimError> {
        if self.active_cid == Some(cid) {
            return Ok(());
        }
        self.reg_op_all(op(cid), 0, probe)?;
        self.shared.context_switches += 1;
        self.active_cid = Some(cid);
        Ok(())
    }

    /// Frees a dead context in every lane: register file, Ctable, and
    /// the shared CID pool.
    fn release_all<P: FrontendProbe>(&mut self, cid: Cid, probe: &mut P) -> Result<(), SimError> {
        self.reg_op_all(LaneOp::FreeContext(cid), 0, probe)?;
        for s in &mut self.stores {
            s.mem.ctable_mut().unmap(cid);
        }
        self.sched.free_cid(cid);
        if self.active_cid == Some(cid) {
            self.active_cid = None;
        }
        Ok(())
    }

    fn halt_all<P: FrontendProbe>(&mut self, probe: &mut P) -> Result<Status, SimError> {
        let mut cids: Vec<Cid> = {
            let t = self.sched.current_mut();
            t.call_stack.drain(..).map(|(_, c)| c).collect()
        };
        cids.push(self.sched.current_mut().cid);
        for c in cids {
            self.release_all(c, probe)?;
        }
        self.sched.finish_current();
        Ok(Status::Suspended)
    }

    fn run_current<P: FrontendProbe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        let mut issued: u64 = 0;
        loop {
            if self.shared.instructions >= self.cfg.max_instructions {
                return Err(SimError::MaxInstructions {
                    limit: self.cfg.max_instructions,
                });
            }
            match self.step(probe)? {
                Status::Continue => {}
                Status::Suspended => return Ok(()),
            }
            issued += 1;
            if let Some(q) = self.cfg.quantum {
                if issued >= q && self.sched.ready_count() > 0 {
                    self.sched.yield_current();
                    return Ok(());
                }
            }
        }
    }

    /// Executes one instruction of the running thread across all lanes.
    fn step<P: FrontendProbe>(&mut self, probe: &mut P) -> Result<Status, SimError> {
        let (pc, cid) = {
            let t = self.sched.current_mut();
            (t.pc, t.cid)
        };

        let inst = *self
            .program
            .fetch(pc)
            .ok_or(SimError::PcOutOfRange { pc })?;

        self.shared.instructions += 1;
        self.shared.class_counts[RunReport::class_index(inst.class())] += 1;
        self.sched.current_mut().instructions += 1;
        let base = self.base_cycles(inst.class());
        self.charge_all(base, probe);

        // One shared fetch: the pc stream is lane-invariant, so a single
        // icache access yields the penalty every serial run would pay.
        let fetch_penalty = self
            .icache
            .as_mut()
            .map(|ic| ic.access(ICACHE_BASE + pc, false) - ic.config().hit_cycles);
        if let Some(p) = fetch_penalty {
            self.charge_all(p, probe);
        }

        if self.sample_clock.tick() {
            for (o, rf) in self.occupancy.iter_mut().zip(&self.regfiles) {
                o.record(rf.occupancy());
            }
            probe.occupancy_sample();
        }

        self.execute(inst, pc, cid, probe)
    }

    fn base_cycles(&self, class: InstClass) -> u32 {
        let c = &self.cfg.cycles;
        match class {
            InstClass::Alu => c.alu,
            InstClass::Mem | InstClass::RemoteMem => c.mem_base,
            InstClass::Control => c.control,
            InstClass::Proc => c.proc_op,
            InstClass::Thread => c.thread_op,
            InstClass::Misc => c.misc,
        }
    }

    /// Loads `addr` in every lane, charging per-lane cache cycles; the
    /// loaded values must agree (lanes start from identical data and
    /// only spill frames — which programs never read — differ).
    fn load_all<P: FrontendProbe>(
        &mut self,
        addr: Addr,
        pc: u32,
        probe: &mut P,
    ) -> Result<Word, SimError> {
        let mut head: Option<Word> = None;
        for (i, s) in self.stores.iter_mut().enumerate() {
            let (v, cycles) = s.mem.load(addr);
            self.clocks[i] += u64::from(cycles);
            match head {
                None => head = Some(v),
                Some(h) => {
                    if h != v {
                        return Err(SimError::LaneDivergence {
                            pc,
                            lane: i,
                            detail: format!("load {addr:#x} read {v}, lane 0 read {h}"),
                        });
                    }
                }
            }
        }
        let v = head.expect("lane sets are non-empty");
        probe.mem_load(addr, v);
        Ok(v)
    }

    #[allow(clippy::too_many_lines)]
    fn execute<P: FrontendProbe>(
        &mut self,
        inst: Inst,
        pc: u32,
        cid: Cid,
        probe: &mut P,
    ) -> Result<Status, SimError> {
        use Inst::*;

        macro_rules! alu3 {
            ($rd:expr, $a:expr, $b:expr, $f:expr) => {{
                let x = self.read_reg_all(cid, $a, pc, probe)?;
                let y = self.read_reg_all(cid, $b, pc, probe)?;
                #[allow(clippy::redundant_closure_call)]
                let v = ($f)(x, y);
                self.write_reg_all(cid, $rd, v, pc, probe)?;
                self.advance(1);
            }};
        }
        macro_rules! alui {
            ($rd:expr, $a:expr, $imm:expr, $f:expr) => {{
                let x = self.read_reg_all(cid, $a, pc, probe)?;
                #[allow(clippy::redundant_closure_call)]
                let v = ($f)(x, $imm as Word);
                self.write_reg_all(cid, $rd, v, pc, probe)?;
                self.advance(1);
            }};
        }
        macro_rules! branch {
            ($a:expr, $b:expr, $t:expr, $cmp:expr) => {{
                let x = self.read_reg_all(cid, $a, pc, probe)?;
                let y = self.read_reg_all(cid, $b, pc, probe)?;
                #[allow(clippy::redundant_closure_call)]
                if ($cmp)(x, y) {
                    self.charge_all(self.cfg.cycles.taken_extra, probe);
                    self.sched.current_mut().pc = $t;
                } else {
                    self.advance(1);
                }
            }};
        }

        match inst {
            Add { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x.wrapping_add(y)),
            Sub { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x.wrapping_sub(y)),
            Mul { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x.wrapping_mul(y)),
            Div { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| div_s(x, y)),
            Rem { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| rem_s(x, y)),
            And { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x & y),
            Or { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x | y),
            Xor { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x ^ y),
            Sll { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x << (y & 31)),
            Srl { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x >> (y & 31)),
            Sra { rd, rs1, rs2 } => {
                alu3!(rd, rs1, rs2, |x: Word, y: Word| ((x as i32) >> (y & 31))
                    as Word)
            }
            Slt { rd, rs1, rs2 } => {
                alu3!(rd, rs1, rs2, |x: Word, y: Word| Word::from(
                    (x as i32) < (y as i32)
                ))
            }
            Sltu { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| Word::from(x < y)),
            Seq { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| Word::from(x == y)),

            Addi { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x.wrapping_add(y)),
            Andi { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x & y),
            Ori { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x | y),
            Xori { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x ^ y),
            Slli { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x << (y & 31)),
            Srli { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x >> (y & 31)),
            Srai { rd, rs1, imm } => {
                alui!(rd, rs1, imm, |x: Word, y: Word| ((x as i32) >> (y & 31))
                    as Word)
            }
            Slti { rd, rs1, imm } => {
                alui!(rd, rs1, imm, |x: Word, y: Word| Word::from(
                    (x as i32) < (y as i32)
                ))
            }
            Li { rd, imm } => {
                self.write_reg_all(cid, rd, imm as Word, pc, probe)?;
                self.advance(1);
            }
            Mv { rd, rs1 } => {
                let v = self.read_reg_all(cid, rs1, pc, probe)?;
                self.write_reg_all(cid, rd, v, pc, probe)?;
                self.advance(1);
            }

            Lw { rd, base, imm } => {
                let addr = self
                    .read_reg_all(cid, base, pc, probe)?
                    .wrapping_add(imm as Word);
                let v = self.load_all(addr, pc, probe)?;
                self.write_reg_all(cid, rd, v, pc, probe)?;
                self.advance(1);
            }
            Sw { base, src, imm } => {
                let addr = self
                    .read_reg_all(cid, base, pc, probe)?
                    .wrapping_add(imm as Word);
                let v = self.read_reg_all(cid, src, pc, probe)?;
                for (i, s) in self.stores.iter_mut().enumerate() {
                    let cycles = s.mem.store(addr, v);
                    self.clocks[i] += u64::from(cycles);
                }
                probe.mem_store(addr, v);
                self.advance(1);
            }
            AmoAdd { rd, base, imm } => {
                let addr = self.read_reg_all(cid, base, pc, probe)?;
                let mut head: Option<Word> = None;
                for (i, s) in self.stores.iter_mut().enumerate() {
                    let (old, cycles) = s.mem.fetch_add(addr, imm);
                    self.clocks[i] += u64::from(cycles);
                    match head {
                        None => head = Some(old),
                        Some(h) => {
                            if h != old {
                                return Err(SimError::LaneDivergence {
                                    pc,
                                    lane: i,
                                    detail: format!("amoadd {addr:#x} read {old}, lane 0 read {h}"),
                                });
                            }
                        }
                    }
                }
                let old = head.expect("lane sets are non-empty");
                probe.mem_amo(addr, imm, old);
                self.write_reg_all(cid, rd, old, pc, probe)?;
                self.advance(1);
            }

            Beq { rs1, rs2, target } => branch!(rs1, rs2, target, |x, y| x == y),
            Bne { rs1, rs2, target } => branch!(rs1, rs2, target, |x, y| x != y),
            Blt { rs1, rs2, target } => {
                branch!(rs1, rs2, target, |x: Word, y: Word| (x as i32) < (y as i32))
            }
            Bge { rs1, rs2, target } => {
                branch!(rs1, rs2, target, |x: Word, y: Word| (x as i32)
                    >= (y as i32))
            }
            Jmp { target } => {
                self.sched.current_mut().pc = target;
            }

            Call { target } => {
                let new_cid = self.sched.alloc_cid()?;
                self.map_ctable_all(new_cid);
                {
                    let t = self.sched.current_mut();
                    t.call_stack.push((pc + 1, t.cid));
                    t.cid = new_cid;
                    t.pc = target;
                }
                self.shared.calls += 1;
                self.switch_all(new_cid, LaneOp::CallPush, probe)?;
            }
            Ret => {
                let popped = self.sched.current_mut().call_stack.pop();
                match popped {
                    Some((ret_pc, caller)) => {
                        let dead = {
                            let t = self.sched.current_mut();
                            let dead = t.cid;
                            t.cid = caller;
                            t.pc = ret_pc;
                            dead
                        };
                        self.release_all(dead, probe)?;
                        self.shared.returns += 1;
                        self.switch_all(caller, LaneOp::SwitchTo, probe)?;
                    }
                    None => return self.halt_all(probe),
                }
            }

            Halt => return self.halt_all(probe),

            RFree { reg } => {
                if let Reg::R(off) = reg {
                    self.reg_op_all(LaneOp::FreeReg(RegAddr::new(cid, off)), pc, probe)?;
                }
                self.advance(1);
            }
            Nop => self.advance(1),

            Spawn { .. }
            | Yield
            | ChNew { .. }
            | ChSend { .. }
            | ChRecv { .. }
            | LwRemote { .. }
            | SwRemote { .. }
            | SyncWait { .. } => {
                unreachable!("statically rejected by batchable_program")
            }
        }
        Ok(Status::Continue)
    }

    fn advance(&mut self, by: u32) {
        self.sched.current_mut().pc += by;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegFileSpec;
    use crate::machine::Machine;
    use nsf_core::SpillEngine;
    use nsf_isa::asm::assemble;

    /// A program exercising ALU ops, branches, memory, nested calls,
    /// register frees and an atomic — everything batchable.
    const DEEP: &str = "main:
            li r0, 0
            li r1, 12
            li r9, 4096
        loop:
            sw r0, -1(g0)
            call square
            lw r2, (r9)
            add r2, r2, g1
            sw r2, (r9)
            amoadd r3, 1(r9)
            addi r0, r0, 1
            rfree r3
            bne r0, r1, loop
            halt
        square:
            addi g0, g0, -1
            lw r0, (g0)
            call bias
            mul r1, r0, r0
            add g1, r1, g1
            addi g0, g0, 1
            ret
        bias:
            li r0, 3
            mv g1, r0
            ret";

    fn five_specs() -> Vec<SimConfig> {
        [
            RegFileSpec::paper_nsf(64),
            RegFileSpec::paper_segmented(4, 16),
            RegFileSpec::Conventional {
                regs: 16,
                engine: SpillEngine::hardware(),
            },
            RegFileSpec::sparc_windows(16),
            RegFileSpec::Oracle,
        ]
        .into_iter()
        .map(SimConfig::with_regfile)
        .collect()
    }

    #[test]
    fn lanes_match_serial_machines_across_families() {
        let program = assemble(DEEP).unwrap();
        let cfgs = five_specs();
        let serial: Vec<_> = cfgs
            .iter()
            .map(|c| Machine::new(program.clone(), *c).unwrap().run().unwrap())
            .collect();
        let mut lanes = LaneSet::new(program, &cfgs).unwrap();
        let batched = lanes.run_and_keep().unwrap();
        assert_eq!(serial, batched, "lane batching must be bit-identical");
    }

    #[test]
    fn lane_memory_matches_serial_memory() {
        let program = assemble(DEEP).unwrap();
        let cfgs = five_specs();
        let mut lanes = LaneSet::new(program.clone(), &cfgs).unwrap();
        lanes.run_and_keep().unwrap();
        for (i, cfg) in cfgs.iter().enumerate() {
            let mut m = Machine::new(program.clone(), *cfg).unwrap();
            m.run_and_keep().unwrap();
            for addr in [4096, 4097] {
                assert_eq!(
                    lanes.lane_mem(i).peek(addr),
                    m.mem.peek(addr),
                    "lane {i} memory at {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn icache_penalties_shared_across_lanes() {
        let program = assemble(DEEP).unwrap();
        let icache = Some(nsf_mem::CacheConfig {
            capacity_words: 16,
            line_words: 4,
            ways: 1,
            hit_cycles: 1,
            miss_penalty: 20,
        });
        let cfgs: Vec<SimConfig> = five_specs()
            .into_iter()
            .map(|mut c| {
                c.icache = icache;
                c
            })
            .collect();
        let serial: Vec<_> = cfgs
            .iter()
            .map(|c| Machine::new(program.clone(), *c).unwrap().run().unwrap())
            .collect();
        let batched = LaneSet::new(program, &cfgs)
            .unwrap()
            .run_and_keep()
            .unwrap();
        assert_eq!(serial, batched, "icache penalties must match serially");
    }

    #[test]
    fn unbatchable_program_rejected() {
        let p = assemble("main: li r0, 0\n spawn main, r0\n halt").unwrap();
        let err = LaneSet::new(p.clone(), &[SimConfig::default()]).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
        assert!(!batchable_program(&p));
        assert!(!batchable(
            &p,
            &[SimConfig::default(), SimConfig::default()]
        ));
    }

    #[test]
    fn mismatched_frontends_rejected() {
        let p = assemble("main: halt").unwrap();
        let a = SimConfig::default();
        let b = SimConfig {
            sample_interval: 32,
            ..SimConfig::default()
        };
        let err = LaneSet::new(p.clone(), &[a, b]).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
        assert!(!batchable(&p, &[a, b]));
        assert!(batchable(&p, &[a, a]));
    }

    #[test]
    fn multi_issue_configs_route_serial() {
        let p = assemble("main: li r0, 0\n halt").unwrap();
        let cfg = SimConfig {
            issue_width: 2,
            read_ports: 3,
            write_ports: 2,
            ..SimConfig::default()
        };
        assert!(!batchable(&p, &[cfg, cfg]));
        let err = LaneSet::new(p, &[cfg, cfg]).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn single_lane_not_worth_batching() {
        let p = assemble("main: halt").unwrap();
        assert!(!batchable(&p, &[SimConfig::default()]));
        assert!(!batchable(&p, &[]));
    }
}
