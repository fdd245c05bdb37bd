//! Static dispatch over the concrete register-file organizations.
//!
//! The simulator's inner loop issues a register read or write per
//! instruction; holding the engine as a `Box<dyn RegisterFile>` put a
//! vtable call on that path. [`EngineDispatch`] enumerates the concrete
//! engine families instead, so a machine that owns one by value
//! dispatches with a predictable `match` the compiler can inline
//! through. The [`EngineDispatch::Boxed`] escape hatch keeps dynamic
//! engines (event-recording wrappers, test doubles) usable behind the
//! same type at their old cost.

use crate::addr::{Cid, RegAddr};
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;
use crate::{ConventionalFile, NamedStateFile, OracleFile, SegmentedFile, WindowedFile};

/// A register file organization, dispatched statically.
///
/// One variant per concrete engine family (the segmented family covers
/// both hardware- and software-spill engines — that choice is a
/// [`crate::SpillEngine`] parameter, not a type), plus [`Self::Boxed`]
/// for anything only known at run time, e.g. [`crate::RecordingFile`].
pub enum EngineDispatch {
    /// The Named-State Register File.
    Nsf(NamedStateFile),
    /// A segmented multithreaded file (hardware or software spill).
    Segmented(SegmentedFile),
    /// SPARC-style overlapping register windows.
    Windowed(WindowedFile),
    /// A conventional single-context file.
    Conventional(ConventionalFile),
    /// The infinite oracle (differential testing).
    Oracle(OracleFile),
    /// Dynamic escape hatch: recording wrappers and custom engines.
    Boxed(Box<dyn RegisterFile>),
}

impl EngineDispatch {
    /// Wraps a dynamic engine (kept for recording wrappers and tests).
    pub fn boxed(inner: Box<dyn RegisterFile>) -> Self {
        EngineDispatch::Boxed(inner)
    }

    /// Hands the engine inside to `v` as its concrete type: one `match`
    /// here, then `v` runs monomorphized for that family, so a whole
    /// replay loop inlines the engine instead of re-dispatching per op.
    /// `Boxed` engines arrive as `&mut dyn RegisterFile`, so the variant
    /// list stays in this module.
    #[inline]
    pub fn visit<V: EngineVisitor>(&mut self, v: V) -> V::Output {
        match self {
            EngineDispatch::Nsf(e) => v.visit(e),
            EngineDispatch::Segmented(e) => v.visit(e),
            EngineDispatch::Windowed(e) => v.visit(e),
            EngineDispatch::Conventional(e) => v.visit(e),
            EngineDispatch::Oracle(e) => v.visit(e),
            EngineDispatch::Boxed(e) => v.visit(&mut **e),
        }
    }

    /// Applies one architectural operation — the lane-stepping entry
    /// point. Every [`RegisterFile`] method that the simulator or the
    /// differential checker issues per instruction is reachable through
    /// one [`LaneOp`], so a batched executor can drive N engines through
    /// a single decoded stream without re-matching on the instruction
    /// per lane.
    #[inline]
    pub fn apply_op(
        &mut self,
        op: LaneOp,
        store: &mut dyn BackingStore,
    ) -> Result<LaneStep, RegFileError> {
        match op {
            LaneOp::Read(addr) => self.read(addr, store).map(|a| LaneStep {
                value: Some(a.value),
                stall_cycles: a.stall_cycles,
            }),
            LaneOp::Write(addr, value) => self.write(addr, value, store).map(|a| LaneStep {
                value: None,
                stall_cycles: a.stall_cycles,
            }),
            LaneOp::SwitchTo(cid) => self.switch_to(cid, store).map(LaneStep::switch),
            LaneOp::CallPush(cid) => self.call_push(cid, store).map(LaneStep::switch),
            LaneOp::ThreadSwitch(cid) => self.thread_switch(cid, store).map(LaneStep::switch),
            LaneOp::FreeContext(cid) => {
                self.free_context(cid, store);
                Ok(LaneStep::free())
            }
            LaneOp::FreeReg(addr) => {
                self.free_reg(addr, store);
                Ok(LaneStep::free())
            }
        }
    }

    /// Steps every lane through the same operation, in lane order: lane
    /// `i` sees exactly the operation sequence it would in a serial run,
    /// so per-lane statistics and backing traffic are bit-identical to N
    /// independent executions. `visit` receives each lane's result as it
    /// completes; lanes are independent, so one lane's error never stops
    /// the others mid-batch.
    #[inline]
    pub fn step_lanes<S, F>(
        lanes: &mut [EngineDispatch],
        stores: &mut [S],
        op: LaneOp,
        mut visit: F,
    ) where
        S: BackingStore,
        F: FnMut(usize, Result<LaneStep, RegFileError>),
    {
        assert_eq!(
            lanes.len(),
            stores.len(),
            "each lane needs its own backing store"
        );
        for (i, (lane, store)) in lanes.iter_mut().zip(stores.iter_mut()).enumerate() {
            visit(i, lane.apply_op(op, store));
        }
    }
}

/// Work that runs over one engine at its concrete type, entered through
/// [`EngineDispatch::visit`]. `visit` is instantiated once per engine
/// family (plus once for `dyn RegisterFile`), so a loop inside it calls
/// the engine statically.
pub trait EngineVisitor {
    /// What the visit returns.
    type Output;
    /// Runs over `engine`.
    fn visit<E: RegisterFile + ?Sized>(self, engine: &mut E) -> Self::Output;
}

/// One architectural register-file operation in the form the
/// lane-stepping paths share ([`EngineDispatch::apply_op`],
/// [`EngineDispatch::step_lanes`]): the simulator's batched executor and
/// the differential checker's lane-stepped mode both decode to this
/// once, then fan it across lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOp {
    /// Read a register.
    Read(RegAddr),
    /// Write a register.
    Write(RegAddr, Word),
    /// Make `cid` current (plain switch).
    SwitchTo(Cid),
    /// Make `cid` current via the call-allocation path.
    CallPush(Cid),
    /// Make `cid` current via the thread-switch path.
    ThreadSwitch(Cid),
    /// Release a whole context.
    FreeContext(Cid),
    /// Deallocate one register.
    FreeReg(RegAddr),
}

/// What one lane reported for one [`LaneOp`]: the architectural value
/// (reads only) and the stall cycles the operation cost that lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneStep {
    /// The value a [`LaneOp::Read`] returned; `None` for every other op.
    pub value: Option<Word>,
    /// Pipeline stall cycles charged by this lane's organization.
    pub stall_cycles: u32,
}

impl LaneStep {
    #[inline]
    fn switch(cycles: u32) -> Self {
        LaneStep {
            value: None,
            stall_cycles: cycles,
        }
    }

    #[inline]
    fn free() -> Self {
        LaneStep {
            value: None,
            stall_cycles: 0,
        }
    }
}

impl From<NamedStateFile> for EngineDispatch {
    fn from(e: NamedStateFile) -> Self {
        EngineDispatch::Nsf(e)
    }
}

impl From<SegmentedFile> for EngineDispatch {
    fn from(e: SegmentedFile) -> Self {
        EngineDispatch::Segmented(e)
    }
}

impl From<WindowedFile> for EngineDispatch {
    fn from(e: WindowedFile) -> Self {
        EngineDispatch::Windowed(e)
    }
}

impl From<ConventionalFile> for EngineDispatch {
    fn from(e: ConventionalFile) -> Self {
        EngineDispatch::Conventional(e)
    }
}

impl From<OracleFile> for EngineDispatch {
    fn from(e: OracleFile) -> Self {
        EngineDispatch::Oracle(e)
    }
}

/// Forwards one method call to whichever engine is inside. Concrete
/// variants resolve statically (including each engine's own overrides
/// of the trait's defaulted methods); `Boxed` pays the vtable as before.
macro_rules! forward {
    ($self:expr, $method:ident ( $($arg:expr),* )) => {
        match $self {
            EngineDispatch::Nsf(e) => e.$method($($arg),*),
            EngineDispatch::Segmented(e) => e.$method($($arg),*),
            EngineDispatch::Windowed(e) => e.$method($($arg),*),
            EngineDispatch::Conventional(e) => e.$method($($arg),*),
            EngineDispatch::Oracle(e) => e.$method($($arg),*),
            EngineDispatch::Boxed(e) => e.$method($($arg),*),
        }
    };
}

impl RegisterFile for EngineDispatch {
    #[inline]
    fn read(
        &mut self,
        addr: RegAddr,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        forward!(self, read(addr, store))
    }

    #[inline]
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        forward!(self, write(addr, value, store))
    }

    #[inline]
    fn switch_to(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        forward!(self, switch_to(cid, store))
    }

    #[inline]
    fn call_push(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        forward!(self, call_push(cid, store))
    }

    #[inline]
    fn thread_switch(
        &mut self,
        cid: Cid,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        forward!(self, thread_switch(cid, store))
    }

    #[inline]
    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore) {
        forward!(self, free_context(cid, store))
    }

    #[inline]
    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore) {
        forward!(self, free_reg(addr, store))
    }

    #[inline]
    fn capacity(&self) -> u32 {
        forward!(self, capacity())
    }

    #[inline]
    fn occupancy(&self) -> Occupancy {
        forward!(self, occupancy())
    }

    #[inline]
    fn stats(&self) -> &RegFileStats {
        forward!(self, stats())
    }

    #[inline]
    fn reset_stats(&mut self) {
        forward!(self, reset_stats())
    }

    fn describe(&self) -> String {
        forward!(self, describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;
    use crate::{EventSink, NsfConfig, RecordingFile, SegmentedConfig, WindowedConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// `op` as a direct trait call on `e` — the reference `apply_op` and
    /// `visit` are both checked against.
    fn direct_call<E: RegisterFile + ?Sized>(
        e: &mut E,
        op: LaneOp,
        store: &mut dyn BackingStore,
    ) -> Result<LaneStep, RegFileError> {
        match op {
            LaneOp::Read(a) => e.read(a, store).map(|acc| LaneStep {
                value: Some(acc.value),
                stall_cycles: acc.stall_cycles,
            }),
            LaneOp::Write(a, v) => e.write(a, v, store).map(|acc| LaneStep {
                value: None,
                stall_cycles: acc.stall_cycles,
            }),
            LaneOp::SwitchTo(c) => e.switch_to(c, store).map(LaneStep::switch),
            LaneOp::CallPush(c) => e.call_push(c, store).map(LaneStep::switch),
            LaneOp::ThreadSwitch(c) => e.thread_switch(c, store).map(LaneStep::switch),
            LaneOp::FreeContext(c) => {
                e.free_context(c, store);
                Ok(LaneStep::free())
            }
            LaneOp::FreeReg(a) => {
                e.free_reg(a, store);
                Ok(LaneStep::free())
            }
        }
    }

    /// Runs an op stream over whatever engine [`EngineDispatch::visit`]
    /// hands it, returning every step's result.
    struct RunOps<'a> {
        ops: &'a [LaneOp],
        store: &'a mut MapStore,
    }

    impl EngineVisitor for RunOps<'_> {
        type Output = Vec<Result<LaneStep, RegFileError>>;
        fn visit<E: RegisterFile + ?Sized>(self, engine: &mut E) -> Self::Output {
            self.ops
                .iter()
                .map(|&op| direct_call(engine, op, self.store))
                .collect()
        }
    }

    /// Counts the register-file events a [`RecordingFile`] reports.
    #[derive(Default)]
    struct CountSink(u64);

    impl EventSink for CountSink {
        fn reg_read(&mut self, _: RegAddr) {
            self.0 += 1;
        }
        fn reg_write(&mut self, _: RegAddr, _: Word) {
            self.0 += 1;
        }
        fn switch_to(&mut self, _: Cid) {
            self.0 += 1;
        }
        fn call_push(&mut self, _: Cid) {
            self.0 += 1;
        }
        fn thread_switch(&mut self, _: Cid) {
            self.0 += 1;
        }
        fn free_context(&mut self, _: Cid) {
            self.0 += 1;
        }
        fn free_reg(&mut self, _: RegAddr) {
            self.0 += 1;
        }
        fn mem_read(&mut self, _: nsf_mem::Addr) {}
        fn mem_write(&mut self, _: nsf_mem::Addr) {}
    }

    #[test]
    fn dispatch_matches_inner_engine() {
        let mut store = MapStore::new();
        let mut direct = NamedStateFile::new(NsfConfig::paper_default(64));
        let mut via: EngineDispatch = NamedStateFile::new(NsfConfig::paper_default(64)).into();
        assert_eq!(via.describe(), direct.describe());
        assert_eq!(via.capacity(), direct.capacity());
        for i in 0..8 {
            let a = RegAddr::new(1, i);
            let d = direct.write(a, Word::from(i) + 1, &mut store);
            let v = via.write(a, Word::from(i) + 1, &mut store);
            assert_eq!(d, v);
            assert_eq!(
                direct.read(a, &mut store).unwrap(),
                via.read(a, &mut store).unwrap()
            );
        }
        assert_eq!(direct.stats(), via.stats());
        assert_eq!(direct.occupancy().valid_regs, via.occupancy().valid_regs);
    }

    #[test]
    fn apply_op_matches_direct_calls() {
        let ops = [
            LaneOp::ThreadSwitch(1),
            LaneOp::Write(RegAddr::new(1, 0), 42),
            LaneOp::Read(RegAddr::new(1, 0)),
            LaneOp::CallPush(2),
            LaneOp::Write(RegAddr::new(2, 3), 7),
            LaneOp::SwitchTo(1),
            LaneOp::FreeReg(RegAddr::new(1, 0)),
            LaneOp::FreeContext(2),
            LaneOp::FreeContext(1),
        ];
        let mut direct: EngineDispatch = NamedStateFile::new(NsfConfig::paper_default(32)).into();
        let mut via: EngineDispatch = NamedStateFile::new(NsfConfig::paper_default(32)).into();
        let (mut sd, mut sv) = (MapStore::new(), MapStore::new());
        for &op in &ops {
            let want = direct_call(&mut direct, op, &mut sd);
            let got = via.apply_op(op, &mut sv);
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "{op:?}"),
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "{op:?}"),
                (w, g) => panic!("{op:?}: direct {w:?} vs apply_op {g:?}"),
            }
        }
        assert_eq!(direct.stats(), via.stats());
    }

    #[test]
    fn visit_reaches_the_same_engine_for_every_variant() {
        // Small files, three contexts: segmented/conventional switches
        // spill and reload, so the stream exercises the backing store.
        let ops = [
            LaneOp::ThreadSwitch(1),
            LaneOp::Write(RegAddr::new(1, 0), 42),
            LaneOp::CallPush(2),
            LaneOp::Write(RegAddr::new(2, 3), 7),
            LaneOp::CallPush(3),
            LaneOp::Write(RegAddr::new(3, 1), 9),
            LaneOp::Read(RegAddr::new(3, 1)),
            LaneOp::SwitchTo(2),
            LaneOp::Read(RegAddr::new(2, 3)),
            LaneOp::SwitchTo(1),
            LaneOp::Read(RegAddr::new(1, 0)),
            LaneOp::FreeReg(RegAddr::new(1, 0)),
            LaneOp::FreeContext(3),
            LaneOp::FreeContext(2),
            LaneOp::FreeContext(1),
        ];
        let build = |sink: &Rc<RefCell<CountSink>>| -> Vec<EngineDispatch> {
            vec![
                NamedStateFile::new(NsfConfig::paper_default(16)).into(),
                SegmentedFile::new(SegmentedConfig::paper_default(2, 8)).into(),
                WindowedFile::new(WindowedConfig::sparc_like(8)).into(),
                ConventionalFile::new(8).into(),
                OracleFile::new().into(),
                EngineDispatch::boxed(Box::new(RecordingFile::new(
                    Box::new(NamedStateFile::new(NsfConfig::paper_default(16))),
                    sink.clone(),
                ))),
            ]
        };
        let (sink_v, sink_d) = (Rc::default(), Rc::default());
        let mut visited = build(&sink_v);
        let mut dispatched = build(&sink_d);
        for (v, d) in visited.iter_mut().zip(dispatched.iter_mut()) {
            let (mut sv, mut sd) = (MapStore::new(), MapStore::new());
            let got = v.visit(RunOps {
                ops: &ops,
                store: &mut sv,
            });
            for (&op, g) in ops.iter().zip(got) {
                let want = d.apply_op(op, &mut sd);
                assert_eq!(
                    format!("{g:?}"),
                    format!("{want:?}"),
                    "{} {op:?}",
                    d.describe()
                );
            }
            assert_eq!(v.describe(), d.describe());
            assert_eq!(v.stats(), d.stats(), "{}", d.describe());
            assert_eq!(v.stats().reads, 3, "{}", d.describe());
            assert_eq!(v.occupancy().valid_regs, d.occupancy().valid_regs);
        }
        // The boxed recorder itself was visited, not just its inner file.
        assert_eq!(sink_v.borrow().0, ops.len() as u64);
        assert_eq!(sink_d.borrow().0, ops.len() as u64);
    }

    #[test]
    fn step_lanes_keeps_lanes_independent_and_in_order() {
        // Two NSF lanes of different capacity plus the oracle: the same
        // op stream must leave each lane exactly as a serial run would.
        let build = || -> Vec<EngineDispatch> {
            vec![
                NamedStateFile::new(NsfConfig::paper_default(16)).into(),
                NamedStateFile::new(NsfConfig::paper_default(64)).into(),
                OracleFile::new().into(),
            ]
        };
        let ops = [
            LaneOp::ThreadSwitch(0),
            LaneOp::Write(RegAddr::new(0, 1), 11),
            LaneOp::Read(RegAddr::new(0, 1)),
            LaneOp::CallPush(3),
            LaneOp::Write(RegAddr::new(3, 0), 22),
            LaneOp::Read(RegAddr::new(3, 0)),
            LaneOp::FreeContext(3),
            LaneOp::SwitchTo(0),
            LaneOp::Read(RegAddr::new(0, 1)),
        ];

        let mut batched = build();
        let mut batched_stores = vec![MapStore::new(), MapStore::new(), MapStore::new()];
        let mut seen: Vec<(usize, Option<Word>)> = Vec::new();
        for &op in &ops {
            EngineDispatch::step_lanes(&mut batched, &mut batched_stores, op, |i, r| {
                seen.push((i, r.expect("legal stream").value));
            });
        }
        // Lane order within each op, and value agreement across lanes.
        for chunk in seen.chunks(3) {
            assert_eq!([chunk[0].0, chunk[1].0, chunk[2].0], [0, 1, 2]);
            assert_eq!(chunk[0].1, chunk[1].1);
            assert_eq!(chunk[1].1, chunk[2].1);
        }

        let mut serial = build();
        let mut serial_stores = [MapStore::new(), MapStore::new(), MapStore::new()];
        for (lane, store) in serial.iter_mut().zip(serial_stores.iter_mut()) {
            for &op in &ops {
                lane.apply_op(op, store).expect("legal stream");
            }
        }
        for (b, s) in batched.iter().zip(serial.iter()) {
            assert_eq!(b.stats(), s.stats(), "{}", b.describe());
            assert_eq!(b.occupancy().valid_regs, s.occupancy().valid_regs);
        }
    }

    #[test]
    fn boxed_escape_hatch_forwards() {
        let mut store = MapStore::new();
        let mut e = EngineDispatch::boxed(Box::new(OracleFile::new()));
        assert!(e.describe().contains("Oracle"));
        e.write(RegAddr::new(3, 0), 7, &mut store).unwrap();
        assert_eq!(e.read(RegAddr::new(3, 0), &mut store).unwrap().value, 7);
        e.free_context(3, &mut store);
        assert_eq!(e.occupancy().valid_regs, 0);
    }
}
