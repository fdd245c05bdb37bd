//! The block-multithreading scheduler.
//!
//! Round-robin over ready threads; a thread runs until it blocks on a
//! long-latency event (paper Figure 1). Wake conditions:
//!
//! * remote loads wake at a known future cycle;
//! * receives wake when their channel has a delivered message (the
//!   blocked instruction re-executes, so racing receivers are safe);
//! * join waits wake when their counter reaches zero (probed via a
//!   memory callback, since the counter lives in simulated memory).
//!
//! The scheduler also owns the **Context ID** free list and carves a
//! stack region per thread — the "user program or thread scheduler"
//! software role the paper assigns to CID management (§4.3).

use crate::channel::ChannelTable;
use crate::thread::{BlockReason, Thread, ThreadId, ThreadState};
use nsf_core::Cid;
use nsf_mem::{Addr, Word};
use std::collections::VecDeque;
use std::fmt;

/// Scheduler limits and layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum live threads.
    pub max_threads: u32,
    /// Context IDs available (the Ctable size).
    pub cid_capacity: u16,
    /// Words of stack per thread.
    pub stack_words: u32,
    /// Base address of the stack arena (stacks grow downward from the top
    /// of each thread's region).
    pub stack_base: Addr,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_threads: 4096,
            cid_capacity: 4096,
            stack_words: 4096,
            stack_base: 0x0100_0000,
        }
    }
}

/// Scheduler failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// Thread limit reached.
    TooManyThreads,
    /// No free Context IDs (activation tree deeper than the Ctable).
    CidExhausted,
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::TooManyThreads => write!(f, "thread limit exceeded"),
            SchedulerError::CidExhausted => write!(f, "out of Context IDs"),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// What the processor should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDecision {
    /// Run this thread (it has been marked `Running`).
    Run(ThreadId),
    /// Nothing is ready; idle until this cycle, then rescan.
    AdvanceTo(u64),
    /// All threads finished.
    AllDone,
    /// Threads remain but none can ever wake — a program deadlock.
    Deadlock,
}

/// The scheduler. See module docs.
pub struct Scheduler {
    cfg: SchedulerConfig,
    threads: Vec<Thread>,
    ready: VecDeque<ThreadId>,
    /// The blocked threads, ascending by id. The wake pass and the
    /// earliest-wake scan visit only these, not every thread ever spawned.
    blocked: Vec<ThreadId>,
    current: Option<ThreadId>,
    free_cids: Vec<Cid>,
    /// Message channels (owned here so wake checks can consult them).
    pub channels: ChannelTable,
    spawned: u64,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Scheduler {
            cfg,
            threads: Vec::new(),
            ready: VecDeque::new(),
            blocked: Vec::new(),
            current: None,
            free_cids: (0..cfg.cid_capacity).rev().collect(),
            channels: ChannelTable::new(),
            spawned: 0,
        }
    }

    /// Allocates a Context ID (procedure call or thread spawn).
    pub fn alloc_cid(&mut self) -> Result<Cid, SchedulerError> {
        self.free_cids.pop().ok_or(SchedulerError::CidExhausted)
    }

    /// Returns a Context ID to the free list.
    pub fn free_cid(&mut self, cid: Cid) {
        self.free_cids.push(cid);
    }

    /// Spawns a thread at `pc` with `g1 = arg`. The thread gets a fresh
    /// CID and its own stack region.
    pub fn spawn(&mut self, pc: u32, arg: Word) -> Result<ThreadId, SchedulerError> {
        if self.threads.len() as u32 >= self.cfg.max_threads {
            return Err(SchedulerError::TooManyThreads);
        }
        let cid = self.alloc_cid()?;
        let id = self.threads.len() as ThreadId;
        let stack_top = self.cfg.stack_base + (id + 1) * self.cfg.stack_words;
        let mut t = Thread::new(id, pc, cid, stack_top);
        t.globals[1] = arg;
        self.threads.push(t);
        self.ready.push_back(id);
        self.spawned += 1;
        Ok(id)
    }

    /// The running thread, if any.
    #[inline]
    pub fn current(&self) -> Option<&Thread> {
        self.current.map(|id| &self.threads[id as usize])
    }

    /// Mutable access to the running thread.
    ///
    /// # Panics
    ///
    /// Panics if no thread is running (the simulator only calls this
    /// between a `Run` decision and the next block/yield).
    #[inline]
    pub fn current_mut(&mut self) -> &mut Thread {
        let id = self.current.expect("a thread is running");
        &mut self.threads[id as usize]
    }

    /// A thread by id.
    #[inline]
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id as usize]
    }

    /// All threads (reporting).
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Total threads ever spawned.
    pub fn spawned(&self) -> u64 {
        self.spawned
    }

    /// Number of threads currently waiting in the ready queue.
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Parks the running thread on `reason`.
    pub fn block_current(&mut self, reason: BlockReason) {
        let t = self.current_mut();
        t.state = ThreadState::Blocked(reason);
        let id = t.id;
        self.current = None;
        let at = self
            .blocked
            .binary_search(&id)
            .expect_err("a running thread is not blocked");
        self.blocked.insert(at, id);
    }

    /// Moves the running thread to the back of the ready queue.
    pub fn yield_current(&mut self) {
        let id = self.current.expect("a thread is running");
        self.threads[id as usize].state = ThreadState::Ready;
        self.ready.push_back(id);
        self.current = None;
    }

    /// Marks the running thread finished and releases its CID.
    pub fn finish_current(&mut self) -> ThreadId {
        let id = self.current.expect("a thread is running");
        self.threads[id as usize].state = ThreadState::Done;
        self.current = None;
        id
    }

    /// Wakes eligible blocked threads and picks the next to run.
    ///
    /// `sync_clear(addr)` reports whether the join counter at `addr` is
    /// zero (it lives in simulated memory, which the scheduler cannot
    /// see).
    pub fn next(&mut self, now: u64, mut sync_clear: impl FnMut(Addr) -> bool) -> SchedDecision {
        // Wake pass, in ascending id order.
        let (threads, ready, channels) = (&mut self.threads, &mut self.ready, &self.channels);
        self.blocked.retain(|&id| {
            let t = &mut threads[id as usize];
            let ThreadState::Blocked(reason) = t.state else {
                unreachable!("thread {id} is listed as blocked but is {:?}", t.state)
            };
            let wake = match reason {
                BlockReason::RemoteLoad { ready_at } => ready_at <= now,
                BlockReason::Recv { chan } => {
                    channels.next_delivery(chan).is_some_and(|at| at <= now)
                }
                BlockReason::Send { chan } => channels.has_space(chan),
                BlockReason::Sync { addr } => sync_clear(addr),
            };
            if wake {
                t.state = ThreadState::Ready;
                ready.push_back(id);
            }
            !wake
        });

        if let Some(id) = self.ready.pop_front() {
            self.threads[id as usize].state = ThreadState::Running;
            self.current = Some(id);
            return SchedDecision::Run(id);
        }

        // Nothing ready: find the earliest timed wake.
        let mut earliest: Option<u64> = None;
        for &id in &self.blocked {
            let at = match self.threads[id as usize].state {
                ThreadState::Blocked(BlockReason::RemoteLoad { ready_at }) => Some(ready_at),
                ThreadState::Blocked(BlockReason::Recv { chan }) => {
                    self.channels.next_delivery(chan)
                }
                _ => None,
            };
            if let Some(at) = at {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        let any_blocked = !self.blocked.is_empty();
        match (earliest, any_blocked) {
            (Some(at), _) => SchedDecision::AdvanceTo(at.max(now + 1)),
            (None, true) => SchedDecision::Deadlock,
            (None, false) => SchedDecision::AllDone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched() -> Scheduler {
        Scheduler::new(SchedulerConfig::default())
    }

    #[test]
    fn spawn_and_run_round_robin() {
        let mut s = sched();
        let a = s.spawn(10, 0).unwrap();
        let b = s.spawn(20, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.yield_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(b));
        s.yield_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
    }

    #[test]
    fn threads_get_disjoint_stacks() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        let b = s.spawn(0, 0).unwrap();
        let sa = s.thread(a).globals[0];
        let sb = s.thread(b).globals[0];
        assert_ne!(sa, sb);
        assert!(sb - sa >= SchedulerConfig::default().stack_words);
    }

    #[test]
    fn spawn_arg_lands_in_g1() {
        let mut s = sched();
        let a = s.spawn(5, 99).unwrap();
        assert_eq!(s.thread(a).globals[1], 99);
    }

    #[test]
    fn remote_load_wakes_at_time() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::RemoteLoad { ready_at: 100 });
        assert_eq!(s.next(0, |_| false), SchedDecision::AdvanceTo(100));
        assert_eq!(s.next(100, |_| false), SchedDecision::Run(a));
    }

    #[test]
    fn recv_wakes_on_delivery() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        let c = s.channels.create();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::Recv { chan: c });
        // No message: blocked without a timed wake → deadlock.
        assert_eq!(s.next(0, |_| false), SchedDecision::Deadlock);
        s.channels.send(c, 7, 50);
        assert_eq!(s.next(0, |_| false), SchedDecision::AdvanceTo(50));
        assert_eq!(s.next(50, |_| false), SchedDecision::Run(a));
    }

    #[test]
    fn sync_wakes_via_probe() {
        let mut s = sched();
        let a = s.spawn(0, 0).unwrap();
        assert_eq!(s.next(0, |_| false), SchedDecision::Run(a));
        s.block_current(BlockReason::Sync { addr: 0x10 });
        assert_eq!(s.next(0, |_| false), SchedDecision::Deadlock);
        assert_eq!(s.next(0, |_| true), SchedDecision::Run(a));
    }

    #[test]
    fn all_done_after_finish() {
        let mut s = sched();
        s.spawn(0, 0).unwrap();
        assert!(matches!(s.next(0, |_| false), SchedDecision::Run(_)));
        s.finish_current();
        assert_eq!(s.next(0, |_| false), SchedDecision::AllDone);
    }

    #[test]
    fn cids_recycle() {
        let cfg = SchedulerConfig {
            cid_capacity: 2,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        let a = s.alloc_cid().unwrap();
        let _b = s.alloc_cid().unwrap();
        assert_eq!(s.alloc_cid(), Err(SchedulerError::CidExhausted));
        s.free_cid(a);
        assert_eq!(s.alloc_cid(), Ok(a));
    }

    #[test]
    fn thread_limit_enforced() {
        let cfg = SchedulerConfig {
            max_threads: 1,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        s.spawn(0, 0).unwrap();
        assert_eq!(s.spawn(0, 0), Err(SchedulerError::TooManyThreads));
    }

    /// The decision rule as a scan over every thread ever spawned: the
    /// reference that [`Scheduler::next`]'s `blocked` list must match.
    fn next_full_scan(
        s: &mut Scheduler,
        now: u64,
        mut sync_clear: impl FnMut(Addr) -> bool,
    ) -> SchedDecision {
        for i in 0..s.threads.len() {
            let id = i as ThreadId;
            let wake = match s.threads[i].state {
                ThreadState::Blocked(BlockReason::RemoteLoad { ready_at }) => ready_at <= now,
                ThreadState::Blocked(BlockReason::Recv { chan }) => {
                    s.channels.next_delivery(chan).is_some_and(|at| at <= now)
                }
                ThreadState::Blocked(BlockReason::Send { chan }) => s.channels.has_space(chan),
                ThreadState::Blocked(BlockReason::Sync { addr }) => sync_clear(addr),
                _ => false,
            };
            if wake {
                s.threads[i].state = ThreadState::Ready;
                s.ready.push_back(id);
                s.blocked.retain(|&b| b != id);
            }
        }
        if let Some(id) = s.ready.pop_front() {
            s.threads[id as usize].state = ThreadState::Running;
            s.current = Some(id);
            return SchedDecision::Run(id);
        }
        let mut earliest: Option<u64> = None;
        let mut any_blocked = false;
        for t in &s.threads {
            if let ThreadState::Blocked(reason) = t.state {
                any_blocked = true;
                let at = match reason {
                    BlockReason::RemoteLoad { ready_at } => Some(ready_at),
                    BlockReason::Recv { chan } => s.channels.next_delivery(chan),
                    _ => None,
                };
                if let Some(at) = at {
                    earliest = Some(earliest.map_or(at, |e| e.min(at)));
                }
            }
        }
        match (earliest, any_blocked) {
            (Some(at), _) => SchedDecision::AdvanceTo(at.max(now + 1)),
            (None, true) => SchedDecision::Deadlock,
            (None, false) => SchedDecision::AllDone,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random spawn/block/yield/finish/channel traffic gives the same
        /// decisions, ready order and thread states under `next` as
        /// under the full scan.
        #[test]
        fn blocked_list_matches_full_scan(
            ops in proptest::collection::vec((0u8..9, 0u64..40), 1..300)
        ) {
            let mut fast = sched();
            let mut slow = sched();
            for s in [&mut fast, &mut slow] {
                s.channels.create();
                s.channels.create_with_capacity(Some(1));
                s.channels.create_with_capacity(Some(2));
            }
            let mut now = 0u64;
            let mut clear = [false; 4];
            for (step, &(kind, arg)) in ops.iter().enumerate() {
                let chan = (arg % 3) as u32;
                let running = fast.current.is_some();
                match kind {
                    // Toggle whether a join counter reads zero.
                    8 => clear[(arg % 4) as usize] ^= true,
                    // A thread op with nothing running: decide instead.
                    1..=6 if !running => {
                        now += arg % 8;
                        let probe = |a: Addr| clear[a as usize];
                        let got = fast.next(now, probe);
                        let want = next_full_scan(&mut slow, now, probe);
                        prop_assert_eq!(got, want, "decision at op {}", step);
                        if let SchedDecision::AdvanceTo(t) = got {
                            now = t;
                        }
                    }
                    _ => {
                        for s in [&mut fast, &mut slow] {
                            match kind {
                                0 => {
                                    s.spawn(0, 0).unwrap();
                                }
                                1 => s.block_current(BlockReason::RemoteLoad {
                                    ready_at: now + arg,
                                }),
                                2 => s.block_current(BlockReason::Recv { chan }),
                                3 => s.block_current(BlockReason::Send { chan }),
                                4 => s.block_current(BlockReason::Sync {
                                    addr: (arg % 4) as Addr,
                                }),
                                5 => s.yield_current(),
                                6 => {
                                    s.finish_current();
                                }
                                _ if arg % 2 == 0 => {
                                    s.channels.try_send(chan, 0, now + arg / 2);
                                }
                                _ => {
                                    s.channels.try_recv(chan, now);
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(&fast.ready, &slow.ready, "ready order at op {}", step);
                prop_assert_eq!(fast.current, slow.current);
                prop_assert_eq!(&fast.blocked, &slow.blocked);
                let states = |s: &Scheduler| s.threads.iter().map(|t| t.state).collect::<Vec<_>>();
                prop_assert_eq!(states(&fast), states(&slow));
            }
        }
    }
}
