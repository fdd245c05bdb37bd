//! Architectural thread state.

use nsf_core::Cid;
use nsf_isa::{Reg, NUM_GLOBAL_REGS};
use nsf_mem::{Addr, Word};

/// A thread identifier.
pub type ThreadId = u32;

/// Why a thread is blocked, and what wakes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// A remote load in flight; ready when the round trip completes.
    RemoteLoad {
        /// Cycle at which the reply arrives.
        ready_at: u64,
    },
    /// Waiting for a message on a channel.
    Recv {
        /// The channel being received from.
        chan: u32,
    },
    /// Waiting for space on a bounded channel (backpressure).
    Send {
        /// The channel being sent to.
        chan: u32,
    },
    /// Waiting for a join counter in memory to reach zero.
    Sync {
        /// Word address of the counter.
        addr: Addr,
    },
}

/// Run state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Ready,
    /// Currently issuing instructions.
    Running,
    /// Parked on a long-latency event.
    Blocked(BlockReason),
    /// Finished (halted).
    Done,
}

/// One thread's architectural state.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Identifier.
    pub id: ThreadId,
    /// Next instruction index.
    pub pc: u32,
    /// Context ID of the current (innermost) procedure activation.
    pub cid: Cid,
    /// Procedure call stack: `(return pc, caller CID)`, innermost last.
    pub call_stack: Vec<(u32, Cid)>,
    /// Thread-global registers `g0..g3` (`g0` = stack pointer,
    /// `g1` = return value).
    pub globals: [Word; NUM_GLOBAL_REGS as usize],
    /// Run state. Only the [`crate::Scheduler`] changes it: it keeps its
    /// list of blocked threads in step with this field.
    pub state: ThreadState,
    /// A register write to apply when the thread resumes (the delivered
    /// value of a remote load or channel receive).
    pub pending_write: Option<(Reg, Word)>,
    /// Instructions this thread has executed (for reporting).
    pub instructions: u64,
}

impl Thread {
    /// Creates a ready thread.
    pub fn new(id: ThreadId, pc: u32, cid: Cid, stack_top: Addr) -> Self {
        let mut globals = [0; NUM_GLOBAL_REGS as usize];
        globals[0] = stack_top; // g0 = sp
        Thread {
            id,
            pc,
            cid,
            call_stack: Vec::new(),
            globals,
            state: ThreadState::Ready,
            pending_write: None,
            instructions: 0,
        }
    }

    /// Current call depth (0 = top-level).
    pub fn depth(&self) -> usize {
        self.call_stack.len()
    }

    /// `true` when the thread can be scheduled.
    pub fn is_ready(&self) -> bool {
        self.state == ThreadState::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_thread_is_ready_with_sp_set() {
        let t = Thread::new(1, 100, 7, 0x8000);
        assert!(t.is_ready());
        assert_eq!(t.globals[0], 0x8000);
        assert_eq!(t.pc, 100);
        assert_eq!(t.cid, 7);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn blocked_thread_is_not_ready() {
        let mut t = Thread::new(1, 0, 0, 0);
        t.state = ThreadState::Blocked(BlockReason::Recv { chan: 3 });
        assert!(!t.is_ready());
    }
}
