//! The composed memory system: data cache over main memory, plus the
//! Ctable used by register-file spill engines.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::ctable::Ctable;
use crate::memory::MainMemory;
use crate::{Addr, Word};

/// Configuration of a [`MemSystem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Data-cache geometry and latencies.
    pub dcache: CacheConfig,
    /// Number of Context IDs the Ctable can map.
    pub ctable_slots: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            dcache: CacheConfig::default(),
            ctable_slots: 4096,
        }
    }
}

/// Data cache + main memory + Ctable.
///
/// All latencies are returned to the caller (the processor model), which
/// charges them to the running thread; `MemSystem` itself keeps no clock.
pub struct MemSystem {
    memory: MainMemory,
    dcache: Cache,
    ctable: Ctable,
}

impl MemSystem {
    /// Creates a memory system from `cfg`.
    pub fn new(cfg: MemConfig) -> Self {
        MemSystem {
            memory: MainMemory::new(),
            dcache: Cache::new(cfg.dcache),
            ctable: Ctable::new(cfg.ctable_slots),
        }
    }

    /// Loads the word at `addr` through the data cache.
    ///
    /// Returns `(value, cycles)`.
    #[inline]
    pub fn load(&mut self, addr: Addr) -> (Word, u32) {
        let cycles = self.dcache.access(addr, false);
        (self.memory.read(addr), cycles)
    }

    /// Stores `value` at `addr` through the data cache. Returns the cycle
    /// cost.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: Word) -> u32 {
        let cycles = self.dcache.access(addr, true);
        self.memory.write(addr, value);
        cycles
    }

    /// Atomic fetch-and-add on `addr` (uniprocessor, so trivially atomic).
    ///
    /// Returns `(old_value, cycles)`.
    #[inline]
    pub fn fetch_add(&mut self, addr: Addr, delta: i32) -> (Word, u32) {
        let cycles = self.dcache.access(addr, true);
        let old = self.memory.read(addr);
        self.memory.write(addr, old.wrapping_add(delta as Word));
        (old, cycles)
    }

    /// Reads a word without touching the cache model or statistics — used
    /// by the simulator's own bookkeeping and by tests.
    #[inline]
    pub fn peek(&self, addr: Addr) -> Word {
        self.memory.peek(addr)
    }

    /// Writes a word bypassing the cache model (program loading, test
    /// setup). Functionally identical to `store` but free of charge.
    pub fn poke(&mut self, addr: Addr, value: Word) {
        self.memory.write(addr, value);
    }

    /// Writes a block bypassing the cache model.
    pub fn poke_block(&mut self, addr: Addr, values: &[Word]) {
        self.memory.write_block(addr, values);
    }

    /// Reads a block into `out` bypassing the cache model — the read
    /// dual of [`poke_block`](Self::poke_block), allocation-free and
    /// page-chunked (result readback, bulk diagnostics).
    pub fn read_into(&mut self, addr: Addr, out: &mut [Word]) {
        self.memory.read_into(addr, out);
    }

    /// The Ctable (shared with register-file spill engines).
    #[inline]
    pub fn ctable(&self) -> &Ctable {
        &self.ctable
    }

    /// Mutable access to the Ctable.
    #[inline]
    pub fn ctable_mut(&mut self) -> &mut Ctable {
        &mut self.ctable
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Resets data-cache statistics.
    pub fn reset_stats(&mut self) {
        self.dcache.reset_stats();
    }
}

impl Default for MemSystem {
    fn default() -> Self {
        Self::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip_with_latency() {
        let mut m = MemSystem::default();
        let c1 = m.store(100, 42);
        assert!(c1 > 1, "first store misses");
        let (v, c2) = m.load(100);
        assert_eq!(v, 42);
        assert_eq!(c2, 1, "second access hits");
    }

    #[test]
    fn fetch_add_returns_old() {
        let mut m = MemSystem::default();
        m.poke(7, 10);
        let (old, _) = m.fetch_add(7, -3);
        assert_eq!(old, 10);
        assert_eq!(m.peek(7), 7);
    }

    #[test]
    fn poke_bypasses_cache_stats() {
        let mut m = MemSystem::default();
        m.poke_block(0, &[1, 2, 3]);
        assert_eq!(m.dcache_stats().accesses, 0);
        assert_eq!(m.peek(2), 3);
    }

    #[test]
    fn ctable_reachable() {
        let mut m = MemSystem::default();
        m.ctable_mut().map(1, 0x800);
        assert_eq!(m.ctable().lookup(1), Ok(0x800));
    }
}
