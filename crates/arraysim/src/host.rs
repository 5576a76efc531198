//! The host feeder and its R-block chain (Fig. 21).
//!
//! The host injects at most **one word per cycle** into a chain of R-blocks
//! (register + memory), one R-block per cell. A word bound for cell `c`
//! travels through `c + 1` registers before landing in cell `c`'s R-block
//! memory, from which the cell reads it when its task calls for it. This is
//! the paper's decoupling of data transfer from computation: injection runs
//! ahead of the schedule and the *measured* injection rate is the
//! `D_I/O = m/n` of §3.2.
//!
//! Like [`crate::Bank`], R-block memories are Vec-backed slot tables:
//! stream keys are interned to dense slots at schedule-compile time, so
//! the per-cycle `can_read`/`read` path never hashes. Each slot is the
//! same ring FIFO of `(ready_cycle, word)` entries that links and bank
//! slots use (see [`crate::stream`]); it keeps its capacity across
//! [`Host::reset`], so a re-run schedule injects without allocating.

use crate::stream::Fifo;
use std::collections::VecDeque;
use systolic_semiring::Semiring;

/// Per-cell R-block memory: `stream slot → FIFO of (ready_cycle, word)`.
type RBlock<E> = Vec<Fifo<E>>;

/// Host feeder with per-cell R-block memories.
#[derive(Clone, Debug)]
pub struct Host<S: Semiring> {
    /// Pending injections in order: `(cell, slot, element)`.
    queue: VecDeque<(usize, usize, S::Elem)>,
    /// Per-cell R-block memory: `slot → FIFO of (ready_cycle, element)`.
    rblocks: Vec<RBlock<S::Elem>>,
    /// Extra transit cycles before the chain's first R-block.
    base_latency: u64,
    /// Total words injected.
    pub injected: u64,
    /// Cycle of the first injection.
    pub first_injection: Option<u64>,
    /// Cycle of the last injection.
    pub last_injection: Option<u64>,
    /// Peak number of words resident in R-block memories.
    pub peak_resident: usize,
    resident: usize,
}

impl<S: Semiring> Host<S> {
    /// Creates a host for `cells` R-blocks with the given injection-point
    /// latency.
    pub fn new(cells: usize, base_latency: u64) -> Self {
        Self {
            queue: VecDeque::new(),
            rblocks: vec![Vec::new(); cells],
            base_latency,
            injected: 0,
            first_injection: None,
            last_injection: None,
            peak_resident: 0,
            resident: 0,
        }
    }

    /// Queues a whole input stream for cell `cell` under stream `slot`.
    pub fn enqueue_stream(
        &mut self,
        cell: usize,
        slot: usize,
        words: impl IntoIterator<Item = S::Elem>,
    ) {
        for w in words {
            self.queue.push_back((cell, slot, w));
        }
    }

    /// Number of words not yet injected.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Injects at most one word into the chain; reports whether it did.
    #[inline]
    pub fn tick(&mut self, now: u64) -> bool {
        let Some((cell, slot, w)) = self.queue.pop_front() else {
            return false;
        };
        let arrival = now + self.base_latency + cell as u64 + 1;
        let rblock = &mut self.rblocks[cell];
        if rblock.len() <= slot {
            rblock.resize_with(slot + 1, Fifo::default);
        }
        rblock[slot].push(arrival, w);
        self.injected += 1;
        self.first_injection.get_or_insert(now);
        self.last_injection = Some(now);
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
        true
    }

    /// True when cell `cell` can read the next word of stream `slot`.
    #[inline]
    pub fn can_read(&self, cell: usize, slot: usize, now: u64) -> bool {
        self.rblocks[cell].get(slot).is_some_and(|f| f.ready(now))
    }

    /// Reads the next word of stream `slot` at cell `cell`, if arrived.
    #[inline]
    pub fn read(&mut self, cell: usize, slot: usize, now: u64) -> Option<S::Elem> {
        let e = self.rblocks[cell].get_mut(slot)?.pop(now)?;
        self.resident -= 1;
        Some(e)
    }

    /// Longest chain transit (used for deadlock-detection grace).
    pub fn max_latency(&self) -> u64 {
        self.base_latency + self.rblocks.len() as u64 + 1
    }

    /// Clears all dynamic state (queue, buffered words, counters) while
    /// keeping the chain structure and R-block slot allocations.
    pub fn reset(&mut self) {
        self.queue.clear();
        for rblock in &mut self.rblocks {
            for fifo in rblock.iter_mut() {
                fifo.clear();
            }
        }
        self.injected = 0;
        self.first_injection = None;
        self.last_injection = None;
        self.peak_resident = 0;
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_semiring::MinPlus;

    #[test]
    fn injection_is_one_word_per_cycle_with_chain_latency() {
        let mut h = Host::<MinPlus>::new(3, 0);
        h.enqueue_stream(2, 7, [10u64, 20]);
        assert!(h.tick(0));
        assert!(h.tick(1));
        assert!(!h.tick(2), "queue drained");
        // Word for cell 2 arrives at cycle 0 + 2 + 1 = 3.
        assert!(!h.can_read(2, 7, 2));
        assert!(h.can_read(2, 7, 3));
        assert_eq!(h.read(2, 7, 3), Some(10));
        assert_eq!(h.read(2, 7, 4), Some(20));
        assert_eq!(h.injected, 2);
        assert_eq!(h.first_injection, Some(0));
        assert_eq!(h.last_injection, Some(1));
    }

    #[test]
    fn streams_slotted_independently() {
        let mut h = Host::<MinPlus>::new(1, 0);
        h.enqueue_stream(0, 1, [1u64]);
        h.enqueue_stream(0, 2, [2u64]);
        h.tick(0);
        h.tick(1);
        assert_eq!(h.read(0, 2, 10), Some(2));
        assert_eq!(h.read(0, 1, 10), Some(1));
        assert_eq!(h.resident, 0);
        assert_eq!(h.peak_resident, 2);
    }

    #[test]
    fn reset_keeps_structure_and_clears_state() {
        let mut h = Host::<MinPlus>::new(2, 1);
        h.enqueue_stream(1, 0, [5u64]);
        h.tick(0);
        h.reset();
        assert_eq!(h.pending(), 0);
        assert_eq!(h.resident, 0);
        assert_eq!(h.injected, 0);
        assert_eq!(h.max_latency(), 1 + 2 + 1);
        assert_eq!(h.read(1, 0, 100), None);
    }
}
