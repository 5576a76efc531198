//! Links, banks and stream endpoints.
//!
//! Stream words are opaque semiring elements: a "word" here is whatever
//! `S::Elem` is, so one link transfer can carry 64 bit-sliced Boolean
//! lanes (`systolic_semiring::LaneWord`) as cheaply as one scalar.
//!
//! Banks (and the host's R-block memories) store logical streams in
//! Vec-backed *slot tables*: schedule compilation interns each 64-bit
//! `stream_key` into a dense slot index once, so the cycle loop indexes a
//! `Vec` instead of hashing a `u64` on every `can_read`/`read`/`write`.
//! Direct (non-compiled) users simply use small integers as slots; the
//! tables auto-extend, with the slot index doubling as the fault-visit
//! sort key.

use std::collections::VecDeque;

/// A neighbor register chain: a word written at cycle `t` becomes readable
/// at `t + delay` (default delay 1 — a single register).
///
/// Capacity is `delay + 1` words (one per register stage plus the visible
/// one), which models back-to-back pipelined registers. Writers must check
/// [`Link::can_write`]; full means backpressure. Delays larger than 1 model
/// bypass routes around faulty cells (§5's fault-tolerance discussion).
///
/// Links are clockless: readiness is judged against the cycle passed by
/// the caller, so an idle link costs nothing per cycle.
#[derive(Clone, Debug)]
pub struct Link<E> {
    fifo: VecDeque<(u64, E)>,
    delay: u64,
    cap: usize,
    /// Total words transported.
    pub words: u64,
}

impl<E> Default for Link<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Link<E> {
    /// Creates an empty single-register link (1-cycle latency).
    pub fn new() -> Self {
        Self::with_delay(1)
    }

    /// Creates a link with the given latency in cycles (`≥ 1`).
    pub fn with_delay(delay: u64) -> Self {
        assert!(delay >= 1, "links need at least one register");
        Self {
            fifo: VecDeque::new(),
            delay,
            cap: delay as usize + 1,
            words: 0,
        }
    }

    /// The link's latency in cycles.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// True when a word can be written this cycle.
    #[inline]
    pub fn can_write(&self) -> bool {
        self.fifo.len() < self.cap
    }

    /// Writes a word at cycle `now` (must be writable), readable `delay`
    /// cycles later.
    ///
    /// # Panics
    /// Panics if the link is full — callers must check [`Link::can_write`].
    pub fn write(&mut self, now: u64, e: E) {
        assert!(self.can_write(), "link overwrite");
        self.fifo.push_back((now + self.delay, e));
        self.words += 1;
    }

    /// Writes a word even when the link is nominally full — used by fault
    /// injection to model a duplicated register transfer. May exceed the
    /// register capacity by one word transiently; backpressure reasserts
    /// itself once the extra word drains.
    pub fn force_write(&mut self, now: u64, e: E) {
        self.fifo.push_back((now + self.delay, e));
        self.words += 1;
    }

    /// True when a word is readable at cycle `now`.
    #[inline]
    pub fn can_read(&self, now: u64) -> bool {
        self.fifo.front().is_some_and(|(ready, _)| *ready <= now)
    }

    /// Consumes the word readable at cycle `now`, if any.
    pub fn read(&mut self, now: u64) -> Option<E> {
        if self.can_read(now) {
            self.fifo.pop_front().map(|(_, e)| e)
        } else {
            None
        }
    }

    /// True when no word is in flight.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Clears all dynamic state (words in flight, counters) while keeping
    /// the link's structure and allocations.
    pub fn reset(&mut self) {
        self.fifo.clear();
        self.words = 0;
    }
}

/// An external memory bank holding logical streams as FIFOs in a slot
/// table.
///
/// Each write lands with one cycle of latency. The bank records its busiest
/// write cycle so experiments can check the port-width assumptions.
///
/// Slots created by [`Bank::with_slots`] carry an explicit sort key (the
/// interned 64-bit stream key); slots created by auto-extension use the
/// slot index itself. [`Bank::corrupt_resident`] visits streams in sort-key
/// order, which makes fault injection independent of the interning order
/// and bit-identical to the historical sorted-`HashMap`-key walk.
#[derive(Clone, Debug)]
pub struct Bank<E> {
    fifos: Vec<VecDeque<(u64, E)>>,
    sort_keys: Vec<u64>,
    /// Total words written.
    pub writes: u64,
    /// Total words read.
    pub reads: u64,
    writes_this_cycle: u64,
    /// Maximum words written in any single cycle.
    pub max_writes_per_cycle: u64,
    resident: usize,
    peak_resident: usize,
}

impl<E> Default for Bank<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Bank<E> {
    /// Creates an empty bank with no slots (they auto-extend on use).
    pub fn new() -> Self {
        Self::with_slots(Vec::new())
    }

    /// Creates a bank with one pre-sized slot per entry of `sort_keys`;
    /// slot `i` is visited in `sort_keys[i]` order by fault injection.
    pub fn with_slots(sort_keys: Vec<u64>) -> Self {
        Self {
            fifos: sort_keys.iter().map(|_| VecDeque::new()).collect(),
            sort_keys,
            writes: 0,
            reads: 0,
            writes_this_cycle: 0,
            max_writes_per_cycle: 0,
            resident: 0,
            peak_resident: 0,
        }
    }

    /// Number of slots in the table.
    pub fn slots(&self) -> usize {
        self.fifos.len()
    }

    fn ensure_slot(&mut self, slot: usize) {
        while self.fifos.len() <= slot {
            self.sort_keys.push(self.fifos.len() as u64);
            self.fifos.push(VecDeque::new());
        }
    }

    /// Appends a word to stream `slot`; readable from cycle `now + 1`.
    pub fn write(&mut self, slot: usize, now: u64, e: E) {
        self.ensure_slot(slot);
        self.fifos[slot].push_back((now + 1, e));
        self.writes += 1;
        self.writes_this_cycle += 1;
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Pre-loads a word readable immediately (initial matrix residence).
    pub fn preload(&mut self, slot: usize, e: E) {
        self.ensure_slot(slot);
        self.fifos[slot].push_back((0, e));
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// True when stream `slot` has a word readable at cycle `now`.
    #[inline]
    pub fn can_read(&self, slot: usize, now: u64) -> bool {
        self.fifos
            .get(slot)
            .and_then(VecDeque::front)
            .is_some_and(|(ready, _)| *ready <= now)
    }

    /// Consumes the next word of stream `slot` if readable.
    pub fn read(&mut self, slot: usize, now: u64) -> Option<E> {
        let fifo = self.fifos.get_mut(slot)?;
        if fifo.front().is_some_and(|(ready, _)| *ready <= now) {
            self.reads += 1;
            self.resident -= 1;
            fifo.pop_front().map(|(_, e)| e)
        } else {
            None
        }
    }

    /// End-of-cycle accounting. Only needs to run for cycles in which the
    /// bank was written.
    pub fn tick(&mut self) {
        self.max_writes_per_cycle = self.max_writes_per_cycle.max(self.writes_this_cycle);
        self.writes_this_cycle = 0;
    }

    /// Number of words currently resident. O(1): the simulator sums it
    /// once per run and tracks the global peak from per-cycle deltas.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Largest number of words this bank ever held at once — the bank's
    /// own local-storage high-water mark (the per-cell `Θ(n²/m)` measure
    /// of the coalescing mapping; the simulator aggregates the global peak
    /// separately).
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Clears all dynamic state (stream contents, counters) while keeping
    /// the slot table and its allocations.
    pub fn reset(&mut self) {
        for fifo in &mut self.fifos {
            fifo.clear();
        }
        self.writes = 0;
        self.reads = 0;
        self.writes_this_cycle = 0;
        self.max_writes_per_cycle = 0;
        self.resident = 0;
        self.peak_resident = 0;
    }

    /// Corrupts the `nth % resident` resident word in place via `f`,
    /// returning true if a word was corrupted (false on an empty bank).
    ///
    /// Streams are visited in sorted-key order (drained streams are empty
    /// and contribute nothing), so the choice is independent of slot
    /// interning order — fault injection must be deterministic.
    pub fn corrupt_resident(&mut self, nth: usize, f: impl FnOnce(&mut E)) -> bool {
        if self.resident == 0 {
            return false;
        }
        let mut idx = nth % self.resident;
        let mut order: Vec<usize> = (0..self.fifos.len()).collect();
        order.sort_unstable_by_key(|&s| self.sort_keys[s]);
        for slot in order {
            let fifo = &mut self.fifos[slot];
            if idx < fifo.len() {
                f(&mut fifo[idx].1);
                return true;
            }
            idx -= fifo.len();
        }
        unreachable!("resident count out of sync with fifos");
    }
}

/// Where a task's input stream comes from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StreamSrc {
    /// Stream `slot` of bank `bank`.
    Bank {
        /// Bank index.
        bank: usize,
        /// Stream slot within the bank's table.
        slot: usize,
    },
    /// Neighbor link `link`.
    Link(usize),
    /// The cell's R-block host memory, stream `slot`.
    Host {
        /// Stream slot within the cell's R-block table.
        slot: usize,
    },
}

/// Where a task's output stream goes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StreamDst {
    /// Stream `slot` of bank `bank`.
    Bank {
        /// Bank index.
        bank: usize,
        /// Stream slot within the bank's table.
        slot: usize,
    },
    /// Neighbor link `link`.
    Link(usize),
    /// Result collector stream `stream` (one per output matrix column).
    Output {
        /// Output stream index.
        stream: usize,
    },
    /// Discard (used for dangling boundary pivot streams).
    Sink,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_has_one_cycle_latency() {
        let mut l = Link::new();
        assert!(l.can_write());
        l.write(0, 7u32);
        assert!(!l.can_read(0), "not readable in the write cycle");
        assert!(l.can_read(1));
        assert_eq!(l.read(1), Some(7));
        assert!(l.is_empty());
    }

    #[test]
    fn link_backpressure() {
        let mut l = Link::new();
        l.write(0, 1u32);
        l.write(1, 2);
        assert!(!l.can_write(), "register pair full");
        assert!(!l.can_write());
        assert_eq!(l.read(2), Some(1));
        assert!(l.can_write());
        assert_eq!(l.read(3), Some(2));
        assert_eq!(l.words, 2);
    }

    #[test]
    fn bank_write_read_latency_and_counters() {
        let mut b = Bank::new();
        b.write(5, 10, 'a');
        assert!(!b.can_read(5, 10), "same-cycle read must fail");
        assert!(b.can_read(5, 11));
        assert_eq!(b.read(5, 11), Some('a'));
        assert_eq!(b.writes, 1);
        assert_eq!(b.reads, 1);
        b.tick();
        assert_eq!(b.max_writes_per_cycle, 1);
    }

    #[test]
    fn bank_preload_is_immediately_readable() {
        let mut b = Bank::new();
        b.preload(1, 'x');
        b.preload(1, 'y');
        assert_eq!(b.read(1, 0), Some('x'));
        assert_eq!(b.read(1, 0), Some('y'));
        assert_eq!(b.read(1, 0), None);
    }

    #[test]
    fn link_force_write_can_exceed_capacity() {
        let mut l = Link::new();
        l.write(0, 1u32);
        l.write(1, 2);
        assert!(!l.can_write());
        l.force_write(1, 3);
        assert_eq!(l.read(1), Some(1));
        assert_eq!(l.read(2), Some(2));
        assert_eq!(l.read(3), Some(3));
        assert_eq!(l.words, 3);
    }

    #[test]
    fn bank_corrupt_resident_is_deterministic_and_bounded() {
        let mut b = Bank::new();
        assert!(!b.corrupt_resident(0, |_: &mut u8| unreachable!()));
        b.preload(9, 10u8);
        b.preload(2, 20u8);
        b.preload(2, 30u8);
        // Sorted-key order: stream 2 = [20, 30], stream 9 = [10].
        assert!(b.corrupt_resident(1, |e| *e = 99));
        assert_eq!(b.read(2, 0), Some(20));
        assert_eq!(b.read(2, 0), Some(99));
        // nth wraps modulo resident count.
        assert!(b.corrupt_resident(5, |e| *e = 77));
        assert_eq!(b.read(9, 0), Some(77));
    }

    #[test]
    fn bank_corrupt_resident_honors_explicit_sort_keys() {
        // Slot 0 carries the *larger* stream key: the fault walk must
        // visit slot 1 (key 2) before slot 0 (key 9), exactly like the
        // historical sorted-HashMap-key walk.
        let mut b = Bank::with_slots(vec![9, 2]);
        b.preload(0, 10u8);
        b.preload(1, 20u8);
        assert!(b.corrupt_resident(0, |e| *e = 99));
        assert_eq!(b.read(1, 0), Some(99));
        assert_eq!(b.read(0, 0), Some(10));
    }

    #[test]
    fn bank_drained_streams_are_skipped_by_fault_walk() {
        let mut b = Bank::new();
        b.preload(1, 1u8);
        b.preload(3, 3u8);
        assert_eq!(b.read(1, 0), Some(1));
        // Stream 1 is drained: index 0 of the walk must now be stream 3.
        assert!(b.corrupt_resident(0, |e| *e = 99));
        assert_eq!(b.read(3, 0), Some(99));
    }

    #[test]
    fn bank_streams_are_independent() {
        let mut b = Bank::new();
        b.preload(1, 1u8);
        b.preload(2, 2u8);
        assert_eq!(b.read(2, 0), Some(2));
        assert_eq!(b.read(1, 0), Some(1));
        assert_eq!(b.resident(), 0);
    }

    #[test]
    fn bank_peak_resident_is_a_high_water_mark() {
        let mut b = Bank::new();
        b.preload(0, 'a');
        b.write(1, 0, 'b');
        assert_eq!(b.peak_resident(), 2);
        assert_eq!(b.read(0, 1), Some('a'));
        assert_eq!(b.read(1, 1), Some('b'));
        assert_eq!(b.resident(), 0);
        assert_eq!(b.peak_resident(), 2, "peak survives drains");
        b.write(2, 5, 'c');
        assert_eq!(b.peak_resident(), 2, "lower residency leaves the peak");
    }

    #[test]
    fn bank_reset_keeps_slots_and_clears_state() {
        let mut b = Bank::with_slots(vec![7, 3]);
        b.write(0, 0, 'a');
        b.tick();
        assert_eq!(b.read(0, 1), Some('a'));
        b.reset();
        assert_eq!(b.slots(), 2);
        assert_eq!(b.resident(), 0);
        assert_eq!(b.peak_resident(), 0);
        assert_eq!(b.writes, 0);
        assert_eq!(b.reads, 0);
        assert_eq!(b.max_writes_per_cycle, 0);
        assert_eq!(b.read(0, 10), None);
    }
}
