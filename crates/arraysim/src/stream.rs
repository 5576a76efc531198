//! Links, banks and stream endpoints, all built on one ring FIFO.
//!
//! Stream words are opaque semiring elements: a "word" here is whatever
//! `S::Elem` is, so one link transfer can carry 64 bit-sliced Boolean
//! lanes (`systolic_semiring::LaneWord`) as cheaply as one scalar.
//!
//! Every store of words in flight — a [`Link`]'s register chain, each
//! stream slot of a [`Bank`], each stream slot of a host R-block
//! ([`crate::Host`]) — is the same private power-of-two ring of
//! `(ready_cycle, word)` entries. It writes an entry's two fields in
//! place, allocates on its first write, doubles only when full, and keeps
//! its capacity across `reset`, so a compiled schedule that re-runs on a
//! reset simulator allocates nothing after its first run.
//!
//! Banks (and the host's R-block memories) store logical streams in
//! Vec-backed *slot tables*: schedule compilation interns each 64-bit
//! `stream_key` into a dense slot index once, so the cycle loop indexes a
//! `Vec` instead of hashing a `u64` on every `can_read`/`read`/`write`.
//! Direct (non-compiled) users simply use small integers as slots; the
//! tables auto-extend, with the slot index doubling as the fault-visit
//! sort key.

/// A power-of-two ring of `(ready_cycle, word)` entries.
///
/// Entries are filled in write order: a write lands on a slot a read has
/// freed, or extends the filled prefix of `slots`, so the ring never needs
/// a placeholder word. When all `mask + 1` slots hold live words it
/// unwraps itself and doubles.
#[derive(Clone, Debug)]
pub(crate) struct Fifo<E> {
    /// Filled slots; never longer than the capacity `mask + 1`.
    slots: Vec<(u64, E)>,
    /// Slot of the oldest live word.
    head: usize,
    /// Live words.
    len: usize,
    mask: usize,
}

impl<E: Clone> Fifo<E> {
    /// An empty ring holding at least `cap` words before it grows.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        Self {
            slots: Vec::with_capacity(cap),
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    /// Live words.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `e`, readable from cycle `ready`.
    #[inline]
    pub(crate) fn push(&mut self, ready: u64, e: E) {
        if self.len > self.mask {
            self.grow();
        }
        // Writes advance one slot at a time, so the tail is either a slot
        // filled earlier or the first unfilled one.
        let tail = (self.head + self.len) & self.mask;
        if let Some(slot) = self.slots.get_mut(tail) {
            slot.0 = ready;
            slot.1 = e;
        } else {
            debug_assert_eq!(tail, self.slots.len());
            self.slots.push((ready, e));
        }
        self.len += 1;
    }

    /// Doubles a full ring, rotating its oldest word to slot 0.
    #[cold]
    fn grow(&mut self) {
        self.slots.rotate_left(self.head);
        self.head = 0;
        self.mask = 2 * self.mask + 1;
        self.slots.reserve_exact(self.mask + 1 - self.slots.len());
    }

    /// True when the oldest word is readable at cycle `now`.
    #[inline]
    pub(crate) fn ready(&self, now: u64) -> bool {
        self.len > 0 && self.slots[self.head].0 <= now
    }

    /// Removes and returns the oldest word, if it is readable at `now`.
    #[inline]
    pub(crate) fn pop(&mut self, now: u64) -> Option<E> {
        if !self.ready(now) {
            return None;
        }
        let e = self.slots[self.head].1.clone();
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(e)
    }

    /// The `i`-th oldest live word.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut E> {
        (i < self.len).then(|| &mut self.slots[(self.head + i) & self.mask].1)
    }

    /// Empties the ring, keeping its capacity and filled slots.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

impl<E: Clone> Default for Fifo<E> {
    /// An empty one-word ring that allocates on its first write, so a
    /// slot no stream ever uses costs no heap block.
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            head: 0,
            len: 0,
            mask: 0,
        }
    }
}

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
    fifo: Fifo<E>,
    delay: u64,
    cap: usize,
    /// Total words transported.
    pub words: u64,
}

impl<E: Clone> Default for Link<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> Link<E> {
    /// Creates an empty single-register link (1-cycle latency).
    pub fn new() -> Self {
        Self::with_delay(1)
    }

    /// Creates a link with the given latency in cycles (`≥ 1`).
    pub fn with_delay(delay: u64) -> Self {
        assert!(delay >= 1, "links need at least one register");
        let cap = delay as usize + 1;
        Self {
            // One spare slot for the duplicated word of a forced write.
            fifo: Fifo::with_capacity(cap + 1),
            delay,
            cap,
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
    #[inline]
    pub fn write(&mut self, now: u64, e: E) {
        assert!(self.can_write(), "link overwrite");
        self.force_write(now, e);
    }

    /// Writes a word even when the link is nominally full — used by fault
    /// injection to model a duplicated register transfer. May exceed the
    /// register capacity by one word transiently; backpressure reasserts
    /// itself once the extra word drains.
    #[inline]
    pub fn force_write(&mut self, now: u64, e: E) {
        self.fifo.push(now + self.delay, e);
        self.words += 1;
    }

    /// True when a word is readable at cycle `now`.
    #[inline]
    pub fn can_read(&self, now: u64) -> bool {
        self.fifo.ready(now)
    }

    /// Consumes the word readable at cycle `now`, if any.
    #[inline]
    pub fn read(&mut self, now: u64) -> Option<E> {
        self.fifo.pop(now)
    }

    /// True when no word is in flight.
    pub fn is_empty(&self) -> bool {
        self.fifo.len() == 0
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
/// write cycle so experiments can check the port-width assumptions: each
/// write counts itself against the cycle it is stamped with, so writes
/// must come in non-decreasing cycle order, as the simulator makes them.
///
/// Slots created by [`Bank::with_slots`] carry an explicit sort key (the
/// interned 64-bit stream key); slots created by auto-extension use the
/// slot index itself. [`Bank::corrupt_resident`] visits streams in sort-key
/// order, which makes fault injection independent of the interning order
/// and bit-identical to the historical sorted-`HashMap`-key walk.
#[derive(Clone, Debug)]
pub struct Bank<E> {
    fifos: Vec<Fifo<E>>,
    sort_keys: Vec<u64>,
    /// Total words written.
    pub writes: u64,
    /// Total words read.
    pub reads: u64,
    /// Cycle of the latest write, and the writes stamped with it.
    burst_cycle: u64,
    burst: u64,
    /// Maximum words written in any single cycle.
    pub max_writes_per_cycle: u64,
    resident: usize,
    peak_resident: usize,
}

impl<E: Clone> Default for Bank<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> Bank<E> {
    /// Creates an empty bank with no slots (they auto-extend on use).
    pub fn new() -> Self {
        Self::with_slots(Vec::new())
    }

    /// Creates a bank with one pre-sized slot per entry of `sort_keys`;
    /// slot `i` is visited in `sort_keys[i]` order by fault injection.
    pub fn with_slots(sort_keys: Vec<u64>) -> Self {
        Self {
            fifos: sort_keys.iter().map(|_| Fifo::default()).collect(),
            sort_keys,
            writes: 0,
            reads: 0,
            burst_cycle: 0,
            burst: 0,
            max_writes_per_cycle: 0,
            resident: 0,
            peak_resident: 0,
        }
    }

    /// Number of slots in the table.
    pub fn slots(&self) -> usize {
        self.fifos.len()
    }

    #[cold]
    fn ensure_slot(&mut self, slot: usize) {
        while self.fifos.len() <= slot {
            self.sort_keys.push(self.fifos.len() as u64);
            self.fifos.push(Fifo::default());
        }
    }

    /// Appends a word to stream `slot`; readable from cycle `now + 1`.
    #[inline(always)]
    pub fn write(&mut self, slot: usize, now: u64, e: E) {
        if slot >= self.fifos.len() {
            self.ensure_slot(slot);
        }
        self.fifos[slot].push(now + 1, e);
        self.writes += 1;
        if self.burst_cycle != now {
            self.burst_cycle = now;
            self.burst = 0;
        }
        self.burst += 1;
        self.max_writes_per_cycle = self.max_writes_per_cycle.max(self.burst);
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Pre-loads a word readable immediately (initial matrix residence).
    pub fn preload(&mut self, slot: usize, e: E) {
        if slot >= self.fifos.len() {
            self.ensure_slot(slot);
        }
        self.fifos[slot].push(0, e);
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// True when stream `slot` has a word readable at cycle `now`.
    #[inline]
    pub fn can_read(&self, slot: usize, now: u64) -> bool {
        self.fifos.get(slot).is_some_and(|f| f.ready(now))
    }

    /// Consumes the next word of stream `slot` if readable.
    #[inline]
    pub fn read(&mut self, slot: usize, now: u64) -> Option<E> {
        let e = self.fifos.get_mut(slot)?.pop(now)?;
        self.reads += 1;
        self.resident -= 1;
        Some(e)
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
        self.burst_cycle = 0;
        self.burst = 0;
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
            if let Some(e) = fifo.get_mut(idx) {
                f(e);
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
        assert_eq!(b.max_writes_per_cycle, 1);
        b.write(5, 11, 'b');
        b.write(6, 11, 'c');
        assert_eq!(b.max_writes_per_cycle, 2, "two writes stamped cycle 11");
        b.write(5, 12, 'd');
        assert_eq!(b.max_writes_per_cycle, 2, "a new cycle restarts the burst");
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
    fn delayed_link_takes_a_forced_duplicate() {
        let mut l = Link::with_delay(3);
        for (now, v) in [(0, 1u32), (1, 2), (2, 3), (3, 4)] {
            assert!(l.can_write(), "register {now} free");
            l.write(now, v);
        }
        assert!(!l.can_write(), "four registers full");
        l.force_write(3, 4);
        assert_eq!(l.words, 5);
        assert_eq!(l.read(2), None, "first word lands at 0 + 3");
        assert_eq!(l.read(3), Some(1));
        assert!(!l.can_write(), "still over capacity");
        assert_eq!(l.read(4), Some(2));
        assert!(
            l.can_write(),
            "backpressure lifts once the extra word drains"
        );
        assert_eq!(l.read(5), Some(3));
        assert_eq!(l.read(5), None);
        assert_eq!(l.read(6), Some(4));
        assert_eq!(l.read(6), Some(4), "the duplicate follows the original");
        assert!(l.is_empty());
    }

    #[test]
    fn slot_ring_grows_while_wrapped() {
        use std::collections::VecDeque;
        let mut b = Bank::with_slots(vec![0]);
        let mut model = VecDeque::new();
        let mut wrapped_grows = 0;
        let mut next = 0u32;
        // Two writes and one read per cycle: the ring keeps wrapping as
        // it fills, so it must grow with its oldest word past slot 0.
        for now in 0..40u64 {
            for _ in 0..2 {
                let f = &b.fifos[0];
                if f.len() > f.mask && f.head != 0 {
                    wrapped_grows += 1;
                }
                b.write(0, now, next);
                model.push_back(next);
                next += 1;
            }
            assert_eq!(b.read(0, now + 1), model.pop_front());
        }
        assert!(wrapped_grows > 0, "no growth happened while wrapped");
        assert!(b.fifos[0].mask + 1 > 40, "the ring outgrew its start");
        assert_eq!(b.resident(), model.len());
        for now in 41..41 + model.len() as u64 {
            assert_eq!(b.read(0, now), model.pop_front());
        }
        assert_eq!(b.read(0, 1000), None);

        let (cap, filled) = (b.fifos[0].mask + 1, b.fifos[0].slots.len());
        b.reset();
        assert_eq!(b.fifos[0].mask + 1, cap, "reset keeps the capacity");
        assert_eq!(b.fifos[0].slots.len(), filled);
        for v in 0..3 {
            b.write(0, 0, v);
        }
        assert_eq!(b.read(0, 1), Some(0), "a reset ring restarts at its head");
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
        assert_eq!(b.max_writes_per_cycle, 1);
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
