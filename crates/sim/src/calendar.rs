//! The engine's event set: a calendar queue (Brown 1988) that pops in
//! exactly `(time, push order)` order.
//!
//! Times are discrete, so the ring has one bucket per time over a window
//! `[base, base + width)`; bucket `time & (width − 1)` is a FIFO, a
//! circular list threaded through one node slab and kept by its tail.
//! `base` is the time of the last settled entry, and every push lands at
//! or after it (a step's messages leave at its own time plus a delay).
//! An occupancy bitmap finds the next non-empty bucket 64 buckets per word
//! read, so "nothing left now" jumps to the nearest scheduled time without
//! visiting the empty buckets between.
//!
//! Entries at or beyond `base + width` wait in a spill heap ordered by
//! `(time, push number)`. The one invariant is that the ring holds
//! *exactly* the entries before `base + width`: whenever `base` advances or
//! the ring widens, the spill's due entries move into the ring in heap
//! order, before any push can land at their time. Hence within a bucket
//! every entry that came through the spill precedes every entry pushed
//! straight in, and each group is in push order, so FIFO order is push
//! order and the pop order is exact for any delays, `u64::MAX` included.
//!
//! The ring starts one bitmap word wide and doubles (re-bucketing what it
//! holds: one time keeps one bucket) when a push lands beyond it, up to
//! [`MAX_WIDTH`]. It keeps its width across [`Calendar::clear`], so a
//! re-armed engine does not grow it again. Memory is the slab (peak
//! in-flight entries), the spill, and a `u32` plus one bit per bucket.
//!
//! A slab node is the time, the next link and the item: 32 bytes for the
//! engine's entry, whose two words [`Calendar::push`] receives in
//! registers and stores into the node as they are (`engine.rs`'s module
//! docs give the entry's layout, and why it must stay two words).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The `next` of a slab node that holds no entry.
const FREE: u32 = u32::MAX;
/// The ring's first width: one bitmap word.
const MIN_WIDTH: usize = 64;
/// The widest the ring grows; entries further ahead wait in the spill.
const MAX_WIDTH: usize = 1 << 17;

struct Node<T> {
    time: u64,
    /// The next node of the bucket (the tail's is the head), or [`FREE`]
    /// when the node is on the free list.
    next: u32,
    item: T,
}

/// A priority queue of `T`s keyed by time, popping equal times in push
/// order.
pub(crate) struct Calendar<T> {
    slab: Vec<Node<T>>,
    free: Vec<u32>,
    /// The last node of each bucket; read only where `occupied` has the
    /// bucket's bit.
    tails: Vec<u32>,
    /// A bit per bucket: set iff the bucket holds an entry.
    occupied: Vec<u64>,
    /// Entries in the ring.
    ring_len: usize,
    /// No entry is earlier; the ring holds exactly the entries before
    /// `base + width`.
    base: u64,
    /// Entries at or beyond `base + width`: `(time, push number, node)`.
    spill: BinaryHeap<Reverse<(u64, u64, u32)>>,
    pushes: u64,
}

impl<T: Copy> Calendar<T> {
    pub(crate) fn new() -> Calendar<T> {
        Calendar {
            slab: Vec::new(),
            free: Vec::new(),
            tails: vec![FREE; MIN_WIDTH],
            occupied: vec![0; MIN_WIDTH / 64],
            ring_len: 0,
            base: 0,
            spill: BinaryHeap::new(),
            pushes: 0,
        }
    }

    /// Empties the queue and restarts its clock and push numbers at zero;
    /// the ring keeps its width and every buffer its capacity.
    pub(crate) fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.occupied.fill(0);
        self.ring_len = 0;
        self.base = 0;
        self.spill.clear();
        self.pushes = 0;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.spill.is_empty()
    }

    /// The ring's width, in buckets (one time each).
    pub(crate) fn width(&self) -> usize {
        self.tails.len()
    }

    /// Schedules `item` at `time`, which must not precede the last time
    /// [`Calendar::pop_until`] settled on.
    pub(crate) fn push(&mut self, time: u64, item: T) {
        debug_assert!(time >= self.base, "a push before the settled time");
        let node = match self.free.pop() {
            Some(node) => node,
            None => {
                self.slab.push(Node {
                    time,
                    next: FREE,
                    item,
                });
                u32::try_from(self.slab.len() - 1)
                    .ok()
                    .filter(|&n| n < FREE)
                    .expect("fewer than 2^32 - 1 entries in flight")
            }
        };
        // A new node is a one-node circle.
        self.slab[node as usize] = Node {
            time,
            next: node,
            item,
        };
        let tie = self.pushes;
        self.pushes += 1;
        let ahead = time - self.base;
        if ahead >= self.width() as u64 && ahead < MAX_WIDTH as u64 {
            while ahead >= self.width() as u64 {
                self.double();
            }
            self.migrate();
        }
        if ahead < self.width() as u64 {
            self.link(node);
        } else {
            self.spill.push(Reverse((time, tie, node)));
        }
    }

    /// Pops the first entry, with its time, if that time is at most
    /// `max_time`. Either way the queue settles on the first entry's time:
    /// later pushes must not precede it.
    pub(crate) fn pop_until(&mut self, max_time: u64) -> Option<(u64, T)> {
        let bucket = self.settle()?;
        if self.base > max_time {
            return None;
        }
        let tail = self.tails[bucket] as usize;
        let node = self.slab[tail].next;
        let Node { time, next, item } = self.slab[node as usize];
        if node as usize == tail {
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        } else {
            self.slab[tail].next = next;
        }
        self.ring_len -= 1;
        self.slab[node as usize].next = FREE;
        self.free.push(node);
        Some((time, item))
    }

    /// Moves `base` to the first entry's time and returns its bucket.
    fn settle(&mut self) -> Option<usize> {
        if self.ring_len == 0 {
            let &Reverse((time, _, _)) = self.spill.peek()?;
            self.base = time;
            self.migrate();
        }
        let mask = self.width() - 1;
        let start = (self.base & mask as u64) as usize;
        let bucket = self.first_occupied(start);
        let ahead = bucket.wrapping_sub(start) & mask;
        if ahead > 0 {
            self.base += ahead as u64;
            self.migrate();
        }
        Some(bucket)
    }

    /// The first occupied bucket at or cyclically after `start`; the ring
    /// must not be empty.
    fn first_occupied(&self, start: usize) -> usize {
        let first = start / 64;
        let here = self.occupied[first] & (!0 << (start % 64));
        if here != 0 {
            return first * 64 + here.trailing_zeros() as usize;
        }
        // The last probe is `first` again, for the bits below `start`.
        let words = self.occupied.len();
        (1..=words)
            .map(|k| (first + k) & (words - 1))
            .find_map(|w| {
                let word = self.occupied[w];
                (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
            })
            .expect("settle runs on a non-empty ring")
    }

    /// Appends `node` to its time's bucket.
    fn link(&mut self, node: u32) {
        let bucket = (self.slab[node as usize].time & (self.width() as u64 - 1)) as usize;
        let bit = 1 << (bucket % 64);
        if self.occupied[bucket / 64] & bit == 0 {
            self.occupied[bucket / 64] |= bit;
        } else {
            let tail = self.tails[bucket] as usize;
            self.slab[node as usize].next = self.slab[tail].next;
            self.slab[tail].next = node;
        }
        self.tails[bucket] = node;
        self.ring_len += 1;
    }

    /// Moves every spilled entry the window now covers into the ring, in
    /// `(time, push number)` order.
    fn migrate(&mut self) {
        while let Some(&Reverse((time, _, node))) = self.spill.peek() {
            if time - self.base >= self.width() as u64 {
                break;
            }
            self.spill.pop();
            self.link(node);
        }
    }

    /// Doubles the ring. A bucket holds one time, so each list moves whole:
    /// bucket `i` stays or becomes `i + old`, by the time's next bit.
    fn double(&mut self) {
        let old = self.width();
        self.tails.resize(2 * old, FREE);
        self.occupied.resize(2 * old / 64, 0);
        for w in 0..old / 64 {
            let mut word = self.occupied[w];
            while word != 0 {
                let bucket = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.slab[self.tails[bucket] as usize].time & old as u64 != 0 {
                    let to = bucket + old;
                    self.tails[to] = self.tails[bucket];
                    self.occupied[w] &= !(1 << (bucket % 64));
                    self.occupied[to / 64] |= 1 << (to % 64);
                }
            }
        }
    }
}

#[cfg(test)]
impl<T> Calendar<T> {
    /// Everything `clear` keeps, summed.
    pub(crate) fn capacity(&self) -> usize {
        self.slab.capacity()
            + self.free.capacity()
            + self.tails.capacity()
            + self.occupied.capacity()
            + self.spill.capacity()
    }

    /// Every queued item, in no particular order (the slab's live nodes:
    /// O(peak in-flight), never the ring's buckets).
    pub(crate) fn items(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().filter(|n| n.next != FREE).map(|n| &n.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the binary heap the calendar replaced, keyed the same
    /// way (`(time, push number)`).
    #[derive(Default)]
    struct Heap {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        pushes: u64,
    }

    impl Heap {
        /// Pushes the next item at `time` here and into `calendar`, and
        /// records the time.
        fn push(&mut self, time: u64, calendar: &mut Calendar<u32>, times: &mut Vec<u64>) {
            let item = times.len() as u32;
            calendar.push(time, item);
            self.heap.push(Reverse((time, self.pushes, item)));
            self.pushes += 1;
            times.push(time);
        }

        fn pop_until(&mut self, max_time: u64) -> Option<(u64, u32)> {
            let &Reverse((time, _, item)) = self.heap.peek()?;
            (time <= max_time).then(|| {
                self.heap.pop();
                (time, item)
            })
        }
    }

    /// One push of a step's fan-out, relative to the popped time.
    #[derive(Clone, Copy, Debug)]
    enum Push {
        After(u64),
        /// At the time of the k-th latest push, or now if that has passed:
        /// where a spilled entry and a direct push meet in one bucket.
        Again(usize),
    }

    /// Tight delays, every width the ring grows through, just and far
    /// beyond its cap, `u64::MAX`-saturated times, and repeats.
    fn push() -> impl Strategy<Value = Push> {
        (
            0u8..12,
            0u64..=3,
            0u32..17,
            0..4 * MAX_WIDTH as u64,
            0usize..16,
        )
            .prop_map(|(pick, tight, log, far, back)| match pick {
                0..=3 => Push::After(tight),
                4 | 5 => Push::After((1 << log) + tight),
                6 => Push::After(MAX_WIDTH as u64 + far % 64),
                7 => Push::After(MAX_WIDTH as u64 + far),
                8 => Push::After(u64::MAX - tight),
                _ => Push::Again(back),
            })
    }

    /// One execution: staggered initial entries, then budgeted segments
    /// `(max_time, pops)`, each popping through `max_time` as the engine's
    /// `run` does and pushing a fan-out from every popped entry's time.
    type Schedule = (Vec<u64>, Vec<(u64, usize)>, Vec<Vec<Push>>);

    fn schedule() -> impl Strategy<Value = Schedule> {
        (
            proptest::collection::vec(0u64..200, 0..8),
            proptest::collection::vec((0u64..4 * MAX_WIDTH as u64, 1usize..96), 1..5),
            proptest::collection::vec(proptest::collection::vec(push(), 0..4), 1..64),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random schedules, one calendar re-armed by `clear` between
        /// them pops exactly the heap's sequence, stops where the heap
        /// stops, and holds the same items.
        #[test]
        fn the_calendar_pops_what_the_heap_pops(
            schedules in proptest::collection::vec(schedule(), 1..4),
        ) {
            let mut calendar = Calendar::new();
            for (inits, segments, fanouts) in schedules {
                calendar.clear();
                let mut heap = Heap::default();
                let mut times = Vec::new();
                for start in inits {
                    heap.push(start, &mut calendar, &mut times);
                }
                let mut step = 0;
                for (max_time, budget) in segments {
                    for _ in 0..budget {
                        let popped = heap.pop_until(max_time);
                        prop_assert_eq!(calendar.pop_until(max_time), popped);
                        let Some((now, _)) = popped else { break };
                        for &p in &fanouts[step % fanouts.len()] {
                            let time = match p {
                                Push::After(d) => now.saturating_add(d),
                                Push::Again(k) => {
                                    times.iter().rev().nth(k).map_or(now, |&t| t.max(now))
                                }
                            };
                            heap.push(time, &mut calendar, &mut times);
                        }
                        step += 1;
                    }
                    let mut held: Vec<u32> = calendar.items().copied().collect();
                    let mut expected: Vec<u32> = heap.heap.iter().map(|Reverse(e)| e.2).collect();
                    held.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(held, expected);
                    prop_assert_eq!(calendar.is_empty(), heap.heap.is_empty());
                }
                while let Some(popped) = heap.pop_until(u64::MAX) {
                    prop_assert_eq!(calendar.pop_until(u64::MAX), Some(popped));
                }
                prop_assert_eq!(calendar.pop_until(u64::MAX), None);
            }
        }
    }

    #[test]
    fn a_widening_ring_takes_in_the_spill_before_a_push_at_its_time() {
        let cap = MAX_WIDTH as u64;
        let mut calendar = Calendar::new();
        calendar.push(cap + 10, 'a'); // beyond the cap: spilled
        calendar.push(20, 'x');
        assert_eq!(calendar.width(), 64);
        assert_eq!(calendar.pop_until(u64::MAX), Some((20, 'x')));
        // 'a' is now within the cap; widening the ring to it must take it
        // in before 'b' lands in its bucket.
        calendar.push(20 + cap / 2, 'g');
        assert_eq!(calendar.width(), MAX_WIDTH);
        calendar.push(cap + 10, 'b');
        calendar.push(2 * cap + 20, 'c'); // beyond the cap again
        assert_eq!(calendar.pop_until(u64::MAX), Some((20 + cap / 2, 'g')));
        assert_eq!(calendar.pop_until(cap), None, "peek-then-stop");
        assert_eq!(calendar.pop_until(u64::MAX), Some((cap + 10, 'a')));
        assert_eq!(calendar.pop_until(u64::MAX), Some((cap + 10, 'b')));
        assert_eq!(calendar.pop_until(u64::MAX), Some((2 * cap + 20, 'c')));
        assert_eq!(calendar.pop_until(u64::MAX), None);
        calendar.clear();
        assert!(calendar.is_empty());
        assert_eq!(calendar.width(), MAX_WIDTH, "clear keeps the width");
    }
}
