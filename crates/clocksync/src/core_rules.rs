//! The Algorithm 1 state machine, shared by [`crate::TickGen`] and
//! [`crate::LockStep`].
//!
//! ```text
//! VAR k: integer ← 0;
//! send (tick 0) to all [once];
//! /* catch-up rule */
//! if received (tick l) from f+1 distinct processes and l > k then
//!     send (tick k+1), ..., (tick l) to all [once];  k ← l;
//! /* advance rule */
//! if received (tick k) from n−f distinct processes then
//!     send (tick k+1) to all [once];  k ← k+1;
//! ```
//!
//! The rules are applied to fixpoint after every reception (one rule firing
//! can enable the other). The *once* semantics holds by construction: `k`
//! is monotone and exactly the ticks in `(k_old, k_new]` are sent on each
//! firing.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use abc_core::ProcessId;

/// The clock/tick state machine of Algorithm 1.
///
/// Supports up to 128 processes (sender sets are bitmask-compressed).
#[derive(Clone, Debug)]
pub struct TickCore {
    n: usize,
    f: usize,
    k: u64,
    initialized: bool,
    /// For each tick value > current `k` (plus the current frontier):
    /// bitmask of distinct senders seen.
    received: BTreeMap<u64, u128>,
}

impl TickCore {
    /// State machine for `n` processes tolerating `f` Byzantine faults.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 128` and `n ≥ 3f + 1`.
    #[must_use]
    pub fn new(n: usize, f: usize) -> TickCore {
        assert!(
            (1..=128).contains(&n),
            "sender bitmasks support up to 128 processes"
        );
        // The paper's n ≥ 3f + 1, over integers.
        assert!(n > 3 * f, "Algorithm 1 requires n >= 3f + 1");
        TickCore {
            n,
            f,
            k: 0,
            initialized: false,
            received: BTreeMap::new(),
        }
    }

    /// The current clock value `k`.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.k
    }

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault budget `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// The initialization step: returns the ticks to broadcast (always
    /// `0..=0`).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn on_init(&mut self) -> RangeInclusive<u64> {
        assert!(!self.initialized, "init step happens once");
        self.initialized = true;
        0..=0
    }

    /// Records `(tick l)` from `from` and applies the rules to fixpoint.
    ///
    /// Returns the ticks to broadcast now, in increasing order: always the
    /// contiguous `(k_old, k_new]`, empty when no rule fired.
    pub fn on_tick(&mut self, from: ProcessId, l: u64) -> RangeInclusive<u64> {
        debug_assert!(from.0 < self.n, "sender out of range");
        // Ticks at or below our clock can never fire a rule again — except
        // ticks exactly at k, which feed the advance rule.
        if l >= self.k {
            *self.received.entry(l).or_insert(0) |= 1u128 << from.0;
        }
        let k_old = self.k;
        loop {
            // Catch-up rule: largest l > k with f+1 distinct senders.
            let catch_up = self
                .received
                .range((self.k + 1)..)
                .rev()
                .find(|(_, mask)| mask.count_ones() as usize > self.f)
                .map(|(l, _)| *l);
            if let Some(l) = catch_up {
                self.k = l;
                self.prune();
                continue;
            }
            // Advance rule: n−f distinct senders at exactly k.
            let at_k = self.received.get(&self.k).copied().unwrap_or(0);
            if at_k.count_ones() as usize >= self.n - self.f {
                self.k += 1;
                self.prune();
                continue;
            }
            break;
        }
        (k_old + 1)..=self.k
    }

    /// Drops bookkeeping for tick values below the current clock (they can
    /// never fire a rule again).
    fn prune(&mut self) {
        while let Some((&l, _)) = self.received.first_key_value() {
            if l < self.k {
                self.received.remove(&l);
            } else {
                break;
            }
        }
    }

    /// Number of distinct senders recorded for tick `l` (diagnostics).
    #[must_use]
    pub fn senders_of(&self, l: u64) -> usize {
        self.received.get(&l).map_or(0, |m| m.count_ones() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn init_broadcasts_tick_zero_once() {
        let mut c = TickCore::new(4, 1);
        assert_eq!(c.on_init(), 0..=0);
        assert_eq!(c.clock(), 0);
    }

    #[test]
    #[should_panic(expected = "once")]
    fn double_init_panics() {
        let mut c = TickCore::new(4, 1);
        c.on_init();
        c.on_init();
    }

    #[test]
    #[should_panic(expected = "3f + 1")]
    fn insufficient_n_rejected() {
        let _ = TickCore::new(6, 2);
    }

    #[test]
    fn advance_rule_needs_n_minus_f() {
        // n = 4, f = 1: advance needs 3 distinct (tick 0).
        let mut c = TickCore::new(4, 1);
        c.on_init();
        assert_eq!(c.on_tick(p(0), 0).collect::<Vec<_>>(), Vec::<u64>::new());
        assert_eq!(c.on_tick(p(1), 0).collect::<Vec<_>>(), Vec::<u64>::new());
        assert_eq!(c.on_tick(p(2), 0).collect::<Vec<_>>(), vec![1]); // third distinct sender
        assert_eq!(c.clock(), 1);
        // Duplicate senders do not count twice.
        let mut c2 = TickCore::new(4, 1);
        c2.on_init();
        c2.on_tick(p(0), 0);
        assert_eq!(c2.on_tick(p(0), 0).collect::<Vec<_>>(), Vec::<u64>::new());
        assert_eq!(c2.clock(), 0);
    }

    #[test]
    fn catch_up_rule_needs_f_plus_1_and_jumps() {
        // n = 4, f = 1: catch-up needs 2 distinct (tick l), l > k.
        let mut c = TickCore::new(4, 1);
        c.on_init();
        assert_eq!(c.on_tick(p(0), 5).collect::<Vec<_>>(), Vec::<u64>::new()); // one Byzantine alone: no
        assert_eq!(c.on_tick(p(1), 5).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]); // second sender
        assert_eq!(c.clock(), 5);
    }

    #[test]
    fn catch_up_takes_largest_eligible() {
        let mut c = TickCore::new(4, 1);
        c.on_init();
        assert_eq!(c.on_tick(p(0), 3).collect::<Vec<_>>(), Vec::<u64>::new());
        assert_eq!(c.on_tick(p(1), 7).collect::<Vec<_>>(), Vec::<u64>::new());
        // Second distinct sender for tick 7 fires the catch-up; tick 3
        // still has only one sender and is skipped over entirely.
        let sent: Vec<u64> = c.on_tick(p(0), 7).collect();
        assert_eq!(c.clock(), 7);
        assert_eq!(sent, vec![1, 2, 3, 4, 5, 6, 7]);
        // Late tick 3 is stale now.
        assert_eq!(c.on_tick(p(1), 3).collect::<Vec<_>>(), Vec::<u64>::new());
    }

    #[test]
    fn catch_up_can_enable_advance() {
        // After catching up to l, n-f senders at l advance immediately.
        let mut c = TickCore::new(4, 1);
        c.on_init();
        c.on_tick(p(0), 2);
        c.on_tick(p(1), 2);
        // k jumped to 2 (catch-up, senders {0,1} at tick 2).
        assert_eq!(c.clock(), 2);
        let sent: Vec<u64> = c.on_tick(p(2), 2).collect();
        // Third distinct sender at 2: advance fires.
        assert_eq!(sent, vec![3]);
        assert_eq!(c.clock(), 3);
    }

    #[test]
    fn stale_ticks_are_ignored() {
        let mut c = TickCore::new(4, 1);
        c.on_init();
        c.on_tick(p(0), 4);
        c.on_tick(p(1), 4); // catch up to 4
        assert_eq!(c.clock(), 4);
        // Old ticks (below k) can never matter.
        assert_eq!(c.on_tick(p(2), 1).collect::<Vec<_>>(), Vec::<u64>::new());
        assert_eq!(c.on_tick(p(3), 1).collect::<Vec<_>>(), Vec::<u64>::new());
        assert_eq!(c.clock(), 4);
        assert_eq!(c.senders_of(1), 0, "pruned");
    }

    #[test]
    fn full_round_progression_without_faults() {
        // 4 correct processes in lock step: drive one core with everyone's
        // tick-0 and tick-1 messages.
        let mut c = TickCore::new(4, 0);
        c.on_init();
        let mut sent = Vec::new();
        for i in 0..4 {
            sent.extend(c.on_tick(p(i), 0));
        }
        assert_eq!(sent, vec![1]); // advance needs all 4 when f = 0
        for i in 0..4 {
            sent.extend(c.on_tick(p(i), 1));
        }
        assert_eq!(sent, vec![1, 2]);
        assert_eq!(c.clock(), 2);
    }
}
