//! Algorithm 2: lock-step round simulation on top of Algorithm 1.
//!
//! Clocks are treated as phase counters; a round consists of `X = ⌈2Ξ⌉`
//! phases. The round-`r` application message is piggybacked on the
//! `(tick X·r)` message, and a process *starts round `r+1`* — reads the
//! round-`r` messages, computes, and broadcasts its round-`r+1` message —
//! at the moment its clock reaches `X·(r+1)`. Theorem 5 (via the causal
//! cone Lemma 4) guarantees that by then every correct process's round-`r`
//! message has arrived; [`LockStepReport`] records the actual arrival
//! snapshots so the experiments can verify exactly that.

use std::collections::BTreeMap;

use abc_core::ProcessId;
use abc_core::Xi;
use abc_sim::{Context, Process};

use crate::core_rules::TickCore;

/// A tick message optionally carrying a piggybacked round payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TickMsg<P> {
    /// The tick value.
    pub k: u64,
    /// The round payload attached to ticks at round boundaries
    /// (`k = X·r` carries the round-`r` message).
    pub payload: Option<P>,
}

/// A synchronous round-based application driven by [`LockStep`].
///
/// Round 0 only emits messages ([`RoundApp::first_message`]); every later
/// round `r ≥ 1` receives the round-`r−1` messages and emits the round-`r`
/// message ([`RoundApp::on_round`]).
pub trait RoundApp {
    /// The application's round message type.
    type Payload: Clone + std::fmt::Debug;

    /// The round-0 message (sent at wake-up).
    fn first_message(&mut self, me: ProcessId, n: usize) -> Self::Payload;

    /// Computes round `r ≥ 1` from the round-`r−1` messages received
    /// (keyed by sender; Byzantine senders may be absent or lying), and
    /// returns the round-`r` message to broadcast.
    fn on_round(
        &mut self,
        me: ProcessId,
        round: u64,
        received: &BTreeMap<ProcessId, Self::Payload>,
    ) -> Self::Payload;
}

/// What a [`LockStep`] process observed, for Theorem 5 validation.
#[derive(Clone, Debug, Default)]
pub struct LockStepReport {
    /// For each started round `r ≥ 1`: the bitmask of processes whose
    /// round-`r−1` message had arrived when round `r` was computed.
    pub snapshots: Vec<(u64, u128)>,
}

impl LockStepReport {
    /// Number of rounds this process started (beyond round 0).
    #[must_use]
    pub fn rounds_started(&self) -> u64 {
        self.snapshots.len() as u64
    }

    /// Checks Theorem 5 for this process: every round computation saw the
    /// round messages of all processes in `correct_mask`.
    #[must_use]
    pub fn lockstep_holds(&self, correct_mask: u128) -> bool {
        self.snapshots
            .iter()
            .all(|(_, present)| present & correct_mask == correct_mask)
    }
}

/// Algorithms 1 + 2 merged: Byzantine clock synchronization driving a
/// lock-step round application.
#[derive(Clone, Debug)]
pub struct LockStep<A: RoundApp> {
    core: TickCore,
    phases_per_round: u64,
    me: Option<ProcessId>,
    round_msgs: BTreeMap<u64, BTreeMap<ProcessId, A::Payload>>,
    report: LockStepReport,
    app: A,
}

impl<A: RoundApp> LockStep<A> {
    /// Wraps `app` for a system of `n` processes with `f` Byzantine faults
    /// under model parameter `xi` (rounds have `⌈2Ξ⌉` phases).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 128` and `n ≥ 3f + 1`.
    #[must_use]
    pub fn new(n: usize, f: usize, xi: &Xi, app: A) -> LockStep<A> {
        LockStep::with_phases(n, f, xi.two_xi_ceil().max(1), app)
    }

    /// Like [`LockStep::new`] but with an explicit phase count per round.
    ///
    /// Theorem 5 requires at least `⌈2Ξ⌉` phases; shorter rounds are
    /// **unsound** (round messages may miss their round) — exposed for the
    /// ablation experiments that demonstrate exactly that.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 128`, `n ≥ 3f + 1`, and `phases ≥ 1`.
    #[must_use]
    pub fn with_phases(n: usize, f: usize, phases: u64, app: A) -> LockStep<A> {
        assert!(phases >= 1);
        LockStep {
            core: TickCore::new(n, f),
            phases_per_round: phases,
            me: None,
            round_msgs: BTreeMap::new(),
            report: LockStepReport::default(),
            app,
        }
    }

    /// The wrapped application.
    #[must_use]
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The Theorem 5 observation report.
    #[must_use]
    pub fn report(&self) -> &LockStepReport {
        &self.report
    }

    /// The current clock (phase counter).
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.core.clock()
    }

    /// Current round (`⌊k / X⌋`).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.core.clock() / self.phases_per_round
    }

    /// Builds the outgoing tick message for tick `t`, computing and
    /// attaching the round payload at round boundaries.
    fn make_msg(&mut self, t: u64, n: usize) -> TickMsg<A::Payload> {
        let payload = if t.is_multiple_of(self.phases_per_round) {
            let r = t / self.phases_per_round;
            let me = self.me.expect("initialized");
            if r == 0 {
                Some(self.app.first_message(me, n))
            } else {
                let prev = self.round_msgs.entry(r - 1).or_default().clone();
                let mut present: u128 = 0;
                for p in prev.keys() {
                    present |= 1 << p.0;
                }
                self.report.snapshots.push((r, present));
                Some(self.app.on_round(me, r, &prev))
            }
        } else {
            None
        };
        TickMsg { k: t, payload }
    }
}

impl<A: RoundApp + 'static> Process<TickMsg<A::Payload>> for LockStep<A> {
    fn on_init(&mut self, ctx: &mut Context<'_, TickMsg<A::Payload>>) {
        self.me = Some(ctx.me());
        let n = ctx.num_processes();
        for t in self.core.on_init() {
            let msg = self.make_msg(t, n);
            ctx.broadcast(msg);
        }
        ctx.set_label(self.core.clock());
        ctx.mark_distinguished();
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, TickMsg<A::Payload>>,
        from: ProcessId,
        msg: &TickMsg<A::Payload>,
    ) {
        // Stash a piggybacked round payload (first message per sender and
        // round wins; Byzantine equivocation cannot overwrite).
        if let Some(p) = &msg.payload {
            if msg.k % self.phases_per_round == 0 {
                let r = msg.k / self.phases_per_round;
                self.round_msgs
                    .entry(r)
                    .or_default()
                    .entry(from)
                    .or_insert_with(|| p.clone());
            }
        }
        let to_send = self.core.on_tick(from, msg.k);
        let progressed = !to_send.is_empty();
        let n = ctx.num_processes();
        for t in to_send {
            let m = self.make_msg(t, n);
            ctx.broadcast(m);
        }
        ctx.set_label(self.core.clock());
        if progressed {
            ctx.mark_distinguished();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_sim::delay::BandDelay;
    use abc_sim::{RunLimits, Simulation};

    /// Test app: each round message carries (sender, round); the app checks
    /// that received messages are exactly for the previous round.
    #[derive(Clone, Debug, Default)]
    struct Recorder {
        rounds_seen: Vec<u64>,
        inputs_ok: bool,
    }

    impl Recorder {
        fn new() -> Recorder {
            Recorder {
                rounds_seen: Vec::new(),
                inputs_ok: true,
            }
        }
    }

    impl RoundApp for Recorder {
        type Payload = (usize, u64);

        fn first_message(&mut self, me: ProcessId, _n: usize) -> (usize, u64) {
            (me.0, 0)
        }

        fn on_round(
            &mut self,
            me: ProcessId,
            round: u64,
            received: &BTreeMap<ProcessId, (usize, u64)>,
        ) -> (usize, u64) {
            self.rounds_seen.push(round);
            for (p, (sender, r)) in received {
                if *sender != p.0 || *r != round - 1 {
                    self.inputs_ok = false;
                }
            }
            (me.0, round)
        }
    }

    #[test]
    fn lockstep_rounds_complete_and_see_all_correct_messages() {
        let xi = Xi::from_integer(2);
        let n = 4;
        let mut sim = Simulation::new(BandDelay::new(50, 99, 5));
        for _ in 0..n {
            sim.add_process(LockStep::new(n, 1, &xi, Recorder::new()));
        }
        sim.run(RunLimits {
            max_events: 8_000,
            max_time: u64::MAX,
        });
        let correct_mask: u128 = (1 << n) - 1;
        for p in 0..n {
            let ls = sim
                .process_as::<LockStep<Recorder>>(abc_core::ProcessId(p))
                .expect("concrete type");
            assert!(ls.report().rounds_started() >= 5, "p{p} too few rounds");
            assert!(
                ls.report().lockstep_holds(correct_mask),
                "p{p} missed a correct round message: {:?}",
                ls.report().snapshots
            );
            assert!(ls.app().inputs_ok, "p{p} saw wrong-round inputs");
            let rounds = &ls.app().rounds_seen;
            let expected: Vec<u64> = (1..=rounds.len() as u64).collect();
            assert_eq!(rounds, &expected, "p{p} rounds in order, none skipped");
        }
    }
}
