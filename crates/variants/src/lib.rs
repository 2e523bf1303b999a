//! Weaker variants of the ABC model (Section 6 of the paper).
//!
//! The paper defines four variants in analogy to Dwork–Lynch–Stockmeyer:
//!
//! | Variant | `Ξ` known? | Holds from? | Here |
//! |---|---|---|---|
//! | ABC | yes | always | `abc-core`, `abc-clocksync` |
//! | ?ABC | **no** | always | [`XiEstimator`] (adaptive estimation) |
//! | ◇ABC | yes | eventually (after `C_GST`) | [`EventuallyBanded`] delays + post-GST analysis |
//! | ?◇ABC | no | eventually | [`DoublingLockStep`] (round doubling) |
//!
//! * [`XiEstimator`] implements the refinement the paper sketches: run the
//!   Fig. 3 detector with an estimate `Ξ̂`; when a message from a suspected
//!   process arrives after all, the estimate was too small — double it and
//!   rehabilitate. In a run whose true ratio bound is `Ξ*`, estimates
//!   converge (no revision can happen once `Ξ̂ ≥ Ξ*`), and from then on
//!   suspicions are sound.
//! * [`DoublingLockStep`] simulates *eventual* lock-step rounds: round `r`
//!   lasts `X₀·2^r` phases, so once `2^r·X₀ ≥ 2Ξ_true` (which eventually
//!   happens for any unknown, eventually-holding `Ξ`), every later round
//!   is lock-step — the ?◇ABC strategy of Widder & Schmid that the paper
//!   imports.
//! * [`restrict_to_core`] realizes the paper's restricted execution graphs
//!   (the WTL-flavored weakening): only messages among a designated core
//!   are subject to the synchrony condition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use abc_core::graph::ExecutionGraph;
use abc_core::{ProcessId, Xi};
use abc_sim::delay::{DelayModel, Delivery};
use abc_sim::{Context, Process};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------------
// ?ABC: adaptive Xi estimation.
// ---------------------------------------------------------------------------

/// Messages of the adaptive detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdMsg {
    /// Probe query.
    Query(u64),
    /// Reply to a probe.
    Reply(u64),
    /// Chain ping `(probe, hop)`.
    Ping(u64, u64),
    /// Chain pong `(probe, hop)`.
    Pong(u64, u64),
}

/// The ?ABC detector: like the Fig. 3 detector but with an adaptive
/// estimate `Ξ̂` that doubles whenever a "late" reply disproves it.
#[derive(Clone, Debug)]
pub struct XiEstimator {
    n: usize,
    /// Current chain threshold = `⌈2·Ξ̂⌉`.
    threshold: u64,
    probe: u64,
    hop: u64,
    replied: u128,
    suspected: u128,
    /// Number of upward revisions of the estimate.
    pub revisions: u64,
}

impl XiEstimator {
    /// Starts with the (probably too small) estimate `Ξ̂ = initial`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    #[must_use]
    pub fn new(n: usize, initial: &Xi) -> XiEstimator {
        assert!(n <= 128);
        XiEstimator {
            n,
            threshold: initial.two_xi_ceil().max(2),
            probe: 0,
            hop: 0,
            replied: 0,
            suspected: 0,
            revisions: 0,
        }
    }

    /// The current estimate expressed as the chain threshold `⌈2Ξ̂⌉`.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Whether `p` is currently suspected.
    #[must_use]
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        self.suspected & (1 << p.0) != 0
    }

    /// Number of currently suspected processes.
    #[must_use]
    pub fn suspected_count(&self) -> usize {
        self.suspected.count_ones() as usize
    }

    fn start_probe(&mut self, ctx: &mut Context<'_, AdMsg>) {
        self.replied = 1 << ctx.me().0;
        self.hop = 0;
        ctx.broadcast(AdMsg::Query(self.probe));
        ctx.broadcast(AdMsg::Ping(self.probe, 0));
    }
}

impl Process<AdMsg> for XiEstimator {
    fn on_init(&mut self, ctx: &mut Context<'_, AdMsg>) {
        self.start_probe(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AdMsg>, from: ProcessId, msg: &AdMsg) {
        match *msg {
            AdMsg::Query(p) => ctx.send(from, AdMsg::Reply(p)),
            AdMsg::Ping(p, h) => ctx.send(from, AdMsg::Pong(p, h)),
            AdMsg::Reply(p) => {
                if p == self.probe {
                    self.replied |= 1 << from.0;
                }
                if self.suspected & (1 << from.0) != 0 {
                    // A suspected process answered: our estimate was too
                    // small. Double it (threshold ~ 2Ξ̂) and rehabilitate.
                    self.suspected &= !(1 << from.0);
                    self.threshold = self.threshold.saturating_mul(2);
                    self.revisions += 1;
                }
            }
            AdMsg::Pong(p, h) => {
                if p == self.probe && h == self.hop {
                    self.hop += 1;
                    if 2 * self.hop >= self.threshold {
                        let all: u128 = (1 << self.n) - 1;
                        self.suspected |= all & !self.replied;
                        self.probe += 1;
                        self.start_probe(ctx);
                    } else {
                        ctx.broadcast(AdMsg::Ping(self.probe, self.hop));
                    }
                }
            }
        }
    }
}

/// A responder for [`XiEstimator`] probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdResponder;

impl Process<AdMsg> for AdResponder {
    fn on_init(&mut self, _ctx: &mut Context<'_, AdMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, AdMsg>, from: ProcessId, msg: &AdMsg) {
        match *msg {
            AdMsg::Query(p) => ctx.send(from, AdMsg::Reply(p)),
            AdMsg::Ping(p, h) => ctx.send(from, AdMsg::Pong(p, h)),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// ◇ABC: delays that only eventually satisfy a band.
// ---------------------------------------------------------------------------

/// A delay model for the ◇ABC variant: chaotic delays in `[1, chaos_hi]`
/// before the (unknown to the algorithms) global stabilization time, a
/// well-behaved band `[lo, hi]` afterwards.
#[derive(Clone, Debug)]
pub struct EventuallyBanded {
    gst: u64,
    chaos_hi: u64,
    lo: u64,
    hi: u64,
    rng: SmallRng,
}

impl EventuallyBanded {
    /// Chaos of magnitude `chaos_hi` before `gst`, band `[lo, hi]` after.
    ///
    /// # Panics
    ///
    /// Panics on an invalid band.
    #[must_use]
    pub fn new(gst: u64, chaos_hi: u64, lo: u64, hi: u64, seed: u64) -> EventuallyBanded {
        assert!(lo > 0 && lo <= hi && chaos_hi > 0);
        EventuallyBanded {
            gst,
            chaos_hi,
            lo,
            hi,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl DelayModel for EventuallyBanded {
    fn delivery(&mut self, _f: ProcessId, _t: ProcessId, send_time: u64, _q: u64) -> Delivery {
        if send_time < self.gst {
            Delivery::After(self.rng.random_range(1..=self.chaos_hi))
        } else {
            Delivery::After(self.rng.random_range(self.lo..=self.hi))
        }
    }
}

// ---------------------------------------------------------------------------
// ?◇ABC: eventual lock-step via round doubling.
// ---------------------------------------------------------------------------

/// Eventual lock-step rounds without knowing `Ξ`: round `r` spans
/// `X₀ · 2^r` ticks of the Algorithm 1 clock. Once the doubled round
/// length passes the (unknown) `2Ξ`, Lemma 4's causal-cone argument
/// applies to every later round boundary, so all later rounds are
/// lock-step. The report records, per round, whether all correct round
/// messages had arrived — experiments check the suffix property.
#[derive(Clone, Debug)]
pub struct DoublingLockStep {
    core: abc_clocksync::TickCore,
    x0: u64,
    me: Option<ProcessId>,
    /// Round message presence per round: `(round, senders_mask)`.
    pub snapshots: Vec<(u64, u128)>,
    round_msgs: BTreeMap<u64, u128>,
    current_round: u64,
}

/// Message for [`DoublingLockStep`]: a tick, optionally tagged as carrying
/// the sender's round-`r` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlsMsg {
    /// Tick value.
    pub k: u64,
    /// The round whose message this tick carries, if any.
    pub round: Option<u64>,
}

/// Round-`r` boundary tick for doubling rounds: `X₀·(2^r − 1)` (the sum of
/// all previous round lengths).
#[must_use]
pub fn doubling_boundary(x0: u64, r: u64) -> u64 {
    x0 * ((1u64 << r.min(40)) - 1)
}

impl DoublingLockStep {
    /// A doubling lock-step process with initial round length `x0` ticks.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 128`, `n ≥ 3f + 1`, and `x0 ≥ 1`.
    #[must_use]
    pub fn new(n: usize, f: usize, x0: u64) -> DoublingLockStep {
        assert!(x0 >= 1);
        DoublingLockStep {
            core: abc_clocksync::TickCore::new(n, f),
            x0,
            me: None,
            snapshots: Vec::new(),
            round_msgs: BTreeMap::new(),
            current_round: 0,
        }
    }

    /// Rounds completed so far.
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.current_round
    }

    /// Whether every round from `from_round` on saw all round messages
    /// from `correct_mask` (the eventual-lock-step suffix property).
    #[must_use]
    pub fn lockstep_suffix_holds(&self, from_round: u64, correct_mask: u128) -> bool {
        self.snapshots
            .iter()
            .filter(|(r, _)| *r >= from_round)
            .all(|(_, m)| m & correct_mask == correct_mask)
    }

    fn emit(&mut self, ticks: RangeInclusive<u64>, ctx: &mut Context<'_, DlsMsg>) {
        for t in ticks {
            // Is t a round boundary?
            let mut r = 0;
            let mut boundary = None;
            loop {
                let b = doubling_boundary(self.x0, r);
                if b == t {
                    boundary = Some(r);
                    break;
                }
                if b > t {
                    break;
                }
                r += 1;
            }
            if let Some(round) = boundary {
                if round > 0 {
                    let mask = self.round_msgs.get(&(round - 1)).copied().unwrap_or(0);
                    self.snapshots.push((round, mask));
                }
                self.current_round = self.current_round.max(round);
                ctx.broadcast(DlsMsg {
                    k: t,
                    round: Some(round),
                });
            } else {
                ctx.broadcast(DlsMsg { k: t, round: None });
            }
        }
    }
}

impl Process<DlsMsg> for DoublingLockStep {
    fn on_init(&mut self, ctx: &mut Context<'_, DlsMsg>) {
        self.me = Some(ctx.me());
        let ticks = self.core.on_init();
        self.emit(ticks, ctx);
        ctx.set_label(self.core.clock());
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DlsMsg>, from: ProcessId, msg: &DlsMsg) {
        if let Some(r) = msg.round {
            *self.round_msgs.entry(r).or_insert(0) |= 1 << from.0;
        }
        let ticks = self.core.on_tick(from, msg.k);
        self.emit(ticks, ctx);
        ctx.set_label(self.core.clock());
    }
}

// ---------------------------------------------------------------------------
// Restricted execution graphs (WTL-style weakening).
// ---------------------------------------------------------------------------

/// Rebuilds `g` with every message not exchanged *within* `core` exempted
/// from the ABC synchrony condition — the paper's restricted execution
/// graphs (Sections 2 and 6): only core-internal cycles are constrained.
#[must_use]
pub fn restrict_to_core(g: &ExecutionGraph, core: &[ProcessId]) -> ExecutionGraph {
    let mut b = ExecutionGraph::builder(g.num_processes());
    for e in g.events() {
        match e.trigger {
            abc_core::graph::Trigger::Init => {
                b.init(e.process);
            }
            abc_core::graph::Trigger::Message(m) => {
                let msg = g.message(m);
                let (mid, _) = b.send(msg.from, msg.receiver);
                if !(core.contains(&msg.sender) && core.contains(&msg.receiver)) {
                    b.set_exempt(mid);
                }
            }
        }
    }
    for p in 0..g.num_processes() {
        if g.is_faulty(ProcessId(p)) {
            b.mark_faulty(ProcessId(p));
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_core::check;
    use abc_sim::delay::BandDelay;
    use abc_sim::{CrashAt, RunLimits, Simulation};

    #[test]
    fn estimator_converges_and_stops_missuspecting() {
        // True band [10, 39]: ratio just under 4 (true threshold 8); the
        // estimator starts way too small at Xi-hat = 11/10.
        let mut sim = Simulation::new(BandDelay::new(10, 39, 11));
        sim.add_process(XiEstimator::new(4, &Xi::from_fraction(11, 10)));
        for _ in 1..4 {
            sim.add_process(AdResponder);
        }
        sim.run(RunLimits {
            max_events: 60_000,
            max_time: u64::MAX,
        });
        let est = sim.process_as::<XiEstimator>(ProcessId(0)).unwrap();
        assert!(est.revisions >= 1, "estimate must have been revised");
        assert!(est.threshold() >= 4, "threshold grew: {}", est.threshold());
        assert_eq!(
            est.suspected_count(),
            0,
            "after convergence no correct process stays suspected"
        );
    }

    #[test]
    fn estimator_still_detects_crashes() {
        let mut sim = Simulation::new(BandDelay::new(10, 19, 4));
        sim.add_process(XiEstimator::new(4, &Xi::from_integer(2)));
        sim.add_process(AdResponder);
        sim.add_process(AdResponder);
        sim.add_faulty_process(CrashAt::new(AdResponder, 0));
        sim.run(RunLimits {
            max_events: 30_000,
            max_time: u64::MAX,
        });
        let est = sim.process_as::<XiEstimator>(ProcessId(0)).unwrap();
        assert!(est.is_suspected(ProcessId(3)));
        assert!(!est.is_suspected(ProcessId(1)));
    }

    #[test]
    fn doubling_lockstep_eventually_synchronizes() {
        // Chaos until t = 2_000 (delays up to 400), then band [50, 99].
        let n = 4;
        let mut sim = Simulation::new(EventuallyBanded::new(2_000, 400, 50, 99, 3));
        for _ in 0..n {
            sim.add_process(DoublingLockStep::new(n, 1, 2));
        }
        sim.run(RunLimits {
            max_events: 120_000,
            max_time: u64::MAX,
        });
        let correct_mask: u128 = (1 << n) - 1;
        for p in 0..n {
            let d = sim.process_as::<DoublingLockStep>(ProcessId(p)).unwrap();
            let total = d.rounds_completed();
            assert!(total >= 6, "p{p} completed {total} rounds");
            // The last couple of rounds must be lock-step (rounds long
            // enough + delays stabilized).
            assert!(
                d.lockstep_suffix_holds(total.saturating_sub(1), correct_mask),
                "p{p} suffix violated: {:?}",
                d.snapshots
            );
        }
    }

    #[test]
    fn core_restriction_exempts_outside_messages() {
        // A violating two-chain graph, but the slow spanning message is
        // sent to a non-core process: restricted graph is admissible.
        let mut b = ExecutionGraph::builder(4);
        let q = b.init(ProcessId(0));
        for i in 1..4 {
            b.init(ProcessId(i));
        }
        let (_, r2) = b.send(q, ProcessId(2));
        let (_, r3) = b.send(r2, ProcessId(3));
        b.send(r3, ProcessId(1));
        b.send(q, ProcessId(1)); // slow spanning message: ratio 3
        let g = b.finish();
        let xi = Xi::from_integer(2);
        assert!(!check::is_admissible(&g, &xi).unwrap());
        // Restrict to a core excluding process 3: the chain hop through 3
        // leaves the core, breaking every constrained cycle.
        let core = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let restricted = restrict_to_core(&g, &core);
        assert!(check::is_admissible(&restricted, &xi).unwrap());
        // Restricting to the full set changes nothing.
        let full: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let same = restrict_to_core(&g, &full);
        assert!(!check::is_admissible(&same, &xi).unwrap());
    }

    #[test]
    fn doubling_boundaries() {
        assert_eq!(doubling_boundary(2, 0), 0);
        assert_eq!(doubling_boundary(2, 1), 2);
        assert_eq!(doubling_boundary(2, 2), 6);
        assert_eq!(doubling_boundary(2, 3), 14);
    }
}
