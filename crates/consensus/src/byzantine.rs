//! Transport-level Byzantine adversaries for lock-step consensus.
//!
//! [`EquivocatingLockStep`] keeps the tick machinery of Algorithm 1
//! perfectly honest (so the round structure survives) but sends
//! *different* round payloads to different destinations — the strongest
//! payload-level attack EIG must survive. Tick-level misbehavior is
//! exercised separately in `abc-clocksync`'s adversaries; composing both
//! does not strengthen the adversary against EIG, whose resilience is
//! defined relative to delivered round messages.

use std::ops::RangeInclusive;

use abc_clocksync::{TickCore, TickMsg};
use abc_core::ProcessId;
use abc_sim::{Context, Process};

/// Byzantine lock-step participant: correct ticks, equivocating payloads.
///
/// At every round boundary `r` it sends value `lie(destination, r)` to
/// each destination instead of an honest round message.
#[derive(Clone, Debug)]
pub struct EquivocatingLockStep {
    core: TickCore,
    phases_per_round: u64,
}

impl EquivocatingLockStep {
    /// A Byzantine participant for `n` processes (`f` fault budget; used
    /// only for the tick rules) and round length `⌈2Ξ⌉` phases.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 128` and `n ≥ 3f + 1`.
    #[must_use]
    pub fn new(n: usize, f: usize, xi: &abc_core::Xi) -> EquivocatingLockStep {
        EquivocatingLockStep {
            core: TickCore::new(n, f),
            phases_per_round: xi.two_xi_ceil().max(1),
        }
    }

    fn send_ticks<P: Clone + std::fmt::Debug + LieValue + 'static>(
        &mut self,
        ticks: RangeInclusive<u64>,
        ctx: &mut Context<'_, TickMsg<P>>,
    ) {
        let n = ctx.num_processes();
        for t in ticks {
            if t % self.phases_per_round == 0 {
                let r = t / self.phases_per_round;
                for dest in 0..n {
                    let payload = P::lie(dest, r);
                    ctx.send(
                        ProcessId(dest),
                        TickMsg {
                            k: t,
                            payload: Some(payload),
                        },
                    );
                }
            } else {
                ctx.broadcast(TickMsg {
                    k: t,
                    payload: None,
                });
            }
        }
    }
}

/// Payload types that can fabricate destination-dependent lies.
pub trait LieValue {
    /// A fabricated payload for the given destination and round.
    fn lie(destination: usize, round: u64) -> Self;
}

impl LieValue for Vec<u64> {
    fn lie(destination: usize, round: u64) -> Vec<u64> {
        vec![destination as u64 * 1_000 + round]
    }
}

impl LieValue for Vec<(Vec<u8>, u64)> {
    fn lie(destination: usize, round: u64) -> Vec<(Vec<u8>, u64)> {
        // Claim a different root value per destination, plus garbage relays.
        vec![(Vec::new(), destination as u64 % 2), (vec![0], round % 2)]
    }
}

impl<P: Clone + std::fmt::Debug + LieValue + 'static> Process<TickMsg<P>> for EquivocatingLockStep {
    fn on_init(&mut self, ctx: &mut Context<'_, TickMsg<P>>) {
        let ticks = self.core.on_init();
        self.send_ticks(ticks, ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, TickMsg<P>>, from: ProcessId, msg: &TickMsg<P>) {
        let ticks = self.core.on_tick(from, msg.k);
        self.send_ticks(ticks, ctx);
    }
}
