//! Declarative scenario specifications: what to simulate, under which
//! delay adversary (with parameter ranges), with which fault plan, and how
//! many seeded repetitions.

use std::fmt;
use std::str::FromStr;

use abc_core::Xi;
use abc_sim::delay::{AdversarialSpan, BandDelay, DelayModel, FixedDelay, GrowingDelay, Lossy};
use abc_sim::RunLimits;

/// An inclusive arithmetic progression over `u64`: one sweep axis.
///
/// `Grid::fixed(v)` is the degenerate single-point axis. The CLI syntax is
/// `v` for a fixed value and `from..to..step` for a progression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// First value.
    pub from: u64,
    /// Inclusive upper bound (the last point is the largest
    /// `from + k*step <= to`).
    pub to: u64,
    /// Step between points (> 0 unless the grid is a single point).
    pub step: u64,
}

impl Grid {
    /// A single-point axis.
    #[must_use]
    pub fn fixed(v: u64) -> Grid {
        Grid {
            from: v,
            to: v,
            step: 1,
        }
    }

    /// An inclusive progression `from, from+step, …, <= to`.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0` or `from > to`.
    #[must_use]
    pub fn range(from: u64, to: u64, step: u64) -> Grid {
        assert!(step > 0, "grid step must be positive");
        assert!(from <= to, "grid bounds inverted");
        Grid { from, to, step }
    }

    /// The axis points, in order.
    #[must_use]
    pub fn points(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut v = self.from;
        while v <= self.to {
            out.push(v);
            match v.checked_add(self.step) {
                Some(next) => v = next,
                None => break,
            }
        }
        out
    }
}

impl FromStr for Grid {
    type Err = String;

    fn from_str(s: &str) -> Result<Grid, String> {
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{v:?}: {e}"));
        match s.split("..").collect::<Vec<_>>().as_slice() {
            [v] => Ok(Grid::fixed(num(v)?)),
            [from, to, step] => {
                let (from, to, step) = (num(from)?, num(to)?, num(step)?);
                if step == 0 || from > to {
                    return Err(format!("invalid grid {s:?}: need from <= to and step > 0"));
                }
                Ok(Grid { from, to, step })
            }
            _ => Err(format!(
                "invalid grid {s:?}: expected `v` or `from..to..step`"
            )),
        }
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.from == self.to {
            write!(f, "{}", self.from)
        } else {
            write!(f, "{}..{}..{}", self.from, self.to, self.step)
        }
    }
}

/// A delay-model family with swept parameter axes (the paper's Section 2
/// adversary, parameterized). The cartesian product of the axes yields the
/// grid points of the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelaySweep {
    /// Every message takes exactly `d`.
    Fixed {
        /// Delay axis.
        d: Grid,
    },
    /// Uniform delays in `[lo, hi]` (points with `lo > hi` are skipped).
    Band {
        /// Lower-bound axis.
        lo: Grid,
        /// Upper-bound axis.
        hi: Grid,
    },
    /// [`GrowingDelay`]: band `[lo, hi]` scaled by `1 + t/tau`.
    Growing {
        /// Lower-bound axis.
        lo: Grid,
        /// Upper-bound axis.
        hi: Grid,
        /// Doubling-timescale axis.
        tau: Grid,
    },
    /// [`AdversarialSpan`]: victim links at `hi`, everything else at `lo`.
    Span {
        /// Fast-path delay axis.
        lo: Grid,
        /// Victim delay axis.
        hi: Grid,
        /// The victimized process.
        victim: usize,
    },
}

/// One concrete delay-model instantiation (a grid point of a
/// [`DelaySweep`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayPoint {
    /// Fixed delay `d`.
    Fixed {
        /// The delay.
        d: u64,
    },
    /// Uniform band `[lo, hi]`.
    Band {
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
    /// Growing band `[lo, hi]`, timescale `tau`.
    Growing {
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
        /// Doubling timescale.
        tau: u64,
    },
    /// Victimized process at `hi`, rest at `lo`.
    Span {
        /// Fast delay.
        lo: u64,
        /// Victim delay.
        hi: u64,
        /// Victim process index.
        victim: usize,
    },
}

impl DelaySweep {
    /// Expands the swept axes into concrete grid points (skipping empty
    /// bands where an axis combination yields `lo > hi`).
    #[must_use]
    pub fn points(&self) -> Vec<DelayPoint> {
        let mut out = Vec::new();
        match self {
            DelaySweep::Fixed { d } => {
                for d in d.points() {
                    out.push(DelayPoint::Fixed { d });
                }
            }
            DelaySweep::Band { lo, hi } => {
                for lo in lo.points() {
                    for hi in hi.points() {
                        if lo > 0 && lo <= hi {
                            out.push(DelayPoint::Band { lo, hi });
                        }
                    }
                }
            }
            DelaySweep::Growing { lo, hi, tau } => {
                for lo in lo.points() {
                    for hi in hi.points() {
                        for tau in tau.points() {
                            if lo > 0 && lo <= hi && tau > 0 {
                                out.push(DelayPoint::Growing { lo, hi, tau });
                            }
                        }
                    }
                }
            }
            DelaySweep::Span { lo, hi, victim } => {
                for lo in lo.points() {
                    for hi in hi.points() {
                        if lo > 0 && lo <= hi {
                            out.push(DelayPoint::Span {
                                lo,
                                hi,
                                victim: *victim,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

impl FromStr for DelaySweep {
    type Err = String;

    /// CLI syntax: `fixed:D`, `band:LO:HI`, `growing:LO:HI:TAU`,
    /// `span:LO:HI:VICTIM`; every numeric field is a [`Grid`]
    /// (`v` or `from..to..step`).
    fn from_str(s: &str) -> Result<DelaySweep, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let grid = |v: &str| v.parse::<Grid>();
        match parts.as_slice() {
            ["fixed", d] => Ok(DelaySweep::Fixed { d: grid(d)? }),
            ["band", lo, hi] => Ok(DelaySweep::Band {
                lo: grid(lo)?,
                hi: grid(hi)?,
            }),
            ["growing", lo, hi, tau] => Ok(DelaySweep::Growing {
                lo: grid(lo)?,
                hi: grid(hi)?,
                tau: grid(tau)?,
            }),
            ["span", lo, hi, victim] => Ok(DelaySweep::Span {
                lo: grid(lo)?,
                hi: grid(hi)?,
                victim: victim.parse().map_err(|e| format!("victim: {e}"))?,
            }),
            _ => Err(format!(
                "invalid delay spec {s:?}: expected fixed:D | band:LO:HI | \
                 growing:LO:HI:TAU | span:LO:HI:VICTIM"
            )),
        }
    }
}

impl fmt::Display for DelayPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayPoint::Fixed { d } => write!(f, "fixed[{d}]"),
            DelayPoint::Band { lo, hi } => write!(f, "band[{lo},{hi}]"),
            DelayPoint::Growing { lo, hi, tau } => write!(f, "growing[{lo},{hi}]/tau={tau}"),
            DelayPoint::Span { lo, hi, victim } => write!(f, "span[{lo},{hi}]->p{victim}"),
        }
    }
}

/// A delay model built from a [`DelayPoint`]: boxed behind the sim's
/// blanket `impl DelayModel for Box<D>`, so every sweep worker drives the
/// same `Simulation<u64, Lossy<BuiltDelay>>` type regardless of family,
/// and the box is constructed inside the worker thread (`Send`).
pub type BuiltDelay = Box<dyn DelayModel + Send>;

impl DelayPoint {
    /// Builds the concrete (seeded) delay model for one run, wrapped in a
    /// [`Lossy`] shell carrying the fault plan's dropped links.
    #[must_use]
    pub fn build(&self, seed: u64, dropped_links: &[(usize, usize)]) -> Lossy<BuiltDelay> {
        let inner: BuiltDelay = match *self {
            DelayPoint::Fixed { d } => Box::new(FixedDelay::new(d)),
            DelayPoint::Band { lo, hi } => Box::new(BandDelay::new(lo, hi, seed)),
            DelayPoint::Growing { lo, hi, tau } => Box::new(GrowingDelay::new(lo, hi, tau, seed)),
            DelayPoint::Span { lo, hi, victim } => {
                Box::new(AdversarialSpan::new(lo, hi, abc_core::ProcessId(victim)))
            }
        };
        let mut lossy = Lossy::new(inner);
        for (from, to) in dropped_links {
            lossy.drop_link(abc_core::ProcessId(*from), abc_core::ProcessId(*to));
        }
        lossy
    }
}

/// Which algorithm runs at the (correct) process slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's Algorithm 1 ([`abc_clocksync::TickGen`]): `n` processes
    /// configured for fault budget `f`; Byzantine fault-plan slots run
    /// [`abc_clocksync::byzantine::TickRusher`].
    ClockSync {
        /// System size.
        n: usize,
        /// Fault budget (`n >= 3f + 1`).
        f: usize,
    },
    /// All-to-all gossip: broadcast at wake-up, echo `m + 1` to each sender
    /// until a per-process reply budget is spent. Byzantine fault-plan
    /// slots run mute.
    Gossip {
        /// System size.
        n: usize,
        /// Per-process reply budget.
        budget: u32,
    },
}

impl Protocol {
    /// Number of process slots.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        match self {
            Protocol::ClockSync { n, .. } | Protocol::Gossip { n, .. } => *n,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::ClockSync { n, f: fb } => write!(f, "clocksync(n={n},f={fb})"),
            Protocol::Gossip { n, budget } => write!(f, "gossip(n={n},budget={budget})"),
        }
    }
}

/// The fault plan applied to every run: crash faults, Byzantine slots, and
/// dropped directed links.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(slot, steps)`: the process at `slot` crashes after `steps`
    /// completed steps (it keeps receiving, per the paper's receive/process
    /// split). Crash-faulty slots count against the faulty set.
    pub crash: Vec<(usize, usize)>,
    /// Slots occupied by Byzantine adversaries.
    pub byzantine: Vec<usize>,
    /// Directed links on which every message is dropped.
    pub dropped_links: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// No faults at all.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Validates slot indices against the protocol size.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the out-of-range entry.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for (slot, _) in &self.crash {
            if *slot >= n {
                return Err(format!("crash slot {slot} out of range (n = {n})"));
            }
        }
        for slot in &self.byzantine {
            if *slot >= n {
                return Err(format!("byzantine slot {slot} out of range (n = {n})"));
            }
            if self.crash.iter().any(|(s, _)| s == slot) {
                return Err(format!("slot {slot} is both crash and Byzantine"));
            }
        }
        for (from, to) in &self.dropped_links {
            if *from >= n || *to >= n {
                return Err(format!("dropped link {from}->{to} out of range (n = {n})"));
            }
        }
        Ok(())
    }
}

/// A complete scenario sweep: protocol, swept delay adversary, fault plan,
/// run limits, the `Ξ` to monitor against, and the seeded repetition count.
///
/// The sweep executes `delay.points().len() * runs_per_point` independent
/// simulations; run `i` draws its randomness from splitmix64 stream `i` of
/// `base_seed` (`SmallRng::seed_stream`), so results are identical at any
/// worker-thread count.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Display name (reports echo it).
    pub name: String,
    /// The protocol under test.
    pub protocol: Protocol,
    /// The swept delay adversary.
    pub delay: DelaySweep,
    /// Faults applied to every run.
    pub faults: FaultPlan,
    /// Per-run budgets.
    pub limits: RunLimits,
    /// The synchrony parameter each run is monitored against.
    pub xi: Xi,
    /// Seeded repetitions per grid point.
    pub runs_per_point: usize,
    /// Master seed for stream-splitting.
    pub base_seed: u64,
}

impl ScenarioSpec {
    /// Total number of runs (`grid points × runs per point`).
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.delay.points().len() * self.runs_per_point
    }

    /// Builds a spec from a named clock-sync preset
    /// ([`abc_clocksync::presets`]).
    #[must_use]
    pub fn from_preset(
        preset: &abc_clocksync::presets::Preset,
        runs_per_point: usize,
        base_seed: u64,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: preset.name.to_string(),
            protocol: Protocol::ClockSync {
                n: preset.n,
                f: preset.f,
            },
            delay: DelaySweep::Band {
                lo: Grid::fixed(preset.lo),
                hi: Grid::fixed(preset.hi),
            },
            faults: FaultPlan {
                crash: Vec::new(),
                byzantine: preset.byzantine.to_vec(),
                dropped_links: Vec::new(),
            },
            limits: RunLimits {
                max_events: 2_000,
                max_time: u64::MAX,
            },
            xi: preset.xi(),
            runs_per_point,
            base_seed,
        }
    }

    /// Validates the spec (fault plan vs. system size, non-empty grid).
    ///
    /// # Errors
    ///
    /// A human-readable message describing the problem.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.protocol.num_processes();
        if n == 0 {
            return Err("protocol has zero processes".into());
        }
        self.faults.validate(n)?;
        if let Protocol::ClockSync { n, f } = self.protocol {
            if n < 3 * f + 1 {
                return Err(format!("clocksync needs n >= 3f+1, got n={n}, f={f}"));
            }
        }
        if self.delay.points().is_empty() {
            return Err("delay sweep has no grid points".into());
        }
        if let DelaySweep::Span { victim, .. } = self.delay {
            if victim >= n {
                return Err(format!("span victim {victim} out of range (n = {n})"));
            }
        }
        if self.runs_per_point == 0 {
            return Err("runs_per_point must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_and_parsing() {
        assert_eq!(Grid::fixed(5).points(), vec![5]);
        assert_eq!(Grid::range(2, 9, 3).points(), vec![2, 5, 8]);
        assert_eq!("7".parse::<Grid>().unwrap(), Grid::fixed(7));
        assert_eq!("1..9..4".parse::<Grid>().unwrap(), Grid::range(1, 9, 4));
        assert!("1..0..2".parse::<Grid>().is_err());
        assert!("x".parse::<Grid>().is_err());
        assert_eq!(Grid::range(2, 9, 3).to_string(), "2..9..3");
    }

    #[test]
    fn delay_sweep_expands_cartesian_grids() {
        let sweep: DelaySweep = "band:1..3..1:4".parse().unwrap();
        assert_eq!(sweep.points().len(), 3);
        let sweep: DelaySweep = "growing:10:19:50..150..50".parse().unwrap();
        let pts = sweep.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].to_string(), "growing[10,19]/tau=50");
        // lo > hi combinations are skipped, not errors.
        let sweep: DelaySweep = "band:1..10..4:5".parse().unwrap();
        assert_eq!(sweep.points().len(), 2); // lo = 1, 5; lo = 9 skipped
        assert!("pigeon:1".parse::<DelaySweep>().is_err());
    }

    #[test]
    fn spec_validation_catches_mistakes() {
        let mut spec = ScenarioSpec {
            name: "t".into(),
            protocol: Protocol::ClockSync { n: 4, f: 1 },
            delay: "band:10:19".parse().unwrap(),
            faults: FaultPlan::none(),
            limits: RunLimits::default(),
            xi: Xi::from_integer(2),
            runs_per_point: 8,
            base_seed: 1,
        };
        assert!(spec.validate().is_ok());
        assert_eq!(spec.total_runs(), 8);
        spec.faults.byzantine = vec![9];
        assert!(spec.validate().is_err());
        spec.faults.byzantine = vec![1];
        spec.faults.crash = vec![(1, 3)];
        assert!(spec.validate().is_err(), "slot both crash and Byzantine");
        spec.faults = FaultPlan::none();
        spec.protocol = Protocol::ClockSync { n: 3, f: 1 };
        assert!(spec.validate().is_err(), "n < 3f+1");
    }

    #[test]
    fn presets_convert_to_specs() {
        let preset = abc_clocksync::presets::by_name("septet-byz").unwrap();
        let spec = ScenarioSpec::from_preset(preset, 4, 7);
        spec.validate().unwrap();
        assert_eq!(spec.protocol.num_processes(), 7);
        assert_eq!(spec.faults.byzantine, vec![5, 6]);
        assert_eq!(spec.total_runs(), 4);
    }
}
