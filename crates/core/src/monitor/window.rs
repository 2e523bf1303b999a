//! Certified windows: a landing's passes over the top of the condemned
//! prefix, and the bound that proves the rest of it cannot win.
//!
//! A prune grows, per landing, a lex tree and an envelope over the
//! condemned prefix `[base, w)` (the `prune` module). On the bounded served
//! documents every landing and every exit tail lies within a few dozen
//! events of the cut, and so does every path those passes keep, yet a pass
//! over the whole prefix pays for all of it. So a landing's passes first
//! run over the **window** `[w − K, w)` only, its internal arcs indexed once
//! per prune and window size ([`Windows::slot`]): `K` starts at twice the
//! depth `w − v` of the deepest exit tail, doubled until it is at least
//! twice the landing's own depth, and doubles again whenever the window
//! cannot be **certified**, up to the whole prefix, which is the prune's
//! pass as it always was and needs no certificate.
//!
//! # The certificate
//!
//! A path that leaves the window goes down an arc out of it (a *descent*)
//! and comes back up an arc into it (a *climb*), and the last climb is
//! followed by a path inside the window to the exit tail `t`. Against a
//! feasible potential `φ` every arc's reduced cost `w(a) + φ(tail) −
//! φ(head)` is non-negative, so such a path `L ⇝ t` costs at least
//!
//! ```text
//! down(L) + up(t) + φ(t) − φ(L)
//! ```
//!
//! where `down(L)` is the least reduced cost of a window path from `L`
//! through a descent, and `up(t)` that of a climb and a window path on to
//! `t` — one pass from all descents backwards and one from all climbs
//! forwards give both for every landing and every tail of the window (a
//! FIFO label-correcting worklist over the window's arcs that carries
//! every bound below at once, re-scanning an event when any of them
//! falls; arcs between two events below the window only add non-negative
//! cost, and are left out). Two potentials give two bounds:
//!
//! * **The lex pass**, with the potentials at `Ξ` (first components): when
//!   every deep path to an exit tail costs strictly more in the first
//!   component than the window's own label there, no deep path ties an
//!   optimal one. A label-correcting pass sets a node's final label at the
//!   first visit that realizes an optimal path to it, and every optimal
//!   path to a node on an exit's predecessor chain extends to an optimal
//!   path to the exit, so it stays inside the window: the window's pass
//!   makes the same final relaxation on every node of every exit chain, at
//!   the same point of the same round (a window keeps the arcs' arena
//!   order), and leaves the same labels, predecessors and spelled paths.
//!   A shortcut's lex path need not be one of its envelope lines (a
//!   junction that reverses a message is left out of an envelope, not of
//!   a lex path), so this bound reads the lex weights themselves.
//! * **The envelope pass**, with the kept labels `κ` at the kept floor
//!   `r = B/F`, where the reduced costs are those of the cheapest line of
//!   each arc: a deep path's line at the exit head costs, at every probe
//!   ratio `x ≥ r`, at least `LB(x) = (down(L) + up(t) + κ(t) − κ(L) +
//!   w_r(exit))/F + (x − r)·(F_up(t) + f_exit)`, where `F_up(t)` is the
//!   least forward count of a climb and its window path to `t` (carried
//!   by the same pass), and `w_r(exit)`, `f_exit` are the exit arc's cheapest line at
//!   `r` and its least forward count. The exit is certified when the
//!   window's envelope at the exit head holds a line `ℓ = (f, b)` with
//!   `F·LB(r) > B·f − F·b` and `F_up(t) + f_exit ≥ f`: every deep line
//!   then lies strictly above `ℓ` on all of `[r, ∞)`, never wins, and the
//!   envelope of all paths is the envelope of the window's.
//!
//! An exit whose tail the window does not reach is certified only if no
//! descent from the landing or no climb to the tail exists. A window is
//! kept only when both bounds hold at every exit, and only when its
//! envelope pass refused no junction (`EnvelopeScratch::refused`): a
//! refusal reads which of equally good paths holds a line, the scan order
//! chooses that path, and a window scans in another order than the whole
//! prefix. So a kept window's exit line sets are the envelope of all
//! paths, which are the whole prefix's pass's wherever that pass refused
//! nothing either.

use std::collections::VecDeque;

use crate::traversal::{Arc, ArcKind};

use super::margin::{kept_weight, ArcLines, EnvelopeScratch};
use super::prune::{Cut, ShortcutTable};
use super::repair::{LexArcs, LexScratch};
use super::{narrow, weight_of, IncrementalChecker};

/// No path: the bound of an event no bound pass reaches, and the cost of
/// an arc the envelope pass cannot take (a shortcut without lines).
const FAR: i128 = i128::MAX;

/// What one arc costs the bound passes, in this order: its reduced kept
/// cost at the floor, its reduced lex cost (first component), and its
/// least forward count; [`FAR`] for the envelope's two when the arc has no
/// line. A bound on a set of paths holds the same three, each the least
/// over the set on its own.
type Costs = [i128; 3];

/// One window `[base, w)` of a prune's condemned prefix: its internal arcs,
/// indexed for the lex and envelope passes, and — unless it is the whole
/// prefix — the bounds on what a path that leaves it costs, per windowed
/// event.
#[derive(Clone, Debug, Default)]
pub(super) struct Window {
    /// The lowest event of the window (global id).
    pub(super) base: usize,
    pub(super) lex: LexArcs,
    /// From a climb to the event, and from the event through a descent.
    climb: Vec<Costs>,
    descent: Vec<Costs>,
}

/// The windows one prune has indexed, and the scratch their bounds are
/// computed in. Owned by the monitor and kept across prunes and
/// [`IncrementalChecker::reset`]: once the windows of a cut's size have
/// been built, a prune indexes and bounds its windows without allocating.
#[derive(Clone, Debug, Default)]
pub(super) struct Windows {
    /// The internal arcs of the current cut (both ends below it), in arena
    /// order; collected by `classify_cut`, none without exits.
    pub(super) internal: Vec<usize>,
    list: Vec<Window>,
    /// How many of `list` the current prune has built.
    built: usize,
    /// Per rank of the window being bounded, its arc's costs.
    costs: Vec<Costs>,
    /// The window's arcs by windowed head, as ranks (a CSR).
    in_start: Vec<usize>,
    in_rank: Vec<u32>,
    /// The climbs and the descents, by their windowed end.
    climbs: Vec<(usize, Costs)>,
    descents: Vec<(usize, Costs)>,
    /// A bound pass's worklist.
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Windows {
    /// What a reset keeps (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        // Exhaustive on purpose: a new buffer is counted or does not compile.
        let Windows {
            internal,
            list,
            built: _,
            costs,
            in_start,
            in_rank,
            climbs,
            descents,
            queue,
            queued,
        } = self;
        let windows = list
            .iter()
            .map(|w| w.lex.capacity() + w.climb.capacity() + w.descent.capacity());
        internal.capacity()
            + list.capacity()
            + windows.sum::<usize>()
            + costs.capacity()
            + in_start.capacity()
            + in_rank.capacity()
            + climbs.capacity()
            + descents.capacity()
            + queue.capacity()
            + queued.capacity()
    }

    /// Forgets the windows of the last prune, keeping their columns.
    pub(super) fn start_prune(&mut self) {
        self.built = 0;
    }

    /// Where this prune keeps the window of `cut` that starts at event
    /// `base` ([`Windows::window`]), indexed and bounded the first time the
    /// prune asks for it. `table` holds the shortcut paths the arcs'
    /// weights and lines read.
    pub(super) fn slot(
        &mut self,
        mon: &IncrementalChecker,
        cut: &Cut,
        table: &ShortcutTable,
        base: usize,
    ) -> usize {
        if let Some(at) = self.list[..self.built].iter().position(|w| w.base == base) {
            return at;
        }
        if self.built == self.list.len() {
            self.list.push(Window::default());
        }
        let at = self.built;
        self.built += 1;
        self.index(mon, cut, table, base, at);
        at
    }

    /// The window this prune keeps in slot `at`.
    pub(super) fn window(&self, at: usize) -> &Window {
        &self.list[at]
    }

    /// Indexes the arcs of `cut` with both ends at or above `base` into
    /// window `at`, and bounds it unless it is the whole prefix: one scan
    /// of the internal arcs indexes the window's, and prices them and the
    /// climbs and descents for the bound passes.
    fn index(
        &mut self,
        mon: &IncrementalChecker,
        cut: &Cut,
        table: &ShortcutTable,
        base: usize,
        at: usize,
    ) {
        let Windows {
            internal,
            list,
            costs,
            climbs,
            descents,
            ..
        } = self;
        let arcs = mon.tg.arcs();
        let win = &mut list[at];
        win.base = base;
        let bounded = base > cut.base;
        let cost = |a: Arc| mon.bound_costs(a, table, cut.floor);
        costs.clear();
        climbs.clear();
        descents.clear();
        let inside = internal.iter().filter_map(|&ai| {
            let a = arcs[ai];
            match (a.from >= base, a.to >= base) {
                (true, true) => {
                    if bounded {
                        costs.push(cost(a));
                    }
                    return Some((ai, a, weight_of(a.kind, mon.p, mon.q, table)));
                }
                (false, true) if bounded => climbs.push((a.to - base, cost(a))),
                (true, false) if bounded => descents.push((a.from - base, cost(a))),
                _ => {}
            }
            None
        });
        win.lex.index(cut.w - base, base, inside, ArcLines::of);
        if bounded {
            self.bound(cut, at);
        }
    }

    /// The bound passes of window `at`, its arcs, climbs and descents
    /// priced (module docs): from every climb forwards, from every descent
    /// backwards.
    fn bound(&mut self, cut: &Cut, at: usize) {
        let Windows {
            list,
            costs,
            in_start,
            in_rank,
            climbs,
            descents,
            queue,
            queued,
            ..
        } = self;
        let win = &mut list[at];
        let width = cut.w - win.base;
        // The window's arcs by head, as the out-CSR holds them by tail
        // (self-loops left out: they add non-negative cost).
        in_start.clear();
        in_start.resize(width + 1, 0);
        let ranks = win.lex.arena.len();
        for r in 0..ranks {
            let (tail, head) = win.lex.ends(r);
            if tail != head {
                in_start[head] += 1;
            }
        }
        for v in 1..=width {
            in_start[v] += in_start[v - 1];
        }
        in_rank.clear();
        in_rank.resize(in_start[width], 0);
        for r in 0..ranks {
            let (tail, head) = win.lex.ends(r);
            if tail != head {
                in_start[head] -= 1;
                in_rank[in_start[head]] = narrow(r);
            }
        }
        let Window {
            lex,
            climb,
            descent,
            ..
        } = win;
        let forwards = |v: usize| {
            lex.out(v)
                .iter()
                .map(|o| (o.rank as usize, o.head as usize))
        };
        let backwards = |v: usize| {
            let ranks = &in_rank[in_start[v]..in_start[v + 1]];
            ranks.iter().map(|&r| (r as usize, lex.ends(r as usize).0))
        };
        let mut pass = Pass {
            queue,
            queued,
            costs,
        };
        pass.spread(climb, width, climbs, forwards);
        pass.spread(descent, width, descents, backwards);
    }
}

/// A bound pass's worklist and the costs of the window's arcs by rank.
struct Pass<'a> {
    queue: &'a mut VecDeque<usize>,
    queued: &'a mut Vec<bool>,
    costs: &'a [Costs],
}

impl Pass<'_> {
    /// Least costs from `sources` (`(windowed event, the first arc's
    /// costs)`) into `bounds`, over the arcs `next(v)` yields as `(rank,
    /// other end)`, each of the three on its own: a FIFO label-correcting
    /// worklist, which settles because no cost is negative. A cost of
    /// [`FAR`] takes no path on.
    fn spread<I>(
        &mut self,
        bounds: &mut Vec<Costs>,
        width: usize,
        sources: &[(usize, Costs)],
        next: impl Fn(usize) -> I,
    ) where
        I: Iterator<Item = (usize, usize)>,
    {
        bounds.clear();
        bounds.resize(width, [FAR; 3]);
        self.queued.clear();
        self.queued.resize(width, false);
        self.queue.clear();
        for &(v, cost) in sources {
            if self.lower(&mut bounds[v], &[0; 3], &cost) && !self.queued[v] {
                self.queued[v] = true;
                self.queue.push_back(v);
            }
        }
        while let Some(v) = self.queue.pop_front() {
            self.queued[v] = false;
            let from = bounds[v];
            for (rank, to) in next(v) {
                if self.lower(&mut bounds[to], &from, &self.costs[rank]) && !self.queued[to] {
                    self.queued[to] = true;
                    self.queue.push_back(to);
                }
            }
        }
    }

    /// Lowers `bound` to `from + cost` wherever both are finite and that is
    /// less; whether anything fell. Saturating: a bound too large to tell
    /// is no lower.
    #[inline]
    fn lower(&self, bound: &mut Costs, from: &Costs, cost: &Costs) -> bool {
        let mut fell = false;
        for ((b, &f), &c) in bound.iter_mut().zip(from).zip(cost) {
            if f != FAR && c != FAR {
                let reached = f.saturating_add(c);
                if reached < *b {
                    *b = reached;
                    fell = true;
                }
            }
        }
        fell
    }
}

impl Window {
    /// The window's width, in events.
    pub(super) fn width(&self, cut: &Cut) -> usize {
        cut.w - self.base
    }

    /// Whether the passes `lex` and `sc` just ran from `start` over this
    /// window are those over the whole prefix of `cut` (module docs): the
    /// envelope pass refused no junction, and at every exit no path that
    /// leaves the window can tie the lex label of its tail or win a line
    /// of its head's envelope.
    pub(super) fn certifies(
        &self,
        mon: &IncrementalChecker,
        cut: &Cut,
        table: &ShortcutTable,
        start: usize,
        lex: &LexScratch,
        sc: &EnvelopeScratch,
    ) -> bool {
        debug_assert!(
            self.base > cut.base,
            "the whole prefix needs no certificate"
        );
        if sc.refused > 0 {
            return false;
        }
        let arcs = mon.tg.arcs();
        let own = mon.tg.base();
        let (b, f) = cut.floor;
        let l = start - self.base;
        // Is there a path through a descent from the landing and a climb
        // to the tail at all?
        let deep = |down: i128, up: i128| down != FAR && up != FAR;
        for (j, &e) in cut.exits.iter().enumerate() {
            let exit = arcs[e];
            let t = exit.from - self.base;
            let ([down, down_lex, _], [up, up_lex, up_forward]) = (self.descent[l], self.climb[t]);
            if deep(down_lex, up_lex) {
                let shift = mon.pot[exit.from - own].0 - mon.pot[start - own].0;
                let bound = down_lex
                    .checked_add(up_lex)
                    .and_then(|s| s.checked_add(shift));
                match (bound, lex.dist[t]) {
                    (Some(bound), Some(label)) if bound > label.0 => {}
                    _ => return false,
                }
            }
            let Some(exit_weight) = kept_weight(exit.kind, cut.floor, table) else {
                // An exit without lines gives its head none, either way.
                continue;
            };
            if deep(down, up) {
                let shift = mon.kept.pot[exit.from - own] - mon.kept.pot[start - own] + exit_weight;
                let Some(bound) = down.checked_add(up).and_then(|s| s.checked_add(shift)) else {
                    return false;
                };
                let slope = up_forward.saturating_add(forward_count(exit.kind, table));
                let head = self.width(cut) + j;
                if !sc.lines(head).any(|(lf, lb)| {
                    let at_floor = b * lf - f * lb;
                    (bound > at_floor && slope >= lf) || (bound >= at_floor && slope > lf)
                }) {
                    return false;
                }
            }
        }
        true
    }
}

/// The least forward count of an arc's lines: a plain arc's own, the
/// least over a shortcut's envelope ([`FAR`] without lines).
fn forward_count(kind: ArcKind, table: &ShortcutTable) -> i128 {
    match kind.counts() {
        Ok((f, _)) => f,
        Err(id) => table.sigs(id).iter().map(|s| s.f).min().unwrap_or(FAR),
    }
}

impl IncrementalChecker {
    /// What arc `a` of the condemned prefix costs the bound passes of a
    /// window ([`Costs`]), against the kept labels at the floor and the
    /// potentials at `Ξ`, both feasible while the verdict is open.
    fn bound_costs(&self, a: Arc, table: &ShortcutTable, floor: (i128, i128)) -> Costs {
        let own = self.tg.base();
        let (tail, head) = (a.from - own, a.to - own);
        let kept = kept_weight(a.kind, floor, table)
            .map_or(FAR, |w| w + self.kept.pot[tail] - self.kept.pot[head]);
        let lex = weight_of(a.kind, self.p, self.q, table).0 + self.pot[tail].0 - self.pot[head].0;
        debug_assert!(kept >= 0 && lex >= 0, "feasible labels leave no arc tense");
        [kept, lex, forward_count(a.kind, table)]
    }
}
