//! Execution graphs (Definition 1 of the paper).
//!
//! An execution graph `G_α` is the digraph corresponding to the space–time
//! diagram of an admissible execution `α` of a message-driven algorithm:
//! nodes are the *receive events* (each computing step is triggered by
//! exactly one message; a process's very first step is triggered by an
//! external wake-up), and edges reflect the happens-before relation without
//! its transitive closure — *non-local* edges (messages) and *local* edges
//! between consecutive events of the same process.
//!
//! # Faulty processes
//!
//! Following Section 2 of the paper, messages sent by Byzantine processes
//! are *exempt* from the ABC synchrony condition: the space–time diagram is
//! checked with those messages dropped. This module realizes the dropping as
//! an **edge restriction**: [`ExecutionGraph::is_effective`] is false for
//! messages sent by faulty processes (and for messages explicitly exempted
//! via [`ExecutionGraphBuilder::set_exempt`], the hook the paper mentions
//! for excluding "certain messages, say, of some specific type" — used by
//! the WTL-style restricted variants). Receive events of dropped messages
//! remain as nodes on their process line; since they contribute only local
//! edges, they cannot create additional cycles, so admissibility in the
//! sense of Definition 4 is unaffected.

use std::fmt;

/// Identifier of a process, dense in `0..num_processes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

/// Identifier of an event (node of the execution graph), dense in
/// `0..num_events`, in creation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub usize);

/// Identifier of a message (non-local edge), dense in `0..num_messages`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// What triggered an event's computing step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The external wake-up message that starts a process (its first event).
    Init,
    /// Reception of a message.
    Message(MessageId),
}

/// A node of the execution graph: one receive event and its zero-time
/// computing step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// This event's id.
    pub id: EventId,
    /// The process at which the event occurs.
    pub process: ProcessId,
    /// Position of the event on its process line (0 = the init event).
    pub index_at_process: usize,
    /// What triggered the event.
    pub trigger: Trigger,
}

/// A non-local edge of the execution graph: a message from the computing
/// step at `from` to the receive event `to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// This message's id.
    pub id: MessageId,
    /// Send event (the computing step that emitted the message).
    pub from: EventId,
    /// Receive event.
    pub to: EventId,
    /// Sender process (the process of `from`).
    pub sender: ProcessId,
    /// Receiver process (the process of `to`).
    pub receiver: ProcessId,
    /// Whether the message is exempt from the ABC synchrony condition
    /// (explicitly, or because its sender is faulty).
    pub exempt: bool,
}

/// A local edge between consecutive events `from → to` of one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LocalEdge {
    /// Earlier event.
    pub from: EventId,
    /// The immediately following event at the same process.
    pub to: EventId,
}

/// An immutable execution graph (Definition 1).
///
/// Build one with [`ExecutionGraph::builder`]:
///
/// ```
/// use abc_core::graph::{ExecutionGraph, ProcessId};
///
/// let mut b = ExecutionGraph::builder(2);
/// let p0 = b.init(ProcessId(0));
/// let p1 = b.init(ProcessId(1));
/// let (_m, recv) = b.send(p0, ProcessId(1)); // p0's init step sends to p1
/// let (_m2, _back) = b.send(recv, ProcessId(0)); // p1 replies
/// let g = b.finish();
/// assert_eq!(g.num_events(), 4);
/// assert_eq!(g.num_messages(), 2);
/// assert!(g.happens_before(p0, _back));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionGraph {
    events: Vec<Event>,
    messages: Vec<Message>,
    /// Events of each process in local order.
    process_events: Vec<Vec<EventId>>,
    faulty: Vec<bool>,
}

impl ExecutionGraph {
    /// Starts building an execution graph over `num_processes` processes.
    #[must_use]
    pub fn builder(num_processes: usize) -> ExecutionGraphBuilder {
        ExecutionGraphBuilder {
            graph: ExecutionGraph {
                events: Vec::new(),
                messages: Vec::new(),
                process_events: vec![Vec::new(); num_processes],
                faulty: vec![false; num_processes],
            },
        }
    }

    /// Number of processes (including those without events).
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.process_events.len()
    }

    /// Number of events (nodes).
    #[must_use]
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of messages (non-local edges), including exempt ones.
    #[must_use]
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// The event with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.0]
    }

    /// The message with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn message(&self, id: MessageId) -> &Message {
        &self.messages[id.0]
    }

    /// All events in creation order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// All messages in creation order.
    #[must_use]
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// The events of `p` in local (happens-before) order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn events_of(&self, p: ProcessId) -> &[EventId] {
        &self.process_events[p.0]
    }

    /// Whether process `p` is marked Byzantine faulty.
    #[must_use]
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty[p.0]
    }

    /// Iterator over the correct (non-faulty) processes.
    pub fn correct_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.num_processes())
            .map(ProcessId)
            .filter(|p| !self.is_faulty(*p))
    }

    /// Whether a message participates in the ABC synchrony condition:
    /// not explicitly exempt and not sent by a faulty process.
    #[must_use]
    pub fn is_effective(&self, m: MessageId) -> bool {
        let msg = &self.messages[m.0];
        !msg.exempt && !self.faulty[msg.sender.0]
    }

    /// Iterator over the effective (condition-relevant) messages.
    pub fn effective_messages(&self) -> impl Iterator<Item = &Message> + '_ {
        self.messages.iter().filter(|m| self.is_effective(m.id))
    }

    /// The local edges (consecutive event pairs of each process).
    pub fn local_edges(&self) -> impl Iterator<Item = LocalEdge> + '_ {
        self.process_events.iter().flat_map(|evs| {
            evs.windows(2).map(|w| LocalEdge {
                from: w[0],
                to: w[1],
            })
        })
    }

    /// The local predecessor of an event on its process line, if any.
    #[must_use]
    pub fn local_pred(&self, e: EventId) -> Option<EventId> {
        let ev = self.event(e);
        (ev.index_at_process > 0)
            .then(|| self.process_events[ev.process.0][ev.index_at_process - 1])
    }

    /// The local successor of an event on its process line, if any.
    #[must_use]
    pub fn local_succ(&self, e: EventId) -> Option<EventId> {
        let ev = self.event(e);
        self.process_events[ev.process.0]
            .get(ev.index_at_process + 1)
            .copied()
    }

    /// Direct causal predecessors of `e`: its local predecessor and the send
    /// event of its triggering message (if any).
    pub fn direct_preds(&self, e: EventId) -> impl Iterator<Item = EventId> + '_ {
        let local = self.local_pred(e);
        let trigger = match self.event(e).trigger {
            Trigger::Init => None,
            Trigger::Message(m) => Some(self.message(m).from),
        };
        local.into_iter().chain(trigger)
    }

    /// Tests `a ∗→ b` (reflexive-transitive happens-before).
    ///
    /// Runs a reverse BFS from `b`; use [`crate::cut::causal_past`] when many
    /// queries against the same target are needed.
    #[must_use]
    pub fn happens_before(&self, a: EventId, b: EventId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = vec![false; self.num_events()];
        let mut stack = vec![b];
        seen[b.0] = true;
        while let Some(cur) = stack.pop() {
            for pred in self.direct_preds(cur) {
                if pred == a {
                    return true;
                }
                if !seen[pred.0] {
                    seen[pred.0] = true;
                    stack.push(pred);
                }
            }
        }
        false
    }

    /// Events in topological (creation) order. The builder only ever appends
    /// events whose causes already exist, so creation order is topological.
    pub fn topological_order(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.num_events()).map(EventId)
    }

    /// Total number of shadow-graph edges (messages + local edges).
    #[must_use]
    pub fn num_shadow_edges(&self) -> usize {
        let locals: usize = self
            .process_events
            .iter()
            .map(|evs| evs.len().saturating_sub(1))
            .sum();
        self.num_messages() + locals
    }
}

/// Builder for [`ExecutionGraph`].
///
/// The builder enforces the message-driven discipline of the paper's system
/// model: each process's first event is its wake-up ([`init`]), every other
/// event is the receive event of exactly one message ([`send`]), and receive
/// order at a process equals the order in which `send` calls target it.
///
/// [`init`]: ExecutionGraphBuilder::init
/// [`send`]: ExecutionGraphBuilder::send
#[derive(Clone, Debug)]
pub struct ExecutionGraphBuilder {
    graph: ExecutionGraph,
}

impl ExecutionGraphBuilder {
    /// Adds the wake-up (initial) event of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` already has events.
    pub fn init(&mut self, p: ProcessId) -> EventId {
        assert!(
            self.graph.process_events[p.0].is_empty(),
            "{p} already initialized"
        );
        self.push_event(p, Trigger::Init)
    }

    /// Sends a message from the computing step at `from` to process `to`,
    /// appending the receive event at `to`.
    ///
    /// Returns the message id and the receive event id.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range or `to` has no init event yet (the
    /// paper assumes a process's very first step occurs before any message
    /// from another process is received).
    pub fn send(&mut self, from: EventId, to: ProcessId) -> (MessageId, EventId) {
        assert!(from.0 < self.graph.num_events(), "unknown send event");
        assert!(
            !self.graph.process_events[to.0].is_empty(),
            "{to} must be initialized before receiving"
        );
        let sender = self.graph.event(from).process;
        let mid = MessageId(self.graph.messages.len());
        let recv = self.push_event(to, Trigger::Message(mid));
        self.graph.messages.push(Message {
            id: mid,
            from,
            to: recv,
            sender,
            receiver: to,
            exempt: false,
        });
        (mid, recv)
    }

    /// Marks process `p` Byzantine faulty; all its messages become exempt
    /// from the synchrony condition.
    pub fn mark_faulty(&mut self, p: ProcessId) {
        self.graph.faulty[p.0] = true;
    }

    /// Exempts a single message from the synchrony condition (the paper's
    /// hook for restricted execution graphs, cf. Sections 2 and 6).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn set_exempt(&mut self, m: MessageId) {
        self.graph.messages[m.0].exempt = true;
    }

    /// Makes room for `events` more events and `messages` more messages,
    /// so a caller that knows the graph's size builds it without
    /// regrowing either table.
    pub fn reserve(&mut self, events: usize, messages: usize) {
        self.graph.events.reserve(events);
        self.graph.messages.reserve(messages);
    }

    /// Empties the builder for a new graph over `num_processes` processes,
    /// as [`ExecutionGraph::builder`] would start it, keeping the capacity
    /// of its tables and of every kept process's event list.
    pub fn clear(&mut self, num_processes: usize) {
        let ExecutionGraph {
            events,
            messages,
            process_events,
            faulty,
        } = &mut self.graph;
        events.clear();
        messages.clear();
        process_events.resize_with(num_processes, Vec::new);
        for list in process_events.iter_mut() {
            list.clear();
        }
        faulty.clear();
        faulty.resize(num_processes, false);
    }

    /// Number of events added so far.
    #[must_use]
    pub fn num_events(&self) -> usize {
        self.graph.num_events()
    }

    /// Read access to the graph under construction.
    #[must_use]
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// Finalizes the graph.
    #[must_use]
    pub fn finish(self) -> ExecutionGraph {
        self.graph
    }

    fn push_event(&mut self, p: ProcessId, trigger: Trigger) -> EventId {
        let id = EventId(self.graph.events.len());
        let index_at_process = self.graph.process_events[p.0].len();
        self.graph.events.push(Event {
            id,
            process: p,
            index_at_process,
            trigger,
        });
        self.graph.process_events[p.0].push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two processes, one round trip.
    fn round_trip() -> (ExecutionGraph, [EventId; 4]) {
        let mut b = ExecutionGraph::builder(2);
        let a = b.init(ProcessId(0));
        let c = b.init(ProcessId(1));
        let (_, r1) = b.send(a, ProcessId(1));
        let (_, r2) = b.send(r1, ProcessId(0));
        (b.finish(), [a, c, r1, r2])
    }

    #[test]
    fn builder_assigns_dense_ids_and_local_order() {
        let (g, [a, c, r1, r2]) = round_trip();
        assert_eq!(g.num_events(), 4);
        assert_eq!(g.num_messages(), 2);
        assert_eq!(g.events_of(ProcessId(0)), &[a, r2]);
        assert_eq!(g.events_of(ProcessId(1)), &[c, r1]);
        assert_eq!(g.event(r1).index_at_process, 1);
        assert_eq!(g.event(r1).trigger, Trigger::Message(MessageId(0)));
    }

    #[test]
    fn happens_before_follows_messages_and_local_edges() {
        let (g, [a, c, r1, r2]) = round_trip();
        assert!(g.happens_before(a, r1));
        assert!(g.happens_before(a, r2));
        assert!(g.happens_before(c, r1)); // local edge at p1
        assert!(g.happens_before(r1, r2));
        assert!(!g.happens_before(r1, a));
        assert!(!g.happens_before(r2, r1));
        assert!(g.happens_before(a, a)); // reflexive
        assert!(!g.happens_before(c, a)); // concurrent inits
    }

    #[test]
    fn local_edges_enumerate_consecutive_pairs() {
        let (g, [a, c, r1, r2]) = round_trip();
        let edges: Vec<LocalEdge> = g.local_edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&LocalEdge { from: a, to: r2 }));
        assert!(edges.contains(&LocalEdge { from: c, to: r1 }));
        assert_eq!(g.num_shadow_edges(), 4);
    }

    #[test]
    fn local_pred_succ() {
        let (g, [a, c, r1, r2]) = round_trip();
        assert_eq!(g.local_pred(r2), Some(a));
        assert_eq!(g.local_succ(a), Some(r2));
        assert_eq!(g.local_pred(a), None);
        assert_eq!(g.local_succ(r1), None);
        assert_eq!(g.local_pred(r1), Some(c));
    }

    #[test]
    fn faulty_sender_messages_are_dropped_from_condition() {
        let mut b = ExecutionGraph::builder(2);
        let a = b.init(ProcessId(0));
        let _c = b.init(ProcessId(1));
        let (m, _) = b.send(a, ProcessId(1));
        b.mark_faulty(ProcessId(0));
        let g = b.finish();
        assert!(!g.is_effective(m));
        assert_eq!(g.effective_messages().count(), 0);
        assert_eq!(
            g.correct_processes().collect::<Vec<_>>(),
            vec![ProcessId(1)]
        );
    }

    #[test]
    fn explicit_exemption() {
        let mut b = ExecutionGraph::builder(2);
        let a = b.init(ProcessId(0));
        let _ = b.init(ProcessId(1));
        let (m1, _) = b.send(a, ProcessId(1));
        let (m2, _) = b.send(a, ProcessId(1));
        b.set_exempt(m1);
        let g = b.finish();
        assert!(!g.is_effective(m1));
        assert!(g.is_effective(m2));
    }

    #[test]
    #[should_panic(expected = "already initialized")]
    fn double_init_panics() {
        let mut b = ExecutionGraph::builder(1);
        b.init(ProcessId(0));
        b.init(ProcessId(0));
    }

    #[test]
    #[should_panic(expected = "must be initialized")]
    fn send_to_uninitialized_panics() {
        let mut b = ExecutionGraph::builder(2);
        let a = b.init(ProcessId(0));
        b.send(a, ProcessId(1));
    }

    #[test]
    fn direct_preds_of_init_is_empty() {
        let (g, [a, _, r1, r2]) = round_trip();
        assert_eq!(g.direct_preds(a).count(), 0);
        // r2 has a local pred (a) and a message pred (r1).
        let preds: Vec<EventId> = g.direct_preds(r2).collect();
        assert!(preds.contains(&a) && preds.contains(&r1));
        let _ = r1;
    }

    #[test]
    fn self_messages_are_allowed() {
        // The clock-sync algorithm sends to itself; the receive event is a
        // later event on the same process line.
        let mut b = ExecutionGraph::builder(1);
        let a = b.init(ProcessId(0));
        let (_, r) = b.send(a, ProcessId(0));
        let g = b.finish();
        assert_eq!(g.events_of(ProcessId(0)), &[a, r]);
        assert!(g.happens_before(a, r));
    }
}
