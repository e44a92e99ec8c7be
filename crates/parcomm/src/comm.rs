//! The per-node handle: point-to-point messaging, the recursive-doubling
//! primitives the collectives run on, and the world communicator.
//!
//! The world is the [`Group`] of all ranks ([`NodeCtx::world`]). Every
//! collective has one body, in [`crate::group`]; the world methods here
//! (`allreduce_sum`, `barrier`, `bcast`, …) are one-line delegations that
//! fix the world's accounting phases. All handles to the world
//! draw from this node's one collective sequence counter.

use std::collections::HashMap;
use std::sync::Arc;

#[cfg(feature = "audit")]
use crate::audit;
use crate::fault::{FailAt, FaultOracle};
use crate::group::Group;
use crate::mailbox::{Mailbox, Outbox};
use crate::payload::{Message, Payload};
use crate::rendezvous::{RdCall, RdPlan};
use crate::request::{AllreduceRequest, RecvRequest, SendRequest};
use crate::stats::{CommPhase, CommStats};
use crate::tag::Tag;
use crate::vclock::VClock;

/// Element-wise reduction operators over `f64` buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    pub(crate) fn combine(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += *b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    if *b > *a {
                        *a = *b;
                    }
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    if *b < *a {
                        *a = *b;
                    }
                }
            }
        }
    }
}

/// A node's view of the cluster: rank, mailbox, peers, clock, statistics,
/// and the failure oracle. Exactly one `NodeCtx` exists per node thread.
pub struct NodeCtx {
    rank: usize,
    /// The world's members, `0..N`: one list shared by every node.
    world: Arc<[usize]>,
    mailbox: Mailbox,
    outboxes: Vec<Outbox>,
    oracle: FaultOracle,
    clock: VClock,
    stats: CommStats,
    /// The world's collective sequence counter.
    coll_seq: u64,
    group_counters: HashMap<Vec<usize>, u32>,
    spares: usize,
    /// The cluster's node scheduler (`None` only in standalone unit
    /// tests): sends notify it so a blocked matching receiver becomes
    /// runnable.
    sched: Option<std::sync::Arc<crate::sched::Scheduler>>,
    #[cfg(feature = "audit")]
    audit: Option<Box<audit::AuditState>>,
    #[cfg(feature = "trace")]
    trace: Option<Box<crate::trace::TraceState>>,
}

impl NodeCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        world: Arc<[usize]>,
        mailbox: Mailbox,
        outboxes: Vec<Outbox>,
        oracle: FaultOracle,
        clock: VClock,
        spares: usize,
    ) -> Self {
        NodeCtx {
            rank,
            world,
            mailbox,
            outboxes,
            oracle,
            clock,
            stats: CommStats::new(),
            coll_seq: 0,
            group_counters: HashMap::new(),
            spares,
            sched: None,
            #[cfg(feature = "audit")]
            audit: None,
            #[cfg(feature = "trace")]
            trace: None,
        }
    }

    /// Attach the virtual-time tracer. Called by `Cluster::run` before the
    /// program starts; strictly observational (never touches the clock).
    #[cfg(feature = "trace")]
    pub(crate) fn install_trace(&mut self) {
        self.trace = Some(Box::new(crate::trace::TraceState::new(self.rank)));
    }

    /// Surrender this node's trace log (called at teardown, before
    /// [`NodeCtx::into_teardown`]).
    #[cfg(feature = "trace")]
    pub(crate) fn take_trace(&mut self) -> Option<crate::trace::NodeTrace> {
        self.trace.take().map(|t| t.into_log())
    }

    /// Attach the cluster's node scheduler: would-block receives park on
    /// it, sends wake matching blocked receivers. Called by `Cluster::run`
    /// before the program starts.
    pub(crate) fn install_sched(&mut self, sched: std::sync::Arc<crate::sched::Scheduler>) {
        self.mailbox.install_sched(sched.clone());
        self.sched = Some(sched);
    }

    /// Attach the protocol auditor (this node's event log). Called by
    /// `Cluster::run` before the program.
    #[cfg(feature = "audit")]
    pub(crate) fn install_audit(&mut self) {
        self.audit = Some(Box::new(audit::AuditState::new(self.rank)));
    }

    /// Surrender the mailbox (for the cluster's teardown drain check) and
    /// the audit event log, consuming the context.
    #[cfg(feature = "audit")]
    pub(crate) fn into_teardown(self) -> (Mailbox, Option<audit::NodeLog>) {
        (self.mailbox, self.audit.map(|a| a.into_log()))
    }

    #[cfg(not(feature = "audit"))]
    pub(crate) fn into_teardown(self) -> (Mailbox, Option<()>) {
        (self.mailbox, None)
    }

    /// Record a matched receive into the audit log (no-op without the
    /// `audit` feature — keeps call sites feature-agnostic).
    #[cfg(feature = "audit")]
    fn audit_recv(&mut self, m: &Message) {
        if let Some(a) = &mut self.audit {
            a.record_recv(m);
        }
    }

    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    fn audit_recv(&mut self, _m: &Message) {}

    /// Record a collective call into the audit log.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_coll(&mut self, ev: audit::CollEvent) {
        if let Some(a) = &mut self.audit {
            a.record_coll(ev);
        }
    }

    /// Declare entry into recovery-attempt tag window `id` (a no-op without
    /// the `audit` feature). The engine calls this at the top of each
    /// recovery attempt; receives issued until the matching
    /// [`NodeCtx::audit_exit_window`] must only match messages sent inside
    /// the same window. Entering a new window while one is open closes the
    /// old one (an aborted attempt), including its residue check.
    pub fn audit_enter_window(&mut self, id: u32) {
        #[cfg(feature = "audit")]
        if let Some(a) = &mut self.audit {
            if let Some(prev) = a.window.replace(id) {
                self.mailbox.scan_window_residue(prev);
            }
        }
        #[cfg(not(feature = "audit"))]
        let _ = id;
    }

    /// Close the current recovery-attempt tag window (no-op without the
    /// `audit` feature): checks that no message stamped with the closing
    /// window remains unconsumed in this node's mailbox.
    pub fn audit_exit_window(&mut self) {
        #[cfg(feature = "audit")]
        if let Some(a) = &mut self.audit {
            if let Some(prev) = a.window.take() {
                self.mailbox.scan_window_residue(prev);
            }
        }
    }

    /// Open a named trace span stamped with the current virtual clock (a
    /// no-op without the `trace` feature — keeps call sites
    /// feature-agnostic). Spans nest; close the innermost one with
    /// [`NodeCtx::trace_close`]. Strictly observational.
    pub fn trace_open(&mut self, name: &'static str, arg: u64) {
        #[cfg(feature = "trace")]
        {
            let t = self.clock.now();
            if let Some(tr) = &mut self.trace {
                tr.record(t, crate::trace::TraceEventKind::Open { name, arg });
            }
        }
        #[cfg(not(feature = "trace"))]
        let _ = (name, arg);
    }

    /// Close the innermost open trace span (no-op without `trace`).
    pub fn trace_close(&mut self) {
        #[cfg(feature = "trace")]
        {
            let t = self.clock.now();
            if let Some(tr) = &mut self.trace {
                tr.record(t, crate::trace::TraceEventKind::Close);
            }
        }
    }

    /// Record a zero-duration trace marker (no-op without `trace`).
    pub fn trace_instant(&mut self, name: &'static str, arg: u64) {
        #[cfg(feature = "trace")]
        {
            let t = self.clock.now();
            if let Some(tr) = &mut self.trace {
                tr.record(t, crate::trace::TraceEventKind::Instant { name, arg });
            }
        }
        #[cfg(not(feature = "trace"))]
        let _ = (name, arg);
    }

    /// Record a send event with its per-`(dst, tag)` sequence number.
    #[cfg(feature = "trace")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_send_event(
        &mut self,
        phase: CommPhase,
        dst: usize,
        tag: Tag,
        elems: usize,
        t: f64,
        dt: f64,
        engine: bool,
    ) {
        if let Some(tr) = &mut self.trace {
            let seq = tr.next_send_seq(dst, tag);
            tr.record(
                t,
                crate::trace::TraceEventKind::Send {
                    phase,
                    dst,
                    tag,
                    elems,
                    seq,
                    dt,
                    engine,
                },
            );
        }
    }

    /// Record a receive event with its per-`(src, tag)` sequence number.
    #[cfg(feature = "trace")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_recv_event(
        &mut self,
        phase: CommPhase,
        src: usize,
        tag: Tag,
        elems: usize,
        t: f64,
        stall: f64,
        engine: bool,
    ) {
        if let Some(tr) = &mut self.trace {
            let seq = tr.next_recv_seq(src, tag);
            tr.record(
                t,
                crate::trace::TraceEventKind::Recv {
                    phase,
                    src,
                    tag,
                    elems,
                    seq,
                    stall,
                    engine,
                },
            );
        }
    }

    /// Record the exposed/hidden split charged by a non-blocking `wait`.
    #[cfg(feature = "trace")]
    pub(crate) fn trace_wait_event(&mut self, phase: CommPhase, t: f64, exposed: f64, hidden: f64) {
        if let Some(tr) = &mut self.trace {
            tr.record(
                t,
                crate::trace::TraceEventKind::Wait {
                    phase,
                    exposed,
                    hidden,
                },
            );
        }
    }

    /// Test double: reintroduce the PR 2 `swap_remove` FIFO defect in this
    /// node's mailbox, to prove the auditor's non-overtaking check fires.
    #[doc(hidden)]
    #[cfg(feature = "audit")]
    pub fn audit_seed_fifo_bug(&mut self) {
        self.mailbox.seed_fifo_bug();
    }

    /// This node's rank in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes in the cluster.
    pub fn size(&self) -> usize {
        self.world.len()
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `payload` to `dest` with a user tag, charged to `phase`.
    pub fn send(&mut self, dest: usize, tag: u32, payload: Payload, phase: CommPhase) {
        self.send_tag(dest, Tag::user(tag), payload, phase);
    }

    pub(crate) fn send_tag(&mut self, dest: usize, tag: Tag, payload: Payload, phase: CommPhase) {
        debug_assert!(dest < self.size(), "send to rank {dest} of {}", self.size());
        let arrival_vtime = self.charge_send(dest, tag, payload.elems(), phase);
        self.raw_send(dest, tag, payload, arrival_vtime);
    }

    /// Charge a blocking send of `elems` elements to `dest`: statistics,
    /// the sender's clock (busy for `λ + s·µ`) and the trace. Returns the
    /// message's arrival stamp.
    fn charge_send(&mut self, dest: usize, tag: Tag, elems: usize, phase: CommPhase) -> f64 {
        self.stats.record_send(phase, elems);
        let t0 = self.clock.now();
        let arrival_vtime = self.clock.stamp_send(elems);
        self.stats.record_send_vtime(phase, arrival_vtime - t0);
        #[cfg(feature = "trace")]
        self.trace_send_event(phase, dest, tag, elems, t0, arrival_vtime - t0, false);
        #[cfg(not(feature = "trace"))]
        let _ = (dest, tag);
        arrival_vtime
    }

    /// Charge a blocking receive of a message from `src` stamped
    /// `arrival_vtime`: the stall until it arrives, statistics and trace.
    fn charge_recv(
        &mut self,
        src: usize,
        tag: Tag,
        elems: usize,
        arrival_vtime: f64,
        phase: CommPhase,
    ) {
        #[cfg(feature = "trace")]
        let t0 = self.clock.now();
        let stall = self.clock.absorb_arrival(arrival_vtime);
        self.stats.record_wait_vtime(phase, stall);
        #[cfg(feature = "trace")]
        self.trace_recv_event(phase, src, tag, elems, t0, stall, false);
        #[cfg(not(feature = "trace"))]
        let _ = (src, tag, elems);
    }

    /// Deliver a message with an explicit arrival stamp, touching neither
    /// the clock nor the statistics — the primitive beneath both the
    /// blocking path (which charges the sender first) and the non-blocking
    /// engine (which stamps with its own detached timeline).
    pub(crate) fn raw_send(&mut self, dest: usize, tag: Tag, payload: Payload, arrival_vtime: f64) {
        debug_assert_ne!(dest, self.rank, "self-send is a protocol bug");
        #[allow(unused_mut)]
        let mut msg = Message::new(self.rank, tag, payload, arrival_vtime);
        #[cfg(feature = "audit")]
        if let Some(a) = &mut self.audit {
            msg.stamp = a.stamp_send(dest, tag);
        }
        // A closed channel means the peer thread panicked; propagate.
        self.outboxes[dest]
            .send(msg)
            .unwrap_or_else(|_| panic!("rank {}: peer {} is gone", self.rank, dest));
        // Push first, then notify: when the receiver is re-dispatched the
        // message is guaranteed to be in its channel.
        if let Some(sched) = &self.sched {
            sched.notify_send(dest, self.rank, tag);
        }
    }

    /// Blocking mailbox receive with no clock effects (the non-blocking
    /// engine accounts on its own timeline); only a park is counted.
    pub(crate) fn raw_recv_blocking(&mut self, src: usize, tag: Tag) -> Message {
        self.mailbox_recv(Some(src), tag)
    }

    /// Match `(src, tag)` (`src: None` ⇒ any source) in the mailbox,
    /// parking on the scheduler until a matching message is delivered.
    fn mailbox_recv(&mut self, src: Option<usize>, tag: Tag) -> Message {
        let now = self.clock.now();
        let (m, parks) = self.mailbox.recv_matching(src, tag, now);
        self.stats.record_parks(parks);
        self.audit_recv(&m);
        m
    }

    /// Non-blocking, non-consuming mailbox probe with no clock or stats
    /// effects (advisory `test` path — matching stays in program order).
    pub(crate) fn raw_peek_recv(&mut self, src: usize, tag: Tag) -> Option<&Message> {
        self.mailbox.peek_match(src, tag)
    }

    /// Send one physical message whose elements belong to several
    /// accounting phases (e.g. natural SpMV traffic plus appended
    /// redundancy copies — the paper's latency-avoidance optimization:
    /// one message, one λ, split bookkeeping). The `split` counts must sum
    /// to the payload's element count.
    pub fn send_with_phases(
        &mut self,
        dest: usize,
        tag: u32,
        payload: Payload,
        split: &[(CommPhase, usize)],
    ) {
        debug_assert_eq!(
            split.iter().map(|&(_, n)| n).sum::<usize>(),
            payload.elems(),
            "phase split must cover the payload"
        );
        let mut first = true;
        for &(phase, elems) in split {
            if first {
                self.stats.record_send(phase, elems);
                first = false;
            } else {
                // Count elements without double-counting the message.
                let msgs_before = self.stats.msgs(phase);
                self.stats.record_send(phase, elems);
                // record_send bumped the message counter; compensate so
                // message counts reflect physical messages.
                debug_assert_eq!(self.stats.msgs(phase), msgs_before + 1);
                self.stats.uncount_msg(phase);
            }
        }
        let elems = payload.elems();
        let t0 = self.clock.now();
        let arrival_vtime = self.clock.stamp_send(elems);
        // The transfer time of the one physical message is charged to the
        // first phase that actually contributes elements — a link carrying
        // only redundancy must book its time under Redundancy, not under
        // an empty leading Spmv slot.
        let owner = split
            .iter()
            .find(|&&(_, n)| n > 0)
            .map_or(split[0].0, |&(p, _)| p);
        self.stats.record_send_vtime(owner, arrival_vtime - t0);
        #[cfg(feature = "trace")]
        self.trace_send_event(
            owner,
            dest,
            Tag::user(tag),
            elems,
            t0,
            arrival_vtime - t0,
            false,
        );
        self.raw_send(dest, Tag::user(tag), payload, arrival_vtime);
    }

    /// Blocking receive of a user-tagged message from `src` (stall time
    /// accounted to [`CommPhase::Other`]; use [`NodeCtx::recv_phase`] to
    /// attribute it).
    pub fn recv(&mut self, src: usize, tag: u32) -> Payload {
        self.recv_phase(src, tag, CommPhase::Other)
    }

    /// Blocking receive of a user-tagged message from `src`, with the stall
    /// time attributed to `phase`.
    pub fn recv_phase(&mut self, src: usize, tag: u32, phase: CommPhase) -> Payload {
        self.recv_tag(src, Tag::user(tag), phase).payload
    }

    pub(crate) fn recv_tag(&mut self, src: usize, tag: Tag, phase: CommPhase) -> Message {
        let m = self.raw_recv_blocking(src, tag);
        self.charge_recv(src, tag, m.payload.elems(), m.arrival_vtime, phase);
        m
    }

    /// Blocking receive of a user-tagged message from any source.
    pub fn recv_any(&mut self, tag: u32) -> (usize, Payload) {
        let tag = Tag::user(tag);
        let m = self.mailbox_recv(None, tag);
        self.charge_recv(
            m.src,
            tag,
            m.payload.elems(),
            m.arrival_vtime,
            CommPhase::Other,
        );
        (m.src, m.payload)
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point
    // ------------------------------------------------------------------

    /// Non-blocking send: the message departs immediately (stamped from the
    /// current clock), but the sender's clock is **not** charged — the
    /// transfer runs concurrently with whatever the node computes next.
    /// [`SendRequest::wait`] charges only the part of the transfer not
    /// hidden behind that compute.
    pub fn isend(
        &mut self,
        dest: usize,
        tag: u32,
        payload: Payload,
        phase: CommPhase,
    ) -> SendRequest {
        debug_assert!(dest < self.size(), "send to rank {dest} of {}", self.size());
        let elems = payload.elems();
        self.stats.record_send(phase, elems);
        let start = self.clock.now();
        let cost = self.clock.model().msg_cost(elems);
        let done_at = start + cost;
        #[cfg(feature = "trace")]
        self.trace_send_event(phase, dest, Tag::user(tag), elems, start, cost, true);
        self.raw_send(dest, Tag::user(tag), payload, done_at);
        SendRequest::new(done_at, cost, phase)
    }

    /// Non-blocking receive: returns a handle that matches `(src, tag)`.
    /// Compute performed before [`RecvRequest::wait`] overlaps the message
    /// flight; `wait` charges only the remaining latency
    /// (`max(clock, arrival) − clock`). The message is matched at `wait`,
    /// in program order — interleaving blocking `recv`s on the same
    /// `(src, tag)` while the request is in flight matches them in the
    /// order the calls execute, deterministically.
    pub fn irecv(&mut self, src: usize, tag: u32, phase: CommPhase) -> RecvRequest {
        let tag = Tag::user(tag);
        let posted_at = self.clock.now();
        RecvRequest::new(src, tag, phase, posted_at)
    }

    // ------------------------------------------------------------------
    // The world communicator
    // ------------------------------------------------------------------

    /// The world communicator: the group of all ranks, indexed by rank.
    /// Every handle draws from this node's one world sequence counter, so
    /// world collectives issued through different handles never share an
    /// instance.
    pub fn world(&self) -> Group {
        Group::world(self.world.clone(), self.rank)
    }

    pub(crate) fn next_world_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    /// Synchronize all nodes (and their virtual clocks); see
    /// [`Group::barrier`].
    pub fn barrier(&mut self) {
        self.world().barrier(self, CommPhase::Reduction)
    }

    /// Broadcast `payload` from `root`; every node returns the payload.
    pub fn bcast(&mut self, root: usize, payload: Payload) -> Payload {
        self.world()
            .bcast(self, root, payload, CommPhase::Reduction)
    }

    /// All-reduce a scalar.
    pub fn allreduce_sum(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Sum, vec![x])[0]
    }

    /// All-reduce max of a scalar.
    pub fn allreduce_max(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Max, vec![x])[0]
    }

    /// All-reduce min of a scalar.
    pub fn allreduce_min(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Min, vec![x])[0]
    }

    /// Element-wise all-reduce of an `f64` buffer over the world (see
    /// [`Group::allreduce_vec`]).
    pub fn allreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        self.world()
            .allreduce_vec(self, opr, x, CommPhase::Reduction)
    }

    /// Non-blocking element-wise all-reduce over the world (see
    /// [`Group::iallreduce_vec`]), charged to [`CommPhase::Reduction`].
    pub fn iallreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> AllreduceRequest {
        self.world()
            .iallreduce_vec(self, opr, x, CommPhase::Reduction)
    }

    /// Gather variable-length `f64` buffers on `root` (rank order).
    /// Non-roots return `None`.
    pub fn gatherv_f64(&mut self, root: usize, x: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        self.world().gatherv_f64(self, root, x, CommPhase::Other)
    }

    /// All-gather variable-length `f64` buffers; result indexed by rank.
    pub fn allgatherv_f64(&mut self, x: Vec<f64>) -> Vec<Vec<f64>> {
        self.world()
            .allgatherv(self, x, CommPhase::Other, CommPhase::Reduction)
    }

    /// All-gather variable-length `u64` buffers; result indexed by rank.
    pub fn allgatherv_u64(&mut self, x: Vec<u64>) -> Vec<Vec<u64>> {
        self.world()
            .allgatherv(self, x, CommPhase::Other, CommPhase::Reduction)
    }

    /// Personalized all-to-all of index lists: `sends[k]` goes to rank `k`
    /// (see [`Group::alltoallv_u64`]), charged to [`CommPhase::Setup`].
    pub fn alltoallv_u64(&mut self, sends: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        self.world().alltoallv_u64(self, sends, CommPhase::Setup)
    }

    /// Personalized all-to-all of `(index, value)` pair lists, charged to
    /// `phase`.
    pub fn alltoallv_pairs(
        &mut self,
        sends: Vec<Vec<(u64, f64)>>,
        phase: CommPhase,
    ) -> Vec<Vec<(u64, f64)>> {
        self.world().alltoallv_pairs(self, sends, phase)
    }

    // ------------------------------------------------------------------
    // Recursive-doubling primitives (all-reduce, barrier)
    // ------------------------------------------------------------------

    /// Reach the rendezvous of a recursive-doubling collective (see
    /// [`crate::rendezvous`]) and return this member's plan. Parks until
    /// the last member arrives — unless this is the last member, which
    /// completes the collective for everyone.
    fn rd_plan(&mut self, coll: &RdColl<'_>, x: Vec<f64>) -> RdPlan {
        let n = coll.members.len();
        if n == 1 {
            return RdPlan::alone(x);
        }
        let call = RdCall {
            index: coll.index,
            tag: coll.tag,
            opr: coll.opr,
            n,
            clock: self.clock.now(),
            msg_cost: self.clock.model().msg_cost(x.len()),
            buf: x,
        };
        let sched = self
            .sched
            .as_ref()
            .expect("a collective over several nodes runs inside a cluster");
        let (plan, parked) = sched.rendezvous(self.rank, coll.members, call);
        self.stats.record_parks(u64::from(parked));
        plan
    }

    /// A blocking recursive-doubling collective: each round's send charges
    /// this node's clock `λ + s·µ`, each receive stalls it until the
    /// partner's arrival stamp. Returns the result and the rounds taken.
    pub(crate) fn rd_blocking(&mut self, coll: RdColl<'_>, x: Vec<f64>) -> (Vec<f64>, usize) {
        let plan = self.rd_plan(&coll, x);
        for (round, r) in plan.rounds.iter().enumerate() {
            self.trace_open("round", round as u64);
            if r.send {
                self.charge_send(r.peer, coll.tag, plan.elems, coll.phase);
            }
            if let Some(arrival) = r.recv {
                self.charge_recv(r.peer, coll.tag, plan.elems, arrival, coll.phase);
            }
            self.trace_close();
        }
        (plan.result, plan.rounds.len())
    }

    /// A non-blocking recursive-doubling collective, run on a detached
    /// engine timeline that starts at the call: sends advance the engine
    /// by the full transfer cost, receives wait (on the engine timeline)
    /// for the partner's stamp, and the node clock is never touched — the
    /// request's `wait` charges the un-hidden remainder. Returns the
    /// result, the rounds taken and the completion time.
    pub(crate) fn rd_engine(&mut self, coll: RdColl<'_>, x: Vec<f64>) -> (Vec<f64>, usize, f64) {
        let mut now = self.clock.now();
        let plan = self.rd_plan(&coll, x);
        let cost = self.clock.model().msg_cost(plan.elems);
        for (round, r) in plan.rounds.iter().enumerate() {
            self.trace_open("round", round as u64);
            if r.send {
                self.stats.record_send(coll.phase, plan.elems);
                #[cfg(feature = "trace")]
                self.trace_send_event(coll.phase, r.peer, coll.tag, plan.elems, now, cost, true);
                now += cost;
            }
            if let Some(arrival) = r.recv {
                if arrival > now {
                    now = arrival;
                }
                #[cfg(feature = "trace")]
                self.trace_recv_event(coll.phase, r.peer, coll.tag, plan.elems, now, 0.0, true);
            }
            self.trace_close();
        }
        (plan.result, plan.rounds.len(), now)
    }

    // ------------------------------------------------------------------
    // Sub-communicators, faults, metrics
    // ------------------------------------------------------------------

    /// Create a sub-communicator over `ranks` (must contain this rank; all
    /// members must call with the same set at the same SPMD point).
    pub fn group(&mut self, ranks: &[usize]) -> Group {
        Group::create(self, ranks)
    }

    pub(crate) fn group_creation_counter(&mut self, members: &[usize]) -> u32 {
        let c = self.group_counters.entry(members.to_vec()).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// Consult the failure oracle at a boundary; all nodes receive the same
    /// answer (simulates ULFM failure notification + agreement).
    pub fn poll_failures(&self, boundary: FailAt) -> Vec<usize> {
        self.oracle.poll(boundary)
    }

    /// The failure oracle handle.
    pub fn oracle(&self) -> &FaultOracle {
        &self.oracle
    }

    /// This node's view of the cluster's hot-spare pool (see
    /// [`crate::cluster::SparePool`]): a fresh handle holding the
    /// provisioned total. Claims are SPMD-deterministic bookkeeping, so
    /// every node's copy evolves identically.
    pub fn spare_pool(&self) -> crate::cluster::SparePool {
        crate::cluster::SparePool::new(self.spares)
    }

    /// Current virtual time on this node.
    pub fn vtime(&self) -> f64 {
        self.clock.now()
    }

    /// Mutable access to the virtual clock (compute-cost accounting).
    pub fn clock_mut(&mut self) -> &mut VClock {
        &mut self.clock
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Communication statistics of this node.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Mutable statistics (e.g. recording extra-latency events).
    pub fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    /// Reset clock and statistics (between timed experiment sections);
    /// collective sequence numbers are preserved (they must stay aligned).
    pub fn reset_metrics(&mut self) {
        #[cfg(feature = "trace")]
        if let Some(tr) = self.trace.as_mut() {
            tr.clock_reset(self.clock.now());
        }
        self.clock.reset();
        self.stats.reset();
        self.trace_instant("reset_metrics", 0);
    }
}

/// One member's view of a recursive-doubling collective call.
pub(crate) struct RdColl<'a> {
    /// This member's participant index.
    pub index: usize,
    /// Participant ranks by index.
    pub members: &'a Arc<[usize]>,
    /// The collective's tag (one tag covers all rounds).
    pub tag: Tag,
    /// Reduction operator; `None` for a barrier.
    pub opr: Option<ReduceOp>,
    /// Accounting phase of the collective's traffic.
    pub phase: CommPhase,
}
