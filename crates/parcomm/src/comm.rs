//! The per-node communicator handle: point-to-point messaging and
//! deterministic collectives.
//!
//! Collectives have a **structure fixed by (root, size)**, so floating-point
//! reductions are bitwise reproducible across runs — the reduction order
//! never depends on message timing. Broadcast and gather use binomial trees
//! of point-to-point messages; all-reduce and barrier use **recursive
//! doubling** (⌈log₂N⌉ rounds, no root bottleneck; non-power-of-two sizes
//! fold the surplus ranks in before and out after the doubling phase, +2
//! rounds), completed in one step at a scheduler rendezvous and charged
//! round by round as the messages would have been (see
//! [`crate::rendezvous`]). This mirrors what MPI implementations provide on
//! a fixed topology and is essential for the reproducibility of the
//! numerical experiments.

use std::collections::HashMap;

#[cfg(feature = "audit")]
use crate::audit;
use crate::fault::{FailAt, FaultOracle};
use crate::group::Group;
use crate::mailbox::{Mailbox, Outbox};
use crate::payload::{Message, Payload};
use crate::rendezvous::{RdCall, RdPlan};
use crate::request::{AllreduceRequest, RecvRequest, SendRequest};
use crate::stats::{CommPhase, CommStats};
use crate::tag::{op, Tag};
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

/// Element types that can travel in a [`Payload`] buffer variant. Lets the
/// ragged-buffer logic (broadcast counts, then flattened data, then split)
/// be written once for both `f64` and `u64`.
pub(crate) trait PayloadElem: Clone {
    fn wrap(v: Vec<Self>) -> Payload;
    fn unwrap(p: Payload) -> Vec<Self>;
}

impl PayloadElem for f64 {
    fn wrap(v: Vec<f64>) -> Payload {
        Payload::f64s(v)
    }
    fn unwrap(p: Payload) -> Vec<f64> {
        p.into_f64s()
    }
}

impl PayloadElem for u64 {
    fn wrap(v: Vec<u64>) -> Payload {
        Payload::u64s(v)
    }
    fn unwrap(p: Payload) -> Vec<u64> {
        p.into_u64s()
    }
}

impl PayloadElem for (u64, f64) {
    fn wrap(v: Vec<(u64, f64)>) -> Payload {
        Payload::pairs(v)
    }
    fn unwrap(p: Payload) -> Vec<(u64, f64)> {
        p.into_pairs()
    }
}

/// Personalized all-to-all of per-participant buffers under one tag: post
/// all sends first (asynchronous channels — no deadlock), then receive in
/// ascending participant order; the own slot is passed through untouched.
/// One implementation for the world (`members: None`) and group
/// communicators and for every element type that fits in a payload — the
/// loop used to live in four near-identical copies.
pub(crate) fn alltoallv_generic<T: PayloadElem>(
    ctx: &mut NodeCtx,
    my_index: usize,
    members: Option<&[usize]>,
    tag: Tag,
    phase: CommPhase,
    mut sends: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    let n = sends.len();
    let rank_of = |i: usize| members.map_or(i, |m| m[i]);
    let mut own = Some(std::mem::take(&mut sends[my_index]));
    for i in 0..n {
        if i != my_index {
            let data = std::mem::take(&mut sends[i]);
            ctx.send_tag(rank_of(i), tag, T::wrap(data), phase);
        }
    }
    let mut out: Vec<Vec<T>> = Vec::with_capacity(n);
    for i in 0..n {
        if i == my_index {
            out.push(own.take().expect("own slot filled once"));
        } else {
            out.push(T::unwrap(ctx.recv_tag(rank_of(i), tag, phase).payload));
        }
    }
    out
}

/// Split a flattened buffer back into per-rank pieces of the given lengths.
pub(crate) fn split_by_counts<T>(flat: Vec<T>, counts: &[u64]) -> Vec<Vec<T>> {
    debug_assert_eq!(flat.len() as u64, counts.iter().sum::<u64>());
    let mut it = flat.into_iter();
    counts
        .iter()
        .map(|&c| it.by_ref().take(c as usize).collect())
        .collect()
}

/// A node's view of the cluster: rank, mailbox, peers, clock, statistics,
/// and the failure oracle. Exactly one `NodeCtx` exists per node thread.
pub struct NodeCtx {
    rank: usize,
    size: usize,
    mailbox: Mailbox,
    outboxes: Vec<Outbox>,
    oracle: FaultOracle,
    clock: VClock,
    stats: CommStats,
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
        size: usize,
        mailbox: Mailbox,
        outboxes: Vec<Outbox>,
        oracle: FaultOracle,
        clock: VClock,
        spares: usize,
    ) -> Self {
        NodeCtx {
            rank,
            size,
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
        self.size
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `payload` to `dest` with a user tag, charged to `phase`.
    pub fn send(&mut self, dest: usize, tag: u32, payload: Payload, phase: CommPhase) {
        self.send_tag(dest, Tag::user(tag), payload, phase);
    }

    pub(crate) fn send_tag(&mut self, dest: usize, tag: Tag, payload: Payload, phase: CommPhase) {
        debug_assert!(dest < self.size, "send to rank {} of {}", dest, self.size);
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
    // Non-blocking point-to-point and collectives
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
        debug_assert!(dest < self.size, "send to rank {} of {}", dest, self.size);
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

    /// Non-blocking element-wise all-reduce: same deterministic
    /// recursive-doubling schedule (and bitwise-identical result) as
    /// [`NodeCtx::allreduce_vec`], but executed on a detached virtual
    /// timeline, as if by a communication offload engine. The node clock is
    /// untouched until [`AllreduceRequest::wait`], which charges only
    /// `max(clock, completion) − clock` — compute issued between `start`
    /// and `wait` hides the reduction's flight time.
    ///
    /// All nodes must issue the operation at the same SPMD point (it shares
    /// the collective sequence space with the blocking collectives).
    pub fn iallreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> AllreduceRequest {
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLREDUCE, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::ALLREDUCE,
            rop: Some(opr),
            len: Some(x.len()),
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        self.trace_open("iallreduce", seq);
        let start = self.clock.now();
        let (acc, rounds, done_at) = self.rd_engine(self.world_rd(tag, Some(opr)), x);
        self.trace_close();
        self.stats.record_allreduce(rounds);
        AllreduceRequest::new(acc, start, done_at, CommPhase::Reduction)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    fn next_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    /// Synchronize all nodes (and their virtual clocks). Implemented as a
    /// zero-length recursive-doubling exchange, so every node transitively
    /// absorbs every other node's clock in ⌈log₂N⌉(+2) rounds.
    pub fn barrier(&mut self) {
        let seq = self.next_seq();
        let tag = Tag::coll(op::BARRIER, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::BARRIER,
            rop: None,
            len: Some(0),
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        self.trace_open("barrier", seq);
        self.rd_blocking(self.world_rd(tag, None), Vec::new());
        self.trace_close();
    }

    /// Broadcast `payload` from `root`; every node returns the payload.
    pub fn bcast(&mut self, root: usize, payload: Payload) -> Payload {
        let seq = self.next_seq();
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::BCAST,
            rop: None,
            // Only the root knows the length up front; leaves record None
            // and the checker compares lengths among declared values only.
            len: None,
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        self.trace_open("bcast", seq);
        let out = self.tree_bcast_from(root, payload, Tag::coll(op::BCAST, seq));
        self.trace_close();
        out
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

    /// Element-wise all-reduce of an `f64` buffer (all nodes pass equal
    /// lengths; the result is bitwise identical on every node).
    ///
    /// Recursive doubling: ⌈log₂N⌉ rounds (+2 on non-power-of-two sizes),
    /// every node sends and receives one buffer per round — no root
    /// bottleneck, and half the rounds of the former reduce-to-root +
    /// broadcast implementation. The pairing and combination order are
    /// fixed functions of (rank, size), so the result is deterministic.
    pub fn allreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLREDUCE, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::ALLREDUCE,
            rop: Some(opr),
            len: Some(x.len()),
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        self.trace_open("allreduce", seq);
        let (acc, rounds) = self.rd_blocking(self.world_rd(tag, Some(opr)), x);
        self.trace_close();
        self.stats.record_allreduce(rounds);
        acc
    }

    /// Gather variable-length `f64` buffers on `root` (rank order).
    /// Non-roots return `None`.
    pub fn gatherv_f64(&mut self, root: usize, x: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let seq = self.next_seq();
        let tag = Tag::coll(op::GATHER, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::GATHER,
            rop: None,
            len: None, // ragged by design
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        self.trace_open("gather", seq);
        let out = if self.rank == root {
            let mut own = Some(x);
            let mut out: Vec<Vec<f64>> = Vec::with_capacity(self.size);
            for r in 0..self.size {
                if r == root {
                    out.push(own.take().expect("own slot filled once"));
                } else {
                    out.push(self.recv_tag(r, tag, CommPhase::Other).payload.into_f64s());
                }
            }
            Some(out)
        } else {
            self.send_tag(root, tag, Payload::f64s(x), CommPhase::Other);
            None
        };
        self.trace_close();
        out
    }

    /// All-gather variable-length `f64` buffers; result indexed by rank.
    pub fn allgatherv_f64(&mut self, x: Vec<f64>) -> Vec<Vec<f64>> {
        let gathered = self.gatherv_f64(0, x);
        self.bcast_ragged(0, gathered)
    }

    /// All-gather variable-length `u64` buffers; result indexed by rank.
    pub fn allgatherv_u64(&mut self, x: Vec<u64>) -> Vec<Vec<u64>> {
        let seq = self.next_seq();
        let tag = Tag::coll(op::GATHER, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::GATHER,
            rop: None,
            len: None, // ragged by design
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        self.trace_open("gather", seq);
        let gathered: Option<Vec<Vec<u64>>> = if self.rank == 0 {
            let mut own = Some(x);
            let mut out: Vec<Vec<u64>> = Vec::with_capacity(self.size);
            for r in 0..self.size {
                if r == 0 {
                    out.push(own.take().expect("own slot filled once"));
                } else {
                    out.push(self.recv_tag(r, tag, CommPhase::Other).payload.into_u64s());
                }
            }
            Some(out)
        } else {
            self.send_tag(0, tag, Payload::u64s(x), CommPhase::Other);
            None
        };
        self.trace_close();
        self.bcast_ragged(0, gathered)
    }

    /// Broadcast ragged per-rank buffers from `root`: counts first, then the
    /// flattened data, then split back. One implementation for every element
    /// type that fits in a payload (the logic used to be triplicated).
    fn bcast_ragged<T: PayloadElem>(
        &mut self,
        root: usize,
        vecs: Option<Vec<Vec<T>>>,
    ) -> Vec<Vec<T>> {
        let counts = self.bcast(
            root,
            match &vecs {
                Some(vs) => Payload::u64s(vs.iter().map(|v| v.len() as u64).collect()),
                None => Payload::Empty,
            },
        );
        let flat = self.bcast(
            root,
            match vecs {
                Some(vs) => T::wrap(vs.into_iter().flatten().collect()),
                None => Payload::Empty,
            },
        );
        split_by_counts(T::unwrap(flat), &counts.into_u64s())
    }

    /// Personalized all-to-all of index lists: `sends[k]` goes to rank `k`;
    /// returns the lists received from every rank (own slot passed through).
    /// Every pair exchanges a message (possibly empty) — used for one-time
    /// plan setup, where symmetric knowledge is simplest and N ≤ a few
    /// hundred.
    pub fn alltoallv_u64(&mut self, sends: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        assert_eq!(sends.len(), self.size, "alltoallv needs one list per rank");
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLTOALL, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::ALLTOALL,
            rop: None,
            len: None, // ragged by design
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        let rank = self.rank;
        self.trace_open("alltoall", seq);
        let out = alltoallv_generic(self, rank, None, tag, CommPhase::Setup, sends);
        self.trace_close();
        out
    }

    /// Personalized all-to-all of `(index, value)` pair lists, charged to
    /// `phase` (recovery gathers use this).
    pub fn alltoallv_pairs(
        &mut self,
        sends: Vec<Vec<(u64, f64)>>,
        phase: CommPhase,
    ) -> Vec<Vec<(u64, f64)>> {
        assert_eq!(sends.len(), self.size, "alltoallv needs one list per rank");
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLTOALL, seq);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind: op::ALLTOALL,
            rop: None,
            len: None, // ragged by design
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
        let rank = self.rank;
        self.trace_open("alltoall", seq);
        let out = alltoallv_generic(self, rank, None, tag, phase, sends);
        self.trace_close();
        out
    }

    // ------------------------------------------------------------------
    // Recursive-doubling collectives (all-reduce, barrier)
    // ------------------------------------------------------------------

    /// A world-communicator recursive-doubling call (phase `Reduction`).
    fn world_rd(&self, tag: Tag, opr: Option<ReduceOp>) -> RdColl<'static> {
        RdColl {
            index: self.rank,
            members: None,
            tag,
            opr,
            phase: CommPhase::Reduction,
        }
    }

    /// Reach the rendezvous of a recursive-doubling collective (see
    /// [`crate::rendezvous`]) and return this member's plan. Parks until
    /// the last member arrives — unless this is the last member, which
    /// completes the collective for everyone.
    fn rd_plan(&mut self, coll: &RdColl<'_>, x: Vec<f64>) -> RdPlan {
        let n = coll.members.map_or(self.size, <[usize]>::len);
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
    // Binomial-tree broadcast primitive
    // ------------------------------------------------------------------

    /// Broadcast from `root` over a binomial tree. The per-child
    /// `data.clone()` is an `Arc` bump, not a buffer copy.
    fn tree_bcast_from(&mut self, root: usize, payload: Payload, tag: Tag) -> Payload {
        let n = self.size;
        if n == 1 {
            return payload;
        }
        let vrank = (self.rank + n - root) % n;
        // Find the highest power of two ≤ n.
        let mut top = 1usize;
        while top << 1 < n {
            top <<= 1;
        }
        let data: Payload = if vrank == 0 {
            payload
        } else {
            // Receive from parent: clear lowest set bit of vrank.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % n;
            self.recv_tag(parent, tag, CommPhase::Reduction).payload
        };
        // Forward to children (bits below our lowest set bit), farthest
        // subtree first so it starts as early as possible.
        let lowbit = if vrank == 0 {
            top << 1
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut mask = top;
        while mask > 0 {
            if mask < lowbit {
                let child_v = vrank | mask;
                if child_v < n {
                    let child = (child_v + root) % n;
                    self.send_tag(child, tag, data.clone(), CommPhase::Reduction);
                }
            }
            mask >>= 1;
        }
        data
    }

    // ------------------------------------------------------------------
    // Groups, faults, metrics
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
    /// Participant ranks by index; `None` for the world (index = rank).
    pub members: Option<&'a [usize]>,
    /// The collective's tag (one tag covers all rounds).
    pub tag: Tag,
    /// Reduction operator; `None` for a barrier.
    pub opr: Option<ReduceOp>,
    /// Accounting phase of the collective's traffic.
    pub phase: CommPhase,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_by_counts_partitions() {
        let out = split_by_counts(vec![1u64, 2, 3, 4, 5], &[2, 0, 3]);
        assert_eq!(out, vec![vec![1, 2], vec![], vec![3, 4, 5]]);
    }
}
