//! Communicators: the world and its sub-communicators.
//!
//! A [`Group`] is an ordered set of ranks with a private collective
//! context, like an MPI communicator. The world is the group of all ranks
//! ([`NodeCtx::world`], MPI's `MPI_COMM_WORLD`); [`NodeCtx::group`] derives
//! a sub-communicator from a member set, like `MPI_Comm_split`. During
//! recovery from `ψ` simultaneous failures the `ψ` replacement nodes solve
//! `A_{If,If} x_If = w` over one (paper Sec. 4.1: "additional
//! communication between the ψ replacement nodes is necessary"), and a
//! shrunken cluster runs the rest of its solve on the survivors' one.
//!
//! Every collective has exactly one body, written here over member
//! indices. Its **structure is fixed by (root, size)**, so floating-point
//! reductions are bitwise reproducible across runs — the reduction order
//! never depends on message timing. Broadcast uses a binomial tree and
//! gather a linear fan-in of point-to-point messages; all-reduce and
//! barrier use **recursive doubling** (⌈log₂n⌉ rounds, no root bottleneck;
//! non-power-of-two sizes fold the surplus members in before and out after
//! the doubling phase, +2 rounds), completed in one step at a scheduler
//! rendezvous and charged round by round as the messages would have been
//! (see [`crate::rendezvous`]). This mirrors what MPI implementations
//! provide on a fixed topology and is essential for the reproducibility of
//! the numerical experiments.
//!
//! The communicator's scope changes only names and numbering. The world's
//! collectives carry [`Tag::coll`] tags and `"allreduce"`-style trace
//! spans, and draw their sequence numbers from the node's one world
//! counter, which every handle to the world shares. A sub-communicator's
//! carry [`Tag::group`] tags scoped by its gid and `"group_*"` spans, and
//! number from the group's own counter.

use std::sync::Arc;

use crate::comm::{NodeCtx, RdColl, ReduceOp};
use crate::payload::Payload;
use crate::request::AllreduceRequest;
use crate::stats::CommPhase;
use crate::tag::{op, Tag};

/// Element types that can travel in a [`Payload`] buffer variant. Lets the
/// ragged-buffer collectives (gather, all-to-all, counts-then-data
/// broadcast) be written once for every element type.
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

/// A communicator over a set of cluster ranks: the world, or a
/// sub-communicator.
///
/// All members must create a sub-communicator with the same member set at
/// the same SPMD point, and must issue collectives in the same order.
pub struct Group {
    /// Member ranks, ascending. The world's list is one allocation shared
    /// by every node.
    members: Arc<[usize]>,
    my_index: usize,
    /// `None` for the world, the sub-communicator's id otherwise.
    gid: Option<u32>,
    /// A sub-communicator's collective sequence counter (the world's lives
    /// in the [`NodeCtx`]).
    seq: u32,
}

impl Group {
    /// The world communicator: `members` is `0..N` and the index is the
    /// rank.
    pub(crate) fn world(members: Arc<[usize]>, rank: usize) -> Group {
        debug_assert_eq!(members[rank], rank, "the world is indexed by rank");
        Group {
            members,
            my_index: rank,
            gid: None,
            seq: 0,
        }
    }

    pub(crate) fn create(ctx: &mut NodeCtx, ranks: &[usize]) -> Group {
        let mut members = ranks.to_vec();
        members.sort_unstable();
        members.dedup();
        let my_index = members
            .binary_search(&ctx.rank())
            .expect("creating a group that does not contain this rank");
        // All members derive the same id from the member set and a local
        // per-set creation counter (consistent because creations are SPMD).
        let counter = ctx.group_creation_counter(&members);
        let gid = fnv1a(&members) ^ counter.wrapping_mul(0x9E37_79B9);
        Group {
            members: members.into(),
            my_index,
            gid: Some(gid),
            seq: 0,
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This node's index within the communicator (`0..size`).
    pub fn index(&self) -> usize {
        self.my_index
    }

    /// Global ranks of the members, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Start a collective call: draw its instance (tag for operation
    /// `kind`, and sequence number).
    fn start(&mut self, ctx: &mut NodeCtx, kind: u8) -> (Tag, u64) {
        match self.gid {
            None => {
                let seq = ctx.next_world_seq();
                (Tag::coll(kind, seq), seq)
            }
            Some(gid) => {
                let seq = self.seq;
                self.seq += 1;
                (Tag::group(gid, kind, seq), u64::from(seq))
            }
        }
    }

    /// A collective's trace span name: `world` on the world, `group` on a
    /// sub-communicator.
    fn span(&self, world: &'static str, group: &'static str) -> &'static str {
        if self.gid.is_none() {
            world
        } else {
            group
        }
    }

    /// This member's part in a recursive-doubling call.
    fn rd(&self, tag: Tag, opr: Option<ReduceOp>, phase: CommPhase) -> RdColl<'_> {
        RdColl {
            index: self.my_index,
            members: &self.members,
            tag,
            opr,
            phase,
        }
    }

    /// Synchronize the members (and their virtual clocks): a zero-length
    /// recursive-doubling exchange, so every member transitively absorbs
    /// every other member's clock in ⌈log₂n⌉(+2) rounds.
    pub fn barrier(&mut self, ctx: &mut NodeCtx, phase: CommPhase) {
        let (tag, seq) = self.start(ctx, op::BARRIER);
        ctx.trace_open(self.span("barrier", "group_barrier"), seq);
        ctx.rd_blocking(self.rd(tag, None, phase), Vec::new());
        ctx.trace_close();
    }

    /// All-reduce a scalar sum.
    pub fn allreduce_sum(&mut self, ctx: &mut NodeCtx, x: f64, phase: CommPhase) -> f64 {
        self.allreduce_vec(ctx, ReduceOp::Sum, vec![x], phase)[0]
    }

    /// Element-wise all-reduce of an `f64` buffer, charged to `phase` (all
    /// members pass equal lengths; the result is bitwise identical on
    /// every member). Every member sends and receives one buffer per
    /// recursive-doubling round; the pairing and combination order are
    /// fixed functions of (index, size), so the result is deterministic.
    pub fn allreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> Vec<f64> {
        let (tag, seq) = self.start(ctx, op::ALLREDUCE);
        ctx.trace_open(self.span("allreduce", "group_allreduce"), seq);
        let (acc, rounds) = ctx.rd_blocking(self.rd(tag, Some(opr), phase), x);
        ctx.trace_close();
        ctx.stats_mut().record_allreduce(rounds);
        acc
    }

    /// Non-blocking element-wise all-reduce: the same deterministic
    /// recursive-doubling schedule (and bitwise-identical result) as
    /// [`Group::allreduce_vec`], but executed on a detached virtual
    /// timeline, as if by a communication offload engine. The node clock
    /// is untouched until [`AllreduceRequest::wait`], which charges only
    /// `max(clock, completion) − clock` — compute issued between start and
    /// wait hides the reduction's flight time. It shares the sequence space
    /// with the blocking collectives, so all members must issue it at the
    /// same SPMD point.
    pub fn iallreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> AllreduceRequest {
        let (tag, seq) = self.start(ctx, op::ALLREDUCE);
        ctx.trace_open(self.span("iallreduce", "group_iallreduce"), seq);
        let start = ctx.clock().now();
        let (acc, rounds, done_at) = ctx.rd_engine(self.rd(tag, Some(opr), phase), x);
        ctx.trace_close();
        ctx.stats_mut().record_allreduce(rounds);
        AllreduceRequest::new(acc, start, done_at, phase)
    }

    /// Broadcast `payload` from member index `root` over a binomial tree;
    /// every member returns the payload. The per-child `clone` is an `Arc`
    /// bump, not a buffer copy.
    pub fn bcast(
        &mut self,
        ctx: &mut NodeCtx,
        root: usize,
        payload: Payload,
        phase: CommPhase,
    ) -> Payload {
        let (tag, seq) = self.start(ctx, op::BCAST);
        let n = self.size();
        // The one trace difference between scopes beyond naming: a
        // one-member sub-communicator records no span, the world does.
        let traced = n > 1 || self.gid.is_none();
        if traced {
            ctx.trace_open(self.span("bcast", "group_bcast"), seq);
        }
        let data = if n == 1 {
            payload
        } else {
            self.tree_bcast(ctx, root, tag, payload, phase)
        };
        if traced {
            ctx.trace_close();
        }
        data
    }

    fn tree_bcast(
        &self,
        ctx: &mut NodeCtx,
        root: usize,
        tag: Tag,
        payload: Payload,
        phase: CommPhase,
    ) -> Payload {
        let n = self.size();
        let rank_of = |v: usize| self.members[(v + root) % n];
        // Virtual index: the root is 0. `top` is the highest power of two
        // below n.
        let v = (self.my_index + n - root) % n;
        let top = 1usize << (n - 1).ilog2();
        let data = if v == 0 {
            payload
        } else {
            // Receive from the parent: clear the lowest set bit.
            ctx.recv_tag(rank_of(v & (v - 1)), tag, phase).payload
        };
        // Forward to children (bits below our lowest set bit), farthest
        // subtree first so it starts as early as possible.
        let lowbit = if v == 0 {
            top << 1
        } else {
            v & v.wrapping_neg()
        };
        let mut mask = top;
        while mask > 0 {
            if mask < lowbit && (v | mask) < n {
                ctx.send_tag(rank_of(v | mask), tag, data.clone(), phase);
            }
            mask >>= 1;
        }
        data
    }

    /// Gather variable-length `f64` buffers on member index `root` (index
    /// order); the other members return `None`.
    pub fn gatherv_f64(
        &mut self,
        ctx: &mut NodeCtx,
        root: usize,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> Option<Vec<Vec<f64>>> {
        let (tag, seq) = self.start(ctx, op::GATHER);
        ctx.trace_open(self.span("gather", "group_gather"), seq);
        let out = self.gather(ctx, root, tag, x, phase);
        ctx.trace_close();
        out
    }

    /// Linear fan-in of every member's buffer to `root` under `tag`.
    fn gather<T: PayloadElem>(
        &self,
        ctx: &mut NodeCtx,
        root: usize,
        tag: Tag,
        x: Vec<T>,
        phase: CommPhase,
    ) -> Option<Vec<Vec<T>>> {
        if self.my_index != root {
            ctx.send_tag(self.members[root], tag, T::wrap(x), phase);
            return None;
        }
        let mut own = Some(x);
        Some(
            (0..self.size())
                .map(|i| {
                    if i == root {
                        own.take().expect("own slot filled once")
                    } else {
                        T::unwrap(ctx.recv_tag(self.members[i], tag, phase).payload)
                    }
                })
                .collect(),
        )
    }

    /// All-gather variable-length `f64` buffers; result indexed by member.
    pub fn allgatherv_f64(
        &mut self,
        ctx: &mut NodeCtx,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> Vec<Vec<f64>> {
        self.allgatherv(ctx, x, phase, phase)
    }

    /// All-gather ragged buffers: a gather on index 0 charged to `gather`,
    /// then broadcasts of the counts and of the flattened data charged to
    /// `bcast` (three collective instances). The world traces the three as
    /// sibling spans; a sub-communicator nests the broadcasts inside its
    /// gather span.
    pub(crate) fn allgatherv<T: PayloadElem>(
        &mut self,
        ctx: &mut NodeCtx,
        x: Vec<T>,
        gather: CommPhase,
        bcast: CommPhase,
    ) -> Vec<Vec<T>> {
        let (tag, seq) = self.start(ctx, op::GATHER);
        ctx.trace_open(self.span("gather", "group_gather"), seq);
        let gathered = self.gather(ctx, 0, tag, x, gather);
        let nested = self.gid.is_some();
        if !nested {
            ctx.trace_close();
        }
        let counts = match &gathered {
            Some(vs) => Payload::u64s(vs.iter().map(|v| v.len() as u64).collect()),
            None => Payload::Empty,
        };
        let counts = self.bcast(ctx, 0, counts, bcast);
        let flat = match gathered {
            Some(vs) => T::wrap(vs.into_iter().flatten().collect()),
            None => Payload::Empty,
        };
        let flat = self.bcast(ctx, 0, flat, bcast);
        if nested {
            ctx.trace_close();
        }
        split_by_counts(T::unwrap(flat), &counts.into_u64s())
    }

    /// Personalized all-to-all of `u64` index lists: `sends[i]` goes to
    /// member index `i`; returns the lists received from every member (own
    /// slot passed through). Every pair exchanges a message (possibly
    /// empty) — used for plan setup, where symmetric knowledge is simplest.
    pub fn alltoallv_u64(
        &mut self,
        ctx: &mut NodeCtx,
        sends: Vec<Vec<u64>>,
        phase: CommPhase,
    ) -> Vec<Vec<u64>> {
        self.alltoallv(ctx, sends, phase)
    }

    /// Personalized all-to-all of `(index, value)` pair lists (recovery
    /// gathers use this).
    pub fn alltoallv_pairs(
        &mut self,
        ctx: &mut NodeCtx,
        sends: Vec<Vec<(u64, f64)>>,
        phase: CommPhase,
    ) -> Vec<Vec<(u64, f64)>> {
        self.alltoallv(ctx, sends, phase)
    }

    /// Post all sends first (asynchronous channels — no deadlock), then
    /// receive in ascending index order; the own slot is passed through
    /// untouched.
    fn alltoallv<T: PayloadElem>(
        &mut self,
        ctx: &mut NodeCtx,
        mut sends: Vec<Vec<T>>,
        phase: CommPhase,
    ) -> Vec<Vec<T>> {
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoallv needs one list per member"
        );
        let (tag, seq) = self.start(ctx, op::ALLTOALL);
        ctx.trace_open(self.span("alltoall", "group_alltoall"), seq);
        let me = self.my_index;
        for (i, data) in sends.iter_mut().enumerate() {
            if i != me {
                ctx.send_tag(self.members[i], tag, T::wrap(std::mem::take(data)), phase);
            }
        }
        let mut own = Some(std::mem::take(&mut sends[me]));
        let out = (0..self.size())
            .map(|i| {
                if i == me {
                    own.take().expect("own slot filled once")
                } else {
                    T::unwrap(ctx.recv_tag(self.members[i], tag, phase).payload)
                }
            })
            .collect();
        ctx.trace_close();
        out
    }
}

/// Split a flattened buffer back into per-member pieces of the given
/// lengths.
fn split_by_counts<T>(flat: Vec<T>, counts: &[u64]) -> Vec<Vec<T>> {
    debug_assert_eq!(flat.len() as u64, counts.iter().sum::<u64>());
    let mut it = flat.into_iter();
    counts
        .iter()
        .map(|&c| it.by_ref().take(c as usize).collect())
        .collect()
}

fn fnv1a(members: &[usize]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &m in members {
        for b in (m as u64).to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
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
