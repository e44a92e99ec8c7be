//! Message tags.
//!
//! Tags disambiguate concurrent communication streams, like MPI tags plus
//! MPI's internal collective contexts. The 64-bit tag space is split into:
//!
//! * **user** tags — point-to-point solver traffic (SpMV ghost exchange,
//!   redundancy copies, recovery gathers), identified by a small `u32`;
//! * **collective** tags — the world communicator's collectives. Every
//!   collective call on a communicator consumes one *sequence number*; since
//!   the programs are SPMD, all ranks issue collectives in the same order
//!   and the sequence numbers agree without negotiation;
//! * **group** tags — collectives on sub-communicators, additionally scoped
//!   by a group id that member ranks derive identically from the member set.

/// A message tag (total order, cheap copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

const KIND_USER: u64 = 0;
const KIND_COLL: u64 = 1;
const KIND_GROUP: u64 = 2;

impl Tag {
    /// A user (application-level) point-to-point tag.
    pub fn user(t: u32) -> Self {
        Tag((KIND_USER << 62) | t as u64)
    }

    /// An internal collective tag: `op` identifies the collective kind,
    /// `seq` the per-communicator collective sequence number.
    pub fn coll(op: u8, seq: u64) -> Self {
        debug_assert!(seq < (1 << 48), "collective sequence overflow");
        Tag((KIND_COLL << 62) | ((op as u64) << 48) | (seq & ((1 << 48) - 1)))
    }

    /// A sub-communicator collective tag, scoped by `gid`: `seq` fills a
    /// 22-bit field.
    pub fn group(gid: u32, op: u8, seq: u32) -> Self {
        debug_assert!(seq < (1 << 22), "group collective sequence overflow");
        Tag((KIND_GROUP << 62) | ((gid as u64) << 30) | ((op as u64) << 22) | seq as u64)
    }

    /// The collective instance this tag belongs to: the tag with its
    /// operation field cleared, leaving kind, communicator and sequence
    /// number. Every collective call consumes its own sequence number, so
    /// the instance is unique; members that disagree on the operation
    /// still meet under it, and the disagreement is reported instead of
    /// deadlocking.
    pub(crate) fn instance(self) -> Tag {
        match self.0 >> 62 {
            KIND_COLL => Tag(self.0 & !(0xFF << 48)),
            KIND_GROUP => Tag(self.0 & !(0xFF << 22)),
            _ => self,
        }
    }

    /// The collective operation of a collective or group tag (a
    /// [`op`] constant).
    pub(crate) fn op(self) -> u8 {
        match self.0 >> 62 {
            KIND_COLL => ((self.0 >> 48) & 0xFF) as u8,
            KIND_GROUP => ((self.0 >> 22) & 0xFF) as u8,
            _ => 0,
        }
    }

    /// The communicator scope (`None` for the world, `Some(gid)` for a
    /// group) and sequence number of a collective or group tag.
    pub(crate) fn scope_seq(self) -> (Option<u32>, u64) {
        match self.0 >> 62 {
            KIND_GROUP => (
                Some(((self.0 >> 30) & 0xFFFF_FFFF) as u32),
                self.0 & ((1 << 22) - 1),
            ),
            _ => (None, self.0 & ((1 << 48) - 1)),
        }
    }

    /// Human-readable decoding for diagnostics ("user(7)",
    /// "coll(allreduce, seq 3)", "group(gid 0x2a, gather, seq 1)", …).
    pub fn describe(&self) -> String {
        let name = op::name(self.op());
        match (self.0 >> 62, self.scope_seq()) {
            (KIND_USER, _) => format!("user({})", self.0 & 0xFFFF_FFFF),
            (KIND_COLL, (_, seq)) => format!("coll({name}, seq {seq})"),
            (KIND_GROUP, (Some(gid), seq)) => format!("group(gid {gid:#x}, {name}, seq {seq})"),
            _ => format!("invalid({:#x})", self.0),
        }
    }
}

/// Collective operation identifiers (for tag scoping only).
pub mod op {
    /// Barrier synchronization.
    pub const BARRIER: u8 = 1;
    /// Broadcast.
    pub const BCAST: u8 = 2;
    /// Reduction.
    pub const REDUCE: u8 = 3;
    /// Gather / all-gather.
    pub const GATHER: u8 = 4;
    /// Personalized all-to-all.
    pub const ALLTOALL: u8 = 5;
    /// Scatter.
    pub const SCATTER: u8 = 6;
    /// Recursive-doubling all-reduce (one tag covers all of its rounds:
    /// within one call every ordered pair of ranks exchanges at most one
    /// message, so rounds cannot be confused in the per-`(peer, tag)`
    /// accounting and trace sequence numbers).
    pub const ALLREDUCE: u8 = 7;

    /// The operation's name, for diagnostics.
    pub(crate) fn name(op: u8) -> &'static str {
        match op {
            BARRIER => "barrier",
            BCAST => "bcast",
            REDUCE => "reduce",
            GATHER => "gather",
            ALLTOALL => "alltoall",
            SCATTER => "scatter",
            ALLREDUCE => "allreduce",
            _ => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_spaces_disjoint() {
        // A user tag can never collide with a collective or group tag.
        let u = Tag::user(42);
        let c = Tag::coll(op::BARRIER, 42);
        let g = Tag::group(0, op::BARRIER, 42);
        assert_ne!(u, c);
        assert_ne!(u, g);
        assert_ne!(c, g);
    }

    #[test]
    fn collective_sequences_distinct() {
        assert_ne!(Tag::coll(op::BCAST, 1), Tag::coll(op::BCAST, 2));
        assert_ne!(Tag::coll(op::BCAST, 1), Tag::coll(op::REDUCE, 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "group collective sequence overflow")]
    fn group_sequence_overflow_is_caught() {
        // From 2^22 collectives on one group the sequence number would
        // bleed into the operation bits.
        let _ = Tag::group(1, op::ALLREDUCE, 1 << 22);
    }

    #[test]
    fn group_ids_scope_tags() {
        assert_ne!(Tag::group(1, op::GATHER, 5), Tag::group(2, op::GATHER, 5));
    }

    #[test]
    fn instance_keeps_scope_and_seq_but_not_op() {
        let a = Tag::coll(op::ALLREDUCE, 9);
        let b = Tag::coll(op::BARRIER, 9);
        assert_eq!(a.instance(), b.instance());
        assert_ne!(a.instance(), Tag::coll(op::ALLREDUCE, 10).instance());
        assert_eq!((a.op(), a.scope_seq()), (op::ALLREDUCE, (None, 9)));
        let g = Tag::group(0x2A, op::ALLREDUCE, 3);
        assert_eq!(g.instance(), Tag::group(0x2A, op::BARRIER, 3).instance());
        assert_ne!(g.instance(), Tag::group(0x2B, op::ALLREDUCE, 3).instance());
        assert_ne!(g.instance(), Tag::coll(op::ALLREDUCE, 3).instance());
        assert_eq!((g.op(), g.scope_seq()), (op::ALLREDUCE, (Some(0x2A), 3)));
    }

    #[test]
    fn describe_decodes_every_kind() {
        assert_eq!(Tag::user(42).describe(), "user(42)");
        assert_eq!(
            Tag::coll(op::ALLREDUCE, 3).describe(),
            "coll(allreduce, seq 3)"
        );
        assert_eq!(
            Tag::group(0x2A, op::GATHER, 1).describe(),
            "group(gid 0x2a, gather, seq 1)"
        );
    }
}
