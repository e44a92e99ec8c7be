//! Per-node mailboxes with `(source, tag)` matching.
//!
//! Each node owns one unbounded MPSC channel; every other node holds a clone
//! of the sender. Because messages from *different* sources interleave
//! arbitrarily, a receive for a specific `(src, tag)` buffers any
//! non-matching messages in a pending list — the standard MPI unexpected-
//! message queue.
//!
//! A receive that finds no match does not poll: it parks the node on the
//! cluster's [`crate::sched::Scheduler`], which hands the baton to the next
//! runnable node and wakes this one when a matching send arrives. A receive
//! that can *never* match — a wait-for cycle, or a wait on a terminated
//! rank — is detected the moment the cluster runs out of runnable nodes and
//! panics with the exact wait-for chain spelled out (in every build, not
//! just under `--features audit`).
//!
//! A standalone mailbox (no scheduler installed — unit tests drive it
//! directly) panics immediately on a would-block receive: with no peers to
//! park for, an unmatched receive is always a bug.

use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::Arc;

use crate::payload::Message;
use crate::sched::{BlockedOn, Scheduler};
use crate::tag::Tag;

/// The receiving half of a node's mailbox.
pub struct Mailbox {
    rank: usize,
    rx: Receiver<Message>,
    /// Unexpected-message queue: arrived but not yet matched.
    pending: Vec<Message>,
    /// The cluster's node scheduler; `None` for standalone mailboxes.
    sched: Option<Arc<Scheduler>>,
    /// Test double: reintroduces the PR 2 `swap_remove` FIFO defect so the
    /// auditor's non-overtaking check can be proven against it.
    #[cfg(feature = "audit")]
    fifo_bug: bool,
}

/// A handle for delivering messages to some node.
pub type Outbox = Sender<Message>;

impl Mailbox {
    /// Create a mailbox for `rank`; returns the mailbox and the sender handle
    /// to distribute to all peers.
    pub fn new(rank: usize) -> (Self, Outbox) {
        let (tx, rx) = unbounded();
        (
            Mailbox {
                rank,
                rx,
                pending: Vec::new(),
                sched: None,
                #[cfg(feature = "audit")]
                fifo_bug: false,
            },
            tx,
        )
    }

    /// Attach the cluster's node scheduler: would-block receives park there
    /// instead of panicking.
    pub(crate) fn install_sched(&mut self, sched: Arc<Scheduler>) {
        self.sched = Some(sched);
    }

    #[cfg(feature = "audit")]
    pub(crate) fn seed_fifo_bug(&mut self) {
        self.fifo_bug = true;
    }

    /// Remove and return `pending[pos]`, preserving arrival order.
    fn take_pending(&mut self, pos: usize) -> Message {
        #[cfg(feature = "audit")]
        if self.fifo_bug {
            // Test double: the PR 2 defect. `swap_remove` moves the last
            // buffered message into this slot, so a later receive for the
            // same `(src, tag)` matches out of arrival order.
            return self.pending.swap_remove(pos);
        }
        // Order-preserving removal: `swap_remove` would reorder later
        // same-`(src, tag)` matches — an MPI non-overtaking violation.
        self.pending.remove(pos)
    }

    /// Pull everything already delivered into the pending queue; returns
    /// whether anything arrived.
    fn drain_channel(&mut self) -> bool {
        let mut arrived = false;
        while let Ok(m) = self.rx.try_recv() {
            self.pending.push(m);
            arrived = true;
        }
        arrived
    }

    /// Blocking receive matching an exact `(src, tag)`; `now` is the node's
    /// current virtual time (recorded by the scheduler while parked).
    ///
    /// # Panics
    /// Panics when the receive can never be matched: the scheduler detects
    /// the moment no node is runnable and reports the exact wait-for cycle
    /// (or terminated-rank chain). A standalone mailbox panics immediately.
    pub fn recv(&mut self, src: usize, tag: Tag, now: f64) -> Message {
        self.recv_matching(Some(src), tag, now).0
    }

    /// Blocking receive matching a tag from *any* source. Returns the full
    /// message so the caller learns the source.
    pub fn recv_any(&mut self, tag: Tag, now: f64) -> Message {
        self.recv_matching(None, tag, now).0
    }

    /// Blocking receive matching `(src, tag)` (`src: None` ⇒ any source);
    /// also returns how many times the node parked waiting for it.
    pub(crate) fn recv_matching(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        now: f64,
    ) -> (Message, u64) {
        let matches = |m: &Message| src.is_none_or(|s| m.src == s) && m.tag == tag;
        let mut parks = 0;
        loop {
            if let Some(pos) = self.pending.iter().position(matches) {
                return (self.take_pending(pos), parks);
            }
            if self.drain_channel() {
                continue;
            }
            // Nothing delivered matches: park until a matching send wakes
            // us (the re-scan above is then guaranteed to succeed — the
            // scheduler wakes on match only).
            parks += 1;
            match &self.sched {
                Some(sched) => sched.park_recv(self.rank, BlockedOn { src, tag }, now),
                None => panic!(
                    "rank {}: deadlock waiting for {} with tag {:?} \
                     ({} unexpected messages pending)",
                    self.rank,
                    match src {
                        Some(s) => format!("message from rank {s}"),
                        None => "any-source message".to_string(),
                    },
                    tag,
                    self.pending.len()
                ),
            }
        }
    }

    /// Non-blocking, **non-consuming** probe for an exact `(src, tag)`
    /// match: drains whatever has already been delivered into the pending
    /// queue, then returns a reference to the earliest-arrived match, if
    /// any. Never blocks and never removes — the `RecvRequest::test` path
    /// of the non-blocking API. Because nothing is consumed, a later
    /// blocking `recv` (or the request's own `wait`) still matches
    /// messages purely in program order, keeping payload matching
    /// independent of delivery timing.
    pub fn peek_match(&mut self, src: usize, tag: Tag) -> Option<&Message> {
        self.drain_channel();
        self.pending.iter().find(|m| m.src == src && m.tag == tag)
    }

    /// Drain the channel and hand over everything still unconsumed. Called
    /// by the cluster after all node threads have joined (so every send has
    /// landed); any message here was never matched by a receive. The leak
    /// check that consumes this only exists in debug and audit builds.
    #[cfg(any(debug_assertions, feature = "audit", test))]
    pub(crate) fn drain_residue(&mut self) -> Vec<Message> {
        self.drain_channel();
        std::mem::take(&mut self.pending)
    }

    /// Recovery-attempt boundary check: when the engine closes tag window
    /// `window`, no message stamped with it may remain undelivered to the
    /// program — such a message could only ever be matched (wrongly) by a
    /// later attempt, or leak. Panics with provenance if one is found.
    #[cfg(feature = "audit")]
    pub(crate) fn scan_window_residue(&mut self, window: u32) {
        self.drain_channel();
        if let Some(m) = self.pending.iter().find(|m| m.stamp.window == Some(window)) {
            panic!(
                "[message-drain] rank {}: recovery window {window} closed with an \
                 unconsumed message from rank {} (tag {}, {} elems, send #{})",
                self.rank,
                m.src,
                m.tag.describe(),
                m.payload.elems(),
                m.stamp.seq,
            );
        }
    }

    /// Number of buffered unexpected messages (diagnostics).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn msg(src: usize, tag: Tag, x: f64) -> Message {
        Message::new(src, tag, Payload::F64(x), 0.0)
    }

    #[test]
    fn matches_src_and_tag() {
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(2, Tag::user(9), 2.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 1.0)).unwrap();
        // Ask for the later-sent message first: the other must be buffered.
        let m = mb.recv(1, Tag::user(7), 0.0);
        assert_eq!(m.payload, Payload::F64(1.0));
        assert_eq!(mb.pending_len(), 1);
        let m = mb.recv(2, Tag::user(9), 0.0);
        assert_eq!(m.payload, Payload::F64(2.0));
        assert_eq!(mb.pending_len(), 0);
    }

    #[test]
    fn same_src_tag_preserves_fifo() {
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(1, Tag::user(7), 1.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 2.0)).unwrap();
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(1.0));
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(2.0));
    }

    #[test]
    fn fifo_preserved_with_three_buffered_same_key() {
        // Regression: with ≥3 messages of the same (src, tag) parked in the
        // pending queue, `swap_remove` matched the *third* before the
        // second. Force all three into pending by receiving an unrelated
        // message first, then drain them and demand arrival order.
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(1, Tag::user(7), 1.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 2.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 3.0)).unwrap();
        tx.send(msg(2, Tag::user(9), 99.0)).unwrap();
        assert_eq!(mb.recv(2, Tag::user(9), 0.0).payload, Payload::F64(99.0));
        assert_eq!(mb.pending_len(), 3);
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(1.0));
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(2.0));
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(3.0));
        assert_eq!(mb.pending_len(), 0);
    }

    #[test]
    fn recv_any_fifo_with_buffered_same_key() {
        // Same regression through the any-source path.
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(1, Tag::user(7), 1.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 2.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 3.0)).unwrap();
        tx.send(msg(2, Tag::user(9), 99.0)).unwrap();
        assert_eq!(mb.recv(2, Tag::user(9), 0.0).payload, Payload::F64(99.0));
        assert_eq!(mb.recv_any(Tag::user(7), 0.0).payload, Payload::F64(1.0));
        assert_eq!(mb.recv_any(Tag::user(7), 0.0).payload, Payload::F64(2.0));
        assert_eq!(mb.recv_any(Tag::user(7), 0.0).payload, Payload::F64(3.0));
    }

    #[test]
    fn peek_match_is_nonblocking_and_nonconsuming() {
        let (mut mb, tx) = Mailbox::new(0);
        assert!(mb.peek_match(1, Tag::user(7)).is_none());
        tx.send(msg(1, Tag::user(7), 1.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 2.0)).unwrap();
        tx.send(msg(2, Tag::user(9), 9.0)).unwrap();
        // Peek sees the earliest-arrived match and does not consume it...
        assert_eq!(
            mb.peek_match(1, Tag::user(7)).unwrap().payload,
            Payload::F64(1.0)
        );
        assert_eq!(
            mb.peek_match(1, Tag::user(7)).unwrap().payload,
            Payload::F64(1.0)
        );
        // ...so a blocking recv still matches in arrival order.
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(1.0));
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(2.0));
        assert_eq!(mb.recv(2, Tag::user(9), 0.0).payload, Payload::F64(9.0));
    }

    #[test]
    fn recv_any_returns_source() {
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(5, Tag::user(3), 4.0)).unwrap();
        let m = mb.recv_any(Tag::user(3), 0.0);
        assert_eq!(m.src, 5);
    }

    #[test]
    fn pending_scan_prefers_earliest_match() {
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(1, Tag::user(1), 1.0)).unwrap();
        tx.send(msg(1, Tag::user(2), 2.0)).unwrap();
        // Buffer both by asking for something else first? Instead: receive
        // tag 2, which buffers tag 1, then receive tag 1 from pending.
        assert_eq!(mb.recv(1, Tag::user(2), 0.0).payload, Payload::F64(2.0));
        assert_eq!(mb.recv(1, Tag::user(1), 0.0).payload, Payload::F64(1.0));
    }

    #[test]
    fn drain_residue_hands_over_everything() {
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(1, Tag::user(1), 1.0)).unwrap();
        tx.send(msg(2, Tag::user(2), 2.0)).unwrap();
        // Buffer the first by receiving the second.
        assert_eq!(mb.recv(2, Tag::user(2), 0.0).payload, Payload::F64(2.0));
        tx.send(msg(3, Tag::user(3), 3.0)).unwrap();
        let residue = mb.drain_residue();
        assert_eq!(residue.len(), 2);
        assert_eq!(residue[0].src, 1); // buffered pending first…
        assert_eq!(residue[1].src, 3); // …then the undelivered channel tail
        assert_eq!(mb.pending_len(), 0);
    }

    #[test]
    #[should_panic(expected = "deadlock waiting for message from rank 1")]
    fn standalone_would_block_panics_immediately() {
        // No scheduler installed: a receive that cannot match must fail
        // fast, not hang (the old runtime slept 300 s here).
        let (mut mb, tx) = Mailbox::new(0);
        tx.send(msg(2, Tag::user(9), 2.0)).unwrap();
        mb.recv(1, Tag::user(7), 0.0);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn fifo_bug_double_reorders_same_key_matches() {
        let (mut mb, tx) = Mailbox::new(0);
        mb.seed_fifo_bug();
        tx.send(msg(1, Tag::user(7), 1.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 2.0)).unwrap();
        tx.send(msg(1, Tag::user(7), 3.0)).unwrap();
        tx.send(msg(2, Tag::user(9), 99.0)).unwrap();
        assert_eq!(mb.recv(2, Tag::user(9), 0.0).payload, Payload::F64(99.0));
        // The defect: matching the earliest entry but removing with
        // swap_remove delivers 1, then *3*, then 2.
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(1.0));
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(3.0));
        assert_eq!(mb.recv(1, Tag::user(7), 0.0).payload, Payload::F64(2.0));
    }
}
