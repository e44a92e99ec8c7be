//! Seeded-violation self-tests for the protocol checks.
//!
//! Each test plants one historical (or representative) protocol bug behind a
//! test double and asserts that the runtime detects it **and names it** —
//! rank, tag, and violated invariant. A checker that cannot re-find the
//! bugs it was built for is worse than no checker, so this suite is the
//! checks' own acceptance test.
//!
//! Collective agreement is checked in every build (the rendezvous, the
//! deadlock report, the debug teardown drain check). Non-overtaking, tag
//! windows and drain provenance read the `trace` event log, so those tests
//! run under `--features trace`.

use std::panic::{catch_unwind, AssertUnwindSafe};

#[cfg(feature = "trace")]
use parcomm::Payload;
use parcomm::{Cluster, ClusterConfig, CommPhase, ReduceOp};

/// Run a program that must panic on an `n`-node cluster; return the panic
/// message.
fn expect_panic<T, F>(n: usize, f: F) -> String
where
    T: Send,
    F: Fn(&mut parcomm::NodeCtx) -> T + Sync,
    F: std::panic::RefUnwindSafe,
{
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = Cluster::run(ClusterConfig::new(n), f);
    }))
    .expect_err("the protocol checks must have flagged this run");
    err.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
        .to_string()
}

// ---- (1) message drain ----------------------------------------------------

#[cfg(feature = "trace")]
#[test]
fn orphaned_message_is_named_with_provenance() {
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            // Send that no receive will ever match.
            ctx.send(1, 3, Payload::F64(1.0), CommPhase::Other);
        }
    });
    assert!(msg.contains("parcomm audit"), "{msg}");
    assert!(msg.contains("[message-drain]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("from rank 0"), "{msg}");
    assert!(msg.contains("user(3)"), "{msg}");
}

// ---- (2) non-overtaking ---------------------------------------------------

#[cfg(feature = "trace")]
#[test]
fn resurrected_swap_remove_fifo_bug_is_caught() {
    // An early mailbox used `Vec::swap_remove` in the pending-queue match,
    // which reordered same-(src, tag) messages once two were queued. The
    // bug is re-seeded behind a test double; the check must name the
    // reorder.
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            for v in [1.0, 2.0, 3.0] {
                ctx.send(1, 7, Payload::F64(v), CommPhase::Other);
            }
            ctx.send(1, 9, Payload::F64(9.0), CommPhase::Other);
        } else {
            ctx.audit_seed_fifo_bug();
            // Receiving tag 9 first forces the three tag-7 messages through
            // the pending queue, where the seeded swap_remove reorders them.
            let _ = ctx.recv(0, 9);
            for _ in 0..3 {
                let _ = ctx.recv(0, 7);
            }
        }
    });
    assert!(msg.contains("[non-overtaking]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("user(7)"), "{msg}");
    assert!(msg.contains("send order"), "{msg}");
}

// ---- (3) collective agreement (every build) --------------------------------

#[test]
fn mismatched_reduce_operators_are_caught() {
    // Both ranks complete (n = 2 exchanges one message each way), the
    // results silently disagree — exactly the class of corruption that
    // today manifests as a wrong residual thousands of iterations later.
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.allreduce_sum(1.0)
        } else {
            ctx.allreduce_max(1.0)
        }
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("seq 0"), "{msg}");
    assert!(msg.contains("Sum"), "{msg}");
    assert!(msg.contains("Max"), "{msg}");
}

#[test]
fn length_mismatched_collective_is_caught() {
    let msg = expect_panic(2, |ctx| {
        let n = 1 + ctx.rank(); // rank 0 contributes len 1, rank 1 len 2
        ctx.allreduce_vec(ReduceOp::Sum, vec![1.0; n])
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("len 1"), "{msg}");
    assert!(msg.contains("len 2"), "{msg}");
}

#[cfg(any(debug_assertions, feature = "trace"))]
#[test]
fn world_bcast_against_gather_is_caught_as_residue() {
    // Rank 0 roots a broadcast while ranks 1 and 2 send their gather
    // contributions to it: every call completes, and the teardown drain
    // check names the messages nobody received.
    let msg = expect_panic(3, |ctx| {
        if ctx.rank() == 0 {
            let _ = ctx.bcast(0, parcomm::Payload::F64(1.0));
        } else {
            let _ = ctx.gatherv_f64(0, vec![1.0]);
        }
    });
    assert!(msg.contains("[message-drain]"), "{msg}");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains("coll(gather, seq 0)"), "{msg}");
}

#[test]
fn group_member_set_mismatch_is_caught_as_deadlock() {
    // Rank 0 gathers over {0, 1} while ranks 1 and 2 use {0, 1, 2}: the
    // two sets derive different group ids, so rank 0's receive can never
    // match.
    let msg = expect_panic(3, |ctx| {
        let members: &[usize] = if ctx.rank() == 0 { &[0, 1] } else { &[0, 1, 2] };
        let mut g = ctx.group(members);
        let _ = g.gatherv_f64(ctx, 0, vec![1.0], CommPhase::Recovery);
    });
    assert!(msg.contains("[deadlock]"), "{msg}");
    assert!(
        msg.contains("rank 0 blocked in recv(src 1, tag group(gid "),
        "{msg}"
    );
    assert!(msg.contains("gather, seq 0))"), "{msg}");
}

// ---- (4) tag-window disjointness ------------------------------------------

#[cfg(feature = "trace")]
#[test]
fn cross_attempt_tag_reuse_is_caught() {
    // Rank 0 sends inside recovery attempt 0; rank 1 matches it from
    // attempt 1 — the cross-attempt match the engine's restart protocol
    // must never allow.
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(0);
            ctx.send(1, 5, Payload::F64(1.0), CommPhase::Recovery);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(1);
            let _ = ctx.recv(0, 5);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("[tag-window]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("user(5)"), "{msg}");
    assert!(msg.contains("recovery window 0"), "{msg}");
    assert!(msg.contains("recovery window 1"), "{msg}");
}

#[cfg(feature = "trace")]
#[test]
fn window_close_with_unconsumed_recovery_message_panics() {
    // A recovery-window message still queued when its window closes is
    // flagged *at the boundary* (not only at teardown): the next attempt
    // must start with a clean slate.
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(2);
            ctx.send(1, 4, Payload::F64(1.0), CommPhase::Recovery);
            ctx.send(1, 8, Payload::F64(2.0), CommPhase::Recovery);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(2);
            // Receiving the marker (tag 8) first parks the tag-4 message in
            // the pending queue, so it is provably queued at window close.
            let _ = ctx.recv(0, 8);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("recovery window 2 closed"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("user(4)"), "{msg}");
}

// The engine's checkpoint traffic uses tags from the recovery range
// ((1 << 16) + seq * 32 + offset) with offset 0 for periodic deposits and
// offset 1 for rollback fetches; both flow inside tag windows numbered by
// the shared recovery sequence. These two tests seed the checkpoint-specific
// leak shapes and prove the window invariants cover them.

#[cfg(feature = "trace")]
#[test]
fn leaked_checkpoint_deposit_is_flagged_at_window_close() {
    // A deposit replica pushed to a partner that never receives it — the
    // bug a mis-rebuilt ring placement after a shrink would produce. The
    // deposit travels in the Redundancy phase, but window residue is
    // phase-blind: the window stamp alone must flag it at the boundary.
    const DEPOSIT_TAG: u32 = (1 << 16) + 6 * 32; // tag(seq 6, OFF_CKPT)
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(6);
            ctx.send(1, DEPOSIT_TAG, Payload::F64(1.0), CommPhase::Redundancy);
            // Marker so the deposit is provably queued before rank 1 exits.
            ctx.send(1, 8, Payload::F64(2.0), CommPhase::Redundancy);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(6);
            let _ = ctx.recv(0, 8);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("[message-drain]"), "{msg}");
    assert!(msg.contains("recovery window 6 closed"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("from rank 0"), "{msg}");
    assert!(msg.contains(&format!("user({DEPOSIT_TAG})")), "{msg}");
}

#[cfg(feature = "trace")]
#[test]
fn checkpoint_fetch_across_windows_is_flagged() {
    // A rollback fetch deposited in one recovery attempt must never satisfy
    // a receive posted in a later attempt — a desynchronized recovery
    // sequence (one rank skipping a deposit round) would produce exactly
    // this cross-window match.
    const FETCH_TAG: u32 = (1 << 16) + 3 * 32 + 1; // tag(seq 3, OFF_FETCH)
    let msg = expect_panic(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(3);
            ctx.send(1, FETCH_TAG, Payload::F64(1.0), CommPhase::Recovery);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(4);
            let _ = ctx.recv(0, FETCH_TAG);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("[tag-window]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains(&format!("user({FETCH_TAG})")), "{msg}");
    assert!(msg.contains("recovery window 3"), "{msg}");
    assert!(msg.contains("recovery window 4"), "{msg}");
}

// ---- clean runs stay clean ------------------------------------------------

#[cfg(feature = "trace")]
#[test]
fn full_protocol_workout_is_audit_clean() {
    // Point-to-point, world + group collectives, non-blocking all-reduce,
    // and a recovery window, all properly drained: the checks must stay
    // silent (a checker that cries wolf gets turned off).
    let out = Cluster::run(ClusterConfig::new(4), |ctx| {
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, 11, Payload::F64(ctx.rank() as f64), CommPhase::Other);
        let from_prev = ctx.recv(prev, 11).into_f64();

        let total = ctx.allreduce_sum(1.0);
        let req = ctx.iallreduce_vec(ReduceOp::Max, vec![ctx.rank() as f64]);
        let mx = req.wait(ctx)[0];

        ctx.audit_enter_window(0);
        let gsum = if ctx.rank() < 2 {
            let mut g = ctx.group(&[0, 1]);
            g.allreduce_sum(ctx, 1.0, CommPhase::Recovery)
        } else {
            0.0
        };
        ctx.audit_exit_window();
        ctx.barrier();
        (from_prev, total, mx, gsum)
    });
    for (rank, &(from_prev, total, mx, gsum)) in out.iter().enumerate() {
        let prev = (rank + 3) % 4;
        assert_eq!(from_prev, prev as f64);
        assert_eq!(total, 4.0);
        assert_eq!(mx, 3.0);
        assert_eq!(gsum, if rank < 2 { 2.0 } else { 0.0 });
    }
}
