//! Recursive-doubling collectives, completed in one step at a scheduler
//! rendezvous.
//!
//! Every all-reduce and barrier — world or group, blocking or not — runs
//! the standard MPICH recursive-doubling schedule, fixed by
//! `(participant index, size)` so floating-point reductions are bitwise
//! reproducible:
//!
//! 1. **Fold-in** (non-power-of-two sizes only): the first `2·rem`
//!    indices pair up `(2k, 2k+1)`; evens push their buffer to the odd
//!    neighbour and sit out. `pof2 = n − rem` participants remain.
//! 2. **Doubling**: `log₂(pof2)` rounds; in round `mask` each participant
//!    exchanges its partial with `index ⊕ mask` and both combine, always
//!    lower-index group first, so both partners hold bitwise-identical
//!    buffers after every round.
//! 3. **Fold-out**: the odd fold-in indices return the finished result to
//!    their even neighbours.
//!
//! The schedule is not executed by message passing. Each member deposits
//! its entry clock and buffer at the rendezvous and parks (see
//! [`crate::sched`]); the last member to arrive runs [`complete`], which
//! plays every round for every member in memory: each send advances its
//! sender's clock by `λ + s·µ` and stamps the message with the result,
//! each receive advances its receiver to `max(clock, stamp)` — the exact
//! clock algebra of [`crate::vclock`], evaluated round by round. Every
//! member then replays only its own part from its [`RdPlan`]: the send
//! and stall charges, statistics and trace events a message-passing run
//! would have produced, with the same arrival stamps. Results, clocks,
//! `CommStats` and traces are therefore bitwise what the messages gave,
//! while the host pays `n − 1` baton handoffs per collective instead of
//! one per message.

use crate::comm::ReduceOp;
use crate::tag::{op, Tag};

/// One member's contribution to a recursive-doubling collective.
pub(crate) struct RdCall {
    /// The member's participant index in its communicator.
    pub index: usize,
    /// The member's full collective tag (operation included).
    pub tag: Tag,
    /// Reduction operator; `None` for a barrier.
    pub opr: Option<ReduceOp>,
    /// Number of participants the member believes the communicator has.
    pub n: usize,
    /// The member's clock on entry: where its timeline starts.
    pub clock: f64,
    /// `λ + s·µ` of one message carrying `buf` under the member's model.
    pub msg_cost: f64,
    /// The member's contribution (empty for a barrier).
    pub buf: Vec<f64>,
}

/// One round of a member's part in the schedule. In every round a member
/// talks to exactly one peer: it sends first (if `send`), then receives
/// (if `recv`), as the message-passing schedule did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RdRound {
    /// Global rank of the round's peer.
    pub peer: usize,
    /// The member sends its partial to `peer`.
    pub send: bool,
    /// The member receives `peer`'s partial, stamped with this arrival.
    pub recv: Option<f64>,
}

/// What the completion step hands one member.
pub(crate) struct RdPlan {
    /// The reduced buffer, bitwise identical on every member.
    pub result: Vec<f64>,
    /// Elements per message (the agreed buffer length).
    pub elems: usize,
    /// The member's rounds, in order.
    pub rounds: Vec<RdRound>,
}

impl RdPlan {
    /// The plan of a single-member communicator: nothing to exchange.
    pub(crate) fn alone(buf: Vec<f64>) -> Self {
        RdPlan {
            elems: buf.len(),
            result: buf,
            rounds: Vec::new(),
        }
    }
}

/// Run the schedule for all `calls` (in participant-index order; `members`
/// maps indices to global ranks). Returns each member's plan in the same
/// order, or — when the members disagree on the operation, operator, size
/// or length — the `[collective-mismatch]` report.
pub(crate) fn complete(calls: Vec<RdCall>, members: &[usize]) -> Result<Vec<RdPlan>, String> {
    check_agreement(&calls, members)?;
    let n = calls.len();
    let elems = calls[0].buf.len();
    let opr = calls[0].opr.unwrap_or(ReduceOp::Sum);
    let pof2 = prev_power_of_two(n);
    let rem = n - pof2;
    // The participant holding doubling index `d`.
    let orig = |d: usize| if d < rem { 2 * d + 1 } else { d + rem };

    // The timeline: every member's clock, round by round.
    let mut clock: Vec<f64> = calls.iter().map(|c| c.clock).collect();
    let cost: Vec<f64> = calls.iter().map(|c| c.msg_cost).collect();
    let depth = pof2.trailing_zeros() as usize + 2;
    let mut rounds: Vec<Vec<RdRound>> = (0..n).map(|_| Vec::with_capacity(depth)).collect();
    let send = |clock: &mut [f64], i: usize| {
        clock[i] += cost[i];
        clock[i]
    };
    let absorb = |t: &mut f64, arrival: f64| {
        if arrival > *t {
            *t = arrival;
        }
    };
    let one_way = |from: usize, to: usize, clock: &mut Vec<f64>, rounds: &mut Vec<Vec<RdRound>>| {
        let at = send(clock, from);
        rounds[from].push(RdRound {
            peer: members[to],
            send: true,
            recv: None,
        });
        absorb(&mut clock[to], at);
        rounds[to].push(RdRound {
            peer: members[from],
            send: false,
            recv: Some(at),
        });
    };
    for k in 0..rem {
        one_way(2 * k, 2 * k + 1, &mut clock, &mut rounds);
    }
    let mut stamps = vec![0.0; pof2];
    let mut mask = 1;
    while mask < pof2 {
        for (v, s) in stamps.iter_mut().enumerate() {
            *s = send(&mut clock, orig(v));
        }
        for v in 0..pof2 {
            let (i, p) = (orig(v), v ^ mask);
            absorb(&mut clock[i], stamps[p]);
            rounds[i].push(RdRound {
                peer: members[orig(p)],
                send: true,
                recv: Some(stamps[p]),
            });
        }
        mask <<= 1;
    }
    for k in 0..rem {
        one_way(2 * k + 1, 2 * k, &mut clock, &mut rounds);
    }

    // The reduction. After doubling round `mask` every aligned block of
    // 2·mask indices holds `block(lower half) ⊕ block(upper half)`, so one
    // combine per block reproduces what every member computed.
    let mut bufs: Vec<Vec<f64>> = calls.into_iter().map(|c| c.buf).collect();
    let mut acc: Vec<Vec<f64>> = (0..pof2)
        .map(|d| {
            if d < rem {
                let mut lower = std::mem::take(&mut bufs[2 * d]);
                opr.combine(&mut lower, &bufs[2 * d + 1]);
                lower
            } else {
                std::mem::take(&mut bufs[d + rem])
            }
        })
        .collect();
    let mut mask = 1;
    while mask < pof2 {
        for v in (0..pof2).step_by(2 * mask) {
            let (lower, upper) = acc.split_at_mut(v + mask);
            opr.combine(&mut lower[v], &upper[0]);
        }
        mask <<= 1;
    }
    let result = std::mem::take(&mut acc[0]);
    Ok(rounds
        .into_iter()
        .map(|rounds| RdPlan {
            result: result.clone(),
            elems,
            rounds,
        })
        .collect())
}

/// Every member must have issued the same operation, operator and
/// communicator size, with equal buffer lengths — otherwise the combine
/// would silently truncate to the shorter buffer.
fn check_agreement(calls: &[RdCall], members: &[usize]) -> Result<(), String> {
    let c0 = &calls[0];
    let (scope, seq) = c0.tag.scope_seq();
    let at = format!(
        "[collective-mismatch] {} collective seq {seq}",
        scope_name(scope)
    );
    // "allreduce(Sum) len 3 on 8 members".
    let issued = |c: &RdCall| {
        let rop = c.opr.map_or(String::new(), |rop| format!("({rop:?})"));
        format!(
            "{}{rop} len {} on {} members",
            op::name(c.tag.op()),
            c.buf.len(),
            c.n
        )
    };
    if let Some(c) = calls[1..]
        .iter()
        .find(|c| c.tag.op() != c0.tag.op() || c.opr != c0.opr || c.n != c0.n)
    {
        return Err(format!(
            "{at}: rank {} issued {} but rank {} issued {}",
            members[c0.index],
            issued(c0),
            members[c.index],
            issued(c)
        ));
    }
    if let Some(c) = calls[1..].iter().find(|c| c.buf.len() != c0.buf.len()) {
        return Err(format!(
            "{at} ({}): rank {} contributed len {} but rank {} contributed len {}",
            issued(c0),
            members[c0.index],
            c0.buf.len(),
            members[c.index],
            c.buf.len()
        ));
    }
    Ok(())
}

/// Largest power of two ≤ `n` (`n ≥ 1`).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << n.ilog2()
}

/// "world" or "group 0x…".
fn scope_name(scope: Option<u32>) -> String {
    match scope {
        Some(gid) => format!("group {gid:#x}"),
        None => "world".to_string(),
    }
}

/// "allreduce seq 4 on world" — a collective instance, for diagnostics.
pub(crate) fn describe_instance(tag: Tag) -> String {
    let (scope, seq) = tag.scope_seq();
    format!("{} seq {seq} on {}", op::name(tag.op()), scope_name(scope))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(index: usize, clock: f64, buf: Vec<f64>) -> RdCall {
        RdCall {
            index,
            tag: Tag::coll(op::ALLREDUCE, 0),
            opr: Some(ReduceOp::Sum),
            n: 0,
            clock,
            msg_cost: 1.0,
            buf,
        }
    }

    fn calls(n: usize) -> Vec<RdCall> {
        (0..n)
            .map(|i| RdCall {
                n,
                ..call(i, i as f64 * 0.25, vec![i as f64 + 1.0])
            })
            .collect()
    }

    #[test]
    fn prev_power_of_two_bounds() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(13), 8);
        assert_eq!(prev_power_of_two(16), 16);
        assert_eq!(prev_power_of_two(64), 64);
    }

    #[test]
    fn three_members_fold_in_and_out() {
        // n = 3: pof2 = 2, rem = 1. Index 0 folds into 1, indices 1 and 2
        // double, 1 folds the result back out to 0.
        let plans = complete(calls(3), &[0, 1, 2]).unwrap();
        for p in &plans {
            assert_eq!(p.result, vec![6.0]);
        }
        // Index 0 (clock 0): sends at 1.0, then receives the result.
        // Index 1 (clock 0.25): absorbs 1.0, sends at 2.0; index 2 (clock
        // 0.5) sends at 1.5; both absorb 2.0, then index 1 sends at 3.0.
        assert_eq!(
            plans[0].rounds,
            vec![
                RdRound {
                    peer: 1,
                    send: true,
                    recv: None
                },
                RdRound {
                    peer: 1,
                    send: false,
                    recv: Some(3.0)
                },
            ]
        );
        assert_eq!(plans[1].rounds.len(), 3);
        assert_eq!(plans[1].rounds[0].recv, Some(1.0));
        assert_eq!(plans[1].rounds[1].recv, Some(1.5));
        assert_eq!(plans[2].rounds[0].recv, Some(2.0));
        assert_eq!(plans[2].rounds.len(), 1);
    }

    #[test]
    fn members_map_indices_to_ranks() {
        let plans = complete(calls(2), &[3, 7]).unwrap();
        assert_eq!(plans[0].rounds[0].peer, 7);
        assert_eq!(plans[1].rounds[0].peer, 3);
    }

    #[test]
    fn length_disagreement_is_reported() {
        let mut cs = calls(2);
        cs[1].buf.push(0.0);
        let err = complete(cs, &[0, 1]).err().expect("lengths differ");
        assert!(
            err.starts_with("[collective-mismatch] world collective seq 0"),
            "{err}"
        );
        assert!(err.contains("rank 0 contributed len 1"), "{err}");
        assert!(err.contains("rank 1 contributed len 2"), "{err}");
    }

    #[test]
    fn operator_disagreement_is_reported() {
        let mut cs = calls(2);
        cs[1].opr = Some(ReduceOp::Max);
        let err = complete(cs, &[4, 9]).err().expect("operators differ");
        assert!(err.contains("rank 4 issued allreduce(Sum)"), "{err}");
        assert!(err.contains("rank 9 issued allreduce(Max)"), "{err}");
    }
}
