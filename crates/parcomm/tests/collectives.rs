//! Property-based tests: every collective must agree with its sequential
//! reference for arbitrary inputs and cluster sizes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use parcomm::comm::ReduceOp;
use parcomm::{Cluster, ClusterConfig, CommPhase, Payload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_sum_matches_sequential(
        nodes in 1usize..9,
        values in proptest::collection::vec(-1e6f64..1e6, 9),
    ) {
        let vals = values.clone();
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            ctx.allreduce_sum(vals[ctx.rank()])
        });
        // All nodes agree bitwise.
        prop_assert!(out.windows(2).all(|w| w[0] == w[1]));
        // And the value equals a sum of the inputs up to fp reassociation.
        let expect: f64 = values[..nodes].iter().sum();
        prop_assert!((out[0] - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
    }

    #[test]
    fn allreduce_minmax_exact(
        nodes in 1usize..9,
        values in proptest::collection::vec(-1e6f64..1e6, 9),
    ) {
        let vals = values.clone();
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            (
                ctx.allreduce_max(vals[ctx.rank()]),
                ctx.allreduce_min(vals[ctx.rank()]),
            )
        });
        let mx = values[..nodes].iter().copied().fold(f64::MIN, f64::max);
        let mn = values[..nodes].iter().copied().fold(f64::MAX, f64::min);
        prop_assert!(out.iter().all(|&(a, b)| a == mx && b == mn));
    }

    #[test]
    fn bcast_from_any_root(nodes in 1usize..9, root_seed in 0usize..9, len in 0usize..12) {
        let root = root_seed % nodes;
        let data: Vec<f64> = (0..len).map(|i| i as f64 * 1.5).collect();
        let expect = data.clone();
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let payload = if ctx.rank() == root {
                Payload::f64s(data.clone())
            } else {
                Payload::Empty
            };
            ctx.bcast(root, payload).into_f64s()
        });
        prop_assert!(out.iter().all(|v| v == &expect));
    }

    #[test]
    fn allgatherv_collects_in_rank_order(nodes in 1usize..8, base in 0usize..5) {
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            // Rank r contributes r + base values of value r.
            let mine = vec![ctx.rank() as f64; ctx.rank() + base];
            ctx.allgatherv_f64(mine)
        });
        for per_node in out {
            prop_assert_eq!(per_node.len(), nodes);
            for (r, part) in per_node.iter().enumerate() {
                prop_assert_eq!(part.len(), r + base);
                prop_assert!(part.iter().all(|&v| v == r as f64));
            }
        }
    }

    #[test]
    fn alltoallv_is_a_transpose(nodes in 2usize..7, seed in any::<u64>()) {
        // sends[i][k] = f(i, k); after the exchange node k holds f(i, k)
        // from every i: the matrix of messages is transposed.
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let me = ctx.rank() as u64;
            let sends: Vec<Vec<u64>> = (0..ctx.size())
                .map(|k| vec![seed % 97, me * 100 + k as u64])
                .collect();
            ctx.alltoallv_u64(sends)
        });
        for (k, received) in out.iter().enumerate() {
            for (i, msg) in received.iter().enumerate() {
                prop_assert_eq!(msg[1], (i * 100 + k) as u64);
            }
        }
    }

    #[test]
    fn vclock_monotone_under_communication(nodes in 2usize..7) {
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let t0 = ctx.vtime();
            ctx.barrier();
            let t1 = ctx.vtime();
            ctx.allreduce_sum(1.0);
            let t2 = ctx.vtime();
            (t0, t1, t2)
        });
        for (t0, t1, t2) in out {
            prop_assert!(t0 <= t1 && t1 <= t2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_bitwise_identical_across_ranks_and_runs(
        nodes in 1usize..14,
        values in proptest::collection::vec(-1e12f64..1e12, 14),
    ) {
        // The determinism contract the recursive-doubling algorithm must
        // keep: every rank returns the *bitwise* same buffer, and two
        // independent cluster runs agree bitwise too. The inputs are large
        // enough that any timing-dependent reassociation would show.
        let run = || {
            let vals = values.clone();
            Cluster::run(ClusterConfig::new(nodes), move |ctx| {
                let x = vals[ctx.rank()] * 1e-3 + 1.0 / (ctx.rank() as f64 + 0.7);
                ctx.allreduce_vec(ReduceOp::Sum, vec![x, x * 0.3, -x])
            })
        };
        let a = run();
        let b = run();
        for v in &a {
            prop_assert_eq!(v.len(), 3);
            for (x, y) in v.iter().zip(&a[0]) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "ranks disagree");
            }
        }
        for (va, vb) in a.iter().zip(&b) {
            for (x, y) in va.iter().zip(vb) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "runs disagree");
            }
        }
    }
}

#[test]
fn collectives_at_nonpow2_sizes_with_nonzero_roots() {
    // N = 3, 5, 13 exercise the fold-in/fold-out pre/post phases of the
    // recursive-doubling all-reduce (13 also has a multi-level doubling
    // phase), and the non-zero roots exercise the rotated broadcast trees.
    for n in [3usize, 5, 13] {
        let out = Cluster::run(ClusterConfig::new(n), move |ctx| {
            let sum = ctx.allreduce_sum((ctx.rank() + 1) as f64);
            let mx = ctx.allreduce_max(ctx.rank() as f64);
            let mn = ctx.allreduce_min(ctx.rank() as f64 - 1.0);
            let root = n - 1;
            let payload = if ctx.rank() == root {
                Payload::f64s(vec![2.5, -1.0, 4.0])
            } else {
                Payload::Empty
            };
            let bc = ctx.bcast(root, payload).into_f64s();
            let root2 = n / 2;
            let gathered = ctx.gatherv_f64(root2, vec![ctx.rank() as f64; 2]);
            (sum, mx, mn, bc, gathered)
        });
        let expect_sum = (n * (n + 1) / 2) as f64;
        for (rank, (sum, mx, mn, bc, gathered)) in out.into_iter().enumerate() {
            assert_eq!(sum, expect_sum, "n={n}");
            assert_eq!(mx, (n - 1) as f64, "n={n}");
            assert_eq!(mn, -1.0, "n={n}");
            assert_eq!(bc, vec![2.5, -1.0, 4.0], "n={n}");
            if rank == n / 2 {
                let g = gathered.expect("root holds the gather");
                assert_eq!(g.len(), n);
                for (r, part) in g.iter().enumerate() {
                    assert_eq!(part, &vec![r as f64; 2], "n={n}");
                }
            } else {
                assert!(gathered.is_none());
            }
        }
    }
}

#[test]
fn allreduce_rounds_match_recursive_doubling_depth() {
    // ⌈log₂N⌉ rounds on powers of two, +2 (fold-in + fold-out) otherwise —
    // the critical-path depth the ISSUE's cost accounting relies on.
    for (n, expect_rounds) in [
        (2usize, 1u64),
        (4, 2),
        (8, 3),
        (16, 4),
        (3, 3),
        (5, 4),
        (13, 5),
    ] {
        let out = Cluster::run(ClusterConfig::new(n), |ctx| {
            ctx.allreduce_sum(1.0);
            (ctx.stats().allreduces(), ctx.stats().allreduce_rounds())
        });
        assert!(out.iter().all(|&(calls, _)| calls == 1), "n={n}");
        let max_rounds = out.iter().map(|&(_, r)| r).max().unwrap();
        assert_eq!(max_rounds, expect_rounds, "n={n}");
    }
}

#[test]
fn group_allreduce_on_nonpow2_group_is_bitwise_uniform() {
    // A 5-member group inside a 7-node cluster: the recovery-path
    // sub-communicator shape (non-power-of-two, non-contiguous ranks).
    let out = Cluster::run(ClusterConfig::new(7), |ctx| {
        let members = [0usize, 2, 3, 5, 6];
        if members.contains(&ctx.rank()) {
            let mut g = ctx.group(&members);
            let x = 1.0 / (ctx.rank() as f64 + 3.0) * 1e10 + 1e-10;
            Some(g.allreduce_vec(ctx, ReduceOp::Sum, vec![x, -x], CommPhase::Recovery))
        } else {
            None
        }
    });
    let results: Vec<_> = out.into_iter().flatten().collect();
    assert_eq!(results.len(), 5);
    for v in &results {
        assert_eq!(v[0].to_bits(), results[0][0].to_bits());
        assert_eq!(v[1].to_bits(), results[0][1].to_bits());
    }
}

#[test]
fn reduce_vec_ops_cover_all_variants() {
    for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
        let out = Cluster::run(ClusterConfig::new(4), move |ctx| {
            ctx.allreduce_vec(op, vec![ctx.rank() as f64, -(ctx.rank() as f64)])
        });
        let expect = match op {
            ReduceOp::Sum => vec![6.0, -6.0],
            ReduceOp::Max => vec![3.0, 0.0],
            ReduceOp::Min => vec![0.0, -3.0],
        };
        assert!(out.iter().all(|v| v == &expect), "{op:?}");
    }
}

#[test]
fn split_phase_send_accounting() {
    // One physical message, elements split across two accounting phases.
    let out = Cluster::run(ClusterConfig::new(2), |ctx| {
        if ctx.rank() == 0 {
            ctx.send_with_phases(
                1,
                7,
                Payload::f64s(vec![0.0; 10]),
                &[(CommPhase::Spmv, 6), (CommPhase::Redundancy, 4)],
            );
        } else {
            ctx.recv(0, 7);
        }
        (
            ctx.stats().msgs(CommPhase::Spmv),
            ctx.stats().elems(CommPhase::Spmv),
            ctx.stats().msgs(CommPhase::Redundancy),
            ctx.stats().elems(CommPhase::Redundancy),
        )
    });
    assert_eq!(out[0], (1, 6, 0, 4), "one message, split elements");
}

// ---- Bitwise pins of the recursive-doubling collectives -------------------
//
// Every rank enters each collective at a different virtual time (rank r
// first charges r·k flops), so the pins cover the stall accounting, not
// only the message counts: with equal entry clocks every wait would be
// zero and a wrong arrival stamp could hide. Each pin is an FNV-1a digest
// over, per rank in rank order: the result bits, the clock bits after the
// collective, and the `CommStats` counters (messages, elements, send /
// wait / hidden virtual time per phase, all-reduce calls and rounds).
// The digests were captured from the message-passing implementation of
// the schedule; any implementation of it must reproduce them exactly.
// The `world_group_allreduce` rows repeat the `allreduce_sum` digests: a
// group over all ranks reducing in the Reduction phase is the world.

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// What one rank reports after a pinned collective.
struct PinOut {
    result: Vec<f64>,
    clock: f64,
    stats: parcomm::CommStats,
}

fn digest(outs: &[PinOut]) -> u64 {
    let mut d = Digest::new();
    for o in outs {
        d.f64s(&o.result);
        d.word(o.clock.to_bits());
        for p in CommPhase::ALL {
            d.word(o.stats.msgs(p));
            d.word(o.stats.elems(p));
            d.word(o.stats.send_vtime(p).to_bits());
            d.word(o.stats.wait_vtime(p).to_bits());
            d.word(o.stats.hidden_vtime(p).to_bits());
        }
        d.word(o.stats.allreduces());
        d.word(o.stats.allreduce_rounds());
    }
    d.0
}

/// Rank `r`'s order-sensitive contribution (FP sums of these reassociate
/// visibly).
fn pin_input(r: usize) -> Vec<f64> {
    let x = 1.0 / (r as f64 + 0.7) * 1e3 + r as f64 * 1e-9;
    vec![x, -0.3 * x + 1e-7, (r as f64).sin()]
}

/// Non-contiguous member set for the group pins: every rank except those
/// ≡ 1 (mod 3) — the whole world on N = 2, so the group is never trivial.
fn pin_members(n: usize) -> Vec<usize> {
    (0..n).filter(|r| r % 3 != 1 || n == 2).collect()
}

fn run_pin(n: usize, case: &str) -> u64 {
    let case = case.to_string();
    let outs = Cluster::run(ClusterConfig::new(n), move |ctx| {
        let r = ctx.rank();
        ctx.clock_mut().advance_flops(r * 37_000);
        let result = match case.as_str() {
            "allreduce_sum" => ctx.allreduce_vec(ReduceOp::Sum, pin_input(r)),
            "allreduce_max" => ctx.allreduce_vec(ReduceOp::Max, pin_input(r)),
            "barrier" => {
                ctx.barrier();
                Vec::new()
            }
            "iallreduce" => {
                let req = ctx.iallreduce_vec(ReduceOp::Sum, pin_input(r));
                // Compute before wait: low ranks hide more of the flight.
                ctx.clock_mut().advance_flops((n - r) * 23_000);
                req.wait(ctx)
            }
            // The world is the group of all ranks: a group over `0..n`
            // all-reducing in the Reduction phase is the world all-reduce.
            "world_group_allreduce" => {
                let all: Vec<usize> = (0..n).collect();
                ctx.group(&all).allreduce_vec(
                    ctx,
                    ReduceOp::Sum,
                    pin_input(r),
                    CommPhase::Reduction,
                )
            }
            "group_allreduce" | "group_iallreduce" | "group_barrier" => {
                let members = pin_members(n);
                if !members.contains(&r) {
                    return PinOut {
                        result: Vec::new(),
                        clock: ctx.vtime(),
                        stats: ctx.stats().clone(),
                    };
                }
                let mut g = ctx.group(&members);
                match case.as_str() {
                    "group_allreduce" => {
                        g.allreduce_vec(ctx, ReduceOp::Sum, pin_input(r), CommPhase::Recovery)
                    }
                    "group_iallreduce" => {
                        let req = g.iallreduce_vec(
                            ctx,
                            ReduceOp::Max,
                            pin_input(r),
                            CommPhase::Reduction,
                        );
                        ctx.clock_mut().advance_flops((n - r) * 23_000);
                        req.wait(ctx)
                    }
                    _ => {
                        g.barrier(ctx, CommPhase::Recovery);
                        Vec::new()
                    }
                }
            }
            other => panic!("unknown pin case {other}"),
        };
        PinOut {
            result,
            clock: ctx.vtime(),
            stats: ctx.stats().clone(),
        }
    });
    digest(&outs)
}

/// `(case, N, digest)`.
const PINS: &[(&str, usize, u64)] = &[
    ("allreduce_sum", 2, 0x9c093b147e3519a1),
    ("allreduce_sum", 3, 0x86d42433517353e0),
    ("allreduce_sum", 5, 0x5d2562a32ce82a2f),
    ("allreduce_sum", 8, 0x3a8c4d840983a69e),
    ("allreduce_sum", 13, 0x887758b30d1b1938),
    ("allreduce_sum", 64, 0xb2ccc7a987d9a4c1),
    ("allreduce_max", 2, 0xb5f626a2836fdf89),
    ("allreduce_max", 3, 0xc633b92fbc38638e),
    ("allreduce_max", 5, 0x48e03838410cce0e),
    ("allreduce_max", 8, 0xfae886f3ad697f2a),
    ("allreduce_max", 13, 0x627147d5a0405fdd),
    ("allreduce_max", 64, 0xd9e740cb05457409),
    ("barrier", 2, 0xff9bfdaf41161d5c),
    ("barrier", 3, 0xe5a41f8e33cd58db),
    ("barrier", 5, 0x9036933a0382e784),
    ("barrier", 8, 0x1f9f8737124d6916),
    ("barrier", 13, 0xabdc19c711c41866),
    ("barrier", 64, 0x8b773dc9b0448555),
    ("iallreduce", 2, 0xe6d6c9c68cd20088),
    ("iallreduce", 3, 0x364678eb3134f047),
    ("iallreduce", 5, 0xe4748e4073a007c7),
    ("iallreduce", 8, 0x77c271b711a922aa),
    ("iallreduce", 13, 0xd5bc7890b2f0aa99),
    ("iallreduce", 64, 0x98a700630924c0d1),
    ("group_allreduce", 2, 0x635db30ec318ec61),
    ("group_allreduce", 3, 0x2fd829cd7e954cd2),
    ("group_allreduce", 5, 0x386c99f28677988b),
    ("group_allreduce", 8, 0xc982632903f798d9),
    ("group_allreduce", 13, 0x81f91e77770e5a9e),
    ("group_allreduce", 64, 0xecf22ac350ad4e25),
    ("group_iallreduce", 2, 0x9d4d25772e0188ec),
    ("group_iallreduce", 3, 0x75b3f2beb9a92e7c),
    ("group_iallreduce", 5, 0x0273c2a8a66f9534),
    ("group_iallreduce", 8, 0x5f9d0555949da7cd),
    ("group_iallreduce", 13, 0xc3abe9de7a402c70),
    ("group_iallreduce", 64, 0xa3f8430e3740b93e),
    ("group_barrier", 2, 0x34b1ceada274507c),
    ("group_barrier", 3, 0xd768393039ac0d75),
    ("group_barrier", 5, 0x5561a796bc1224fb),
    ("group_barrier", 8, 0xd139a0cda90119dd),
    ("group_barrier", 13, 0x06185e8185f09305),
    ("group_barrier", 64, 0x20462b29c6d21422),
    ("world_group_allreduce", 2, 0x9c093b147e3519a1),
    ("world_group_allreduce", 3, 0x86d42433517353e0),
    ("world_group_allreduce", 5, 0x5d2562a32ce82a2f),
    ("world_group_allreduce", 8, 0x3a8c4d840983a69e),
    ("world_group_allreduce", 13, 0x887758b30d1b1938),
    ("world_group_allreduce", 64, 0xb2ccc7a987d9a4c1),
];

#[test]
fn collectives_with_staggered_entry_clocks_are_pinned_bitwise() {
    let cases = [
        "allreduce_sum",
        "allreduce_max",
        "barrier",
        "iallreduce",
        "group_allreduce",
        "group_iallreduce",
        "group_barrier",
        "world_group_allreduce",
    ];
    let mut got = Vec::new();
    for case in cases {
        for n in [2usize, 3, 5, 8, 13, 64] {
            got.push((case, n, run_pin(n, case)));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, n, d)| format!("    (\"{c}\", {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "pin table:\n{table}");
    for ((c, n, d), &(pc, pn, pd)) in got.iter().zip(PINS) {
        assert_eq!((*c, *n), (pc, pn), "pin table:\n{table}");
        assert_eq!(*d, pd, "{c} at N = {n} moved; pin table:\n{table}");
    }
}

// ---- Member agreement and rendezvous parks ---------------------------------

/// Run a cluster program that must panic; return the panic text.
fn panic_message<F>(n: usize, program: F) -> String
where
    F: Fn(&mut parcomm::NodeCtx) + Sync,
{
    let err = catch_unwind(AssertUnwindSafe(|| {
        Cluster::run(ClusterConfig::new(n), &program);
    }))
    .expect_err("the program must panic");
    err.downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

#[test]
fn length_mismatched_allreduce_panics_in_every_build() {
    // A zip-based combine would silently truncate to the shorter buffer;
    // the rendezvous refuses to complete instead.
    let msg = panic_message(2, |ctx| {
        let len = 1 + ctx.rank();
        ctx.allreduce_vec(ReduceOp::Sum, vec![1.0; len]);
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("seq 0"), "{msg}");
    assert!(msg.contains("len 1"), "{msg}");
    assert!(msg.contains("len 2"), "{msg}");
}

#[test]
fn mismatched_operators_and_kinds_panic_in_every_build() {
    let msg = panic_message(3, |ctx| {
        if ctx.rank() == 1 {
            ctx.allreduce_max(1.0);
        } else {
            ctx.allreduce_sum(1.0);
        }
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("Sum"), "{msg}");
    assert!(msg.contains("Max"), "{msg}");

    // A barrier and an all-reduce at the same sequence number meet at one
    // rendezvous, so the disagreement is reported rather than deadlocking.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.barrier();
        } else {
            ctx.allreduce_sum(1.0);
        }
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("barrier"), "{msg}");
    assert!(msg.contains("allreduce(Sum)"), "{msg}");
}

#[test]
fn group_length_mismatch_names_the_group() {
    let msg = panic_message(3, |ctx| {
        if ctx.rank() != 1 {
            let mut g = ctx.group(&[0, 2]);
            let len = 1 + ctx.rank();
            g.allreduce_vec(ctx, ReduceOp::Sum, vec![1.0; len], CommPhase::Recovery);
        }
    });
    assert!(msg.contains("[collective-mismatch] group 0x"), "{msg}");
    assert!(msg.contains("len 1"), "{msg}");
    assert!(msg.contains("len 3"), "{msg}");
}

#[test]
fn one_world_allreduce_parks_each_member_at_most_once() {
    // A recursive-doubling all-reduce is one rendezvous: every member but
    // the last parks exactly once, and the last completes it without
    // parking. A fallback to message passing would park members once per
    // round.
    let n = 512;
    let out = Cluster::run(ClusterConfig::new(n), |ctx| {
        let s = ctx.allreduce_sum(1.0);
        (s, ctx.stats().parks())
    });
    assert!(out.iter().all(|&(s, _)| s == n as f64));
    assert!(
        out.iter().all(|&(_, parks)| parks <= 1),
        "a member parked twice"
    );
    let total: u64 = out.iter().map(|&(_, parks)| parks).sum();
    assert_eq!(total, n as u64 - 1);
}
