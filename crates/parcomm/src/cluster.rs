//! The SPMD cluster harness.
//!
//! [`Cluster::run`] gives every simulated compute node its own OS thread
//! (private stack, blocking call style), wires up the mailboxes, and
//! executes the same program on every node — the SPMD model of MPI. The
//! threads do not free-run: a [`crate::sched::Scheduler`] dispatches
//! exactly one runnable node at a time by minimum `(virtual time, rank)`,
//! so execution order is deterministic and node count is decoupled from
//! host parallelism (N = 1024 clusters run fine on a 2-core host).
//! Per-node results are collected in rank order.
//!
//! The paper runs one MPI process per node (Sec. 7.1, "we use only one
//! process per node"), so a node ≡ a rank here too.

use std::sync::Arc;
use std::thread;

use crate::comm::NodeCtx;
use crate::fault::{FailureScript, FaultOracle};
use crate::mailbox::Mailbox;
use crate::sched::Scheduler;
use crate::vclock::{CostModel, VClock};

/// What a node thread hands back at teardown: the program's result (or its
/// panic payload), the mailbox (so the harness can inspect residue), and —
/// under `--features trace` — the node's event log.
struct NodeFinish<T> {
    result: thread::Result<T>,
    mailbox: Mailbox,
    #[cfg(feature = "trace")]
    trace: Option<crate::trace::NodeTrace>,
}

/// What `run_inner` hands back next to the per-node results: the gathered
/// trace under `--features trace`, nothing otherwise.
#[cfg(feature = "trace")]
type Trace = crate::trace::ClusterTrace;
#[cfg(not(feature = "trace"))]
type Trace = ();

/// Cap on reported protocol violations, so a systemic bug does not produce
/// a megabyte-sized panic message.
#[cfg(any(debug_assertions, feature = "trace"))]
const MAX_REPORTED: usize = 20;

/// Cluster-wide configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of compute nodes N.
    pub nodes: usize,
    /// Latency–bandwidth–flop cost model for the virtual clock.
    pub cost: CostModel,
    /// Scheduled node failures (empty for failure-free runs).
    pub script: FailureScript,
    /// Size of the hot-spare pool: how many failed nodes the cluster can
    /// hand a replacement for before replacement capacity runs out (the
    /// capacity ULFM assumes is unbounded but a real machine is not —
    /// Pachajoa et al., arXiv:2007.04066). `0` means no spares.
    pub spares: usize,
}

impl ClusterConfig {
    /// A failure-free cluster of `nodes` nodes with the default cost model.
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            cost: CostModel::default(),
            script: FailureScript::none(),
            spares: 0,
        }
    }

    /// Set the failure script.
    pub fn with_script(mut self, script: FailureScript) -> Self {
        self.script = script;
        self
    }

    /// Set the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Provision `spares` hot-spare nodes.
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }
}

/// The cluster's finite pool of hot-spare nodes.
///
/// In the simulation the spare is not a separate scheduler entity: as in
/// the paper's methodology (Sec. 6), the failed rank keeps its scheduler
/// slot and continues in the replacement-node role (see the node lifecycle
/// state machine in [`crate::fault`]) — what a spare buys is the *right*
/// to do so. The pool is claimed at failure boundaries, which every node
/// reaches with the same SPMD-deterministic failure information, so each
/// node's private copy of the pool evolves identically and no shared
/// mutable state is needed (the same determinism argument that stands in
/// for `MPI_Comm_agree`).
#[derive(Clone, Debug)]
pub struct SparePool {
    total: usize,
    claimed: usize,
}

impl SparePool {
    pub(crate) fn new(total: usize) -> Self {
        SparePool { total, claimed: 0 }
    }

    /// Spares the cluster was provisioned with.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Spares not yet handed out.
    pub fn remaining(&self) -> usize {
        self.total - self.claimed
    }

    /// Claim up to `want` spares; returns how many were granted
    /// (`min(want, remaining)`).
    pub fn claim(&mut self, want: usize) -> usize {
        let granted = want.min(self.remaining());
        self.claimed += granted;
        granted
    }
}

/// The simulated parallel computer.
pub struct Cluster;

impl Cluster {
    /// Run `program` on every node of a cluster described by `config`;
    /// returns the per-node results in rank order.
    ///
    /// `program` is the SPMD node program: it receives this node's
    /// [`NodeCtx`] and runs to completion. A panic on any node aborts the
    /// run (the panic is propagated with its rank).
    pub fn run<T, F>(config: ClusterConfig, program: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        Self::run_inner(config, program).0
    }

    /// Like [`Cluster::run`], but also returns the gathered per-rank trace
    /// logs as a [`crate::trace::ClusterTrace`]. Only meaningful under
    /// `--features trace`; the tracer observes the virtual clock without
    /// ever advancing it, so the per-node results are bitwise identical to
    /// what [`Cluster::run`] returns.
    #[cfg(feature = "trace")]
    pub fn run_traced<T, F>(
        config: ClusterConfig,
        program: F,
    ) -> (Vec<T>, crate::trace::ClusterTrace)
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        Self::run_inner(config, program)
    }

    fn run_inner<T, F>(config: ClusterConfig, program: F) -> (Vec<T>, Trace)
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        let n = config.nodes;
        assert!(n >= 1, "cluster needs at least one node");
        // A script naming ranks the cluster does not have would be silently
        // inert — reject it here, where the size is known.
        config.script.validate_for_cluster(n);
        let oracle = FaultOracle::new(config.script.clone());

        // Wire mailboxes: every node gets the senders of all nodes.
        let mut mailboxes = Vec::with_capacity(n);
        let mut outboxes = Vec::with_capacity(n);
        for rank in 0..n {
            let (mb, tx) = Mailbox::new(rank);
            mailboxes.push(mb);
            outboxes.push(tx);
        }

        let sched = Arc::new(Scheduler::new(n));
        let world: Arc<[usize]> = (0..n).collect();

        let program = &program;
        thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for (rank, mb) in mailboxes.into_iter().enumerate() {
                let outboxes = outboxes.clone();
                let oracle = oracle.clone();
                let cost = config.cost;
                let spares = config.spares;
                let sched = sched.clone();
                let world = world.clone();
                handles.push(
                    thread::Builder::new()
                        .name(format!("node-{rank}"))
                        // The solver recursion depth is shallow, but large
                        // local vectors live on the heap; default stack is
                        // plenty. Set explicitly for predictability.
                        .stack_size(4 * 1024 * 1024)
                        .spawn_scoped(s, move || {
                            let mut ctx = NodeCtx::new(
                                rank,
                                world,
                                mb,
                                outboxes,
                                oracle,
                                VClock::new(cost),
                                spares,
                            );
                            ctx.install_sched(sched.clone());
                            #[cfg(feature = "trace")]
                            ctx.install_trace();
                            // The baton wait sits inside catch_unwind: a
                            // peer abort or a deadlock report surfaces as
                            // a panic out of the scheduler park.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    sched.wait_for_baton(rank);
                                    program(&mut ctx)
                                }));
                            // Hand the baton on — or, on a panic, wake all
                            // parked peers into immediate teardown instead
                            // of stranding them in recv.
                            match &result {
                                Ok(_) => sched.finish(rank),
                                Err(_) => sched.abort(rank),
                            }
                            #[cfg(feature = "trace")]
                            let trace = ctx.take_trace();
                            NodeFinish {
                                result,
                                mailbox: ctx.into_mailbox(),
                                #[cfg(feature = "trace")]
                                trace,
                            }
                        })
                        .expect("failed to spawn node thread"),
                );
            }

            // Every node thread parks on the scheduler first; hand out the
            // first baton (rank 0, all clocks at 0.0).
            sched.start();

            // Join all nodes first — teardown checks must see every log.
            let finishes: Vec<NodeFinish<T>> = handles
                .into_iter()
                .map(|h| h.join().expect("node thread died outside the program"))
                .collect();

            let mut values = Vec::with_capacity(n);
            let mut panics: Vec<(usize, String)> = Vec::new();
            let mut mailboxes: Vec<Mailbox> = Vec::with_capacity(n);
            #[cfg(feature = "trace")]
            let mut trace = Trace::default();
            for (rank, fin) in finishes.into_iter().enumerate() {
                match fin.result {
                    Ok(v) => values.push(v),
                    Err(e) => {
                        let msg = e
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| e.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic>")
                            .to_string();
                        panics.push((rank, msg));
                    }
                }
                mailboxes.push(fin.mailbox);
                #[cfg(feature = "trace")]
                trace.nodes.push(fin.trace.unwrap_or_default());
            }
            #[cfg(not(feature = "trace"))]
            let trace = ();

            #[cfg(any(debug_assertions, feature = "trace"))]
            check_protocol(&mut mailboxes, &trace, &panics);

            // If any node panicked, report the *root cause* (a real panic)
            // rather than a secondary "peer aborted" one.
            if let Some((rank, msg)) = panics
                .iter()
                .find(|(_, m)| !m.contains("aborted"))
                .or_else(|| panics.first())
            {
                panic!("node {rank} panicked: {msg}");
            }
            (values, trace)
        })
    }
}

/// The teardown protocol checks, in debug and `trace` builds: message
/// drain on every mailbox (skipped when a node panicked, since a panic
/// legitimately strands in-flight traffic) and, under `trace`, the
/// recorded receives' ordering and recovery windows
/// ([`crate::trace::ClusterTrace::protocol_violations`]). Every send has
/// landed by now, so the checks are deterministic. Panics with the list
/// of violations.
#[cfg(any(debug_assertions, feature = "trace"))]
fn check_protocol(mailboxes: &mut [Mailbox], trace: &Trace, panics: &[(usize, String)]) {
    let mut violations = Vec::new();
    if panics.is_empty() {
        for mb in mailboxes {
            violations.extend(mb.drain_violations());
        }
    }
    #[cfg(feature = "trace")]
    violations.extend(trace.protocol_violations());
    #[cfg(not(feature = "trace"))]
    let _ = trace;
    if violations.is_empty() {
        return;
    }
    let mut report = format!("parcomm audit: {} protocol violation(s):", violations.len());
    for v in violations.iter().take(MAX_REPORTED) {
        report.push_str("\n  ");
        report.push_str(v);
    }
    if let Some((rank, msg)) = panics.first() {
        report.push_str(&format!("\n  (node {rank} also panicked: {msg})"));
    }
    panic!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;
    use crate::payload::Payload;
    use crate::stats::CommPhase;

    #[test]
    fn ranks_and_size() {
        let out = Cluster::run(ClusterConfig::new(5), |ctx| (ctx.rank(), ctx.size()));
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn p2p_ring() {
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 7, Payload::F64(ctx.rank() as f64), CommPhase::Other);
            ctx.recv(prev, 7).into_f64()
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for n in 1..=9 {
            let out = Cluster::run(ClusterConfig::new(n), |ctx| {
                ctx.allreduce_sum((ctx.rank() + 1) as f64)
            });
            let expect = (n * (n + 1) / 2) as f64;
            assert!(out.iter().all(|&x| x == expect), "n={n}: {out:?}");
        }
    }

    #[test]
    fn allreduce_max_min() {
        let out = Cluster::run(ClusterConfig::new(6), |ctx| {
            let mx = ctx.allreduce_max(ctx.rank() as f64);
            let mn = ctx.allreduce_min(ctx.rank() as f64);
            (mx, mn)
        });
        assert!(out.iter().all(|&(mx, mn)| mx == 5.0 && mn == 0.0));
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            ctx.allreduce_vec(ReduceOp::Sum, vec![ctx.rank() as f64, 1.0])
        });
        assert!(out.iter().all(|v| v == &vec![3.0, 3.0]));
    }

    #[test]
    fn allreduce_is_deterministic_across_runs() {
        // Sum of values whose FP addition is order-sensitive.
        let run = || {
            Cluster::run(ClusterConfig::new(7), |ctx| {
                let x = 1.0 / (ctx.rank() as f64 + 3.0) * 1e10 + 1e-10;
                ctx.allreduce_sum(x)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "tree reduction must be bitwise reproducible");
        // All nodes agree within a run.
        assert!(a.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn bcast_from_nonzero_root() {
        for n in [1, 2, 3, 5, 8] {
            let out = Cluster::run(ClusterConfig::new(n), |ctx| {
                let root = ctx.size() - 1;
                let payload = if ctx.rank() == root {
                    Payload::f64s(vec![42.0, 7.0])
                } else {
                    Payload::Empty
                };
                ctx.bcast(root, payload).into_f64s()
            });
            assert!(out.iter().all(|v| v == &vec![42.0, 7.0]), "n={n}");
        }
    }

    #[test]
    fn allgatherv_f64_varying_lengths() {
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            let mine = vec![ctx.rank() as f64; ctx.rank()]; // rank r sends r copies
            ctx.allgatherv_f64(mine)
        });
        for v in out {
            assert_eq!(v.len(), 4);
            for (r, part) in v.iter().enumerate() {
                assert_eq!(part.len(), r);
                assert!(part.iter().all(|&x| x == r as f64));
            }
        }
    }

    #[test]
    fn allgatherv_u64() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            ctx.allgatherv_u64(vec![ctx.rank() as u64 * 10, 1])
        });
        for v in out {
            assert_eq!(v, vec![vec![0, 1], vec![10, 1], vec![20, 1]]);
        }
    }

    #[test]
    fn alltoallv_u64_exchanges() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            // Send [my_rank, dest] to each dest.
            let sends: Vec<Vec<u64>> = (0..3).map(|d| vec![ctx.rank() as u64, d as u64]).collect();
            ctx.alltoallv_u64(sends)
        });
        for (me, recvd) in out.iter().enumerate() {
            for (src, v) in recvd.iter().enumerate() {
                assert_eq!(v, &vec![src as u64, me as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_pairs_exchanges() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            let sends: Vec<Vec<(u64, f64)>> = (0..3)
                .map(|d| vec![(d as u64, ctx.rank() as f64)])
                .collect();
            ctx.alltoallv_pairs(sends, CommPhase::Recovery)
        });
        for (me, recvd) in out.iter().enumerate() {
            for (src, v) in recvd.iter().enumerate() {
                assert_eq!(v, &vec![(me as u64, src as f64)]);
            }
        }
    }

    #[test]
    fn barrier_syncs_vclocks() {
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            // Rank 2 does expensive local work before the barrier.
            if ctx.rank() == 2 {
                ctx.clock_mut().advance(1.0);
            }
            ctx.barrier();
            ctx.vtime()
        });
        // Everyone's clock must be at least the slow node's time.
        assert!(out.iter().all(|&t| t >= 1.0), "{out:?}");
    }

    #[test]
    fn gatherv_on_root_only() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            ctx.gatherv_f64(1, vec![ctx.rank() as f64])
        });
        assert!(out[0].is_none());
        assert!(out[2].is_none());
        assert_eq!(
            out[1].as_ref().unwrap(),
            &vec![vec![0.0], vec![1.0], vec![2.0]]
        );
    }

    #[test]
    fn group_collectives() {
        let out = Cluster::run(ClusterConfig::new(5), |ctx| {
            // Odd ranks form a group; evens idle.
            if ctx.rank() % 2 == 1 {
                let mut g = ctx.group(&[1, 3]);
                let s = g.allreduce_sum(ctx, ctx.rank() as f64, CommPhase::Recovery);
                let gathered = g.allgatherv_f64(ctx, vec![ctx.rank() as f64], CommPhase::Recovery);
                Some((s, gathered))
            } else {
                None
            }
        });
        for r in [1usize, 3] {
            let (s, gathered) = out[r].clone().unwrap();
            assert_eq!(s, 4.0);
            assert_eq!(gathered, vec![vec![1.0], vec![3.0]]);
        }
    }

    #[test]
    fn world_handles_share_one_sequence_counter() {
        // A world handle taken before a `NodeCtx` barrier must draw the
        // next world sequence number, not reuse the barrier's. A reused
        // number would put a barrier and an all-reduce at one world
        // collective instance, which the rendezvous reports as a
        // `[collective-mismatch]`.
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            let mut world = ctx.world();
            assert_eq!((world.size(), world.index()), (3, ctx.rank()));
            ctx.barrier();
            let a = world.allreduce_sum(ctx, 1.0, CommPhase::Reduction);
            let b = ctx.allreduce_sum(ctx.rank() as f64);
            let c = ctx.world().allreduce_sum(ctx, 2.0, CommPhase::Reduction);
            (a, b, c, ctx.stats().allreduces())
        });
        for o in out {
            assert_eq!(o, (3.0, 3.0, 6.0, 3));
        }
    }

    #[test]
    fn group_alltoallv_pairs() {
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            if ctx.rank() >= 1 && ctx.rank() <= 3 {
                let mut g = ctx.group(&[1, 2, 3]);
                let sends: Vec<Vec<(u64, f64)>> = (0..3)
                    .map(|i| vec![(i as u64, ctx.rank() as f64)])
                    .collect();
                Some(g.alltoallv_pairs(ctx, sends, CommPhase::Recovery))
            } else {
                None
            }
        });
        // Member with group index i receives (i, src_rank) from each member.
        for (rank, res) in out.iter().enumerate() {
            if let Some(recvd) = res {
                let my_index = rank - 1;
                for (j, v) in recvd.iter().enumerate() {
                    let src_rank = j + 1;
                    assert_eq!(v, &vec![(my_index as u64, src_rank as f64)]);
                }
            }
        }
    }

    #[test]
    fn stats_track_phases() {
        let out = Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::f64s(vec![0.0; 10]), CommPhase::Spmv);
                ctx.send(1, 2, Payload::f64s(vec![0.0; 3]), CommPhase::Redundancy);
            } else {
                ctx.recv(0, 1);
                ctx.recv(0, 2);
            }
            (
                ctx.stats().elems(CommPhase::Spmv),
                ctx.stats().elems(CommPhase::Redundancy),
            )
        });
        assert_eq!(out[0], (10, 3));
        assert_eq!(out[1], (0, 0)); // receives are counted at the sender
    }

    #[test]
    fn vclock_charges_messages() {
        let cost = CostModel {
            lambda: 1.0,
            mu: 0.1,
            gamma: 0.0,
        };
        let out = Cluster::run(ClusterConfig::new(2).with_cost(cost), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::f64s(vec![0.0; 10]), CommPhase::Spmv);
            } else {
                ctx.recv(0, 1);
            }
            ctx.vtime()
        });
        // Sender: λ + 10µ = 2.0. Receiver absorbs the same arrival stamp.
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds for a cluster of 8 nodes")]
    fn out_of_bounds_failure_script_rejected() {
        // A script naming rank 9 on an 8-node cluster would be silently
        // inert; Cluster::run must reject it when the size is known.
        let script = crate::fault::FailureScript::new(vec![crate::fault::FailureEvent {
            when: crate::fault::FailAt::Iteration(3),
            ranks: vec![9],
        }]);
        Cluster::run(ClusterConfig::new(8).with_script(script), |_| ());
    }

    #[test]
    fn spare_pool_claims_deterministically() {
        let out = Cluster::run(ClusterConfig::new(3).with_spares(2), |ctx| {
            let mut pool = ctx.spare_pool();
            assert_eq!(pool.total(), 2);
            let first = pool.claim(1);
            let second = pool.claim(3); // only 1 left
            let third = pool.claim(1); // dry
            (first, second, third, pool.remaining())
        });
        // Every node's private pool copy evolves identically.
        assert!(out.iter().all(|&o| o == (1, 1, 0, 0)), "{out:?}");
    }

    #[test]
    fn spare_pool_defaults_to_empty() {
        let out = Cluster::run(ClusterConfig::new(2), |ctx| ctx.spare_pool().remaining());
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "[deadlock] wait-for cycle")]
    fn cross_recv_deadlock_reported_in_every_build() {
        // Rank 0 and rank 1 each wait for the other: the scheduler runs
        // out of runnable nodes and names the cycle instantly, with no
        // timeout.
        Cluster::run(ClusterConfig::new(2), |ctx| {
            let peer = 1 - ctx.rank();
            ctx.recv(peer, 1);
        });
    }

    #[test]
    #[should_panic(expected = "wait chain ends at a terminated rank")]
    fn recv_from_finished_rank_is_reported() {
        Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 1 {
                // Rank 0 finishes without ever sending; rank 1's wait can
                // never be satisfied.
                ctx.recv(0, 1);
            }
        });
    }

    /// Run a program that must fail; return the cluster's panic text.
    fn panic_message<F>(n: usize, program: F) -> String
    where
        F: Fn(&mut NodeCtx) + Sync,
    {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Cluster::run(ClusterConfig::new(n), &program);
        }))
        .expect_err("the program fails");
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".to_string())
    }

    #[test]
    fn collective_missing_a_terminated_member_is_reported() {
        // Rank 2 returns without calling the all-reduce its peers wait in.
        let msg = panic_message(3, |ctx| {
            if ctx.rank() != 2 {
                ctx.allreduce_sum(1.0);
            }
        });
        assert!(
            msg.contains(
                "[deadlock] wait chain ends at a terminated rank: rank 0 waiting in \
                 allreduce seq 0 on world -> rank 2 (terminated)"
            ),
            "{msg}"
        );
        assert!(
            msg.contains(
                "collective allreduce seq 0 on world has 2 of 3 members: never arrived: \
                 rank 2 (terminated)"
            ),
            "{msg}"
        );
    }

    #[test]
    fn barrier_behind_a_recv_cycle_is_reported() {
        // Ranks 0 and 1 wait in a barrier for ranks 2 and 3, which wait
        // for each other in receives.
        let msg = panic_message(4, |ctx| {
            if ctx.rank() < 2 {
                ctx.barrier();
            } else {
                let peer = 5 - ctx.rank();
                ctx.recv(peer, 1);
            }
        });
        assert!(
            msg.contains(
                "[deadlock] wait-for cycle, no messages in flight: \
                 rank 2 blocked in recv(src 3, tag user(1)) -> \
                 rank 3 blocked in recv(src 2, tag user(1)) -> rank 2"
            ),
            "{msg}"
        );
        assert!(
            msg.contains(
                "collective barrier seq 0 on world has 2 of 4 members: never arrived: \
                 rank 2 blocked in recv(src 3, tag user(1)), \
                 rank 3 blocked in recv(src 2, tag user(1))"
            ),
            "{msg}"
        );
    }

    #[test]
    fn group_collective_names_its_communicator() {
        // Rank 3 belongs to the group but never joins its all-reduce.
        let msg = panic_message(4, |ctx| {
            if ctx.rank() == 1 || ctx.rank() == 3 {
                let mut g = ctx.group(&[1, 3]);
                if ctx.rank() == 1 {
                    g.allreduce_sum(ctx, 1.0, CommPhase::Recovery);
                }
            }
        });
        assert!(
            msg.contains("rank 1 waiting in allreduce seq 0 on group 0x"),
            "{msg}"
        );
        assert!(msg.contains("never arrived: rank 3 (terminated)"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn unreceived_message_is_reported_at_teardown() {
        // Rank 2 sends a message no receive ever matches.
        let msg = panic_message(3, |ctx| {
            if ctx.rank() == 2 {
                ctx.send(1, 6, Payload::F64(1.0), CommPhase::Other);
            }
        });
        assert!(
            msg.contains("parcomm audit: 1 protocol violation(s):"),
            "{msg}"
        );
        assert!(
            msg.contains("[message-drain] rank 1: unconsumed message from rank 2 (tag user(6)"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "node 1 panicked")]
    fn node_panic_propagates() {
        Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 must not block forever on a dead peer in this test:
            // it does no communication.
        });
    }
}
