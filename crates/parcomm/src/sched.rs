//! The discrete-event node scheduler: deterministic cooperative execution
//! of the simulated cluster.
//!
//! [`crate::cluster::Cluster::run`] still gives every node its own OS
//! thread (node programs keep their blocking call style and their private
//! stacks), but the threads no longer free-run: exactly **one** node
//! executes at any moment, and the scheduler decides which. A node runs
//! until it *blocks* (a receive with no matching message, or a collective
//! rendezvous that other members have not reached yet) or *finishes*; the
//! scheduler then hands the baton to the runnable node with the minimum
//! `(virtual time, rank)` key. Execution order is therefore a pure
//! function of the program — independent of host load, core count, and
//! OS scheduling — and the cluster occupies one core no matter how many
//! nodes it simulates, which is what makes N = 1024 runs routine.
//!
//! ## Park states
//!
//! * [`NodeState::Blocked`] — parked in a receive, waiting for a matching
//!   `(src, tag)` message.
//! * [`NodeState::Collective`] — parked at the **rendezvous** of a
//!   recursive-doubling collective (all-reduce or barrier, world or
//!   group, blocking or not), keyed by the collective instance
//!   ([`Tag::instance`]). Each member deposits its entry clock and buffer
//!   and parks once. The last member to arrive runs the whole schedule
//!   for every member in memory ([`crate::rendezvous::complete`]), hands
//!   each parked member its plan and marks it runnable. A collective
//!   costs `n − 1` baton handoffs instead of one per message
//!   (`n·log₂n/2` on powers of two).
//!
//! ## Invariants
//!
//! * **Single baton.** At most one node is in [`NodeState::Running`];
//!   every other thread is parked on its per-rank condvar. All scheduler
//!   state sits behind one mutex, and the running node is the only
//!   thread that transitions it (until the baton is handed over).
//! * **Park implies no progress.** A node parks in a receive only after
//!   draining its channel and finding no matching message — and no peer
//!   can send while it drains, because sending requires the baton. It
//!   parks at a rendezvous only when some member has not arrived. A
//!   parked node's wait is therefore genuine, and "no runnable node while
//!   parked nodes exist" is *exactly* a deadlock: detected the instant it
//!   forms, with the wait-for chain spelled out (receive sources, and the
//!   members a collective still waits for). No timeouts, no snapshot
//!   heuristics.
//! * **The last arrival completes the collective and never parks.** It
//!   keeps the baton, like a sender: the collective finishes inside its
//!   call, and the members it wakes run when dispatch order reaches them.
//! * **Wake on match only.** A send marks a blocked matching receiver
//!   [`NodeState::Runnable`] (at the virtual time it parked at) but does
//!   not preempt the sender; the receiver runs when dispatch order
//!   reaches it. A completed rendezvous likewise wakes its parked members
//!   at the virtual times they arrived with.
//!
//! Dispatching by minimum `(vtime, rank)` mirrors the BSP cost model of
//! [`crate::vclock`]: virtual time advances only through each node's own
//! compute and communication charges, and message arrival stamps are
//! fixed by the sender — the scheduler's choice never feeds back into
//! the clock algebra. The rendezvous is vtime-neutral for the same
//! reason: a member's clock after a recursive-doubling collective depends
//! only on the entry clocks and the fixed pairing, not on when each
//! member's thread ran, so computing every member's rounds in one place
//! yields the arrival stamps the messages would have carried. Every
//! virtual-time result is bitwise identical to the old free-running
//! thread-per-node runtime, which computed the same clock values in
//! whatever order the host happened to run the threads.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::rendezvous::{complete, describe_instance, RdCall, RdPlan};
use crate::tag::Tag;

/// What a blocked node is waiting for (`src: None` ⇒ any source).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockedOn {
    pub src: Option<usize>,
    pub tag: Tag,
}

impl BlockedOn {
    fn matches(&self, src: usize, tag: Tag) -> bool {
        self.src.is_none_or(|s| s == src) && self.tag == tag
    }

    fn describe(&self) -> String {
        match self.src {
            Some(s) => format!("recv(src {}, tag {})", s, self.tag.describe()),
            None => format!("recv_any(tag {})", self.tag.describe()),
        }
    }
}

/// The node lifecycle, as the scheduler sees it. (Failed-and-replaced
/// and retired are *solver-level* roles layered on top — see
/// [`crate::fault`]; a node acting as a replacement or retiring early is
/// still Runnable/Blocked/Collective/Done here.)
#[derive(Clone, Debug)]
enum NodeState {
    /// Parked but dispatchable: runs when its `(vtime, rank)` key is the
    /// minimum among runnable nodes.
    Runnable(f64),
    /// Holds the baton (at most one node at a time).
    Running,
    /// Parked in a blocking receive with no matching message delivered.
    Blocked { on: BlockedOn, vtime: f64 },
    /// Parked at the rendezvous of collective instance `key`, waiting for
    /// the members that have not arrived.
    Collective { key: Tag, vtime: f64 },
    /// The node program returned — or panicked (see `abort`).
    Done,
}

/// One collective instance's rendezvous: the members that have arrived.
struct Rendezvous {
    /// Member ranks by participant index.
    members: Arc<[usize]>,
    /// Deposits by participant index.
    calls: Vec<Option<RdCall>>,
    arrived: usize,
}

impl Rendezvous {
    /// The first arrival's tag names the instance (op, communicator, seq).
    fn describe(&self) -> String {
        let tag = self
            .calls
            .iter()
            .flatten()
            .next()
            .expect("a rendezvous exists only once a member arrived")
            .tag;
        describe_instance(tag)
    }

    /// Ranks of the members that have not arrived, ascending.
    fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.calls.len())
            .filter(|&i| self.calls[i].is_none())
            .map(|i| self.members[i])
    }
}

struct SchedInner {
    state: Vec<NodeState>,
    /// Open collective rendezvous, keyed by collective instance.
    rendezvous: HashMap<Tag, Rendezvous>,
    /// Per rank: the plan a completed rendezvous left for its member.
    plans: Vec<Option<RdPlan>>,
    /// First rank whose program panicked; set before waking everyone so
    /// woken peers can name the culprit.
    abort: Option<usize>,
    /// Deadlock report, built by the dispatch that proved the stall.
    deadlock: Option<String>,
}

/// The cluster-wide scheduler. One per [`crate::cluster::Cluster`] run,
/// shared by all node threads.
pub(crate) struct Scheduler {
    inner: Mutex<SchedInner>,
    /// One condvar per rank: a single shared condvar would thundering-herd
    /// every baton handoff at N = 1024.
    cvs: Vec<Condvar>,
}

impl Scheduler {
    pub(crate) fn new(n: usize) -> Self {
        Scheduler {
            inner: Mutex::new(SchedInner {
                state: vec![NodeState::Runnable(0.0); n],
                rendezvous: HashMap::new(),
                plans: (0..n).map(|_| None).collect(),
                abort: None,
                deadlock: None,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
        }
    }

    /// Hand out the first baton (all nodes start Runnable at vtime 0.0,
    /// so rank 0 runs first). Called by the harness thread after the node
    /// threads are spawned.
    pub(crate) fn start(&self) {
        let mut g = self.lock();
        self.dispatch_locked(&mut g);
    }

    /// Node-thread entry point: park until dispatched for the first time.
    pub(crate) fn wait_for_baton(&self, rank: usize) {
        let g = self.lock();
        drop(self.wait_until_running(rank, g));
    }

    /// Block `rank` in a receive: record what it waits for, hand the baton
    /// to the next runnable node (or declare deadlock), and park until a
    /// matching send makes this node runnable and dispatch reaches it.
    pub(crate) fn park_recv(&self, rank: usize, on: BlockedOn, vtime: f64) {
        let mut g = self.lock();
        g.state[rank] = NodeState::Blocked { on, vtime };
        self.dispatch_locked(&mut g);
        drop(self.wait_until_running(rank, g));
    }

    /// A message `(src, tag)` was pushed into `dest`'s channel. If `dest`
    /// is blocked on a matching receive it becomes runnable (at the
    /// virtual time it parked at) — the sender keeps the baton.
    pub(crate) fn notify_send(&self, dest: usize, src: usize, tag: Tag) {
        let mut g = self.lock();
        if let NodeState::Blocked { on, vtime } = g.state[dest] {
            if on.matches(src, tag) {
                g.state[dest] = NodeState::Runnable(vtime);
            }
        }
    }

    /// `rank` reaches a recursive-doubling collective: deposit `call` at
    /// the instance's rendezvous (`members` maps participant indices to
    /// ranks). Every member but the last parks until the last arrival
    /// completes the collective; the last one completes it for everybody
    /// and keeps the baton. Returns this member's plan and whether it
    /// parked.
    ///
    /// # Panics
    /// Panics with a `[collective-mismatch]` report when the members
    /// disagree on the operation, operator, size or buffer length.
    pub(crate) fn rendezvous(
        &self,
        rank: usize,
        members: &Arc<[usize]>,
        call: RdCall,
    ) -> (RdPlan, bool) {
        let key = call.tag.instance();
        let vtime = call.clock;
        let mut g = self.lock();
        let rdv = g.rendezvous.entry(key).or_insert_with(|| Rendezvous {
            members: members.clone(),
            calls: (0..call.n).map(|_| None).collect(),
            arrived: 0,
        });
        let index = call.index;
        if rdv.calls.get(index).is_none_or(Option::is_some) {
            let report = format!(
                "[collective-mismatch] {}: rank {rank} cannot join as participant {index} \
                 of {}: the slot is taken or out of range",
                describe_instance(call.tag),
                rdv.calls.len()
            );
            drop(g);
            panic!("{report}");
        }
        rdv.calls[index] = Some(call);
        rdv.arrived += 1;
        if rdv.arrived < rdv.calls.len() {
            g.state[rank] = NodeState::Collective { key, vtime };
            self.dispatch_locked(&mut g);
            let mut g = self.wait_until_running(rank, g);
            let plan = g.plans[rank]
                .take()
                .expect("a woken rendezvous member finds its plan");
            return (plan, true);
        }

        // The last arrival. Complete outside the lock: a member mismatch
        // panics here, and must not poison the scheduler for the teardown.
        let mut rdv = g.rendezvous.remove(&key).expect("the rendezvous is open");
        drop(g);
        let calls = std::mem::take(&mut rdv.calls)
            .into_iter()
            .map(|c| c.expect("every member arrived"))
            .collect();
        let plans = complete(calls, &rdv.members).unwrap_or_else(|report| panic!("{report}"));
        let mut mine = None;
        let mut g = self.lock();
        for (i, plan) in plans.into_iter().enumerate() {
            let r = rdv.members[i];
            if r == rank {
                mine = Some(plan);
                continue;
            }
            if let NodeState::Collective { vtime, .. } = g.state[r] {
                g.state[r] = NodeState::Runnable(vtime);
            }
            g.plans[r] = Some(plan);
        }
        (mine.expect("the last arrival is a member"), false)
    }

    /// `rank`'s program returned cleanly; hand the baton on.
    pub(crate) fn finish(&self, rank: usize) {
        let mut g = self.lock();
        g.state[rank] = NodeState::Done;
        self.dispatch_locked(&mut g);
    }

    /// `rank`'s program panicked. Record the root cause (first aborter
    /// wins) and wake every parked node; each wakes into a panic naming
    /// the culprit, so the whole cluster tears down immediately.
    pub(crate) fn abort(&self, rank: usize) {
        let mut g = self.lock();
        if g.abort.is_none() {
            g.abort = Some(rank);
        }
        g.state[rank] = NodeState::Done;
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedInner> {
        self.inner.lock().expect("scheduler lock poisoned")
    }

    /// Park on this rank's condvar until dispatched; returns the lock.
    /// Panics (inside the node's `catch_unwind`) when the cluster aborted
    /// or deadlocked while parked.
    fn wait_until_running<'a>(
        &'a self,
        rank: usize,
        mut g: MutexGuard<'a, SchedInner>,
    ) -> MutexGuard<'a, SchedInner> {
        loop {
            if matches!(g.state[rank], NodeState::Running) {
                return g;
            }
            if let Some(report) = &g.deadlock {
                let report = report.clone();
                drop(g);
                panic!("{report}");
            }
            if let Some(p) = g.abort {
                drop(g);
                panic!("rank {rank}: peer {p} aborted");
            }
            g = self.cvs[rank].wait(g).expect("scheduler lock poisoned");
        }
    }

    /// Hand the baton to the runnable node with the minimum
    /// `(vtime, rank)` key. If none is runnable but parked nodes remain,
    /// the cluster is deadlocked: publish the report and wake everyone.
    fn dispatch_locked(&self, inner: &mut SchedInner) {
        let mut best: Option<(f64, usize)> = None;
        for (rank, st) in inner.state.iter().enumerate() {
            if let NodeState::Runnable(vt) = st {
                // Ascending rank scan with a strict comparison ⇒ ties on
                // vtime resolve to the lower rank. NaN never appears in a
                // vclock, but total_cmp keeps the order total regardless.
                if best.is_none_or(|(bt, _)| vt.total_cmp(&bt).is_lt()) {
                    best = Some((*vt, rank));
                }
            }
        }
        match best {
            Some((_, rank)) => {
                inner.state[rank] = NodeState::Running;
                self.cvs[rank].notify_one();
            }
            None => {
                let any_parked = inner.state.iter().any(NodeState::is_parked);
                if any_parked && inner.abort.is_none() && inner.deadlock.is_none() {
                    inner.deadlock = Some(deadlock_report(&inner.state, &inner.rendezvous));
                    for cv in &self.cvs {
                        cv.notify_all();
                    }
                }
            }
        }
    }
}

impl NodeState {
    /// Parked waiting for another node (not merely awaiting dispatch).
    fn is_parked(&self) -> bool {
        matches!(
            self,
            NodeState::Blocked { .. } | NodeState::Collective { .. }
        )
    }
}

/// Spell out why the cluster can make no progress. Reached only when no
/// node is runnable and at least one is parked — every live node is
/// parked, so the wait-for graph has either a cycle, a chain into a
/// terminated rank, or an any-source wait that nobody can satisfy. A
/// receive waits for its source; a collective waits for its lowest
/// member that has not arrived. Every open collective is listed after the
/// chain, with all of its missing members.
fn deadlock_report(state: &[NodeState], rendezvous: &HashMap<Tag, Rendezvous>) -> String {
    let describe = |r: usize| match &state[r] {
        NodeState::Blocked { on, .. } => format!("rank {} blocked in {}", r, on.describe()),
        NodeState::Collective { key, .. } => {
            format!("rank {} waiting in {}", r, rendezvous[key].describe())
        }
        NodeState::Done => format!("rank {r} (terminated)"),
        _ => format!("rank {r} (running)"),
    };
    // `None` ⇒ an any-source receive.
    let waits_for = |r: usize| match &state[r] {
        NodeState::Blocked { on, .. } => on.src,
        NodeState::Collective { key, .. } => rendezvous[key].missing().next(),
        _ => unreachable!("only parked ranks join a wait chain"),
    };
    let join = |ranks: &[usize]| {
        ranks
            .iter()
            .map(|&r| describe(r))
            .collect::<Vec<_>>()
            .join(" -> ")
    };
    let start = state
        .iter()
        .position(NodeState::is_parked)
        .expect("deadlock report needs a parked node");
    let mut chain = vec![start];
    let mut out = loop {
        let cur = *chain.last().expect("chain non-empty");
        let Some(next) = waits_for(cur) else {
            // An any-source wait that no live node can satisfy: report
            // the whole (fully parked) cluster.
            let live: Vec<usize> = (0..state.len())
                .filter(|&r| !matches!(state[r], NodeState::Done))
                .collect();
            break format!(
                "[deadlock] every live rank is blocked with no messages in flight: {}",
                live.iter()
                    .map(|&r| describe(r))
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        };
        if matches!(state[next], NodeState::Done) {
            break format!(
                "[deadlock] wait chain ends at a terminated rank: {} -> rank {next} (terminated)",
                join(&chain)
            );
        }
        if let Some(pos) = chain.iter().position(|&r| r == next) {
            break format!(
                "[deadlock] wait-for cycle, no messages in flight: {} -> rank {}",
                join(&chain[pos..]),
                chain[pos]
            );
        }
        chain.push(next);
    };
    let mut open: Vec<(&Tag, &Rendezvous)> = rendezvous.iter().collect();
    open.sort_by_key(|&(key, _)| *key);
    for (_, rdv) in open {
        let missing: Vec<String> = rdv.missing().map(describe).collect();
        out.push_str(&format!(
            "; collective {} has {} of {} members: never arrived: {}",
            rdv.describe(),
            rdv.arrived,
            rdv.calls.len(),
            missing.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;
    use crate::tag::op;

    fn blocked(src: Option<usize>, tag: Tag) -> NodeState {
        NodeState::Blocked {
            on: BlockedOn { src, tag },
            vtime: 0.0,
        }
    }

    fn no_rendezvous() -> HashMap<Tag, Rendezvous> {
        HashMap::new()
    }

    /// An open world all-reduce rendezvous of `n` members at seq 0 that
    /// `arrived` have reached.
    fn open_allreduce(n: usize, arrived: &[usize]) -> (Tag, HashMap<Tag, Rendezvous>) {
        let tag = Tag::coll(op::ALLREDUCE, 0);
        let mut calls: Vec<Option<RdCall>> = (0..n).map(|_| None).collect();
        for &i in arrived {
            calls[i] = Some(RdCall {
                index: i,
                tag,
                opr: Some(ReduceOp::Sum),
                n,
                clock: 0.0,
                msg_cost: 1.0,
                buf: vec![1.0],
            });
        }
        let rdv = Rendezvous {
            members: (0..n).collect(),
            calls,
            arrived: arrived.len(),
        };
        (tag.instance(), HashMap::from([(tag.instance(), rdv)]))
    }

    #[test]
    fn blocked_on_matching() {
        let b = BlockedOn {
            src: Some(3),
            tag: Tag::user(7),
        };
        assert!(b.matches(3, Tag::user(7)));
        assert!(!b.matches(2, Tag::user(7)));
        assert!(!b.matches(3, Tag::user(8)));
        let any = BlockedOn {
            src: None,
            tag: Tag::user(7),
        };
        assert!(any.matches(5, Tag::user(7)));
        assert!(!any.matches(5, Tag::user(8)));
    }

    #[test]
    fn report_names_cycles() {
        let state = vec![
            blocked(Some(1), Tag::user(1)),
            blocked(Some(0), Tag::user(2)),
        ];
        let r = deadlock_report(&state, &no_rendezvous());
        assert!(r.contains("[deadlock] wait-for cycle"), "{r}");
        assert!(
            r.contains("rank 0 blocked in recv(src 1, tag user(1))"),
            "{r}"
        );
        assert!(
            r.contains("rank 1 blocked in recv(src 0, tag user(2))"),
            "{r}"
        );
        assert!(r.ends_with("-> rank 0"), "{r}");
    }

    #[test]
    fn report_names_terminated_targets() {
        let state = vec![blocked(Some(1), Tag::user(1)), NodeState::Done];
        let r = deadlock_report(&state, &no_rendezvous());
        assert!(r.contains("wait chain ends at a terminated rank"), "{r}");
        assert!(r.ends_with("-> rank 1 (terminated)"), "{r}");
    }

    #[test]
    fn report_names_starved_any_source_waits() {
        let state = vec![blocked(None, Tag::user(4)), NodeState::Done];
        let r = deadlock_report(&state, &no_rendezvous());
        assert!(r.contains("every live rank is blocked"), "{r}");
        assert!(r.contains("recv_any(tag user(4))"), "{r}");
    }

    #[test]
    fn report_names_collectives_and_their_missing_members() {
        // Ranks 0 and 2 wait in an all-reduce; rank 1 terminated, rank 3
        // waits for rank 1 in a receive.
        let (key, rdv) = open_allreduce(4, &[0, 2]);
        let parked = NodeState::Collective { key, vtime: 0.0 };
        let state = vec![
            parked.clone(),
            NodeState::Done,
            parked,
            blocked(Some(1), Tag::user(3)),
        ];
        let r = deadlock_report(&state, &rdv);
        assert!(
            r.starts_with(
                "[deadlock] wait chain ends at a terminated rank: rank 0 waiting in \
                 allreduce seq 0 on world -> rank 1 (terminated)"
            ),
            "{r}"
        );
        assert!(
            r.contains(
                "collective allreduce seq 0 on world has 2 of 4 members: never arrived: \
                 rank 1 (terminated), rank 3 blocked in recv(src 1, tag user(3))"
            ),
            "{r}"
        );
    }
}
