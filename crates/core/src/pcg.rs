//! The resilient distributed PCG node program — paper Alg. 1 with the ESR
//! hooks of Secs. 2.2–4 woven into the SpMV.
//!
//! Differences from non-resilient PCG are exactly the ones the paper
//! describes:
//!
//! * the SpMV ghost exchange additionally carries the extra sets `Rᶜᵢₖ`
//!   appended to existing messages (one λ per link, Sec. 4.2);
//! * received search-direction elements are *retained* for two generations
//!   instead of dropped (Sec. 2.2);
//! * at every post-SpMV boundary the ULFM-style oracle is polled; on
//!   failure, all nodes enter the shared [`crate::engine`] recovery and the
//!   interrupted iteration restarts.
//!
//! The solver's side of the recovery contract is [`PcgKernel`]: one
//! retention channel (`p(j)`, `p(j-1)` as its two generations), one
//! replicated scalar `β(j-1)`, and the reconstruction maps of paper Alg. 2
//! (`z = p(j) − β p(j-1)`; `r = M z` locally for the M-given
//! preconditioners, or the P-given gather + distributed solve for
//! `ExplicitP`).
//!
//! With `resilience: None` the solver is the reference non-resilient PCG
//! used for the paper's `t₀` baselines.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::fault::poison;
use parcomm::{CommPhase, CommStats, FailAt, NodeCtx};
use sparsemat::vecops::{axpy, dot, xpay};
use sparsemat::Csr;

use crate::config::{PrecondConfig, SolverConfig};
use crate::engine::{
    self, splice, ChannelRead, EngineComm, EngineEnv, EngineOutcome, EngineShared, Layout,
    ReconBlock, RecoveryTimeline, ResilientKernel,
};
use crate::retention::Gen;

/// Per-node result of a distributed solve.
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// This node's rank.
    pub rank: usize,
    /// The owned block of the solution.
    pub x_loc: Vec<f64>,
    /// Global range of `x_loc`.
    pub range_start: usize,
    /// Completed iterations.
    pub iterations: usize,
    /// Final solver residual norm ‖r‖₂ (global, replicated).
    pub residual_norm: f64,
    /// Initial residual norm ‖b - A x₀‖₂.
    pub initial_residual_norm: f64,
    /// Whether the residual target was reached.
    pub converged: bool,
    /// Virtual time at solve end (setup excluded).
    pub vtime_total: f64,
    /// Virtual time spent inside recovery.
    pub vtime_recovery: f64,
    /// Number of recovery events (not attempts).
    pub recoveries: usize,
    /// Total ranks reconstructed across all recoveries.
    pub ranks_recovered: usize,
    /// Communication statistics (setup excluded).
    pub stats: CommStats,
    /// Virtual time of the setup phase (plans, factorizations).
    pub vtime_setup: f64,
    /// True if this node failed with no replacement available and left the
    /// cluster (its subdomain was adopted by a survivor; `x_loc` is empty).
    /// Always `false` under [`crate::config::RecoveryPolicy::Replace`].
    pub retired: bool,
    /// Per-substep virtual-time timeline of every recovery event this node
    /// completed, in event order (empty on failure-free runs).
    pub recovery_timelines: Vec<RecoveryTimeline>,
}

impl NodeOutcome {
    /// Assemble the per-node outcome at the end of a solve, reading the
    /// clock and statistics from the node context. A retired node owns no
    /// rows and its convergence state is stale (the survivors finish the
    /// solve), so its outcome is forced to the empty/unconverged shape —
    /// one place, shared by every solver, instead of a per-solver pair of
    /// near-identical struct literals.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        ctx: &parcomm::NodeCtx,
        x_loc: Vec<f64>,
        range_start: usize,
        iterations: usize,
        residual_norm: f64,
        initial_residual_norm: f64,
        converged: bool,
        vtime_recovery: f64,
        recoveries: usize,
        ranks_recovered: usize,
        vtime_setup: f64,
        retired: bool,
        recovery_timelines: Vec<RecoveryTimeline>,
    ) -> Self {
        NodeOutcome {
            rank: ctx.rank(),
            x_loc: if retired { Vec::new() } else { x_loc },
            range_start: if retired { 0 } else { range_start },
            iterations,
            residual_norm,
            initial_residual_norm,
            converged: converged && !retired,
            vtime_total: ctx.vtime(),
            vtime_recovery,
            recoveries,
            ranks_recovered,
            stats: ctx.stats().clone(),
            vtime_setup,
            retired,
            recovery_timelines,
        }
    }
}

// Block-vector slots of the PCG kernel.
const P: usize = 0;
const Z: usize = 1;
const R: usize = 2;
const X: usize = 3;

/// Blocking PCG's [`ResilientKernel`]: borrows the node program's live
/// state for the duration of one recovery event.
pub(crate) struct PcgKernel<'a> {
    /// The iterate block `x(j)_Iᵢ`.
    pub x: &'a mut Vec<f64>,
    /// The residual block `r(j)_Iᵢ`.
    pub r: &'a mut Vec<f64>,
    /// The preconditioned residual block `z(j)_Iᵢ`.
    pub z: &'a mut Vec<f64>,
    /// The search-direction block `p(j)_Iᵢ`.
    pub p: &'a mut Vec<f64>,
    /// SpMV result scratch (resized on a layout change).
    pub u: &'a mut Vec<f64>,
    /// Ghost values of `p(j)` from the last exchange.
    pub ghosts: &'a mut Vec<f64>,
    /// Owned right-hand-side block.
    pub b_loc: &'a mut Vec<f64>,
    /// The replicated scalar `β(j-1)`.
    pub beta_prev: &'a mut f64,
    /// The replicated scalar `r(j)ᵀz(j)` (checkpoint-pack state; ESR
    /// re-derives it with a fresh reduction instead).
    pub rz: &'a mut f64,
    /// `P = M⁻¹` when configured: selects the P-given reconstruction
    /// (Alg. 2 lines 5–6) in the distributed stage.
    pub explicit_p: Option<Arc<Csr>>,
}

impl ResilientKernel for PcgKernel<'_> {
    fn n_channels(&self) -> usize {
        1
    }

    fn channel_reads(&self, has_prev: bool) -> Vec<ChannelRead> {
        vec![
            ChannelRead {
                channel: 0,
                generation: Gen::Cur,
                required: true,
                what: "p(j)",
            },
            ChannelRead {
                channel: 0,
                generation: Gen::Prev,
                required: has_prev,
                what: "p(j-1)",
            },
        ]
    }

    fn scalars(&self) -> Vec<f64> {
        vec![*self.beta_prev]
    }

    fn set_scalars(&mut self, s: &[f64]) {
        *self.beta_prev = s[0];
    }

    fn poison(&mut self) {
        poison(self.x);
        poison(self.r);
        poison(self.z);
        poison(self.p);
        poison(self.ghosts);
        *self.beta_prev = f64::NAN;
        *self.rz = f64::NAN;
    }

    fn n_pack_vecs(&self) -> usize {
        4
    }

    fn n_pack_scalars(&self) -> usize {
        2
    }

    fn pack(&self) -> Vec<f64> {
        // Layout [x | r | z | p | β(j-1), r(j)ᵀz(j)] — the loop-top state a
        // restarted iteration resumes from.
        let mut data = Vec::with_capacity(4 * self.x.len() + 2);
        data.extend_from_slice(self.x);
        data.extend_from_slice(self.r);
        data.extend_from_slice(self.z);
        data.extend_from_slice(self.p);
        data.push(*self.beta_prev);
        data.push(*self.rz);
        data
    }

    fn unpack(&mut self, data: &[f64], new_range: &Range<usize>, b: &[f64]) {
        let nloc = new_range.len();
        let vec_at = |slot: usize| data[slot * nloc..(slot + 1) * nloc].to_vec();
        *self.x = vec_at(0);
        *self.r = vec_at(1);
        *self.z = vec_at(2);
        *self.p = vec_at(3);
        *self.beta_prev = data[4 * nloc];
        *self.rz = data[4 * nloc + 1];
        *self.b_loc = b[new_range.clone()].to_vec();
        // Scratch follows the (possibly unchanged) block length; ghosts are
        // refreshed by the restarted iteration's re-scatter.
        *self.u = vec![0.0; nloc];
    }

    fn n_block_vecs(&self) -> usize {
        4
    }

    fn r_slot(&self) -> usize {
        R
    }

    fn x_slot(&self) -> usize {
        X
    }

    fn x_loc(&self) -> &[f64] {
        self.x
    }

    fn rebuild_local(
        &mut self,
        ctx: &mut NodeCtx,
        shared: &EngineShared<'_>,
        blk: &mut ReconBlock,
        mut copies: Vec<Option<Vec<f64>>>,
    ) {
        let p_cur = copies[0].take().expect("p(j) copies are mandatory");
        let blen = blk.range.len();
        // z(j) = p(j) − β(j-1) p(j-1)  [Alg. 2 line 4].
        let mut z = vec![0.0; blen];
        if shared.has_prev {
            let p_prev = copies[1]
                .take()
                .expect("complete when has_prev (the engine panics on a gap)");
            let beta = *self.beta_prev;
            for i in 0..blen {
                z[i] = p_cur[i] - beta * p_prev[i];
            }
        } else {
            z.copy_from_slice(&p_cur);
        }
        ctx.clock_mut().advance_flops(2 * blen);
        // M-given: r_b = M_{b,b} z_b from static data alone (what lets an
        // adopter rebuild a block it never owned). P-given defers r to the
        // distributed stage.
        if self.explicit_p.is_none() {
            blk.vecs[R] = engine::m_block_forward(ctx, shared.a, shared.precond, &blk.range, &z);
        }
        blk.vecs[P] = p_cur;
        blk.vecs[Z] = z;
    }

    fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        _shared: &EngineShared<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        // P-given (Alg. 2 lines 5–6): survivors serve their r values over
        // P's pattern, reconstructors form v = z_If − P_{If,I\If} r_{I\If}
        // and solve P_{If,If} r_If = v over the group.
        let Some(p_full) = self.explicit_p.clone() else {
            return;
        };
        let lookup = comm.gather_outside(ctx, &p_full, blocks, self.r);
        if blocks.is_empty() {
            return;
        }
        let lookup = lookup.expect("reconstructors obtain the r lookup");
        let mut rows: Vec<usize> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        for blk in blocks.iter() {
            let mut flops = 0usize;
            for (i, gr) in blk.range.clone().enumerate() {
                let (cols, vals) = p_full.row(gr);
                let mut s = 0.0;
                for (c, v) in cols.iter().zip(vals) {
                    let c = *c as usize;
                    if comm.if_indices.binary_search(&c).is_err() {
                        let pos = lookup
                            .binary_search_by_key(&c, |e| e.0)
                            .expect("gathered every surviving coupled r");
                        s += v * lookup[pos].1;
                    }
                }
                flops += 2 * cols.len();
                rhs.push(blk.vecs[Z][i] - s);
            }
            ctx.clock_mut().advance_flops(flops + blk.range.len());
            rows.extend(blk.range.clone());
        }
        let r_new = comm.solve_if_system(ctx, &p_full, &rows, rhs);
        let mut off = 0usize;
        for blk in blocks.iter_mut() {
            blk.vecs[R] = r_new[off..off + blk.range.len()].to_vec();
            off += blk.range.len();
        }
    }

    fn install(&mut self, blk: &ReconBlock) {
        self.p.copy_from_slice(&blk.vecs[P]);
        self.z.copy_from_slice(&blk.vecs[Z]);
        self.r.copy_from_slice(&blk.vecs[R]);
        self.x.copy_from_slice(&blk.vecs[X]);
        // ghosts/retention refill on the restarted iteration's re-scatter.
    }

    fn splice(
        &mut self,
        new_range: &Range<usize>,
        own: Option<&Range<usize>>,
        blocks: &[ReconBlock],
        b: &[f64],
    ) {
        *self.x = splice(new_range, own, self.x, blocks, X);
        *self.r = splice(new_range, own, self.r, blocks, R);
        *self.z = splice(new_range, own, self.z, blocks, Z);
        *self.p = splice(new_range, own, self.p, blocks, P);
        *self.b_loc = b[new_range.clone()].to_vec();
    }

    fn resize_scratch(&mut self, nloc: usize, n_ghosts: usize) {
        *self.u = vec![0.0; nloc];
        *self.ghosts = vec![0.0; n_ghosts];
    }
}

/// The SPMD node program: solve `A x = b` with (optionally resilient) PCG.
///
/// All nodes receive the same `a`, `b` (static data on reliable storage)
/// and configuration; the failure script lives in the cluster's oracle.
pub fn esr_pcg_node(
    ctx: &mut NodeCtx,
    a: &Arc<Csr>,
    b: &Arc<Vec<f64>>,
    cfg: &SolverConfig,
) -> NodeOutcome {
    let n = a.n_rows();
    assert_eq!(b.len(), n, "rhs length");
    let rank = ctx.rank();
    // The driver's SolverConfig::validate rejects this combination with a
    // typed error; keep the node-level guard for direct Cluster::run users
    // — the P-given reconstruction gathers over the full cluster, which a
    // shrunken cluster no longer has, and failing here beats hanging deep
    // inside a post-shrink rebuild.
    if let Some(res) = &cfg.resilience {
        assert!(
            res.policy == crate::config::RecoveryPolicy::Replace
                || !matches!(cfg.precond, PrecondConfig::ExplicitP(_)),
            "rank {rank}: RecoveryPolicy::{:?} requires a block-diagonal (M-given) \
             preconditioner; use RecoveryPolicy::Replace with ExplicitP",
            res.policy
        );
    }

    // Protection flavor: ESR retains search directions in the scatter and
    // reconstructs; checkpoint/rollback deposits loop-top packs on a ring
    // and rolls every rank back. CR needs no retention channels.
    let cr = cfg.resilience.as_ref().and_then(|res| res.cr());
    let esr = cfg.resilience.is_some() && cr.is_none();

    // ---- setup: local rows, communication plans, preconditioner --------
    let mut layout = Layout::build_full(ctx, a, cfg, if cr.is_some() { 0 } else { 1 });
    ctx.barrier();
    let vtime_setup = ctx.vtime();
    ctx.reset_metrics();

    // ---- initial state: x(0) = 0 ---------------------------------------
    let mut nloc = layout.lm.n_local();
    let mut b_loc: Vec<f64> = b[layout.lm.range.clone()].to_vec();
    let mut x = vec![0.0; nloc];
    let mut r = b_loc.clone(); // r(0) = b − A·0
    let mut z = vec![0.0; nloc];
    layout.prec.apply(ctx, &r, &mut z);
    let mut p = z.clone(); // p(0) = z(0)
    let mut ghosts = vec![0.0; layout.lm.ghost_cols.len()];
    let mut u = vec![0.0; nloc];
    let mut pool = ctx.spare_pool();

    ctx.clock_mut().advance_flops(4 * nloc);
    // ‖r(0)‖² and r(0)ᵀz(0) travel in one fused length-2 all-reduce.
    let init = ctx.allreduce_vec(ReduceOp::Sum, vec![dot(&r, &r), dot(&r, &z)]);
    let r0_sq = init[0];
    let r0_norm = r0_sq.sqrt();
    let target_sq = cfg.rel_tol * cfg.rel_tol * r0_sq;
    let mut rz = init[1];
    let mut beta_prev = 0.0f64;

    let mut iterations = 0usize;
    let mut residual_sq = r0_sq;
    let mut converged = r0_norm <= f64::MIN_POSITIVE;
    let mut retired = false;
    let mut vtime_recovery = 0.0f64;
    let mut recoveries = 0usize;
    let mut ranks_recovered = 0usize;
    let mut handled_iter: HashSet<u64> = HashSet::new();
    let mut handled_sub: HashSet<(u64, u32)> = HashSet::new();
    let mut recovery_seq: u32 = 0;
    let mut recovery_timelines: Vec<RecoveryTimeline> = Vec::new();
    let resilient = cfg.resilience.is_some();
    let mut ckpt = cr.map(|c| {
        crate::retention::CheckpointStore::new(c, layout.comm.members(), layout.comm.index())
    });

    while !converged && iterations < cfg.max_iter {
        let j = iterations as u64;
        ctx.trace_open("iteration", j);

        // Periodic checkpoint deposit (loop top = the state a rollback
        // resumes from). Runs again right after a rollback — the agreed
        // epoch is itself a multiple of the interval — which refills
        // replicas lost with the failed ranks, on the current ring.
        if let Some(store) = ckpt.as_mut() {
            if j.is_multiple_of(store.interval() as u64) {
                let kernel = PcgKernel {
                    x: &mut x,
                    r: &mut r,
                    z: &mut z,
                    p: &mut p,
                    u: &mut u,
                    ghosts: &mut ghosts,
                    b_loc: &mut b_loc,
                    beta_prev: &mut beta_prev,
                    rz: &mut rz,
                    explicit_p: None,
                };
                let data = kernel.pack();
                let seq = recovery_seq;
                recovery_seq += 1;
                store.deposit(ctx, seq, j, data);
            }
        }

        // SpMV scatter: ghost exchange + redundancy distribution. The
        // retention generations rotate with every scatter of a new p(j)
        // (and identically on the post-recovery restart, which re-scatters
        // the recovered p(j) and thereby restores lost redundancy).
        if esr {
            layout.channels[0].rotate();
            layout
                .plan
                .exchange(ctx, &p, &mut ghosts, Some(&mut layout.channels[0]));
            layout.channels[0].finish_generation();
        } else {
            layout.plan.exchange(ctx, &p, &mut ghosts, None);
        }

        // ULFM failure boundary (paper Sec. 1.1.1): consistent notification.
        // Events naming ranks that already retired in an earlier shrink are
        // inert — that hardware is gone.
        if resilient && !handled_iter.contains(&j) {
            handled_iter.insert(j);
            let failed = layout.poll_member_failures(ctx, FailAt::Iteration(j));
            if !failed.is_empty() {
                let t0 = ctx.vtime();
                let res = cfg.resilience.as_ref().unwrap();
                let env = EngineEnv {
                    a,
                    b,
                    res,
                    precond: &cfg.precond,
                    iteration: j,
                    has_prev: j > 0,
                };
                let mut kernel = PcgKernel {
                    x: &mut x,
                    r: &mut r,
                    z: &mut z,
                    p: &mut p,
                    u: &mut u,
                    ghosts: &mut ghosts,
                    b_loc: &mut b_loc,
                    beta_prev: &mut beta_prev,
                    rz: &mut rz,
                    explicit_p: match &cfg.precond {
                        PrecondConfig::ExplicitP(p) => Some(p.clone()),
                        _ => None,
                    },
                };
                let rolled_back = match engine::recover(
                    ctx,
                    &env,
                    &mut layout,
                    &mut kernel,
                    &failed,
                    &mut handled_sub,
                    &mut recovery_seq,
                    &mut pool,
                    ckpt.as_mut(),
                ) {
                    EngineOutcome::Retired => {
                        retired = true;
                        ctx.trace_close(); // iteration
                        break;
                    }
                    EngineOutcome::Recovered(report) => {
                        recoveries += 1;
                        ranks_recovered += report.total_failed;
                        vtime_recovery += ctx.vtime() - t0;
                        nloc = layout.lm.n_local();
                        let rollback_to = report.rollback_to;
                        recovery_timelines.push(report.timeline);
                        rollback_to
                    }
                };
                if let Some(epoch) = rolled_back {
                    // Rollback: every rank resumes the checkpointed epoch;
                    // the unpacked state carries rz with it.
                    iterations = epoch as usize;
                } else {
                    // ESR: rz must be re-established (replacements recompute
                    // their share); bitwise identical on survivors' data.
                    ctx.clock_mut().advance_flops(2 * nloc);
                    rz = layout
                        .comm
                        .allreduce_sum(ctx, dot(&r, &z), CommPhase::Reduction);
                }
                // Restart the interrupted iteration: re-scatter p(j) (also
                // restores redundancy and replacement ghosts).
                ctx.trace_close(); // iteration
                continue;
            }
        }

        // u = A p(j)  (local part; ghosts already exchanged)
        layout.lm.spmv(&p, &ghosts, &mut u);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());

        // α(j) = r(j)ᵀz(j) / p(j)ᵀAp(j)   [Alg. 1 line 3]
        ctx.clock_mut().advance_flops(2 * nloc);
        let pap = layout
            .comm
            .allreduce_sum(ctx, dot(&p, &u), CommPhase::Reduction);
        if pap <= 0.0 || !pap.is_finite() {
            panic!("rank {rank}: PCG breakdown at iteration {j} (pᵀAp = {pap})");
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x); // line 4
        axpy(-alpha, &u, &mut r); // line 5
        ctx.clock_mut().advance_flops(4 * nloc);

        iterations += 1;

        // Apply the preconditioner *before* the convergence test so the
        // test value ‖r(j+1)‖² and the β numerator r(j+1)ᵀz(j+1) travel in
        // ONE length-2 all-reduce — two global reductions per iteration
        // instead of three. The preconditioner apply on the final
        // (converging) iteration is discarded work, but a full reduction
        // round is saved on every other iteration, and per Sec. 4.2 the
        // rounds dominate: λ ≫ µ at the reduction's message sizes.
        layout.prec.apply(ctx, &r, &mut z); // line 6
        ctx.clock_mut().advance_flops(4 * nloc);
        let rr_rz = layout.comm.allreduce_vec(
            ctx,
            ReduceOp::Sum,
            vec![dot(&r, &r), dot(&r, &z)],
            CommPhase::Reduction,
        );
        residual_sq = rr_rz[0];
        if residual_sq <= target_sq {
            converged = true;
            ctx.trace_close(); // iteration
            break;
        }
        let rz_next = rr_rz[1];
        beta_prev = rz_next / rz; // line 7
        rz = rz_next;
        xpay(&z, beta_prev, &mut p); // line 8
        ctx.clock_mut().advance_flops(2 * nloc);
        ctx.trace_close(); // iteration
    }

    NodeOutcome::finish(
        ctx,
        x,
        layout.lm.range.start,
        iterations,
        residual_sq.sqrt(),
        r0_norm,
        converged,
        vtime_recovery,
        recoveries,
        ranks_recovered,
        vtime_setup,
        retired,
        recovery_timelines,
    )
}
