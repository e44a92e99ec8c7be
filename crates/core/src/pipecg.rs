//! The resilient distributed **pipelined** PCG node program —
//! communication-hiding PCG (Ghysels–Vanroose recurrences) with the ESR
//! resilience of Levonyak, Pacher & Gansterer (arXiv:1912.09230) woven in.
//!
//! Differences from the blocking [`crate::pcg`] solver:
//!
//! * the two dependent reductions per iteration are fused into **one**
//!   length-3 all-reduce (`γ = rᵀu`, `δ = wᵀu`, `‖r‖²`), issued with
//!   [`parcomm::Group::iallreduce_vec`] on the active members'
//!   communicator (the world, or the survivors after a shrink) *before*
//!   the preconditioner application, ghost exchange, and
//!   SpMV — all of which are independent of the reduction result, so their
//!   cost hides the reduction's flight time on the overlap-aware virtual
//!   clock;
//! * the ghost exchange scatters `m(j) = M⁻¹ w(j)` and piggybacks
//!   redundant copies of `u(j)` and `p(j-1)` — the two vectors from which
//!   the whole pipelined state is reconstructible through the invariants
//!   `r = Mu, w = Au, s = Ap, q = M⁻¹s, z = Aq` (see [`PipeKernel`]);
//! * the ULFM boundary is polled at the same post-exchange point; a
//!   failure first drains the in-flight reduction (its values are from the
//!   pre-failure state and are simply discarded), then reconstructs
//!   through the shared [`crate::engine`] and restarts the interrupted
//!   iteration.
//!
//! Requires a block-diagonal (M-given) preconditioner — `None`, `Jacobi`,
//! or `BlockJacobiExact`. The P-given `ExplicitP` variant applies `P` with
//! its own ghost exchange, which would serialize against the overlapped
//! reduction and reintroduce the latency the method exists to hide; it is
//! rejected by configuration validation.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::fault::poison;
use parcomm::{CommPhase, FailAt, NodeCtx};
use sparsemat::vecops::{axpy, dot, xpay};
use sparsemat::Csr;

use crate::config::SolverConfig;
use crate::engine::{
    self, splice, ChannelRead, EngineComm, EngineEnv, EngineOutcome, EngineShared, Layout,
    ReconBlock, RecoveryTimeline, ResilientKernel,
};
use crate::pcg::NodeOutcome;
use crate::retention::Gen;
use crate::scatter::PipeBackups;

// Block-vector slots of the pipelined kernel.
const U: usize = 0;
const P: usize = 1;
const R: usize = 2;
const X: usize = 3;
const W: usize = 4;
const S: usize = 5;
const Q: usize = 6;
const Z: usize = 7;

/// Pipelined PCG's [`ResilientKernel`].
///
/// The pipelined solver carries four auxiliary vectors beyond PCG's
/// `(x, r, z, p)`, but they are all tied to `u` and `p` by the invariants
///
/// ```text
/// r = M u,   w = A u,   s = A p,   q = M⁻¹ s,   z = A q,
/// ```
///
/// so redundant copies of **u(j)** and **p(j-1)** (two retention channels,
/// distributed with the `m`-ghost exchange — see
/// [`crate::scatter::PipeBackups`]) are enough to reconstruct everything:
/// `r = M u` per block from static data, `x` through the engine's shared
/// inner solve, and the 8-vector tail `w, s, q, z` through three
/// distributed `A`-products in the kernel's distributed stage.
pub(crate) struct PipeKernel<'a> {
    /// The iterate block `x(j)_Iᵢ`.
    pub x: &'a mut Vec<f64>,
    /// The residual block `r(j)_Iᵢ`.
    pub r: &'a mut Vec<f64>,
    /// `u(j) = M⁻¹ r(j)`.
    pub u: &'a mut Vec<f64>,
    /// `w(j) = A u(j)`.
    pub w: &'a mut Vec<f64>,
    /// The search direction `p(j-1)_Iᵢ`.
    pub p: &'a mut Vec<f64>,
    /// `s(j-1) = A p(j-1)`.
    pub s: &'a mut Vec<f64>,
    /// `q(j-1) = M⁻¹ s(j-1)`.
    pub q: &'a mut Vec<f64>,
    /// `z(j-1) = A q(j-1)`.
    pub z: &'a mut Vec<f64>,
    /// `m(j) = M⁻¹ w(j)` scratch.
    pub mbuf: &'a mut Vec<f64>,
    /// `n(j) = A m(j)` scratch.
    pub nbuf: &'a mut Vec<f64>,
    /// Ghost values of `m(j)` from the last exchange.
    pub ghosts: &'a mut Vec<f64>,
    /// Owned right-hand-side block.
    pub b_loc: &'a mut Vec<f64>,
    /// The replicated scalar `γ(j-1) = r(j-1)ᵀu(j-1)`.
    pub gamma_prev: &'a mut f64,
    /// The replicated scalar `α(j-1)`.
    pub alpha_prev: &'a mut f64,
    /// Whether a search direction `p(j-1)` exists yet (replicated;
    /// checkpoint-pack state — the restarted loop top branches on it).
    pub has_dir: &'a mut bool,
}

impl ResilientKernel for PipeKernel<'_> {
    fn n_channels(&self) -> usize {
        2
    }

    fn channel_reads(&self, has_prev: bool) -> Vec<ChannelRead> {
        vec![
            ChannelRead {
                channel: 0,
                generation: Gen::Cur,
                required: true,
                what: "u(j)",
            },
            ChannelRead {
                channel: 1,
                generation: Gen::Cur,
                required: has_prev,
                what: "p(j-1)",
            },
        ]
    }

    fn scalars(&self) -> Vec<f64> {
        vec![*self.gamma_prev, *self.alpha_prev]
    }

    fn set_scalars(&mut self, s: &[f64]) {
        *self.gamma_prev = s[0];
        *self.alpha_prev = s[1];
    }

    fn poison(&mut self) {
        poison(self.x);
        poison(self.r);
        poison(self.u);
        poison(self.w);
        poison(self.p);
        poison(self.s);
        poison(self.q);
        poison(self.z);
        poison(self.ghosts);
        *self.gamma_prev = f64::NAN;
        *self.alpha_prev = f64::NAN;
    }

    fn n_pack_vecs(&self) -> usize {
        8
    }

    fn n_pack_scalars(&self) -> usize {
        3
    }

    fn pack(&self) -> Vec<f64> {
        // The full 8-vector recurrence state plus the replicated scalars;
        // has_dir travels as 0.0/1.0 so the restarted loop top takes the
        // same β branch it originally did.
        let mut data = Vec::with_capacity(8 * self.x.len() + 3);
        data.extend_from_slice(self.x);
        data.extend_from_slice(self.r);
        data.extend_from_slice(self.u);
        data.extend_from_slice(self.w);
        data.extend_from_slice(self.p);
        data.extend_from_slice(self.s);
        data.extend_from_slice(self.q);
        data.extend_from_slice(self.z);
        data.push(*self.gamma_prev);
        data.push(*self.alpha_prev);
        data.push(if *self.has_dir { 1.0 } else { 0.0 });
        data
    }

    fn unpack(&mut self, data: &[f64], new_range: &Range<usize>, b: &[f64]) {
        let nloc = new_range.len();
        let vec_at = |slot: usize| data[slot * nloc..(slot + 1) * nloc].to_vec();
        *self.x = vec_at(0);
        *self.r = vec_at(1);
        *self.u = vec_at(2);
        *self.w = vec_at(3);
        *self.p = vec_at(4);
        *self.s = vec_at(5);
        *self.q = vec_at(6);
        *self.z = vec_at(7);
        *self.gamma_prev = data[8 * nloc];
        *self.alpha_prev = data[8 * nloc + 1];
        *self.has_dir = data[8 * nloc + 2] != 0.0;
        *self.b_loc = b[new_range.clone()].to_vec();
        *self.mbuf = vec![0.0; nloc];
        *self.nbuf = vec![0.0; nloc];
    }

    fn n_block_vecs(&self) -> usize {
        8
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
        let u_new = copies[0].take().expect("u(j) copies are mandatory");
        // r_If = M_{If,If} u_If — local because M is block-diagonal.
        blk.vecs[R] = engine::m_block_forward(ctx, shared.a, shared.precond, &blk.range, &u_new);
        if let Some(p_new) = copies[1].take() {
            blk.vecs[P] = p_new;
        } else {
            // Iteration 0: no search direction exists yet; the solver's
            // β = 0 branch re-initializes p, s, q, z from u and w.
            let blen = blk.range.len();
            blk.vecs[P] = vec![0.0; blen];
            blk.vecs[S] = vec![0.0; blen];
            blk.vecs[Q] = vec![0.0; blen];
            blk.vecs[Z] = vec![0.0; blen];
        }
        blk.vecs[U] = u_new;
    }

    fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        shared: &EngineShared<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        // w_If = (A u)_If: survivor ghost values + group all-gather of the
        // reconstructed u blocks.
        comm.apply_matrix(ctx, shared.a, blocks, U, W, self.u);
        if shared.has_prev {
            // s_If = (A p)_If, then q_If = M⁻¹_{b,b} s_If per block (local,
            // static data), then z_If = (A q)_If.
            comm.apply_matrix(ctx, shared.a, blocks, P, S, self.p);
            for blk in blocks.iter_mut() {
                blk.vecs[Q] = engine::m_block_inverse(
                    ctx,
                    shared.a,
                    shared.precond,
                    &blk.range,
                    &blk.vecs[S],
                );
            }
            comm.apply_matrix(ctx, shared.a, blocks, Q, Z, self.q);
        }
    }

    fn install(&mut self, blk: &ReconBlock) {
        self.u.copy_from_slice(&blk.vecs[U]);
        self.p.copy_from_slice(&blk.vecs[P]);
        self.r.copy_from_slice(&blk.vecs[R]);
        self.x.copy_from_slice(&blk.vecs[X]);
        self.w.copy_from_slice(&blk.vecs[W]);
        self.s.copy_from_slice(&blk.vecs[S]);
        self.q.copy_from_slice(&blk.vecs[Q]);
        self.z.copy_from_slice(&blk.vecs[Z]);
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
        *self.u = splice(new_range, own, self.u, blocks, U);
        *self.w = splice(new_range, own, self.w, blocks, W);
        *self.p = splice(new_range, own, self.p, blocks, P);
        *self.s = splice(new_range, own, self.s, blocks, S);
        *self.q = splice(new_range, own, self.q, blocks, Q);
        *self.z = splice(new_range, own, self.z, blocks, Z);
        *self.b_loc = b[new_range.clone()].to_vec();
    }

    fn resize_scratch(&mut self, nloc: usize, n_ghosts: usize) {
        *self.mbuf = vec![0.0; nloc];
        *self.nbuf = vec![0.0; nloc];
        *self.ghosts = vec![0.0; n_ghosts];
    }
}

/// The SPMD node program: solve `A x = b` with (optionally resilient)
/// pipelined PCG.
pub fn esr_pipecg_node(
    ctx: &mut NodeCtx,
    a: &Arc<Csr>,
    b: &Arc<Vec<f64>>,
    cfg: &SolverConfig,
) -> NodeOutcome {
    let n = a.n_rows();
    assert_eq!(b.len(), n, "rhs length");
    let rank = ctx.rank();

    // ---- setup: local rows, communication plans, preconditioner --------
    // Protection flavor (see `pcg`): ESR needs two retention channels,
    // copies of u(j) and of p(j-1); checkpoint/rollback needs none.
    let cr = cfg.resilience.as_ref().and_then(|res| res.cr());
    let esr = cfg.resilience.is_some() && cr.is_none();
    let mut layout = Layout::build_full(ctx, a, cfg, if cr.is_some() { 0 } else { 2 });
    assert!(
        !layout.prec.is_explicit_p(),
        "rank {rank}: pipelined PCG requires a block-diagonal (M-given) preconditioner \
         (None, Jacobi, or BlockJacobiExact), not ExplicitP"
    );
    ctx.barrier();
    let vtime_setup = ctx.vtime();
    ctx.reset_metrics();

    // ---- initial state: x(0) = 0, u(0) = M⁻¹r(0), w(0) = A u(0) --------
    let mut nloc = layout.lm.n_local();
    let mut b_loc: Vec<f64> = b[layout.lm.range.clone()].to_vec();
    let mut x = vec![0.0; nloc];
    let mut r = b_loc.clone(); // r(0) = b − A·0
    let mut u = vec![0.0; nloc];
    layout.prec.apply(ctx, &r, &mut u);
    let mut ghosts = vec![0.0; layout.lm.ghost_cols.len()];
    // The w(0) = A u(0) bootstrap needs one plain ghost exchange of u.
    layout.plan.exchange(ctx, &u, &mut ghosts, None);
    let mut w = vec![0.0; nloc];
    layout.lm.spmv(&u, &ghosts, &mut w);
    ctx.clock_mut().advance_flops(layout.lm.spmv_flops());

    let r0_sq = ctx.allreduce_sum(dot(&r, &r));
    ctx.clock_mut().advance_flops(2 * nloc);
    let r0_norm = r0_sq.sqrt();
    let target_sq = cfg.rel_tol * cfg.rel_tol * r0_sq;

    let mut z = vec![0.0; nloc];
    let mut q = vec![0.0; nloc];
    let mut s = vec![0.0; nloc];
    let mut p = vec![0.0; nloc];
    let mut mbuf = vec![0.0; nloc];
    let mut nbuf = vec![0.0; nloc];
    let mut gamma_prev = 0.0f64;
    let mut alpha_prev = 0.0f64;
    let mut pool = ctx.spare_pool();

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
    // True once a search direction p(j-1) exists. Cleared when a shrink
    // re-bootstraps the pipeline (below): the recurrences restart through
    // the β = 0 branch, exactly like iteration 0.
    let mut has_dir = false;
    let mut ckpt = cr.map(|c| {
        crate::retention::CheckpointStore::new(c, layout.comm.members(), layout.comm.index())
    });

    while !converged && iterations < cfg.max_iter {
        let j = iterations as u64;
        ctx.trace_open("iteration", j);

        // Periodic checkpoint deposit of the loop-top recurrence state
        // (before the overlapped reduction is issued).
        if let Some(store) = ckpt.as_mut() {
            if j.is_multiple_of(store.interval() as u64) {
                let kernel = PipeKernel {
                    x: &mut x,
                    r: &mut r,
                    u: &mut u,
                    w: &mut w,
                    p: &mut p,
                    s: &mut s,
                    q: &mut q,
                    z: &mut z,
                    mbuf: &mut mbuf,
                    nbuf: &mut nbuf,
                    ghosts: &mut ghosts,
                    b_loc: &mut b_loc,
                    gamma_prev: &mut gamma_prev,
                    alpha_prev: &mut alpha_prev,
                    has_dir: &mut has_dir,
                };
                let data = kernel.pack();
                let seq = recovery_seq;
                recovery_seq += 1;
                store.deposit(ctx, seq, j, data);
            }
        }

        // The single fused reduction of the iteration, overlapped with
        // everything below until the wait.
        ctx.clock_mut().advance_flops(6 * nloc);
        let red_req = layout.comm.iallreduce_vec(
            ctx,
            ReduceOp::Sum,
            vec![dot(&r, &u), dot(&w, &u), dot(&r, &r)],
            CommPhase::Reduction,
        );

        // m(j) = M⁻¹ w(j) — independent of the reduction result.
        layout.prec.apply(ctx, &w, &mut mbuf);

        // Ghost exchange of m(j), with redundant copies of u(j), p(j-1)
        // appended. The rotation per scatter expires stale generations (and
        // the post-recovery restart re-scatters, restoring lost copies).
        if esr {
            let (ch_u, ch_p) = layout.channels.split_at_mut(1);
            let ret_u = &mut ch_u[0];
            let ret_p = &mut ch_p[0];
            ret_u.rotate();
            ret_p.rotate();
            layout.plan.exchange_pipelined(
                ctx,
                &mbuf,
                &mut ghosts,
                Some(PipeBackups {
                    u_loc: &u,
                    p_loc: if has_dir { Some(&p) } else { None },
                    ret_u,
                    ret_p,
                }),
            );
            ret_u.finish_generation();
            if has_dir {
                ret_p.finish_generation();
            }
        } else {
            layout
                .plan
                .exchange_pipelined(ctx, &mbuf, &mut ghosts, None);
        }

        // ULFM failure boundary (paper Sec. 1.1.1): consistent notification.
        if resilient && !handled_iter.contains(&j) {
            handled_iter.insert(j);
            let failed = layout.poll_member_failures(ctx, FailAt::Iteration(j));
            if !failed.is_empty() {
                // Drain the overlapped reduction first: its values stem
                // from the pre-failure state and are discarded — the
                // restart recomputes them from the reconstructed state.
                let _ = red_req.wait(ctx);
                let t0 = ctx.vtime();
                let res = cfg.resilience.as_ref().unwrap();
                let env = EngineEnv {
                    a,
                    b,
                    res,
                    precond: &cfg.precond,
                    iteration: j,
                    has_prev: has_dir,
                };
                let mut kernel = PipeKernel {
                    x: &mut x,
                    r: &mut r,
                    u: &mut u,
                    w: &mut w,
                    p: &mut p,
                    s: &mut s,
                    q: &mut q,
                    z: &mut z,
                    mbuf: &mut mbuf,
                    nbuf: &mut nbuf,
                    ghosts: &mut ghosts,
                    b_loc: &mut b_loc,
                    gamma_prev: &mut gamma_prev,
                    alpha_prev: &mut alpha_prev,
                    has_dir: &mut has_dir,
                };
                match engine::recover(
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
                        nloc = layout.lm.n_local();
                        recovery_timelines.push(report.timeline.clone());
                        if let Some(epoch) = report.rollback_to {
                            // Rollback: every rank resumes the checkpointed
                            // epoch with the unpacked loop-top state.
                            iterations = epoch as usize;
                        }
                        if report.retired_ranks > 0 {
                            // The layout shrank, so the preconditioner was
                            // rebuilt with merged blocks — but the pipelined
                            // recurrences never recompute u = M⁻¹r or
                            // q = M⁻¹s; continuing would mix old-M and new-M
                            // data in the incremental updates and the
                            // implicit operator stops being SPD (pᵀAp can go
                            // negative). Re-bootstrap the pipeline from the
                            // exactly-reconstructed (x, r): u = M'⁻¹ r,
                            // w = A u, and restart the recurrence through
                            // the β = 0 branch — a preconditioner-restarted
                            // CG, which is what a shrink already is.
                            layout.prec.apply(ctx, &r, &mut u);
                            layout.plan.exchange(ctx, &u, &mut ghosts, None);
                            layout.lm.spmv(&u, &ghosts, &mut w);
                            ctx.clock_mut().advance_flops(layout.lm.spmv_flops());
                            has_dir = false;
                        }
                        vtime_recovery += ctx.vtime() - t0;
                    }
                }
                // Restart the interrupted iteration: re-scatter m(j) (which
                // also restores redundancy) and re-reduce from the
                // reconstructed state.
                ctx.trace_close(); // iteration
                continue;
            }
        }

        // n(j) = A m(j) — the SpMV the reduction hides behind.
        layout.lm.spmv(&mbuf, &ghosts, &mut nbuf);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());

        let red = red_req.wait(ctx);
        let (gamma, delta) = (red[0], red[1]);
        residual_sq = red[2];
        if residual_sq <= target_sq {
            converged = true;
            ctx.trace_close(); // iteration
            break;
        }

        let alpha;
        if !has_dir {
            if delta <= 0.0 || !delta.is_finite() {
                panic!("rank {rank}: pipelined PCG breakdown at iteration {j} (δ = {delta})");
            }
            alpha = gamma / delta;
            z.copy_from_slice(&nbuf);
            q.copy_from_slice(&mbuf);
            s.copy_from_slice(&w);
            p.copy_from_slice(&u);
        } else {
            let beta = gamma / gamma_prev;
            // In exact arithmetic δ − β γ / α(j-1) = pᵀA p.
            let denom = delta - beta * gamma / alpha_prev;
            if denom <= 0.0 || !denom.is_finite() {
                panic!("rank {rank}: pipelined PCG breakdown at iteration {j} (pᵀAp = {denom})");
            }
            alpha = gamma / denom;
            xpay(&nbuf, beta, &mut z); // z = n + β z
            xpay(&mbuf, beta, &mut q); // q = m + β q
            xpay(&w, beta, &mut s); //    s = w + β s
            xpay(&u, beta, &mut p); //    p = u + β p
        }
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &s, &mut r);
        axpy(-alpha, &q, &mut u);
        axpy(-alpha, &z, &mut w);
        // Four axpy updates always; the four xpay recurrences only once a
        // direction exists (the β = 0 branch initializes by copy, zero
        // flops).
        ctx.clock_mut()
            .advance_flops(if has_dir { 16 } else { 8 } * nloc);
        has_dir = true;
        gamma_prev = gamma;
        alpha_prev = alpha;
        iterations += 1;
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
