//! ESR-protected distributed BiCGSTAB.
//!
//! The paper (Sec. 1): "our proposed algorithmic modifications can also be
//! applied to the ESR approach for the … preconditioned bi-conjugate
//! gradient stabilized (BiCGSTAB) algorithms", without giving details "due
//! to space restrictions". This module works them out on top of the shared
//! [`crate::engine`] — which also buys BiCGSTAB the four-substep
//! overlapping-failure restart protocol and the full recovery-policy
//! matrix (replacement nodes, finite spare pool, shrink-with-adoption)
//! that used to be PCG-only.
//!
//! Preconditioned BiCGSTAB performs **two** SpMVs per iteration —
//! `v = A p̂` with `p̂ = M⁻¹p` and `t = A ŝ` with `ŝ = M⁻¹s` — so two
//! vectors are naturally scattered per iteration and both are retained
//! (two retention channels). At the failure boundary (after the second
//! scatter) the full state is exactly reconstructible per failed block
//! (see [`BicgstabKernel`]):
//!
//! * `p̂_If`, `ŝ_If` — from the retained redundant copies;
//! * `p_If = M p̂_If`, `s_If = M ŝ_If` — per block from static data
//!   (block-diagonal `M`), which is what lets an *adopter* rebuild a
//!   block it never owned;
//! * `v_If = A_{If,·} p̂` — survivors serve `p̂` outside `If`; the
//!   `If`-columns come from the reconstructor group's all-gather;
//! * `r_If = s_If + α v_If` — from the recurrence `s = r − α v`
//!   (`α` is a replicated scalar, re-sent by a survivor);
//! * `x_If` — from `r = b − A x`, via the engine's shared cooperative
//!   inner solve;
//! * `r̂0 = b` is static (the solver fixes `x(0) = 0`), so after a shrink
//!   the adopter's widened `r̂0` block is just `b` over the new range.
//!
//! Unlike PCG, no previous-iteration data is needed: the recurrences close
//! within the iteration, so only the *current* generation of each channel
//! is read during recovery.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::fault::poison;
use parcomm::{CommPhase, FailAt, NodeCtx};
use sparsemat::vecops::{axpy, dot};
use sparsemat::Csr;

use crate::config::SolverConfig;
use crate::engine::{
    self, splice, ChannelRead, EngineComm, EngineEnv, EngineOutcome, EngineShared, Layout,
    ReconBlock, RecoveryTimeline, ResilientKernel,
};
use crate::pcg::NodeOutcome;
use crate::retention::Gen;

// Block-vector slots of the BiCGSTAB kernel.
const PHAT: usize = 0;
const SHAT: usize = 1;
const P: usize = 2;
const S: usize = 3;
const V: usize = 4;
const R: usize = 5;
const X: usize = 6;

/// BiCGSTAB's [`ResilientKernel`]: two retention channels (`p̂(j)`,
/// `ŝ(j)`), one replicated scalar `α(j)`, and the reconstruction
/// identities listed in the module docs.
pub(crate) struct BicgstabKernel<'a> {
    /// The iterate block `x(j)_Iᵢ`.
    pub x: &'a mut Vec<f64>,
    /// The residual block `r_Iᵢ`.
    pub r: &'a mut Vec<f64>,
    /// The search direction `p_Iᵢ`.
    pub p: &'a mut Vec<f64>,
    /// `v = A p̂`.
    pub v: &'a mut Vec<f64>,
    /// `s = r − α v`.
    pub s: &'a mut Vec<f64>,
    /// `p̂ = M⁻¹ p`.
    pub phat: &'a mut Vec<f64>,
    /// `ŝ = M⁻¹ s`.
    pub shat: &'a mut Vec<f64>,
    /// `t = A ŝ` scratch.
    pub t: &'a mut Vec<f64>,
    /// Ghost values from the last exchange.
    pub ghosts: &'a mut Vec<f64>,
    /// Owned right-hand-side block.
    pub b_loc: &'a mut Vec<f64>,
    /// The shadow residual `r̂0 = b` (static; re-cut after a shrink).
    pub rhat0: &'a mut Vec<f64>,
    /// The replicated scalar `α(j)`.
    pub alpha: &'a mut f64,
    /// The replicated scalar `ρ(j) = r̂0ᵀr(j)` (needed by the *next*
    /// iteration's β; `ρ(j+1)` is recomputed by the post-recovery fused
    /// reduction, but `ρ(j)` itself would be lost with the node).
    pub rho: &'a mut f64,
    /// The replicated scalar `ω(j)` (checkpoint-pack state: the loop-top
    /// β-update reads it; ESR restarts mid-iteration and recomputes it).
    pub omega: &'a mut f64,
    /// The replicated scalar `ρ(j+1)` carried by the fused end-of-iteration
    /// reduction (checkpoint-pack state, like `ω`).
    pub rho_next: &'a mut f64,
}

impl ResilientKernel for BicgstabKernel<'_> {
    fn n_channels(&self) -> usize {
        2
    }

    fn channel_reads(&self, _has_prev: bool) -> Vec<ChannelRead> {
        // Both channels scattered earlier in the same iteration: always
        // present, no previous-generation reads.
        vec![
            ChannelRead {
                channel: 0,
                generation: Gen::Cur,
                required: true,
                what: "p̂(j)",
            },
            ChannelRead {
                channel: 1,
                generation: Gen::Cur,
                required: true,
                what: "ŝ(j)",
            },
        ]
    }

    fn scalars(&self) -> Vec<f64> {
        vec![*self.alpha, *self.rho]
    }

    fn set_scalars(&mut self, s: &[f64]) {
        *self.alpha = s[0];
        *self.rho = s[1];
    }

    fn poison(&mut self) {
        poison(self.x);
        poison(self.r);
        poison(self.p);
        poison(self.v);
        poison(self.s);
        poison(self.phat);
        poison(self.shat);
        poison(self.ghosts);
        *self.alpha = f64::NAN;
        *self.rho = f64::NAN;
        *self.omega = f64::NAN;
        *self.rho_next = f64::NAN;
        // r̂0 and b_loc are static data (r̂0 = b with x(0) = 0) and survive
        // on reliable storage — paper Sec. 1.1.2.
    }

    fn n_pack_vecs(&self) -> usize {
        5
    }

    fn n_pack_scalars(&self) -> usize {
        4
    }

    fn pack(&self) -> Vec<f64> {
        // Loop-top recurrence state: [x | r | r̂0 | p | v | α, ω, ρ, ρ(j+1)].
        // Everything else (s, p̂, ŝ, t, ghosts) is recomputed within the
        // restarted iteration.
        let mut data = Vec::with_capacity(5 * self.x.len() + 4);
        data.extend_from_slice(self.x);
        data.extend_from_slice(self.r);
        data.extend_from_slice(self.rhat0);
        data.extend_from_slice(self.p);
        data.extend_from_slice(self.v);
        data.push(*self.alpha);
        data.push(*self.omega);
        data.push(*self.rho);
        data.push(*self.rho_next);
        data
    }

    fn unpack(&mut self, data: &[f64], new_range: &Range<usize>, b: &[f64]) {
        let nloc = new_range.len();
        let vec_at = |slot: usize| data[slot * nloc..(slot + 1) * nloc].to_vec();
        *self.x = vec_at(0);
        *self.r = vec_at(1);
        *self.rhat0 = vec_at(2);
        *self.p = vec_at(3);
        *self.v = vec_at(4);
        *self.alpha = data[5 * nloc];
        *self.omega = data[5 * nloc + 1];
        *self.rho = data[5 * nloc + 2];
        *self.rho_next = data[5 * nloc + 3];
        *self.b_loc = b[new_range.clone()].to_vec();
        *self.s = vec![0.0; nloc];
        *self.phat = vec![0.0; nloc];
        *self.shat = vec![0.0; nloc];
        *self.t = vec![0.0; nloc];
    }

    fn n_block_vecs(&self) -> usize {
        7
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
        let phat = copies[0].take().expect("p̂(j) copies are mandatory");
        let shat = copies[1].take().expect("ŝ(j) copies are mandatory");
        // p_b = M_{b,b} p̂_b ; s_b = M_{b,b} ŝ_b (block-diagonal M).
        blk.vecs[P] = engine::m_block_forward(ctx, shared.a, shared.precond, &blk.range, &phat);
        blk.vecs[S] = engine::m_block_forward(ctx, shared.a, shared.precond, &blk.range, &shat);
        blk.vecs[PHAT] = phat;
        blk.vecs[SHAT] = shat;
    }

    fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        shared: &EngineShared<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        // v_If = A_{If,·} p̂: survivors serve the outside-If values, the
        // If-columns come from the reconstructors' rebuilt p̂ blocks.
        comm.apply_matrix(ctx, shared.a, blocks, PHAT, V, self.phat);
        // r_If = s_If + α v_If  (from s = r − α v).
        let alpha = *self.alpha;
        for blk in blocks.iter_mut() {
            let blen = blk.range.len();
            let mut r = vec![0.0; blen];
            for i in 0..blen {
                r[i] = blk.vecs[S][i] + alpha * blk.vecs[V][i];
            }
            ctx.clock_mut().advance_flops(2 * blen);
            blk.vecs[R] = r;
        }
    }

    fn install(&mut self, blk: &ReconBlock) {
        self.phat.copy_from_slice(&blk.vecs[PHAT]);
        self.shat.copy_from_slice(&blk.vecs[SHAT]);
        self.p.copy_from_slice(&blk.vecs[P]);
        self.s.copy_from_slice(&blk.vecs[S]);
        self.v.copy_from_slice(&blk.vecs[V]);
        self.r.copy_from_slice(&blk.vecs[R]);
        self.x.copy_from_slice(&blk.vecs[X]);
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
        *self.p = splice(new_range, own, self.p, blocks, P);
        *self.v = splice(new_range, own, self.v, blocks, V);
        *self.s = splice(new_range, own, self.s, blocks, S);
        *self.phat = splice(new_range, own, self.phat, blocks, PHAT);
        *self.shat = splice(new_range, own, self.shat, blocks, SHAT);
        *self.b_loc = b[new_range.clone()].to_vec();
        // x(0) = 0 makes r̂0 = b static: the widened block is just b.
        *self.rhat0 = self.b_loc.clone();
    }

    fn resize_scratch(&mut self, nloc: usize, n_ghosts: usize) {
        *self.t = vec![0.0; nloc];
        *self.ghosts = vec![0.0; n_ghosts];
    }
}

/// The SPMD node program: solve `A x = b` with (optionally resilient)
/// preconditioned BiCGSTAB. `A` may be non-symmetric; the preconditioner
/// must be one of the block-diagonal (M-given) variants.
pub fn esr_bicgstab_node(
    ctx: &mut NodeCtx,
    a: &Arc<Csr>,
    b: &Arc<Vec<f64>>,
    cfg: &SolverConfig,
) -> NodeOutcome {
    let n = a.n_rows();
    assert_eq!(b.len(), n, "rhs length");
    let rank = ctx.rank();
    // Protection flavor (see `pcg`): ESR needs two retention channels,
    // copies of p̂(j) and of ŝ(j); checkpoint/rollback needs none.
    let cr = cfg.resilience.as_ref().and_then(|res| res.cr());
    let esr = cfg.resilience.is_some() && cr.is_none();
    let mut layout = Layout::build_full(ctx, a, cfg, if cr.is_some() { 0 } else { 2 });
    assert!(
        !layout.prec.is_explicit_p(),
        "rank {rank}: ESR-BiCGSTAB supports the block-diagonal (M-given) preconditioners"
    );
    ctx.barrier();
    let vtime_setup = ctx.vtime();
    ctx.reset_metrics();

    let mut nloc = layout.lm.n_local();
    let mut b_loc: Vec<f64> = b[layout.lm.range.clone()].to_vec();
    // x(0) = 0 so that r̂0 = r(0) = b is static data.
    let mut x = vec![0.0; nloc];
    let mut r = b_loc.clone();
    let mut rhat0 = b_loc.clone();
    let mut p = r.clone();
    let mut v = vec![0.0; nloc];
    let mut phat = vec![0.0; nloc];
    let mut shat = vec![0.0; nloc];
    let mut s = vec![0.0; nloc];
    let mut t = vec![0.0; nloc];
    let mut ghosts = vec![0.0; layout.lm.ghost_cols.len()];
    let mut pool = ctx.spare_pool();

    // ‖r(0)‖² and ρ(0) = r̂0ᵀr(0) travel in one fused length-2 all-reduce.
    let init = ctx.allreduce_vec(ReduceOp::Sum, vec![dot(&r, &r), dot(&rhat0, &r)]);
    let r0_sq = init[0];
    let r0_norm = r0_sq.sqrt();
    let target_sq = cfg.rel_tol * cfg.rel_tol * r0_sq;
    let mut rho = init[1];
    // ρ for the *next* iteration's p-update, fused with the convergence
    // reduction at the end of each iteration (both are dots against the
    // just-updated r) — three global reductions per iteration, not four.
    let mut rho_next = rho;
    let mut alpha = 0.0f64;
    let mut omega = 0.0f64;

    let mut iterations = 0usize;
    let mut residual_sq = r0_sq;
    let mut converged = r0_norm <= f64::MIN_POSITIVE;
    let mut retired = false;
    let mut recoveries = 0usize;
    let mut ranks_recovered = 0usize;
    let mut vtime_recovery = 0.0f64;
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

        // Periodic checkpoint deposit of the loop-top recurrence state
        // (before the p-update, which consumes ρ(j+1)).
        if let Some(store) = ckpt.as_mut() {
            if j.is_multiple_of(store.interval() as u64) {
                let kernel = BicgstabKernel {
                    x: &mut x,
                    r: &mut r,
                    p: &mut p,
                    v: &mut v,
                    s: &mut s,
                    phat: &mut phat,
                    shat: &mut shat,
                    t: &mut t,
                    ghosts: &mut ghosts,
                    b_loc: &mut b_loc,
                    rhat0: &mut rhat0,
                    alpha: &mut alpha,
                    rho: &mut rho,
                    omega: &mut omega,
                    rho_next: &mut rho_next,
                };
                let data = kernel.pack();
                let seq = recovery_seq;
                recovery_seq += 1;
                store.deposit(ctx, seq, j, data);
            }
        }

        // p update (j > 0): p = r + β (p − ω v); ρ(j) was carried from the
        // previous iteration's fused reduction.
        if j > 0 {
            if rho_next.abs() < f64::MIN_POSITIVE {
                panic!("rank {rank}: BiCGSTAB breakdown (ρ = 0) at iteration {j}");
            }
            let beta = (rho_next / rho) * (alpha / omega);
            rho = rho_next;
            for ((pi, ri), vi) in p.iter_mut().zip(&r).zip(&v) {
                *pi = ri + beta * (*pi - omega * vi);
            }
            ctx.clock_mut().advance_flops(6 * nloc);
        }
        // p̂ = M⁻¹ p ; first scatter (channel 0).
        layout.prec.apply(ctx, &p, &mut phat);
        if esr {
            layout.channels[0].rotate();
            layout
                .plan
                .exchange(ctx, &phat, &mut ghosts, Some(&mut layout.channels[0]));
            layout.channels[0].finish_generation();
        } else {
            layout.plan.exchange(ctx, &phat, &mut ghosts, None);
        }
        layout.lm.spmv(&phat, &ghosts, &mut v);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());
        let rhat0_v = layout
            .comm
            .allreduce_sum(ctx, dot(&rhat0, &v), CommPhase::Reduction);
        if rhat0_v.abs() < f64::MIN_POSITIVE {
            panic!("rank {rank}: BiCGSTAB breakdown ((r̂0,v) = 0) at iteration {j}");
        }
        alpha = rho / rhat0_v;
        // s = r − α v
        s.copy_from_slice(&r);
        axpy(-alpha, &v, &mut s);
        ctx.clock_mut().advance_flops(2 * nloc);
        // ŝ = M⁻¹ s ; second scatter (channel 1).
        layout.prec.apply(ctx, &s, &mut shat);
        if esr {
            layout.channels[1].rotate();
            layout
                .plan
                .exchange(ctx, &shat, &mut ghosts, Some(&mut layout.channels[1]));
            layout.channels[1].finish_generation();
        } else {
            layout.plan.exchange(ctx, &shat, &mut ghosts, None);
        }

        // ---- failure boundary: both channels scattered -----------------
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
                    // Both channels are from *this* iteration; recovery
                    // never reads previous-generation data.
                    has_prev: false,
                };
                let mut kernel = BicgstabKernel {
                    x: &mut x,
                    r: &mut r,
                    p: &mut p,
                    v: &mut v,
                    s: &mut s,
                    phat: &mut phat,
                    shat: &mut shat,
                    t: &mut t,
                    ghosts: &mut ghosts,
                    b_loc: &mut b_loc,
                    rhat0: &mut rhat0,
                    alpha: &mut alpha,
                    rho: &mut rho,
                    omega: &mut omega,
                    rho_next: &mut rho_next,
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
                    // Rollback restores *loop-top* state: abandon the
                    // interrupted iteration entirely and resume the epoch
                    // (ESR instead restarts mid-iteration below).
                    iterations = epoch as usize;
                    ctx.trace_close(); // iteration
                    continue;
                }
                // Restart from the ŝ scatter: re-exchange (restores the
                // replacement ghosts and the s-channel redundancy; the
                // p channel heals at the next iteration's scatter).
                layout.channels[1].rotate();
                layout
                    .plan
                    .exchange(ctx, &shat, &mut ghosts, Some(&mut layout.channels[1]));
                layout.channels[1].finish_generation();
            }
        }

        // t = A ŝ
        layout.lm.spmv(&shat, &ghosts, &mut t);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());
        let tt_ts = layout.comm.allreduce_vec(
            ctx,
            ReduceOp::Sum,
            vec![dot(&t, &t), dot(&t, &s)],
            CommPhase::Reduction,
        );
        ctx.clock_mut().advance_flops(4 * nloc);
        let (tt, ts) = (tt_ts[0], tt_ts[1]);
        if tt <= 0.0 || !tt.is_finite() {
            panic!("rank {rank}: BiCGSTAB breakdown ((t,t) = {tt}) at iteration {j}");
        }
        omega = ts / tt;
        // x += α p̂ + ω ŝ ; r = s − ω t
        axpy(alpha, &phat, &mut x);
        axpy(omega, &shat, &mut x);
        r.copy_from_slice(&s);
        axpy(-omega, &t, &mut r);
        ctx.clock_mut().advance_flops(6 * nloc);

        iterations += 1;
        // Fused: convergence test ‖r‖² + the next iteration's ρ = r̂0ᵀr.
        let rr_rho = layout.comm.allreduce_vec(
            ctx,
            ReduceOp::Sum,
            vec![dot(&r, &r), dot(&rhat0, &r)],
            CommPhase::Reduction,
        );
        ctx.clock_mut().advance_flops(4 * nloc);
        residual_sq = rr_rho[0];
        rho_next = rr_rho[1];
        if residual_sq <= target_sq {
            converged = true;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::driver::Problem;
    use parcomm::{Cluster, ClusterConfig, FailureScript};
    use sparsemat::gen::poisson2d;

    fn run(
        problem: &Problem,
        nodes: usize,
        cfg: &SolverConfig,
        script: FailureScript,
    ) -> Vec<NodeOutcome> {
        let a = problem.a.clone();
        let b = problem.b.clone();
        let cfg = cfg.clone();
        Cluster::run(ClusterConfig::new(nodes).with_script(script), move |ctx| {
            esr_bicgstab_node(ctx, &a, &b, &cfg)
        })
    }

    fn max_err_to_ones(outs: &[NodeOutcome]) -> f64 {
        outs.iter()
            .flat_map(|o| o.x_loc.iter())
            .map(|xi| (xi - 1.0).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn failure_free_solves() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let outs = run(
            &problem,
            4,
            &SolverConfig::reference(),
            FailureScript::none(),
        );
        assert!(outs[0].converged);
        assert!(
            max_err_to_ones(&outs) < 1e-6,
            "err {}",
            max_err_to_ones(&outs)
        );
    }

    #[test]
    fn survives_single_failure() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(4, 1, 1, 4);
        let outs = run(&problem, 4, &SolverConfig::resilient(1), script);
        assert!(outs[0].converged);
        assert_eq!(outs[0].recoveries, 1);
        assert!(
            max_err_to_ones(&outs) < 1e-6,
            "err {}",
            max_err_to_ones(&outs)
        );
    }

    #[test]
    fn survives_two_simultaneous_failures() {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(6, 2, 2, 7);
        let outs = run(&problem, 7, &SolverConfig::resilient(2), script);
        assert!(outs[0].converged);
        assert_eq!(outs[0].ranks_recovered, 2);
        assert!(
            max_err_to_ones(&outs) < 1e-6,
            "err {}",
            max_err_to_ones(&outs)
        );
    }

    #[test]
    fn jacobi_preconditioned_with_failure() {
        let a = poisson2d(10, 10);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig {
            precond: crate::config::PrecondConfig::Jacobi,
            ..SolverConfig::resilient(1)
        };
        let script = FailureScript::simultaneous(3, 0, 1, 5);
        let outs = run(&problem, 5, &cfg, script);
        assert!(outs[0].converged);
        assert!(max_err_to_ones(&outs) < 1e-6);
    }

    #[test]
    fn survives_overlapping_failure_during_recovery() {
        // New with the engine port: the four-substep restart protocol now
        // covers BiCGSTAB too (the old solver-private recovery was blind
        // to failures arriving mid-reconstruction).
        use parcomm::{FailAt, FailureEvent};
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        for substep in 0..4 {
            let script = FailureScript::new(vec![
                FailureEvent {
                    when: FailAt::Iteration(4),
                    ranks: vec![2],
                },
                FailureEvent {
                    when: FailAt::RecoverySubstep {
                        after_iteration: 4,
                        substep,
                    },
                    ranks: vec![4],
                },
            ]);
            let outs = run(&problem, 7, &SolverConfig::resilient(2), script);
            assert!(outs[0].converged, "substep={substep}");
            assert_eq!(outs[0].ranks_recovered, 2, "substep={substep}");
            assert!(
                max_err_to_ones(&outs) < 1e-6,
                "substep={substep} err {}",
                max_err_to_ones(&outs)
            );
        }
    }
}
