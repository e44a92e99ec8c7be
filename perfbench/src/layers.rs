//! The traced run: each crate's public entry points timed from outside on
//! the workload's inputs, and a replay that explains the solve's wall time
//! from those layer timings and the solve's own counts.

use std::hint::black_box;
use std::time::Instant;

use parcomm::{Cluster, ClusterConfig, CommPhase, NodeCtx, Payload};
use precond::{BlockJacobi, BlockSolver, LdlWorkspace, Preconditioner, SparseLdl};
use sparsemat::BlockPartition;

use crate::gate;
use crate::workload::Workload;
use crate::{median, Report, Setup, SolveLoop};

/// Repeat `f` until at least `min_reps` calls and `min_s` seconds have
/// passed; returns the median seconds per call.
fn time_median(min_reps: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();

    // sparsemat: generation and a whole-matrix SpMV.
    let setup = Setup::measure(w, seed);
    let inputs = &setup.inputs;
    let a = &*inputs.problem.a;
    let b = &*inputs.problem.b;
    let mut y = vec![0.0; a.n_rows()];
    let spmv_s = time_median(10, 0.3, || {
        a.spmv(black_box(&inputs.x_star), black_box(&mut y))
    });
    // Bytes computed from the array sizes (each array streamed once).
    let spmv_bytes = a.row_ptr().len() * 8
        + a.col_idx().len() * 4
        + a.vals().len() * 8
        + (a.n_cols() + a.n_rows()) * 8;

    // The distributed solves: with the workload's failures, and the same
    // configuration without failures.
    let failing = SolveLoop::run(w, inputs, true, seconds / 2.0, 2, &mut report);
    failing.summarize_walls("solve_s (traced run)");
    let clean = SolveLoop::run(w, inputs, false, seconds / 2.0, 2, &mut report);
    clean.summarize_walls("solve_s without failures");
    if let Some(r) = &clean.last {
        eprintln!(
            "without failures: {} iterations, vtime {:.6} vs",
            r.iterations, r.vtime
        );
    }
    let solve_s = median(&failing.walls);

    // precond: the node-aligned block-LDLᵀ factorization and one apply.
    let part = BlockPartition::new(a.n_rows(), w.nodes);
    let mut bj = None;
    let factor_s = time_median(2, 0.0, || {
        bj = None;
        bj = Some(
            BlockJacobi::from_partition(a, &part, BlockSolver::ExactLdl)
                .expect("diagonal blocks of an SPD matrix factor"),
        );
    });
    let bj = bj.expect("factored at least once");
    let mut z = vec![0.0; a.n_rows()];
    let apply_s = time_median(5, 0.3, || bj.apply(black_box(b), black_box(&mut z)));
    let mut ws = LdlWorkspace::new();
    let l_nnz: usize = (0..w.nodes)
        .map(|k| {
            let rows: Vec<usize> = part.range(k).collect();
            SparseLdl::factor_with(&a.extract(&rows, &rows), &mut ws)
                .expect("diagonal blocks of an SPD matrix factor")
                .l_nnz()
        })
        .sum();

    // krylov: the single-threaded baseline (factorization plus PCG).
    let t = Instant::now();
    let seq_bj = BlockJacobi::from_partition(a, &part, BlockSolver::ExactLdl)
        .expect("diagonal blocks of an SPD matrix factor");
    let cfg = w.config();
    let seq = krylov::pcg(
        a,
        b,
        &vec![0.0; a.n_rows()],
        &seq_bj,
        cfg.rel_tol,
        cfg.max_iter,
    );
    let seq_pcg_s = t.elapsed().as_secs_f64();
    report.attempted += 1;
    let seq_err = gate::max_error(&seq.x, &inputs.x_star);
    if !seq.converged() || seq_err.is_nan() || seq_err >= gate::MAX_ERROR {
        report.fail(format!(
            "sequential pcg: converged {}, max|x - x*| = {seq_err:e}",
            seq.converged()
        ));
    }

    // parcomm: compute-free cluster runs at the workload's N.
    let comm = CommCosts::measure(w.nodes);

    let mut fingerprint = failing.fingerprint;
    fingerprint.insert("precond.l_nnz", l_nnz as u64);
    report.reconcile(w, seed, &fingerprint);

    let Some(res) = failing.last.as_ref() else {
        report.fail("no solve passed the gate; nothing to replay".to_string());
        return report;
    };
    let stats = &res.stats;
    let iters = res.iterations as f64;
    let reduction_msgs = stats.msgs(CommPhase::Reduction) as f64;
    let other_msgs = stats.total_msgs() as f64 - reduction_msgs;

    // Replay: factor + iterations × (apply + SpMV) + message counts ×
    // per-message costs.
    let precond_s = factor_s + iters * apply_s;
    let sparsemat_s = iters * spmv_s;
    let parcomm_s =
        other_msgs * comm.msg_s + reduction_msgs * comm.allreduce_s / comm.msgs_per_allreduce;
    let replayed = precond_s + sparsemat_s + parcomm_s;

    let exposed = |phase| res.phase_breakdown(phase).exposed;
    let segments: usize = res
        .recovery_timelines
        .iter()
        .map(|t| t.segments.len())
        .sum();
    let metrics = [
        ("sparsemat.generate_s", setup.generate_s, "s"),
        ("sparsemat.nnz", a.nnz() as f64, "count"),
        ("sparsemat.spmv_ms", spmv_s * 1e3, "ms"),
        (
            "sparsemat.spmv_gbs",
            spmv_bytes as f64 / spmv_s / 1e9,
            "GB/s",
        ),
        ("precond.factor_s", factor_s, "s"),
        ("precond.apply_ms", apply_s * 1e3, "ms"),
        ("precond.l_nnz", l_nnz as f64, "count"),
        (
            "precond.solve_mflop",
            bj.flops_per_apply() as f64 / 1e6,
            "MFLOP",
        ),
        ("parcomm.allreduce_us", comm.allreduce_s * 1e6, "us"),
        ("parcomm.msg_us", comm.msg_s * 1e6, "us"),
        ("parcomm.msgs", stats.total_msgs() as f64, "count"),
        ("parcomm.allreduces", stats.allreduces() as f64, "count"),
        (
            "parcomm.msgs.spmv",
            stats.msgs(CommPhase::Spmv) as f64,
            "count",
        ),
        ("parcomm.msgs.reduction", reduction_msgs, "count"),
        (
            "parcomm.msgs.recovery",
            stats.msgs(CommPhase::Recovery) as f64,
            "count",
        ),
        (
            "parcomm.elems.redundancy",
            stats.elems(CommPhase::Redundancy) as f64,
            "count",
        ),
        (
            "parcomm.elems.recovery",
            stats.elems(CommPhase::Recovery) as f64,
            "count",
        ),
        ("core.recovery_wall_s", solve_s - median(&clean.walls), "s"),
        ("core.vtime_setup_s", res.vtime_setup, "vs"),
        ("core.vtime_exposed_spmv_s", exposed(CommPhase::Spmv), "vs"),
        (
            "core.vtime_exposed_reduction_s",
            exposed(CommPhase::Reduction),
            "vs",
        ),
        (
            "core.vtime_exposed_recovery_s",
            exposed(CommPhase::Recovery),
            "vs",
        ),
        ("core.recovery_segments", segments as f64, "count"),
        ("core.retired_nodes", res.retired_nodes() as f64, "count"),
        ("krylov.seq_pcg_s", seq_pcg_s, "s"),
        ("trace.solve_s", solve_s, "s"),
        ("trace.precond_s", precond_s, "s"),
        ("trace.precond_share", precond_s / solve_s, "frac"),
        ("trace.sparsemat_s", sparsemat_s, "s"),
        ("trace.sparsemat_share", sparsemat_s / solve_s, "frac"),
        ("trace.parcomm_s", parcomm_s, "s"),
        ("trace.parcomm_share", parcomm_s / solve_s, "frac"),
        ("trace.coverage", replayed / solve_s, "frac"),
        ("trace.unaccounted_s", solve_s - replayed, "s"),
    ];
    for (layer, t) in [
        ("precond", precond_s),
        ("sparsemat", sparsemat_s),
        ("parcomm", parcomm_s),
        ("unaccounted", solve_s - replayed),
    ] {
        eprintln!(
            "replayed {layer:<12} {t:>10.4} s {:>6.1}% of solve_s",
            100.0 * t / solve_s
        );
    }
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
    report
}

/// Host cost of the runtime's two communication patterns at one cluster
/// size, from compute-free `Cluster::run`s with the start-up and teardown
/// of an empty run subtracted.
struct CommCosts {
    /// Seconds per scalar `allreduce_sum` (all ranks taking part).
    allreduce_s: f64,
    /// Messages one such allreduce sends, summed over ranks.
    msgs_per_allreduce: f64,
    /// Seconds per message of a ring halo exchange (`send`/`recv`).
    msg_s: f64,
}

impl CommCosts {
    const ROUNDS: usize = 16;
    const TRIALS: usize = 3;
    const HALO: usize = 16;

    fn measure(nodes: usize) -> CommCosts {
        let wall = |program: &(dyn Fn(&mut NodeCtx) -> u64 + Sync)| {
            let t = Instant::now();
            let per_node = Cluster::run(ClusterConfig::new(nodes), program);
            (t.elapsed().as_secs_f64(), per_node.iter().sum::<u64>())
        };
        let empty = |_: &mut NodeCtx| 0u64;
        let allreduce = |ctx: &mut NodeCtx| {
            for i in 0..Self::ROUNDS {
                black_box(ctx.allreduce_sum(i as f64));
            }
            ctx.stats().msgs(CommPhase::Reduction)
        };
        let ring = |ctx: &mut NodeCtx| {
            let (rank, n) = (ctx.rank(), ctx.size());
            let (left, right) = ((rank + n - 1) % n, (rank + 1) % n);
            for _ in 0..Self::ROUNDS {
                for dest in [left, right] {
                    let halo = Payload::F64s(std::sync::Arc::new(vec![1.0; Self::HALO]));
                    ctx.send(dest, 7, halo, CommPhase::Spmv);
                }
                black_box(ctx.recv(left, 7));
                black_box(ctx.recv(right, 7));
            }
            0
        };
        let (mut base, mut ar, mut rg, mut ar_msgs) = (vec![], vec![], vec![], 0);
        for _ in 0..Self::TRIALS {
            base.push(wall(&empty).0);
            let (t, msgs) = wall(&allreduce);
            ar.push(t);
            ar_msgs = msgs;
            rg.push(wall(&ring).0);
        }
        let base = median(&base);
        let rounds = Self::ROUNDS as f64;
        CommCosts {
            allreduce_s: (median(&ar) - base) / rounds,
            msgs_per_allreduce: ar_msgs as f64 / rounds,
            msg_s: (median(&rg) - base) / (rounds * 2.0 * nodes as f64),
        }
    }
}
