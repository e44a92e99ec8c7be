//! Determinism regression test for the event-driven runtime (ISSUE 9).
//!
//! The scheduler dispatches the unique next runnable node by minimum
//! `(virtual time, rank)`, so two runs of the same experiment must replay
//! the identical schedule — not just "the same numbers to within epsilon"
//! but **bitwise-identical** everything: solution vectors, virtual times,
//! communication statistics (including the wait-time histograms, which are
//! sensitive to the exact interleaving of receives), and recovery
//! timelines. Under `--features trace` even the serialized span trace must
//! match byte for byte.
//!
//! This is the property the old thread-per-node runtime could only promise
//! for clock *values* (the clock algebra was scheduling-independent); any
//! observable that depended on host-thread timing — `recv_any` match
//! order, trace event interleavings — was fair game. Now nothing is.

use esr_core::{run_pcg, Problem, SolverConfig};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::poisson2d;

/// Per-node scheduler parks of the 13-node two-failure solve below.
const PINNED_PARKS: [u64; 13] = [76, 77, 77, 104, 104, 77, 77, 77, 55, 52, 52, 76, 75];

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// FNV-1a over the bytes of the serialized trace of the solve below:
/// pins every span name, tag and virtual timestamp of the world and the
/// reconstructors' group collectives.
#[cfg(feature = "trace")]
const PINNED_TRACE_FNV1A: u64 = 0xafa9_1222_3394_dadd;

#[cfg(feature = "trace")]
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn failure_recovery_solve_is_bitwise_reproducible() {
    let a = poisson2d(13, 13);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig::resilient(2);
    // Two nodes fail simultaneously mid-solve on a 13-node cluster: the
    // run exercises redundancy traffic, failure detection, group-scoped
    // reconstruction collectives, and the replacement hand-off.
    let run = || {
        run_pcg(
            &problem,
            13,
            &cfg,
            CostModel::default(),
            FailureScript::simultaneous(7, 3, 2, 13),
        )
        .unwrap()
    };
    let r1 = run();
    let r2 = run();

    assert!(r1.converged && r1.recoveries == 1 && r1.ranks_recovered == 2);

    // Solve-level scalars, bitwise.
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.converged, r2.converged);
    assert_eq!(bits(r1.solver_residual), bits(r2.solver_residual));
    assert_eq!(bits(r1.true_residual), bits(r2.true_residual));
    assert_eq!(bits(r1.residual_deviation), bits(r2.residual_deviation));
    assert_eq!(bits(r1.vtime), bits(r2.vtime));
    assert_eq!(bits(r1.vtime_recovery), bits(r2.vtime_recovery));
    assert_eq!(bits(r1.vtime_setup), bits(r2.vtime_setup));

    // The assembled solution, element-wise bitwise.
    assert_eq!(r1.x.len(), r2.x.len());
    for (i, (a, b)) in r1.x.iter().zip(&r2.x).enumerate() {
        assert_eq!(bits(*a), bits(*b), "x[{i}] differs");
    }

    // Cluster-wide communication statistics — `CommStats` equality covers
    // message/element counters, vtime accumulators, and the logarithmic
    // wait/size histograms (whose bucket counts detect any reordering of
    // individual receive charges, not just changed totals).
    assert_eq!(r1.stats, r2.stats);

    // Scheduler parks are deterministic too, so they are pinned: every
    // blocking receive that found no message and every collective
    // rendezvous reached before its last member parks once. Moving the
    // recursive-doubling collectives back onto per-round messages (or any
    // other change to how often nodes hand the baton over) moves this.
    let parks: Vec<u64> = r1.per_node.iter().map(|p| p.stats.parks()).collect();
    assert_eq!(parks, PINNED_PARKS, "per-node scheduler parks moved");
    assert_eq!(r1.stats.parks(), PINNED_PARKS.iter().sum::<u64>());

    // Per-node outcomes.
    assert_eq!(r1.per_node.len(), r2.per_node.len());
    for (a, b) in r1.per_node.iter().zip(&r2.per_node) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.retired, b.retired);
        assert_eq!(bits(a.residual_norm), bits(b.residual_norm));
        assert_eq!(bits(a.vtime_total), bits(b.vtime_total), "rank {}", a.rank);
        assert_eq!(bits(a.vtime_recovery), bits(b.vtime_recovery));
        assert_eq!(bits(a.vtime_setup), bits(b.vtime_setup));
        assert_eq!(a.stats, b.stats, "rank {} stats differ", a.rank);
        assert_eq!(a.x_loc.len(), b.x_loc.len());
        for (xa, xb) in a.x_loc.iter().zip(&b.x_loc) {
            assert_eq!(bits(*xa), bits(*xb));
        }
    }

    // Recovery timelines: same substeps, same per-substep virtual times.
    assert_eq!(r1.recovery_timelines.len(), r2.recovery_timelines.len());
    for (a, b) in r1.recovery_timelines.iter().zip(&r2.recovery_timelines) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.flavor, b.flavor);
        assert_eq!(a.segments.len(), b.segments.len());
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.attempt, sb.attempt);
            assert_eq!(sa.label, sb.label);
            assert_eq!(bits(sa.vtime), bits(sb.vtime), "substep {}", sa.label);
        }
    }

    // Under tracing, the full serialized span trace — every event, in
    // order, with its virtual timestamp — must be byte-identical.
    // It is pinned too, so a change of span names, tags or collective
    // structure cannot pass as long as it is reproducible.
    #[cfg(feature = "trace")]
    {
        let json = r1.trace.chrome_trace_json();
        assert_eq!(json, r2.trace.chrome_trace_json());
        assert_eq!(fnv1a(&json), PINNED_TRACE_FNV1A, "serialized trace moved");
    }
}
