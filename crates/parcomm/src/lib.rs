//! # parcomm — a simulated distributed-memory parallel computer
//!
//! This crate is the substrate beneath the ESR-PCG reproduction of
//! Pachajoa et al., *"How to Make the Preconditioned Conjugate Gradient
//! Method Resilient Against Multiple Node Failures"* (ICPP 2019).
//!
//! The paper runs on MPI (with ULFM-style fault tolerance assumed) on 128
//! physical nodes. Here, every **node** of the parallel computer has
//! strictly private state and a mailbox; all interaction happens through
//! explicit message passing, mirroring the MPI programming model. Node
//! programs are written in blocking style (each node owns an OS thread as
//! its stack), but execution is driven by a deterministic discrete-event
//! scheduler ([`sched`]): exactly one node runs at a time, blocking
//! operations park the node, and the next runnable node is dispatched by
//! minimum `(virtual time, rank)` — so a 1024-node cluster runs on one
//! core and every run replays the identical schedule. The primitives:
//!
//! * point-to-point [`NodeCtx::send`] / [`NodeCtx::recv`] with
//!   `(source, tag)` matching,
//! * deterministic collectives ([`NodeCtx::allreduce_sum`],
//!   [`NodeCtx::allgatherv_f64`], [`NodeCtx::alltoallv_u64`], …) —
//!   recursive doubling for all-reduce and barrier, completed at a
//!   scheduler rendezvous ([`rendezvous`]) and charged as its messages
//!   would be; binomial trees of point-to-point messages for
//!   broadcast/gather,
//! * non-blocking operations ([`NodeCtx::isend`], [`NodeCtx::irecv`],
//!   [`NodeCtx::iallreduce_vec`]) with request handles ([`request`]) and an
//!   **overlap-aware clock**: compute issued between start and wait hides
//!   the flight time, and [`CommStats`] splits communication into exposed
//!   vs hidden virtual time — the substrate of the communication-hiding
//!   pipelined PCG,
//! * one communicator type, [`Group`]: the world is the group of all ranks
//!   ([`NodeCtx::world`]), and sub-communicators ([`NodeCtx::group`]) serve
//!   the replacement nodes' cooperative state reconstruction and a
//!   shrunken cluster's survivors; every collective has one body there,
//!   and the world methods on [`NodeCtx`] delegate to it,
//! * a ULFM-like [`fault::FaultOracle`] that detects node failures, notifies
//!   all surviving nodes consistently, and provisions replacement nodes,
//! * a **virtual BSP clock** ([`vclock`]) implementing the latency–bandwidth
//!   cost model of the paper's Sec. 4.2 (`λ` per message, `µ` per vector
//!   element, `γ` per flop), so that 128-node experiments produce meaningful
//!   timing *shapes* even on a 2-core host.
//!
//! Failures are *simulated* exactly as in the paper (Sec. 6): a failed
//! node's dynamic data is poisoned (NaN) and the node keeps its scheduler
//! slot, continuing in the *replacement node* role (the lifecycle state
//! machine is documented in [`fault`]). Tests rely on the poisoning to
//! prove that recovery never reads lost data.

// Indexed loops over several parallel arrays are the clearest form for
// the numeric kernels in this crate; iterator-zip pyramids obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod cluster;
pub mod comm;
pub mod fault;
pub mod group;
pub mod mailbox;
pub mod payload;
pub(crate) mod rendezvous;
pub mod request;
pub(crate) mod sched;
pub mod stats;
pub mod tag;
#[cfg(feature = "trace")]
pub mod trace;
pub mod vclock;

pub use cluster::{Cluster, ClusterConfig, SparePool};
pub use comm::{NodeCtx, ReduceOp};
pub use fault::{FailAt, FailureEvent, FailureScript, FaultOracle};
pub use group::Group;
pub use payload::Payload;
pub use request::{AllreduceRequest, RecvRequest, SendRequest};
pub use stats::{CommPhase, CommStats, LogHist};
pub use tag::Tag;
#[cfg(feature = "trace")]
pub use trace::{ClusterTrace, CriticalPath, NodeTrace, TraceEvent, TraceEventKind};
pub use vclock::{CostModel, VClock};
