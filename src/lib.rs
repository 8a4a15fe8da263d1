//! # nova — streaming join placement & parallelization for the edge
//!
//! Facade crate of the reproduction of *Nova: Scalable Streaming Join
//! Placement and Parallelization in Resource-Constrained Geo-Distributed
//! Environments* (EDBT 2026). Re-exports the workspace crates:
//!
//! * [`core`] ([`nova_core`]) — the optimizer: cost-space relaxation,
//!   geometric-median virtual placement, bandwidth-aware partitioning,
//!   physical assignment, re-optimization and the six baselines,
//! * [`topology`] ([`nova_topology`]) — topology model, generators,
//!   routing, latency providers and drift replay,
//! * [`netcoord`] ([`nova_netcoord`]) — Vivaldi and MDS network
//!   coordinate systems (Phase I),
//! * [`geom`] ([`nova_geom`]) — geometric median solvers and k-NN
//!   indexes,
//! * [`runtime`] ([`nova_runtime`]) — the discrete-event
//!   stream-processing testbed,
//! * [`exec`] ([`nova_exec`]) — the multi-threaded streaming-join
//!   executor: the same dataflows on real OS threads, bounded channels
//!   and windowed hash joins (see `examples/real_execution.rs`),
//! * [`workloads`] ([`nova_workloads`]) — DEBS-style, synthetic-OPP and
//!   smart-city workload generators.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the system inventory and experiment index.

pub use nova_core as core;
pub use nova_exec as exec;
pub use nova_geom as geom;
pub use nova_netcoord as netcoord;
pub use nova_runtime as runtime;
pub use nova_topology as topology;
pub use nova_workloads as workloads;

// The most common entry points, re-exported flat for convenience.
pub use nova_core::{evaluate, EvalOptions, JoinQuery, Nova, NovaConfig, Placement, StreamSpec};
pub use nova_exec::{
    execute, launch, EpochStats, ExecConfig, ExecHandle, ExecResult, ReconfigError,
};
pub use nova_runtime::{simulate_reconfigured, PlanSwitch};
pub use nova_topology::{running_example, NodeId, NodeRole, Topology};
