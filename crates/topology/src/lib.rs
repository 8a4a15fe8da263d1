//! Geo-distributed network topology model for the Nova reproduction.
//!
//! The paper models the infrastructure as a directed graph `G_T = (V, E)`
//! of heterogeneous nodes (sensors, Raspberry-Pi-class edge devices, fog
//! servers, cloud machines) connected by links with millisecond-scale
//! latencies (§2.2). This crate provides:
//!
//! * [`Topology`] — nodes with roles, compute capacities and optional
//!   explicit links ([`graph`]),
//! * shortest-path routing and all-pairs helpers ([`routing`]),
//! * minimum spanning trees for the WSN-style baselines ([`mst`]),
//! * latency providers ([`rtt`]): dense measured matrices for
//!   testbed-scale topologies, on-demand geographic models for synthetic
//!   million-node topologies, and Dijkstra-backed providers for explicit
//!   link graphs,
//! * generators: Gaussian-cluster synthetic topologies ([`synthetic`]),
//!   the paper's running example and parametric edge–fog–cloud layouts
//!   ([`edge_fog_cloud`]), and synthetic stand-ins for the four real-world
//!   testbeds used in the evaluation ([`testbeds`]),
//! * capacity heterogeneity control with measurable coefficient of
//!   variation ([`heterogeneity`]),
//! * a 24-hour latency drift replay ([`drift`]) for the Fig. 9 resilience
//!   experiment.

#![forbid(unsafe_code)]

pub mod drift;
pub mod edge_fog_cloud;
pub mod graph;
pub mod heterogeneity;
pub mod mst;
pub mod routing;
pub mod rtt;
pub mod synthetic;
pub mod testbeds;

pub use drift::{DriftModel, DriftReport};
pub use edge_fog_cloud::{
    running_example, EdgeFogCloud, EdgeFogCloudParams, RunningExample, RUNNING_EXAMPLE_RATE,
};
pub use graph::{Link, Node, NodeId, NodeRole, Topology};
pub use heterogeneity::{coefficient_of_variation, CapacityDistribution};
pub use mst::{minimum_spanning_tree, RootedTree};
pub use routing::{dijkstra, PathResult};
pub use rtt::{DenseRtt, GeoRtt, GraphRtt, LatencyProvider};
pub use synthetic::{SyntheticParams, SyntheticTopology};
pub use testbeds::{Testbed, TestbedTopology};
