//! The four workloads as data: a world (topology, latencies, query), how
//! it is planned, which part of the plan is deployed, and how both
//! engines are driven.
//!
//! Every workload runs the same five stages (plan → re-optimise →
//! simulate → execute flat out → execute paced); what differs is which
//! stage its sizes make dominant. The *world* — node count, geometry,
//! rates, capacities, embedding seed — is part of the workload's
//! definition, like its size: `Nova::optimize` wall time moves ±25 %
//! and placement p90 86–134 ms between worlds of one size (measured on
//! `plan-opp-50k`), which would drown any bound a later change is held
//! to. `--seed` generates what happens in that world: the tuple streams
//! (sub-keys, selectivity and partition draws of both engines), the
//! re-optimisation event streams, and the day's latency jitter.

use nova_core::{JoinQuery, NovaConfig, StreamSpec};
use nova_geom::Coord;
use nova_netcoord::VivaldiConfig;
use nova_topology::{
    DenseRtt, GeoRtt, LatencyProvider, NodeId, NodeRole, SyntheticParams, SyntheticTopology,
    Topology,
};
use nova_workloads::{environmental_scenario, synthetic_opp, EnvironmentalParams, OppParams};

use crate::trace::Tracer;

/// Seed of the world every run of the binary measures (see the module
/// docs). The builders take it as an argument, and the tests build
/// other worlds with it.
pub const INSTANCE_SEED: u64 = 0x0A0BA;

/// Relative amplitude of the seeded day-to-day latency jitter the
/// engines and the placement evaluation see on top of the base RTTs.
pub const JITTER_FRAC: f64 = 0.002;

/// Capacity headroom of the paced run topology over the planning
/// capacities: Nova packs hosts to ρ = 1, where drop-free latency is a
/// random walk.
pub const RUN_HEADROOM: f64 = 1.25;

/// splitmix64 finaliser — the benchmark's only hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent sub-seed `lane` of a run seed.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    mix(seed ^ mix(lane))
}

/// Base latency measurements of a world.
pub enum Rtt {
    Geo(GeoRtt),
    Dense(DenseRtt),
}

impl LatencyProvider for Rtt {
    fn len(&self) -> usize {
        match self {
            Rtt::Geo(g) => g.len(),
            Rtt::Dense(d) => d.len(),
        }
    }

    fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        match self {
            Rtt::Geo(g) => g.rtt(a, b),
            Rtt::Dense(d) => d.get(a.idx(), b.idx()),
        }
    }
}

/// The latencies of one particular day: the base RTT scaled per site
/// pair by a seeded factor in `[1 − JITTER_FRAC, 1 + JITTER_FRAC]`.
/// Nodes of one site share the factor, so co-sited streams keep exactly
/// equal delays to any third node.
pub struct Jittered<'a> {
    pub base: &'a Rtt,
    pub site: &'a [u32],
    pub seed: u64,
}

impl LatencyProvider for Jittered<'_> {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        let (sa, sb) = (self.site[a.idx()], self.site[b.idx()]);
        let (lo, hi) = if sa <= sb { (sa, sb) } else { (sb, sa) };
        let unit =
            (mix(self.seed ^ ((lo as u64) << 32 | hi as u64)) >> 11) as f64 / (1u64 << 53) as f64;
        self.base.rtt(a, b) * (1.0 + JITTER_FRAC * (2.0 * unit - 1.0))
    }
}

/// A latency view in which ids beyond the base population sit at the
/// node they were added next to — `Nova::add_source` embeds new nodes
/// against it.
pub struct Grown<'a> {
    pub base: &'a Rtt,
    /// Anchor of node `base.len() + i`.
    pub anchors: &'a [NodeId],
    /// Population the provider must claim to cover.
    pub len: usize,
}

impl LatencyProvider for Grown<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        let n = self.base.len();
        let home = |x: NodeId| {
            if x.idx() >= n {
                self.anchors.get(x.idx() - n).copied().unwrap_or(NodeId(0))
            } else {
                x
            }
        };
        let (ha, hb) = (home(a), home(b));
        if a == b {
            0.0
        } else if ha == hb {
            0.7
        } else {
            self.base.rtt(ha, hb)
        }
    }
}

/// How phase I embeds the world.
#[derive(Debug, Clone, Copy)]
pub enum Embedding {
    Vivaldi(VivaldiConfig),
    /// `classical_mds` over the dense matrix, with this seed.
    Mds(u64),
}

/// What both engines share.
#[derive(Debug, Clone, Copy)]
pub struct EngineParams {
    pub window_ms: f64,
    pub selectivity: f64,
    pub key_space: u32,
    pub gc_interval_ms: f64,
    /// Join shards per instance; 1 selects the thread-per-operator engine.
    pub shards: usize,
}

/// One way of driving the executor.
#[derive(Debug, Clone, Copy)]
pub struct Drive {
    /// Virtual stream length.
    pub duration_ms: f64,
    /// Virtual ms per wall ms.
    pub time_scale: f64,
}

/// Repetitions of each stage when `--seconds` is [`NOMINAL_SECONDS`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub plan_reps: usize,
    /// Re-optimisation batteries, each on a freshly planned optimizer
    /// (the first plans of the plan stage).
    pub batteries: usize,
    pub events_per_battery: usize,
    pub sim_reps: usize,
    /// Discarded repetitions at the head of the flat-out stage: about
    /// 1.5 s of work, see `run_workload`.
    pub flat_warmups: usize,
    pub flat_reps: usize,
    pub paced_reps: usize,
}

/// The `--seconds` the sizes below are calibrated for on the 2-core
/// reference host.
pub const NOMINAL_SECONDS: u64 = 15;

impl Sizes {
    /// Fixed work for a given `--seconds`: repetitions scale with it,
    /// work per repetition never does, and no loop reads a clock.
    pub fn scaled(self, seconds: u64) -> Sizes {
        let s = |n: usize| ((n as u64 * seconds).div_ceil(NOMINAL_SECONDS) as usize).max(1);
        Sizes {
            plan_reps: s(self.plan_reps),
            batteries: s(self.batteries).min(self.batteries),
            sim_reps: s(self.sim_reps),
            flat_reps: s(self.flat_reps),
            paced_reps: s(self.paced_reps),
            ..self
        }
    }

    /// `--quick`: one repetition of everything (not comparable).
    pub fn quick(self) -> Sizes {
        Sizes {
            plan_reps: 1,
            batteries: 1,
            events_per_battery: self.events_per_battery,
            sim_reps: 1,
            flat_warmups: 0,
            flat_reps: 1,
            paced_reps: 1,
        }
    }
}

/// The stage whose metric stands for the workload when the cost of
/// tracing is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    Plan,
    Flat,
    Sim,
}

pub struct Scenario {
    /// The topology the planner sees.
    pub topology: Topology,
    pub rtt: Rtt,
    /// Site of every node (see [`Jittered`]).
    pub site: Vec<u32>,
    pub query: JoinQuery,
    pub embedding: Embedding,
    pub nova: NovaConfig,
    /// How many pairs of the plan are deployed on the engines (the
    /// heaviest first); everything when the plan has no more than this.
    pub deploy_pairs: usize,
    pub engine: EngineParams,
    /// Closed loop: sources throttled only by channel backpressure, on
    /// zero-capacity (pure relay) nodes.
    pub flat: Drive,
    /// Open loop: sources paced on the wall clock, `NodePacer`s in the
    /// hot path, on planning capacities × [`RUN_HEADROOM`].
    pub paced: Drive,
    /// Virtual length of one timed `simulate`.
    pub sim_ms: f64,
    pub sizes: Sizes,
    pub primary: Primary,
}

impl Scenario {
    /// The latencies of the day `seed` draws.
    pub fn day(&self, seed: u64) -> Jittered<'_> {
        Jittered {
            base: &self.rtt,
            site: &self.site,
            seed,
        }
    }
}

pub const WORKLOAD_NAMES: [&str; 4] = [
    "plan-opp-50k",
    "exec-probe",
    "exec-transport",
    "pipeline-envmon",
];

/// Wall time of the two halves of input generation.
#[derive(Debug, Clone, Copy)]
pub struct BuildTimes {
    pub topology_generate_s: f64,
    pub workloads_build_s: f64,
}

/// Build a workload's world. `topology.generate` and `workloads.build`
/// spans are recorded under the caller's open span.
pub fn build(name: &str, instance: u64, tr: &Tracer) -> Option<(Scenario, BuildTimes)> {
    match name {
        "plan-opp-50k" => Some(plan_opp_50k(instance, tr)),
        "exec-probe" => Some(exec_probe(instance, tr)),
        "exec-transport" => Some(exec_transport(instance, tr)),
        "pipeline-envmon" => Some(pipeline_envmon(instance, tr)),
        _ => None,
    }
}

/// Plans and batteries of the three small worlds. One plan takes
/// 30–120 µs and one event a few µs there, and this host runs a single
/// thread in one of two gears, a factor 1.4 apart, that last 5–50 ms
/// each (measured: consecutive blocks of 50 plans read 29 or 41 µs). Two
/// thousand plans and a hundred batteries make each stage outlast the
/// gears, so that the median sits in the common one; 20 000 pooled
/// events also average over the victims the event streams draw.
const SMALL_WORLD: Sizes = Sizes {
    plan_reps: 2_000,
    batteries: 100,
    events_per_battery: 200,
    sim_reps: 7,
    flat_warmups: 0,
    flat_reps: 1,
    paced_reps: 1,
};

fn plan_opp_50k(instance: u64, tr: &Tracer) -> (Scenario, BuildTimes) {
    let (syn, topology_generate_s) = tr.timed("topology.generate", || {
        SyntheticTopology::generate(&SyntheticParams {
            n: 50_000,
            seed: instance,
            ..Default::default()
        })
    });
    let (w, workloads_build_s) = tr.timed("workloads.build", || {
        synthetic_opp(
            &syn.topology,
            &OppParams {
                seed: instance,
                ..Default::default()
            },
        )
    });
    let vivaldi = VivaldiConfig {
        neighbors: 20,
        rounds: 24,
        seed: instance,
        ..Default::default()
    };
    let scenario = Scenario {
        site: (0..w.topology.len() as u32).collect(),
        topology: w.topology,
        rtt: Rtt::Geo(syn.rtt),
        query: w.query,
        embedding: Embedding::Vivaldi(vivaldi),
        nova: NovaConfig {
            vivaldi,
            seed: instance,
            ..Default::default()
        },
        deploy_pairs: 4,
        engine: EngineParams {
            window_ms: 1_000.0,
            selectivity: 0.001,
            key_space: 1,
            gc_interval_ms: 500.0,
            shards: 1,
        },
        flat: Drive {
            duration_ms: 1_000_000.0,
            time_scale: 1_000_000.0,
        },
        paced: Drive {
            duration_ms: 30_000.0,
            time_scale: 25.0,
        },
        sim_ms: 120_000.0,
        // 70 events per battery, 280 pooled: `Nova::add_source` costs
        // 0.2 s at this size (it copies the 15 000² join matrix), ten
        // samples must lie beyond p95, and the median of 210 events
        // still scattered 10–12 % over ten seeds.
        sizes: Sizes {
            plan_reps: 4,
            batteries: 4,
            events_per_battery: 70,
            sim_reps: 5,
            flat_warmups: 4,
            flat_reps: 7,
            paced_reps: 3,
        },
        primary: Primary::Plan,
    };
    (
        scenario,
        BuildTimes {
            topology_generate_s,
            workloads_build_s,
        },
    )
}

struct SiteWorld {
    topology: Topology,
    rtt: Rtt,
    site: Vec<u32>,
    query: JoinQuery,
    times: BuildTimes,
}

/// A metro edge: the sink in the middle, `workers` fog nodes on a ring
/// around it, and one sensor site per join pair further out, each
/// holding the pair's two sources. Co-sited sources have identical
/// latency rows, so both inputs of a pair reach any host with exactly
/// the same delay. `out_rate` is the join-result rate the sink must
/// absorb.
fn site_world(tr: &Tracer, pairs: usize, workers: usize, rate: f64, out_rate: f64) -> SiteWorld {
    let ((topology, rtt, site, sources), topology_generate_s) =
        tr.timed("topology.generate", || {
            let mut t = Topology::new();
            let mut site: Vec<u32> = Vec::new();
            let mut pos: Vec<Coord> = Vec::new();
            // One site per distinct position, in creation order.
            let mut place = |at: Coord| {
                let id = pos.iter().position(|p| *p == at).unwrap_or_else(|| {
                    pos.push(at);
                    pos.len() - 1
                });
                site.push(id as u32);
            };
            // A host serves 2·rate, a source ingests `rate`, the sink
            // absorbs the results: planning utilisation stays ≤ 0.8,
            // so ≤ 0.64 with the run headroom.
            t.add_node(NodeRole::Sink, (2.0 * rate).max(2.0 * out_rate), "sink");
            place(Coord::xy(0.0, 0.0));
            for w in 0..workers {
                let a = std::f64::consts::TAU * w as f64 / workers as f64;
                t.add_node(NodeRole::Worker, 2.5 * rate, format!("fog{w}"));
                place(Coord::xy(12.0 * a.cos(), 12.0 * a.sin()));
            }
            let mut sources = Vec::new();
            for k in 0..pairs {
                let a = std::f64::consts::TAU * (k as f64 + 0.25) / pairs as f64;
                let at = Coord::xy(30.0 * a.cos(), 30.0 * a.sin());
                let l = t.add_node(NodeRole::Source, 2.0 * rate, format!("left{k}"));
                place(at);
                let r = t.add_node(NodeRole::Source, 2.0 * rate, format!("right{k}"));
                place(at);
                sources.push((l, r));
            }
            let rtt = DenseRtt::from_fn(t.len(), |i, j| {
                if i == j {
                    0.0
                } else if site[i] == site[j] {
                    0.5
                } else {
                    2.0 + pos[site[i] as usize].dist(&pos[site[j] as usize])
                }
            });
            (t, Rtt::Dense(rtt), site, sources)
        });
    let (query, workloads_build_s) = tr.timed("workloads.build", || {
        let (left, right) = sources
            .iter()
            .enumerate()
            .map(|(k, &(l, r))| {
                (
                    StreamSpec::keyed(l, rate, k as u32),
                    StreamSpec::keyed(r, rate, k as u32),
                )
            })
            .unzip();
        JoinQuery::by_key(left, right, NodeId(0))
    });
    SiteWorld {
        topology,
        rtt,
        site,
        query,
        times: BuildTimes {
            topology_generate_s,
            workloads_build_s,
        },
    }
}

/// Results per second of one keyed pair: `rate² · window · selectivity /
/// key_space`.
fn pair_out_rate(rate: f64, e: &EngineParams) -> f64 {
    rate * rate * (e.window_ms / 1_000.0) * e.selectivity / e.key_space as f64
}

/// Unpartitioned planning (σ = 1, equal rates ⇒ one replica per pair):
/// both engines then draw no partition randomness and counts are exact.
fn unpartitioned(instance: u64) -> NovaConfig {
    NovaConfig {
        sigma: 1.0,
        seed: instance,
        ..Default::default()
    }
}

fn exec_probe(instance: u64, tr: &Tracer) -> (Scenario, BuildTimes) {
    let rate = 20_000.0;
    let engine = EngineParams {
        window_ms: 2_000.0,
        selectivity: 0.002,
        key_space: 16,
        gc_interval_ms: 500.0,
        shards: 1,
    };
    let w = site_world(tr, 1, 64, rate, pair_out_rate(rate, &engine));
    let scenario = Scenario {
        topology: w.topology,
        rtt: w.rtt,
        site: w.site,
        query: w.query,
        embedding: Embedding::Mds(instance),
        nova: unpartitioned(instance),
        deploy_pairs: usize::MAX,
        engine,
        flat: Drive {
            duration_ms: 6_000.0,
            time_scale: 1_000.0,
        },
        paced: Drive {
            duration_ms: 2_000.0,
            time_scale: 2.0,
        },
        sim_ms: 3_000.0,
        sizes: Sizes {
            flat_warmups: 2,
            flat_reps: 7,
            paced_reps: 3,
            ..SMALL_WORLD
        },
        primary: Primary::Flat,
    };
    (scenario, w.times)
}

fn exec_transport(instance: u64, tr: &Tracer) -> (Scenario, BuildTimes) {
    let rate = 300_000.0;
    let engine = EngineParams {
        window_ms: 0.01,
        selectivity: 0.05,
        key_space: 1,
        gc_interval_ms: 5.0,
        shards: 2,
    };
    let w = site_world(tr, 4, 64, rate, 4.0 * pair_out_rate(rate, &engine));
    let scenario = Scenario {
        topology: w.topology,
        rtt: w.rtt,
        site: w.site,
        query: w.query,
        embedding: Embedding::Mds(instance),
        nova: unpartitioned(instance),
        deploy_pairs: usize::MAX,
        engine,
        flat: Drive {
            duration_ms: 1_250.0,
            time_scale: 1_000.0,
        },
        paced: Drive {
            duration_ms: 250.0,
            time_scale: 0.25,
        },
        sim_ms: 250.0,
        sizes: Sizes {
            sim_reps: 5,
            flat_warmups: 4,
            flat_reps: 16,
            paced_reps: 3,
            ..SMALL_WORLD
        },
        primary: Primary::Flat,
    };
    (scenario, w.times)
}

fn pipeline_envmon(instance: u64, tr: &Tracer) -> (Scenario, BuildTimes) {
    let (env, workloads_build_s) = tr.timed("workloads.build", || {
        environmental_scenario(&EnvironmentalParams {
            rate: 500.0,
            seed: instance,
            ..Default::default()
        })
    });
    // The scenario generator builds the cluster itself; what is left of
    // "topology generation" here is materialising its latency matrix.
    let ((rtt, site), topology_generate_s) = tr.timed("topology.generate", || {
        let n = env.cluster.topology.len();
        (
            Rtt::Dense(env.cluster.rtt.dense().clone()),
            (0..n as u32).collect(),
        )
    });
    let scenario = Scenario {
        topology: env.cluster.topology,
        rtt,
        site,
        query: env.query,
        embedding: Embedding::Mds(instance),
        nova: NovaConfig::default(),
        deploy_pairs: usize::MAX,
        engine: EngineParams {
            window_ms: 200.0,
            selectivity: 0.004,
            key_space: 1,
            gc_interval_ms: 500.0,
            shards: 1,
        },
        // 4 000 tuples/s of virtual time: at `time_scale` 1000 the
        // sources would cap the run at 4 M tuples/s of wall time.
        flat: Drive {
            duration_ms: 400_000.0,
            time_scale: 100_000.0,
        },
        paced: Drive {
            duration_ms: 12_000.0,
            time_scale: 4.0,
        },
        sim_ms: 120_000.0,
        sizes: Sizes {
            flat_warmups: 5,
            flat_reps: 9,
            paced_reps: 3,
            ..SMALL_WORLD
        },
        primary: Primary::Sim,
    };
    (
        scenario,
        BuildTimes {
            topology_generate_s,
            workloads_build_s,
        },
    )
}

/// `topology` with every capacity scaled by `factor` (0 ⇒ pure relays,
/// which both engines serve without queueing).
pub fn scaled_capacities(topology: &Topology, factor: f64) -> Topology {
    let mut t = topology.clone();
    for i in 0..t.len() {
        let node = t.node_mut(NodeId(i as u32));
        node.capacity *= factor;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_sited_sources_see_identical_jittered_delays() {
        let tr = Tracer::new(false);
        let SiteWorld {
            topology: t,
            rtt,
            site,
            query: q,
            ..
        } = site_world(&tr, 4, 8, 100.0, 10.0);
        let day = Jittered {
            base: &rtt,
            site: &site,
            seed: 99,
        };
        for (l, r) in q.left.iter().zip(&q.right) {
            for other in 0..t.len() as u32 {
                let o = NodeId(other);
                if o != l.node && o != r.node {
                    assert_eq!(day.rtt(l.node, o), day.rtt(r.node, o));
                }
            }
        }
        let base = rtt.rtt(NodeId(0), NodeId(1));
        let j = day.rtt(NodeId(0), NodeId(1));
        assert!((j / base - 1.0).abs() <= JITTER_FRAC);
        assert_eq!(day.rtt(NodeId(1), NodeId(0)), j, "jitter is symmetric");
    }

    #[test]
    fn sizes_scale_with_seconds_and_never_reach_zero() {
        let s = Sizes {
            plan_reps: 3,
            batteries: 3,
            events_per_battery: 200,
            sim_reps: 3,
            flat_warmups: 4,
            flat_reps: 12,
            paced_reps: 2,
        };
        let same = s.scaled(NOMINAL_SECONDS);
        assert_eq!((same.plan_reps, same.flat_reps, same.batteries), (3, 12, 3));
        let short = s.scaled(1);
        assert_eq!(
            (short.plan_reps, short.flat_reps, short.paced_reps),
            (1, 1, 1)
        );
        let long = s.scaled(2 * NOMINAL_SECONDS);
        assert_eq!(
            (long.flat_reps, long.batteries, long.flat_warmups),
            (24, 3, 4)
        );
        assert_eq!((s.quick().flat_reps, s.quick().flat_warmups), (1, 0));
    }

    #[test]
    fn sub_seeds_differ_per_lane_and_repeat_per_seed() {
        assert_eq!(sub_seed(5, 1), sub_seed(5, 1));
        assert_ne!(sub_seed(5, 1), sub_seed(5, 2));
        assert_ne!(sub_seed(5, 1), sub_seed(6, 1));
    }
}
