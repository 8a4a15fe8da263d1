//! One workload, start to finish: set-up, the five measured stages, and
//! — in the traced pass — the layer micro-runs, the control plane and
//! the attribution.

use std::time::{Duration, Instant};

use nova_core::virtual_placement::compute_optima;
use nova_core::CandidateIndex;
use nova_exec::{launch, ExecConfig, MetricsSnapshot};
use nova_netcoord::EmbeddingError;
use nova_runtime::{simulate, simulate_reconfigured};
use nova_topology::LatencyProvider;

use crate::defs::{self, MetricDef};
use crate::json::Json;
use crate::layers;
use crate::pipeline::{
    battery, check_exec_reps, churn_rep, exec_cfg, exec_counts, exec_rep, fingerprint,
    latency_p50_after, no_delay, peak_util_pct, plan_once, reference, sim_cfg, sim_counts,
    switches, unplaced_pairs, Battery, ExecRep, Ledger, PlanTimes, Reference, EVENT_KINDS,
};
use crate::scenario::{self, sub_seed, Embedding, Primary, Scenario};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u64,
    /// One repetition of everything; the result is not comparable.
    pub quick: bool,
    pub traced: bool,
    /// Seed of the world; the binary always measures
    /// [`scenario::INSTANCE_SEED`], tests build others.
    pub instance: u64,
}

pub struct Report {
    pub workload: String,
    pub opts: RunOpts,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// catalogue order.
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    pub ledger: Ledger,
    /// Spans and per-layer self times of the traced pass.
    pub trace: Option<Json>,
    pub wall_s: f64,
}

/// Samples by metric name, in first-use order.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| stats::median(v))
    }

    /// The catalogue's metrics, each of which must have been measured.
    fn into_metrics(self, catalogue: &'static [MetricDef]) -> Vec<(&'static MetricDef, Summary)> {
        catalogue
            .iter()
            .map(|def| {
                let samples = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
                    .1
                    .clone();
                (def, Summary::of(samples))
            })
            .collect()
    }
}

/// Whole set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Wall times of the primary stage's repetitions with the tracer
/// recording and not.
#[derive(Default)]
struct Overhead {
    on: Vec<f64>,
    off: Vec<f64>,
}

impl Overhead {
    fn push(&mut self, recording: bool, secs: f64) {
        if recording {
            &mut self.on
        } else {
            &mut self.off
        }
        .push(secs);
    }

    /// Relative cost of recording spans, medians compared.
    fn pct(&self) -> f64 {
        if self.on.is_empty() || self.off.is_empty() {
            return 0.0;
        }
        100.0 * (stats::median(&self.on) - stats::median(&self.off)) / stats::median(&self.off)
    }
}

pub fn run_workload(name: &str, opts: RunOpts) -> Result<Report, String> {
    let started = Instant::now();
    let tr = Tracer::new(opts.traced);
    let mut ledger = Ledger::default();
    let mut e2e = Samples::default();
    let mut lay = Samples::default();
    let traced = opts.traced;
    let engine_seed = sub_seed(opts.seed, 2);

    // ---- set-up, whole, several times: generate the inputs, plan and
    // deploy the reference, and replay both executor jobs on the
    // simulator. (The executor's own warm-up is the head of the flat-out
    // stage: inside set-up it made `setup_s` read one of two values,
    // depending on whether the host had the second core ready.)
    let mut built: Option<(Scenario, Reference)> = None;
    for _ in 0..if opts.quick { 1 } else { SETUP_REPS } {
        // One set-up at a time in memory, as a user would hold it.
        drop(built.take());
        let (b, setup_s) = tr.timed("bench.setup", || {
            let (scn, times) = scenario::build(name, opts.instance, &tr)?;
            let rf = reference(&scn, &scn.day(sub_seed(opts.seed, 1)), engine_seed, &tr);
            Some((scn, times, rf))
        });
        let (scn, times, rf) = b.ok_or_else(|| {
            format!(
                "unknown workload {name:?}; expected one of {:?}",
                scenario::WORKLOAD_NAMES
            )
        })?;
        e2e.push("setup_s", setup_s);
        lay.push("topology.generate_s", times.topology_generate_s);
        lay.push("workloads.build_s", times.workloads_build_s);
        built = Some((scn, rf));
    }
    let (scn, rf) = built.expect("at least one set-up repetition");
    ledger.check(
        "plan: accounting valid after optimize",
        rf.accounting.is_ok(),
        rf.accounting.clone().err().unwrap_or_else(|| "ok".into()),
    );
    let mut sizes = if opts.quick {
        scn.sizes.quick()
    } else {
        scn.sizes.scaled(opts.seconds)
    };
    if traced && !opts.quick {
        // Tracing overhead needs two repetitions of the primary stage
        // on each side.
        match scn.primary {
            Primary::Plan => sizes.plan_reps = sizes.plan_reps.max(4),
            Primary::Flat => sizes.flat_reps = sizes.flat_reps.max(4),
            Primary::Sim => sizes.sim_reps = sizes.sim_reps.max(4),
        }
    }
    let day = scn.day(sub_seed(opts.seed, 1));
    let today = |a, b| day.rtt(a, b);
    let flat_cfg = exec_cfg(&scn, engine_seed, scn.flat);
    let paced_cfg = exec_cfg(&scn, engine_seed, scn.paced);
    let sim = sim_cfg(&scn, engine_seed, scn.sim_ms);
    let dataflow = &rf.deployed.dataflow;

    // ---- the measured stages, one after the other. In the traced pass
    // every other repetition of the workload's primary stage runs with
    // the tracer off, to measure what recording costs.
    let recorded =
        |stage: Primary, rep: usize| traced && (scn.primary != stage || rep.is_multiple_of(2));
    let mut overhead = Overhead::default();

    // stage: plan, and re-optimise the first `batteries` plans
    let pairs = scn.query.resolve().len() as u64;
    let mut plan_times: Vec<PlanTimes> = Vec::new();
    let mut batteries: Vec<Battery> = Vec::new();
    let mut space = None;
    let mut place = None;
    let (mut unplaced, mut replicas, mut fingerprints_differ) = (0u64, 0, 0u64);
    let mut place_repeats = true;
    let mut accounting_errors: Vec<String> = Vec::new();
    for rep in 0..sizes.plan_reps {
        let recording = recorded(Primary::Plan, rep);
        tr.set_enabled(recording);
        let mut p = plan_once(&scn, &day, &tr);
        tr.set_enabled(traced);
        e2e.push("plan_s", p.times.plan_s());
        if scn.primary == Primary::Plan {
            overhead.push(recording, p.times.plan_s());
        }
        plan_times.push(p.times);
        fingerprints_differ += u64::from(fingerprint(p.nova.placement()) != rf.fingerprint);
        unplaced += unplaced_pairs(&p.nova) as u64;
        replicas = p.nova.placement().replicas.len();
        let now = (
            p.eval.latency_percentile(0.9),
            peak_util_pct(&p.eval, p.nova.topology(), &scn.query),
            p.eval.overload_percent(),
        );
        place_repeats &= *place.get_or_insert(now) == now;
        if traced && space.is_none() {
            space = Some(p.nova.cost_space().clone());
        }
        if rep < sizes.batteries {
            // Every battery draws an event stream of its own from the
            // run seed.
            let stream = sub_seed(opts.seed, 16 + rep as u64);
            let b = battery(&scn, &mut p.nova, stream, sizes.events_per_battery, &tr);
            if let Err(e) = tr.span("core.Nova::validate_accounting", || {
                p.nova.validate_accounting()
            }) {
                accounting_errors.push(format!("battery {rep}: {e}"));
            }
            batteries.push(b);
        }
    }

    // stage: simulate (the single-threaded run of the same job)
    let mut sim_first = None;
    let mut sim_repeats = true;
    for rep in 0..sizes.sim_reps {
        let recording = recorded(Primary::Sim, rep);
        tr.set_enabled(recording);
        let (r, secs) = tr.timed("runtime.simulate", || {
            simulate(&rf.run_topology, |a, b| day.rtt(a, b), dataflow, &sim)
        });
        tr.set_enabled(traced);
        e2e.push("sim_tuples_per_s", r.emitted as f64 / secs);
        lay.push(
            "runtime.sim_ns_per_tuple",
            secs * 1e9 / r.emitted.max(1) as f64,
        );
        if scn.primary == Primary::Sim {
            overhead.push(recording, secs);
        }
        let now = (
            sim_counts(&r),
            r.dropped,
            r.latency_percentile(0.5),
            r.latency_percentile(0.99),
        );
        sim_repeats &= *sim_first.get_or_insert(now) == now;
    }

    // stage: execute flat out (closed loop, pure-relay nodes). The
    // stages before this one kept a single core busy for seconds, and
    // the host then hands the process its second core back only after
    // about a second of demand for it: the first repetitions — the
    // executor's warm-up as well — are discarded, counts checked all the
    // same.
    let mut flat: Vec<ExecRep> = Vec::new();
    let mut quiet: Vec<f64> = Vec::new();
    for rep in 0..sizes.flat_warmups + sizes.flat_reps {
        let measured = rep.checked_sub(sizes.flat_warmups);
        let recording = measured.map_or(traced, |rep| recorded(Primary::Flat, rep));
        tr.set_enabled(recording);
        let mut r = exec_rep(&rf.relay, &no_delay, dataflow, &flat_cfg, &tr);
        tr.set_enabled(traced);
        // Only the counts are kept: a run's outputs are the bulk of its
        // memory, and `peak_rss_mb` is to show one run, not their sum.
        r.result.outputs = Vec::new();
        if measured.is_some() {
            e2e.push("exec_tuples_per_s", r.tuples_per_s());
            e2e.push("exec_cpu_ns_per_tuple", r.cpu_ns_per_tuple());
            if scn.primary == Primary::Flat {
                overhead.push(recording, r.wall_s);
            }
            if traced && quiet.len() < 4 {
                // Telemetry off, between the repetitions it is compared to.
                let cfg = ExecConfig {
                    telemetry: false,
                    ..flat_cfg
                };
                quiet.push(exec_rep(&rf.relay, &no_delay, dataflow, &cfg, &tr).tuples_per_s());
            }
        }
        flat.push(r);
    }

    // stage: execute paced (open loop, pacers in the hot path)
    let mut paced: Vec<ExecRep> = Vec::new();
    for _ in 0..sizes.paced_reps {
        let mut r = exec_rep(&rf.run_topology, &today, dataflow, &paced_cfg, &tr);
        e2e.push("exec_latency_p50_ms", r.result.latency_percentile(0.5));
        e2e.push("exec_latency_p99_ms", r.result.latency_percentile(0.99));
        r.result.outputs = Vec::new();
        lay.push("exec.paced.cpu_ns_per_tuple", r.cpu_ns_per_tuple());
        let due_s = scn.paced.duration_ms / scn.paced.time_scale / 1e3;
        lay.push(
            "exec.paced.wall_overrun_pct",
            100.0 * (r.wall_s - due_s) / due_s,
        );
        paced.push(r);
    }

    // ---- metrics that are one number per run, and the checks
    let (place_p90, place_peak, place_overload) = place.expect("at least one plan");
    e2e.push("place_latency_p90_ms", place_p90);
    e2e.push("place_peak_util_pct", place_peak);
    ledger.ops(pairs * plan_times.len() as u64, unplaced);
    ledger.check(
        "plan: every pair placed in every repetition",
        unplaced == 0,
        format!(
            "{pairs} pairs × {} reps, {unplaced} unplaced",
            plan_times.len()
        ),
    );
    ledger.check(
        "plan: placement fingerprint identical across repetitions",
        fingerprints_differ == 0 && place_repeats,
        format!("{:#018x}, {fingerprints_differ} differ", rf.fingerprint),
    );
    let events: u64 = batteries.iter().map(Battery::events).sum();
    let event_errors: u64 = batteries.iter().map(|b| b.errors).sum();
    ledger.ops(events, event_errors);
    ledger.check(
        "reopt: no event returned Err",
        event_errors == 0,
        format!("{events} events in {} batteries", batteries.len()),
    );
    ledger.check(
        "reopt: accounting valid after every battery",
        accounting_errors.is_empty(),
        accounting_errors.join("; "),
    );
    // Events of all batteries pooled: within one battery the median
    // depends on which victims its stream happened to draw (3.5–13 µs
    // per battery on `exec-transport`).
    let pooled: Vec<f64> = batteries
        .iter()
        .flat_map(|b| b.ms.iter().flatten().copied())
        .collect();
    if !opts.quick {
        ledger.check(
            "reopt: ten samples lie beyond p95",
            stats::supports(pooled.len(), 0.95),
            format!("{} pooled events", pooled.len()),
        );
    }
    e2e.push("reopt_ms_p50", stats::percentile(&pooled, 0.5));
    e2e.push("reopt_ms_p95", stats::percentile(&pooled, 0.95));
    let (sim_count, sim_dropped, sim_p50, sim_p99) = sim_first.expect("at least one simulation");
    e2e.push("sim_latency_p50_ms", sim_p50);
    e2e.push("sim_latency_p99_ms", sim_p99);
    ledger.check(
        "sim: deterministic across repetitions, nothing shed",
        sim_repeats && sim_dropped == 0,
        format!("(emitted, matched, delivered) {sim_count:?}, dropped {sim_dropped}"),
    );
    check_exec_reps(
        &mut ledger,
        "exec flat out",
        &flat.iter().map(|r| &r.result).collect::<Vec<_>>(),
        &rf.flat_replay,
        rf.exact,
    );
    check_exec_reps(
        &mut ledger,
        "exec paced",
        &paced.iter().map(|r| &r.result).collect::<Vec<_>>(),
        &rf.paced_replay,
        false,
    );

    if !traced {
        e2e.push("peak_rss_mb", sys::peak_rss_mb());
        return Ok(Report {
            workload: name.to_string(),
            opts,
            metrics: e2e.into_metrics(&defs::END_TO_END),
            ledger,
            trace: None,
            wall_s: started.elapsed().as_secs_f64(),
        });
    }

    // =================================================================
    // Traced pass only: per-layer numbers.
    // =================================================================
    let layer_seed = sub_seed(opts.seed, 3);

    // netcoord: the embedding on its own, and how well it fits.
    let embed_s = stats::median(&plan_times.iter().map(|t| t.embed_s).collect::<Vec<_>>());
    let n = scn.topology.len() as f64;
    let embed_samples = match scn.embedding {
        Embedding::Vivaldi(v) => n * v.neighbors as f64 * v.rounds as f64,
        Embedding::Mds(_) => n * n,
    };
    lay.push("netcoord.embed_s", embed_s);
    lay.push(
        "netcoord.embed_ns_per_sample",
        embed_s * 1e9 / embed_samples,
    );
    let space = space.expect("the traced pass keeps the first plan's cost space");
    let (_, coords) = space.live();
    let fit = tr.span("netcoord.EmbeddingError::evaluate", || {
        EmbeddingError::evaluate(&coords, &scn.rtt, 20_000, layer_seed)
    });
    lay.push("netcoord.embed_rel_err_p50", fit.median_relative);

    // geom + core: the calls `optimize` makes, on the same input.
    let g = tr.span("bench.micro.geom", || {
        layers::geom(&scn.query, &scn.topology, &space, scn.nova.seed)
    });
    lay.push("geom.median_ns_per_pair", g.median_ns_per_pair);
    lay.push("geom.knn_ns_per_query", g.knn_ns_per_query);
    lay.push(
        "geom.nearest_capable_ns_per_query",
        g.nearest_capable_ns_per_query,
    );
    // On the small worlds these calls take a fraction of a microsecond:
    // time a hundred at a stretch there, one at 15 000 pairs.
    let calls = if pairs > 1_000 { 1 } else { 100 };
    for _ in 0..3 {
        let plan = scn.query.resolve();
        let (_, resolve_s) = tr.timed("core.JoinQuery::resolve", || {
            (0..calls).for_each(|_| drop(std::hint::black_box(scn.query.resolve())))
        });
        let (_, optima_s) = tr.timed("core.compute_optima", || {
            (0..calls).for_each(|_| {
                std::hint::black_box(compute_optima(&scn.query, &plan, &space));
            })
        });
        let (_, index_s) = tr.timed("core.CandidateIndex::build", || {
            (0..calls).for_each(|_| {
                std::hint::black_box(CandidateIndex::build(
                    &scn.topology,
                    &space,
                    scn.nova.exact_index_threshold,
                    scn.nova.seed,
                ));
            })
        });
        lay.push("core.resolve_s", resolve_s / calls as f64);
        lay.push("core.optima_s", optima_s / calls as f64);
        lay.push("core.index_build_s", index_s / calls as f64);
    }
    let optimize_s = stats::median(&plan_times.iter().map(|t| t.optimize_s).collect::<Vec<_>>());
    let phase3_s = optimize_s
        - lay.median("core.resolve_s")
        - lay.median("core.optima_s")
        - lay.median("core.index_build_s");
    lay.push("core.phase3_s", phase3_s);
    lay.push("core.phase3_us_per_pair", phase3_s * 1e6 / pairs as f64);
    for t in &plan_times {
        lay.push("core.evaluate_s", t.evaluate_s);
    }
    lay.push("core.replicas_per_pair", replicas as f64 / pairs as f64);
    lay.push("core.pairs_unplaced", unplaced as f64);
    lay.push("core.place_overload_pct", place_overload);
    for (k, metric) in EVENT_KINDS.into_iter().enumerate() {
        let ms: Vec<f64> = batteries
            .iter()
            .flat_map(|b| b.ms[k].iter().copied())
            .collect();
        lay.push(metric, stats::percentile(&ms, 0.5));
    }
    lay.push(
        "core.reopt_pairs_replaced_mean",
        batteries.iter().map(|b| b.pairs_replaced).sum::<u64>() as f64 / events.max(1) as f64,
    );

    // runtime: window state at this workload's occupancy.
    let streams = &rf.deployed.query;
    let rate = streams.total_input_rate() / (streams.left.len() + streams.right.len()) as f64;
    let probe = tr.span("bench.micro.window_probe", || {
        layers::window_probe(&scn.engine, rate, layer_seed, 400_000)
    });
    lay.push(
        "runtime.window.probe_ns_per_tuple",
        probe.probe_ns_per_tuple,
    );
    lay.push(
        "runtime.window.partners_per_probe",
        probe.partners_per_probe,
    );
    lay.push(
        "runtime.window.peak_arena_chunks",
        probe.peak_arena_chunks as f64,
    );
    lay.push(
        "runtime.match_survives_ns",
        layers::match_survives_ns(scn.engine.selectivity, layer_seed),
    );
    lay.push(
        "runtime.window.insert_gc_ns_per_tuple",
        tr.span("bench.micro.window_insert_gc", layers::window_insert_gc_ns),
    );
    lay.push(
        "runtime.window.export_import_ns_per_tuple",
        layers::window_export_import_ns(&scn.engine, rate, layer_seed),
    );
    lay.push("runtime.dataflow_build_s", rf.dataflow_build_s);

    // exec: what a tuple pays before, between and around the join.
    let feed = &dataflow.sources[0].feeds[0];
    let stamp = tr.span("bench.micro.stamp_route", || {
        layers::stamp_route_ns(&scn.engine, &feed.partition_rates, layer_seed)
    });
    let chan = tr.span("bench.micro.channel", layers::channel_roundtrip);
    lay.push("exec.source.stamp_route_ns_per_tuple", stamp);
    lay.push("exec.channel.frame_roundtrip_ns", chan.frame_roundtrip_ns);
    lay.push("exec.channel.ns_per_tuple", chan.ns_per_tuple);
    lay.push("exec.pacer.serve_ns", layers::pacer_serve_ns());

    // exec: one flat-out run watched through the telemetry plane.
    let watched = tr.span("bench.watch_flat", || {
        watch(&rf.relay, dataflow, &flat_cfg, &tr)
    });
    lay.push(
        "exec.join.service_ms_p50",
        histogram_quantile_ms(&watched.last.service, 0.5),
    );
    lay.push(
        "exec.join.service_ms_p99",
        histogram_quantile_ms(&watched.last.service, 0.99),
    );
    lay.push("exec.join.queue_tuples_max", watched.join_queue_max as f64);
    lay.push("exec.sink.queue_tuples_max", watched.sink_queue_max as f64);
    let ins: Vec<f64> = watched
        .last
        .shards
        .iter()
        .map(|s| s.tuples_in as f64)
        .collect();
    let mean_in = ins.iter().sum::<f64>() / ins.len().max(1) as f64;
    lay.push(
        "exec.shard.tuples_in_skew",
        ins.iter().copied().fold(0.0, f64::max) / mean_in.max(1.0),
    );
    lay.push(
        "exec.join.matches_per_tuple",
        watched.last.matched as f64 / ins.iter().sum::<f64>().max(1.0),
    );
    lay.push("exec.threads", flat[0].result.threads as f64);
    lay.push("exec.metrics.snapshot_us", watched.snapshot_us);
    lay.push("exec.metrics.json_line_us", watched.json_line_us);

    // exec: telemetry on (the measured repetitions) against off.
    let loud = stats::median(
        &flat[sizes.flat_warmups..]
            .iter()
            .map(ExecRep::tuples_per_s)
            .collect::<Vec<_>>(),
    );
    lay.push(
        "exec.telemetry_overhead_pct",
        100.0 * (stats::median(&quiet) - loud) / stats::median(&quiet),
    );

    // exec: the control plane — two live switches per paced run.
    let mut nova = plan_once(&scn, &day, &tr).nova;
    let sw = switches(&scn, &mut nova, &rf.deployed, &mut ledger);
    let churn_replay = tr.span("runtime.simulate_reconfigured", || {
        simulate_reconfigured(
            &rf.run_topology,
            |a, b| day.rtt(a, b),
            dataflow,
            &[sw.first.clone(), sw.second.clone()],
            &sim_cfg(&scn, engine_seed, scn.paced.duration_ms),
        )
    });
    let mut churned = Vec::new();
    let mut churn_error = None;
    for _ in 0..sizes.paced_reps.min(2) {
        match churn_rep(&rf.run_topology, &day, dataflow, &paced_cfg, &sw, &tr) {
            Ok(r) => churned.push(r),
            Err(e) => churn_error = Some(e),
        }
    }
    ledger.check(
        "control: both switches applied in every repetition",
        churn_error.is_none() && !churned.is_empty(),
        churn_error.unwrap_or_default(),
    );
    let clean = churned
        .iter()
        .flat_map(|r| &r.epochs)
        .all(|e| e.clean_split);
    ledger.check(
        "control: every epoch split cleanly",
        clean && churned.iter().all(|r| r.epochs.len() == 2),
        format!("{} runs", churned.len()),
    );
    check_exec_reps(
        &mut ledger,
        "exec paced with switches",
        &churned.iter().collect::<Vec<_>>(),
        &churn_replay,
        false,
    );
    let epochs: Vec<_> = churned.iter().flat_map(|r| r.epochs.iter()).collect();
    let of = |f: fn(&nova_exec::EpochStats) -> f64| -> f64 {
        stats::percentile(&epochs.iter().map(|e| f(e)).collect::<Vec<_>>(), 0.5)
    };
    lay.push("exec.control.handoff_ms_p50", of(|e| e.handoff_wall_ms));
    lay.push("exec.control.pause_ms_p50", of(|e| e.pause_wall_ms));
    lay.push(
        "exec.control.migrated_tuples",
        of(|e| e.migrated_tuples as f64),
    );
    lay.push(
        "exec.control.post_switch_latency_p50_ms",
        stats::median(
            &churned
                .iter()
                .map(|r| latency_p50_after(r, sw.second.epoch_ms))
                .collect::<Vec<_>>(),
        ),
    );

    // pipeline: how far the two engines are apart on the same job.
    let paced_matched = paced[0].result.matched as f64;
    let replay_matched = rf.paced_replay.matched.max(1) as f64;
    lay.push(
        "pipeline.sim_exec_matched_gap_pct",
        100.0 * (paced_matched - replay_matched).abs() / replay_matched,
    );
    let replay_p50 = rf.paced_replay.latency_percentile(0.5);
    lay.push(
        "pipeline.sim_exec_latency_gap_pct",
        100.0 * (e2e.median("exec_latency_p50_ms") - replay_p50) / replay_p50,
    );

    // exec: parts against the whole. Per emitted tuple a source stamps
    // and routes once, hands the tuple over once per hosting replica
    // (σ-partitioning sends a partition to every replica that joins
    // it), and the join inserts and probes each copy.
    let copies = watched.last.shards.iter().map(|s| s.tuples_in).sum::<u64>() as f64
        / watched.last.emitted.max(1) as f64;
    let attributed = stamp + copies * (chan.ns_per_tuple + probe.probe_ns_per_tuple);
    let whole = e2e.median("exec_cpu_ns_per_tuple");
    lay.push("exec.flat_cpu_ns_per_tuple", whole);
    lay.push("exec.attributed_ns_per_tuple", attributed);
    lay.push("exec.unattributed_ns_per_tuple", whole - attributed);

    lay.push("bench.trace_overhead_pct", overhead.pct());
    lay.push("bench.trace_spans", tr.span_count() as f64);

    Ok(Report {
        workload: name.to_string(),
        opts,
        metrics: lay.into_metrics(&defs::PER_LAYER),
        ledger,
        trace: Some(tr.to_json(name)),
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Quantile of a log₂-bucket histogram, interpolated linearly inside
/// the bucket the rank falls into (the snapshot's own `quantile` answers
/// with the bucket's upper bound, a power of two).
fn histogram_quantile_ms(h: &nova_exec::HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = h.counts.iter().sum();
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        if c > 0 && below + c as f64 >= rank {
            let upper = nova_exec::HistogramSnapshot::bucket_upper_ms(i);
            let lower = if i == 0 { 0.0 } else { upper / 2.0 };
            return lower + (upper - lower) * (rank - below) / c as f64;
        }
        below += c as f64;
    }
    0.0
}

/// What the telemetry plane showed of one run.
struct Watched {
    last: MetricsSnapshot,
    join_queue_max: u64,
    sink_queue_max: u64,
    snapshot_us: f64,
    json_line_us: f64,
}

/// Launch one run and poll `ExecHandle::metrics` while it streams: the
/// deepest queues seen, the final snapshot, and what a snapshot and its
/// JSON line cost.
fn watch(
    topology: &nova_topology::Topology,
    dataflow: &nova_runtime::Dataflow,
    cfg: &ExecConfig,
    tr: &Tracer,
) -> Watched {
    let handle = tr.span("exec.launch", || {
        launch(topology, no_delay, dataflow, cfg).expect("valid exec config")
    });
    let feed = handle
        .subscribe(Duration::from_millis(5))
        .expect("non-zero interval");
    // Sub-microsecond calls: timed fifty at a time.
    const BATCH: usize = 50;
    let mut snapshot_us = Vec::new();
    let mut json_line_us = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(handle.metrics());
        }
        snapshot_us.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        let snap = handle.metrics();
        let t = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(snap.to_json_line());
        }
        json_line_us.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    let result = tr.span("exec.join", || handle.join());
    let mut join_queue_max = 0;
    let mut sink_queue_max = 0;
    let mut last = None;
    for snap in feed.iter() {
        join_queue_max = join_queue_max.max(snap.shards.iter().map(|s| s.queued_tuples).sum());
        sink_queue_max = sink_queue_max.max(snap.sink_queued_tuples);
        last = Some(snap);
    }
    let last = last.expect("the sampler sends a final snapshot");
    debug_assert_eq!(exec_counts(&result).0, last.emitted);
    Watched {
        last,
        join_queue_max,
        sink_queue_max,
        snapshot_us: stats::median(&snapshot_us),
        json_line_us: stats::median(&json_line_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worlds other than the one the binary measures. Set-up either
    /// accepts a world, and then every check passes on it, or refuses it
    /// loudly, naming the precondition it breaks — never a miscount.
    #[test]
    fn other_worlds_pass_every_check_or_are_refused_in_set_up() {
        for (name, instance) in [
            ("pipeline-envmon", 1),
            ("pipeline-envmon", 2),
            ("pipeline-envmon", 3),
            ("plan-opp-50k", 1),
        ] {
            let opts = RunOpts {
                seed: 1,
                seconds: scenario::NOMINAL_SECONDS,
                quick: true,
                traced: false,
                instance,
            };
            match std::panic::catch_unwind(|| run_workload(name, opts)) {
                Ok(report) => {
                    let ledger = report.expect("a known workload").ledger;
                    assert!(ledger.correct(), "{name} world {instance}: {ledger:?}");
                }
                Err(panic) => {
                    let said = panic
                        .downcast_ref::<String>()
                        .map_or("a panic without a message", String::as_str);
                    assert!(
                        said.starts_with("precondition:"),
                        "{name} world {instance}: {said}"
                    );
                }
            }
        }
    }
}
