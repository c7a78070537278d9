//! One benchmark run of one workload: set-up (timed several times, median reported), the
//! timed phase of fixed work, the output checks, and — with tracing on — the traced
//! rerun that yields the per-layer metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mctsui_core::InterfaceGenerator;
use mctsui_serve::EngineStatsReport;

use crate::oneshot::{self, Prepared, TracedCounts};
use crate::report::{Metric, RunReport};
use crate::serve::{self, InProcess, Server};
use crate::trace::Tracer;
use crate::util::{median, ms, process_cpu_seconds};
use crate::{Checks, Samples};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPETITIONS: usize = 9;
/// MCTS iterations of the untimed warm-up search inside set-up.
pub const WARMUP_ITERATIONS: u64 = 30;

/// Nominal seconds of one work unit on the reference host (2 vCPUs). A run of
/// `--seconds S` performs `max(1, round(S / nominal))` units: fixed work for given
/// arguments, so the iteration count and outputs repeat exactly.
pub(crate) fn unit_seconds(workload: &str) -> f64 {
    match workload {
        "oneshot" => 3.5,
        "serve-replicated" => 12.0,
        _ => 11.0,
    }
}

/// Work units for a run of `seconds`.
pub(crate) fn units(workload: &str, seconds: u64) -> usize {
    ((seconds as f64 / unit_seconds(workload)).round() as usize).max(1)
}

/// Run `workload` once.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunReport, String> {
    let mut report = RunReport::new(workload, seed, seconds, traced);
    match workload {
        "oneshot" => run_oneshot(&mut report, traced),
        "serve-replicated" | "serve-live" => run_serve(&mut report, traced)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    report.check_expected();
    Ok(report)
}

fn record_unit(report: &mut RunReport, checks: &mut Checks, unit: (u64, f64)) {
    if let Some(first) = report.units.first() {
        checks.expect(
            first.0 == unit.0 && first.1.to_bits() == unit.1.to_bits(),
            || format!("work unit repeated with other results: {unit:?} vs {first:?}"),
        );
    }
    report.units.push(unit);
}

fn oneshot_unit_summary(results: &[oneshot::GenerationResult]) -> (u64, f64) {
    let iterations = results.iter().map(|r| r.iterations as u64).sum();
    // Summed in sorted order, so the seeded generation order cannot change the bits.
    let mut costs: Vec<f64> = results.iter().map(|r| r.cost).collect();
    costs.sort_by(f64::total_cmp);
    (iterations, costs.iter().sum::<f64>() / costs.len() as f64)
}

fn oneshot_setup(report: &RunReport) -> (Vec<Prepared>, Vec<f64>) {
    let logs = oneshot::inputs(report.seed);
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPETITIONS {
        let start = Instant::now();
        prepared = oneshot::prepare(&logs);
        // The warm-up always searches SDSS, whatever the seeded log order.
        let sdss = prepared
            .iter()
            .find(|p| p.name == "sdss")
            .expect("sdss is an input");
        let mut warmup = sdss.config.clone();
        warmup.mcts.budget = mctsui_mcts::Budget::Iterations(WARMUP_ITERATIONS as usize);
        let interface = InterfaceGenerator::new(sdss.queries.clone(), warmup).generate();
        std::hint::black_box(mctsui_render::render_ascii(&interface.widget_tree));
        setups.push(start.elapsed().as_secs_f64());
    }
    (prepared, setups)
}

fn run_oneshot(report: &mut RunReport, traced: bool) {
    let (prepared, setups) = oneshot_setup(report);
    let config = oneshot::config(0);
    report.config(&[
        ("rollout_depth", config.mcts.rollout_depth.to_string()),
        ("k", config.assignments_per_eval.to_string()),
        ("iteration_budget", oneshot::ITERATIONS.to_string()),
        (
            "final_enumeration_cap",
            config.final_enumeration_cap.to_string(),
        ),
        (
            "logs",
            prepared
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("worker_threads", "1".to_string()),
        ("batch", "n/a".to_string()),
        ("shards", mctsui_difftree::DEFAULT_CACHE_SHARDS.to_string()),
    ]);
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let units = if traced { 1 } else { report.units_planned };
    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    for _ in 0..units {
        let results = oneshot::run_unit(&prepared, &mut checks, &mut samples);
        record_unit(report, &mut checks, oneshot_unit_summary(&results));
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu0;
    if !traced {
        report.end_to_end(&setups, wall, cpu, &samples, &checks);
        report.checks = checks;
        return;
    }

    // Traced rerun of the same unit.
    let mut tracer = Tracer::new();
    let mut traced_samples = Samples::default();
    let mut counts = TracedCounts::default();
    let root = tracer.begin("oneshot.run", 0);
    let mut traced_results = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let request = i as u64;
        let parsed = tracer.time("sqlast.parse", request, || oneshot::parse(&p.sql));
        std::hint::black_box(parsed);
        let g = oneshot::traced_generation(&mut tracer, request, p);
        counts.add(&g.counts);
        let replay = tracer.begin("core.session", request);
        oneshot::check_and_replay(
            &p.name,
            &p.queries,
            &g.tree,
            &g.widget_tree,
            g.valid,
            g.monotone,
            &mut checks,
            &mut traced_samples,
        );
        tracer.end(replay);
        traced_results.push(g.result);
    }
    tracer.end(root);
    let traced_wall_ms = tracer.duration_ns(root) as f64 / 1e6;
    let summary = oneshot_unit_summary(&traced_results);
    checks.expect(report.units.first() == Some(&summary), || {
        format!("traced unit differs from the untraced one: {summary:?}")
    });

    let (mut layers, unattributed) = layer_breakdown(&tracer, traced_wall_ms);
    set_step_counts(&mut layers, &tracer);
    set_compile_ratios(
        &mut layers,
        counts.reward_calls,
        counts.context_misses,
        counts.plan_misses,
    );
    let lookups = counts.index_hits + counts.index_misses;
    layers.insert(
        "difftree.action_index_hit_ratio",
        ratio(counts.index_hits, lookups),
    );
    layers.insert(
        "difftree.action_index_evictions",
        counts.index_evictions as f64,
    );
    layers.insert(
        "mcts.improving_rollout_share",
        ratio(counts.improvements, counts.iterations),
    );
    finish_layers(report, layers, unattributed, traced_wall_ms, wall * 1e3);
    report.trace_json = Some(tracer.to_json());
    report.checks = checks;
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The span or aggregate name whose self time a `_ms` per-layer metric reports.
fn span_of(metric: &str) -> Option<&str> {
    match metric {
        "mcts.self_ms" => Some("mcts.search"),
        other => other.strip_suffix("_ms"),
    }
}

/// Self times (ms) of every listed per-layer metric that a span or aggregate measures.
fn layer_map(selfs: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    for (name, _) in crate::PER_LAYER {
        if let Some(span) = span_of(name) {
            if let Some(ns) = selfs.get(span) {
                layers.insert(name, *ns as f64 / 1e6);
            }
        }
    }
    layers
}

fn set_step_counts(layers: &mut BTreeMap<&'static str, f64>, tracer: &Tracer) {
    layers.insert(
        "difftree.action_count_calls",
        tracer.calls("difftree.action_count") as f64,
    );
    layers.insert(
        "difftree.apply_calls",
        tracer.calls("difftree.apply") as f64,
    );
}

/// Compile-cache ratios against reward calls: each reward call is one plan lookup in the
/// untraced program, so `1 - misses / reward calls` is the share served from the cache.
fn set_compile_ratios(
    layers: &mut BTreeMap<&'static str, f64>,
    reward_calls: u64,
    context_misses: u64,
    plan_misses: u64,
) {
    layers.insert("cost.context_misses", context_misses as f64);
    layers.insert("cost.plan_misses", plan_misses as f64);
    let hit = |misses: u64| 1.0 - ratio(misses.min(reward_calls), reward_calls);
    layers.insert("cost.context_hit_ratio", hit(context_misses));
    layers.insert("cost.plan_hit_ratio", hit(plan_misses));
    layers.insert("cost.novel_state_ratio", ratio(plan_misses, reward_calls));
}

/// The timed per-layer metrics a tracer's spans give (self times in ms), and
/// `unattributed_ms`: the part of `wall_ms` no listed layer covers. By construction the
/// two sum to `wall_ms`.
pub fn layer_breakdown(tracer: &Tracer, wall_ms: f64) -> (BTreeMap<&'static str, f64>, f64) {
    let layers = layer_map(&tracer.self_ns());
    let attributed: f64 = layers.values().sum();
    (layers, wall_ms - attributed)
}

/// Report every listed per-layer metric (zero for layers this workload does not
/// exercise), plus the residual and the tracing overhead.
fn finish_layers(
    report: &mut RunReport,
    mut layers: BTreeMap<&'static str, f64>,
    unattributed: f64,
    traced_wall_ms: f64,
    untraced_wall_ms: f64,
) {
    layers.insert("unattributed_ms", unattributed);
    layers.insert("trace.overhead_ms", traced_wall_ms - untraced_wall_ms);
    report
        .extra
        .push(Metric::new("traced_wall_ms", traced_wall_ms, "ms"));
    report
        .extra
        .push(Metric::new("untraced_wall_ms", untraced_wall_ms, "ms"));
    for (name, unit) in crate::PER_LAYER {
        let value = layers.get(name).copied().unwrap_or(0.0);
        report.metrics.push(Metric::new(name, value, unit));
    }
}

fn serve_setup() -> Result<(Server, Vec<mctsui_serve::Client>, Vec<f64>), String> {
    let mut setups = Vec::new();
    for repetition in 0..SETUP_REPETITIONS {
        let start = Instant::now();
        let server = Server::start(serve::engine_config()).map_err(|e| e.to_string())?;
        let mut clients = (0..serve::CLIENTS)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let warm = serve::Script {
            index: 0,
            steps: vec![
                serve::Step::Synthesize {
                    queries: mctsui_workload::sdss_listing1_sql(),
                    seed: 1,
                    iterations: WARMUP_ITERATIONS,
                },
                serve::Step::Close,
            ],
        };
        let mut checks = Checks::default();
        serve::run_script(
            &mut clients[0],
            &warm,
            0,
            None,
            &mut checks,
            &mut Samples::default(),
        )
        .ok_or_else(|| format!("warm-up session failed: {:?}", checks.failures))?;
        setups.push(start.elapsed().as_secs_f64());
        if repetition + 1 == SETUP_REPETITIONS {
            return Ok((server, clients, setups));
        }
        drop(clients);
        server.stop()?;
    }
    unreachable!("SETUP_REPETITIONS >= 1")
}

fn serve_unit_summary(results: &[serve::SessionResult]) -> (u64, f64) {
    let iterations = results.iter().map(|r| r.iterations).sum();
    let cost = results.iter().map(|r| r.cost).sum::<f64>() / results.len().max(1) as f64;
    (iterations, cost)
}

fn stats_delta(
    before: &EngineStatsReport,
    after: &EngineStatsReport,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let batches = after.total_batches - before.total_batches;
    let units = after.total_batched_units - before.total_batched_units;
    let hits = after.batch_group_hits - before.batch_group_hits;
    m.insert("serve.mean_batch", ratio(units, batches));
    m.insert("serve.batch_group_hit_ratio", ratio(hits, units));
    m.insert(
        "serve.slices",
        (after.total_slices - before.total_slices) as f64,
    );
    m.insert(
        "serve.expired_windows",
        (after.expired_windows - before.expired_windows) as f64,
    );
    let index_hits = after.action_index.hits - before.action_index.hits;
    let index_misses = after.action_index.misses - before.action_index.misses;
    m.insert(
        "difftree.action_index_hit_ratio",
        ratio(index_hits, index_hits + index_misses),
    );
    m.insert(
        "difftree.action_index_evictions",
        (after.action_index.evictions - before.action_index.evictions) as f64,
    );
    m
}

fn run_serve(report: &mut RunReport, traced: bool) -> Result<(), String> {
    let workload = report.workload.clone();
    let seed = report.seed;
    let (server, mut clients, setups) = serve_setup()?;
    let config = server.engine.config().clone();
    report.config(&[
        ("rollout_depth", config.mcts.rollout_depth.to_string()),
        ("k", config.assignments_per_eval.to_string()),
        (
            "iteration_budget",
            if workload == "serve-replicated" {
                format!(
                    "{} per request, {} requests per session",
                    serve::REPLICATED_ITERATIONS,
                    serve::REPLICATED_REFINES + 1
                )
            } else {
                format!(
                    "{} per request, {} appends per session",
                    serve::LIVE_ITERATIONS,
                    serve::LIVE_APPENDS
                )
            },
        ),
        ("batch", config.batch.to_string()),
        ("shards", config.shards.to_string()),
        ("worker_threads", config.threads.to_string()),
        ("slice_iterations", config.slice_iterations.to_string()),
        ("clients", serve::CLIENTS.to_string()),
        ("deadline_millis", serve::DEADLINE_MILLIS.to_string()),
    ]);

    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let units = if traced { 1 } else { report.units_planned };
    let stats0 = server.engine.stats();
    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    for unit in 0..units {
        let results = serve::run_unit(
            &workload,
            seed,
            &mut clients,
            (unit * 1000) as u64,
            &mut checks,
            &mut samples,
        );
        record_unit(report, &mut checks, serve_unit_summary(&results));
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu0;
    let stats1 = server.engine.stats();
    let served = stats1.total_iterations - stats0.total_iterations;
    checks.expect(served == samples.iterations, || {
        format!(
            "server ran {served} iterations, sessions report {}",
            samples.iterations
        )
    });
    drop(clients);
    server.stop()?;
    if !traced {
        samples.iterations = served;
        report.end_to_end(&setups, wall, cpu, &samples, &checks);
        for (name, value) in stats_delta(&stats0, &stats1) {
            let unit = crate::PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("count", |(_, unit)| unit);
            report.extra.push(Metric::new(name, value, unit));
        }
        report.checks = checks;
        return Ok(());
    }

    // Traced rerun: the same unit through in-process dispatch. `serve-replicated` keeps
    // its two lockstep clients (coalescing is its mechanism); `serve-live` runs its
    // sessions on one client so each pre-Close Stats reading covers one log.
    let dir = serve::snapshot_dir();
    let traced_config = serve::engine_config()
        .with_snapshot_dir(&dir)
        .with_snapshot_interval_millis(3_600_000);
    let server = Server::start(traced_config).map_err(|e| e.to_string())?;
    let clients = if workload == "serve-replicated" {
        serve::CLIENTS
    } else {
        1
    };
    let mut transports: Vec<InProcess> = (0..clients)
        .map(|_| InProcess::new(Arc::clone(&server.engine)))
        .collect();
    let mut traced_samples = Samples::default();
    let stats0 = server.engine.stats();
    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    let results = serve::run_unit(
        &workload,
        seed,
        &mut transports,
        0,
        &mut checks,
        &mut traced_samples,
    );
    let traced_phase_ms = ms(start.elapsed());
    let cpu = process_cpu_seconds() - cpu0;
    let stats1 = server.engine.stats();
    let summary = serve_unit_summary(&results);
    checks.expect(report.units.first() == Some(&summary), || {
        format!("traced unit differs from the untraced one: {summary:?}")
    });

    let mut wall_tracer = Tracer::new();
    let mut close_misses = 0;
    let mut snapshot_bytes = Vec::new();
    let mut requests = 0u64;
    for transport in transports {
        let (tracer, misses, bytes) = transport.finish();
        requests += [
            "serve.synthesize",
            "serve.refine",
            "serve.interact",
            "serve.append",
            "serve.retract",
            "serve.close",
        ]
        .iter()
        .map(|name| tracer.calls(name))
        .sum::<u64>();
        wall_tracer.absorb(tracer);
        close_misses += misses;
        snapshot_bytes.extend(bytes);
    }
    let client_wall_ms = wall_tracer.self_ns().values().sum::<u64>() as f64 / 1e6;
    let wire_per_request = wire_probe(&server)?;
    server.stop()?;
    let _ = std::fs::remove_dir_all(&dir);

    let mut replay_tracer = Tracer::new();
    let counts = serve::replay(&workload, seed, &mut replay_tracer);
    // `serve-replicated` replays one of its identical sessions.
    let replicas = if workload == "serve-replicated" {
        serve::CLIENTS as u64
    } else {
        1
    };
    checks.expect(counts.iterations * replicas == summary.0, || {
        format!("raw-handle replay ran {} iterations", counts.iterations)
    });

    let (mut layers, unattributed) = layer_breakdown(&wall_tracer, client_wall_ms);
    for (name, value) in layer_map(&replay_tracer.self_ns()) {
        layers.insert(name, value);
    }
    set_step_counts(&mut layers, &replay_tracer);
    set_compile_ratios(
        &mut layers,
        counts.reward_calls,
        counts.context_misses,
        counts.plan_misses,
    );
    layers.insert("mcts.rebased_nodes", counts.rebased_nodes as f64);
    layers.insert(
        "mcts.improving_rollout_share",
        ratio(counts.improvements, counts.iterations),
    );
    layers.extend(stats_delta(&stats0, &stats1));
    layers.insert(
        "serve.busy_share",
        cpu * 1e3 / (traced_phase_ms * config.threads as f64),
    );
    layers.insert("serve.wire_ms", wire_per_request * requests as f64);
    if !snapshot_bytes.is_empty() {
        layers.insert(
            "serve.snapshot_bytes",
            snapshot_bytes.iter().sum::<u64>() as f64 / snapshot_bytes.len() as f64,
        );
    }
    report.extra.push(Metric::new(
        "stats_context_misses_before_close",
        close_misses as f64,
        "count",
    ));
    report
        .extra
        .push(Metric::new("traced_phase_ms", traced_phase_ms, "ms"));
    report.extra.push(Metric::new(
        "replay_wall_ms",
        replay_tracer.self_ns().values().sum::<u64>() as f64 / 1e6,
        "ms",
    ));
    report
        .extra
        .push(Metric::new("client_wall_ms", client_wall_ms, "ms"));
    finish_layers(report, layers, unattributed, traced_phase_ms, wall * 1e3);
    let mut spans = wall_tracer;
    spans.absorb(replay_tracer);
    report.trace_json = Some(spans.to_json());
    report.checks = checks;
    Ok(())
}

/// Wire cost of one request: the median `Interact` round trip over a loopback
/// connection minus the median in-process `dispatch` of the same request.
fn wire_probe(server: &Server) -> Result<f64, String> {
    use mctsui_serve::{dispatch, proto::encode_line, Request, Response, WidgetAction};
    let query = mctsui_workload::sdss_listing1_sql()[0].clone();
    let mut client = server.connect()?;
    let session = match client
        .call(&Request::Synthesize {
            queries: vec![query.clone()],
            iterations: 1,
            deadline_millis: serve::DEADLINE_MILLIS,
            seed: 1,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Synthesized { session, .. } => session,
        other => return Err(format!("wire probe: {other:?}")),
    };
    let request = Request::Interact {
        session,
        action: WidgetAction::Jump { query },
    };
    let line = encode_line(&request);
    let mut tcp = Vec::new();
    let mut local = Vec::new();
    for _ in 0..50 {
        let start = Instant::now();
        client.call(&request).map_err(|e| e.to_string())?;
        tcp.push(ms(start.elapsed()));
        let start = Instant::now();
        std::hint::black_box(dispatch(&server.engine, &line));
        local.push(ms(start.elapsed()));
    }
    client
        .call(&Request::Close { session })
        .map_err(|e| e.to_string())?;
    Ok((median(&tcp) - median(&local)).max(0.0))
}
