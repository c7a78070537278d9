//! The `oneshot` workload: the CLI's path. Sequential `InterfaceGenerator::generate` at the
//! paper's defaults with the wall-clock budget replaced by a fixed iteration budget, then
//! the ASCII render, then a replay of the log through the generated interface.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mctsui_core::{
    GeneratedInterface, GeneratorConfig, InterfaceGenerator, InterfaceSession, TriagedLog,
};
use mctsui_difftree::{DiffKind, DiffTree};
use mctsui_mcts::{Budget, Mcts, SearchProblem};
use mctsui_sql::{print_query, Ast};
use mctsui_widgets::{build_widget_tree, enumerate_assignments, Screen, WidgetTree};
use mctsui_workload::{sdss_listing1_sql, CorpusSpec, SchemaFamily};

use crate::trace::{TracedProblem, Tracer};
use crate::util::derive_seed;
use crate::{Checks, LogInput, Samples, CORPUS_LOG_LEN};

/// MCTS iterations per generation (replaces the paper's 60 s clock).
pub const ITERATIONS: usize = 100;

/// The generator configuration: `paper_defaults` (rollout depth 200, k = 5, final
/// enumeration cap 256) on the wide screen with a fixed iteration budget.
pub fn config(mcts_seed: u64) -> GeneratorConfig {
    GeneratorConfig::paper_defaults(Screen::wide())
        .with_budget(Budget::Iterations(ITERATIONS))
        .with_seed(mcts_seed)
}

/// MCTS seed of every search (the seed of the ROADMAP's Listing 1 probes).
pub const MCTS_SEED: u64 = 7;

/// The workload's logs: SDSS Listing 1 and one fixed-length corpus log per family. The
/// set is fixed, so every run does the same work and its outputs can be checked exactly;
/// the workload seed only rotates the order in which the logs are generated.
pub(crate) fn inputs(seed: u64) -> Vec<LogInput> {
    let mut logs = vec![LogInput {
        name: "sdss".to_string(),
        sql: sdss_listing1_sql(),
        seed: MCTS_SEED,
    }];
    for family in SchemaFamily::ALL {
        let spec = CorpusSpec::new(family, 1);
        logs.push(LogInput {
            name: spec.scenario_name(),
            sql: crate::corpus_stream(spec, CORPUS_LOG_LEN),
            seed: MCTS_SEED,
        });
    }
    let len = logs.len();
    logs.rotate_left((derive_seed(seed, 0) % len as u64) as usize);
    logs
}

/// Parse a log the way the CLI does (lenient triage; the healthy entries are searched).
pub fn parse(sql: &[String]) -> Vec<Ast> {
    TriagedLog::from_sources(sql).healthy()
}

/// The outputs of one generation that the benchmark checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationResult {
    /// Final `InterfaceCost.total`.
    pub cost: f64,
    /// MCTS iterations run.
    pub iterations: usize,
}

/// One generation as the CLI runs it: `generate()` then the ASCII render. Returns the
/// interface and the call's wall time.
pub(crate) fn generate_and_render(
    generator: &InterfaceGenerator,
) -> (GeneratedInterface, Duration) {
    let start = Instant::now();
    let interface = generator.generate();
    let rendered = mctsui_render::render_ascii(&interface.widget_tree);
    std::hint::black_box(rendered);
    (interface, start.elapsed())
}

/// Check a generated interface and replay its log through it, timing each interaction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_and_replay(
    label: &str,
    queries: &[Ast],
    difftree: &DiffTree,
    widget_tree: &WidgetTree,
    cost_valid: bool,
    search_trace_monotone: bool,
    checks: &mut Checks,
    samples: &mut Samples,
) {
    checks.expect(cost_valid, || format!("{label}: invalid interface cost"));
    checks.expect(widget_tree.fits_screen(), || {
        format!("{label}: interface overflows the screen")
    });
    checks.expect(search_trace_monotone, || {
        format!("{label}: best reward decreased during the search")
    });
    let mut session = match InterfaceSession::start(difftree.clone(), &queries[0]) {
        Ok(session) => session,
        Err(e) => {
            checks.fail(format!("{label}: cannot start a session: {e}"));
            return;
        }
    };
    for _ in 0..crate::REPLAY_ROUNDS {
        for query in queries {
            let start = Instant::now();
            let jumped = session.jump_to(query);
            samples.interact.push(crate::util::ms(start.elapsed()));
            checks.attempted += 1;
            match jumped {
                Ok(()) => checks.expect(session.current_sql() == print_query(query), || {
                    format!(
                        "{label}: replay of `{}` derived other SQL",
                        print_query(query)
                    )
                }),
                Err(e) => checks.fail(format!("{label}: replay failed: {e}")),
            }
        }
        for (_, widget) in widget_tree.widgets() {
            let path = &widget.target;
            let start = Instant::now();
            let result = match widget.domain.choice_kind {
                DiffKind::Opt => session.set_included(path, false),
                DiffKind::Multi => session.set_repetitions(path, 1),
                _ => session.select_option(path, widget.domain.cardinality.saturating_sub(1)),
            };
            samples.interact.push(crate::util::ms(start.elapsed()));
            checks.attempted += 1;
            if let Err(e) = result {
                checks.fail(format!("{label}: widget interaction failed: {e}"));
            }
        }
    }
}

/// A parsed input log with its generator.
pub struct Prepared {
    /// Log name.
    pub name: String,
    /// The log's SQL text.
    pub sql: Vec<String>,
    /// Healthy parsed queries.
    pub queries: Vec<Ast>,
    /// The generator's configuration.
    pub config: GeneratorConfig,
    /// Generator at that configuration.
    pub generator: InterfaceGenerator,
}

/// Set-up: parse every log and build its generator.
pub(crate) fn prepare(logs: &[LogInput]) -> Vec<Prepared> {
    logs.iter()
        .map(|log| {
            let queries = parse(&log.sql);
            Prepared {
                name: log.name.clone(),
                sql: log.sql.clone(),
                config: config(log.seed),
                generator: InterfaceGenerator::new(queries.clone(), config(log.seed)),
                queries,
            }
        })
        .collect()
}

/// One untraced work unit: every log generated, rendered, checked and replayed once.
pub(crate) fn run_unit(
    prepared: &[Prepared],
    checks: &mut Checks,
    samples: &mut Samples,
) -> Vec<GenerationResult> {
    prepared
        .iter()
        .map(|p| {
            let (interface, wall) = generate_and_render(&p.generator);
            samples.search.push(crate::util::ms(wall));
            checks.attempted += 1;
            let search = interface.stats.search.as_ref();
            let iterations = search.map_or(0, |s| s.iterations);
            samples.iterations += iterations as u64;
            let monotone = search.is_some_and(|s| {
                s.trace
                    .windows(2)
                    .all(|w| w[1].best_reward >= w[0].best_reward)
            });
            check_and_replay(
                &p.name,
                &p.queries,
                &interface.difftree,
                &interface.widget_tree,
                interface.cost.valid,
                monotone,
                checks,
                samples,
            );
            GenerationResult {
                cost: interface.cost.total,
                iterations,
            }
        })
        .collect()
}

/// Per-layer counters of one traced generation that the tracer's spans do not hold.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedCounts {
    /// Reward calls (one plan lookup each in the untraced program).
    pub reward_calls: u64,
    /// Context-cache misses.
    pub context_misses: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Action-index lookups served from the cache.
    pub index_hits: u64,
    /// Action-index lookups that missed.
    pub index_misses: u64,
    /// Action-index entries evicted.
    pub index_evictions: u64,
    /// Rewards that improved the best record.
    pub improvements: u64,
    /// MCTS iterations.
    pub iterations: u64,
}

impl TracedCounts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &TracedCounts) {
        self.reward_calls += o.reward_calls;
        self.context_misses += o.context_misses;
        self.plan_misses += o.plan_misses;
        self.index_hits += o.index_hits;
        self.index_misses += o.index_misses;
        self.index_evictions += o.index_evictions;
        self.improvements += o.improvements;
        self.iterations += o.iterations;
    }
}

/// What one traced generation produced.
pub struct TracedGeneration {
    /// Cost and iterations, as for an untraced generation.
    pub result: GenerationResult,
    /// Counters the spans do not hold.
    pub counts: TracedCounts,
    /// The chosen difftree.
    pub tree: DiffTree,
    /// The laid-out interface.
    pub widget_tree: WidgetTree,
    /// Whether the final cost is valid.
    pub valid: bool,
    /// Whether the search's best reward never decreased.
    pub monotone: bool,
}

/// One generation with every layer call timed: `generate()`'s steps issued one by one
/// through the public API, with the search driven by `Mcts::run` over a
/// [`TracedProblem`]. Produces the same interface as `generate()` (pinned by the
/// benchmark's fidelity test).
pub fn traced_generation(tracer: &mut Tracer, request: u64, p: &Prepared) -> TracedGeneration {
    let cfg = &p.config;
    let generation = tracer.begin("core.generate", request);
    let problem = Arc::new(tracer.time("difftree.derive", request, || p.generator.problem()));
    let search = tracer.begin("mcts.search", request);
    let wrapped = TracedProblem::new(Arc::clone(&problem));
    let outcome = Mcts::new(&wrapped, cfg.mcts.clone()).run();
    let mut reward_calls = 0;
    for (name, calls, ns) in wrapped.drain() {
        if name == "cost.eval" {
            reward_calls = calls;
        }
        tracer.aggregate(search, name, calls, ns);
    }
    tracer.end(search);
    let improvements = wrapped.improvements();
    drop(wrapped);

    // The final extraction `generate()` runs after the search: the best of k sampled
    // assignments, then every enumerated widget-type combination (cap 256).
    let tree = outcome.best_state.clone();
    let (assignment, cost) = tracer.time("core.finalize", request, || {
        let seed = cfg.mcts.seed;
        let (mut best_assignment, mut best_cost) = problem.best_sampled_assignment(&tree, seed);
        for candidate in enumerate_assignments(&tree, cfg.final_enumeration_cap) {
            let cost = problem.cost_of_assignment(&tree, &candidate);
            if cost.better_than(&best_cost) {
                best_cost = cost;
                best_assignment = candidate;
            }
        }
        // `generate()` also records the initial state's fanout in its statistics.
        std::hint::black_box(problem.engine().applicable(&problem.initial_state()).len());
        (best_assignment, best_cost)
    });
    let widget_tree = tracer.time("widgets.build", request, || {
        build_widget_tree(&tree, &assignment, cfg.screen)
    });
    tracer.time("render.ascii", request, || {
        std::hint::black_box(mctsui_render::render_ascii(&widget_tree));
    });

    let stats = problem.cache_stats();
    let index = problem.engine().action_index().counters();
    let counts = TracedCounts {
        reward_calls,
        context_misses: stats.contexts.misses,
        plan_misses: stats.plans.misses,
        index_hits: index.hits,
        index_misses: index.misses,
        index_evictions: index.evictions,
        improvements,
        iterations: outcome.stats.iterations as u64,
    };
    let monotone = outcome
        .stats
        .trace
        .windows(2)
        .all(|w| w[1].best_reward >= w[0].best_reward);
    let iterations = outcome.stats.iterations;
    // What `generate()` spends after its own clock stops: dropping the problem and its
    // per-state caches (and the search outcome).
    tracer.time("core.teardown", request, move || {
        drop(outcome);
        drop(problem);
    });
    tracer.end(generation);
    TracedGeneration {
        result: GenerationResult {
            cost: cost.total,
            iterations,
        },
        counts,
        tree,
        widget_tree,
        valid: cost.valid,
        monotone,
    }
}
