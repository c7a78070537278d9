//! The traced run must measure the same program as the untraced one, and its per-layer
//! times must account for its wall time exactly.

use std::sync::Arc;

use mctsui_core::InterfaceGenerator;
use mctsui_mcts::{Budget, Mcts};
use perfbench::oneshot::{self, Prepared};
use perfbench::run::layer_breakdown;
use perfbench::trace::{TracedProblem, Tracer};

/// A small oneshot input: SDSS Listing 1 at the workload's configuration, with fewer
/// iterations so the test stays quick in debug builds.
fn small() -> Prepared {
    let sql = mctsui_workload::sdss_listing1_sql();
    let queries = oneshot::parse(&sql);
    let mut config = oneshot::config(oneshot::MCTS_SEED);
    config.mcts.budget = Budget::Iterations(12);
    config.mcts.rollout_depth = 40;
    Prepared {
        name: "sdss".to_string(),
        sql,
        generator: InterfaceGenerator::new(queries.clone(), config.clone()),
        config,
        queries,
    }
}

#[test]
fn wrapped_search_matches_the_unwrapped_one() {
    let p = small();
    let config = p.config.clone();

    let plain = p.generator.problem();
    let expected = Mcts::new(&plain, config.mcts.clone()).run();
    let plain_stats = plain.cache_stats();

    let traced = Arc::new(p.generator.problem());
    let wrapper = TracedProblem::new(Arc::clone(&traced));
    let outcome = Mcts::new(&wrapper, config.mcts.clone()).run();
    let traced_stats = traced.cache_stats();

    assert_eq!(
        outcome.best_reward.to_bits(),
        expected.best_reward.to_bits()
    );
    assert_eq!(outcome.stats.iterations, expected.stats.iterations);
    assert_eq!(
        outcome.best_state.fingerprint(),
        expected.best_state.fingerprint()
    );
    assert_eq!(traced_stats.contexts.misses, plain_stats.contexts.misses);
    assert_eq!(traced_stats.plans.misses, plain_stats.plans.misses);
    let calls: u64 = wrapper.drain().iter().map(|(_, calls, _)| calls).sum();
    assert!(calls > 0, "the wrapper timed no calls");
}

#[test]
fn traced_generation_reproduces_generate() {
    let p = small();
    let interface = p.generator.generate();
    let mut tracer = Tracer::new();
    let root = tracer.begin("oneshot.run", 0);
    let traced = oneshot::traced_generation(&mut tracer, 0, &p);
    tracer.end(root);
    assert_eq!(traced.result.cost.to_bits(), interface.cost.total.to_bits());
    assert_eq!(
        Some(traced.result.iterations),
        interface.stats.search.as_ref().map(|s| s.iterations)
    );
    assert_eq!(traced.tree.fingerprint(), interface.difftree.fingerprint());
}

#[test]
fn layer_self_times_and_unattributed_sum_to_the_traced_wall() {
    let p = small();
    let mut tracer = Tracer::new();
    let root = tracer.begin("oneshot.run", 0);
    for request in 0..2 {
        oneshot::traced_generation(&mut tracer, request, &p);
    }
    tracer.end(root);

    // Every nanosecond of the root span is somebody's self time.
    let all_self: u64 = tracer.self_ns().values().sum();
    assert_eq!(all_self, tracer.duration_ns(root));

    // The reported layers plus the residual are the traced wall.
    let wall_ms = tracer.duration_ns(root) as f64 / 1e6;
    let (layers, unattributed) = layer_breakdown(&tracer, wall_ms);
    let timed: f64 = layers
        .iter()
        .filter(|(name, _)| name.ends_with("_ms"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        (timed + unattributed - wall_ms).abs() < 1e-6,
        "{timed} + {unattributed} != {wall_ms}"
    );
    assert!(unattributed >= 0.0);
    assert!(layers["cost.context_ms"] > 0.0);
    assert!(layers["mcts.self_ms"] > 0.0);
}
