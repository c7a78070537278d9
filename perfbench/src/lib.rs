//! The mctsui benchmark: three workloads (`oneshot`, `serve-replicated`, `serve-live`)
//! driven through the workspace crates' public APIs, with end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run. See `README.md`.

pub mod oneshot;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;
pub mod util;

use mctsui_workload::CorpusSpec;

/// Queries in each corpus log of `oneshot` and in each `serve-live` session's initial log
/// (fixed, so the input size does not vary with the seed).
pub const CORPUS_LOG_LEN: usize = 8;

/// Times each session's log is replayed through its final interface (more interaction
/// samples per run, for a steadier median).
pub const REPLAY_ROUNDS: usize = 4;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["oneshot", "serve-replicated", "serve-live"];

/// End-to-end metrics printed by every untraced run, with their units. `BENCHMARK.json`
/// lists the same names.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("cpu_ms_per_iter", "ms"),
    ("search_ms_p50", "ms"),
    ("interface_cost", "cost"),
    ("success_rate", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by every traced run, with their units. A layer that does no
/// work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sqlast.parse_ms", "ms"),
    ("difftree.derive_ms", "ms"),
    ("core.live_append_ms", "ms"),
    ("difftree.action_count_ms", "ms"),
    ("difftree.action_count_calls", "count"),
    ("difftree.nth_action_ms", "ms"),
    ("difftree.action_index_hit_ratio", "share"),
    ("difftree.action_index_evictions", "count"),
    ("difftree.apply_ms", "ms"),
    ("difftree.apply_calls", "count"),
    ("cost.context_ms", "ms"),
    ("cost.context_misses", "count"),
    ("cost.plan_ms", "ms"),
    ("cost.plan_misses", "count"),
    ("cost.context_hit_ratio", "share"),
    ("cost.plan_hit_ratio", "share"),
    ("cost.novel_state_ratio", "share"),
    ("cost.eval_ms", "ms"),
    ("mcts.self_ms", "ms"),
    ("mcts.improving_rollout_share", "share"),
    ("mcts.rebase_ms", "ms"),
    ("mcts.rebased_nodes", "count"),
    ("core.finalize_ms", "ms"),
    ("core.teardown_ms", "ms"),
    ("serve.synthesize_ms", "ms"),
    ("serve.refine_ms", "ms"),
    ("serve.interact_ms", "ms"),
    ("serve.append_ms", "ms"),
    ("serve.retract_ms", "ms"),
    ("serve.close_ms", "ms"),
    ("serve.busy_share", "share"),
    ("serve.mean_batch", "count"),
    ("serve.batch_group_hit_ratio", "share"),
    ("serve.slices", "count"),
    ("serve.expired_windows", "count"),
    ("serve.codec_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.snapshot_save_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.snapshot_load_ms", "ms"),
    ("render.ascii_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// One input query log.
#[derive(Debug, Clone)]
pub struct LogInput {
    /// Log name (`sdss` or a corpus scenario name).
    pub name: String,
    /// The SQL text of each query.
    pub sql: Vec<String>,
    /// MCTS seed of the search over this log.
    pub seed: u64,
}

/// The first `len` queries of a corpus spec's drifting session stream (its base log
/// continued by further drift queries), so every log has the same length.
pub fn corpus_stream(spec: CorpusSpec, len: usize) -> Vec<String> {
    let (log, appends) = spec.generate_with_appends(len);
    let mut sql = log.sql;
    sql.extend(appends);
    sql.truncate(len);
    sql
}

/// Operation counts and output-check failures of a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (generations, requests, interactions).
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// Record a failure.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Failed operations (at most one per attempted operation is assumed).
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// Share of attempted operations that succeeded and passed their checks.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed()) as f64 / self.attempted as f64
        }
    }
}

/// Latency samples (ms) and iteration count of a timed phase.
#[derive(Debug, Default)]
pub struct Samples {
    /// Search-bearing calls.
    pub search: Vec<f64>,
    /// Interactions.
    pub interact: Vec<f64>,
    /// Appends.
    pub append: Vec<f64>,
    /// Retracts.
    pub retract: Vec<f64>,
    /// MCTS iterations completed.
    pub iterations: u64,
}

/// The values every work unit of `workload` must reproduce, recorded with the benchmark
/// in `expected.tsv` (`perfbench record`): MCTS iterations and mean final interface
/// cost. The work is the same for every seed, so one line per workload covers all seeds.
pub fn expected(workload: &str) -> Option<(u64, f64)> {
    include_str!("../expected.tsv").lines().find_map(|line| {
        let mut fields = line.split('\t');
        if fields.next()? != workload {
            return None;
        }
        Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
    })
}

/// MCTS iterations one work unit of `workload` runs, as its configuration implies (every
/// search runs on an iteration budget and no deadline binds).
pub fn expected_unit_iterations(workload: &str) -> u64 {
    match workload {
        "oneshot" => (oneshot::ITERATIONS * (1 + mctsui_workload::SchemaFamily::ALL.len())) as u64,
        "serve-replicated" => {
            serve::CLIENTS as u64
                * serve::REPLICATED_ITERATIONS
                * (1 + serve::REPLICATED_REFINES as u64)
        }
        _ => {
            let retracts = (serve::LIVE_APPENDS / 3) as u64;
            serve::LIVE_SESSIONS as u64
                * serve::LIVE_ITERATIONS
                * (1 + serve::LIVE_APPENDS as u64 + retracts)
        }
    }
}
