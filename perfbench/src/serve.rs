//! The serve workloads: an in-process `ServeEngine` behind `serve_on` on loopback, driven
//! by closed-loop `Client` connections (untraced), or by the same traffic sent through
//! in-process `dispatch` (traced).

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mctsui_core::{ChoiceDescription, InterfaceDescription, InterfaceSearchProblem, LiveLog};
use mctsui_difftree::{simplified_difftree, DiffKind, RuleEngine};
use mctsui_mcts::{Budget, SearchHandle, SliceBudget};
use mctsui_serve::proto::{decode_line, encode_line};
use mctsui_serve::{
    dispatch, serve_on, Client, Request, Response, ServeConfig, ServeEngine, SnapshotStore,
    WidgetAction,
};
use mctsui_sql::{parse_query, print_query};
use mctsui_workload::{sdss_listing1_sql, CorpusSpec, SchemaFamily};

use crate::trace::{TracedProblem, Tracer};
use crate::util::{derive_seed, ms};
use crate::{Checks, Samples, CORPUS_LOG_LEN};

/// Client connections (one per vCPU of the reference host).
pub const CLIENTS: usize = 2;
/// Iterations asked of every `Synthesize`/`Refine` in `serve-replicated`.
pub const REPLICATED_ITERATIONS: u64 = 100;
/// `Refine`s per `serve-replicated` session after its `Synthesize` (500 iterations in
/// all: past iteration 400, so the 301–400 request is inside every session).
pub const REPLICATED_REFINES: usize = 4;
/// Iterations asked of every `Synthesize`/`Refine` in `serve-live`.
pub const LIVE_ITERATIONS: u64 = 40;
/// Appends per `serve-live` session; every third is followed by a `Retract`.
pub const LIVE_APPENDS: usize = 3;
/// Distinct sessions in one `serve-live` work unit.
pub const LIVE_SESSIONS: usize = 6;
/// Request deadline: the server's maximum, which no request comes near (every response
/// is checked to have run exactly the requested iterations).
pub const DEADLINE_MILLIS: u64 = 30_000;

/// The engine configuration: the server defaults.
pub fn engine_config() -> ServeConfig {
    ServeConfig::default()
}

/// One step of a session script.
#[derive(Debug, Clone)]
pub enum Step {
    /// Open the session over a log.
    Synthesize {
        /// The log.
        queries: Vec<String>,
        /// MCTS seed.
        seed: u64,
        /// Iterations asked.
        iterations: u64,
    },
    /// Continue the search.
    Refine(u64),
    /// Append a query to the log.
    Append(String),
    /// Retract the log entry at this index.
    Retract(usize),
    /// Replay the current log through the current interface: one `Jump` per query, one
    /// widget interaction per choice.
    Replay,
    /// Close the session.
    Close,
}

/// A session's scripted traffic.
#[derive(Debug, Clone)]
pub struct Script {
    /// Index of the script within its work unit.
    pub index: usize,
    /// The steps, in order.
    pub steps: Vec<Step>,
}

/// Session seed of `serve-replicated`: the seed whose request covering iterations
/// 301–400 runs about ten times longer than its neighbours.
pub const REPLICATED_SEED: u64 = 1;
/// Session seed of every `serve-live` session.
pub const LIVE_SEED: u64 = 7;

/// `serve-replicated`: one script per client, all over SDSS Listing 1 with the same seed.
pub(crate) fn replicated_scripts() -> Vec<Script> {
    (0..CLIENTS)
        .map(|index| {
            let mut steps = vec![Step::Synthesize {
                queries: sdss_listing1_sql(),
                seed: REPLICATED_SEED,
                iterations: REPLICATED_ITERATIONS,
            }];
            steps.extend((0..REPLICATED_REFINES).map(|_| Step::Refine(REPLICATED_ITERATIONS)));
            steps.push(Step::Replay);
            steps.push(Step::Close);
            Script { index, steps }
        })
        .collect()
}

/// `serve-live`: distinct sessions over fixed corpus logs of every family, each appending
/// the next queries of its drift stream. The workload seed shuffles the queue order.
pub(crate) fn live_scripts(seed: u64) -> Vec<Script> {
    let mut scripts: Vec<Script> = (0..LIVE_SESSIONS)
        .map(|index| {
            let family = SchemaFamily::ALL[index % SchemaFamily::ALL.len()];
            let corpus_seed = 1 + (index / SchemaFamily::ALL.len()) as u64;
            let spec = CorpusSpec::new(family, corpus_seed);
            let stream = crate::corpus_stream(spec, CORPUS_LOG_LEN + LIVE_APPENDS);
            let mut steps = vec![Step::Synthesize {
                queries: stream[..CORPUS_LOG_LEN].to_vec(),
                seed: LIVE_SEED,
                iterations: LIVE_ITERATIONS,
            }];
            for (i, query) in stream[CORPUS_LOG_LEN..].iter().enumerate() {
                steps.push(Step::Append(query.clone()));
                steps.push(Step::Refine(LIVE_ITERATIONS));
                if i % 3 == 2 {
                    steps.push(Step::Retract(1));
                    steps.push(Step::Refine(LIVE_ITERATIONS));
                }
            }
            steps.push(Step::Replay);
            steps.push(Step::Close);
            Script { index, steps }
        })
        .collect();
    // Seeded Fisher–Yates over the queue order.
    for i in (1..scripts.len()).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        scripts.swap(i, j);
    }
    scripts
}

/// The scripts of one work unit of `workload`.
pub(crate) fn scripts(workload: &str, seed: u64) -> Vec<Script> {
    match workload {
        "serve-replicated" => replicated_scripts(),
        _ => live_scripts(seed),
    }
}

/// A request path to the engine.
pub trait Transport {
    /// Send one request and return its response.
    fn call(&mut self, request: &Request, request_id: u64) -> Result<Response, String>;
}

impl Transport for Client {
    fn call(&mut self, request: &Request, _request_id: u64) -> Result<Response, String> {
        Client::call(self, request).map_err(|e| e.to_string())
    }
}

/// The traced path: in-process `dispatch`, with the request/response serde round trips
/// of the wire timed separately as `serve.codec`.
pub struct InProcess {
    engine: Arc<ServeEngine>,
    /// This client's spans.
    pub tracer: Tracer,
    /// Context-cache misses read from `Stats` before each `Close`, summed.
    pub close_context_misses: u64,
    /// Size of each session's snapshot file.
    pub snapshot_bytes: Vec<u64>,
}

impl InProcess {
    /// A traced client of `engine`; its root span `serve.client` stays open until
    /// [`InProcess::finish`].
    pub fn new(engine: Arc<ServeEngine>) -> Self {
        let mut tracer = Tracer::new();
        tracer.begin("serve.client", 0);
        Self {
            engine,
            tracer,
            close_context_misses: 0,
            snapshot_bytes: Vec::new(),
        }
    }

    /// Close the root span and return the tracer.
    pub fn finish(mut self) -> (Tracer, u64, Vec<u64>) {
        self.tracer.end(0);
        (self.tracer, self.close_context_misses, self.snapshot_bytes)
    }
}

fn layer_of(request: &Request) -> &'static str {
    match request {
        Request::Synthesize { .. } => "serve.synthesize",
        Request::Refine { .. } => "serve.refine",
        Request::Interact { .. } => "serve.interact",
        Request::Append { .. } => "serve.append",
        Request::Retract { .. } => "serve.retract",
        Request::Close { .. } => "serve.close",
        _ => "serve.other",
    }
}

impl Transport for InProcess {
    fn call(&mut self, request: &Request, request_id: u64) -> Result<Response, String> {
        if let Request::Close { session } = request {
            // Per-log cache counters vanish once a log's last session closes: read first.
            let stats = self
                .tracer
                .time("serve.stats", request_id, || self.engine.stats());
            self.close_context_misses += stats.context_cache.contexts.misses;
            let engine = &self.engine;
            let saved = self.tracer.time("serve.snapshot_save", request_id, || {
                engine.persist_session(*session)
            });
            if saved {
                let dir = snapshot_dir();
                let store = SnapshotStore::open(&dir)?;
                let loaded = self
                    .tracer
                    .time("serve.snapshot_load", request_id, || store.load(*session))?;
                if loaded.is_none() {
                    return Err(format!("snapshot of session {session} did not load"));
                }
                let bytes = std::fs::metadata(dir.join(format!("session-{session}.json")))
                    .map_err(|e| e.to_string())?
                    .len();
                self.snapshot_bytes.push(bytes);
            }
        }
        let codec = Instant::now();
        let line = encode_line(request);
        let decoded: Request = decode_line(&line)?;
        let mut codec_ns = codec.elapsed().as_nanos() as u64;
        std::hint::black_box(decoded);

        let span = self.tracer.begin(layer_of(request), request_id);
        let response = dispatch(&self.engine, &line);
        self.tracer.end(span);

        let codec = Instant::now();
        let encoded = encode_line(&response);
        let decoded: Response = decode_line(&encoded)?;
        codec_ns += codec.elapsed().as_nanos() as u64;
        std::hint::black_box(decoded);
        let parent = self.tracer.begin("serve.codec", request_id);
        self.tracer.end(parent);
        // The codec span is recorded empty and its measured time attached as an
        // aggregate, so its self time is exactly the serde work.
        self.tracer.aggregate(parent, "serve.codec", 1, codec_ns);
        match response {
            Response::Error { code, message } => Err(format!("{code}: {message}")),
            other => Ok(other),
        }
    }
}

/// Where the traced run's snapshot store lives (inside the checkout, removed afterwards).
pub(crate) fn snapshot_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_out").join(format!("snapshots-{}", std::process::id()))
}

/// The checked outcome of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionResult {
    /// Script index within the unit.
    pub index: usize,
    /// Final best interface cost.
    pub cost: f64,
    /// MCTS iterations the session ran.
    pub iterations: u64,
}

fn action_for_choice(choice: &ChoiceDescription) -> WidgetAction {
    let path = choice.path.0.clone();
    match choice.choice_kind {
        DiffKind::Opt => WidgetAction::Toggle {
            path,
            included: false,
        },
        DiffKind::Multi => WidgetAction::Repeat { path, count: 1 },
        _ => WidgetAction::Select {
            path,
            pick: choice.cardinality.saturating_sub(1),
        },
    }
}

fn canonical(sql: &str) -> Option<String> {
    parse_query(sql).ok().map(|ast| print_query(&ast))
}

/// Run one script, checking every response: no request fails, every search request runs
/// exactly the iterations asked (so no deadline bound), the best reward never decreases
/// between edits, and every replayed query derives back to itself.
pub(crate) fn run_script(
    transport: &mut impl Transport,
    script: &Script,
    request_id: u64,
    barrier: Option<&Barrier>,
    checks: &mut Checks,
    samples: &mut Samples,
) -> Option<SessionResult> {
    let mut session = None;
    let mut log: Vec<String> = Vec::new();
    let mut interface: Option<InterfaceDescription> = None;
    let mut iterations = 0u64;
    let mut last_reward = f64::NEG_INFINITY;
    let mut cost = f64::NAN;
    let mut ok = true;
    for step in &script.steps {
        if let Some(barrier) = barrier {
            barrier.wait();
        }
        if let Step::Replay = step {
            // Lockstep clients replay one at a time, so no client's round trips queue
            // behind another's for the two vCPUs. A failed client still takes part in
            // every barrier.
            let turns = barrier.map_or(1, |_| CLIENTS);
            for turn in 0..turns {
                if ok && turn == script.index % turns {
                    replay_log(
                        transport,
                        session.unwrap_or(0),
                        &log,
                        interface.as_ref(),
                        script.index,
                        request_id,
                        checks,
                        samples,
                    );
                }
                if let (Some(barrier), true) = (barrier, turn + 1 < turns) {
                    barrier.wait();
                }
            }
            continue;
        }
        if !ok {
            continue;
        }
        let id = session.unwrap_or(0);
        let request = match step {
            Step::Synthesize {
                queries,
                seed,
                iterations: n,
            } => {
                log = queries.clone();
                iterations += n;
                Request::Synthesize {
                    queries: queries.clone(),
                    iterations: *n,
                    deadline_millis: DEADLINE_MILLIS,
                    seed: *seed,
                }
            }
            Step::Refine(n) => {
                iterations += n;
                Request::Refine {
                    session: id,
                    iterations: *n,
                    deadline_millis: DEADLINE_MILLIS,
                }
            }
            Step::Append(query) => {
                log.push(query.clone());
                Request::Append {
                    session: id,
                    query: query.clone(),
                }
            }
            Step::Retract(index) => {
                log.remove(*index);
                Request::Retract {
                    session: id,
                    index: *index as u64,
                }
            }
            Step::Replay => unreachable!("replays are handled above"),
            Step::Close => Request::Close { session: id },
        };
        checks.attempted += 1;
        let start = Instant::now();
        let response = transport.call(&request, request_id);
        let elapsed = ms(start.elapsed());
        let best = match response {
            Ok(Response::Synthesized {
                session: s,
                best,
                interface: i,
                diagnostics,
            }) => {
                checks.expect(diagnostics.is_empty(), || {
                    format!("session {}: quarantined queries", script.index)
                });
                session = Some(s);
                interface = Some(i);
                samples.search.push(elapsed);
                Some((best, true))
            }
            Ok(Response::Refined {
                best, interface: i, ..
            }) => {
                interface = Some(i);
                samples.search.push(elapsed);
                Some((best, true))
            }
            Ok(Response::Appended {
                best,
                interface: i,
                log_len,
                ..
            })
            | Ok(Response::Retracted {
                best,
                interface: i,
                log_len,
                ..
            }) => {
                if matches!(step, Step::Append(_)) {
                    samples.append.push(elapsed);
                } else {
                    samples.retract.push(elapsed);
                }
                checks.expect(log_len as usize == log.len(), || {
                    format!(
                        "session {}: log length {log_len}, expected {}",
                        script.index,
                        log.len()
                    )
                });
                interface = Some(i);
                // An edit restarts the best record: re-anchor monotonicity here.
                last_reward = f64::NEG_INFINITY;
                Some((best, false))
            }
            Ok(Response::Closed { .. }) => None,
            other => {
                checks.fail(format!("session {}: {step:?}: {other:?}", script.index));
                ok = false;
                continue;
            }
        };
        if let Some((best, searched)) = best {
            checks.expect(best.iterations == iterations, || {
                format!(
                    "session {}: {} iterations run, {iterations} asked",
                    script.index, best.iterations
                )
            });
            if searched {
                checks.expect(best.reward >= last_reward, || {
                    format!(
                        "session {}: best reward fell from {last_reward} to {}",
                        script.index, best.reward
                    )
                });
                last_reward = best.reward;
                cost = best.cost_total;
            }
        }
    }
    ok.then_some(SessionResult {
        index: script.index,
        cost,
        iterations,
    })
}

/// Replay `log` through the session's current interface, `REPLAY_ROUNDS` times: one
/// `Jump` per query (checked to derive the query back) and one widget interaction per
/// choice, each round trip a latency sample.
#[allow(clippy::too_many_arguments)]
fn replay_log(
    transport: &mut impl Transport,
    id: u64,
    log: &[String],
    interface: Option<&InterfaceDescription>,
    index: usize,
    request_id: u64,
    checks: &mut Checks,
    samples: &mut Samples,
) {
    let Some(described) = interface else {
        checks.fail(format!("session {index}: nothing to replay"));
        return;
    };
    let mut actions: Vec<(WidgetAction, Option<String>)> = log
        .iter()
        .map(|q| (WidgetAction::Jump { query: q.clone() }, canonical(q)))
        .collect();
    actions.extend(
        described
            .choices
            .iter()
            .map(|c| (action_for_choice(c), None)),
    );
    let rounds = actions.len() * crate::REPLAY_ROUNDS;
    for (action, expect_sql) in actions.into_iter().cycle().take(rounds) {
        let request = Request::Interact {
            session: id,
            action,
        };
        checks.attempted += 1;
        let start = Instant::now();
        let response = transport.call(&request, request_id);
        samples.interact.push(ms(start.elapsed()));
        match response {
            Ok(Response::Interacted { sql, .. }) => {
                if let Some(expected) = expect_sql {
                    checks.expect(canonical(&sql) == Some(expected.clone()), || {
                        format!("session {index}: replay of `{expected}` derived `{sql}`")
                    });
                }
            }
            other => checks.fail(format!("session {index}: interact: {other:?}")),
        }
    }
}

/// A running server: the engine behind `serve_on` on a loopback port.
pub struct Server {
    /// The engine.
    pub engine: Arc<ServeEngine>,
    /// `host:port` of the listener.
    pub addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Start an engine and serve it on an ephemeral loopback port.
    pub fn start(config: ServeConfig) -> std::io::Result<Self> {
        let engine = ServeEngine::start(config);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let served = Arc::clone(&engine);
        let thread = std::thread::spawn(move || serve_on(served, listener));
        Ok(Self {
            engine,
            addr,
            thread,
        })
    }

    /// Connect a client.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| e.to_string())
    }

    /// Shut the server down and wait for its threads.
    pub fn stop(self) -> Result<(), String> {
        let mut client = self.connect()?;
        match client.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("shutdown: {other:?}")),
        }
        drop(client);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// Run one work unit of `workload` over `transports` (one per client thread) and return
/// the session results sorted by script index. `serve-replicated` clients run their
/// scripts in lockstep (a barrier before every step, which pins the coalescing phase);
/// `serve-live` clients pull distinct scripts from one shared queue.
pub(crate) fn run_unit<T: Transport + Send>(
    workload: &str,
    seed: u64,
    transports: &mut [T],
    request_base: u64,
    checks: &mut Checks,
    samples: &mut Samples,
) -> Vec<SessionResult> {
    let scripts = scripts(workload, seed);
    let lockstep = workload == "serve-replicated";
    let barrier = Barrier::new(transports.len());
    let queue = Mutex::new(scripts.into_iter().collect::<VecDeque<_>>());
    let per_client: Vec<(Checks, Samples, Vec<SessionResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter_mut()
            .enumerate()
            .map(|(client, transport)| {
                let queue = &queue;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut checks = Checks::default();
                    let mut samples = Samples::default();
                    let mut results = Vec::new();
                    loop {
                        let next = if lockstep {
                            let mut q = queue.lock().expect("script queue");
                            q.iter()
                                .position(|s| s.index == client)
                                .and_then(|i| q.remove(i))
                        } else {
                            queue.lock().expect("script queue").pop_front()
                        };
                        let Some(script) = next else { break };
                        let request = request_base + script.index as u64;
                        let b = lockstep.then_some(barrier);
                        if let Some(r) =
                            run_script(transport, &script, request, b, &mut checks, &mut samples)
                        {
                            results.push(r);
                        }
                    }
                    (checks, samples, results)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut results = Vec::new();
    for (c, s, r) in per_client {
        checks.attempted += c.attempted;
        checks.failures.extend(c.failures);
        samples.search.extend(s.search);
        samples.interact.extend(s.interact);
        samples.append.extend(s.append);
        samples.retract.extend(s.retract);
        results.extend(r);
    }
    results.sort_by_key(|r| r.index);
    let expected_sessions = queue_len(workload);
    checks.expect(results.len() == expected_sessions, || {
        format!(
            "{} of {expected_sessions} sessions completed",
            results.len()
        )
    });
    if lockstep {
        checks.expect(results.windows(2).all(|w| w[0].cost == w[1].cost), || {
            "replicated sessions disagree on the interface cost".to_string()
        });
    }
    samples.iterations += results.iter().map(|r| r.iterations).sum::<u64>();
    results
}

fn queue_len(workload: &str) -> usize {
    if workload == "serve-replicated" {
        CLIENTS
    } else {
        LIVE_SESSIONS
    }
}

/// Counters of a raw-handle replay of a unit's sessions.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Reward calls.
    pub reward_calls: u64,
    /// Rewards that improved the best record (rebases restart it).
    pub improvements: u64,
    /// Iterations run.
    pub iterations: u64,
    /// Nodes kept by rebases.
    pub rebased_nodes: u64,
    /// Context-cache misses (summed over the sessions' problems).
    pub context_misses: u64,
    /// Plan-cache misses (summed over the sessions' problems).
    pub plan_misses: u64,
}

fn replay_problem(
    tracer: &mut Tracer,
    rules: &RuleEngine,
    log: &LiveLog,
    request: u64,
) -> Arc<InterfaceSearchProblem> {
    let config = engine_config();
    let queries = log.healthy();
    let initial = tracer.time("difftree.derive", request, || simplified_difftree(&queries));
    Arc::new(InterfaceSearchProblem::with_cache_shards(
        queries,
        initial,
        rules.clone(),
        config.screen,
        config.weights,
        config.assignments_per_eval,
        config.shards,
    ))
}

/// Replay the search side of each distinct script on a raw `SearchHandle` over a
/// [`TracedProblem`], exactly as the engine builds it (same problem, seed and slices), so
/// the per-step layers, `rebase` and the log maintenance of the served traffic can be
/// timed from outside the server. `serve-replicated`'s scripts are identical, so one is
/// replayed.
pub(crate) fn replay(workload: &str, seed: u64, tracer: &mut Tracer) -> ReplayCounts {
    let mut scripts = scripts(workload, seed);
    if workload == "serve-replicated" {
        scripts.truncate(1);
    }
    let rules = RuleEngine::default();
    let mut counts = ReplayCounts::default();
    for script in &scripts {
        let request = script.index as u64;
        let root = tracer.begin("serve.replay", request);
        let mut log = LiveLog::new();
        let mut problems: Vec<Arc<InterfaceSearchProblem>> = Vec::new();
        let mut handle: Option<SearchHandle<TracedProblem>> = None;
        let mut drain = |tracer: &mut Tracer, span: usize, problem: &TracedProblem| {
            for (name, calls, ns) in problem.drain() {
                if name == "cost.eval" {
                    counts.reward_calls += calls;
                }
                tracer.aggregate(span, name, calls, ns);
            }
        };
        for step in &script.steps {
            match step {
                Step::Synthesize {
                    queries,
                    seed,
                    iterations,
                } => {
                    let triaged = tracer.time("sqlast.parse", request, || {
                        mctsui_core::TriagedLog::from_sources(queries)
                    });
                    log = LiveLog::from_triaged(&triaged);
                    let problem = replay_problem(tracer, &rules, &log, request);
                    problems.push(Arc::clone(&problem));
                    let mut mcts = engine_config().mcts;
                    mcts.seed = *seed;
                    mcts.budget = Budget::Iterations(usize::MAX);
                    let span = tracer.begin("mcts.search", request);
                    let mut h = SearchHandle::new(TracedProblem::new(problem), mcts);
                    h.run_for(SliceBudget::iterations(*iterations as usize));
                    drain(tracer, span, h.problem());
                    tracer.end(span);
                    handle = Some(h);
                }
                Step::Refine(n) => {
                    let h = handle.as_mut().expect("synthesized first");
                    let span = tracer.begin("mcts.search", request);
                    h.run_for(SliceBudget::iterations(*n as usize));
                    drain(tracer, span, h.problem());
                    tracer.end(span);
                }
                Step::Append(query) => {
                    tracer.time("core.live_append", request, || log.append_source(query));
                    let ast = parse_query(query).expect("corpus queries parse");
                    let problem = replay_problem(tracer, &rules, &log, request);
                    problems.push(Arc::clone(&problem));
                    let h = handle.as_mut().expect("synthesized first");
                    counts.improvements += h.problem().improvements();
                    let span = tracer.begin("mcts.rebase", request);
                    let kept = h
                        .rebase(TracedProblem::new(problem), |state| {
                            Some(mctsui_core::graft_append(state, &ast))
                        })
                        .expect("quiescent handle");
                    drain(tracer, span, h.problem());
                    tracer.end(span);
                    counts.rebased_nodes += kept as u64;
                }
                Step::Retract(index) => {
                    tracer
                        .time("core.live_retract", request, || log.retract(*index))
                        .expect("retract index in range");
                    let problem = replay_problem(tracer, &rules, &log, request);
                    problems.push(Arc::clone(&problem));
                    let h = handle.as_mut().expect("synthesized first");
                    counts.improvements += h.problem().improvements();
                    let span = tracer.begin("mcts.rebase", request);
                    let kept = h
                        .rebase(TracedProblem::new(problem), |state| Some(state.clone()))
                        .expect("quiescent handle");
                    drain(tracer, span, h.problem());
                    tracer.end(span);
                    counts.rebased_nodes += kept as u64;
                }
                Step::Replay | Step::Close => {}
            }
        }
        if let Some(h) = handle.take() {
            counts.improvements += h.problem().improvements();
            counts.iterations += h.iterations() as u64;
        }
        for problem in &problems {
            let stats = problem.cache_stats();
            counts.context_misses += stats.contexts.misses;
            counts.plan_misses += stats.plans.misses;
        }
        tracer.end(root);
    }
    counts
}
