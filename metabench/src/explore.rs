//! The served pipeline: a scratch model registry, a plan-executing
//! server and exploration sessions driven by closed-loop clients.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use metadse::explorer::{
    apply_front_delta, canonical_front, pareto_front, FrontDelta, ParetoEntry,
};
use metadse::ServablePredictor;
use metadse_serve::{
    BatchConfig, ModelRegistry, ServeConfig, Server, SessionEngine, SessionEngineConfig,
    SessionSpec,
};

use crate::stats::Digest;
use crate::trace::Tracer;

/// Closed-loop clients; client 1 reuses client 0's session seeds with a
/// wider beam, so part of its points resolve from the shared point cache.
const CLIENTS: usize = 2;
/// Sessions per client in a pass.
const SESSIONS_PER_CLIENT: usize = 32;
const INITIAL_SAMPLES: u32 = 16;
const REFINEMENT_ROUNDS: u32 = 3;
const BASE_BEAM: u32 = 3;
const SESSION_STREAM: u64 = 0x5e55_1000_0000_0000;

pub struct ServeStack {
    pub registry: Arc<ModelRegistry>,
    pub server: Server,
    pub workload: String,
}

impl ServeStack {
    /// Publishes `servable` into a fresh registry under `root` and starts
    /// one plan-executing worker. A warm-up request compiles the plan, so
    /// compilation is part of set-up.
    pub fn start(
        servable: &ServablePredictor,
        root: &Path,
        workload: &str,
        tracer: &Tracer,
    ) -> ServeStack {
        let registry = Arc::new(ModelRegistry::new(root.join("registry"), 2));
        {
            let _span = tracer.span("registry.publish");
            registry
                .publish(workload, servable)
                .expect("publish into a scratch registry");
        }
        let server = Server::start(
            Arc::clone(&registry),
            ServeConfig {
                batch: BatchConfig {
                    max_batch: 32,
                    ..BatchConfig::default()
                },
                workers: 1,
                plan: true,
            },
        );
        {
            let _span = tracer.span("server.warmup");
            let probe = vec![0.5; servable.config.num_params];
            server
                .submit(workload, &probe, None)
                .wait()
                .expect("warm-up prediction");
        }
        ServeStack {
            registry,
            server,
            workload: workload.to_string(),
        }
    }
}

/// Outcome of one pass: every client runs all its sessions to the end.
#[derive(Debug, Default)]
pub struct ExplorePass {
    pub round_ms: Vec<f64>,
    pub wall_s: f64,
    pub proposed: u64,
    pub predicted: u64,
    pub cache_hits: u64,
    pub shed: u64,
    pub step_errors: u64,
    pub rounds: u64,
    /// Sum of every session's final-round hypervolume, in session order.
    pub hypervolume: f64,
    /// Every session's rebuilt final front, in session order.
    pub fronts: u64,
    pub checkpoints: u64,
    pub duplicate_predictions: u64,
    pub violations: Vec<String>,
}

#[derive(Default)]
struct ClientOutcome {
    round_ms: Vec<f64>,
    proposed: u64,
    predicted: u64,
    cache_hits: u64,
    shed: u64,
    step_errors: u64,
    rounds: u64,
    final_hv: Vec<f64>,
    fronts: Vec<u64>,
    violations: Vec<String>,
}

fn front_digest(front: Vec<ParetoEntry>) -> u64 {
    let mut d = Digest::default();
    for e in canonical_front(front) {
        for &i in e.point.indices() {
            d.word(i as u64);
        }
        d.f64s(&[e.ipc, e.power]);
    }
    d.value()
}

fn client(
    stack: &ServeStack,
    engine: &SessionEngine,
    seed: u64,
    c: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> ClientOutcome {
    let _span = tracer.span_under("bench.client", parent);
    let mut out = ClientOutcome::default();
    for j in 0..SESSIONS_PER_CLIENT {
        let spec = SessionSpec {
            workload: stack.workload.clone(),
            seed: (seed ^ SESSION_STREAM).wrapping_add(j as u64),
            initial_samples: INITIAL_SAMPLES,
            refinement_rounds: REFINEMENT_ROUNDS,
            beam: BASE_BEAM + c as u32,
            round_timeout_us: 0,
        };
        let opened = {
            let _span = tracer.span("session.open");
            engine.open(&stack.server, &spec)
        };
        let info = match opened {
            Ok(info) => info,
            Err(e) => {
                out.step_errors += 1;
                out.violations.push(format!("open failed: {e}"));
                continue;
            }
        };
        let mut front = Vec::new();
        let mut hv = 0.0;
        for round in 1..=info.rounds_total {
            let t0 = Instant::now();
            let stepped = {
                let _span = tracer.span("session.step");
                engine.step(&stack.server, &spec.workload, info.session_id, round)
            };
            out.round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let report = match stepped {
                Ok(report) => report,
                Err(e) => {
                    out.step_errors += 1;
                    out.violations.push(format!("step failed: {e}"));
                    break;
                }
            };
            out.rounds += 1;
            if report.proposed != report.predicted + report.cache_hits + report.shed {
                out.violations.push(format!(
                    "round accounting: proposed {} != predicted {} + cache hits {} + shed {}",
                    report.proposed, report.predicted, report.cache_hits, report.shed
                ));
            }
            out.proposed += u64::from(report.proposed);
            out.predicted += u64::from(report.predicted);
            out.cache_hits += u64::from(report.cache_hits);
            out.shed += u64::from(report.shed);
            hv = report.hypervolume;
            apply_front_delta(
                &mut front,
                &FrontDelta {
                    added: report.added,
                    removed: report.removed,
                },
            );
        }
        {
            let _span = tracer.span("bench.check");
            let rebuilt = front_digest(front);
            match engine.state_of(info.session_id) {
                Some(state) => {
                    if front_digest(pareto_front(&state.explorer.archive)) != rebuilt {
                        out.violations.push(format!(
                            "session {:#x}: front rebuilt from deltas differs from its archive front",
                            info.session_id
                        ));
                    }
                }
                None => out
                    .violations
                    .push(format!("session {:#x} vanished", info.session_id)),
            }
            out.fronts.push(rebuilt);
        }
        out.final_hv.push(hv);
        let _span = tracer.span("session.close");
        engine.close(info.session_id);
    }
    out
}

fn exposition_counter(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix("counter ")?.strip_prefix(name)?;
        rest.trim().parse().ok()
    })
}

/// Runs every client's sessions once against a fresh session engine that
/// checkpoints into `dir`.
pub fn explore_pass(stack: &ServeStack, dir: PathBuf, seed: u64, tracer: &Tracer) -> ExplorePass {
    let engine = SessionEngine::new(SessionEngineConfig {
        dir: Some(dir),
        keep: 3,
        default_round_timeout: Duration::from_secs(5),
    });
    let span = tracer.span("bench.pass");
    let parent = tracer.current();
    let started = Instant::now();
    let clients: Vec<ClientOutcome> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = &engine;
                s.spawn(move || client(stack, engine, seed, c, tracer, parent))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exploration client panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(span);

    let mut pass = ExplorePass {
        wall_s,
        ..ExplorePass::default()
    };
    let mut fronts = Digest::default();
    for c in clients {
        pass.round_ms.extend(c.round_ms);
        pass.proposed += c.proposed;
        pass.predicted += c.predicted;
        pass.cache_hits += c.cache_hits;
        pass.shed += c.shed;
        pass.step_errors += c.step_errors;
        pass.rounds += c.rounds;
        for hv in c.final_hv {
            pass.hypervolume += hv;
        }
        for f in c.fronts {
            fronts.word(f);
        }
        pass.violations.extend(c.violations);
    }
    pass.fronts = fronts.value();

    let exposition = engine.exposition();
    let counter = |name: &str| exposition_counter(&exposition, name).unwrap_or(u64::MAX);
    pass.checkpoints = counter("session/checkpoints_total");
    pass.duplicate_predictions = counter("session/duplicate_predictions_total");
    if pass.duplicate_predictions != 0 {
        pass.violations.push(format!(
            "session/duplicate_predictions_total is {}",
            pass.duplicate_predictions
        ));
    }
    if counter("session/rounds_total") != pass.rounds {
        pass.violations.push(format!(
            "engine counted {} rounds, clients {}",
            counter("session/rounds_total"),
            pass.rounds
        ));
    }
    pass
}
