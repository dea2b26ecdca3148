//! End-to-end benchmark of the MetaDSE pipeline.
//!
//! ```text
//! metadse-metabench --workload <meta_pretrain|target_adapt|explore_session>
//!                   --seed <n> --seconds <s> --trace <0|1>
//!                   [--workdir <dir>] [--baseline <result json>]
//! ```
//!
//! Every run executes the three stages (pre-training, target adaptation,
//! served exploration). The named workload's stage is the timed one: it
//! repeats for `--seconds`; the other two run in whole passes spread over
//! it, adaptation at the size of one repetition of its own workload and
//! exploration at three, so every end-to-end metric is measured on every
//! workload. See
//! `README.md` next to this crate for the workloads, the metrics and the
//! metric → layer map.
//!
//! The last line of standard output is the result object. A provenance
//! line and, when traced, the per-layer self-time table come before it.

mod explore;
mod layers;
mod pipeline;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use metadse::experiment::Environment;
use metadse::ServablePredictor;
use metadse_workloads::Task;

use crate::explore::{ExplorePass, ServeStack};
use crate::layers::{Counters, ServeTotals};
use crate::pipeline::{AdaptPass, Pretrained, FULL, SHORT};
use crate::stats::{median, percentile, Digest};
use crate::trace::Tracer;

/// Target tasks per test workload in a pass of adaptation.
const TARGET_TASKS: usize = 10;
/// Exploration passes where exploration is not the timed stage: one
/// pass's 256 rounds leave its p95 to a dozen samples and its figures to
/// a few seconds of a machine whose speed drifts, so three are pooled,
/// spread over the run.
const SIDE_EXPLORE_PASSES: usize = 3;
/// Largest share of a timed container span its layer spans may leave
/// uncovered before the traced run fails.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MetaPretrain,
    TargetAdapt,
    ExploreSession,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "meta_pretrain" => Some(Workload::MetaPretrain),
            "target_adapt" => Some(Workload::TargetAdapt),
            "explore_session" => Some(Workload::ExploreSession),
            _ => None,
        }
    }

    /// Set-ups per run, back to back before the timed stage; `setup_s` is
    /// their median. A bare environment build takes tens of milliseconds,
    /// so `meta_pretrain` sets up often.
    fn setups(self) -> usize {
        match self {
            Workload::MetaPretrain => 31,
            Workload::TargetAdapt | Workload::ExploreSession => 3,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::MetaPretrain => "meta_pretrain",
            Workload::TargetAdapt => "target_adapt",
            Workload::ExploreSession => "explore_session",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut workdir = PathBuf::from(".bench_build/metabench-work");
    let mut baseline = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => trace = value == "1",
            "--workdir" => workdir = PathBuf::from(value),
            "--baseline" => baseline = Some(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        workdir,
        baseline,
    })
}

/// Everything a run measures and checks.
#[derive(Default)]
pub(crate) struct Run {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    pretrain_s: Vec<f64>,
    val_loss: Option<f64>,
    adapt_ms: Vec<f64>,
    ipc_rmse: Option<f64>,
    predictions: Option<u64>,
    hypervolume: Option<f64>,
    fronts: Option<u64>,
    /// Every exploration pass of the run, summed.
    pub(crate) explore: ExplorePass,
    pub(crate) points_simulated: usize,
    pub(crate) meta_tasks: usize,
    /// Program counters moved by the timed stage.
    pub(crate) timed: Counters,
    pub(crate) serve: ServeTotals,
}

impl Run {
    /// Keeps the first value of a deterministic output; a later value
    /// with other bits is a violation.
    fn same(&mut self, what: &str, slot: fn(&mut Run) -> &mut Option<u64>, value: u64) {
        let first = *slot(self).get_or_insert(value);
        if first != value {
            self.violations.push(format!(
                "{what} differs between repetitions ({first:#x} vs {value:#x})"
            ));
        }
    }

    fn same_f64(&mut self, what: &str, slot: fn(&mut Run) -> &mut Option<f64>, value: f64) {
        if !value.is_finite() {
            self.violations
                .push(format!("{what} is not finite: {value}"));
        }
        let first = *slot(self).get_or_insert(value);
        if first.to_bits() != value.to_bits() {
            self.violations.push(format!(
                "{what} differs between repetitions ({first} vs {value})"
            ));
        }
    }

    fn pretrained(&mut self, p: &Pretrained) {
        self.pretrain_s.push(p.wall_s);
        self.attempted += 1;
        if !p.val_loss().is_finite() {
            self.failed += 1;
        }
        self.same_f64("val_loss", |r| &mut r.val_loss, p.val_loss());
    }

    fn adapted(&mut self, pass: AdaptPass) {
        self.attempted += pass.latencies_ms.len() as u64;
        self.failed += pass.failed;
        self.adapt_ms.extend(pass.latencies_ms);
        self.same_f64("ipc_rmse", |r| &mut r.ipc_rmse, pass.ipc_rmse);
        self.same("target predictions", |r| &mut r.predictions, pass.digest);
    }

    fn explored(&mut self, mut pass: ExplorePass) {
        self.attempted += pass.proposed + pass.step_errors;
        self.failed += pass.shed + pass.step_errors;
        self.violations.append(&mut pass.violations);
        self.same_f64("hypervolume", |r| &mut r.hypervolume, pass.hypervolume);
        self.same("session fronts", |r| &mut r.fronts, pass.fronts);
        self.explore.round_ms.append(&mut pass.round_ms);
        self.explore.wall_s += pass.wall_s;
        self.explore.proposed += pass.proposed;
        self.explore.predicted += pass.predicted;
        self.explore.cache_hits += pass.cache_hits;
        self.explore.shed += pass.shed;
        self.explore.rounds += pass.rounds;
        self.explore.checkpoints += pass.checkpoints;
        self.explore.duplicate_predictions += pass.duplicate_predictions;
    }
}

/// Scratch space of one run inside the work directory, removed at exit.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new(workdir: &Path) -> Scratch {
        let root = workdir.join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch dir");
        Scratch { root, next: 0 }
    }

    fn fresh(&mut self, what: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{what}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Time-keeping of the timed stage. It repeats for `seconds` of its own
/// time: always once, then again while the expected finish (at the mean
/// repetition time) overshoots `seconds` by less than half a repetition.
struct Schedule {
    seconds: f64,
    main_s: f64,
    reps: u32,
}

impl Schedule {
    fn new(seconds: f64) -> Schedule {
        Schedule {
            seconds,
            main_s: 0.0,
            reps: 0,
        }
    }

    fn more(&self) -> bool {
        self.reps == 0 || self.main_s * (1.0 + 0.5 / f64::from(self.reps)) <= self.seconds
    }

    /// Share of `seconds` the timed stage has run, at most 1.
    fn progress(&self) -> f64 {
        (self.main_s / self.seconds).min(1.0)
    }

    /// Runs one piece of the timed stage: its time counts towards
    /// `seconds` and the program counters it moves towards the timed
    /// region's counts.
    fn main<T>(&mut self, run: &mut Run, tracer: &Tracer, f: impl FnOnce() -> T) -> T {
        let before = Counters::read();
        let (out, s) = {
            let _span = tracer.span("bench.main");
            stopwatch(f)
        };
        run.timed.add(&Counters::read().since(&before));
        self.main_s += s;
        out
    }
}

/// Side passes spread over the timed stage: pass `i` of `n` falls due
/// once the timed stage has run `i / n` of its seconds, and what is left
/// runs after it. One pass samples a few seconds of a machine whose speed
/// drifts over tens of seconds; spread out, the passes sample the run.
struct Spread {
    total: usize,
    done: usize,
}

impl Spread {
    fn new(total: usize) -> Spread {
        Spread { total, done: 0 }
    }

    /// How many passes fall due at `progress` (0 to 1) of the timed
    /// stage; they count as done.
    fn due(&mut self, progress: f64) -> usize {
        let upto = ((progress * self.total as f64) as usize + 1).min(self.total);
        let n = upto.saturating_sub(self.done);
        self.done += n;
        n
    }
}

fn capture(p: &Pretrained) -> ServablePredictor {
    ServablePredictor::capture(&p.model, Some(&p.mask), "ipc")
}

/// What a set-up leaves for the timed stage.
struct Ready {
    env: Environment,
    /// The set-up pre-training, on every workload but `meta_pretrain`.
    pretrained: Option<Pretrained>,
    /// The published model behind a warm server, on `explore_session`.
    stack: Option<ServeStack>,
}

/// Sets the workload up `setups()` times back to back and records each
/// wall time. The first set-up's products serve the run; the others are
/// timed and dropped.
fn set_up(workload: Workload, run: &mut Run, ctx: &mut Ctx<'_>) -> Ready {
    let tracer = ctx.tracer;
    let mut first: Option<Ready> = None;
    for _ in 0..workload.setups() {
        let span = tracer.span("bench.setup");
        let started = Instant::now();
        let env = pipeline::build_env(tracer);
        let pretrained =
            (workload != Workload::MetaPretrain).then(|| pipeline::pretrain(&env, &SHORT, tracer));
        let stack = match &pretrained {
            Some(p) if workload == Workload::ExploreSession => Some(ctx.serve(p, &env)),
            _ => None,
        };
        run.setup_s.push(started.elapsed().as_secs_f64());
        drop(span);
        if let Some(p) = &pretrained {
            run.pretrained(p);
        }
        let ready = Ready {
            env,
            pretrained,
            stack,
        };
        if first.is_none() {
            first = Some(ready);
        } else if let Some(stack) = &ready.stack {
            run.serve.add(stack);
        }
    }
    first.expect("at least one set-up")
}

/// Traced runs adapt through the parts of `adapt_and_predict`; the first
/// task of each test workload proves the parts predict bit-identically.
fn check_split(run: &mut Run, p: &Pretrained, tasks: &[Vec<Task>], tracer: &Tracer) {
    if !tracer.enabled() {
        return;
    }
    for task in tasks.iter().filter_map(|w| w.first()) {
        if !pipeline::split_matches_fused(&p.model, &p.mask, task, tracer) {
            run.violations
                .push("traced adaptation parts predict differently from adapt_and_predict".into());
        }
    }
}

/// What every stage of a run shares.
struct Ctx<'a> {
    seed: u64,
    tracer: &'a Tracer,
    scratch: &'a mut Scratch,
}

impl Ctx<'_> {
    fn explore_pass(&mut self, stack: &ServeStack) -> ExplorePass {
        let dir = self.scratch.fresh("sessions");
        let pass = explore::explore_pass(stack, dir.clone(), self.seed, self.tracer);
        let _ = std::fs::remove_dir_all(dir);
        pass
    }

    fn serve(&mut self, p: &Pretrained, env: &Environment) -> ServeStack {
        let workload = env.split.test[0].name();
        ServeStack::start(
            &capture(p),
            &self.scratch.fresh("serve"),
            workload,
            self.tracer,
        )
    }
}

fn run_workload(args: &Args, run: &mut Run, ctx: &mut Ctx<'_>) {
    let workload = args.workload;
    let tracer = ctx.tracer;
    let mut schedule = Schedule::new(args.seconds);
    let ready = set_up(workload, run, ctx);
    let env = &ready.env;
    run.points_simulated = pipeline::points_simulated(env);
    let tasks = pipeline::target_tasks(env, ctx.seed, TARGET_TASKS);
    let adapt = |run: &mut Run, p: &Pretrained| {
        run.adapted(pipeline::adapt_pass(&p.model, &p.mask, &tasks, tracer));
        check_split(run, p, &tasks, tracer);
    };

    match workload {
        Workload::MetaPretrain => {
            run.meta_tasks = pipeline::meta_tasks(env, &FULL);
            // Every repetition trains the same model; the side passes use
            // the first.
            let p = schedule.main(run, tracer, || pipeline::pretrain(env, &FULL, tracer));
            run.pretrained(&p);
            schedule.reps += 1;
            let stack = ctx.serve(&p, env);
            let (mut adapted, mut explored) = (Spread::new(1), Spread::new(SIDE_EXPLORE_PASSES));
            let mut side = |run: &mut Run, ctx: &mut Ctx<'_>, progress: f64| {
                for _ in 0..adapted.due(progress) {
                    adapt(run, &p);
                }
                for _ in 0..explored.due(progress) {
                    run.explored(ctx.explore_pass(&stack));
                }
            };
            side(run, ctx, schedule.progress());
            while schedule.more() {
                let again = schedule.main(run, tracer, || pipeline::pretrain(env, &FULL, tracer));
                run.pretrained(&again);
                schedule.reps += 1;
                side(run, ctx, schedule.progress());
            }
            side(run, ctx, 1.0);
            run.serve.add(&stack);
        }
        Workload::TargetAdapt => {
            let p = ready.pretrained.as_ref().expect("set-up pre-trains");
            run.meta_tasks = pipeline::meta_tasks(env, &SHORT);
            let stack = ctx.serve(p, env);
            let mut explored = Spread::new(SIDE_EXPLORE_PASSES);
            let mut side = |run: &mut Run, ctx: &mut Ctx<'_>, progress: f64| {
                for _ in 0..explored.due(progress) {
                    run.explored(ctx.explore_pass(&stack));
                }
            };
            side(run, ctx, schedule.progress());
            while schedule.more() {
                let pass = schedule.main(run, tracer, || {
                    pipeline::adapt_pass(&p.model, &p.mask, &tasks, tracer)
                });
                run.adapted(pass);
                schedule.reps += 1;
                side(run, ctx, schedule.progress());
            }
            side(run, ctx, 1.0);
            check_split(run, p, &tasks, tracer);
            run.serve.add(&stack);
        }
        Workload::ExploreSession => {
            let p = ready.pretrained.as_ref().expect("set-up pre-trains");
            let stack = ready.stack.as_ref().expect("set-up starts a server");
            run.meta_tasks = pipeline::meta_tasks(env, &SHORT);
            while schedule.more() {
                let pass = schedule.main(run, tracer, || ctx.explore_pass(stack));
                run.explored(pass);
                schedule.reps += 1;
            }
            adapt(run, p);
            run.serve.add(stack);
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let explore = &run.explore;
    vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("pretrain_s", median(&run.pretrain_s), "s"),
        ("val_loss", run.val_loss.unwrap_or(f64::NAN), "mse"),
        ("adapt_p50_ms", percentile(&run.adapt_ms, 50.0), "ms"),
        ("adapt_p80_ms", percentile(&run.adapt_ms, 80.0), "ms"),
        (
            "adapt_tasks_per_s",
            run.adapt_ms.len() as f64 / (run.adapt_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        ("ipc_rmse", run.ipc_rmse.unwrap_or(f64::NAN), "ipc"),
        ("round_p50_ms", percentile(&explore.round_ms, 50.0), "ms"),
        ("round_p95_ms", percentile(&explore.round_ms, 95.0), "ms"),
        (
            "points_per_s",
            (explore.predicted + explore.cache_hits) as f64 / explore.wall_s,
            "1/s",
        ),
        ("hypervolume", run.hypervolume.unwrap_or(f64::NAN), "ipc-w"),
    ]
}

/// Compares this run's deterministic outputs with the first run of the
/// same sources at the same workload and seed in this work directory, or
/// records them.
fn check_across_runs(args: &Args, sources: &str, run: &mut Run) {
    let dir = args.workdir.join("records");
    let path = dir.join(format!(
        "{}-{}-{sources}.txt",
        args.workload.name(),
        args.seed
    ));
    let bits = |v: Option<f64>| v.map_or(0, f64::to_bits);
    let record = format!(
        "val_loss {:016x}\nipc_rmse {:016x}\npredictions {:016x}\nhypervolume {:016x}\nfronts {:016x}\n",
        bits(run.val_loss),
        bits(run.ipc_rmse),
        run.predictions.unwrap_or(0),
        bits(run.hypervolume),
        run.fronts.unwrap_or(0),
    );
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            for (old, new) in previous.lines().zip(record.lines()) {
                if old != new {
                    run.violations.push(format!(
                        "differs from an earlier run at seed {}: {new} (was {old})",
                        args.seed
                    ));
                }
            }
        }
        Err(_) if run.violations.is_empty() => {
            let _ = std::fs::create_dir_all(&dir);
            let tmp = dir.join(format!(".record-{}", std::process::id()));
            if std::fs::write(&tmp, &record).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        Err(_) => {}
    }
}

/// A traced run stands on the untraced run at its seed: that run's
/// outputs are what tracing must not change, and its timings are the
/// overhead baseline. If it failed a check or printed no result, so does
/// the traced run.
fn check_baseline(baseline: Option<&str>, run: &mut Run) {
    match baseline {
        Some(line) if line.starts_with("{\"correct\": true,") => {}
        Some(line) if line.starts_with("{\"correct\": false,") => run
            .violations
            .push("the untraced run at this seed failed its checks".into()),
        _ => run
            .violations
            .push("no result from the untraced run at this seed".into()),
    }
}

/// `git rev-parse HEAD` without git: reads `.git` in the working
/// directory, if there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the sources the benchmark builds: identifies the code
/// measured when there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("metabench"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            for chunk in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
                d.word(u64::from(*chunk));
            }
        }
    }
    format!("{:016x}", d.value())
}

fn provenance(args: &Args, run_id: &str, sources: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"run_id\":\"{run_id}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"git_rev\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{nproc},\"threads\":{},\
         \"backend\":\"{}\",\"obs_compiled\":{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        git_rev(),
        sources,
        metadse_parallel::ParallelConfig::default().effective_threads(),
        metadse_nn::backend::kind().name(),
        metadse_obs::enabled(),
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("metabench: {e}");
            std::process::exit(2);
        }
    };
    // The program receives only the generated inputs: no tuning knob
    // from the environment may change what a run measures.
    for (key, _) in std::env::vars() {
        if key.starts_with("METADSE_") {
            std::env::remove_var(key);
        }
    }
    if args.trace != metadse_obs::enabled() {
        eprintln!("metabench: --trace 1 needs the `obs` build and --trace 0 the plain one");
        std::process::exit(2);
    }

    let run_id = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let sources = source_digest();
    let provenance = provenance(&args, &run_id, &sources);
    eprintln!("metabench: {provenance}");
    let tracer = Tracer::new(args.trace, run_id.clone());
    let mut run = Run::default();
    {
        let mut scratch = Scratch::new(&args.workdir);
        let mut ctx = Ctx {
            seed: args.seed,
            tracer: &tracer,
            scratch: &mut scratch,
        };
        let _span = tracer.span("bench.run");
        run_workload(&args, &mut run, &mut ctx);
    }
    check_across_runs(&args, &sources, &mut run);
    if args.trace {
        check_baseline(args.baseline.as_deref(), &mut run);
    }

    let e2e = end_to_end(&run);
    let metrics = if args.trace {
        let report = layers::per_layer(&run, &tracer, &e2e, args.baseline.as_deref());
        run.violations.extend(report.violations);
        println!("{}", report.table);
        let dir = args.workdir.join("traces");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{run_id}.jsonl"));
        let body = format!(
            "{{\"provenance\":{provenance}}}\n{}{}",
            tracer.to_jsonl(),
            metadse_obs::to_jsonl()
        );
        if std::fs::write(&path, body).is_ok() {
            eprintln!("metabench: trace written to {}", path.display());
        }
        report.metrics
    } else {
        e2e
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            run.violations.push(format!("{name} is not finite"));
        }
    }
    for v in &run.violations {
        eprintln!("metabench: CHECK FAILED: {v}");
    }
    println!("provenance {provenance}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.violations.is_empty(),
        run.attempted,
        run.failed,
        body.join(", ")
    );
}
