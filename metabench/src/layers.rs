//! Per-layer metrics of the traced run.
//!
//! Layer times come from the benchmark's own spans (mean per call over
//! the whole run). Work counts of `nn`, `parallel` and the MAML fan-out
//! come from the counters the program already emits under its `obs`
//! feature, taken over the workload's timed region only. Serving numbers
//! come from `Server::stats`, `ModelRegistry::plan_cache_stats` and
//! `SessionEngine::exposition`.

use std::fmt::Write as _;

use crate::explore::ServeStack;
use crate::trace::{Analysis, Tracer};
use crate::{Run, ATTRIBUTION_TOLERANCE};

/// Program counters read from `metadse-obs`.
const COUNTERS: [&str; 9] = [
    "nn/matmul_flops",
    "nn/matmul_calls",
    "nn/fused_calls",
    "nn/pool_hits",
    "nn/pool_misses",
    "parallel/fanouts_parallel",
    "parallel/spawned_workers",
    "maml/worker_rebuilds",
    "wam/adapt_steps",
];

/// Container spans of the benchmark whose layer spans must cover them.
const TIMED_CONTAINERS: [&str; 4] = [
    "bench.timed_pretrain",
    "bench.timed_task",
    "bench.client",
    "bench.pass",
];

#[derive(Debug, Clone, Default)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    pub fn read() -> Counters {
        Counters(COUNTERS.map(metadse_obs::counter_value))
    }

    pub fn add(&mut self, other: &Counters) {
        for (o, d) in self.0.iter_mut().zip(&other.0) {
            *o += d;
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let mut out = self.clone();
        for (o, b) in out.0.iter_mut().zip(&before.0) {
            *o = o.saturating_sub(*b);
        }
        out
    }

    fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        self.0[i]
    }
}

/// Serving statistics summed over every stack a run started.
#[derive(Debug, Default)]
pub struct ServeTotals {
    requests: u64,
    queue_wait_us: u64,
    assembly_us: u64,
    forward_us: u64,
    reply_us: u64,
    batch_sum: f64,
    batch_count: u64,
    plan_hits: u64,
    plan_misses: u64,
    plan_compile_us: u64,
}

impl ServeTotals {
    pub fn add(&mut self, stack: &ServeStack) {
        use std::sync::atomic::Ordering::Relaxed;
        let stats = stack.server.stats();
        for (_, t) in stats.tenants() {
            self.requests += t.requests.load(Relaxed);
            self.queue_wait_us += t.queue_wait_us.load(Relaxed);
            self.assembly_us += t.assembly_us.load(Relaxed);
            self.forward_us += t.forward_us.load(Relaxed);
            self.reply_us += t.reply_us.load(Relaxed);
        }
        let batches = stats.batch_size.snapshot(stack.server.now_us());
        self.batch_sum += batches.sum;
        self.batch_count += batches.count;
        let plans = stack.registry.plan_cache_stats();
        self.plan_hits += plans.hits;
        self.plan_misses += plans.misses;
        self.plan_compile_us += plans.compile_us;
    }

    fn per_request(&self, total_us: u64) -> f64 {
        ratio(total_us as f64, self.requests as f64)
    }
}

pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub table: String,
    pub violations: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean duration in seconds of the program's own `obs` spans called
/// `name`, with their count.
fn obs_spans(jsonl: &str, name: &str) -> (u64, f64) {
    let needle = format!("\"name\":\"{name}\"");
    let mut count = 0u64;
    let mut total_ns = 0u64;
    for line in jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"span\"") && l.contains(&needle))
    {
        let dur = line
            .split("\"dur_ns\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u64>().ok());
        if let Some(dur) = dur {
            count += 1;
            total_ns += dur;
        }
    }
    (count, total_ns as f64 / 1e9)
}

/// The value of `metric` in a result line printed by an untraced run.
fn baseline_value(baseline: &str, metric: &str) -> Option<f64> {
    let rest = baseline
        .split(&format!("\"{metric}\": {{\"value\": "))
        .nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

pub fn per_layer(
    run: &Run,
    tracer: &Tracer,
    e2e: &[(&'static str, f64, &'static str)],
    baseline: Option<&str>,
) -> Report {
    let all = Analysis::new(tracer.records());
    let main = all.within("bench.main");
    let obs = metadse_obs::to_jsonl();
    let (epochs, epoch_s) = obs_spans(&obs, "maml/epoch");
    let (validates, validate_s) = obs_spans(&obs, "maml/validate");
    let pretrains = all.named("maml.pretrain").count() as f64;
    let pretrain_s = all.mean_s("maml.pretrain");
    let train_s_per_pretrain = pretrain_s - ratio(validate_s, pretrains);
    let timed = &run.timed;
    let serve = &run.serve;
    let explore = &run.explore;
    let mut violations = Vec::new();

    // Attribution: every timed container is covered by its layer spans.
    let mut attributed: f64 = 1.0;
    for container in TIMED_CONTAINERS {
        if let Some((share, dur_ns)) = all.min_coverage(container) {
            attributed = attributed.min(share);
            if share < 1.0 - ATTRIBUTION_TOLERANCE {
                violations.push(format!(
                    "attribution: layer spans cover {:.1}% of a {:.3} ms {container}, below the {:.0}% tolerance",
                    share * 100.0,
                    dur_ns as f64 / 1e6,
                    (1.0 - ATTRIBUTION_TOLERANCE) * 100.0
                ));
            }
        }
    }

    // Self time per layer inside the timed region.
    let main_ns: u64 = main.named("bench.main").map(|r| r.dur_ns()).sum();
    // Shares are of the thread time under spans, which is the timed wall
    // when one thread drives the stage and more when clients run at once.
    let mut rows: Vec<(&'static str, u64, u64, u64)> = main
        .by_name()
        .into_iter()
        .map(|(name, t)| (name, t.calls, t.total_ns, t.self_ns))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    let busy_ns: u64 = rows.iter().map(|r| r.3).sum();
    let top = rows
        .iter()
        .find(|r| !r.0.starts_with("bench."))
        .map_or(("none", 0), |r| (r.0, r.3));
    let mut table = String::new();
    let _ = writeln!(
        table,
        "self time inside the timed region ({:.3} s wall, {:.3} s under spans):",
        main_ns as f64 / 1e9,
        busy_ns as f64 / 1e9
    );
    let _ = writeln!(
        table,
        "  {:<24} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total_s", "self_s", "self%"
    );
    for (name, calls, total, own) in &rows {
        let _ = writeln!(
            table,
            "  {name:<24} {calls:>8} {:>12.4} {:>12.4} {:>6.1}%",
            *total as f64 / 1e9,
            *own as f64 / 1e9,
            ratio(*own as f64, busy_ns as f64) * 100.0
        );
    }
    if serve.requests > 0 {
        let _ = writeln!(
            table,
            "  served request phases (mean us): queue {:.1}  assembly {:.1}  forward {:.1}  reply {:.1}",
            serve.per_request(serve.queue_wait_us),
            serve.per_request(serve.assembly_us),
            serve.per_request(serve.forward_us),
            serve.per_request(serve.reply_us)
        );
    }
    let _ = write!(
        table,
        "dominant {} {:.4}\nattributed {:.4} (tolerance {})",
        top.0,
        ratio(top.1 as f64, busy_ns as f64),
        attributed,
        ATTRIBUTION_TOLERANCE
    );

    let overhead = |metric: &str| {
        let traced = e2e.iter().find(|m| m.0 == metric).map_or(f64::NAN, |m| m.1);
        match baseline.and_then(|b| baseline_value(b, metric)) {
            Some(base) => (traced - base) / base * 100.0,
            None => f64::NAN,
        }
    };
    let pool = (timed.get("nn/pool_hits") + timed.get("nn/pool_misses")) as f64;
    let proposed = explore.proposed as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| (name, value, unit);
    let metrics = vec![
        m(
            "workloads.build_env_s",
            all.mean_s("workloads.build_env"),
            "s",
        ),
        m("sim.points_simulated", run.points_simulated as f64, "count"),
        m("maml.pretrain_s", pretrain_s, "s"),
        m("maml.meta_tasks", run.meta_tasks as f64, "count"),
        m(
            "maml.ms_per_meta_task",
            ratio(train_s_per_pretrain * 1e3, run.meta_tasks as f64),
            "ms",
        ),
        m("maml.epoch_s", ratio(epoch_s, epochs as f64), "s"),
        m("maml.validate_s", ratio(validate_s, validates as f64), "s"),
        m("wam.generate_mask_s", all.mean_s("wam.generate_mask"), "s"),
        m("wam.adapt_ms", all.mean_s("wam.adapt") * 1e3, "ms"),
        m(
            "wam.adapt_steps",
            timed.get("wam/adapt_steps") as f64,
            "count",
        ),
        m(
            "predictor.predict_ms",
            all.mean_s("predictor.predict") * 1e3,
            "ms",
        ),
        m(
            "nn.matmul_flops",
            timed.get("nn/matmul_flops") as f64,
            "count",
        ),
        m(
            "nn.matmul_calls",
            timed.get("nn/matmul_calls") as f64,
            "count",
        ),
        m(
            "nn.fused_calls",
            timed.get("nn/fused_calls") as f64,
            "count",
        ),
        m(
            "nn.pool_hit_ratio",
            ratio(timed.get("nn/pool_hits") as f64, pool),
            "ratio",
        ),
        m(
            "parallel.fanouts_parallel",
            timed.get("parallel/fanouts_parallel") as f64,
            "count",
        ),
        m(
            "parallel.spawned_workers",
            timed.get("parallel/spawned_workers") as f64,
            "count",
        ),
        m(
            "maml.worker_rebuilds",
            timed.get("maml/worker_rebuilds") as f64,
            "count",
        ),
        m("session.open_ms", all.mean_s("session.open") * 1e3, "ms"),
        m("session.step_ms", all.mean_s("session.step") * 1e3, "ms"),
        m("session.close_ms", all.mean_s("session.close") * 1e3, "ms"),
        m("session.checkpoints", explore.checkpoints as f64, "count"),
        m("session.proposed", proposed, "count"),
        m("session.predicted", explore.predicted as f64, "count"),
        m("session.cache_hits", explore.cache_hits as f64, "count"),
        m(
            "session.cache_hit_ratio",
            ratio(explore.cache_hits as f64, proposed),
            "ratio",
        ),
        m("session.shed", explore.shed as f64, "count"),
        m(
            "session.duplicate_predictions",
            explore.duplicate_predictions as f64,
            "count",
        ),
        m(
            "server.queue_wait_us",
            serve.per_request(serve.queue_wait_us),
            "us",
        ),
        m(
            "server.assembly_us",
            serve.per_request(serve.assembly_us),
            "us",
        ),
        m(
            "server.forward_us",
            serve.per_request(serve.forward_us),
            "us",
        ),
        m("server.reply_us", serve.per_request(serve.reply_us), "us"),
        m(
            "server.batch_size_mean",
            ratio(serve.batch_sum, serve.batch_count as f64),
            "count",
        ),
        m("registry.plan_cache_hits", serve.plan_hits as f64, "count"),
        m(
            "registry.plan_cache_misses",
            serve.plan_misses as f64,
            "count",
        ),
        m(
            "registry.plan_compile_us",
            serve.plan_compile_us as f64,
            "us",
        ),
        m("trace.attributed_share", attributed, "ratio"),
        m(
            "trace.top_self_share",
            ratio(top.1 as f64, busy_ns as f64),
            "ratio",
        ),
        m("trace.overhead_pretrain_pct", overhead("pretrain_s"), "%"),
        m("trace.overhead_adapt_pct", overhead("adapt_p50_ms"), "%"),
        m("trace.overhead_round_pct", overhead("round_p50_ms"), "%"),
    ];
    Report {
        metrics,
        table,
        violations,
    }
}
