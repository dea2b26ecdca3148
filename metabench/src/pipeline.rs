//! The paper pipeline's stages as the benchmark drives them: the
//! simulated environment, MAML pre-training plus the WAM mask, and masked
//! per-task adaptation on the test workloads.

use std::time::Instant;

use metadse::evaluation::TaskScores;
use metadse::experiment::{geomean_of, Environment, Scale};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::{maml, wam, AdaptConfig, MamlConfig, PretrainReport};
use metadse_nn::layers::{self, Module, Param};
use metadse_nn::Tensor;
use metadse_workloads::{Metric, Task, TaskSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::Digest;
use crate::trace::Tracer;

/// The run seed drives the online inputs only: target tasks here, and
/// exploration sessions in `explore`. The simulated environment, the
/// model initialisation and the meta-task stream are fixed
/// (`Scale::scaled().seed`, `MamlConfig::scaled().seed`): pre-training
/// this short swings the validation loss and every downstream quality
/// figure by a third from one meta-task stream to the next, so a
/// seed-driven pre-training would make those figures unusable as guards.
const TASK_STREAM: u64 = 0x94d0_49bb_1331_11eb;

/// Target tasks: K = 10 support shots, 45 query points (Fig. 5).
const TARGET_SUPPORT: usize = 10;
const TARGET_QUERY: usize = 45;
/// Validation tasks per validation workload per epoch: 5 × 4 = 20 tasks,
/// above the fan-out cutoff, so meta-validation runs on worker threads.
const VAL_TASKS: usize = 4;

/// Meta-training budget of one pre-training run.
pub struct Budget {
    pub epochs: usize,
    pub iterations: usize,
}

/// The timed pre-training of `meta_pretrain`.
pub const FULL: Budget = Budget {
    epochs: 2,
    iterations: 3,
};
/// The pre-training inside the set-up of the other two workloads.
pub const SHORT: Budget = Budget {
    epochs: 1,
    iterations: 3,
};

pub fn build_env(tracer: &Tracer) -> Environment {
    let scale = Scale::scaled();
    let _span = tracer.span("workloads.build_env");
    Environment::build(&scale, scale.seed)
}

/// Simulated design points in an environment.
pub fn points_simulated(env: &Environment) -> usize {
    env.datasets.values().map(|d| d.len()).sum()
}

fn maml_config(budget: &Budget) -> MamlConfig {
    MamlConfig {
        epochs: budget.epochs,
        iterations_per_epoch: budget.iterations,
        val_tasks: VAL_TASKS,
        ..MamlConfig::scaled()
    }
}

/// Meta-tasks one pre-training run trains on (validation excluded).
pub fn meta_tasks(env: &Environment, budget: &Budget) -> usize {
    budget.epochs * budget.iterations * env.split.train.len()
}

pub struct Pretrained {
    pub model: TransformerPredictor,
    pub mask: Param,
    pub report: PretrainReport,
    /// Wall time of pre-training plus mask generation.
    pub wall_s: f64,
}

impl Pretrained {
    pub fn val_loss(&self) -> f64 {
        *self.report.val_losses.last().expect("at least one epoch")
    }
}

/// First-order MAML pre-training from a fresh model, then the WAM mask.
pub fn pretrain(env: &Environment, budget: &Budget, tracer: &Tracer) -> Pretrained {
    let config = maml_config(budget);
    let train = env.train_datasets();
    let validation = env.validation_datasets();
    let model = TransformerPredictor::new(PredictorConfig::default(), Scale::scaled().seed);

    let timed = tracer.span("bench.timed_pretrain");
    let started = Instant::now();
    let report = {
        let _span = tracer.span("maml.pretrain");
        maml::pretrain(&model, &train, &validation, Metric::Ipc, &config)
    };
    let mask = {
        let _span = tracer.span("wam.generate_mask");
        wam::generate_mask(&model, &train, &Scale::scaled().wam, 64)
    };
    let wall_s = started.elapsed().as_secs_f64();
    drop(timed);
    Pretrained {
        model,
        mask,
        report,
        wall_s,
    }
}

/// `per_workload` target tasks for each test workload, workload-major.
pub fn target_tasks(env: &Environment, seed: u64, per_workload: usize) -> Vec<Vec<Task>> {
    let sampler = TaskSampler::new(TARGET_SUPPORT, TARGET_QUERY);
    let mut rng = StdRng::seed_from_u64(seed ^ TASK_STREAM);
    env.split
        .test
        .iter()
        .map(|&w| {
            (0..per_workload)
                .map(|_| sampler.sample(env.dataset(w), Metric::Ipc, &mut rng))
                .collect()
        })
        .collect()
}

/// Masked adaptation of one task. Untraced, this is one call to
/// `wam::adapt_and_predict`. Traced, the same work runs as its public
/// parts, each in its own span: mask install, support-set SGD, query
/// forward, restore.
pub fn adapt_task(
    model: &TransformerPredictor,
    mask: &Param,
    task: &Task,
    tracer: &Tracer,
) -> Vec<f64> {
    let config = AdaptConfig::default();
    if !tracer.enabled() {
        return wam::adapt_and_predict(model, task, Some(mask), &config);
    }
    {
        let _span = tracer.span("predictor.install_mask");
        let fresh = Param::new(
            "wam.mask",
            Tensor::param_from_vec(mask.get().to_vec(), &mask.shape()),
        );
        model.install_mask(fresh);
    }
    let params = model.params();
    let theta = {
        let _span = tracer.span("wam.adapt");
        wam::adapt(model, &task.support_x, &task.support_y, &config)
    };
    let predictions = {
        let _span = tracer.span("predictor.predict");
        model.predict(&task.query_x)
    };
    {
        let _span = tracer.span("layers.restore");
        layers::restore(&params, &theta);
        model.clear_masks();
        metadse_nn::tensor::pool::reclaim();
    }
    predictions
}

/// A finished closed-loop pass: a single client sent every task, one at
/// a time.
pub struct AdaptPass {
    pub latencies_ms: Vec<f64>,
    /// Tasks with a non-finite prediction.
    pub failed: u64,
    /// Every prediction's bits, in task order.
    pub digest: u64,
    /// Geometric mean over test workloads of the mean query RMSE.
    pub ipc_rmse: f64,
}

/// Adapts every task of `tasks` (one list per test workload) in turn.
pub fn adapt_pass(
    model: &TransformerPredictor,
    mask: &Param,
    tasks: &[Vec<Task>],
    tracer: &Tracer,
) -> AdaptPass {
    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let mut digest = Digest::default();
    let mut rmse_by_workload = Vec::new();
    for workload_tasks in tasks {
        let mut scores = TaskScores::new();
        for task in workload_tasks {
            let predictions = {
                let _span = tracer.span("bench.timed_task");
                let t0 = Instant::now();
                let predictions = adapt_task(model, mask, task, tracer);
                latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                predictions
            };
            if predictions.iter().any(|p| !p.is_finite()) {
                failed += 1;
            }
            digest.f64s(&predictions);
            scores.push(&task.query_y, &predictions);
        }
        rmse_by_workload.push(scores.summary().rmse_mean);
    }
    AdaptPass {
        latencies_ms,
        failed,
        digest: digest.value(),
        ipc_rmse: geomean_of(&rmse_by_workload),
    }
}

/// Whether the traced split path predicts bit-identically to
/// `wam::adapt_and_predict` on `task`.
pub fn split_matches_fused(
    model: &TransformerPredictor,
    mask: &Param,
    task: &Task,
    tracer: &Tracer,
) -> bool {
    let split = adapt_task(model, mask, task, tracer);
    let whole = wam::adapt_and_predict(model, task, Some(mask), &AdaptConfig::default());
    split.len() == whole.len()
        && split
            .iter()
            .zip(&whole)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}
