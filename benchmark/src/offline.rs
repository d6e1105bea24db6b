//! The offline pipeline, one public stage call at a time: generate →
//! `split::paper_split` → train → quantize (`Recommender::new`) → predict +
//! penalty, composed as `pipeline::run_case1` / `run_case3` compose them, so
//! each stage can be timed on its own.
//!
//! Generation is called in chunks and training observed per epoch. Both
//! repeat the same work, so each is counted at its typical time: the
//! fastest chunk and the fastest epoch of the run (the pipeline's own, then
//! those of each [`CaseRun::resample`]). On a machine shared with other
//! tenants, the program's own work only ever runs slower while a neighbour
//! is busy: on a 2-core x86-64 guest a 50-sample CS3 chunk took either
//! 36–43 ms or 58–68 ms, switching every fraction of a second to several
//! seconds, and slow for up to three quarters of a run. The fastest of many
//! short parts is the work's own cost, which a slow spell does not move.

use std::time::Instant;

use airchitect::eval::{self, PenaltyReport};
use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::Recommender;
use airchitect_data::{split, Dataset};
use airchitect_dse::case1::{self, Case1DatasetSpec, Case1Problem};
use airchitect_dse::case2::{self, Case2DatasetSpec, Case2Problem};
use airchitect_dse::case3::{self, Case3DatasetSpec, Case3Problem};
use airchitect_nn::optim::Optimizer;
use airchitect_nn::train::TrainConfig;

/// Size and schedule of one case-study run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Labelled samples generated.
    pub samples: usize,
    /// Generation calls the samples are split over.
    pub chunks: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Kernel threads for training.
    pub threads: usize,
    /// Seed of generation, split, initialisation and shuffling.
    pub seed: u64,
}

impl Spec {
    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            optimizer: Optimizer::adam(1e-3),
            seed: self.seed,
            lr_decay: 1.0,
            threads: self.threads,
        }
    }

    /// Seed of generation chunk `k`. Chunk 0 uses the run seed itself, so a
    /// one-chunk run generates exactly the dataset `pipeline::run_case*`
    /// generates.
    fn chunk_seed(&self, k: usize) -> u64 {
        self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Samples in chunk `k`.
    fn chunk_len(&self, k: usize) -> usize {
        let chunks = self.chunks.max(1);
        self.samples * (k + 1) / chunks - self.samples * k / chunks
    }
}

/// Generation chunks timed by each [`CaseRun::resample`].
pub const RESAMPLE_CHUNKS: usize = 4;
/// Training epochs timed by each [`CaseRun::resample`].
pub const RESAMPLE_EPOCHS: usize = 2;

/// The stages, in order.
pub const STAGES: [&str; 5] = ["generate", "split", "train", "quantize", "eval"];

type Generate = Box<dyn Fn(usize, u64) -> Dataset>;

/// What one case-study run produced and how long each stage took.
pub struct CaseRun {
    /// The case study.
    pub case: CaseStudy,
    /// The trained, int8-compiled recommender.
    pub recommender: Recommender,
    /// `(stage, start, end)` for each of [`STAGES`].
    pub stages: Vec<(&'static str, Instant, Instant)>,
    /// Seconds of each generation call: the pipeline's own chunks first,
    /// then those of each [`CaseRun::resample`].
    pub chunk_s: Vec<f64>,
    /// Seconds of each training epoch, ordered as `chunk_s` (an epoch
    /// includes binning the datasets when it is the first of its call).
    pub epoch_s: Vec<f64>,
    /// Samples generated.
    pub samples: usize,
    /// Rows in the training split.
    pub train_rows: usize,
    /// Accuracy on the test split.
    pub test_accuracy: f64,
    /// Geometric mean of normalised performance on the test split.
    pub penalty_geomean: f64,
    /// Share of test rows where the int8 top-1 equals the f32 top-1.
    pub int8_agreement: f64,
    /// Floating-point operations of training, from the layer shapes:
    /// forward + two backward products per training row and epoch, plus a
    /// forward pass per validation row and epoch.
    pub train_flops: f64,
    own_chunks: usize,
    own_epochs: usize,
    spec: Spec,
    config: AirchitectConfig,
    generate: Generate,
    train: Dataset,
    validation: Dataset,
}

/// Trains a fresh model with `config`, returning it and each epoch's time.
fn train(
    case: CaseStudy,
    config: &AirchitectConfig,
    train: &Dataset,
    validation: &Dataset,
) -> (AirchitectModel, Vec<f64>) {
    let mut model = AirchitectModel::new(case, config);
    let mut epochs = Vec::with_capacity(config.train.epochs);
    let mut last = Instant::now();
    // `train_with_validation` is this call with a no-op observer.
    model
        .train_resumable(train, Some(validation), None, |_| {
            epochs.push(last.elapsed().as_secs_f64());
            last = Instant::now();
            Ok(())
        })
        .expect("generated datasets are valid");
    (model, epochs)
}

impl CaseRun {
    /// Wall seconds of `stage`.
    pub fn stage_s(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(name, ..)| *name == stage)
            .map(|(_, a, b)| b.duration_since(*a).as_secs_f64())
            .sum()
    }

    /// Seconds of `stage` with its repeated parts (generation chunks,
    /// training epochs) each counted at the fastest one's time; the rest of
    /// the stage as measured.
    pub fn steady_s(&self, stage: &str) -> f64 {
        let (parts, own) = match stage {
            "generate" => (&self.chunk_s, self.own_chunks),
            "train" => (&self.epoch_s, self.own_epochs),
            _ => return self.stage_s(stage),
        };
        let Some(fastest) = parts.iter().copied().reduce(f64::min) else {
            return self.stage_s(stage);
        };
        self.stage_s(stage) - parts[..own].iter().sum::<f64>() + fastest * own as f64
    }

    /// Seconds over every stage, as [`CaseRun::steady_s`].
    pub fn total_s(&self) -> f64 {
        STAGES.iter().map(|s| self.steady_s(s)).sum()
    }

    /// Times [`RESAMPLE_CHUNKS`] more generation chunks (fresh samples of a
    /// pipeline chunk's size) and [`RESAMPLE_EPOCHS`] more training epochs
    /// (a fresh model on the same split), appended to [`CaseRun::chunk_s`]
    /// and [`CaseRun::epoch_s`].
    pub fn resample(&mut self) {
        for _ in 0..RESAMPLE_CHUNKS {
            // Indices past the pipeline's own chunks, so each seed is fresh.
            let k = self.chunk_s.len();
            let start = Instant::now();
            std::hint::black_box((self.generate)(
                self.spec.chunk_len(0),
                self.spec.chunk_seed(k),
            ));
            self.chunk_s.push(start.elapsed().as_secs_f64());
        }
        let config = AirchitectConfig {
            train: TrainConfig {
                epochs: RESAMPLE_EPOCHS,
                ..self.config.train
            },
            ..self.config
        };
        let (_, epochs) = train(self.case, &config, &self.train, &self.validation);
        self.epoch_s.extend(epochs);
    }
}

fn timed<T>(
    stages: &mut Vec<(&'static str, Instant, Instant)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    stages.push((name, start, Instant::now()));
    out
}

fn run_stages(
    case: CaseStudy,
    spec: &Spec,
    classes: u32,
    generate: Generate,
    penalty: impl FnOnce(&Dataset, &[u32]) -> PenaltyReport,
) -> CaseRun {
    let mut stages = Vec::with_capacity(STAGES.len());
    let chunks = spec.chunks.clamp(1, spec.samples.max(1));
    let mut chunk_s = Vec::with_capacity(chunks);
    let dataset = timed(&mut stages, "generate", || {
        let mut all: Option<Dataset> = None;
        for k in 0..chunks {
            let start = Instant::now();
            let part = generate(spec.chunk_len(k), spec.chunk_seed(k));
            chunk_s.push(start.elapsed().as_secs_f64());
            match all.as_mut() {
                None => all = Some(part),
                Some(all) => {
                    for i in 0..part.len() {
                        all.push(part.row(i), part.label(i))
                            .expect("same case study");
                    }
                }
            }
        }
        all.expect("at least one chunk")
    });
    let parts = timed(&mut stages, "split", || {
        split::paper_split(&dataset, spec.seed).expect("80:10:10 fractions are valid")
    });
    let config = AirchitectConfig {
        num_classes: classes,
        train: spec.train_config(),
        seed: spec.seed,
        ..Default::default()
    };
    let (model, epoch_s) = timed(&mut stages, "train", || {
        train(case, &config, &parts.train, &parts.validation)
    });
    let recommender = timed(&mut stages, "quantize", || {
        Recommender::new(model).expect("the model was trained")
    });
    let (predictions, report) = timed(&mut stages, "eval", || {
        let predictions = recommender.model().predict(&parts.test);
        let report = penalty(&parts.test, &predictions);
        (predictions, report)
    });
    let agree = (0..parts.test.len())
        .filter(|&i| recommender.quantized_top1(parts.test.row(i)) == Some(predictions[i]))
        .count();
    let forward = 2.0 * (case.input_dim() * config.embed_dim) as f64 * config.hidden as f64
        + 2.0 * config.hidden as f64 * f64::from(classes);
    let rows_per_epoch = 3 * parts.train.len() + parts.validation.len();
    CaseRun {
        case,
        recommender,
        stages,
        own_chunks: chunk_s.len(),
        own_epochs: epoch_s.len(),
        chunk_s,
        epoch_s,
        samples: dataset.len(),
        train_rows: parts.train.len(),
        test_accuracy: report.accuracy,
        penalty_geomean: report.geomean,
        int8_agreement: agree as f64 / parts.test.len().max(1) as f64,
        train_flops: forward * (rows_per_epoch * spec.epochs) as f64,
        spec: *spec,
        config,
        generate,
        train: parts.train,
        validation: parts.validation,
    }
}

/// CS1 over MAC budgets `2^lo ..= 2^hi`, the output space enumerated at
/// the top budget (as `pipeline::run_case1`).
pub fn run_case1(spec: &Spec, budget_log2_range: (u32, u32)) -> CaseRun {
    let max_budget = 1u64 << budget_log2_range.1;
    let problem = Case1Problem::new(max_budget);
    let generator = Case1Problem::new(max_budget);
    run_stages(
        CaseStudy::ArrayDataflow,
        spec,
        problem.space().len() as u32,
        Box::new(move |samples, seed| {
            case1::generate_dataset(
                &generator,
                &Case1DatasetSpec {
                    samples,
                    budget_log2_range,
                    seed,
                },
            )
        }),
        |test, preds| eval::case1_penalty(&problem, test, preds),
    )
}

/// CS3 (as `pipeline::run_case3`).
pub fn run_case3(spec: &Spec) -> CaseRun {
    let problem = Case3Problem::new();
    let generator = Case3Problem::new();
    run_stages(
        CaseStudy::MultiArrayScheduling,
        spec,
        problem.space().len() as u32,
        Box::new(move |samples, seed| {
            case3::generate_dataset(&generator, &Case3DatasetSpec { samples, seed })
        }),
        |test, preds| eval::case3_penalty(&problem, test, preds),
    )
}

/// A small CS2 model for the server to load. CS2 is served but not part of
/// the timed pipeline, so its size only has to give a valid model.
pub fn fixture_case2(seed: u64) -> AirchitectModel {
    let problem = Case2Problem::new();
    let dataset = case2::generate_dataset(
        &problem,
        &Case2DatasetSpec {
            samples: 1_000,
            seed,
            ..Default::default()
        },
    );
    let mut model = AirchitectModel::new(
        CaseStudy::BufferSizing,
        &AirchitectConfig {
            num_classes: problem.space().len() as u32,
            train: TrainConfig {
                epochs: 2,
                batch_size: 64,
                seed,
                ..Default::default()
            },
            seed,
            ..Default::default()
        },
    );
    model.train(&dataset).expect("generated datasets are valid");
    model
}
