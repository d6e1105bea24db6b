//! The int8 hot path must pick the same top-1 label as the f32 network it
//! was compiled from. For each case study a seeded pipeline model answers
//! 400 in-distribution feature rows both ways; `quantized_top1` must equal
//! `predict_row` on at least 99.5 % of them.

use airchitect::pipeline::{run_case1, run_case2, run_case3, PipelineConfig};
use airchitect::Recommender;
use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case2::Case2Query;
use airchitect_dse::case3::Case3Problem;
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const MIN_AGREEMENT: f64 = 0.995;
const ROWS: usize = 400;
/// The CS1 training range of MAC budgets, as log2.
const CS1_BUDGET_LOG2: (u32, u32) = (5, 18);

fn pipeline(samples: usize) -> PipelineConfig {
    PipelineConfig {
        samples,
        epochs: 6,
        batch_size: 64,
        seed: 41,
        stratify: false,
        threads: 1,
    }
}

fn random_workload(rng: &mut StdRng) -> GemmWorkload {
    GemmWorkload::new(
        rng.random_range(16..2048u64),
        rng.random_range(16..2048u64),
        rng.random_range(16..2048u64),
    )
    .expect("dims are positive")
}

/// Asserts the int8 and f32 top-1 labels agree on `ROWS` rows of `row`.
fn assert_agreement(case: &str, rec: &Recommender, mut row: impl FnMut(&mut StdRng) -> Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(11);
    let agree = (0..ROWS)
        .map(|_| row(&mut rng))
        .filter(|row| {
            let int8 = rec.quantized_top1(row).expect("model compiles to int8");
            int8 == rec.model().predict_row(row)
        })
        .count();
    let agreement = agree as f64 / ROWS as f64;
    assert!(
        agreement >= MIN_AGREEMENT,
        "{case}: int8-vs-f32 top-1 agreement {agreement:.4} is below {MIN_AGREEMENT}"
    );
}

#[test]
fn cs1_int8_top1_agrees_with_f32() {
    let rec = Recommender::new(run_case1(&pipeline(600), CS1_BUDGET_LOG2).model).unwrap();
    assert_agreement("cs1", &rec, |rng| {
        let wl = random_workload(rng);
        let budget = 1u64 << rng.random_range(CS1_BUDGET_LOG2.0..=CS1_BUDGET_LOG2.1);
        Case1Problem::features(&wl, budget).to_vec()
    });
}

#[test]
fn cs2_int8_top1_agrees_with_f32() {
    let rec = Recommender::new(run_case2(&pipeline(600)).model).unwrap();
    // Query ranges mirror `Case2DatasetSpec::default()`.
    assert_agreement("cs2", &rec, |rng| {
        Case2Query {
            workload: random_workload(rng),
            array: ArrayConfig::new(
                1 << rng.random_range(2..=9u32),
                1 << rng.random_range(2..=9u32),
            )
            .expect("pow2 dims are non-zero"),
            dataflow: Dataflow::from_index(rng.random_range(0..3)).expect("index < 3"),
            bandwidth: rng.random_range(1..=100u64),
            limit_kb: rng.random_range(300..=3000u64),
        }
        .features()
        .to_vec()
    });
}

#[test]
fn cs3_int8_top1_agrees_with_f32() {
    // CS3 labels cost a schedule search per sample, so its set is smaller.
    let rec = Recommender::new(run_case3(&pipeline(300)).model).unwrap();
    assert_agreement("cs3", &rec, |rng| {
        let wls: Vec<GemmWorkload> = (0..4).map(|_| random_workload(rng)).collect();
        Case3Problem::features(&wls).to_vec()
    });
}
