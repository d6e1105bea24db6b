//! Trained models and the artifacts built from them are pinned bit for bit.
//!
//! A small CS1 and a small CS3 pipeline run for two epochs at one and two
//! kernel threads. The FNV-1a checksum of the serialized model, and of the
//! f32 top-3 answers it gives one query at a time, must equal the values
//! recorded before the packed GEMM engine replaced the blocked one. Any
//! change to the kernels, the loss or the trainer that moves a single bit
//! of a weight or of a served probability fails here. The int8 artifact
//! compiled from each model (`AIQN`) and the dataset codec's bytes (`AIDS`)
//! are pinned the same way, with values recorded before the bulk codecs and
//! the allocation-free int8 compiler replaced the per-value ones. The int8
//! path's top-3 answers and one CS2 dataset's bytes were recorded before
//! the int8 activation scan and the per-case generation steps were merged
//! into shared code.

use airchitect::model::AirchitectModel;
use airchitect::persist;
use airchitect::pipeline::{self, PipelineConfig};
use airchitect::Recommender;
use airchitect_data::{codec, Dataset};
use airchitect_dse::case1::{self, Case1DatasetSpec, Case1Problem};
use airchitect_dse::case2::{self, Case2DatasetSpec, Case2Problem};
use airchitect_nn::quant::QuantArena;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checksum of the single-row f32 answers (label and probability bits of
/// the top 3) over every row of `test`.
fn answers_checksum(model: &AirchitectModel, test: &Dataset) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..test.len() {
        for (label, p) in model.predict_topk(test.row(i), 3) {
            bytes.extend_from_slice(&label.to_le_bytes());
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    fnv1a(bytes)
}

/// Checksum of the int8 artifact the serving path compiles from `model`:
/// decoded from its `AIRM` bytes, as a server loads it.
fn quantized_checksum(model: &AirchitectModel) -> u64 {
    let loaded = persist::from_bytes(&persist::to_bytes(model)).expect("fresh bytes decode");
    let rec = Recommender::new(loaded).expect("pipeline models are trained");
    let quant = rec.quantized().expect("embedding MLPs quantize");
    fnv1a(quant.to_bytes().iter().copied())
}

/// Checksum of the int8 path's answers over every row of `test`: the top
/// 3 labels of each query and their logit bits.
fn int8_answers_checksum(model: &AirchitectModel, test: &Dataset) -> u64 {
    let rec = Recommender::new(model.clone()).expect("pipeline models are trained");
    let quant = rec.quantized().expect("embedding MLPs quantize");
    let mut arena = QuantArena::new();
    let mut bins = vec![0u8; test.feature_dim()];
    let mut bytes = Vec::new();
    for i in 0..test.len() {
        model.quantizer().bin_row_into(test.row(i), &mut bins);
        quant.infer(&bins, &mut arena);
        let logits = arena.logits().to_vec();
        for &label in arena.top_k(3) {
            bytes.extend_from_slice(&label.to_le_bytes());
            bytes.extend_from_slice(&logits[label as usize].to_bits().to_le_bytes());
        }
    }
    fnv1a(bytes)
}

fn config(samples: usize, threads: usize) -> PipelineConfig {
    PipelineConfig {
        samples,
        epochs: 2,
        batch_size: 64,
        seed: 7,
        stratify: false,
        threads,
    }
}

#[test]
fn case1_model_matches_golden_checksum() {
    for threads in [1, 2] {
        let run = pipeline::run_case1(&config(600, threads), (5, 9));
        let model = fnv1a(persist::to_bytes(&run.model).iter().copied());
        let answers = answers_checksum(&run.model, &run.test_set);
        let quant = quantized_checksum(&run.model);
        let int8 = int8_answers_checksum(&run.model, &run.test_set);
        assert_eq!(
            (model, answers, quant, int8),
            (
                0x8923_ab3e_0c4b_31a9,
                0x7bc5_2e96_5f9a_ec66,
                0x56f4_0626_f257_c52a,
                0xb804_990b_5475_9dbb
            ),
            "CS1 model at {threads} thread(s): \
             {model:#018x} / {answers:#018x} / {quant:#018x} / {int8:#018x}"
        );
    }
}

#[test]
fn case3_model_matches_golden_checksum() {
    for threads in [1, 2] {
        let run = pipeline::run_case3(&config(300, threads));
        let model = fnv1a(persist::to_bytes(&run.model).iter().copied());
        let answers = answers_checksum(&run.model, &run.test_set);
        let quant = quantized_checksum(&run.model);
        let int8 = int8_answers_checksum(&run.model, &run.test_set);
        assert_eq!(
            (model, answers, quant, int8),
            (
                0x88b3_ab0f_66d7_ec79,
                0xb91b_c3c4_8e0e_e480,
                0x27bc_eaee_ef50_e6e4,
                0x495a_805f_1d6d_9b7a
            ),
            "CS3 model at {threads} thread(s): \
             {model:#018x} / {answers:#018x} / {quant:#018x} / {int8:#018x}"
        );
    }
}

#[test]
fn generated_dataset_encodes_to_golden_bytes() {
    let cs1 = case1::generate_dataset(
        &Case1Problem::new(1 << 10),
        &Case1DatasetSpec {
            samples: 400,
            budget_log2_range: (5, 10),
            seed: 21,
        },
    );
    let cs2 = case2::generate_dataset(
        &Case2Problem::new(),
        &Case2DatasetSpec {
            samples: 300,
            seed: 21,
            ..Default::default()
        },
    );
    for (case, ds, golden) in [
        ("CS1", cs1, (8_028, 0x229f_52a3_86aa_37a1)),
        ("CS2", cs2, (10_828, 0x1d7a_6468_a7fb_dad0)),
    ] {
        let bytes = codec::to_bytes(&ds);
        let sum = fnv1a(bytes.iter().copied());
        assert_eq!(
            (bytes.len(), sum),
            golden,
            "{case} AIDS bytes: {} / {sum:#018x}",
            bytes.len()
        );
    }
}
