//! Trained models are pinned bit for bit.
//!
//! A small CS1 and a small CS3 pipeline run for two epochs at one and two
//! kernel threads. The FNV-1a checksum of the serialized model, and of the
//! f32 top-3 answers it gives one query at a time, must equal the values
//! recorded before the packed GEMM engine replaced the blocked one. Any
//! change to the kernels, the loss or the trainer that moves a single bit
//! of a weight or of a served probability fails here.

use airchitect::model::AirchitectModel;
use airchitect::persist;
use airchitect::pipeline::{self, PipelineConfig};
use airchitect_data::Dataset;

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
        assert_eq!(
            (model, answers),
            (0x8923_ab3e_0c4b_31a9, 0x7bc5_2e96_5f9a_ec66),
            "CS1 model at {threads} thread(s): {model:#018x} / {answers:#018x}"
        );
    }
}

#[test]
fn case3_model_matches_golden_checksum() {
    for threads in [1, 2] {
        let run = pipeline::run_case3(&config(300, threads));
        let model = fnv1a(persist::to_bytes(&run.model).iter().copied());
        let answers = answers_checksum(&run.model, &run.test_set);
        assert_eq!(
            (model, answers),
            (0x88b3_ab0f_66d7_ec79, 0xb91b_c3c4_8e0e_e480),
            "CS3 model at {threads} thread(s): {model:#018x} / {answers:#018x}"
        );
    }
}
