//! The benchmark against the real program: the composed pipeline stages
//! against `pipeline::run_case1`, and every workload end to end at 1/20 of
//! its length.

use std::path::PathBuf;

use airchitect::pipeline::{self, PipelineConfig};
use airchitect_benchmark::offline::{self, Spec};
use airchitect_benchmark::report::{END_TO_END, PER_LAYER};
use airchitect_benchmark::workload::Workload;
use airchitect_telemetry::json;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn composed_stages_reproduce_the_pipeline() {
    let config = PipelineConfig {
        samples: 600,
        epochs: 3,
        batch_size: 64,
        seed: 7,
        stratify: false,
        threads: 1,
    };
    let spec = Spec {
        samples: 600,
        chunks: 1,
        epochs: 3,
        batch_size: 64,
        threads: 1,
        seed: 7,
    };
    let reference = pipeline::run_case1(&config, (5, 9));
    let composed = offline::run_case1(&spec, (5, 9));
    assert_eq!(composed.test_accuracy, reference.test_accuracy);
    assert_eq!(composed.penalty_geomean, reference.penalty.geomean);
    assert_eq!(composed.stages.len(), offline::STAGES.len());

    let config = PipelineConfig {
        samples: 200,
        ..config
    };
    let reference = pipeline::run_case3(&config);
    let composed = offline::run_case3(&Spec {
        samples: 200,
        ..spec
    });
    assert_eq!(composed.test_accuracy, reference.test_accuracy);
    assert_eq!(composed.penalty_geomean, reference.penalty.geomean);
}

/// One test, so the workloads never share the two cores.
#[test]
fn every_workload_at_a_twentieth_of_its_length_fails_nothing() {
    let out = out_dir("short-runs");
    for workload in Workload::ALL {
        let outcome = airchitect_benchmark::execute(workload, 3, 1.0, 0.05, false, &out)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(outcome.correct, "{}: wrong answers", workload.name());
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert_eq!(outcome.end_to_end.len(), END_TO_END.len());
        assert!(
            outcome.end_to_end.iter().all(|v| v.is_finite() && *v > 0.0),
            "{}: {:?}",
            workload.name(),
            outcome.end_to_end
        );
        assert!(outcome.result_file.exists());
    }

    let outcome = airchitect_benchmark::execute(Workload::ServeCold, 4, 1.0, 0.05, true, &out)
        .expect("traced run");
    let layer = outcome
        .per_layer
        .as_ref()
        .expect("a traced run reports layers");
    assert_eq!(layer.len(), PER_LAYER.len());
    assert!(layer.iter().all(|v| v.is_finite()), "{layer:?}");
    let line = outcome.result_line();
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    assert!(line.contains("\"serve.cache.get_ns\":{\"value\":"));
    let spans = std::fs::read_to_string(out.join("serve_cold-seed4.spans.jsonl")).unwrap();
    for name in [
        "client.request",
        "http.try_parse",
        "pipeline.train",
        "reload",
    ] {
        assert!(
            spans.contains(&format!("\"name\":\"{name}\"")),
            "no {name} span"
        );
    }
    // Spans from before the load generator started keep their times.
    let train = spans
        .lines()
        .map(|l| json::parse(l).expect("one JSON object per line"))
        .find(|s| s.get("name").and_then(json::Value::as_str) == Some("pipeline.train"))
        .expect("a pipeline.train span");
    let ns = |k| train.get(k).and_then(json::Value::as_u64).unwrap();
    assert!(ns("end_ns") > ns("start_ns"), "empty pipeline.train span");
}
