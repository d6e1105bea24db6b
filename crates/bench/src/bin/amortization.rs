//! The economics of learned DSE (paper Fig. 1): offline dataset generation
//! and training are paid once; each query then costs one inference instead
//! of one exhaustive search. This binary measures all three costs and
//! reports the break-even query count per case study.

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect_bench::{banner, scaled, write_csv};
use airchitect_dse::case1::{self, Case1Problem};
use airchitect_dse::case2::{self, Case2Problem, Case2Query};
use airchitect_dse::case3::{self, Case3Problem};
use airchitect_nn::train::TrainConfig;
use std::time::Instant;

struct Costs {
    name: &'static str,
    datagen_per_sample_us: f64,
    train_total_s: f64,
    search_us: f64,
    inference_us: f64,
    samples: usize,
}

fn time_us<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    banner("Amortization: offline cost vs per-query savings");
    let samples = scaled(4_000);
    let train_config = TrainConfig {
        epochs: 10,
        batch_size: 256,
        ..Default::default()
    };
    let mut results: Vec<Costs> = Vec::new();

    // --- Case study 1 ---
    {
        let problem = Case1Problem::new(1 << 15);
        let t0 = Instant::now();
        let ds = case1::generate_dataset(
            &problem,
            &case1::Case1DatasetSpec {
                samples,
                budget_log2_range: (5, 15),
                seed: 1,
            },
        );
        let datagen = t0.elapsed().as_secs_f64() * 1e6 / samples as f64;
        let mut model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
            &AirchitectConfig {
                num_classes: ds.num_classes(),
                train: train_config,
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        model.train(&ds).expect("valid dataset");
        let train_s = t0.elapsed().as_secs_f64();
        let wl = airchitect_workload::GemmWorkload::new(512, 256, 384).expect("static dims");
        let search = time_us(200, || problem.search(&wl, 1 << 15));
        let feats = Case1Problem::features(&wl, 1 << 15);
        let infer = time_us(2000, || model.predict_row(&feats));
        results.push(Costs {
            name: "case1",
            datagen_per_sample_us: datagen,
            train_total_s: train_s,
            search_us: search,
            inference_us: infer,
            samples,
        });
    }

    // --- Case study 2 ---
    {
        let problem = Case2Problem::new();
        let t0 = Instant::now();
        let ds = case2::generate_dataset(
            &problem,
            &case2::Case2DatasetSpec {
                samples,
                seed: 1,
                ..Default::default()
            },
        );
        let datagen = t0.elapsed().as_secs_f64() * 1e6 / samples as f64;
        let mut model = AirchitectModel::new(
            CaseStudy::BufferSizing,
            &AirchitectConfig {
                num_classes: ds.num_classes(),
                train: train_config,
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        model.train(&ds).expect("valid dataset");
        let train_s = t0.elapsed().as_secs_f64();
        let q = Case2Query::from_features(&[1500.0, 512.0, 256.0, 384.0, 16.0, 16.0, 0.0, 8.0]);
        let search = time_us(200, || problem.search(&q));
        let feats = q.features();
        let infer = time_us(2000, || model.predict_row(&feats));
        results.push(Costs {
            name: "case2",
            datagen_per_sample_us: datagen,
            train_total_s: train_s,
            search_us: search,
            inference_us: infer,
            samples,
        });
    }

    // --- Case study 3 ---
    {
        let problem = Case3Problem::new();
        let cs3_samples = scaled(1_000);
        let t0 = Instant::now();
        let ds = case3::generate_dataset(
            &problem,
            &case3::Case3DatasetSpec {
                samples: cs3_samples,
                seed: 1,
            },
        );
        let datagen = t0.elapsed().as_secs_f64() * 1e6 / cs3_samples as f64;
        let mut model = AirchitectModel::new(
            CaseStudy::MultiArrayScheduling,
            &AirchitectConfig {
                num_classes: ds.num_classes(),
                train: train_config,
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        model.train(&ds).expect("valid dataset");
        let train_s = t0.elapsed().as_secs_f64();
        let wls: Vec<_> = (1..=4)
            .map(|i| {
                airchitect_workload::GemmWorkload::new(i * 100, i * 50, i * 25)
                    .expect("static dims")
            })
            .collect();
        let search = time_us(50, || problem.search(&wls));
        let feats = Case3Problem::features(&wls);
        let infer = time_us(2000, || model.predict_row(&feats));
        results.push(Costs {
            name: "case3",
            datagen_per_sample_us: datagen,
            train_total_s: train_s,
            search_us: search,
            inference_us: infer,
            samples: cs3_samples,
        });
    }

    println!(
        "\n  {:<6} {:>14} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "case", "datagen/sample", "train", "search/query", "infer/query", "speedup", "break-even"
    );
    let mut rows = Vec::new();
    for c in &results {
        let offline_us = c.datagen_per_sample_us * c.samples as f64 + c.train_total_s * 1e6;
        let saving = c.search_us - c.inference_us;
        let break_even = if saving > 0.0 {
            format!("{}", (offline_us / saving).ceil() as u64)
        } else {
            "n/a (search cheaper)".to_string()
        };
        println!(
            "  {:<6} {:>11.1} us {:>8.1}s {:>9.1} us {:>9.1} us {:>9.1}x {:>12}",
            c.name,
            c.datagen_per_sample_us,
            c.train_total_s,
            c.search_us,
            c.inference_us,
            c.search_us / c.inference_us,
            break_even
        );
        rows.push(format!(
            "{},{:.2},{:.2},{:.2},{:.2},{break_even}",
            c.name, c.datagen_per_sample_us, c.train_total_s, c.search_us, c.inference_us
        ));
    }
    write_csv(
        "amortization",
        "case,datagen_per_sample_us,train_s,search_us,inference_us,break_even_queries",
        &rows,
    );
    println!("\n  notes:");
    println!("  * 'constant time' means the inference cost is one fixed forward pass,");
    println!("    independent of how many configurations the space holds per *search*;");
    println!("    it still scales with the softmax width across case studies.");
    println!("  * with this repository's analytical cost model, exhaustive search is");
    println!("    microseconds in every case study: CS3 prices its 1944 schedules from");
    println!("    one 48-entry cost table, so even the largest space is searched faster");
    println!("    than one f32 forward pass. With the paper's real simulator (seconds");
    println!("    per config, step 1 of Fig. 1a) the search column multiplies by ~10^6");
    println!("    and the break-even point drops to a handful of queries.");
}
