//! The typed constant-time recommendation API (paper Fig. 1b, "Step 1'").
//!
//! A [`Recommender`] wraps a trained [`AirchitectModel`] together with the
//! output-space codec of its case study, so callers get domain types
//! (`ArrayConfig`, `Dataflow`, buffer sizes, `Schedule`) instead of raw
//! config IDs.

use std::cell::RefCell;

use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case2::{Case2Problem, Case2Query};
use airchitect_dse::case3::Case3Problem;
use airchitect_nn::quant::{QuantArena, QuantizedNetwork};
use airchitect_sim::multi::Schedule;
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_workload::GemmWorkload;

use crate::model::{AirchitectModel, CaseStudy};

thread_local! {
    /// Per-worker scratch arena for the quantized hot path. Thread-local
    /// so concurrent serve workers never contend, and reused across
    /// queries so the steady state allocates nothing.
    static ARENA: RefCell<QuantArena> = RefCell::new(QuantArena::new());
}

/// How many ranked candidates the fast paths probe with the cheap linear
/// top-K selection before falling back to a full sort of the logits. The
/// feasibility filter almost always accepts within the first few ranks,
/// so the full sort — several times the cost of the inference itself on
/// CS1 — stays off the common path.
const FAST_RANK_PROBE: usize = 8;

/// Error produced by a recommendation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecommendError {
    /// The wrapped model targets a different case study.
    WrongCaseStudy {
        /// The case study the model was trained for.
        model: CaseStudy,
        /// The case study the query requires.
        query: CaseStudy,
    },
    /// The model has not been trained.
    Untrained,
    /// The model emitted a label outside the output space (can happen when
    /// the configured class count exceeds the space size).
    LabelOutOfSpace {
        /// The offending label.
        label: u32,
    },
    /// No configuration in the output space fits the requested budget —
    /// MAC units for CS1 (budgets below 4 MACs admit no array shape), total
    /// buffer KB for CS2 (limits below 300 KB admit no split).
    NoFeasibleConfig {
        /// The budget that admitted nothing (MACs for CS1, KB for CS2).
        budget: u64,
    },
}

impl std::fmt::Display for RecommendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecommendError::WrongCaseStudy { model, query } => write!(
                f,
                "model trained for {} cannot answer {} queries",
                model.name(),
                query.name()
            ),
            RecommendError::Untrained => write!(f, "model has not been trained"),
            RecommendError::LabelOutOfSpace { label } => {
                write!(f, "predicted label {label} is outside the output space")
            }
            RecommendError::NoFeasibleConfig { budget } => {
                write!(f, "no in-space configuration fits a budget of {budget}")
            }
        }
    }
}

impl std::error::Error for RecommendError {}

/// A trained model plus its output-space codec.
#[derive(Debug, Clone)]
pub struct Recommender {
    model: AirchitectModel,
    /// Int8 compilation of `model`'s network, when its architecture
    /// supports the fused hot path. `None` falls back to the f32 path.
    quant: Option<QuantizedNetwork>,
}

impl Recommender {
    /// Wraps a trained model. The network is also compiled to the int8
    /// hot path when its architecture supports it (the `recommend_*_fast`
    /// variants fall back to the f32 path otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError::Untrained`] if the model has not been
    /// trained.
    pub fn new(model: AirchitectModel) -> Result<Self, RecommendError> {
        if !model.is_trained() {
            return Err(RecommendError::Untrained);
        }
        let quant = QuantizedNetwork::from_network(model.network()).ok();
        Ok(Self { model, quant })
    }

    /// The wrapped model.
    pub fn model(&self) -> &AirchitectModel {
        &self.model
    }

    /// The int8 compilation of the model, when available.
    pub fn quantized(&self) -> Option<&QuantizedNetwork> {
        self.quant.as_ref()
    }

    /// Runs one quantized inference over the thread-local arena and hands
    /// the logits-bearing arena to `f`. Telemetry mirrors the f32 path.
    fn infer_quant<R>(
        &self,
        quant: &QuantizedNetwork,
        features: &[f32],
        f: impl FnOnce(&mut QuantArena) -> R,
    ) -> R {
        let _t = airchitect_telemetry::metrics::INFER_QUERY_US.start_timer();
        airchitect_telemetry::metrics::INFER_QUERIES.inc();
        let mut bins = [0u8; 16];
        let n = features.len();
        self.model.quantizer().bin_row_into(features, &mut bins[..n]);
        ARENA.with(|a| {
            let mut arena = a.borrow_mut();
            quant.infer(&bins[..n], &mut arena);
            f(&mut arena)
        })
    }

    /// The quantized network's raw top-1 label for a feature row, or
    /// `None` when the model could not be compiled to the int8 path.
    ///
    /// Diagnostic companion to [`AirchitectModel::predict_row`]: comparing
    /// the two over a held-out set measures how often int8 quantization
    /// flips the top pick (the gate in `tests/int8_agreement.rs`).
    pub fn quantized_top1(&self, features: &[f32]) -> Option<u32> {
        let quant = self.quant.as_ref()?;
        Some(self.infer_quant(quant, features, |arena| arena.top1()))
    }

    fn check_case(&self, query: CaseStudy) -> Result<(), RecommendError> {
        if self.model.case_study() != query {
            return Err(RecommendError::WrongCaseStudy {
                model: self.model.case_study(),
                query,
            });
        }
        Ok(())
    }

    /// CS1: recommends an array shape and dataflow for a workload under a
    /// MAC budget — one inference, no search.
    ///
    /// The budget is a hard constraint, not a hint: the model's logits are
    /// unconstrained, so the classes are ranked and the most likely
    /// *feasible* configuration (`macs() <= mac_budget`) is returned.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError`] for case-study mismatches or when no
    /// in-space configuration fits the budget.
    pub fn recommend_array(
        &self,
        problem: &Case1Problem,
        workload: &GemmWorkload,
        mac_budget: u64,
    ) -> Result<(ArrayConfig, Dataflow), RecommendError> {
        self.check_case(CaseStudy::ArrayDataflow)?;
        let ranked = self.model.predict_topk(
            &Case1Problem::features(workload, mac_budget),
            self.model.config().num_classes as usize,
        );
        for (label, _) in ranked {
            if let Some((array, df)) = problem.space().decode(label) {
                if array.macs() <= mac_budget {
                    return Ok((array, df));
                }
            }
        }
        Err(RecommendError::NoFeasibleConfig { budget: mac_budget })
    }

    /// CS1: a ranked list of the `k` most likely (array, dataflow)
    /// recommendations with their softmax confidence — useful when the top
    /// pick is inconvenient (e.g. floorplan constraints).
    ///
    /// Labels outside the output space (possible when the model's class
    /// count exceeds the space) are skipped, so fewer than `k` entries may
    /// return.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError::WrongCaseStudy`] for non-CS1 models.
    pub fn recommend_array_topk(
        &self,
        problem: &Case1Problem,
        workload: &GemmWorkload,
        mac_budget: u64,
        k: usize,
    ) -> Result<Vec<(ArrayConfig, Dataflow, f32)>, RecommendError> {
        self.check_case(CaseStudy::ArrayDataflow)?;
        let ranked = self
            .model
            .predict_topk(&Case1Problem::features(workload, mac_budget), k);
        Ok(ranked
            .into_iter()
            .filter_map(|(label, p)| problem.space().decode(label).map(|(a, df)| (a, df, p)))
            .collect())
    }

    /// CS2: recommends `(ifmap_kb, filter_kb, ofmap_kb)` buffer sizes.
    ///
    /// The query's capacity limit is a hard constraint, exactly like the MAC
    /// budget in [`Recommender::recommend_array`]: classes are ranked and the
    /// most likely split whose total fits `limit_kb` is returned, rather
    /// than trusting the raw top-1 label to be feasible.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError`] for case-study mismatches or when no
    /// in-space split fits the capacity limit.
    pub fn recommend_buffers(
        &self,
        problem: &Case2Problem,
        query: &Case2Query,
    ) -> Result<(u64, u64, u64), RecommendError> {
        self.check_case(CaseStudy::BufferSizing)?;
        let ranked = self.model.predict_topk(
            &query.features(),
            self.model.config().num_classes as usize,
        );
        for (label, _) in ranked {
            if let Some((i, f, o)) = problem.space().decode(label) {
                if i + f + o <= query.limit_kb {
                    return Ok((i, f, o));
                }
            }
        }
        Err(RecommendError::NoFeasibleConfig {
            budget: query.limit_kb,
        })
    }

    /// CS2: a ranked list of the `k` most likely buffer splits with their
    /// softmax confidence, mirroring [`Recommender::recommend_array_topk`].
    ///
    /// Like the CS1 top-k, entries are *not* filtered by the capacity limit
    /// (the caller sees the model's honest ranking); labels outside the
    /// output space are skipped, so fewer than `k` entries may return.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError::WrongCaseStudy`] for non-CS2 models.
    pub fn recommend_buffers_topk(
        &self,
        problem: &Case2Problem,
        query: &Case2Query,
        k: usize,
    ) -> Result<Vec<(u64, u64, u64, f32)>, RecommendError> {
        self.check_case(CaseStudy::BufferSizing)?;
        let ranked = self.model.predict_topk(&query.features(), k);
        Ok(ranked
            .into_iter()
            .filter_map(|(label, p)| {
                problem.space().decode(label).map(|(i, f, o)| (i, f, o, p))
            })
            .collect())
    }

    /// CS3: recommends a schedule (workload-to-array mapping plus per-array
    /// dataflows) for four concurrent workloads.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError`] for case-study mismatches or out-of-space
    /// predictions.
    pub fn recommend_schedule(
        &self,
        problem: &Case3Problem,
        workloads: &[GemmWorkload],
    ) -> Result<Schedule, RecommendError> {
        self.check_case(CaseStudy::MultiArrayScheduling)?;
        let label = self.model.predict_row(&Case3Problem::features(workloads));
        let (perm, dfs) = problem
            .space()
            .decode(label)
            .ok_or(RecommendError::LabelOutOfSpace { label })?;
        Ok(Schedule::new(&perm, &dfs))
    }

    /// CS3: a ranked list of the `k` most likely schedules with their
    /// softmax confidence, mirroring [`Recommender::recommend_array_topk`].
    ///
    /// Labels outside the output space are skipped, so fewer than `k`
    /// entries may return.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError::WrongCaseStudy`] for non-CS3 models.
    pub fn recommend_schedule_topk(
        &self,
        problem: &Case3Problem,
        workloads: &[GemmWorkload],
        k: usize,
    ) -> Result<Vec<(Schedule, f32)>, RecommendError> {
        self.check_case(CaseStudy::MultiArrayScheduling)?;
        let ranked = self
            .model
            .predict_topk(&Case3Problem::features(workloads), k);
        Ok(ranked
            .into_iter()
            .filter_map(|(label, p)| {
                problem
                    .space()
                    .decode(label)
                    .map(|(perm, dfs)| (Schedule::new(&perm, &dfs), p))
            })
            .collect())
    }

    /// CS1 on the int8 hot path: same contract as
    /// [`Recommender::recommend_array`] (budget feasibility, error cases)
    /// but answered by the fused quantized pass — allocation-free after
    /// the per-thread arena has warmed up. The common case where the
    /// top-1 pick is feasible skips the full ranking entirely.
    ///
    /// Falls back to the f32 path when the model could not be quantized.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError`] for case-study mismatches or when no
    /// in-space configuration fits the budget.
    pub fn recommend_array_fast(
        &self,
        problem: &Case1Problem,
        workload: &GemmWorkload,
        mac_budget: u64,
    ) -> Result<(ArrayConfig, Dataflow), RecommendError> {
        self.check_case(CaseStudy::ArrayDataflow)?;
        let Some(quant) = &self.quant else {
            return self.recommend_array(problem, workload, mac_budget);
        };
        let features = Case1Problem::features(workload, mac_budget);
        self.infer_quant(quant, &features, |arena| {
            // Escalating rank walk: top-1, then a cheap linear top-K
            // selection, then the full sort only if the budget is so
            // tight that none of the likely picks fit.
            if let Some((array, df)) = problem.space().decode(arena.top1()) {
                if array.macs() <= mac_budget {
                    return Ok((array, df));
                }
            }
            for &label in arena.top_k(FAST_RANK_PROBE) {
                if let Some((array, df)) = problem.space().decode(label) {
                    if array.macs() <= mac_budget {
                        return Ok((array, df));
                    }
                }
            }
            for &label in arena.ranked() {
                if let Some((array, df)) = problem.space().decode(label) {
                    if array.macs() <= mac_budget {
                        return Ok((array, df));
                    }
                }
            }
            Err(RecommendError::NoFeasibleConfig { budget: mac_budget })
        })
    }

    /// CS2 on the int8 hot path: same contract as
    /// [`Recommender::recommend_buffers`] (capacity feasibility, error
    /// cases) but answered by the fused quantized pass.
    ///
    /// Falls back to the f32 path when the model could not be quantized.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError`] for case-study mismatches or when no
    /// in-space split fits the capacity limit.
    pub fn recommend_buffers_fast(
        &self,
        problem: &Case2Problem,
        query: &Case2Query,
    ) -> Result<(u64, u64, u64), RecommendError> {
        self.check_case(CaseStudy::BufferSizing)?;
        let Some(quant) = &self.quant else {
            return self.recommend_buffers(problem, query);
        };
        let features = query.features();
        self.infer_quant(quant, &features, |arena| {
            // Same escalating rank walk as `recommend_array_fast`.
            if let Some((i, f, o)) = problem.space().decode(arena.top1()) {
                if i + f + o <= query.limit_kb {
                    return Ok((i, f, o));
                }
            }
            for &label in arena.top_k(FAST_RANK_PROBE) {
                if let Some((i, f, o)) = problem.space().decode(label) {
                    if i + f + o <= query.limit_kb {
                        return Ok((i, f, o));
                    }
                }
            }
            for &label in arena.ranked() {
                if let Some((i, f, o)) = problem.space().decode(label) {
                    if i + f + o <= query.limit_kb {
                        return Ok((i, f, o));
                    }
                }
            }
            Err(RecommendError::NoFeasibleConfig {
                budget: query.limit_kb,
            })
        })
    }

    /// CS3 on the int8 hot path: same contract as
    /// [`Recommender::recommend_schedule`] but answered by the fused
    /// quantized pass (top-1 only, like the f32 variant).
    ///
    /// Falls back to the f32 path when the model could not be quantized.
    ///
    /// # Errors
    ///
    /// Returns [`RecommendError`] for case-study mismatches or
    /// out-of-space predictions.
    pub fn recommend_schedule_fast(
        &self,
        problem: &Case3Problem,
        workloads: &[GemmWorkload],
    ) -> Result<Schedule, RecommendError> {
        self.check_case(CaseStudy::MultiArrayScheduling)?;
        let Some(quant) = &self.quant else {
            return self.recommend_schedule(problem, workloads);
        };
        let features = Case3Problem::features(workloads);
        let label = self.infer_quant(quant, &features, |arena| arena.top1());
        let (perm, dfs) = problem
            .space()
            .decode(label)
            .ok_or(RecommendError::LabelOutOfSpace { label })?;
        Ok(Schedule::new(&perm, &dfs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AirchitectConfig;
    use crate::pipeline::{run_case1, run_case2, run_case3, PipelineConfig};

    fn array_16() -> ArrayConfig {
        ArrayConfig::new(16, 16).unwrap()
    }

    fn quick() -> PipelineConfig {
        PipelineConfig {
            samples: 400,
            epochs: 5,
            batch_size: 64,
            seed: 3,
            stratify: false,
            threads: 1,
        }
    }

    #[test]
    fn untrained_model_is_rejected() {
        let model = AirchitectModel::new(CaseStudy::ArrayDataflow, &AirchitectConfig::default());
        assert_eq!(
            Recommender::new(model).unwrap_err(),
            RecommendError::Untrained
        );
    }

    #[test]
    fn trained_recommender_returns_in_space_configs() {
        let run = run_case1(&quick(), (5, 9));
        let problem = Case1Problem::new(1 << 9);
        let rec = Recommender::new(run.model).unwrap();
        let wl = GemmWorkload::new(128, 64, 256).unwrap();
        let (array, df) = rec.recommend_array(&problem, &wl, 1 << 9).unwrap();
        assert!(array.macs() <= 1 << 9);
        assert!(Dataflow::ALL.contains(&df));
    }

    #[test]
    fn recommendation_honors_a_tight_mac_budget() {
        let run = run_case1(&quick(), (5, 9));
        let problem = Case1Problem::new(1 << 9);
        let rec = Recommender::new(run.model).unwrap();
        // Budgets far below the training range: the raw top-1 label almost
        // certainly decodes to an oversized array, so feasibility filtering
        // must kick in rather than the budget being silently ignored.
        for budget_log2 in [5u32, 6, 7] {
            let budget = 1u64 << budget_log2;
            for (m, n, k) in [(128, 64, 256), (200, 100, 50), (32, 32, 32)] {
                let wl = GemmWorkload::new(m, n, k).unwrap();
                let (array, _) = rec.recommend_array(&problem, &wl, budget).unwrap();
                assert!(
                    array.macs() <= budget,
                    "array with {} MACs exceeds budget {budget}",
                    array.macs()
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_is_reported_not_ignored() {
        let run = run_case1(&quick(), (5, 9));
        let problem = Case1Problem::new(1 << 9);
        let rec = Recommender::new(run.model).unwrap();
        let wl = GemmWorkload::new(64, 64, 64).unwrap();
        // A 2-MAC budget admits no array shape (smallest is 2x2 = 4 MACs).
        assert_eq!(
            rec.recommend_array(&problem, &wl, 2),
            Err(RecommendError::NoFeasibleConfig { budget: 2 })
        );
    }

    #[test]
    fn topk_is_ranked_and_headed_by_the_top1_pick() {
        let run = run_case1(&quick(), (5, 9));
        let problem = Case1Problem::new(1 << 9);
        let rec = Recommender::new(run.model).unwrap();
        let wl = GemmWorkload::new(200, 100, 50).unwrap();
        let top = rec.recommend_array_topk(&problem, &wl, 1 << 9, 5).unwrap();
        assert!(!top.is_empty() && top.len() <= 5);
        assert!(top.windows(2).all(|w| w[0].2 >= w[1].2));
        let (a1, d1) = rec.recommend_array(&problem, &wl, 1 << 9).unwrap();
        assert_eq!((top[0].0, top[0].1), (a1, d1));
    }

    #[test]
    fn buffer_recommendation_honors_the_capacity_limit() {
        let run = run_case2(&quick());
        let problem = Case2Problem::new();
        let rec = Recommender::new(run.model).unwrap();
        // Limits right at the bottom of the space: the raw top-1 label
        // almost certainly decodes to an oversized split, so feasibility
        // filtering must kick in (same contract as the CS1 MAC budget).
        for limit_kb in [300u64, 400, 500] {
            let query = Case2Query {
                workload: GemmWorkload::new(1024, 256, 512).unwrap(),
                array: array_16(),
                dataflow: Dataflow::Os,
                bandwidth: 4,
                limit_kb,
            };
            let (i, f, o) = rec.recommend_buffers(&problem, &query).unwrap();
            assert!(
                i + f + o <= limit_kb,
                "split {i}+{f}+{o} KB exceeds the {limit_kb} KB limit"
            );
        }
    }

    #[test]
    fn infeasible_buffer_limit_is_reported_not_ignored() {
        let run = run_case2(&quick());
        let problem = Case2Problem::new();
        let rec = Recommender::new(run.model).unwrap();
        let query = Case2Query {
            workload: GemmWorkload::new(512, 256, 384).unwrap(),
            array: array_16(),
            dataflow: Dataflow::Os,
            bandwidth: 4,
            // Below the 300 KB minimum total of the space.
            limit_kb: 250,
        };
        assert_eq!(
            rec.recommend_buffers(&problem, &query),
            Err(RecommendError::NoFeasibleConfig { budget: 250 })
        );
    }

    #[test]
    fn buffer_topk_is_ranked_and_in_space() {
        let run = run_case2(&quick());
        let problem = Case2Problem::new();
        let rec = Recommender::new(run.model).unwrap();
        let query = Case2Query {
            workload: GemmWorkload::new(1024, 256, 512).unwrap(),
            array: array_16(),
            dataflow: Dataflow::Ws,
            bandwidth: 8,
            limit_kb: 3000,
        };
        let top = rec.recommend_buffers_topk(&problem, &query, 5).unwrap();
        assert!(!top.is_empty() && top.len() <= 5);
        assert!(top.windows(2).all(|w| w[0].3 >= w[1].3));
        for &(i, f, o, _) in &top {
            assert!(problem.space().encode(i, f, o).is_some());
        }
    }

    #[test]
    fn schedule_topk_is_ranked_and_returns_permutations() {
        let run = run_case3(&PipelineConfig {
            samples: 300,
            ..quick()
        });
        let problem = Case3Problem::new();
        let rec = Recommender::new(run.model).unwrap();
        let workloads = vec![
            GemmWorkload::new(512, 128, 256).unwrap(),
            GemmWorkload::new(64, 64, 64).unwrap(),
            GemmWorkload::new(256, 32, 128).unwrap(),
            GemmWorkload::new(196, 96, 256).unwrap(),
        ];
        let top = rec
            .recommend_schedule_topk(&problem, &workloads, 4)
            .unwrap();
        assert!(!top.is_empty() && top.len() <= 4);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        for (schedule, _) in &top {
            assert!(schedule.is_permutation());
        }
        // Head of the ranking agrees with the top-1 API.
        let top1 = rec.recommend_schedule(&problem, &workloads).unwrap();
        assert_eq!(top[0].0, top1);
    }

    #[test]
    fn wrong_case_study_is_rejected() {
        let run = run_case1(&quick(), (5, 8));
        let rec = Recommender::new(run.model).unwrap();
        let problem = Case2Problem::new();
        let query = Case2Query::from_features(&[1000.0, 64.0, 64.0, 64.0, 8.0, 8.0, 0.0, 10.0]);
        assert!(matches!(
            rec.recommend_buffers(&problem, &query),
            Err(RecommendError::WrongCaseStudy { .. })
        ));
    }

    #[test]
    fn fast_array_path_matches_contract_and_mostly_agrees() {
        let run = run_case1(&quick(), (5, 9));
        let problem = Case1Problem::new(1 << 9);
        let rec = Recommender::new(run.model).unwrap();
        assert!(rec.quantized().is_some(), "embedding MLP must quantize");
        let mut agree = 0usize;
        let mut total = 0usize;
        for (m, n, k) in [(128u64, 64u64, 256u64), (200, 100, 50), (32, 32, 32), (512, 512, 512)] {
            let wl = GemmWorkload::new(m, n, k).unwrap();
            for budget_log2 in [6u32, 8, 9] {
                let budget = 1u64 << budget_log2;
                let fast = rec.recommend_array_fast(&problem, &wl, budget).unwrap();
                // The hard feasibility contract holds unconditionally.
                assert!(fast.0.macs() <= budget);
                total += 1;
                if fast == rec.recommend_array(&problem, &wl, budget).unwrap() {
                    agree += 1;
                }
            }
        }
        // Quantization noise may flip near-ties, but wholesale divergence
        // means the fused pass is wrong.
        assert!(agree * 2 > total, "fast path agreed on {agree}/{total}");
        // Infeasible budgets error identically.
        let wl = GemmWorkload::new(64, 64, 64).unwrap();
        assert_eq!(
            rec.recommend_array_fast(&problem, &wl, 2),
            Err(RecommendError::NoFeasibleConfig { budget: 2 })
        );
    }

    #[test]
    fn fast_buffer_path_honors_the_capacity_limit() {
        let run = run_case2(&quick());
        let problem = Case2Problem::new();
        let rec = Recommender::new(run.model).unwrap();
        for limit_kb in [300u64, 500, 3000] {
            let query = Case2Query {
                workload: GemmWorkload::new(1024, 256, 512).unwrap(),
                array: array_16(),
                dataflow: Dataflow::Os,
                bandwidth: 4,
                limit_kb,
            };
            let (i, f, o) = rec.recommend_buffers_fast(&problem, &query).unwrap();
            assert!(i + f + o <= limit_kb);
        }
        let infeasible = Case2Query {
            workload: GemmWorkload::new(512, 256, 384).unwrap(),
            array: array_16(),
            dataflow: Dataflow::Os,
            bandwidth: 4,
            limit_kb: 250,
        };
        assert_eq!(
            rec.recommend_buffers_fast(&problem, &infeasible),
            Err(RecommendError::NoFeasibleConfig { budget: 250 })
        );
    }

    #[test]
    fn fast_schedule_path_returns_valid_permutations() {
        let run = run_case3(&PipelineConfig {
            samples: 300,
            ..quick()
        });
        let problem = Case3Problem::new();
        let rec = Recommender::new(run.model).unwrap();
        let workloads = vec![
            GemmWorkload::new(512, 128, 256).unwrap(),
            GemmWorkload::new(64, 64, 64).unwrap(),
            GemmWorkload::new(256, 32, 128).unwrap(),
            GemmWorkload::new(196, 96, 256).unwrap(),
        ];
        let schedule = rec.recommend_schedule_fast(&problem, &workloads).unwrap();
        assert!(schedule.is_permutation());
    }

    #[test]
    fn fast_paths_reject_wrong_case_studies_like_the_f32_ones() {
        let run = run_case1(&quick(), (5, 8));
        let rec = Recommender::new(run.model).unwrap();
        let problem = Case2Problem::new();
        let query = Case2Query::from_features(&[1000.0, 64.0, 64.0, 64.0, 8.0, 8.0, 0.0, 10.0]);
        assert!(matches!(
            rec.recommend_buffers_fast(&problem, &query),
            Err(RecommendError::WrongCaseStudy { .. })
        ));
    }
}
