//! Atomic model hot-reload.
//!
//! The server holds one slot per case study, each an
//! `RwLock<Option<Arc<LoadedModel>>>`. Readers clone the `Arc` once per
//! answer and answer from that snapshot, so a reload never tears a
//! response: answers in flight finish on the old model, later ones see the
//! new one, and nothing in between.
//!
//! `reload()` is all-or-nothing: every registered path is re-read and
//! validated (the `AIRM` codec checksum-verifies v2 files) *before* any
//! slot is swapped, so a half-written model file on disk cannot take down
//! a healthy server — the reload fails, the old models keep serving.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use airchitect::model::CaseStudy;
use airchitect::{persist, Recommender};
use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case2::Case2Problem;
use airchitect_dse::case3::Case3Problem;
use airchitect_dse::space::Case1Space;

use crate::ServeError;

/// The per-case-study decode problem a loaded model answers against.
#[derive(Debug, Clone)]
pub enum CaseProblem {
    /// CS1: space rebuilt from the model's class count.
    Array(Case1Problem),
    /// CS2: the paper's 1000-label buffer space.
    Buffers(Case2Problem),
    /// CS3: the paper's 1944-label schedule space.
    Schedule(Case3Problem),
}

/// A model snapshot: recommender, decode problem, and provenance.
#[derive(Debug)]
pub struct LoadedModel {
    /// The trained recommender (thread-safe `&self` inference).
    pub recommender: Recommender,
    /// The case study it answers.
    pub case: CaseStudy,
    /// Output-space problem matching the model's class count.
    pub problem: CaseProblem,
    /// Monotonic generation stamped at load time; bumped by every reload.
    pub generation: u64,
    /// File the model was loaded from (re-read on reload).
    pub path: PathBuf,
}

pub(crate) fn slot_index(case: CaseStudy) -> usize {
    match case {
        CaseStudy::ArrayDataflow => 0,
        CaseStudy::BufferSizing => 1,
        CaseStudy::MultiArrayScheduling => 2,
    }
}

/// Short route/JSON name for a case study (`array`, `buffers`, `schedule`).
pub fn case_name(case: CaseStudy) -> &'static str {
    match case {
        CaseStudy::ArrayDataflow => "array",
        CaseStudy::BufferSizing => "buffers",
        CaseStudy::MultiArrayScheduling => "schedule",
    }
}

/// The hot-swappable model registry.
pub struct ModelHub {
    /// Every path handed to [`ModelHub::load`], healthy or not; `reload()`
    /// re-reads all of them, so a model that failed at startup can be
    /// repaired on disk and brought in without a restart.
    registered: Vec<PathBuf>,
    slots: [RwLock<Option<Arc<LoadedModel>>>; 3],
    /// Bumped once per successful reload; loads stamp models with the
    /// current value so cache entries can be generation-checked.
    generation: AtomicU64,
    /// Startup load failures tolerated in degraded mode (cleared by the
    /// first successful reload); surfaced by `/healthz`.
    load_errors: Mutex<Vec<String>>,
}

fn load_one(path: &Path, generation: u64) -> Result<LoadedModel, ServeError> {
    airchitect_chaos::fail_point!("serve.reload.read", |e: std::io::Error| Err(
        ServeError::Model(format!("{}: {e}", path.display()))
    ));
    let model = persist::load(path)
        .map_err(|e| ServeError::Model(format!("{}: {e}", path.display())))?;
    let case = model.case_study();
    let problem = match case {
        CaseStudy::ArrayDataflow => {
            let classes = model.network().out_dim();
            let space = Case1Space::from_len(classes).ok_or_else(|| {
                ServeError::Model(format!(
                    "{}: {classes} classes match no CS1 output space",
                    path.display()
                ))
            })?;
            CaseProblem::Array(Case1Problem::new(space.mac_budget()))
        }
        CaseStudy::BufferSizing => CaseProblem::Buffers(Case2Problem::new()),
        CaseStudy::MultiArrayScheduling => CaseProblem::Schedule(Case3Problem::new()),
    };
    let recommender = Recommender::new(model)
        .map_err(|e| ServeError::Model(format!("{}: {e}", path.display())))?;
    Ok(LoadedModel {
        recommender,
        case,
        problem,
        generation,
        path: path.to_path_buf(),
    })
}

impl ModelHub {
    /// Loads every path and fills the slots; at most one model per case
    /// study, at least one model overall.
    ///
    /// With `tolerate_failures` (degraded-mode serving: the fallback oracle
    /// answers for missing models), a path that fails to load or verify is
    /// recorded in [`ModelHub::load_errors`] and its slot left empty instead
    /// of aborting startup. Duplicate-case and empty-list errors are never
    /// tolerated — those are operator mistakes, not runtime faults.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for empty path lists, duplicate case studies,
    /// or (unless tolerated) any load/validation failure.
    pub fn load(paths: &[PathBuf], tolerate_failures: bool) -> Result<Self, ServeError> {
        if paths.is_empty() {
            return Err(ServeError::Config("at least one model is required".into()));
        }
        let hub = Self {
            registered: paths.to_vec(),
            slots: [RwLock::new(None), RwLock::new(None), RwLock::new(None)],
            generation: AtomicU64::new(1),
            load_errors: Mutex::new(Vec::new()),
        };
        for path in paths {
            let loaded = match load_one(path, 1) {
                Ok(loaded) => loaded,
                Err(e) if tolerate_failures => {
                    hub.load_errors
                        .lock()
                        .expect("load_errors poisoned")
                        .push(e.to_string());
                    continue;
                }
                Err(e) => return Err(e),
            };
            let slot = &hub.slots[slot_index(loaded.case)];
            let mut guard = slot.write().expect("model slot poisoned");
            if guard.is_some() {
                return Err(ServeError::Config(format!(
                    "two models for {} (second: {})",
                    loaded.case.name(),
                    path.display()
                )));
            }
            *guard = Some(Arc::new(loaded));
        }
        Ok(hub)
    }

    /// Startup load failures currently tolerated (empty once a reload
    /// succeeds or when every model loaded cleanly).
    pub fn load_errors(&self) -> Vec<String> {
        self.load_errors.lock().expect("load_errors poisoned").clone()
    }

    /// Records an operational note surfaced through `/healthz`'s
    /// `load_errors` array (used by the rollout controller for registry
    /// persistence failures); cleared by the next successful reload.
    pub fn note_error(&self, msg: String) {
        self.load_errors
            .lock()
            .expect("load_errors poisoned")
            .push(msg);
    }

    /// The current snapshot for a case study, if a model is loaded.
    pub fn get(&self, case: CaseStudy) -> Option<Arc<LoadedModel>> {
        self.slots[slot_index(case)]
            .read()
            .expect("model slot poisoned")
            .clone()
    }

    /// Every loaded model snapshot, in case-study order.
    pub fn all(&self) -> Vec<Arc<LoadedModel>> {
        CaseStudy::ALL.iter().filter_map(|&c| self.get(c)).collect()
    }

    /// The current generation (the one live models are stamped with).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Re-reads every registered model file and atomically swaps the slots.
    ///
    /// All files are loaded and validated before the first swap, so a
    /// corrupt file leaves every slot untouched. Paths that failed at
    /// startup (tolerated degraded-mode loads) are retried here, and a
    /// fully successful reload clears the recorded load errors. On success
    /// the hub generation is bumped and the new snapshots carry it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] if any registered file fails to load;
    /// the old models keep serving in that case.
    pub fn reload(&self) -> Result<Vec<Arc<LoadedModel>>, ServeError> {
        let next_gen = self.generation.load(Ordering::Acquire) + 1;
        let mut fresh: Vec<Arc<LoadedModel>> = Vec::new();
        for path in &self.registered {
            let loaded = load_one(path, next_gen)?;
            if fresh.iter().any(|m| m.case == loaded.case) {
                return Err(ServeError::Config(format!(
                    "two models for {} (second: {})",
                    loaded.case.name(),
                    path.display()
                )));
            }
            fresh.push(Arc::new(loaded));
        }
        // Validation passed for every file: publish the generation first,
        // then swap. A reader that races sees either (old gen, old model)
        // or (new gen, old model) for an instant — the cache generation
        // check turns the latter into a miss, never a wrong answer.
        self.generation.store(next_gen, Ordering::Release);
        for loaded in &fresh {
            let slot = &self.slots[slot_index(loaded.case)];
            *slot.write().expect("model slot poisoned") = Some(Arc::clone(loaded));
        }
        self.load_errors
            .lock()
            .expect("load_errors poisoned")
            .clear();
        airchitect_telemetry::metrics::SERVE_RELOADS.inc();
        Ok(fresh)
    }

    /// Loads and validates a candidate model set from `paths` (default:
    /// the registered paths) at the *next* generation, without touching
    /// the live slots. This is the staging half of a canary rollout: the
    /// returned snapshots are only scored on the shadow pool, never
    /// answer a client, and are swapped in by [`ModelHub::install`] after
    /// the gates pass.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] exactly like [`ModelHub::reload`] would; the
    /// live models are unaffected either way.
    pub fn stage(
        &self,
        paths: Option<&[PathBuf]>,
    ) -> Result<(Vec<Arc<LoadedModel>>, u64), ServeError> {
        let next_gen = self.generation.load(Ordering::Acquire) + 1;
        let paths = paths.unwrap_or(&self.registered);
        if paths.is_empty() {
            return Err(ServeError::Config("no model paths to stage".into()));
        }
        let mut fresh: Vec<Arc<LoadedModel>> = Vec::new();
        for path in paths {
            let loaded = load_one(path, next_gen)?;
            if fresh.iter().any(|m| m.case == loaded.case) {
                return Err(ServeError::Config(format!(
                    "two models for {} (second: {})",
                    loaded.case.name(),
                    path.display()
                )));
            }
            fresh.push(Arc::new(loaded));
        }
        Ok((fresh, next_gen))
    }

    /// Atomically installs previously staged (or captured) snapshots and
    /// publishes `generation`. Slots not named by `models` keep their
    /// current occupant, so a single-case canary promote leaves the other
    /// case studies serving their incumbents. Same ordering discipline as
    /// [`ModelHub::reload`]: generation first, then slots.
    pub fn install(&self, models: &[Arc<LoadedModel>], generation: u64) {
        self.generation.fetch_max(generation, Ordering::Release);
        for loaded in models {
            let slot = &self.slots[slot_index(loaded.case)];
            *slot.write().expect("model slot poisoned") = Some(Arc::clone(loaded));
        }
        self.load_errors
            .lock()
            .expect("load_errors poisoned")
            .clear();
        airchitect_telemetry::metrics::SERVE_RELOADS.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airchitect::model::{AirchitectConfig, AirchitectModel};
    use airchitect_data::Dataset;
    use airchitect_nn::train::TrainConfig;

    fn tiny_cs1_model() -> AirchitectModel {
        // 30 classes = the CS1 space for a 2^5 MAC budget (3·(n−1)·n/2),
        // so `Case1Space::from_len` can recover it.
        let mut ds = Dataset::new(4, 30).unwrap();
        for i in 0..120 {
            let m = [8.0, 256.0, 8192.0][i % 3];
            ds.push(&[5.0, m, 64.0, 64.0], (i % 30) as u32).unwrap();
        }
        let mut model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
            &AirchitectConfig {
                num_classes: 30,
                train: TrainConfig {
                    epochs: 2,
                    batch_size: 32,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        model.train(&ds).unwrap();
        model
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "airchitect-serve-reload-{}-{name}",
            std::process::id()
        ))
    }

    #[test]
    fn load_reload_and_generation_bump() {
        let path = temp_path("a.airm");
        persist::save(&tiny_cs1_model(), &path).unwrap();
        let hub = ModelHub::load(std::slice::from_ref(&path), false).unwrap();
        assert_eq!(hub.generation(), 1);
        let before = hub.get(CaseStudy::ArrayDataflow).unwrap();
        assert_eq!(before.generation, 1);

        let fresh = hub.reload().unwrap();
        assert_eq!(hub.generation(), 2);
        assert_eq!(fresh.len(), 1);
        let after = hub.get(CaseStudy::ArrayDataflow).unwrap();
        assert_eq!(after.generation, 2);
        // The old snapshot is still usable by an answer in flight.
        assert_eq!(before.generation, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_fails_reload_but_keeps_serving() {
        let path = temp_path("b.airm");
        persist::save(&tiny_cs1_model(), &path).unwrap();
        let hub = ModelHub::load(std::slice::from_ref(&path), false).unwrap();

        // Truncate the file: the checksum-verified load must reject it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(hub.reload(), Err(ServeError::Model(_))));
        assert_eq!(hub.generation(), 1, "failed reload must not bump");
        assert!(hub.get(CaseStudy::ArrayDataflow).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_case_is_rejected() {
        let p1 = temp_path("c1.airm");
        let p2 = temp_path("c2.airm");
        let model = tiny_cs1_model();
        persist::save(&model, &p1).unwrap();
        persist::save(&model, &p2).unwrap();
        assert!(matches!(
            ModelHub::load(&[p1.clone(), p2.clone()], false),
            Err(ServeError::Config(_))
        ));
        // Duplicates are an operator mistake, never tolerated.
        assert!(matches!(
            ModelHub::load(&[p1.clone(), p2.clone()], true),
            Err(ServeError::Config(_))
        ));
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn empty_path_list_is_rejected() {
        assert!(matches!(
            ModelHub::load(&[], false),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            ModelHub::load(&[], true),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn tolerated_load_failure_is_repaired_by_reload() {
        let path = temp_path("d.airm");
        persist::save(&tiny_cs1_model(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Corrupt the file, then start in tolerant (degraded) mode.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            ModelHub::load(std::slice::from_ref(&path), false),
            Err(ServeError::Model(_))
        ));
        let hub = ModelHub::load(std::slice::from_ref(&path), true).unwrap();
        assert!(hub.get(CaseStudy::ArrayDataflow).is_none());
        assert_eq!(hub.load_errors().len(), 1);

        // A reload still fails while the file is corrupt...
        assert!(hub.reload().is_err());
        // ...but once repaired on disk, reload fills the empty slot and
        // clears the recorded startup error.
        std::fs::write(&path, &good).unwrap();
        hub.reload().unwrap();
        assert!(hub.get(CaseStudy::ArrayDataflow).is_some());
        assert!(hub.load_errors().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
