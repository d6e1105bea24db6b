//! Canary rollout state machine for safe model reloads.
//!
//! With a canary split configured, `/v1/reload` stops swapping models
//! immediately. Instead the candidate set is *staged* ([`ModelHub::stage`]
//! validates it without touching the live slots) and a deterministic
//! fraction of recommend traffic of every kind — hashed on the canonical
//! cache key, so the same query is always or never sampled — is scored on
//! the shadow pool (`crate::shadow`): the pool answers each sampled query
//! with both the incumbent and the candidate, compares the answers, and
//! feeds [`Rollout::record_sample`], which applies the verdict there.
//! Promotion requires a minimum sample count with both an agreement rate
//! and a candidate-p99-latency ratio inside their thresholds; any
//! candidate failure, or a missed threshold, rolls the candidate back and
//! (in registry mode) quarantines its version so the same artifact is
//! never retried.
//!
//! Clients only ever get the incumbent's answer until promotion, so a bad
//! canary can lose the vote but never answer a client.
//!
//! Promotion order is disk-first: the registry's `current.airm` and
//! MANIFEST move *before* the in-memory install, so a crash between the
//! two restarts onto the promoted version rather than resurrecting the
//! incumbent.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use airchitect::model::CaseStudy;
use airchitect_telemetry::json::{self, Value};
use airchitect_telemetry::metrics;

use crate::http::Response;
use crate::registry::{Registry, RegistryError};
use crate::reload::{LoadedModel, ModelHub};

/// Hard cap on retained per-side latency samples (p99 estimation window).
const LATENCY_WINDOW: usize = 4096;

/// Canary gate thresholds, fixed at server start.
#[derive(Debug, Clone, Copy)]
pub struct RolloutConfig {
    /// Fraction of recommend requests, of any kind, scored against a
    /// staged candidate, in parts per million. `0` disables canarying:
    /// reloads swap immediately.
    pub split_ppm: u32,
    /// Samples required before the agreement/latency gates are judged.
    pub min_samples: u64,
    /// Minimum candidate-vs-incumbent agreement rate in `[0, 1]`.
    pub min_agreement: f64,
    /// Maximum candidate p99 latency as a multiple of the incumbent's.
    pub max_p99_ratio: f64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        Self {
            split_ppm: 0,
            min_samples: 50,
            min_agreement: 0.9,
            max_p99_ratio: 4.0,
        }
    }
}

/// Running tallies for one canary evaluation.
#[derive(Debug, Default)]
struct CanaryStats {
    samples: u64,
    agreements: u64,
    failures: u64,
    cand_us: Vec<u64>,
    inc_us: Vec<u64>,
    /// Set once a verdict is reached so racing samples can't re-decide.
    decided: bool,
}

/// One staged candidate model set under canary evaluation.
#[derive(Debug)]
pub struct Candidate {
    /// Validated snapshots the shadow pool scores (not yet installed).
    models: Vec<Arc<LoadedModel>>,
    /// Generation the snapshots carry; published on promote.
    generation: u64,
    /// Registry version under evaluation (`None` for path/registered
    /// reloads outside registry mode).
    version: Option<u64>,
    stats: Mutex<CanaryStats>,
}

impl Candidate {
    /// The staged snapshot for `case`, if the candidate set covers it.
    pub fn model(&self, case: CaseStudy) -> Option<&Arc<LoadedModel>> {
        self.models.iter().find(|m| m.case == case)
    }

    /// Registry version under evaluation, if any.
    pub fn version(&self) -> Option<u64> {
        self.version
    }

    /// Generation the staged snapshots carry.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The verdict a finished evaluation reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All gates passed: install the candidate.
    Promote,
    /// A gate failed: discard and quarantine the candidate.
    Rollback(&'static str),
}

/// Exact p99 of one side's latency window (sorts a copy); computed once
/// per evaluation, when the verdict is judged.
fn p99(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * 99 / 100]
}

/// The per-server rollout controller: owns the staged candidate, the
/// optional on-disk registry, and the promote/rollback transitions.
pub struct Rollout {
    cfg: RolloutConfig,
    hub: Arc<ModelHub>,
    registry: Option<Mutex<Registry>>,
    /// The registry's active version (0: none), stored under the registry
    /// lock after every registry call, so `/healthz` on a shard never
    /// waits for a promote's or quarantine's fsynced writes.
    active_version: AtomicU64,
    candidate: RwLock<Option<Arc<Candidate>>>,
    /// Last registry version promoted by a canary — the `/v1/rollback`
    /// target once no canary is active.
    revertible: Mutex<Option<u64>>,
    /// `none`, `promoted`, or `rolled_back` — how the last rollout ended.
    last_outcome: Mutex<&'static str>,
}

impl Rollout {
    /// Builds the controller. `registry` is `Some` in `--model-dir` mode.
    pub fn new(cfg: RolloutConfig, hub: Arc<ModelHub>, registry: Option<Registry>) -> Self {
        let active = registry.as_ref().and_then(|r| r.manifest().active);
        Self {
            cfg,
            hub,
            registry: registry.map(Mutex::new),
            active_version: AtomicU64::new(active.unwrap_or(0)),
            candidate: RwLock::new(None),
            revertible: Mutex::new(None),
            last_outcome: Mutex::new("none"),
        }
    }

    /// Whether canary evaluation is configured (split > 0).
    pub fn enabled(&self) -> bool {
        self.cfg.split_ppm > 0
    }

    /// The configured thresholds.
    pub fn config(&self) -> &RolloutConfig {
        &self.cfg
    }

    /// The candidate currently under evaluation, if any.
    pub fn active(&self) -> Option<Arc<Candidate>> {
        self.candidate.read().expect("candidate poisoned").clone()
    }

    fn set_outcome(&self, outcome: &'static str) {
        *self.last_outcome.lock().expect("outcome poisoned") = outcome;
    }

    /// How the most recent rollout resolved (`none` until the first one).
    pub fn last_outcome(&self) -> &'static str {
        *self.last_outcome.lock().expect("outcome poisoned")
    }

    fn quarantine(&self, version: u64) {
        if let Some(Err(e)) = self.with_registry(|reg| reg.quarantine(version)) {
            self.hub_note(format!("quarantine v{version}: {e}"));
        }
    }

    /// Registry-layer problems during promote/quarantine are recorded as
    /// hub load errors so `/healthz` surfaces them without a log sink.
    fn hub_note(&self, msg: String) {
        self.hub.note_error(msg);
    }

    /// Handles `POST /v1/reload` in canary mode: stages the candidate and
    /// starts an evaluation instead of swapping.
    ///
    /// The body may name an explicit artifact (`{"path": "...", "version":
    /// N}` — the rolling cluster coordinator does this); otherwise the
    /// registry's newest unquarantined version newer than active is
    /// staged, and outside registry mode the registered paths are
    /// re-staged from disk.
    pub fn stage_reload(&self, body: &[u8]) -> Response {
        let (explicit_path, explicit_version) = match parse_reload_body(body) {
            Ok(pair) => pair,
            Err(resp) => return resp,
        };
        {
            let guard = self.candidate.read().expect("candidate poisoned");
            if guard.is_some() {
                return Response::error(
                    409,
                    "rollout_in_progress",
                    "a canary evaluation is already running; wait for its verdict or POST /v1/rollback",
                );
            }
        }
        let mut version = explicit_version;
        let paths: Option<Vec<PathBuf>> = if let Some(p) = explicit_path {
            Some(vec![p])
        } else if self.registry.is_some() {
            // Another process (`train --model-dir`) may have registered a
            // version since we last looked; disk is authoritative.
            let latest = self.with_registry(|reg| {
                reg.refresh()?;
                Ok::<_, RegistryError>(
                    reg.latest_candidate()
                        .map(|entry| (entry.version, reg.version_path(entry.version))),
                )
            });
            match latest {
                Some(Err(e)) => return registry_error_response(&e),
                Some(Ok(Some((latest, path)))) => {
                    version = Some(latest);
                    Some(vec![path])
                }
                _ => {
                    return Response::error(
                        409,
                        "no_candidate",
                        "registry has no unquarantined version newer than active",
                    )
                }
            }
        } else {
            None // re-stage the registered paths
        };
        match self.hub.stage(paths.as_deref()) {
            Ok((models, generation)) => {
                let candidate = Arc::new(Candidate {
                    models,
                    generation,
                    version,
                    stats: Mutex::new(CanaryStats::default()),
                });
                *self.candidate.write().expect("candidate poisoned") = Some(candidate);
                metrics::SERVE_CANARY_STAGED.inc();
                metrics::SERVE_CANARY_ACTIVE.set(1.0);
                metrics::SERVE_CANARY_AGREEMENT.set(0.0);
                metrics::SERVE_CANARY_P99_RATIO.set(0.0);
                let mut body = String::from("{\"reloaded\":false,\"staged\":true,\"rollout\":");
                self.write_status(&mut body);
                body.push_str(",\"generation\":");
                body.push_str(&self.hub.generation().to_string());
                body.push_str("}\n");
                Response::json(200, body)
            }
            Err(e) => {
                // A candidate that cannot even load is the clearest
                // possible canary failure: quarantine it immediately.
                if let Some(v) = version {
                    self.quarantine(v);
                    metrics::SERVE_CANARY_ROLLBACKS.inc();
                    self.set_outcome("rolled_back");
                }
                Response::error(409, "stage_failed", &e.to_string())
            }
        }
    }

    /// Handles `POST /v1/reload` when canarying is disabled or the body
    /// carries `"immediate": true`: the swap happens in place, with no
    /// evaluation phase.
    ///
    /// An explicit `{"path", "version"}` body — the rolling cluster
    /// coordinator naming the exact candidate it is deploying — is
    /// honored even without a canary split: the artifact is staged from
    /// that path, installed, and the outcome recorded as `promoted` so
    /// the coordinator's verdict poll can advance past this replica.
    /// Without a body, registry mode promotes the newest unquarantined
    /// version first so the swap below picks it up from `current.airm`,
    /// and plain mode re-reads the registered paths.
    pub fn immediate_reload(&self, body: &[u8]) -> Response {
        let (explicit_path, explicit_version) = match parse_reload_body(body) {
            Ok(pair) => pair,
            Err(resp) => return resp,
        };
        if let Some(path) = explicit_path {
            return match self.hub.stage(Some(std::slice::from_ref(&path))) {
                Ok((models, generation)) => {
                    self.hub.install(&models, generation);
                    if self.registry.is_some() {
                        if let Some(version) = explicit_version {
                            *self.revertible.lock().expect("revertible poisoned") = Some(version);
                        }
                    }
                    self.set_outcome("promoted");
                    crate::router::render_reloaded(&self.hub, Some(self))
                }
                Err(e) => Response::error(409, "reload_failed", &e.to_string()),
            };
        }
        // Registry mode without an explicit candidate: promote the newest
        // unquarantined version immediately so the swap serves it.
        if let Some(Err(e)) = self.with_registry(|reg| {
            reg.refresh()?;
            match reg.latest_candidate() {
                Some(entry) => reg.promote(entry.version).map(|_| ()),
                None => Ok(()),
            }
        }) {
            return Response::error(409, "reload_failed", &e.to_string());
        }
        match self.hub.reload() {
            Ok(_) => crate::router::render_reloaded(&self.hub, Some(self)),
            // 409, not 5xx: the server is healthy, the *new* artifact is
            // not; old models keep serving.
            Err(e) => Response::error(409, "reload_failed", &e.to_string()),
        }
    }

    /// Records one compared sample and, if it settles the evaluation,
    /// applies the verdict — registry writes included — on the calling
    /// thread (the shadow pool's). Returns the verdict when it fired.
    pub fn record_sample(
        &self,
        candidate: &Arc<Candidate>,
        agreed: bool,
        candidate_failed: bool,
        candidate_us: u64,
        incumbent_us: u64,
    ) -> Option<Verdict> {
        let (failures, agreement, cand_us, inc_us) = {
            let mut stats = candidate.stats.lock().expect("canary stats poisoned");
            if stats.decided {
                return None;
            }
            stats.samples += 1;
            if candidate_failed {
                stats.failures += 1;
            } else if agreed {
                stats.agreements += 1;
            }
            if stats.cand_us.len() < LATENCY_WINDOW {
                stats.cand_us.push(candidate_us);
                stats.inc_us.push(incumbent_us);
            }
            metrics::SERVE_CANARY_SAMPLES.inc();
            if agreed && !candidate_failed {
                metrics::SERVE_CANARY_AGREEMENTS.inc();
            }
            if candidate_failed {
                metrics::SERVE_CANARY_CANDIDATE_FAILURES.inc();
            }
            let agreement = stats.agreements as f64 / stats.samples as f64;
            metrics::SERVE_CANARY_AGREEMENT.set(agreement);
            if stats.failures == 0 && stats.samples < self.cfg.min_samples {
                return None;
            }
            // This sample settles it; racing samples and `/v1/rollback`
            // now see a decided evaluation.
            stats.decided = true;
            (
                stats.failures,
                agreement,
                std::mem::take(&mut stats.cand_us),
                std::mem::take(&mut stats.inc_us),
            )
        };
        let ratio = p99(&cand_us) as f64 / p99(&inc_us).max(1) as f64;
        metrics::SERVE_CANARY_P99_RATIO.set(ratio);
        let verdict = if failures > 0 {
            Verdict::Rollback("candidate_failure")
        } else if agreement < self.cfg.min_agreement {
            Verdict::Rollback("agreement_below_threshold")
        } else if ratio > self.cfg.max_p99_ratio {
            Verdict::Rollback("p99_ratio_above_threshold")
        } else {
            Verdict::Promote
        };
        self.apply(candidate, verdict);
        Some(verdict)
    }

    /// Applies a settled verdict: promote installs (registry first, then
    /// hub), rollback discards and quarantines.
    fn apply(&self, candidate: &Arc<Candidate>, verdict: Verdict) {
        match verdict {
            Verdict::Promote => {
                if let Some(version) = candidate.version {
                    match self.with_registry(|reg| reg.promote(version)) {
                        Some(Err(e)) => {
                            // Disk is authoritative: a promote that cannot
                            // persist is treated as a failed rollout
                            // (without quarantining — the artifact itself
                            // was fine).
                            self.hub_note(format!("promote v{version}: {e}"));
                            self.clear_candidate();
                            metrics::SERVE_CANARY_ROLLBACKS.inc();
                            metrics::SERVE_CANARY_ACTIVE.set(0.0);
                            self.set_outcome("rolled_back");
                            return;
                        }
                        Some(Ok(_)) => {
                            *self.revertible.lock().expect("revertible poisoned") = Some(version);
                        }
                        None => {}
                    }
                }
                self.hub.install(&candidate.models, candidate.generation);
                self.clear_candidate();
                metrics::SERVE_CANARY_PROMOTIONS.inc();
                metrics::SERVE_CANARY_ACTIVE.set(0.0);
                self.set_outcome("promoted");
            }
            Verdict::Rollback(_) => {
                if let Some(version) = candidate.version {
                    self.quarantine(version);
                }
                self.clear_candidate();
                metrics::SERVE_CANARY_ROLLBACKS.inc();
                metrics::SERVE_CANARY_ACTIVE.set(0.0);
                self.set_outcome("rolled_back");
            }
        }
    }

    fn clear_candidate(&self) {
        *self.candidate.write().expect("candidate poisoned") = None;
    }

    /// Handles `POST /v1/rollback`.
    ///
    /// With a canary in flight, the candidate is discarded and its version
    /// quarantined. With none, the last canary-promoted version (if any,
    /// registry mode only) is quarantined — which moves `current.airm`
    /// back to the prior version — and the hub reloads from disk.
    /// Idempotent: with nothing to roll back it reports `false` with 200.
    pub fn rollback_now(&self) -> Response {
        if let Some(candidate) = self.active() {
            // The guard must be gone before `rollback_response` reads the
            // stats again.
            let decided = {
                let mut stats = candidate.stats.lock().expect("canary stats poisoned");
                std::mem::replace(&mut stats.decided, true)
            };
            if decided {
                // A racing sample already settled it; nothing to do.
                return self.rollback_response(false, "verdict_already_applied");
            }
            self.apply(&candidate, Verdict::Rollback("operator_rollback"));
            return self.rollback_response(true, "canary_discarded");
        }
        let reverted = self.revertible.lock().expect("revertible poisoned").take();
        if let Some(version) = reverted {
            self.quarantine(version);
            if let Err(e) = self.hub.reload() {
                self.hub_note(format!("rollback reload: {e}"));
                return self.rollback_response(true, "reverted_on_disk_reload_failed");
            }
            metrics::SERVE_CANARY_ROLLBACKS.inc();
            return self.rollback_response(true, "promoted_version_reverted");
        }
        self.rollback_response(false, "nothing_to_roll_back")
    }

    fn rollback_response(&self, rolled_back: bool, detail: &str) -> Response {
        let mut body = format!("{{\"rolled_back\":{rolled_back},\"detail\":");
        json::write_escaped(&mut body, detail);
        body.push_str(",\"generation\":");
        body.push_str(&self.hub.generation().to_string());
        body.push_str(",\"rollout\":");
        self.write_status(&mut body);
        body.push_str("}\n");
        Response::json(200, body)
    }

    /// Appends the rollout state object (the `"rollout"` value in
    /// `/healthz` and reload/rollback acknowledgements) to `body`.
    pub fn write_status(&self, body: &mut String) {
        body.push_str("{\"enabled\":");
        body.push_str(if self.enabled() { "true" } else { "false" });
        body.push_str(",\"registry\":");
        body.push_str(if self.registry.is_some() { "true" } else { "false" });
        body.push_str(",\"last\":");
        json::write_escaped(body, self.last_outcome());
        match self.active() {
            Some(candidate) => {
                let stats = candidate.stats.lock().expect("canary stats poisoned");
                body.push_str(",\"state\":\"evaluating\",\"candidate\":{\"generation\":");
                body.push_str(&candidate.generation.to_string());
                body.push_str(",\"version\":");
                match candidate.version {
                    Some(v) => body.push_str(&v.to_string()),
                    None => body.push_str("null"),
                }
                body.push_str(",\"samples\":");
                body.push_str(&stats.samples.to_string());
                body.push_str(",\"agreements\":");
                body.push_str(&stats.agreements.to_string());
                body.push_str(",\"failures\":");
                body.push_str(&stats.failures.to_string());
                body.push_str(",\"min_samples\":");
                body.push_str(&self.cfg.min_samples.to_string());
                body.push('}');
            }
            None => body.push_str(",\"state\":\"idle\""),
        }
        body.push('}');
    }

    /// The active registry version (registry mode), for `/healthz` and
    /// acknowledgements. Lock-free: never waits for a registry write.
    pub fn active_version(&self) -> Option<u64> {
        match self.active_version.load(Ordering::Acquire) {
            0 => None,
            version => Some(version),
        }
    }

    /// Runs `f` against the registry, if this controller has one, and
    /// publishes the resulting active version before the lock is released.
    pub fn with_registry<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> Option<T> {
        self.registry.as_ref().map(|r| {
            let mut reg = r.lock().expect("registry poisoned");
            let out = f(&mut reg);
            self.active_version.store(reg.manifest().active.unwrap_or(0), Ordering::Release);
            out
        })
    }
}

/// Whether the `/v1/reload` body carries `"immediate": true` — the
/// canary bypass the rolling-rollback path uses to force replicas back
/// onto a known-good incumbent without re-canarying it. Malformed bodies
/// answer `false` here and fail with a `400` in the staging parse.
pub(crate) fn reload_is_immediate(body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    match json::parse(text) {
        Ok(Value::Obj(members)) => members
            .iter()
            .any(|(k, v)| k == "immediate" && v.as_bool() == Some(true)),
        _ => false,
    }
}

/// Parses the optional `/v1/reload` body: `{"path": "...", "version": N,
/// "immediate": bool}`, all fields optional, unknown fields rejected like
/// every other route.
fn parse_reload_body(body: &[u8]) -> Result<(Option<PathBuf>, Option<u64>), Response> {
    if body.iter().all(u8::is_ascii_whitespace) {
        return Ok((None, None));
    }
    let bad = |code: &str, msg: &str| Response::error(400, code, msg);
    let text = std::str::from_utf8(body)
        .map_err(|_| bad("bad_encoding", "request body is not UTF-8"))?;
    let members = match json::parse(text) {
        Ok(Value::Obj(members)) => members,
        Ok(_) => return Err(bad("bad_request", "request body must be a JSON object")),
        Err(e) => return Err(bad("bad_json", &format!("malformed JSON: {e}"))),
    };
    let mut path = None;
    let mut version = None;
    for (key, value) in &members {
        match key.as_str() {
            "path" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| bad("bad_field", "`path` must be a string"))?;
                path = Some(PathBuf::from(s));
            }
            "version" => {
                version = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| bad("bad_field", "`version` must be a non-negative integer"))?,
                );
            }
            "immediate" => {
                value
                    .as_bool()
                    .ok_or_else(|| bad("bad_field", "`immediate` must be a boolean"))?;
            }
            other => {
                return Err(bad(
                    "unknown_field",
                    &format!("unknown field `{other}` (allowed: path, version, immediate)"),
                ))
            }
        }
    }
    Ok((path, version))
}

/// Maps a registry error to the HTTP response the mutating endpoints use.
pub fn registry_error_response(e: &RegistryError) -> Response {
    let status = match e {
        RegistryError::Quarantined { .. } => 409,
        RegistryError::NotFound(_) => 404,
        _ => 500,
    };
    Response::error(status, "registry_error", &e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_picks_the_tail() {
        assert_eq!(p99(&[]), 0);
        assert_eq!(p99(&[7]), 7);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(p99(&samples), 99);
    }

    #[test]
    fn reload_body_parses() {
        assert_eq!(parse_reload_body(b"").unwrap(), (None, None));
        assert_eq!(parse_reload_body(b"  \n").unwrap(), (None, None));
        let (p, v) = parse_reload_body(br#"{"path":"/tmp/x.airm","version":4}"#).unwrap();
        assert_eq!(p, Some(PathBuf::from("/tmp/x.airm")));
        assert_eq!(v, Some(4));
        assert_eq!(parse_reload_body(br#"{"nope":1}"#).unwrap_err().status, 400);
        assert_eq!(parse_reload_body(b"[1]").unwrap_err().status, 400);
        assert_eq!(
            parse_reload_body(br#"{"version":-1}"#).unwrap_err().status,
            400
        );
    }

    #[test]
    fn default_config_disables_canary() {
        let cfg = RolloutConfig::default();
        assert_eq!(cfg.split_ppm, 0);
        assert_eq!(cfg.min_samples, 50);
    }

    /// A registry-less controller over a hub with no model loaded (the
    /// verdict's install only publishes the candidate's generation), with
    /// an empty candidate staged at generation 2.
    fn staged(min_samples: u64) -> (Rollout, Arc<ModelHub>, Arc<Candidate>) {
        let missing = std::env::temp_dir().join("airchitect-canary-unit-no-model.airm");
        let hub = Arc::new(ModelHub::load(&[missing], true).expect("tolerated load"));
        let rollout = Rollout::new(
            RolloutConfig {
                split_ppm: 1_000_000,
                min_samples,
                min_agreement: 0.9,
                max_p99_ratio: 4.0,
            },
            Arc::clone(&hub),
            None,
        );
        let candidate = Arc::new(Candidate {
            models: Vec::new(),
            generation: 2,
            version: None,
            stats: Mutex::new(CanaryStats::default()),
        });
        *rollout.candidate.write().unwrap() = Some(Arc::clone(&candidate));
        (rollout, hub, candidate)
    }

    #[test]
    fn one_candidate_failure_rolls_back_on_the_first_sample() {
        let (rollout, hub, candidate) = staged(50);
        assert_eq!(
            rollout.record_sample(&candidate, false, true, 10, 10),
            Some(Verdict::Rollback("candidate_failure"))
        );
        assert!(rollout.active().is_none());
        assert_eq!(rollout.last_outcome(), "rolled_back");
        assert_eq!(hub.generation(), 1, "a rollback installs nothing");
    }

    #[test]
    fn agreement_below_the_minimum_at_min_samples_rolls_back() {
        let (rollout, _, candidate) = staged(4);
        for _ in 0..3 {
            assert_eq!(rollout.record_sample(&candidate, true, false, 10, 10), None);
        }
        // 3 of 4 = 0.75 < 0.9.
        assert_eq!(
            rollout.record_sample(&candidate, false, false, 10, 10),
            Some(Verdict::Rollback("agreement_below_threshold"))
        );
        assert_eq!(rollout.last_outcome(), "rolled_back");
    }

    #[test]
    fn a_slow_candidate_p99_rolls_back() {
        let (rollout, _, candidate) = staged(3);
        assert_eq!(rollout.record_sample(&candidate, true, false, 50, 10), None);
        assert_eq!(rollout.record_sample(&candidate, true, false, 50, 10), None);
        // p99 50 µs against 10 µs: a ratio of 5 > 4.
        assert_eq!(
            rollout.record_sample(&candidate, true, false, 50, 10),
            Some(Verdict::Rollback("p99_ratio_above_threshold"))
        );
        assert_eq!(rollout.last_outcome(), "rolled_back");
    }

    #[test]
    fn passing_every_gate_promotes() {
        let (rollout, hub, candidate) = staged(3);
        assert_eq!(rollout.record_sample(&candidate, true, false, 40, 10), None);
        assert_eq!(rollout.record_sample(&candidate, true, false, 40, 10), None);
        // p99 40 µs against 10 µs: a ratio of exactly 4 passes.
        assert_eq!(
            rollout.record_sample(&candidate, true, false, 40, 10),
            Some(Verdict::Promote)
        );
        assert!(rollout.active().is_none());
        assert_eq!(rollout.last_outcome(), "promoted");
        assert_eq!(hub.generation(), 2, "the candidate's generation is live");
    }

    #[test]
    fn a_decided_evaluation_ignores_later_samples_and_manual_rollback() {
        let (rollout, hub, candidate) = staged(1);
        // A settling sample has marked the evaluation decided but not yet
        // applied its verdict (the window a racing sample or operator
        // rollback can hit).
        candidate.stats.lock().unwrap().decided = true;
        assert_eq!(rollout.record_sample(&candidate, false, true, 10, 10), None);
        assert_eq!(candidate.stats.lock().unwrap().samples, 0);
        let resp = rollout.rollback_now();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"rolled_back\":false"), "{}", resp.body);
        assert!(resp.body.contains("verdict_already_applied"), "{}", resp.body);
        assert!(rollout.active().is_some(), "the settling sample applies it");
        assert_eq!(rollout.last_outcome(), "none");
        assert_eq!(hub.generation(), 1);
    }
}
