//! Replica fleet supervision: child-process lifecycle, health probing,
//! ring membership, and crash-restart with exponential backoff.
//!
//! `serve --cluster` runs one supervisor in the router process. For each
//! replica slot it spawns the single-process server binary (`--port 0`,
//! the bound port is read back from the child's `listening on http://...`
//! stdout line), then drives the slot through a small state machine:
//!
//! ```text
//!            spawn                 1 ok probe (first admission)
//!   Down ───────────▶ Starting ──────────────────────────────▶ Healthy
//!    ▲                   │                                       │  ▲
//!    │   crash / hang    │            degraded healthz, or       │  │
//!    ├───────────────────┘            eject_after failed probes  │  │
//!    │                                                           ▼  │
//!    │                 crash                                  Ejected
//!    └────────────────────────────────────────────────────────┘  │
//!                               readmit_after consecutive ok ────┘
//! ```
//!
//! Only `Healthy` slots are on the routing [`Ring`]. A crash schedules a
//! respawn after an exponential, jittered backoff; a restart storm (more
//! than `storm_cap` crashes inside `storm_window_ms`) degrades to one
//! respawn attempt per window instead of hot-looping a broken binary.
//! [`RestartBackoff`] takes explicit millisecond timestamps so the policy
//! is unit-testable without sleeping.

use std::collections::VecDeque;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect_telemetry::metrics::{self, Gauge};

use crate::breaker::Breaker;
use crate::client::HttpClient;
use crate::ring::{Ring, DEFAULT_VNODES};
use crate::ServeError;

/// Configuration of a replica fleet (supervisor + router).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Router bind address, e.g. `127.0.0.1:8080` (`:0` for ephemeral).
    pub addr: String,
    /// Replica command line: program followed by its arguments. The
    /// supervisor appends `--port 0` itself, so the argv must not already
    /// carry a `--port`.
    pub replica_argv: Vec<String>,
    /// Number of replica child processes to supervise.
    pub replicas: usize,
    /// Milliseconds between health-probe sweeps.
    pub probe_interval_ms: u64,
    /// Connect + read timeout for one `/healthz` probe, milliseconds.
    pub probe_timeout_ms: u64,
    /// Consecutive *unreachable* probes before a healthy replica is
    /// ejected (a `degraded` healthz ejects immediately).
    pub eject_after: u32,
    /// Consecutive ok probes before an ejected/restarted replica rejoins
    /// the ring. The very first admission needs only one ok probe.
    pub readmit_after: u32,
    /// First-crash restart delay, milliseconds (doubles per attempt).
    pub restart_base_ms: u64,
    /// Upper bound on the exponential restart delay, milliseconds.
    pub restart_cap_ms: u64,
    /// Restart-storm window, milliseconds.
    pub storm_window_ms: u64,
    /// Crashes tolerated inside the storm window before restarts degrade
    /// to one attempt per window. Zero disables the cap.
    pub storm_cap: u32,
    /// How long a spawned child may go without printing its bound address
    /// before it is treated as hung and restarted, milliseconds.
    pub startup_timeout_ms: u64,
    /// Maximum in-flight proxied requests per replica, and so the
    /// router's forwarding threads per replica (1..=256); excess spills to
    /// the next replica on the ring.
    pub max_inflight: u64,
    /// Total per-request backend budget at the router, milliseconds.
    pub backend_timeout_ms: u64,
    /// Outbound (router→replica) breaker threshold; zero disables.
    pub breaker_threshold: u32,
    /// Outbound breaker cooldown, milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Virtual nodes per replica on the consistent-hash ring.
    pub vnodes: usize,
    /// Router-side client connection read timeout, seconds.
    pub read_timeout_secs: u64,
    /// Router-side client connection write timeout, seconds.
    pub write_timeout_secs: u64,
    /// Versioned model registry shared by the fleet (`--model-dir`). When
    /// set, `/v1/reload` becomes a rolling one-replica-at-a-time rollout
    /// driven through each replica's canary state machine.
    pub model_dir: Option<std::path::PathBuf>,
    /// How long the router waits for one replica's canary verdict before
    /// declaring the rollout failed and rolling the fleet back.
    pub rollout_timeout_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            replica_argv: Vec::new(),
            replicas: 3,
            probe_interval_ms: 200,
            probe_timeout_ms: 1000,
            eject_after: 2,
            readmit_after: 2,
            restart_base_ms: 100,
            restart_cap_ms: 5000,
            storm_window_ms: 30_000,
            storm_cap: 5,
            startup_timeout_ms: 30_000,
            max_inflight: 4,
            backend_timeout_ms: 10_000,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1000,
            vnodes: DEFAULT_VNODES,
            read_timeout_secs: 5,
            write_timeout_secs: 5,
            model_dir: None,
            rollout_timeout_ms: 30_000,
        }
    }
}

/// What the backoff policy decided after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartDecision {
    /// Respawn after this many milliseconds (exponential + jitter).
    Backoff(u64),
    /// The storm cap tripped: respawn only after this (window-length)
    /// quarantine delay.
    Quarantine(u64),
}

impl RestartDecision {
    /// The delay in milliseconds, whichever variant.
    #[must_use]
    pub fn delay_ms(self) -> u64 {
        match self {
            RestartDecision::Backoff(ms) | RestartDecision::Quarantine(ms) => ms,
        }
    }
}

/// Exponential restart backoff with jitter and a restart-storm cap,
/// driven by explicit millisecond timestamps (no hidden clock).
#[derive(Debug)]
pub struct RestartBackoff {
    base_ms: u64,
    cap_ms: u64,
    storm_window_ms: u64,
    storm_cap: u32,
    attempt: u32,
    rng: u64,
    history: VecDeque<u64>,
}

impl RestartBackoff {
    /// A fresh policy. `seed` decorrelates jitter between replicas.
    #[must_use]
    pub fn new(
        base_ms: u64,
        cap_ms: u64,
        storm_window_ms: u64,
        storm_cap: u32,
        seed: u64,
    ) -> Self {
        Self {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(base_ms.max(1)),
            storm_window_ms: storm_window_ms.max(1),
            storm_cap,
            attempt: 0,
            rng: seed | 1,
            history: VecDeque::new(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*, same family the chaos crate uses.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Records a crash at `now_ms` and returns when to respawn.
    ///
    /// The backoff delay for attempt *n* is drawn uniformly from
    /// `[ceil(d/2), d]` where `d = min(cap, base << n)` — jitter keeps a
    /// correlated fleet crash from producing a synchronized respawn
    /// thundering herd.
    pub fn on_crash(&mut self, now_ms: u64) -> RestartDecision {
        self.history.push_back(now_ms);
        while self
            .history
            .front()
            .is_some_and(|&t| t + self.storm_window_ms <= now_ms)
        {
            self.history.pop_front();
        }
        if self.storm_cap > 0 && self.history.len() as u32 > self.storm_cap {
            return RestartDecision::Quarantine(self.storm_window_ms.max(self.cap_ms));
        }
        let exp = self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base_ms
            .checked_shl(exp)
            .unwrap_or(u64::MAX)
            .min(self.cap_ms);
        let span = raw / 2;
        let jitter = if span == 0 { 0 } else { self.next_rand() % (span + 1) };
        RestartDecision::Backoff(raw - span + jitter)
    }

    /// Resets the exponential attempt counter after the replica proved
    /// stable (re-admitted to the ring). The storm history is *not*
    /// cleared: flapping — crash, recover, crash — still hits the cap.
    pub fn on_stable(&mut self) {
        self.attempt = 0;
    }
}

/// Replica lifecycle phase (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Spawned; waiting for the bound address and the first ok probe.
    Starting,
    /// On the ring, taking traffic.
    Healthy,
    /// Alive but off the ring (degraded or unresponsive); probing toward
    /// re-admission.
    Ejected,
    /// Process dead; waiting out the restart backoff.
    Down,
}

impl Phase {
    /// Lowercase name for `/healthz` rendering.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Healthy => "healthy",
            Phase::Ejected => "ejected",
            Phase::Down => "down",
        }
    }
}

struct SlotInner {
    phase: Phase,
    child: Option<Child>,
    addr: Option<SocketAddr>,
    pid: Option<u32>,
    /// Bumped on every spawn so stale stdout-watcher threads from a dead
    /// child cannot publish an address into the new incarnation.
    spawn_seq: u64,
    spawned_at_ms: u64,
    next_restart_ms: u64,
    ok_streak: u32,
    fail_streak: u32,
    ever_admitted: bool,
    ever_spawned: bool,
    backoff: RestartBackoff,
}

/// One supervised replica: process state plus the router-side counters
/// the proxy updates as it forwards traffic.
pub struct ReplicaSlot {
    id: u32,
    inner: Mutex<SlotInner>,
    /// Times this slot's child was respawned after a crash.
    pub restarts_total: AtomicU64,
    /// Requests moved off this replica because it failed them (open
    /// breaker, transport error, timeout, 5xx).
    pub failovers_total: AtomicU64,
    /// Requests that skipped this healthy replica because it held its
    /// `max_inflight` requests, spilling to the next one on the ring.
    pub spills_total: AtomicU64,
    /// Proxied requests currently in flight to this replica.
    pub inflight: AtomicU64,
    /// Outbound router→replica circuit breaker.
    pub breaker: Breaker,
}

impl ReplicaSlot {
    fn new(id: u32, cfg: &ClusterConfig) -> Self {
        // Per-replica breaker gauges are created at fleet construction
        // and leaked: the `Breaker` API wants `&'static Gauge`, and a
        // fleet's slot count is small and fixed for the process lifetime.
        let name: &'static str =
            Box::leak(format!("cluster.breaker_state.replica_{id}").into_boxed_str());
        let gauge: &'static Gauge = Box::leak(Box::new(Gauge::new(name)));
        Self {
            id,
            inner: Mutex::new(SlotInner {
                phase: Phase::Down,
                child: None,
                addr: None,
                pid: None,
                spawn_seq: 0,
                spawned_at_ms: 0,
                next_restart_ms: 0,
                ok_streak: 0,
                fail_streak: 0,
                ever_admitted: false,
                ever_spawned: false,
                backoff: RestartBackoff::new(
                    cfg.restart_base_ms,
                    cfg.restart_cap_ms,
                    cfg.storm_window_ms,
                    cfg.storm_cap,
                    0x9e37_79b9_7f4a_7c15 ^ u64::from(id),
                ),
            }),
            restarts_total: AtomicU64::new(0),
            failovers_total: AtomicU64::new(0),
            spills_total: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            breaker: Breaker::new(
                cfg.breaker_threshold,
                Duration::from_millis(cfg.breaker_cooldown_ms),
                gauge,
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotInner> {
        self.inner.lock().expect("replica slot lock poisoned")
    }

    /// This slot's replica id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The replica's bound address, once known.
    #[must_use]
    pub fn addr(&self) -> Option<SocketAddr> {
        self.lock().addr
    }
}

/// Point-in-time view of one replica for `/healthz` and `/metrics`.
#[derive(Debug, Clone)]
pub struct ReplicaView {
    /// Replica id (slot index).
    pub id: u32,
    /// Child process id, if running.
    pub pid: Option<u32>,
    /// Bound address, once discovered.
    pub addr: Option<SocketAddr>,
    /// Lifecycle phase name.
    pub phase: &'static str,
    /// Times the child was respawned after a crash.
    pub restarts_total: u64,
    /// Requests moved off this replica because it failed them.
    pub failovers_total: u64,
    /// Requests that spilled past this replica at its in-flight cap.
    pub spills_total: u64,
    /// Proxied requests currently in flight.
    pub inflight: u64,
    /// Outbound breaker phase name.
    pub breaker: &'static str,
}

/// Fleet-level status from the healthy-replica quorum: `ok` when every
/// replica is on the ring, `degraded` while at least half (rounded up)
/// are, `critical` below that.
#[must_use]
pub fn fleet_status(total: usize, healthy: usize) -> &'static str {
    if total > 0 && healthy >= total {
        "ok"
    } else if healthy > 0 && healthy >= total.div_ceil(2) {
        "degraded"
    } else {
        "critical"
    }
}

/// Shared fleet state: the slots and the routing ring. The supervisor
/// mutates it from the probe thread; the proxy reads it per request.
pub struct Fleet {
    slots: Vec<Arc<ReplicaSlot>>,
    ring: RwLock<Ring>,
    epoch: Instant,
}

impl Fleet {
    fn new(cfg: &ClusterConfig) -> Arc<Self> {
        let slots = (0..cfg.replicas)
            .map(|id| Arc::new(ReplicaSlot::new(id as u32, cfg)))
            .collect();
        metrics::CLUSTER_HEALTHY_REPLICAS.set(0.0);
        Arc::new(Self {
            slots,
            ring: RwLock::new(Ring::new(cfg.vnodes)),
            epoch: Instant::now(),
        })
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Total replica slots.
    #[must_use]
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Replicas currently on the ring.
    #[must_use]
    pub fn healthy(&self) -> usize {
        self.ring.read().expect("ring lock poisoned").len()
    }

    /// The slot for `id`.
    #[must_use]
    pub fn slot(&self, id: u32) -> Option<&Arc<ReplicaSlot>> {
        self.slots.get(id as usize)
    }

    /// Up to `n` healthy replicas for `key`, primary first (failover
    /// order). See [`Ring::ordered`].
    #[must_use]
    pub fn ordered(&self, key: &[u8], n: usize) -> Vec<u32> {
        self.ring.read().expect("ring lock poisoned").ordered(key, n)
    }

    /// The bound address of replica `id`, if known.
    #[must_use]
    pub fn replica_addr(&self, id: u32) -> Option<SocketAddr> {
        self.slot(id).and_then(|s| s.addr())
    }

    /// Per-replica views for `/healthz` and `/metrics` rendering.
    #[must_use]
    pub fn views(&self) -> Vec<ReplicaView> {
        let on_ring = {
            let ring = self.ring.read().expect("ring lock poisoned");
            self.slots.iter().map(|s| ring.contains(s.id)).collect::<Vec<_>>()
        };
        self.slots
            .iter()
            .zip(on_ring)
            .map(|(slot, ringed)| {
                let g = slot.lock();
                ReplicaView {
                    id: slot.id,
                    pid: g.pid,
                    addr: g.addr,
                    // The ring is the source of truth for "healthy".
                    phase: if ringed { Phase::Healthy.name() } else { g.phase.name() },
                    restarts_total: slot.restarts_total.load(Ordering::Relaxed),
                    failovers_total: slot.failovers_total.load(Ordering::Relaxed),
                    spills_total: slot.spills_total.load(Ordering::Relaxed),
                    inflight: slot.inflight.load(Ordering::Relaxed),
                    breaker: slot.breaker.phase_name(),
                }
            })
            .collect()
    }

    /// SIGKILLs replica `id`'s child process (test/bench hook; the
    /// supervisor notices the death on its next probe sweep and walks the
    /// slot through restart). Returns whether a process was killed.
    pub fn kill_replica(&self, id: u32) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        let mut g = slot.lock();
        match g.child.as_mut() {
            Some(child) => child.kill().is_ok(),
            None => false,
        }
    }

    fn set_membership(&self, id: u32, healthy: bool) {
        let mut ring = self.ring.write().expect("ring lock poisoned");
        if healthy {
            ring.add(id);
        } else {
            ring.remove(id);
        }
        metrics::CLUSTER_HEALTHY_REPLICAS.set(ring.len() as f64);
    }
}

/// What one `/healthz` probe concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeOutcome {
    Ok,
    Degraded,
    Unreachable,
}

fn probe_replica(addr: SocketAddr, timeout: Duration) -> ProbeOutcome {
    metrics::CLUSTER_PROBES.inc();
    // The closure gives the failpoint's injected error an early return
    // target that doesn't skip the rest of the probe accounting.
    #[allow(clippy::redundant_closure_call)]
    let injected = (|| {
        airchitect_chaos::fail_point!("cluster.probe", Err);
        Ok::<(), std::io::Error>(())
    })();
    let outcome = if injected.is_err() {
        ProbeOutcome::Unreachable
    } else {
        match HttpClient::connect(addr, timeout).and_then(|mut c| c.get("/healthz")) {
            Ok(resp) if resp.status == 200 && resp.body.contains("\"status\":\"ok\"") => {
                ProbeOutcome::Ok
            }
            Ok(resp) if resp.status == 200 => ProbeOutcome::Degraded,
            _ => ProbeOutcome::Unreachable,
        }
    };
    if outcome != ProbeOutcome::Ok {
        metrics::CLUSTER_PROBE_FAILURES.inc();
    }
    outcome
}

fn spawn_child(argv: &[String]) -> std::io::Result<Child> {
    airchitect_chaos::fail_point!("cluster.spawn", Err);
    Command::new(&argv[0])
        .args(&argv[1..])
        .arg("--port")
        .arg("0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Watches a child's stdout for its `listening on http://ADDR` line,
/// publishes the address into the slot, then keeps draining so the child
/// never blocks on a full pipe.
fn watch_stdout(slot: Arc<ReplicaSlot>, seq: u64, stdout: std::process::ChildStdout) {
    let _ = std::thread::Builder::new()
        .name(format!("replica-{}-stdout", slot.id))
        .spawn(move || {
            let reader = std::io::BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.trim().strip_prefix("listening on http://") {
                    if let Ok(addr) = rest.trim().parse::<SocketAddr>() {
                        let mut g = slot.lock();
                        if g.spawn_seq == seq && g.addr.is_none() {
                            g.addr = Some(addr);
                        }
                    }
                }
            }
        });
}

/// The fleet supervisor: owns the probe thread and the children.
pub struct Supervisor {
    fleet: Arc<Fleet>,
    stop: Arc<AtomicBool>,
    probe: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns the initial replicas and starts the probe thread.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an empty argv or zero replicas,
    /// and [`ServeError::Io`] when the very first spawn of a replica
    /// fails (a broken binary path should fail startup loudly, not spin
    /// in the restart loop).
    pub fn start(cfg: ClusterConfig) -> Result<(Self, Arc<Fleet>), ServeError> {
        if cfg.replica_argv.is_empty() {
            return Err(ServeError::Config("cluster replica argv is empty".into()));
        }
        if cfg.replicas == 0 {
            return Err(ServeError::Config("cluster needs at least 1 replica".into()));
        }
        let fleet = Fleet::new(&cfg);
        for slot in &fleet.slots {
            let child = spawn_child(&cfg.replica_argv)
                .map_err(|e| ServeError::Io(format!("spawn replica {}: {e}", slot.id)))?;
            attach_child(slot, child, fleet.now_ms(), false);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let probe = {
            let fleet = Arc::clone(&fleet);
            let cfg = cfg.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("cluster-probe".into())
                .spawn(move || probe_loop(&fleet, &cfg, &stop))
                .expect("spawn probe thread")
        };
        Ok((
            Self {
                fleet: Arc::clone(&fleet),
                stop,
                probe: Some(probe),
            },
            fleet,
        ))
    }

    /// The shared fleet state.
    #[must_use]
    pub fn fleet(&self) -> Arc<Fleet> {
        Arc::clone(&self.fleet)
    }

    /// Stops probing, asks every child to drain (`POST /v1/shutdown`),
    /// and reaps them — escalating to SIGKILL after a bounded wait.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.probe.take() {
            let _ = h.join();
        }
        // Ask everyone to drain first, then wait: replica drains overlap.
        let mut draining = Vec::new();
        for slot in &self.fleet.slots {
            let mut g = slot.lock();
            let child = g.child.take();
            let addr = g.addr.take();
            g.phase = Phase::Down;
            g.pid = None;
            drop(g);
            let Some(child) = child else { continue };
            if let Some(addr) = addr {
                if let Ok(mut c) = HttpClient::connect(addr, Duration::from_millis(500)) {
                    let _ = c.post("/v1/shutdown", "");
                }
            }
            draining.push(child);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for mut child in draining {
            loop {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    break;
                }
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        metrics::CLUSTER_HEALTHY_REPLICAS.set(0.0);
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        // Belt and braces for the non-`shutdown` path (panic, early
        // return): never leave orphan children running.
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.probe.take() {
            let _ = h.join();
        }
        for slot in &self.fleet.slots {
            let mut g = slot.lock();
            if let Some(mut child) = g.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn attach_child(slot: &Arc<ReplicaSlot>, mut child: Child, now_ms: u64, is_restart: bool) {
    let mut g = slot.lock();
    g.spawn_seq += 1;
    g.phase = Phase::Starting;
    g.addr = None;
    g.pid = Some(child.id());
    g.spawned_at_ms = now_ms;
    g.ok_streak = 0;
    g.fail_streak = 0;
    if is_restart && g.ever_spawned {
        slot.restarts_total.fetch_add(1, Ordering::Relaxed);
        metrics::CLUSTER_RESTARTS.inc();
    }
    g.ever_spawned = true;
    let seq = g.spawn_seq;
    let stdout = child.stdout.take();
    g.child = Some(child);
    drop(g);
    if let Some(stdout) = stdout {
        watch_stdout(Arc::clone(slot), seq, stdout);
    }
}

fn probe_loop(fleet: &Arc<Fleet>, cfg: &ClusterConfig, stop: &AtomicBool) {
    let interval = Duration::from_millis(cfg.probe_interval_ms.max(10));
    while !stop.load(Ordering::Acquire) {
        for slot in &fleet.slots {
            step_slot(fleet, slot, cfg);
            if stop.load(Ordering::Acquire) {
                return;
            }
        }
        // Sleep in short slices so shutdown is prompt even with a long
        // probe interval.
        let until = Instant::now() + interval;
        while Instant::now() < until {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn step_slot(fleet: &Arc<Fleet>, slot: &Arc<ReplicaSlot>, cfg: &ClusterConfig) {
    let now = fleet.now_ms();
    let mut g = slot.lock();
    if g.phase == Phase::Down {
        if now < g.next_restart_ms {
            return;
        }
        match spawn_child(&cfg.replica_argv) {
            Ok(child) => {
                drop(g);
                attach_child(slot, child, now, true);
            }
            Err(_) => {
                // A failed spawn is a crash at time zero: back off again.
                let decision = g.backoff.on_crash(now);
                g.next_restart_ms = now + decision.delay_ms();
            }
        }
        return;
    }

    // Dead child? `try_wait` also reaps the zombie.
    let dead = match g.child.as_mut() {
        None => true,
        Some(child) => matches!(child.try_wait(), Ok(Some(_))),
    };
    if dead {
        on_crash(fleet, slot, g, now);
        return;
    }

    if g.addr.is_none() {
        if now.saturating_sub(g.spawned_at_ms) > cfg.startup_timeout_ms {
            // Hung startup: never printed its address. Kill and restart.
            if let Some(child) = g.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            g.child = None;
            on_crash(fleet, slot, g, now);
        }
        return;
    }
    let addr = g.addr.expect("checked above");
    let seq = g.spawn_seq;
    // Probe without holding the slot lock: a slow replica must not block
    // `kill_replica`, `/healthz` rendering, or the proxy.
    drop(g);
    let outcome = probe_replica(addr, Duration::from_millis(cfg.probe_timeout_ms.max(1)));
    let g = slot.lock();
    if g.spawn_seq != seq || g.phase == Phase::Down {
        return; // the slot moved on while we probed
    }
    apply_probe(fleet, slot, g, cfg, outcome);
}

fn on_crash(
    fleet: &Arc<Fleet>,
    slot: &Arc<ReplicaSlot>,
    mut g: MutexGuard<'_, SlotInner>,
    now: u64,
) {
    let was_healthy = g.phase == Phase::Healthy;
    g.phase = Phase::Down;
    g.child = None;
    g.addr = None;
    g.pid = None;
    g.ok_streak = 0;
    g.fail_streak = 0;
    let decision = g.backoff.on_crash(now);
    g.next_restart_ms = now + decision.delay_ms();
    drop(g);
    if was_healthy {
        metrics::CLUSTER_EJECTIONS.inc();
    }
    fleet.set_membership(slot.id, false);
}

fn apply_probe(
    fleet: &Arc<Fleet>,
    slot: &Arc<ReplicaSlot>,
    mut g: MutexGuard<'_, SlotInner>,
    cfg: &ClusterConfig,
    outcome: ProbeOutcome,
) {
    match outcome {
        ProbeOutcome::Ok => {
            g.fail_streak = 0;
            g.ok_streak = g.ok_streak.saturating_add(1);
            if g.phase != Phase::Healthy {
                // First admission is eager (one ok probe); re-admission
                // after an ejection waits for a consecutive streak.
                let required = if g.ever_admitted {
                    cfg.readmit_after.max(1)
                } else {
                    1
                };
                if g.ok_streak >= required {
                    let readmitted = g.ever_admitted;
                    g.phase = Phase::Healthy;
                    g.ever_admitted = true;
                    g.backoff.on_stable();
                    drop(g);
                    fleet.set_membership(slot.id, true);
                    if readmitted {
                        metrics::CLUSTER_READMISSIONS.inc();
                    }
                }
            }
        }
        ProbeOutcome::Degraded => {
            g.ok_streak = 0;
            g.fail_streak = g.fail_streak.saturating_add(1);
            if g.phase == Phase::Healthy {
                // The replica itself says it is degraded: eject now.
                g.phase = Phase::Ejected;
                drop(g);
                fleet.set_membership(slot.id, false);
                metrics::CLUSTER_EJECTIONS.inc();
            }
        }
        ProbeOutcome::Unreachable => {
            g.ok_streak = 0;
            g.fail_streak = g.fail_streak.saturating_add(1);
            if g.phase == Phase::Healthy && g.fail_streak >= cfg.eject_after.max(1) {
                g.phase = Phase::Ejected;
                drop(g);
                fleet.set_membership(slot.id, false);
                metrics::CLUSTER_EJECTIONS.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backoff() -> RestartBackoff {
        RestartBackoff::new(100, 5000, 30_000, 5, 42)
    }

    #[test]
    fn backoff_delays_grow_exponentially_within_jitter_bounds() {
        let mut b = backoff();
        let mut now = 0u64;
        for attempt in 0..6u32 {
            let raw = (100u64 << attempt).min(5000);
            match b.on_crash(now) {
                RestartDecision::Backoff(d) => {
                    assert!(
                        d >= raw - raw / 2 && d <= raw,
                        "attempt {attempt}: delay {d} outside [{}, {raw}]",
                        raw - raw / 2
                    );
                }
                RestartDecision::Quarantine(_) => panic!("storm cap too eager"),
            }
            // Space the crashes out so the storm window never fills.
            now += 40_000;
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let mut a = RestartBackoff::new(100, 5000, 30_000, 5, 7);
        let mut b = RestartBackoff::new(100, 5000, 30_000, 5, 7);
        for i in 0..8u64 {
            assert_eq!(a.on_crash(i * 60_000), b.on_crash(i * 60_000));
        }
    }

    #[test]
    fn stability_resets_the_exponent_but_not_the_storm_history() {
        let mut b = backoff();
        let d1 = b.on_crash(0).delay_ms();
        let _ = b.on_crash(40_000);
        b.on_stable();
        // Attempt counter is back to zero: same bounds as the first crash.
        let d3 = b.on_crash(80_000).delay_ms();
        assert!(d1 <= 100 && d3 <= 100, "reset delays: {d1} {d3}");
    }

    #[test]
    fn restart_storm_degrades_to_one_attempt_per_window() {
        let mut b = backoff(); // cap 5 crashes / 30s window
        for i in 0..5 {
            assert!(
                matches!(b.on_crash(i * 10), RestartDecision::Backoff(_)),
                "crash {i} should still back off"
            );
        }
        assert!(
            matches!(b.on_crash(50), RestartDecision::Quarantine(_)),
            "6th crash in the window must quarantine"
        );
        // Once the window slides past the burst, normal backoff resumes.
        assert!(matches!(b.on_crash(100_000), RestartDecision::Backoff(_)));
    }

    #[test]
    fn storm_cap_zero_disables_the_cap() {
        let mut b = RestartBackoff::new(1, 10, 1000, 0, 3);
        for i in 0..50 {
            assert!(matches!(b.on_crash(i), RestartDecision::Backoff(_)));
        }
    }

    #[test]
    fn fleet_status_quorum_ladder() {
        assert_eq!(fleet_status(3, 3), "ok");
        assert_eq!(fleet_status(3, 2), "degraded");
        assert_eq!(fleet_status(3, 1), "critical");
        assert_eq!(fleet_status(3, 0), "critical");
        assert_eq!(fleet_status(2, 1), "degraded");
        assert_eq!(fleet_status(1, 1), "ok");
        assert_eq!(fleet_status(1, 0), "critical");
        assert_eq!(fleet_status(0, 0), "critical");
    }

    #[test]
    fn supervisor_rejects_bad_config() {
        let cfg = ClusterConfig::default(); // empty argv
        assert!(matches!(
            Supervisor::start(cfg),
            Err(ServeError::Config(_))
        ));
        let cfg = ClusterConfig {
            replica_argv: vec!["/bin/true".into()],
            replicas: 0,
            ..ClusterConfig::default()
        };
        assert!(matches!(
            Supervisor::start(cfg),
            Err(ServeError::Config(_))
        ));
    }
}
