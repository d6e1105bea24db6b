//! `airchitect-chaos` — a zero-dependency failpoint framework for fault
//! injection, in the spirit of the `fail` crate.
//!
//! Library code marks its real fault surfaces with
//! [`fail_point!`]`("name")` (or the error-returning form
//! `fail_point!("name", |e| Err(e.into()))`). With the `enabled` cargo
//! feature off — the default, and what release builds ship — both macro
//! arms expand to *nothing*: no branch, no registry, zero overhead. With
//! `--features chaos` (workspace crates forward it to `enabled` here), a
//! process-global registry decides at runtime whether each point fires.
//!
//! Points are configured programmatically ([`configure_str`], [`set`]) or
//! via the `AIRCHITECT_CHAOS` environment variable, read once at first
//! use. The grammar is `name=action[:probability][:count]`, `;`-separated:
//!
//! ```text
//! AIRCHITECT_CHAOS='serve.reload.read=err(other):1:1;serve.batch.dispatch=delay(20):0.1'
//! ```
//!
//! Actions:
//!
//! * `err(kind)` — inject an [`std::io::Error`] of the given kind
//!   (`interrupted`, `wouldblock`, `notfound`, `timedout`, `brokenpipe`,
//!   `connreset`, `other`); only points with a handler arm surface it.
//! * `delay(ms)` — sleep the calling thread (latency spike).
//! * `panic` — panic the calling thread (exercises panic isolation).
//! * `off` — remove the point.
//!
//! `probability` (default 1.0) gates each evaluation through a
//! deterministic xorshift PRNG (seedable via `AIRCHITECT_CHAOS_SEED`);
//! `count` (default unlimited) caps total firings — `:1` is a one-shot
//! trigger. Per-point fired counters ([`fired`]) let tests assert exactly
//! how many injections landed.
//!
//! Instrumented point names (see DESIGN.md §11 for per-point semantics):
//!
//! * persistence — `persist.read`, `persist.write`, `dse.shard`,
//!   `dse.shard.save`;
//! * single-process serving — `serve.listener.accept`, `serve.conn.read`,
//!   `serve.conn.write`, `serve.batch.dispatch`, `serve.infer`,
//!   `serve.reload.read`;
//! * cluster mode — `cluster.probe` (health probe fails as unreachable),
//!   `cluster.spawn` (replica spawn fails, driving restart backoff),
//!   `cluster.proxy.read` (routed attempt fails before the replica,
//!   forcing failover); the router's own accepts, reads and writes go
//!   through the `serve.*` listener points above.

#![warn(missing_docs)]

/// Injects a failure at a named point — or nothing at all when the
/// `enabled` feature is off.
///
/// Two forms:
///
/// * `fail_point!("name")` — delay and panic actions take effect; an
///   injected error is counted but cannot be surfaced.
/// * `fail_point!("name", |e| EXPR)` — on an injected [`std::io::Error`]
///   the macro does `return EXPR`, so the closure maps the error into the
///   enclosing function's return type.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        if let Some(_chaos_err) = $crate::hit($name) {
            // Error actions need the handler arm to surface; delay and
            // panic already took effect inside `hit`.
        }
    };
    ($name:expr, $handler:expr) => {
        if let Some(chaos_err) = $crate::hit($name) {
            return ($handler)(chaos_err);
        }
    };
}

/// Injects a failure at a named point — or nothing at all when the
/// `enabled` feature is off (this variant: both arms expand to nothing).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        // Evaluate (and discard) the name so call sites passing it via a
        // variable do not trip `unused_variables` in chaos-free builds.
        let _ = $name;
    };
    ($name:expr, $handler:expr) => {
        let _ = $name;
    };
}

/// Whether failpoints are compiled into this build.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What a firing point does to its caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Inject an `io::Error` of this kind (handler arm required to
        /// surface it).
        Err(std::io::ErrorKind),
        /// Sleep the calling thread for this many milliseconds.
        Delay(u64),
        /// Panic the calling thread.
        Panic,
    }

    /// Runtime configuration of one failpoint.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PointSpec {
        /// Effect when the point fires.
        pub action: Action,
        /// Chance each evaluation fires, `0.0..=1.0`.
        pub probability: f64,
        /// Remaining firings; `None` is unlimited, `Some(1)` a one-shot.
        pub remaining: Option<u64>,
    }

    impl PointSpec {
        /// An always-on, unlimited spec for `action`.
        pub fn always(action: Action) -> Self {
            Self {
                action,
                probability: 1.0,
                remaining: None,
            }
        }
    }

    struct Registry {
        specs: HashMap<String, PointSpec>,
        fired: HashMap<String, u64>,
        rng: u64,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let seed = std::env::var("AIRCHITECT_CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            let mut reg = Registry {
                specs: HashMap::new(),
                fired: HashMap::new(),
                rng: seed | 1,
            };
            if let Ok(cfg) = std::env::var("AIRCHITECT_CHAOS") {
                // A bad env spec must not take down the host process; it
                // simply configures nothing.
                let _ = apply_str(&mut reg.specs, &cfg);
            }
            Mutex::new(reg)
        })
    }

    fn parse_kind(kind: &str) -> Result<std::io::ErrorKind, String> {
        use std::io::ErrorKind as K;
        Ok(match kind {
            "interrupted" => K::Interrupted,
            "wouldblock" => K::WouldBlock,
            "notfound" => K::NotFound,
            "timedout" => K::TimedOut,
            "brokenpipe" => K::BrokenPipe,
            "connreset" => K::ConnectionReset,
            "other" => K::Other,
            _ => return Err(format!("unknown io error kind `{kind}`")),
        })
    }

    fn parse_action(text: &str) -> Result<Option<Action>, String> {
        if text == "panic" {
            return Ok(Some(Action::Panic));
        }
        if text == "off" {
            return Ok(None);
        }
        let (name, rest) = text
            .split_once('(')
            .ok_or_else(|| format!("malformed action `{text}`"))?;
        let arg = rest
            .strip_suffix(')')
            .ok_or_else(|| format!("unclosed action `{text}`"))?;
        match name {
            "err" => Ok(Some(Action::Err(parse_kind(arg)?))),
            "delay" => {
                let ms = arg
                    .parse::<u64>()
                    .map_err(|_| format!("bad delay `{arg}`"))?;
                Ok(Some(Action::Delay(ms)))
            }
            _ => Err(format!("unknown action `{name}`")),
        }
    }

    fn apply_str(specs: &mut HashMap<String, PointSpec>, cfg: &str) -> Result<(), String> {
        for entry in cfg.split(';').filter(|e| !e.trim().is_empty()) {
            let (name, value) = entry
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("missing `=` in `{entry}`"))?;
            let mut parts = value.split(':');
            let action_text = parts.next().expect("split yields at least one part");
            let probability = match parts.next() {
                None => 1.0,
                Some(p) => {
                    let p = p
                        .parse::<f64>()
                        .map_err(|_| format!("bad probability `{p}`"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability `{p}` outside 0..=1"));
                    }
                    p
                }
            };
            let remaining = match parts.next() {
                None => None,
                Some(c) => Some(
                    c.parse::<u64>()
                        .map_err(|_| format!("bad count `{c}`"))?,
                ),
            };
            if let Some(extra) = parts.next() {
                return Err(format!("trailing `:{extra}` in `{entry}`"));
            }
            match parse_action(action_text)? {
                Some(action) => {
                    specs.insert(
                        name.trim().to_string(),
                        PointSpec {
                            action,
                            probability,
                            remaining,
                        },
                    );
                }
                None => {
                    specs.remove(name.trim());
                }
            }
        }
        Ok(())
    }

    /// Merges `cfg` (the `AIRCHITECT_CHAOS` grammar) into the registry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry; earlier valid
    /// entries in the same string are already applied.
    pub fn configure_str(cfg: &str) -> Result<(), String> {
        let mut reg = registry().lock().expect("chaos registry poisoned");
        apply_str(&mut reg.specs, cfg)
    }

    /// Sets one point's spec, replacing any existing configuration.
    pub fn set(name: &str, spec: PointSpec) {
        registry()
            .lock()
            .expect("chaos registry poisoned")
            .specs
            .insert(name.to_string(), spec);
    }

    /// Removes one point (it stops firing; its counter survives).
    pub fn remove(name: &str) {
        registry()
            .lock()
            .expect("chaos registry poisoned")
            .specs
            .remove(name);
    }

    /// Removes every configured point, keeping the fired counters.
    pub fn clear() {
        registry()
            .lock()
            .expect("chaos registry poisoned")
            .specs
            .clear();
    }

    /// Removes every configured point *and* zeroes the fired counters.
    pub fn reset() {
        let mut reg = registry().lock().expect("chaos registry poisoned");
        reg.specs.clear();
        reg.fired.clear();
    }

    /// How many times `name` has fired since the last [`reset`].
    pub fn fired(name: &str) -> u64 {
        registry()
            .lock()
            .expect("chaos registry poisoned")
            .fired
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Total firings across all points since the last [`reset`].
    pub fn total_fired() -> u64 {
        registry()
            .lock()
            .expect("chaos registry poisoned")
            .fired
            .values()
            .sum()
    }

    /// xorshift64*: deterministic, no dependencies, good enough to gate
    /// probabilistic injections.
    fn next_f64(state: &mut u64) -> f64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Evaluates the point: decides whether it fires, applies delay/panic
    /// inline, and returns the injected error for `Err` actions.
    ///
    /// Used by the `fail_point!` expansion; call it directly only from
    /// harness code.
    #[doc(hidden)]
    pub fn hit(name: &str) -> Option<std::io::Error> {
        let action = {
            let mut reg = registry().lock().expect("chaos registry poisoned");
            let spec = match reg.specs.get(name) {
                Some(s) => *s,
                None => return None,
            };
            if spec.remaining == Some(0) {
                return None;
            }
            if spec.probability < 1.0 && next_f64(&mut reg.rng) >= spec.probability {
                return None;
            }
            if let Some(left) = spec.remaining {
                reg.specs
                    .get_mut(name)
                    .expect("checked above")
                    .remaining = Some(left - 1);
            }
            *reg.fired.entry(name.to_string()).or_insert(0) += 1;
            spec.action
        };
        // The lock is released: delays and panics must not serialize (or
        // poison) the whole registry.
        match action {
            Action::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                None
            }
            Action::Panic => panic!("chaos failpoint `{name}`"),
            Action::Err(kind) => Some(std::io::Error::new(
                kind,
                format!("chaos injected at `{name}`"),
            )),
        }
    }
}

#[cfg(feature = "enabled")]
pub use imp::{
    clear, configure_str, fired, hit, remove, reset, set, total_fired, Action, PointSpec,
};

#[cfg(not(feature = "enabled"))]
mod stubs {
    /// Stub: failpoints are compiled out of this build.
    ///
    /// # Errors
    ///
    /// Always errors, so harnesses that require injection fail loudly
    /// instead of silently testing nothing.
    pub fn configure_str(_cfg: &str) -> Result<(), String> {
        Err("chaos failpoints are not compiled in (rebuild with `--features chaos`)".into())
    }

    /// Stub: no points exist, so nothing has fired.
    pub fn fired(_name: &str) -> u64 {
        0
    }

    /// Stub: no points exist, so nothing has fired.
    pub fn total_fired() -> u64 {
        0
    }

    /// Stub: nothing to clear.
    pub fn clear() {}

    /// Stub: nothing to reset.
    pub fn reset() {}

    /// Stub: nothing to remove.
    pub fn remove(_name: &str) {}
}

#[cfg(not(feature = "enabled"))]
pub use stubs::{clear, configure_str, fired, remove, reset, total_fired};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    // Each test uses unique point names: the registry is process-global
    // and libtest runs tests concurrently.

    fn io_demo(point: &str) -> std::io::Result<u32> {
        fail_point!(point, Err);
        Ok(7)
    }

    #[test]
    fn unconfigured_points_never_fire() {
        assert_eq!(io_demo("t.none").unwrap(), 7);
        assert_eq!(fired("t.none"), 0);
    }

    #[test]
    fn error_injection_surfaces_through_the_handler() {
        set(
            "t.err",
            PointSpec::always(Action::Err(ErrorKind::Interrupted)),
        );
        let err = io_demo("t.err").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);
        assert_eq!(fired("t.err"), 1);
        remove("t.err");
        assert_eq!(io_demo("t.err").unwrap(), 7);
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        set(
            "t.oneshot",
            PointSpec {
                action: Action::Err(ErrorKind::Other),
                probability: 1.0,
                remaining: Some(1),
            },
        );
        assert!(io_demo("t.oneshot").is_err());
        assert_eq!(io_demo("t.oneshot").unwrap(), 7);
        assert_eq!(io_demo("t.oneshot").unwrap(), 7);
        assert_eq!(fired("t.oneshot"), 1);
        remove("t.oneshot");
    }

    #[test]
    fn probability_zero_never_fires() {
        set(
            "t.p0",
            PointSpec {
                action: Action::Err(ErrorKind::Other),
                probability: 0.0,
                remaining: None,
            },
        );
        for _ in 0..100 {
            assert!(io_demo("t.p0").is_ok());
        }
        assert_eq!(fired("t.p0"), 0);
        remove("t.p0");
    }

    #[test]
    fn fractional_probability_fires_sometimes() {
        set(
            "t.phalf",
            PointSpec {
                action: Action::Err(ErrorKind::Other),
                probability: 0.5,
                remaining: None,
            },
        );
        let errs = (0..200).filter(|_| io_demo("t.phalf").is_err()).count();
        assert!(
            (40..=160).contains(&errs),
            "p=0.5 fired {errs}/200 times — PRNG badly skewed"
        );
        remove("t.phalf");
    }

    #[test]
    fn delay_actions_sleep_the_caller() {
        set("t.delay", PointSpec::always(Action::Delay(30)));
        let t0 = std::time::Instant::now();
        fail_point!("t.delay");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        remove("t.delay");
    }

    #[test]
    fn panic_actions_panic_with_the_point_name() {
        set("t.panic", PointSpec::always(Action::Panic));
        let caught = std::panic::catch_unwind(|| fail_point!("t.panic"));
        remove("t.panic");
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("t.panic"), "{msg}");
    }

    #[test]
    fn config_string_round_trips() {
        configure_str("t.cfg.a=err(timedout):0.25:3; t.cfg.b=delay(5)").unwrap();
        configure_str("t.cfg.a=off").unwrap();
        assert!(io_demo("t.cfg.a").is_ok(), "`off` removes the point");
        fail_point!("t.cfg.b"); // fires (delay 5ms), must not error
        assert_eq!(fired("t.cfg.b"), 1);
        remove("t.cfg.b");

        assert!(configure_str("nonsense").is_err());
        assert!(configure_str("x=warp(9)").is_err());
        assert!(configure_str("x=err(other):1.5").is_err());
        assert!(configure_str("x=err(other):1:2:3").is_err());
        assert!(configure_str("x=err(gremlins)").is_err());
    }

    #[test]
    fn plain_form_counts_error_actions_without_surfacing() {
        set(
            "t.plain",
            PointSpec::always(Action::Err(ErrorKind::Other)),
        );
        fail_point!("t.plain"); // no handler: recorded, not returned
        assert_eq!(fired("t.plain"), 1);
        remove("t.plain");
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    #[test]
    fn disabled_build_is_inert() {
        assert!(!super::is_enabled());
        assert!(super::configure_str("x=panic").is_err());
        assert_eq!(super::fired("x"), 0);
        // The macro must expand to nothing (and not evaluate the handler).
        fn f() -> std::io::Result<()> {
            crate::fail_point!("x", |e| Err(e));
            Ok(())
        }
        assert!(f().is_ok());
    }
}
