//! Per-key circuit breakers for the serving path.
//!
//! A content-addressed compile cache has a failure mode the degradation
//! ladder alone cannot fix: a *poisoned artifact*. If a cached compile
//! result faults every time it executes (a latent miscompile, a
//! bit-flipped entry, an engine bug tickled by one program), every
//! request for that key pays a fault, degrades, and — because the entry
//! stays cached — the next request pays it again, forever.
//!
//! [`CircuitBreakers`] breaks that loop with one small state machine per
//! [`CacheKey`]:
//!
//! ```text
//!            failure_threshold consecutive
//!            execution faults (entry evicted)
//!   Closed ─────────────────────────────────▶ Open
//!     ▲                                        │ cooldown requests
//!     │ success_threshold                      │ routed to the
//!     │ consecutive probe successes            ▼ reference rung
//!     └─────────────────────────────────── HalfOpen
//!                 (a probe failure reopens, evicting again)
//! ```
//!
//! * **Closed** — requests are served normally; consecutive
//!   execution-time faults of the requested rung are counted, and a
//!   success resets the count.
//! * **Open** — tripping *quarantines* the key: the supervisor evicts the
//!   cached entry ([`crate::cache::CompileCache::quarantine`]) and the
//!   next `cooldown` requests for the key are routed straight down the
//!   degradation ladder to the unoptimized reference interpreter without
//!   consulting the cache at all, so a poisoned artifact is never
//!   re-served while the key is open.
//! * **HalfOpen** — after the cooldown, requests run normally again as
//!   *probes* (the evicted entry recompiles from source on the first
//!   probe). `success_threshold` consecutive probe successes close the
//!   key; one probe failure reopens it.
//!
//! Everything is request-count driven, never wall-clock driven, so
//! breaker trajectories are a pure function of the request sequence and
//! chaos tests replay exactly.

use crate::cache::CacheKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Thresholds for every per-key breaker in one [`CircuitBreakers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive execution-time faults of the requested rung that trip
    /// the key open (clamped to at least 1).
    pub failure_threshold: u32,
    /// Requests routed to the reference rung while open before the key
    /// goes half-open and admits a probe.
    pub cooldown: u32,
    /// Consecutive half-open probe successes that close the key
    /// (clamped to at least 1).
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: 2,
            success_threshold: 2,
        }
    }
}

/// The externally visible state of one key's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally.
    Closed,
    /// Tripped: requests bypass the cache and run on the reference rung.
    Open,
    /// Probing: requests run normally and decide the breaker's fate.
    HalfOpen,
}

/// What the breaker decided for one incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: serve normally.
    Serve,
    /// Half-open: serve normally; the outcome closes or reopens the key.
    Probe,
    /// Open: route straight to the unoptimized reference interpreter and
    /// do not consult the cache for this key.
    Reference,
}

enum KeyState {
    Closed { failures: u32 },
    Open { cooldown_left: u32 },
    HalfOpen { successes: u32 },
}

/// Monotonic counters over every key, snapshotted by
/// [`CircuitBreakers::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed keys tripped open (each trip quarantines the cache entry).
    pub trips: u64,
    /// Half-open probes that failed and reopened the key.
    pub reopens: u64,
    /// Half-open keys that closed after enough probe successes.
    pub closes: u64,
    /// Requests admitted as half-open probes.
    pub probes: u64,
    /// Requests routed to the reference rung because the key was open.
    pub rejected: u64,
}

/// The registry of per-[`CacheKey`] breakers shared by every worker of a
/// serve batch. See the module docs for the state machine.
#[derive(Debug, Default)]
pub struct CircuitBreakers {
    config: BreakerConfig,
    keys: Mutex<HashMap<CacheKey, KeyState>>,
    trips: AtomicU64,
    reopens: AtomicU64,
    closes: AtomicU64,
    probes: AtomicU64,
    rejected: AtomicU64,
}

impl std::fmt::Debug for KeyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyState::Closed { failures } => write!(f, "Closed({failures})"),
            KeyState::Open { cooldown_left } => write!(f, "Open({cooldown_left})"),
            KeyState::HalfOpen { successes } => write!(f, "HalfOpen({successes})"),
        }
    }
}

impl CircuitBreakers {
    /// A registry where every key starts closed.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreakers {
            config,
            ..CircuitBreakers::default()
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Decides how to serve the next request for `key`, advancing the
    /// open → half-open transition as cooldown requests arrive.
    pub fn admit(&self, key: CacheKey) -> Admission {
        let mut keys = self.keys.lock().expect("breaker lock poisoned");
        let state = keys.entry(key).or_insert(KeyState::Closed { failures: 0 });
        match state {
            KeyState::Closed { .. } => Admission::Serve,
            KeyState::Open { cooldown_left } if *cooldown_left > 0 => {
                *cooldown_left -= 1;
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Admission::Reference
            }
            KeyState::Open { .. } | KeyState::HalfOpen { .. } => {
                if matches!(state, KeyState::Open { .. }) {
                    *state = KeyState::HalfOpen { successes: 0 };
                }
                self.probes.fetch_add(1, Ordering::Relaxed);
                Admission::Probe
            }
        }
    }

    /// Records a successful run of the requested rung. Resets a closed
    /// key's failure count; advances (and possibly closes) a half-open
    /// key.
    pub fn record_success(&self, key: CacheKey) {
        let mut keys = self.keys.lock().expect("breaker lock poisoned");
        let Some(state) = keys.get_mut(&key) else {
            return;
        };
        match state {
            KeyState::Closed { failures } => *failures = 0,
            KeyState::HalfOpen { successes } => {
                *successes += 1;
                if *successes >= self.config.success_threshold.max(1) {
                    *state = KeyState::Closed { failures: 0 };
                    self.closes.fetch_add(1, Ordering::Relaxed);
                }
            }
            KeyState::Open { .. } => {}
        }
    }

    /// Records an execution-time fault of the requested rung. Returns
    /// `true` when this fault trips (or re-trips) the key open — the
    /// caller must then quarantine the cached entry.
    pub fn record_failure(&self, key: CacheKey) -> bool {
        let mut keys = self.keys.lock().expect("breaker lock poisoned");
        let state = keys.entry(key).or_insert(KeyState::Closed { failures: 0 });
        match state {
            KeyState::Closed { failures } => {
                *failures += 1;
                if *failures >= self.config.failure_threshold.max(1) {
                    *state = KeyState::Open {
                        cooldown_left: self.config.cooldown,
                    };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            KeyState::HalfOpen { .. } => {
                *state = KeyState::Open {
                    cooldown_left: self.config.cooldown,
                };
                self.reopens.fetch_add(1, Ordering::Relaxed);
                true
            }
            KeyState::Open { .. } => false,
        }
    }

    /// The current state of `key`'s breaker (closed if never seen).
    pub fn state(&self, key: &CacheKey) -> BreakerState {
        let keys = self.keys.lock().expect("breaker lock poisoned");
        match keys.get(key) {
            None | Some(KeyState::Closed { .. }) => BreakerState::Closed,
            Some(KeyState::Open { .. }) => BreakerState::Open,
            Some(KeyState::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            trips: self.trips.load(Ordering::Relaxed),
            reopens: self.reopens.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Level;

    fn key(content: u64) -> CacheKey {
        CacheKey {
            program: 0,
            content,
            spec: Level::C2.into(),
            bytecode: true,
        }
    }

    fn breakers() -> CircuitBreakers {
        CircuitBreakers::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: 2,
            success_threshold: 2,
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = breakers();
        let k = key(1);
        assert!(!b.record_failure(k));
        assert!(!b.record_failure(k));
        assert_eq!(b.state(&k), BreakerState::Closed);
        assert!(b.record_failure(k), "third consecutive failure trips");
        assert_eq!(b.state(&k), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
    }

    #[test]
    fn success_resets_the_closed_failure_count() {
        let b = breakers();
        let k = key(2);
        b.record_failure(k);
        b.record_failure(k);
        b.record_success(k);
        assert!(!b.record_failure(k));
        assert!(!b.record_failure(k));
        assert!(b.record_failure(k), "count restarted after the success");
    }

    #[test]
    fn open_routes_to_reference_for_cooldown_then_probes() {
        let b = breakers();
        let k = key(3);
        for _ in 0..3 {
            b.record_failure(k);
        }
        assert_eq!(b.admit(k), Admission::Reference);
        assert_eq!(b.admit(k), Admission::Reference);
        assert_eq!(b.admit(k), Admission::Probe, "cooldown spent");
        assert_eq!(b.state(&k), BreakerState::HalfOpen);
        let s = b.stats();
        assert_eq!((s.rejected, s.probes), (2, 1));
    }

    #[test]
    fn probe_successes_close_and_probe_failure_reopens() {
        let b = breakers();
        let k = key(4);
        for _ in 0..3 {
            b.record_failure(k);
        }
        for _ in 0..2 {
            b.admit(k);
        }
        assert_eq!(b.admit(k), Admission::Probe);
        b.record_success(k);
        assert_eq!(b.state(&k), BreakerState::HalfOpen, "one success of two");
        assert_eq!(b.admit(k), Admission::Probe);
        b.record_success(k);
        assert_eq!(b.state(&k), BreakerState::Closed);
        assert_eq!(b.stats().closes, 1);
        assert_eq!(b.admit(k), Admission::Serve);

        // Trip again, probe, and fail the probe: straight back to open.
        for _ in 0..3 {
            b.record_failure(k);
        }
        for _ in 0..2 {
            b.admit(k);
        }
        assert_eq!(b.admit(k), Admission::Probe);
        assert!(b.record_failure(k), "a probe failure re-trips");
        assert_eq!(b.state(&k), BreakerState::Open);
        assert_eq!(b.stats().reopens, 1);
        assert_eq!(b.admit(k), Admission::Reference);
    }

    #[test]
    fn keys_are_independent() {
        let b = breakers();
        for _ in 0..3 {
            b.record_failure(key(5));
        }
        assert_eq!(b.state(&key(5)), BreakerState::Open);
        assert_eq!(b.admit(key(6)), Admission::Serve);
        assert_eq!(b.state(&key(6)), BreakerState::Closed);
    }
}
