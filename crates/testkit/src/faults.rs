//! Deterministic fault injection for chaos testing.
//!
//! Production crates instrument a handful of *fault sites* (the fusion
//! `GROW` step, the bytecode verifier, the VM dispatch loop, the ghost
//! message channel). Each site asks [`fire`] whether the active
//! [`FaultPlan`] wants a fault there; with no plan installed the call is a
//! thread-local read and a `None` check, so the instrumentation costs
//! nothing measurable on the fault-free path.
//!
//! Plans are driven by the crate's seeded [`Rng`], so a fault
//! schedule is a pure function of `(seed, sequence of fire() calls)` and
//! every chaos failure reproduces exactly.
//!
//! ```
//! use testkit::faults::{self, FaultPlan, FaultSite};
//! let plan = FaultPlan::new(42).with(FaultSite::VmTrap, 1.0);
//! let _guard = faults::install(plan);
//! assert!(faults::fire(FaultSite::VmTrap));
//! assert!(!faults::fire(FaultSite::FuseGrow));
//! ```

use crate::Rng;
use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;

/// An instrumented location in the pipeline where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside the fusion `GROW` step (`fusion_core::fusion`).
    FuseGrow,
    /// The bytecode verifier falsely rejects a correct program
    /// (`loopir::vm::Vm::verify`).
    VerifyReject,
    /// The VM dispatch loop traps at a nest boundary (`loopir::vm`).
    VmTrap,
    /// A vectorized ghost-region message is dropped in transit
    /// (`runtime::comm`); the tracker retries with backoff.
    CommDrop,
    /// A ghost-region message is delivered twice (`runtime::comm`); the
    /// duplicate is discarded but its bandwidth and latency are paid.
    CommDup,
    /// A serving worker wedges before looking at the clock
    /// (`fusion_core::serve`): the stall shows up as queue wait for the
    /// stalled request and every request queued behind it.
    ServeStall,
    /// A serving worker panics mid-request, between dequeue and the
    /// supervisor's fault boundary (`fusion_core::serve`).
    WorkerPanic,
    /// A cached compile artifact comes back bit-flipped: consuming the
    /// hit faults at execution time (`fusion_core::supervisor`), which is
    /// what drives cache quarantine.
    CacheCorrupt,
}

impl FaultSite {
    /// Every site, in a stable order.
    pub fn all() -> [FaultSite; 8] {
        [
            FaultSite::FuseGrow,
            FaultSite::VerifyReject,
            FaultSite::VmTrap,
            FaultSite::CommDrop,
            FaultSite::CommDup,
            FaultSite::ServeStall,
            FaultSite::WorkerPanic,
            FaultSite::CacheCorrupt,
        ]
    }

    /// The site's spelling in plan specs and injected-fault messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::FuseGrow => "grow-panic",
            FaultSite::VerifyReject => "verify-reject",
            FaultSite::VmTrap => "vm-trap",
            FaultSite::CommDrop => "comm-drop",
            FaultSite::CommDup => "comm-dup",
            FaultSite::ServeStall => "serve-stall",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::CacheCorrupt => "cache-corrupt",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultSite::all()
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::all().iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site `{s}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// One injection rule: fire at `site` with `probability`, at most
/// `max_fires` times (unlimited when `None`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where to inject.
    pub site: FaultSite,
    /// Per-visit firing probability in `[0, 1]`.
    pub probability: f64,
    /// Cap on total fires, or `None` for unlimited.
    pub max_fires: Option<u64>,
}

/// A deterministic fault schedule: a seed plus a set of rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with a seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds an unlimited rule.
    pub fn with(self, site: FaultSite, probability: f64) -> Self {
        self.with_limited(site, probability, None)
    }

    /// Replaces the seed, keeping the rules. The serve path uses this to
    /// give every worker thread its own deterministic schedule derived
    /// from one batch-level plan.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a rule with a cap on total fires.
    pub fn with_limited(
        mut self,
        site: FaultSite,
        probability: f64,
        max_fires: Option<u64>,
    ) -> Self {
        self.rules.push(FaultRule {
            site,
            probability: probability.clamp(0.0, 1.0),
            max_fires,
        });
        self
    }

    /// True if no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(|r| r.probability == 0.0)
    }

    /// Parses a plan spec: comma-separated entries, each either
    /// `seed=<n>` or `<site>[:probability[:max-fires]]` (probability
    /// defaults to 1, max-fires to unlimited). Example:
    /// `seed=7,grow-panic,comm-drop:0.5:3`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed `{seed}` in fault plan"))?;
                continue;
            }
            let mut parts = entry.split(':');
            let site: FaultSite = parts.next().unwrap_or_default().parse()?;
            let probability = match parts.next() {
                None => 1.0,
                Some(p) => p
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("bad probability `{p}` for `{site}` (want 0..=1)"))?,
            };
            let max_fires = match parts.next() {
                None => None,
                Some(m) => Some(
                    m.parse()
                        .map_err(|_| format!("bad max-fires `{m}` for `{site}`"))?,
                ),
            };
            if let Some(extra) = parts.next() {
                return Err(format!("trailing `{extra}` in fault-plan entry `{entry}`"));
            }
            plan.rules.push(FaultRule {
                site,
                probability,
                max_fires,
            });
        }
        Ok(plan)
    }
}

/// The installed plan plus its mutable firing state.
struct ActivePlan {
    plan: FaultPlan,
    rng: Rng,
    fired: Vec<(FaultSite, u64)>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActivePlan>> = const { RefCell::new(None) };
}

/// Uninstalls the plan it guards when dropped, restoring the previous one.
pub struct FaultGuard {
    previous: Option<ActivePlan>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.previous.take());
    }
}

/// Installs a fault plan for the current thread until the guard drops.
/// Nested installs stack: dropping the guard restores the previous plan.
#[must_use = "the plan is uninstalled when the guard drops"]
pub fn install(plan: FaultPlan) -> FaultGuard {
    let rng = Rng::new(plan.seed);
    let previous = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActivePlan {
            plan,
            rng,
            fired: Vec::new(),
        })
    });
    FaultGuard { previous }
}

/// Asks the active plan whether to inject a fault at `site`. Always
/// `false` when no plan is installed.
pub fn fire(site: FaultSite) -> bool {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        let Some(active) = borrow.as_mut() else {
            return false;
        };
        let mut decided = false;
        for rule in &active.plan.rules {
            if rule.site != site || decided {
                continue;
            }
            let already = active
                .fired
                .iter()
                .find(|(s, _)| *s == site)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            if rule.max_fires.is_some_and(|m| already >= m) {
                continue;
            }
            // Draw even for probability 1.0 so schedules stay aligned when
            // a probability is tweaked between runs.
            let draw = active.rng.f64(0.0, 1.0);
            if draw < rule.probability {
                match active.fired.iter_mut().find(|(s, _)| *s == site) {
                    Some((_, n)) => *n += 1,
                    None => active.fired.push((site, 1)),
                }
                decided = true;
            }
        }
        decided
    })
}

/// Panics with a recognizable injected-fault message if the plan fires at
/// `site`. The message names the site so supervisors and tests can
/// attribute the fault.
pub fn maybe_panic(site: FaultSite) {
    if fire(site) {
        panic!("injected fault: {}", site.name());
    }
}

/// The standard message for a non-panic injected fault at `site`.
pub fn message(site: FaultSite) -> String {
    format!("injected fault: {}", site.name())
}

/// Fire counts per site under the active plan (for test assertions).
pub fn fired() -> Vec<(FaultSite, u64)> {
    ACTIVE.with(|a| {
        a.borrow()
            .as_ref()
            .map(|p| p.fired.clone())
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_never_fires() {
        assert!(!fire(FaultSite::FuseGrow));
        assert!(fired().is_empty());
    }

    #[test]
    fn probability_one_always_fires_and_counts() {
        let _g = install(FaultPlan::new(1).with(FaultSite::VmTrap, 1.0));
        for _ in 0..5 {
            assert!(fire(FaultSite::VmTrap));
        }
        assert!(!fire(FaultSite::CommDrop), "other sites stay quiet");
        assert_eq!(fired(), vec![(FaultSite::VmTrap, 5)]);
    }

    #[test]
    fn max_fires_caps_the_schedule() {
        let _g = install(FaultPlan::new(1).with_limited(FaultSite::CommDrop, 1.0, Some(2)));
        assert!(fire(FaultSite::CommDrop));
        assert!(fire(FaultSite::CommDrop));
        assert!(!fire(FaultSite::CommDrop), "cap reached");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let run = |seed| {
            let _g = install(FaultPlan::new(seed).with(FaultSite::CommDrop, 0.5));
            (0..64)
                .map(|_| fire(FaultSite::CommDrop))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds give different schedules");
    }

    #[test]
    fn guard_restores_previous_plan() {
        let _outer = install(FaultPlan::new(1).with(FaultSite::VmTrap, 1.0));
        {
            let _inner = install(FaultPlan::new(2)); // empty plan
            assert!(!fire(FaultSite::VmTrap));
        }
        assert!(fire(FaultSite::VmTrap), "outer plan restored");
    }

    #[test]
    fn parse_roundtrips_the_spec_grammar() {
        let p = FaultPlan::parse("seed=7,grow-panic,comm-drop:0.5:3").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].site, FaultSite::FuseGrow);
        assert_eq!(p.rules[0].probability, 1.0);
        assert_eq!(p.rules[1].probability, 0.5);
        assert_eq!(p.rules[1].max_fires, Some(3));
        assert!(FaultPlan::parse("bogus-site").is_err());
        assert!(FaultPlan::parse("vm-trap:2.0").is_err());
        assert!(FaultPlan::parse("vm-trap:0.5:x").is_err());
        assert!(FaultPlan::parse("vm-trap:0.5:1:9").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn panics_carry_the_site_name() {
        let _g = install(FaultPlan::new(3).with(FaultSite::FuseGrow, 1.0));
        let err = std::panic::catch_unwind(|| maybe_panic(FaultSite::FuseGrow)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault: grow-panic"), "{msg}");
    }
}
