//! Named fault-injection sites for the chaos-test harness.
//!
//! A *failpoint* is a named checkpoint compiled into production code paths
//! (the executor's join boundary, LFP rounds, the serving layer's flight
//! leaders and stream writers). With the `failpoints` cargo feature enabled,
//! tests arm a site with an `Action` — panic, sleep, or inject an error —
//! and the next execution that passes the site fires it. Without the
//! feature, [`hit`] compiles to an inlined `false` and the sites cost
//! nothing; none of the injection API exists, so release servers cannot be
//! faulted at runtime.
//!
//! Sites compiled into this workspace:
//!
//! | site                 | location                            | effect of arming |
//! |----------------------|-------------------------------------|------------------|
//! | `exec-panic`         | executor join boundary              | panic inside the executor |
//! | `lfp-round-sleep`    | each LFP / multi-LFP round          | slow rounds (deadline tests) |
//! | `stream-write-error` | chunked response writer (serve)     | mid-stream I/O error |
//! | `flight-poison`      | single-flight leader closure (serve)| leader panics, flight poisoned |

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::time::Duration;

    /// What an armed failpoint does when execution passes it.
    #[derive(Clone, Debug)]
    pub enum Action {
        /// Panic with a message naming the site.
        Panic,
        /// Sleep for the given duration, then continue.
        Sleep(Duration),
        /// Ask the call site to fail: [`super::hit`] returns `true` and the
        /// caller injects its own typed error (e.g. an I/O error).
        Return,
    }

    fn registry() -> &'static Mutex<HashMap<String, Action>> {
        static SITES: OnceLock<Mutex<HashMap<String, Action>>> = OnceLock::new();
        SITES.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arm `site` with `action`. Replaces any previous arming.
    pub fn configure(site: &str, action: Action) {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(site.to_string(), action);
    }

    /// Disarm `site`.
    pub fn remove(site: &str) {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(site);
    }

    /// Disarm every site (test teardown).
    pub fn clear_all() {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Evaluate `site`: panics or sleeps per its armed [`Action`]; returns
    /// `true` when the caller should inject its own error.
    pub fn hit(site: &str) -> bool {
        let action = registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(site)
            .cloned();
        match action {
            Some(Action::Panic) => panic!("failpoint {site}: injected panic"),
            Some(Action::Sleep(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(Action::Return) => true,
            None => false,
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{clear_all, configure, hit, remove, Action};

/// Evaluate `site`. Without the `failpoints` feature no site can be armed,
/// so this is a free inlined `false`.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_site: &str) -> bool {
    false
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn unarmed_sites_are_inert() {
        assert!(!hit("never-armed"));
    }

    #[test]
    fn return_action_asks_caller_to_fail() {
        configure("fp-test-return", Action::Return);
        assert!(hit("fp-test-return"));
        remove("fp-test-return");
        assert!(!hit("fp-test-return"));
    }

    #[test]
    fn sleep_action_delays() {
        configure("fp-test-sleep", Action::Sleep(Duration::from_millis(30)));
        let t0 = Instant::now();
        assert!(!hit("fp-test-sleep"));
        assert!(t0.elapsed() >= Duration::from_millis(25));
        remove("fp-test-sleep");
    }

    #[test]
    fn panic_action_panics() {
        configure("fp-test-panic", Action::Panic);
        let err = std::panic::catch_unwind(|| hit("fp-test-panic")).unwrap_err();
        remove("fp-test-panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("fp-test-panic"), "{msg}");
    }
}
