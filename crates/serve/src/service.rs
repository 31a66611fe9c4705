//! The query service: canonicalize, admit, coalesce, execute.
//!
//! [`QueryService`] is the seam between the HTTP front end and the
//! [`Engine`]: it parses the request's XPath (per-request — parse errors
//! are never coalesced), normalizes it so that spelling variants of the
//! same query share both the plan-cache entry *and* the flight, runs the
//! satisfiability gate ([`Engine::check_sat`]) so statically-impossible
//! queries answer `∅` without occupying an executor flight, and runs the
//! execution under [`SingleFlight`] so concurrent identical queries cost
//! one translation + one execution total.

use std::collections::BTreeSet;
#[cfg(test)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use x2s_core::{Engine, EngineError};
use x2s_xpath::{parse_xpath, Path, Sat};

use crate::coalesce::{Outcome, SingleFlight};

/// The shared result of a flight: the answer set behind an [`Arc`] (so
/// followers clone a pointer, not the ids) or the engine's typed error.
pub type FlightResult = Result<Arc<BTreeSet<u32>>, EngineError>;

/// What a single query call produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The node ids answering the query, shared across coalesced callers.
    pub answers: Arc<BTreeSet<u32>>,
    /// `true` when this caller joined another caller's flight instead of
    /// executing itself.
    pub coalesced: bool,
    /// `true` when the satisfiability gate proved the query empty against
    /// the engine's DTD and answered it without an executor flight.
    pub pruned: bool,
}

/// A thread-safe query façade over one [`Engine`].
pub struct QueryService<'e, 'd> {
    engine: &'e Engine<'d>,
    flights: SingleFlight<Arc<Path>, FlightResult>,
    hold: Option<Duration>,
    deadline: Option<Duration>,
    /// Test seam, scoped to this instance: the next flight leader panics
    /// after its hold, as a bug in the executor would.
    #[cfg(test)]
    panic_next_flight: AtomicBool,
}

impl<'e, 'd> QueryService<'e, 'd> {
    /// Wrap `engine`. The engine must already have a document loaded.
    pub fn new(engine: &'e Engine<'d>) -> Self {
        QueryService {
            engine,
            flights: SingleFlight::new(),
            hold: None,
            deadline: None,
            #[cfg(test)]
            panic_next_flight: AtomicBool::new(false),
        }
    }

    /// Arm the test seam: the next flight leader panics.
    #[cfg(test)]
    pub(crate) fn panicking_once(self) -> Self {
        self.panic_next_flight.store(true, Ordering::SeqCst);
        self
    }

    /// Like [`new`](QueryService::new), but every flight leader sleeps for
    /// `hold` *inside* the flight before executing. This is a testing knob:
    /// it widens the coalescing window so tests and smoke scripts can make
    /// "N concurrent identical queries ⇒ 1 flight" deterministic instead of
    /// racing the executor.
    pub fn with_hold(engine: &'e Engine<'d>, hold: Duration) -> Self {
        QueryService {
            hold: Some(hold),
            ..QueryService::new(engine)
        }
    }

    /// Give every request a cooperative execution deadline of `deadline`
    /// from its arrival (more precisely: from flight entry — a follower
    /// inherits its leader's deadline). Expiry surfaces as
    /// [`EngineError::DeadlineExceeded`], which the HTTP layer answers
    /// with `503 Retry-After`.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The engine this service executes against.
    pub fn engine(&self) -> &'e Engine<'d> {
        self.engine
    }

    /// Parse, normalize once, and execute `xpath` under single-flight
    /// semantics, using the service's configured hold (if any). The
    /// normalized [`Path`] is both the flight key and the plan-cache key:
    /// a warm request neither clones nor prints it.
    pub fn query(&self, xpath: &str) -> Result<QueryOutcome, EngineError> {
        // Parse errors are this caller's own problem: report them directly
        // rather than coalescing garbage under a shared key.
        let path = parse_xpath(xpath)?;
        let canon = Arc::new(self.engine.normalize_path(&path));
        // Admission gate: a query the DTD proves empty is answered here —
        // it never occupies a flight or touches the executor. Every check
        // counts where it runs: this one on every request, and the engine's
        // own again on a plan-cache miss.
        let pruned = matches!(self.engine.check_sat(&canon), Sat::Empty { .. });
        self.engine.shared_stats().sat_check(pruned);
        if pruned {
            return Ok(QueryOutcome {
                answers: Arc::new(BTreeSet::new()),
                coalesced: false,
                pruned: true,
            });
        }

        // Stamp the deadline before entering the flight so queue/hold time
        // counts against it; the tuple/closure budgets come from the
        // engine's configured options.
        let opts = match self.deadline {
            Some(d) => self.engine.exec_options().with_timeout(d),
            None => self.engine.exec_options(),
        };
        let run = self.flights.run(Arc::clone(&canon), || {
            if let Some(d) = self.hold {
                std::thread::sleep(d);
            }
            #[cfg(test)]
            if self.panic_next_flight.swap(false, Ordering::SeqCst) {
                panic!("injected leader panic");
            }
            self.engine
                .prepare_path(&canon)
                .and_then(|p| p.execute_with(opts))
                .map(Arc::new)
        });
        let (result, outcome) = match run {
            Ok(r) => r,
            Err(poisoned) => {
                // Exactly one caller led the poisoned flight; it counts
                // the contained panic. Every caller — leader and
                // followers alike — reports the typed error (a 500 at the
                // HTTP layer); nobody hangs and the worker survives.
                if poisoned.led {
                    self.engine.shared_stats().panic_contained();
                }
                return Err(EngineError::ExecutionPanicked);
            }
        };

        let coalesced = outcome == Outcome::Joined;
        if coalesced {
            self.engine.shared_stats().request_coalesced();
        }
        result.map(|answers| QueryOutcome {
            answers,
            coalesced,
            pruned: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;
    use x2s_dtd::samples;

    fn engine() -> Engine<'static> {
        let dtd = Box::leak(Box::new(samples::dept_simplified()));
        let mut e = Engine::new(dtd);
        e.load_xml("<dept><course><course><project/></course><project/></course></dept>")
            .unwrap();
        e
    }

    #[test]
    fn spelling_variants_share_one_plan_and_one_flight_key() {
        let e = engine();
        let svc = QueryService::new(&e);
        let a = svc.query("dept//project").unwrap();
        let b = svc.query("dept/descendant-or-self::*/project").unwrap();
        assert_eq!(a.answers, b.answers);
        for _ in 0..3 {
            svc.query("dept//project").unwrap();
        }
        let stats = e.stats();
        assert_eq!(stats.plan_cache_misses, 1, "one canonical plan");
        assert_eq!(stats.plan_cache_hits, 4, "every later request hit it");
        // the admission check ran on all five requests, the engine's on
        // the one miss
        assert_eq!((stats.sat_checked, stats.sat_pruned), (6, 0));
    }

    #[test]
    fn parse_errors_surface_without_flights() {
        let e = engine();
        let svc = QueryService::new(&e);
        let err = svc.query("dept[").unwrap_err();
        assert!(matches!(err, EngineError::Xpath(_)));
        assert_eq!(e.stats().plan_cache_misses, 0);
    }

    #[test]
    fn statically_empty_queries_answer_without_a_flight() {
        let e = engine();
        let svc = QueryService::new(&e);
        // `student` is never a direct child of `dept` in this DTD: the
        // admission gate answers ∅ before any flight or translation.
        let out = svc.query("dept/student").unwrap();
        assert!(out.pruned);
        assert!(!out.coalesced);
        assert!(out.answers.is_empty());
        let stats = e.stats();
        assert_eq!((stats.sat_checked, stats.sat_pruned), (1, 1));
        assert_eq!(stats.plan_cache_misses, 0, "no flight, no plan");
    }

    #[test]
    fn concurrent_identical_queries_coalesce_into_one_flight() {
        const N: usize = 6;
        let e = engine();
        let svc = QueryService::with_hold(&e, Duration::from_millis(120));
        let barrier = Barrier::new(N);
        thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    barrier.wait();
                    let out = svc.query("dept//project").unwrap();
                    assert!(!out.answers.is_empty());
                });
            }
        });
        let stats = e.stats();
        assert_eq!(stats.plan_cache_misses, 1, "only the leader prepared");
        assert_eq!(
            stats.requests_coalesced,
            N - 1,
            "everyone else joined the leader's flight"
        );
    }

    #[test]
    fn per_request_deadline_aborts_and_service_recovers() {
        let e = engine();
        let governed = QueryService::new(&e).deadline(Duration::ZERO);
        let err = governed.query("dept//project").unwrap_err();
        assert_eq!(err, EngineError::DeadlineExceeded);
        assert_eq!(e.stats().exec_timeouts, 1);
        // The engine is untouched by the abort: an ungoverned service over
        // the same engine answers immediately.
        let healthy = QueryService::new(&e);
        assert!(!healthy.query("dept//project").unwrap().answers.is_empty());
    }
}
