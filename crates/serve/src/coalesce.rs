//! Single-flight coalescing: concurrent identical requests share one
//! execution.
//!
//! When many clients ask the same (canonicalized) query at once, only the
//! first — the *leader* — actually executes it; the rest — *followers* —
//! block on the leader's flight and receive a clone of its result. This
//! turns an N-client thundering herd on a cold plan cache into exactly one
//! translation + one execution, which is why the concurrency tests can pin
//! `plan_cache_misses == 1` for N identical first-time queries.
//!
//! Leaders run under [`std::panic::catch_unwind`]: a panicking leader marks
//! its flight [poisoned](FlightPoisoned) and wakes every follower with a
//! typed error instead of stranding them on a result that will never
//! arrive. The worker thread that led the flight survives.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Whether a call led its flight or joined an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// This caller executed the work.
    Led,
    /// This caller waited on another caller's execution and shares its
    /// result.
    Joined,
}

/// Error returned to every caller of a flight whose leader panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightPoisoned {
    /// `true` for the caller whose own `exec` panicked (the leader). Each
    /// poisoned flight has exactly one such caller — the right place to
    /// count a contained panic exactly once.
    pub led: bool,
}

/// What a flight's shared slot holds while it is in the air.
enum Slot<V> {
    /// The leader is still executing.
    Pending,
    /// The leader published its result.
    Done(V),
    /// The leader panicked before publishing; no result will ever arrive.
    Poisoned,
}

struct Flight<V> {
    result: Mutex<Slot<V>>,
    done: Condvar,
}

/// A single-flight group keyed by `K` (in the serving layer: the
/// normalized query, an `Arc<Path>`, so a key clone is a pointer bump).
///
/// `V` must be `Clone` so followers can each take a copy of the leader's
/// result; in the serving layer `V` wraps the answer set in an [`Arc`], so
/// the clone is a pointer bump, not a data copy.
pub struct SingleFlight<K, V> {
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty group.
    pub fn new() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Number of flights currently in the air (for tests/metrics).
    pub fn in_flight(&self) -> usize {
        lock(&self.flights).len()
    }

    /// Run `exec` under single-flight semantics for `key`.
    ///
    /// If no flight for `key` is in the air this caller becomes the leader:
    /// it runs `exec` under [`catch_unwind`], publishes the result to the
    /// flight, and removes the flight from the map. Otherwise the caller
    /// joins the existing flight and blocks until the leader publishes.
    ///
    /// A panicking `exec` does not strand followers: the flight is marked
    /// poisoned, every waiter wakes with [`FlightPoisoned`], the flight is
    /// removed from the map (so the next arrival starts fresh), and the
    /// leader's own call returns the error instead of unwinding — the
    /// worker thread survives.
    pub fn run<F>(&self, key: K, exec: F) -> Result<(V, Outcome), FlightPoisoned>
    where
        F: FnOnce() -> V,
    {
        let (flight, leader) = {
            let mut flights = lock(&self.flights);
            match flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        result: Mutex::new(Slot::Pending),
                        done: Condvar::new(),
                    });
                    flights.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if leader {
            match catch_unwind(AssertUnwindSafe(exec)) {
                Ok(value) => {
                    // Publish before removing the flight from the map: a
                    // follower holding the Arc must find the result; a
                    // caller arriving after the removal simply starts a
                    // fresh flight.
                    *lock(&flight.result) = Slot::Done(value.clone());
                    flight.done.notify_all();
                    lock(&self.flights).remove(&key);
                    Ok((value, Outcome::Led))
                }
                Err(_panic) => {
                    *lock(&flight.result) = Slot::Poisoned;
                    flight.done.notify_all();
                    lock(&self.flights).remove(&key);
                    Err(FlightPoisoned { led: true })
                }
            }
        } else {
            let mut slot = lock(&flight.result);
            loop {
                match &*slot {
                    Slot::Done(value) => return Ok((value.clone(), Outcome::Joined)),
                    Slot::Poisoned => return Err(FlightPoisoned { led: false }),
                    Slot::Pending => {
                        slot = flight
                            .done
                            .wait(slot)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn lone_caller_leads() {
        let sf = SingleFlight::new();
        let (v, outcome) = sf.run("k", || 42).unwrap();
        assert_eq!(v, 42);
        assert_eq!(outcome, Outcome::Led);
        assert_eq!(sf.in_flight(), 0, "flight removed after completion");
    }

    #[test]
    fn concurrent_identical_keys_share_one_execution() {
        const N: usize = 8;
        let sf = SingleFlight::new();
        let executions = AtomicUsize::new(0);
        let barrier = Barrier::new(N);
        let outcomes: Vec<Outcome> = thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, o) = sf
                            .run("same", || {
                                executions.fetch_add(1, Ordering::SeqCst);
                                // hold the flight open long enough for every
                                // thread to join it
                                thread::sleep(Duration::from_millis(100));
                                7
                            })
                            .unwrap();
                        assert_eq!(v, 7);
                        o
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one flight");
        let led = outcomes.iter().filter(|o| **o == Outcome::Led).count();
        assert_eq!(led, 1);
        assert_eq!(outcomes.len() - led, N - 1, "everyone else joined");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = SingleFlight::new();
        let executions = AtomicUsize::new(0);
        thread::scope(|s| {
            for key in ["a", "b", "c"] {
                let (sf, executions) = (&sf, &executions);
                s.spawn(move || {
                    sf.run(key, || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        key.len()
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn sequential_calls_each_lead() {
        let sf = SingleFlight::new();
        let (_, first) = sf.run("k", || 1).unwrap();
        let (_, second) = sf.run("k", || 2).unwrap();
        assert_eq!(first, Outcome::Led);
        assert_eq!(second, Outcome::Led, "flight was torn down in between");
    }

    /// Regression test for the poisoned-flight hazard: a leader that
    /// panics mid-flight must wake every follower with a typed error —
    /// none may hang — and the group must stay usable afterwards.
    #[test]
    fn panicking_leader_poisons_flight_and_wakes_all_followers() {
        const N: usize = 8;
        let sf: SingleFlight<&str, i32> = SingleFlight::new();
        let barrier = Barrier::new(N);
        let results: Vec<Result<(i32, Outcome), FlightPoisoned>> = thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        sf.run("doomed", || {
                            // Hold the flight open so every other thread
                            // joins it, then unwind.
                            thread::sleep(Duration::from_millis(100));
                            panic!("injected leader panic");
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            results.iter().all(Result::is_err),
            "every caller gets the typed error, none hang"
        );
        let leaders = results
            .iter()
            .filter(|r| matches!(r, Err(FlightPoisoned { led: true })))
            .count();
        assert_eq!(leaders, 1, "exactly one caller contained the panic");
        assert_eq!(sf.in_flight(), 0, "poisoned flight removed from the map");
        // The group recovers: the next arrival starts a fresh flight.
        let (v, o) = sf.run("doomed", || 9).unwrap();
        assert_eq!((v, o), (9, Outcome::Led));
    }
}
