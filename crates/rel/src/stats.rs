//! Execution statistics.
//!
//! These counters are the engine-level quantities the paper's evaluation
//! turns on: how many joins/unions run (once, outside the fixpoint, for our
//! approach — once *per iteration* inside `WITH…RECURSIVE` for SQLGen-R),
//! how many LFP operators execute and how many iterations they take.
//!
//! Every counter is declared exactly once, in the `counters!` table below:
//! doc comment, name, type and merge rule. The table generates [`Stats`],
//! [`Stats::merge`], [`Stats::fields`], [`SharedStats`] and its `record` /
//! `snapshot` / `reset`; `Display` and the serving layer's `/stats` JSON loop
//! over `fields()`. Adding a counter is one line there.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Expands the counter table (`doc, name: type, rule;` per counter, type
/// `usize` | `u64`, rule `sum` | `max`) into everything that has to know
/// every counter. The `@merge` / `@record` arms spell a rule out for plain
/// and for atomic counters.
macro_rules! counters {
    (@merge sum, $into:expr, $from:expr) => { $into += $from };
    (@merge max, $into:expr, $from:expr) => { $into = $into.max($from) };
    (@record sum, $into:expr, $from:expr) => { $into.fetch_add($from, Ordering::Relaxed) };
    (@record max, $into:expr, $from:expr) => { $into.fetch_max($from, Ordering::Relaxed) };

    ($($(#[$doc:meta])* $name:ident: $ty:ident, $rule:ident;)*) => {
        /// Counters accumulated during execution.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Stats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl Stats {
            /// Fold another stat set into this one, counter by counter under
            /// its declared rule (a sum, or a maximum for high-water marks).
            pub fn merge(&mut self, other: &Stats) {
                $(counters!(@merge $rule, self.$name, other.$name);)*
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name as u64),)*].into_iter()
            }
        }

        /// A thread-safe [`Stats`] accumulator: one atomic counter per field.
        ///
        /// Concurrent serving paths (the `Engine`'s prepare/execute counters)
        /// record into a `SharedStats` without taking any lock;
        /// [`SharedStats::snapshot`] reads the counters back out as a plain
        /// [`Stats`]. All operations use relaxed ordering — the counters are
        /// independent monotonic tallies, and the only cross-thread guarantee
        /// required is that no increment is lost (which `fetch_add` provides
        /// regardless of ordering).
        #[derive(Debug, Default)]
        pub struct SharedStats {
            $($name: AtomicU64,)*
        }

        impl SharedStats {
            /// Add a finished run's counters (the lock-free analogue of
            /// [`Stats::merge`]).
            pub fn record(&self, s: &Stats) {
                $(counters!(@record $rule, self.$name, s.$name as u64);)*
            }

            /// Read the counters out as a plain [`Stats`] value.
            pub fn snapshot(&self) -> Stats {
                Stats {
                    $($name: self.$name.load(Ordering::Relaxed) as $ty,)*
                }
            }

            /// Zero every counter.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }
        }

        /// The declaration as data, for the test that walks it.
        #[cfg(test)]
        const DECLARED: &[(&str, &str)] = &[$((stringify!($name), stringify!($rule)),)*];

        /// A stat set whose `i`-th counter holds `base + i`.
        #[cfg(test)]
        fn numbered(base: u64) -> Stats {
            let mut values = base..;
            Stats { $($name: values.next().expect("unbounded") as $ty,)* }
        }
    };
}

counters! {
    /// Join operators executed (each per-iteration join inside a fixpoint
    /// counts separately — that is the point).
    joins: usize, sum;
    /// Union operations executed (same accounting).
    unions: usize, sum;
    /// Selections executed.
    selects: usize, sum;
    /// Projections executed.
    projects: usize, sum;
    /// Simple LFP operator invocations.
    lfp_invocations: usize, sum;
    /// Total LFP iterations across invocations.
    lfp_iterations: usize, sum;
    /// Multi-relation fixpoint invocations (SQLGen-R).
    multilfp_invocations: usize, sum;
    /// Total multi-relation fixpoint iterations.
    multilfp_iterations: usize, sum;
    /// Adjacency entries read by the rounds of both fixpoints — the work
    /// inside the recursion that `joins` and `tuples_emitted` do not see.
    fixpoint_probes: u64, sum;
    /// Tuples produced by all operators.
    tuples_emitted: u64, sum;
    /// Statements evaluated (lazy evaluation may skip some).
    stmts_evaluated: usize, sum;
    /// Statements skipped by lazy evaluation.
    stmts_skipped: usize, sum;
    /// Prepared-query plan-cache hits (a prepare served an existing
    /// translation, skipping CycleEX and SQL generation entirely).
    plan_cache_hits: usize, sum;
    /// Prepared-query plan-cache misses (a prepare ran the full translation
    /// pipeline).
    plan_cache_misses: usize, sum;
    /// Optimizer: statements eliminated across all optimized translations
    /// (dead-statement elimination + CSE merging + temp inlining).
    opt_stmts_eliminated: usize, sum;
    /// Optimizer: structurally duplicate subplans hash-consed onto one
    /// shared node.
    opt_plans_hash_consed: usize, sum;
    /// Optimizer: selections pushed through projections/`Distinct`/joins.
    opt_preds_pushed: usize, sum;
    /// Largest closure materialized by any single fixpoint invocation — `Φ`'s
    /// pairs or `φ`'s tagged triples, the memory high-water mark of
    /// recursion. Merges with `max`, not `+`.
    lfp_peak_closure: usize, max;
    /// Joins whose build side was served from a cached base-edge index on
    /// the [`crate::Database`] instead of building a fresh hash table.
    join_index_reuses: usize, sum;
    /// Programs verified by the static plan analyzer ([`crate::analyze`])
    /// on the engine's prepare path.
    analyze_checked: usize, sum;
    /// Non-fatal analyzer warnings (e.g. dead statements) across those
    /// checks.
    analyze_warnings: usize, sum;
    /// Runs of the static satisfiability analyzer (the `x2s_xpath::sat`
    /// gate), counted where each runs: the engine's on a plan-cache miss,
    /// and a serving layer's admission check on every request — so a
    /// request that misses the cache through a `QueryService` counts two.
    sat_checked: usize, sum;
    /// Queries proven statically empty and answered without translation or
    /// execution (a subset of the queries checked).
    sat_pruned: usize, sum;
    /// Serving layer: requests admitted into the bounded request queue.
    requests_admitted: usize, sum;
    /// Serving layer: requests rejected at admission (queue full or
    /// shutting down — the 503 + `Retry-After` path).
    requests_rejected: usize, sum;
    /// Serving layer: requests that joined an identical in-flight query's
    /// single-flight execution instead of running their own (the executor
    /// ran `admitted - coalesced` flights, not `admitted`).
    requests_coalesced: usize, sum;
    /// Serving layer: HTTP body chunks written by streaming result
    /// encoders (answer sets leave in bounded chunks, never one buffer).
    stream_chunks: usize, sum;
    /// `LFP(descendant)` closures answered by the interval fast path
    /// ([`crate::plan::Plan::IntervalJoin`]) instead of a fixpoint — one
    /// per rewritten recursion variable per run.
    interval_rewrites: usize, sum;
    /// Pre-sorted interval-view entries examined by interval joins (the
    /// fast path's analogue of closure tuples materialized).
    interval_rows_scanned: u64, sum;
    /// Executions of a translation that has an interval variant which ran
    /// its LFP program anyway because the store carries no interval labels
    /// (never shredded from a document, or mutated since).
    interval_fallbacks: usize, sum;
    /// Executions aborted by the cooperative deadline
    /// ([`crate::ExecError::DeadlineExceeded`]).
    exec_timeouts: usize, sum;
    /// Executions aborted by a tuple or closure-memory budget
    /// ([`crate::ExecError::BudgetExceeded`]).
    budget_aborts: usize, sum;
    /// Panics caught and contained by the serving layer (a flight leader
    /// that unwound; followers got a typed error, the worker survived).
    panics_contained: usize, sum;
    /// Serving layer: requests answered `503 Retry-After` because their
    /// execution deadline expired (the worker returned to the pool).
    requests_timed_out: usize, sum;
}

impl SharedStats {
    /// New zeroed accumulator.
    pub fn new() -> Self {
        SharedStats::default()
    }

    /// Count one plan-cache hit.
    pub fn plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one plan-cache miss.
    pub fn plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one static-analyzer check on the prepare path, with the number
    /// of non-fatal warnings it produced.
    pub fn analyze_check(&self, warnings: usize) {
        self.analyze_checked.fetch_add(1, Ordering::Relaxed);
        self.analyze_warnings
            .fetch_add(warnings as u64, Ordering::Relaxed);
    }

    /// Count one satisfiability analysis; `pruned` marks a verdict that
    /// statically emptied the query, skipping translation and execution
    /// entirely.
    pub fn sat_check(&self, pruned: bool) {
        self.sat_checked.fetch_add(1, Ordering::Relaxed);
        if pruned {
            self.sat_pruned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one request admitted into a serving layer's bounded queue.
    pub fn request_admitted(&self) {
        self.requests_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request rejected at admission (queue full / shutdown).
    pub fn request_rejected(&self) {
        self.requests_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request that joined an identical in-flight query instead
    /// of executing its own flight (single-flight coalescing).
    pub fn request_coalesced(&self) {
        self.requests_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` streamed result chunks written by a response encoder.
    pub fn add_stream_chunks(&self, n: usize) {
        self.stream_chunks.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Count one execution aborted by the cooperative deadline.
    pub fn exec_timeout(&self) {
        self.exec_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one execution aborted by a tuple/closure budget.
    pub fn budget_abort(&self) {
        self.budget_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one panic caught and contained by the serving layer.
    pub fn panic_contained(&self) {
        self.panics_contained.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request answered 503 because its deadline expired.
    pub fn request_timed_out(&self) {
        self.requests_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the pass-level counters of one optimized translation (the
    /// lock-free path [`crate::opt::OptStats`] reaches the engine's
    /// accumulated statistics through).
    pub fn record_opt(&self, o: &crate::opt::OptStats) {
        self.opt_stmts_eliminated
            .fetch_add(o.stmts_eliminated as u64, Ordering::Relaxed);
        self.opt_plans_hash_consed
            .fetch_add(o.plans_hash_consed as u64, Ordering::Relaxed);
        self.opt_preds_pushed
            .fetch_add(o.preds_pushed as u64, Ordering::Relaxed);
    }
}

/// `name=value` for every counter, space-separated, in declaration order.
impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Three tests walk the declaration, one per generated path: whatever the
    // table lists must merge, display and round-trip under its declared rule.

    #[test]
    fn merge_adds_counters() {
        let mut merged = numbered(1);
        merged.merge(&numbered(1_000));
        assert!(DECLARED.contains(&("lfp_peak_closure", "max")));
        for ((&(name, rule), (field, got)), i) in DECLARED.iter().zip(merged.fields()).zip(0u64..) {
            assert_eq!(field, name, "fields() lists the declaration in order");
            let want = match rule {
                "sum" => (1 + i) + (1_000 + i),
                "max" => 1_000 + i,
                other => panic!("{name}: unknown merge rule {other}"),
            };
            assert_eq!(got, want, "{name} merges by {rule}");
        }
    }

    #[test]
    fn display_is_compact() {
        let stats = numbered(1);
        let want: Vec<String> = DECLARED
            .iter()
            .zip(1u64..)
            .map(|(&(name, _), value)| format!("{name}={value}"))
            .collect();
        assert_eq!(stats.to_string(), want.join(" "));
    }

    #[test]
    fn shared_stats_round_trip() {
        let (a, b) = (numbered(1), numbered(1_000));
        let shared = SharedStats::new();
        shared.record(&a);
        assert_eq!(shared.snapshot(), a, "record → snapshot loses nothing");
        shared.record(&b);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(shared.snapshot(), merged, "record and merge agree");
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default(), "reset zeroes all");

        // The named incrementers are written by hand, so here and in the
        // tests below each is pinned to the counter it is named after.
        shared.plan_cache_hit();
        shared.plan_cache_miss();
        shared.plan_cache_miss();
        let snap = shared.snapshot();
        assert_eq!((snap.plan_cache_hits, snap.plan_cache_misses), (1, 2));
    }

    #[test]
    fn record_opt_accumulates_pass_counters() {
        let shared = SharedStats::new();
        let o = crate::opt::OptStats {
            stmts_eliminated: 3,
            plans_hash_consed: 2,
            preds_pushed: 5,
            ..Default::default()
        };
        shared.record_opt(&o);
        shared.record_opt(&o);
        let snap = shared.snapshot();
        assert_eq!(snap.opt_stmts_eliminated, 6);
        assert_eq!(snap.opt_plans_hash_consed, 4);
        assert_eq!(snap.opt_preds_pushed, 10);
    }

    #[test]
    fn analyze_check_counts_checks_and_warnings() {
        let shared = SharedStats::new();
        shared.analyze_check(0);
        shared.analyze_check(2);
        let snap = shared.snapshot();
        assert_eq!((snap.analyze_checked, snap.analyze_warnings), (2, 2));
    }

    #[test]
    fn sat_check_counts_checks_and_prunes() {
        let shared = SharedStats::new();
        shared.sat_check(false);
        shared.sat_check(true);
        shared.sat_check(true);
        let snap = shared.snapshot();
        assert_eq!((snap.sat_checked, snap.sat_pruned), (3, 2));
    }

    #[test]
    fn serving_counters_round_trip() {
        let shared = SharedStats::new();
        shared.request_admitted();
        shared.request_admitted();
        shared.request_admitted();
        shared.request_rejected();
        shared.request_coalesced();
        shared.add_stream_chunks(5);
        let snap = shared.snapshot();
        assert_eq!(snap.requests_admitted, 3);
        assert_eq!(snap.requests_rejected, 1);
        assert_eq!(snap.requests_coalesced, 1);
        assert_eq!(snap.stream_chunks, 5);
    }

    #[test]
    fn governance_counters_round_trip() {
        let shared = SharedStats::new();
        shared.exec_timeout();
        shared.exec_timeout();
        shared.budget_abort();
        shared.panic_contained();
        shared.request_timed_out();
        let snap = shared.snapshot();
        assert_eq!(snap.exec_timeouts, 2);
        assert_eq!(snap.budget_aborts, 1);
        assert_eq!(snap.panics_contained, 1);
        assert_eq!(snap.requests_timed_out, 1);
    }

    #[test]
    fn shared_stats_concurrent_increments_are_not_lost() {
        let shared = SharedStats::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let shared = &shared;
                s.spawn(move || {
                    for _ in 0..1000 {
                        shared.plan_cache_hit();
                        shared.record(&Stats {
                            joins: 1,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.plan_cache_hits, 8000);
        assert_eq!(snap.joins, 8000);
    }
}
