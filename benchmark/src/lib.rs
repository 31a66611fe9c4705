//! The repo's benchmark: four workloads, twelve end-to-end metrics, exact
//! cost counters beside sandbox timings. See `README.md` in this directory.
//!
//! Two binaries share this library. `x2s-bench` measures end to end, with
//! tracing off, through the product's front doors only (`workloads`,
//! `runner`); `x2s-trace` replays the same operation lists layer by layer
//! (`layers`, `trace`). Everything a wrong number could hide in — `stats`,
//! `alloc`, `inputs`, `json` — is unit-tested here.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod descriptor;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod weather;
pub mod workloads;
