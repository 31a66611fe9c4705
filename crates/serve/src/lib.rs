#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Serving layer over the XPath-to-SQL engine: a dependency-free HTTP/1.1
//! front end with explicit admission control, single-flight query
//! coalescing, and streaming results.
//!
//! The stack, bottom-up:
//!
//! * [`coalesce`] — single-flight groups: N concurrent identical queries
//!   run one executor flight and share its result;
//! * [`service`] — [`service::QueryService`]: parse → normalize once
//!   ([`x2s_core::Engine::normalize_path`]) → satisfiability gate →
//!   coalesce → prepare → execute; the normalized [`x2s_xpath::Path`] is
//!   both the flight key and the plan-cache key, so spelling variants of a
//!   query share both;
//! * [`protocol`] / [`stream`] — a minimal HTTP/1.1 parser and chunked
//!   transfer encoding (answer sets leave one id per line in bounded
//!   chunks, never one materialized buffer);
//! * [`server`] — acceptor + fixed worker pool wiring it together over a
//!   bounded [`std::sync::mpsc::sync_channel`]: overload is an immediate
//!   `503` + `Retry-After`, never an unbounded backlog, and a
//!   [`server::ShutdownHandle`] stops it after every admitted request is
//!   answered.
//!
//! Everything observable lands in the engine's shared statistics
//! ([`x2s_core::Engine::shared_stats`]): `requests_admitted`,
//! `requests_rejected`, `requests_coalesced`, `stream_chunks` next to the
//! executor's own counters, so one [`x2s_core::Engine::stats`] snapshot
//! describes the whole serving stack (the `/stats` endpoint renders exactly
//! one such snapshot).

pub mod coalesce;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stream;

pub use coalesce::{Outcome, SingleFlight};
pub use protocol::{read_request, write_rejection, write_simple, Request};
pub use server::{stats_json, ServeConfig, Server, ShutdownHandle};
pub use service::{FlightResult, QueryOutcome, QueryService};
pub use stream::{stream_answers, ChunkedWriter};
