//! The HTTP server: acceptor, bounded admission queue, worker pool,
//! graceful shutdown.
//!
//! One thread accepts connections and `try_send`s them into a bounded
//! [`std::sync::mpsc::sync_channel`]; a fixed pool of workers receives
//! connections and serves exactly one request each. Overload is explicit: a
//! full queue answers `503` with `Retry-After` immediately from the acceptor
//! thread instead of queueing unboundedly. Shutdown (the `/shutdown`
//! endpoint or [`ShutdownHandle::trigger`]) drops the sender, so workers
//! drain every admitted connection to a complete response and the pool is
//! joined before [`Server::run`] returns — no admitted request is ever
//! dropped.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use x2s_core::{Engine, EngineError};
use x2s_rel::Stats;

use crate::protocol::{read_request, write_rejection, write_simple, Request};
use crate::service::QueryService;
use crate::stream::stream_answers;

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving requests (the executor runs on these).
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are rejected with
    /// `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// The `Retry-After` hint (seconds) on rejections.
    pub retry_after_secs: u64,
    /// Answer rows per chunk in streaming responses.
    pub rows_per_chunk: usize,
    /// Optional flight hold applied to every query — a testing/demo knob
    /// that widens the coalescing window (see
    /// [`QueryService::with_hold`]).
    pub flight_hold: Option<Duration>,
    /// Cooperative execution deadline applied to every `/query` request
    /// (see [`QueryService::deadline`]). Expiry answers `503` with
    /// `Retry-After` and is counted as a timed-out request. `None` (the
    /// default) leaves queries ungoverned.
    pub query_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            retry_after_secs: 1,
            rows_per_chunk: 4096,
            flight_hold: None,
            query_deadline: None,
        }
    }
}

/// Triggers a graceful shutdown of a running [`Server`] from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Request shutdown: sets the stop flag and pokes the listener with a
    /// throwaway connection so a blocking `accept` observes it promptly.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Ignore failure: if the connect fails, the next real connection
        // (or listener teardown) unblocks the acceptor instead.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The serving front end: a listener plus its admission state. Construct
/// with [`Server::bind`], then [`Server::run`] against a loaded [`Engine`].
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`, or port `0` for an ephemeral
    /// port — query it back with [`local_addr`](Server::local_addr)).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr()?,
        })
    }

    /// Serve until shutdown is triggered. Blocks the calling thread; worker
    /// threads are scoped inside, so on return every admitted connection
    /// has received a complete response and the pool is joined.
    pub fn run(&self, engine: &Engine<'_>) -> io::Result<()> {
        let mut service = match self.config.flight_hold {
            Some(hold) => QueryService::with_hold(engine, hold),
            None => QueryService::new(engine),
        };
        if let Some(deadline) = self.config.query_deadline {
            service = service.deadline(deadline);
        }
        self.serve(&service)
    }

    /// [`run`](Server::run)'s accept and worker loop over a caller-built
    /// service.
    fn serve(&self, service: &QueryService<'_, '_>) -> io::Result<()> {
        let engine = service.engine();
        let (admit, queue) = sync_channel::<TcpStream>(self.config.queue_capacity.max(1));
        let queue = Mutex::new(queue);
        let shutdown_handle = self.shutdown_handle()?;

        thread::scope(|s| {
            for _ in 0..self.config.workers.max(1) {
                s.spawn(|| loop {
                    // The guard drops at the end of this statement: it is
                    // never held while a connection is served.
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(conn) = next else { break };
                    // Per-connection failures (client hangup, timeout)
                    // must not take a worker down.
                    let _ = handle_connection(conn, service, &self.config, &shutdown_handle);
                });
            }

            for conn in self.listener.incoming() {
                let conn = match conn {
                    Ok(c) => c,
                    // Transient accept errors: keep serving.
                    Err(_) => continue,
                };
                if self.shutdown.load(Ordering::SeqCst) {
                    // This is either the shutdown self-poke or a late
                    // client; either way, refuse and stop accepting.
                    send_rejection(conn, self.config.retry_after_secs);
                    break;
                }
                match admit.try_send(conn) {
                    Ok(()) => engine.shared_stats().request_admitted(),
                    Err(TrySendError::Full(conn) | TrySendError::Disconnected(conn)) => {
                        engine.shared_stats().request_rejected();
                        send_rejection(conn, self.config.retry_after_secs);
                    }
                }
            }

            // Drain: workers finish everything already admitted, then their
            // `recv` fails and they exit.
            drop(admit);
        });

        // Connections still in the kernel backlog were never admitted;
        // reject them explicitly so their clients see a 503 instead of
        // hanging until a timeout.
        if self.listener.set_nonblocking(true).is_ok() {
            while let Ok((conn, _)) = self.listener.accept() {
                engine.shared_stats().request_rejected();
                send_rejection(conn, self.config.retry_after_secs);
            }
        }
        Ok(())
    }
}

/// Write a `503` rejection and close the connection without racing the
/// client: half-close the write side so the client sees EOF after the
/// response, then drain whatever request bytes it sent — dropping a socket
/// with unread data makes the kernel send RST, which would destroy the 503
/// before the client reads it.
fn send_rejection(mut conn: TcpStream, retry_after_secs: u64) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = conn.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = write_rejection(&mut conn, retry_after_secs);
    let _ = conn.shutdown(Shutdown::Write);
    let mut sink = [0u8; 512];
    loop {
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Render a [`Stats`] snapshot as JSON by hand (std-only crate): one key
/// per [`Stats::fields`] entry, so a counter added to the table in
/// `x2s_rel::stats` is served without an edit here.
pub fn stats_json(stats: &Stats) -> String {
    let counters: Vec<String> = stats
        .fields()
        .map(|(name, value)| format!("  \"{name}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", counters.join(",\n"))
}

fn handle_connection(
    mut conn: TcpStream,
    service: &QueryService<'_, '_>,
    config: &ServeConfig,
    shutdown: &ShutdownHandle,
) -> io::Result<()> {
    // Bound every socket operation so a stalled client cannot pin a worker.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));

    let request = {
        let mut reader = BufReader::new(conn.try_clone()?);
        match read_request(&mut reader) {
            Ok(req) => req,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return write_simple(
                    &mut conn,
                    400,
                    "Bad Request",
                    "text/plain",
                    &[],
                    "malformed request\n",
                );
            }
            Err(e) => return Err(e),
        }
    };

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => write_simple(&mut conn, 200, "OK", "text/plain", &[], "ok\n"),
        ("GET", "/stats") => {
            // Satellite requirement: one coherent snapshot per request, not
            // scattered per-field loads.
            let snapshot = service.engine().stats();
            let body = stats_json(&snapshot);
            write_simple(&mut conn, 200, "OK", "application/json", &[], &body)
        }
        ("GET", "/query") | ("POST", "/query") => serve_query(&mut conn, &request, service, config),
        ("GET", "/shutdown") | ("POST", "/shutdown") => {
            let response = write_simple(&mut conn, 200, "OK", "text/plain", &[], "shutting down\n");
            shutdown.trigger();
            response
        }
        _ => write_simple(
            &mut conn,
            404,
            "Not Found",
            "text/plain",
            &[],
            "not found\n",
        ),
    }
}

fn serve_query(
    conn: &mut TcpStream,
    request: &Request,
    service: &QueryService<'_, '_>,
    config: &ServeConfig,
) -> io::Result<()> {
    let xpath = match request.param("q") {
        Some(q) if !q.is_empty() => q.to_string(),
        _ if !request.body.trim().is_empty() => request.body.trim().to_string(),
        _ => {
            return write_simple(
                conn,
                400,
                "Bad Request",
                "text/plain",
                &[],
                "missing query: pass ?q=<xpath> or a POST body\n",
            );
        }
    };
    let outcome = match service.query(&xpath) {
        Ok(outcome) => outcome,
        Err(EngineError::Xpath(e)) => {
            let body = format!("xpath error: {e}\n");
            return write_simple(conn, 400, "Bad Request", "text/plain", &[], &body);
        }
        Err(EngineError::DeadlineExceeded) => {
            // The query hit its cooperative deadline and aborted at a
            // checkpoint; the worker is already back in the pool. Tell
            // the client when to retry, like queue rejections do.
            service.engine().shared_stats().request_timed_out();
            let retry_after = config.retry_after_secs.to_string();
            return write_simple(
                conn,
                503,
                "Service Unavailable",
                "text/plain",
                &[("Retry-After", &retry_after)],
                "query deadline exceeded\n",
            );
        }
        Err(e) => {
            let body = format!("engine error: {e}\n");
            return write_simple(conn, 500, "Internal Server Error", "text/plain", &[], &body);
        }
    };

    let count = outcome.answers.len().to_string();
    let coalesced = if outcome.coalesced { "true" } else { "false" };
    let pruned = if outcome.pruned { "true" } else { "false" };
    write!(
        conn,
        concat!(
            "HTTP/1.1 200 OK\r\n",
            "Content-Type: text/plain\r\n",
            "Transfer-Encoding: chunked\r\n",
            "Connection: close\r\n",
            "X-Answer-Count: {}\r\n",
            "X-Coalesced: {}\r\n",
            "X-Sat-Pruned: {}\r\n",
            "\r\n"
        ),
        count, coalesced, pruned
    )?;
    let chunks = stream_answers(conn, &outcome.answers, config.rows_per_chunk)?;
    service.engine().shared_stats().add_stream_chunks(chunks);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use x2s_dtd::samples;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        let _ = conn.read_to_string(&mut response);
        response
    }

    /// A flight leader that panics costs every coalesced caller a complete
    /// `500` (none hangs), counts once, and leaves the pool serving.
    #[test]
    fn leader_panic_answers_500_to_every_coalesced_caller_and_pool_survives() {
        const CLIENTS: usize = 6;
        let dtd = samples::dept_simplified();
        let mut engine = Engine::new(&dtd);
        engine
            .load_xml("<dept><course><course><project/></course><project/></course></dept>")
            .unwrap();
        let config = ServeConfig {
            workers: CLIENTS,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle().unwrap();
        // The hold keeps the first flight open until every client has
        // joined it; then its leader panics.
        let service = QueryService::with_hold(&engine, Duration::from_millis(300)).panicking_once();

        let barrier = Barrier::new(CLIENTS);
        thread::scope(|s| {
            s.spawn(|| server.serve(&service).unwrap());
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        get(addr, "/query?q=dept//project")
                    })
                })
                .collect();
            for client in clients {
                let r = client.join().unwrap();
                assert!(r.starts_with("HTTP/1.1 500 "), "{r}");
                assert!(r.contains("panicked"), "typed panic error: {r}");
            }
            assert_eq!(engine.stats().panics_contained, 1, "one flight, one panic");

            // The pool survived: the same query leads a fresh flight.
            let healthy = get(addr, "/query?q=dept//project");
            assert!(healthy.starts_with("HTTP/1.1 200 "), "{healthy}");
            assert!(healthy.ends_with("0\r\n\r\n"), "terminated body");
            shutdown.trigger();
        });
    }

    #[test]
    fn stats_json_contains_every_serving_counter() {
        let stats = Stats {
            requests_coalesced: 5,
            interval_rewrites: 3,
            interval_rows_scanned: 11,
            ..Stats::default()
        };
        let json = stats_json(&stats);
        for (name, value) in stats.fields() {
            assert!(json.contains(&format!("\"{name}\": {value}")), "{name}");
        }
        assert_eq!(
            json.lines().count(),
            stats.fields().count() + 2,
            "one line per counter between the braces: {json}"
        );
    }
}
