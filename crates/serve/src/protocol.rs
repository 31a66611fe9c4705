//! A minimal HTTP/1.1 request parser and response writers (std-only).
//!
//! Deliberately small: request line + headers + optional `Content-Length`
//! body, percent-decoded query parameters, and two response shapes — a
//! simple fully-buffered response and the `503` rejection the admission
//! queue emits. Streaming bodies live in [`crate::stream`]. Every response
//! carries `Connection: close`; one request per connection keeps the worker
//! loop trivial and is plenty for a benchmark/reproduction server.

use std::io::{self, BufRead, Read, Write};

/// Maximum accepted size of the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body size.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Path component of the target, percent-decoded (no query string).
    pub path: String,
    /// Query parameters, percent-decoded, in order of appearance.
    pub params: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: String,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Percent-decode `s`, mapping `+` to space (query-string convention).
/// Malformed escapes are passed through literally.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                }) {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn bad_request(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one line of the request head, newline included, and charge it to
/// `head_left`, the head bytes still allowed. Reads at most that many
/// bytes, so an endless line costs the cap, not the line. An empty string
/// means end of input.
fn read_head_line<R: BufRead>(reader: &mut R, head_left: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    let n = Read::take(&mut *reader, *head_left as u64).read_line(&mut line)?;
    if n == *head_left && !line.ends_with('\n') {
        return Err(bad_request("request head too large"));
    }
    *head_left -= n;
    Ok(line)
}

/// Read and parse one HTTP request from `reader`.
///
/// Errors with `InvalidData` on malformed or oversized input and with the
/// underlying error on I/O failure (including read timeouts, which the
/// server maps to dropping the connection).
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Request> {
    let mut head_left = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut head_left)?;
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before request line",
        ));
    }
    let request_line = line.trim_end();
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad_request("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad_request("request line missing target"))?
        .to_string();

    // Headers: we only care about Content-Length, but must consume them all.
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(reader, &mut head_left)?;
        if header.is_empty() {
            return Err(bad_request("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_request("invalid Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad_request("request body too large"));
    }

    let mut body = String::new();
    if content_length > 0 {
        let mut buf = vec![0u8; content_length];
        reader.read_exact(&mut buf)?;
        body = String::from_utf8_lossy(&buf).into_owned();
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    Ok(Request {
        method,
        path: percent_decode(raw_path),
        params: parse_query(raw_query),
        body,
    })
}

/// Write a fully-buffered response with `Connection: close`.
///
/// `extra_headers` are emitted verbatim as `Name: value` lines.
pub fn write_simple(
    out: &mut dyn Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    write!(out, "\r\n{body}")?;
    out.flush()
}

/// Write the admission-control rejection: `503 Service Unavailable` with a
/// `Retry-After` hint, so well-behaved clients back off instead of
/// hammering a saturated queue.
pub fn write_rejection(out: &mut dyn Write, retry_after_secs: u64) -> io::Result<()> {
    let secs = retry_after_secs.to_string();
    write_simple(
        out,
        503,
        "Service Unavailable",
        "text/plain",
        &[("Retry-After", secs.as_str())],
        "queue full, retry later\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Request {
        read_request(&mut BufReader::new(raw.as_bytes())).unwrap()
    }

    #[test]
    fn get_with_query_parameters_decodes() {
        let req = parse("GET /query?q=dept%2F%2Fproject&limit=10 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("q"), Some("dept//project"));
        assert_eq!(req.param("limit"), Some("10"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn post_body_respects_content_length() {
        let req =
            parse("POST /query HTTP/1.1\r\nContent-Length: 12\r\n\r\ndept//coursetrailing-junk");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "dept//course");
    }

    #[test]
    fn plus_and_percent_decode_in_params() {
        let req = parse("GET /query?q=a+b%5B1%5D HTTP/1.1\r\n\r\n");
        assert_eq!(req.param("q"), Some("a b[1]"));
    }

    #[test]
    fn malformed_request_line_is_invalid_data() {
        let err = read_request(&mut BufReader::new(&b"\r\n\r\n"[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn endless_request_line_is_refused_within_the_head_cap() {
        let mut reader = BufReader::new(io::Cursor::new(vec![b'a'; 200_000]));
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let consumed = reader.get_ref().position();
        assert!(consumed < 32 * 1024, "buffered {consumed} bytes");
    }

    #[test]
    fn rejection_carries_retry_after() {
        let mut out = Vec::new();
        write_rejection(&mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 "));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
