//! Minimal HTTP/1.1 message handling: enough of the protocol for a JSON
//! API behind `curl` and the loadgen bench — request-line + headers +
//! `Content-Length` bodies, keep-alive, and fixed-size limits. No chunked
//! encoding, no TLS, no multiplexing.
//!
//! One request parser, [`try_parse`], makes a resumable attempt over
//! whatever bytes a nonblocking socket has delivered so far; the event
//! loops of both server roles, replica and cluster router, read every
//! request through it.

use std::io::Write;

/// Maximum accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are not split off; the API does
    /// not use them).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Client-requested end-to-end budget from `X-Deadline-Ms`, if sent.
    pub deadline_ms: Option<u64>,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed or over-limit request; the server should answer with the
    /// given status and close.
    Bad {
        /// Status code to answer with (400 or 413).
        status: u16,
        /// Human-readable reason.
        reason: String,
    },
}

fn bad(status: u16, reason: impl Into<String>) -> ReadError {
    ReadError::Bad {
        status,
        reason: reason.into(),
    }
}

/// Partially assembled request head.
struct Head {
    method: String,
    path: String,
    keep_alive: bool,
    content_length: Option<usize>,
    deadline_ms: Option<u64>,
}

impl Head {
    /// Parses the request line.
    fn start(line: &str) -> Result<Self, ReadError> {
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| bad(400, "empty request line"))?
            .to_ascii_uppercase();
        let path = parts
            .next()
            .ok_or_else(|| bad(400, "request line has no target"))?
            .to_string();
        let version = parts.next().unwrap_or("HTTP/1.1");
        if !version.starts_with("HTTP/1.") {
            return Err(bad(400, format!("unsupported version `{version}`")));
        }
        Ok(Self {
            method,
            path,
            // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
            keep_alive: version != "HTTP/1.0",
            content_length: None,
            deadline_ms: None,
        })
    }

    /// Applies one header line.
    fn header(&mut self, line: &str) -> Result<(), ReadError> {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(400, format!("malformed header `{line}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = value
                .parse::<usize>()
                .map_err(|_| bad(400, "bad Content-Length"))?;
            // Conflicting duplicates are the classic request-smuggling
            // vector: two framings of the same stream. Reject outright;
            // repeated *identical* values are tolerated per RFC 9110.
            if let Some(prev) = self.content_length {
                if prev != parsed {
                    return Err(bad(400, "conflicting duplicate Content-Length headers"));
                }
            }
            self.content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            // `Connection` is a comma-separated token list
            // (`keep-alive, X-Custom`); whole-value equality would
            // misread every multi-token form. `close` wins over
            // `keep-alive` if a confused client sends both.
            let mut close = false;
            let mut keep = false;
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
            if close {
                self.keep_alive = false;
            } else if keep {
                self.keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad(400, "chunked bodies are not supported"));
        } else if name.eq_ignore_ascii_case("x-deadline-ms") {
            self.deadline_ms = Some(
                value
                    .parse::<u64>()
                    .map_err(|_| bad(400, "X-Deadline-Ms must be a non-negative integer"))?,
            );
        }
        Ok(())
    }

    /// Validates the body length once the header block is complete.
    fn body_length(&self) -> Result<usize, ReadError> {
        let len = self.content_length.unwrap_or(0);
        if len > MAX_BODY_BYTES {
            return Err(bad(413, format!("body of {len} bytes")));
        }
        Ok(len)
    }

    fn into_request(self, body: Vec<u8>) -> Request {
        Request {
            method: self.method,
            path: self.path,
            body,
            keep_alive: self.keep_alive,
            deadline_ms: self.deadline_ms,
        }
    }
}

/// Strips a head line's `\n` and at most one `\r` before it. Any other
/// `\r` stays in the line, where the header grammar rejects it.
fn strip_line_end(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Result of one [`try_parse`] attempt over an accumulated buffer.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request; the first `consumed` buffer bytes belong to it
    /// and must be drained before the next attempt.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed (head + body).
        consumed: usize,
    },
    /// The buffer does not yet hold a complete request; read more bytes
    /// and try again.
    Partial,
}

/// Incremental request parser for the event loops: makes one attempt
/// over everything a nonblocking socket has delivered so far. Stateless —
/// re-parsing a small head on each readiness event is cheaper than
/// carrying parser state, and the head cap bounds the work.
///
/// Limits are enforced on the spot: a head running past
/// [`MAX_HEAD_BYTES`] is rejected 413 as soon as that many bytes have
/// arrived, so a flood without a newline is never buffered further.
///
/// # Errors
///
/// [`ReadError::Bad`] for a malformed or over-limit request.
pub fn try_parse(buf: &[u8]) -> Result<Parsed, ReadError> {
    let mut pos = 0usize;
    let mut head: Option<Head> = None;
    loop {
        let Some(nl) = find_newline(buf, pos) else {
            // No complete line: everything buffered so far is head bytes.
            if buf.len() > MAX_HEAD_BYTES {
                return Err(bad(413, "request head too large"));
            }
            return Ok(Parsed::Partial);
        };
        let next = nl + 1;
        if next > MAX_HEAD_BYTES {
            return Err(bad(413, "request head too large"));
        }
        let line = std::str::from_utf8(strip_line_end(&buf[pos..next]))
            .map_err(|_| bad(400, "request head is not valid UTF-8"))?;
        pos = next;
        match head.as_mut() {
            None => head = Some(Head::start(line)?),
            Some(h) => {
                if line.is_empty() {
                    // End of headers: the body either is fully buffered or
                    // we wait for more bytes.
                    let h = head.take().expect("head present");
                    let content_length = h.body_length()?;
                    if buf.len() < pos + content_length {
                        return Ok(Parsed::Partial);
                    }
                    let body = buf[pos..pos + content_length].to_vec();
                    return Ok(Parsed::Complete {
                        request: h.into_request(body),
                        consumed: pos + content_length,
                    });
                }
                h.header(line)?;
            }
        }
    }
}

fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?.iter().position(|&b| b == b'\n').map(|i| from + i)
}

/// One response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body text.
    pub body: String,
    /// Optional `Retry-After` header (seconds), set on 429s and retryable
    /// 503s (draining, circuit open).
    pub retry_after: Option<u64>,
    /// Optional `Warning` header value, set on degraded-mode responses
    /// (owned so a proxy can pass an upstream replica's warning through).
    pub warning: Option<String>,
    /// Additional response headers, written verbatim after the standard
    /// set. Used by the cluster router for passthrough annotation
    /// (`X-Replica`); names must be valid header tokens.
    pub extra: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
            warning: None,
            extra: Vec::new(),
        }
    }

    /// A JSON error body `{"error": ..., "code": ...}`.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        airchitect_telemetry::json::write_escaped(&mut body, message);
        body.push_str(",\"code\":");
        airchitect_telemetry::json::write_escaped(&mut body, code);
        body.push_str("}\n");
        Self::json(status, body)
    }

    /// A plain-text response (the `/metrics` endpoint).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
            warning: None,
            extra: Vec::new(),
        }
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `resp` to `stream`, honoring `keep_alive`.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response<W: Write>(
    stream: &mut W,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if let Some(warning) = &resp.warning {
        head.push_str(&format!("Warning: {warning}\r\n"));
    }
    for (name, value) in &resp.extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        match try_parse(raw.as_bytes())? {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len(), "trailing bytes in {raw:?}");
                Ok(request)
            }
            Parsed::Partial => panic!("incomplete request {raw:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse("POST /v1/recommend/array HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/recommend/array");
        assert_eq!(r.body, b"{}");
        assert!(r.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let r = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // Multi-token values used to fail whole-value equality and be
        // ignored entirely.
        let r = parse("GET /healthz HTTP/1.0\r\nConnection: keep-alive, X-Custom\r\n\r\n").unwrap();
        assert!(r.keep_alive, "keep-alive token recognised inside a list");
        let r = parse("GET /healthz HTTP/1.1\r\nConnection: foo , close\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "close token recognised inside a list");
        // `close` wins when both appear.
        let r = parse("GET /healthz HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        let raw =
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}";
        assert!(matches!(
            parse(raw),
            Err(ReadError::Bad { status: 400, .. })
        ));
        // Identical duplicates are harmless and tolerated.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse(raw).unwrap();
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn empty_buffer_waits_for_bytes() {
        assert!(matches!(try_parse(b""), Ok(Parsed::Partial)));
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(&raw),
            Err(ReadError::Bad { status: 413, .. })
        ));
    }

    #[test]
    fn garbage_is_a_400() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(ReadError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ReadError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn a_request_is_partial_until_its_last_byte() {
        let raw = "POST /v1/recommend/array HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nX-Deadline-Ms: 250\r\n\r\n{}";
        // Byte-at-a-time: Partial until the last byte, then Complete.
        for cut in 0..raw.len() {
            let parsed = try_parse(&raw.as_bytes()[..cut]).unwrap();
            assert!(matches!(parsed, Parsed::Partial), "cut at {cut}");
        }
        match try_parse(raw.as_bytes()).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.body, b"{}");
                assert_eq!(request.deadline_ms, Some(250));
                assert!(request.keep_alive);
            }
            Parsed::Partial => panic!("full buffer must parse"),
        }
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let one = "GET /healthz HTTP/1.1\r\n\r\n";
        let two = "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let buf = format!("{one}{two}");
        let Parsed::Complete { request, consumed } = try_parse(buf.as_bytes()).unwrap() else {
            panic!("first request must parse");
        };
        assert_eq!(request.path, "/healthz");
        assert_eq!(consumed, one.len());
        let Parsed::Complete { request, consumed } = try_parse(&buf.as_bytes()[one.len()..]).unwrap()
        else {
            panic!("second request must parse");
        };
        assert_eq!(request.body, b"abc");
        assert_eq!(consumed, two.len());
    }

    #[test]
    fn incremental_parser_enforces_the_head_cap() {
        let flood = vec![b'a'; MAX_HEAD_BYTES + 2];
        assert!(matches!(
            try_parse(&flood),
            Err(ReadError::Bad { status: 413, .. })
        ));
        // A valid head that simply runs long is also cut off.
        let mut long = b"GET / HTTP/1.1\r\n".to_vec();
        while long.len() <= MAX_HEAD_BYTES + 2 {
            long.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert!(matches!(
            try_parse(&long),
            Err(ReadError::Bad { status: 413, .. })
        ));
    }

    #[test]
    fn incremental_parser_rejects_conflicting_content_length() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}";
        assert!(matches!(
            try_parse(raw.as_bytes()),
            Err(ReadError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn response_writing_round_trips() {
        let mut out = Vec::new();
        let mut resp = Response::json(429, "{}".into());
        resp.retry_after = Some(1);
        resp.extra.push(("X-Replica".into(), "2".into()));
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Replica: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
