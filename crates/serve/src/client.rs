//! A minimal blocking HTTP/1.1 client, just capable enough to drive the
//! server from the loadgen bench and the integration tests, and to carry
//! the cluster router's requests to its replicas (keep-alive,
//! `Content-Length` bodies, no redirects, no TLS).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body text (responses from this server are UTF-8).
    pub body: String,
    /// Parsed `Retry-After` header, if present.
    pub retry_after: Option<u64>,
    /// Raw `Warning` header, if present (degraded-mode responses).
    pub warning: Option<String>,
}

impl ClientResponse {
    /// Whether the status is a success (2xx).
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A keep-alive connection to one server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects, with the same budget applied as the connect, read, *and*
    /// write timeout so neither tests nor the loadgen can hang forever on
    /// a stalled connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Issues a `GET` and reads the response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, "", None)
    }

    /// Issues a `POST` with a JSON body and reads the response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, body, None)
    }

    /// Issues a `POST` carrying an `X-Deadline-Ms` request budget.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn post_with_deadline(
        &mut self,
        path: &str,
        body: &str,
        deadline_ms: u64,
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, body, Some(deadline_ms))
    }

    /// Issues a `POST` for the cluster router: an optional
    /// `X-Deadline-Ms`, and at most `max_bytes` of response read, head
    /// included, since the server is another process.
    pub(crate) fn forward(
        &mut self,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
        max_bytes: usize,
    ) -> std::io::Result<ClientResponse> {
        self.send("POST", path, body, deadline_ms)?;
        let mut capped = (&mut self.reader).take(max_bytes as u64);
        let resp = read_response(&mut capped);
        if resp.is_err() && capped.limit() == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response exceeds {max_bytes} bytes"),
            ));
        }
        resp
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<ClientResponse> {
        self.send(method, path, body, deadline_ms)?;
        read_response(&mut self.reader)
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: airchitect\r\nConnection: keep-alive\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(ms) = deadline_ms {
            head.push_str(&format!("X-Deadline-Ms: {ms}\r\n"));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()
    }
}

/// Reads one response. The stream ending anywhere before the body's last
/// byte is an error, never a shortened response.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<ClientResponse> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let closed = || {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
    };
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(closed());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line `{}`", line.trim_end())))?;

    let mut content_length = 0usize;
    let mut retry_after = None;
    let mut warning = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(closed());
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length `{value}`")))?;
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("warning") {
                warning = Some(value.to_string());
            }
        }
    }

    let mut body = Vec::new();
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(closed());
    }
    Ok(ClientResponse {
        status,
        body: String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".into()))?,
        retry_after,
        warning,
    })
}

/// A self-healing client: keeps one keep-alive connection, reconnects
/// lazily, and retries a request (with linear backoff) when the transport
/// fails mid-flight. Only I/O errors are retried — an HTTP error status
/// is a *delivered* answer and is returned as-is, so this is safe for the
/// idempotent endpoints it is meant for (recommends, healthz, metrics).
///
/// Used by the loadgen bench (a replica being killed mid-run must not
/// fail the client) and by the cluster router's control-plane calls.
pub struct RetryClient {
    addr: SocketAddr,
    timeout: Duration,
    attempts: u32,
    backoff: Duration,
    conn: Option<HttpClient>,
}

impl RetryClient {
    /// A disconnected client for `addr`; `attempts` is the total number
    /// of tries per request (clamped to at least 1), `backoff` the sleep
    /// added before each retry (linearly scaled by the attempt number).
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration, attempts: u32, backoff: Duration) -> Self {
        Self {
            addr,
            timeout,
            attempts: attempts.max(1),
            backoff,
            conn: None,
        }
    }

    /// Drops the pooled connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Issues a `GET`, reconnecting and retrying on transport failure.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error once every attempt is exhausted.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, "", None)
    }

    /// Issues a `POST`, reconnecting and retrying on transport failure.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error once every attempt is exhausted.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, body, None)
    }

    /// Issues a request with retry-on-transport-failure.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error once every attempt is exhausted.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<ClientResponse> {
        let mut last = None;
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff * attempt);
            }
            let conn = match self.conn.as_mut() {
                Some(c) => c,
                None => match HttpClient::connect(self.addr, self.timeout) {
                    Ok(c) => self.conn.insert(c),
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                },
            };
            match conn.request(method, path, body, deadline_ms) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // The connection is in an unknown state (possibly a
                    // half-written request or half-read response): drop
                    // it and retry on a fresh one.
                    self.conn = None;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no attempts made")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{try_parse, Parsed};
    use std::net::TcpListener;

    /// A server whose first `drop_first` connections are closed without a
    /// response; later connections get `reply` per request.
    fn canned_server(drop_first: usize, reply: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(mut stream) = stream else { break };
                if i < drop_first {
                    drop(stream); // immediate close: client sees EOF
                    continue;
                }
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        match try_parse(&buf) {
                            Ok(Parsed::Complete { consumed, .. }) => {
                                buf.drain(..consumed);
                                if stream.write_all(reply).is_err() {
                                    return;
                                }
                            }
                            Ok(Parsed::Partial) => match stream.read(&mut chunk) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            },
                            Err(_) => return,
                        }
                    }
                });
            }
        });
        addr
    }

    fn flaky_server(drop_first: usize) -> SocketAddr {
        canned_server(
            drop_first,
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
        )
    }

    #[test]
    fn retry_client_survives_dropped_connections() {
        let addr = flaky_server(2);
        let mut client =
            RetryClient::new(addr, Duration::from_secs(2), 4, Duration::from_millis(1));
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok");
        // The healed connection keeps serving without further retries.
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    #[test]
    fn retry_client_gives_up_after_its_attempts() {
        let addr = flaky_server(usize::MAX);
        let mut client =
            RetryClient::new(addr, Duration::from_secs(2), 2, Duration::from_millis(1));
        assert!(client.get("/healthz").is_err());
    }

    #[test]
    fn forward_reads_at_most_its_cap_head_included() {
        const REPLY: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\nRetry-After: 3\r\n\r\n{\"ok\":1}";
        let addr = canned_server(0, REPLY);
        let mut client = HttpClient::connect(addr, Duration::from_secs(2)).unwrap();
        let resp = client.forward("/x", "{}", Some(5), REPLY.len()).unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "{\"ok\":1}"));
        assert_eq!(resp.retry_after, Some(3));
        // One byte short of the whole response: refused, not truncated.
        let err = client
            .forward("/x", "{}", None, REPLY.len() - 1)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_response_cut_short_is_an_error() {
        for cut in [
            // Cut before its headers ended: not an empty 200.
            &b"HTTP/1.1 200 OK\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\no"[..],
        ] {
            let err = read_response(&mut &cut[..]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{cut:?}");
        }
    }
}
