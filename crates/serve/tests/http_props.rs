//! Property tests for the parsers that read network input. The request
//! parser, `http::try_parse`, reads every request both server roles get:
//! splitting a byte stream anywhere must not change what it yields, it
//! never panics, every well-formed request parses to the fields it was
//! built from, and its limits sit exactly where documented. The JSON
//! parser reads every request body, so it gets a never-panics and an
//! escape round-trip property too.

use airchitect_serve::http::{
    try_parse, Parsed, ReadError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use airchitect_telemetry::json;
use proptest::collection::vec;
use proptest::prelude::*;

/// What a parser made of one request's worth of stream.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// A complete request: method, path, body, keep-alive, deadline.
    Request(String, String, Vec<u8>, bool, Option<u64>),
    /// The stream ended inside a request.
    Incomplete,
    /// Rejected with this status; the connection closes.
    Reject(u16),
}

fn request(r: Request) -> Outcome {
    Outcome::Request(r.method, r.path, r.body, r.keep_alive, r.deadline_ms)
}

/// Feeds `stream` to `try_parse` cut at `cuts` (ascending offsets), the
/// way an event loop does: append what arrived, take every complete
/// request off the front, and wait for more bytes on `Partial`.
fn incremental(stream: &[u8], cuts: &[usize]) -> Vec<Outcome> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut start = 0;
    for &end in cuts.iter().chain([stream.len()].iter()) {
        buf.extend_from_slice(&stream[start..end]);
        start = end;
        loop {
            match try_parse(&buf) {
                Ok(Parsed::Complete {
                    request: r,
                    consumed,
                }) => {
                    buf.drain(..consumed);
                    out.push(request(r));
                }
                Ok(Parsed::Partial) => break,
                Err(ReadError::Bad { status, .. }) => {
                    out.push(Outcome::Reject(status));
                    return out;
                }
            }
        }
    }
    if !buf.is_empty() {
        out.push(Outcome::Incomplete);
    }
    out
}

/// One well-formed request, with `\r\n` or bare `\n` line ends, and what
/// it must parse to.
fn valid_request() -> impl Strategy<Value = (Vec<u8>, Outcome)> {
    let head = (
        0usize..4,
        0usize..4,
        any::<bool>(),
        any::<bool>(),
        0usize..4,
    );
    let tail = (
        any::<bool>(),
        0u64..100_000,
        any::<bool>(),
        vec(any::<u8>(), 0..48),
    );
    (head, tail).prop_map(
        |((method, path, http10, bare_lf, conn), (deadline, ms, dup_len, body))| {
            let eol = if bare_lf { "\n" } else { "\r\n" };
            let method = ["GET", "POST", "put", "DELETE"][method];
            // HTTP/1.1 keeps the connection by default, HTTP/1.0 closes;
            // a `Connection` token list overrides either.
            let keep_alive = [!http10, false, true, true][conn];
            let path = ["/healthz", "/v1/recommend/array", "/metrics", "/nope"][path];
            let mut head = format!(
                "{method} {path} HTTP/1.{}{eol}Host: t{eol}",
                u8::from(!http10)
            );
            if let Some(value) = [
                None,
                Some("close"),
                Some("keep-alive"),
                Some("keep-alive, X"),
            ][conn]
            {
                head += &format!("Connection: {value}{eol}");
            }
            if deadline {
                head += &format!("X-Deadline-Ms: {ms}{eol}");
            }
            let lengths = usize::from(!body.is_empty() || dup_len) + usize::from(dup_len);
            head += &format!("Content-Length: {}{eol}", body.len()).repeat(lengths);
            let mut bytes = format!("{head}{eol}").into_bytes();
            bytes.extend_from_slice(&body);
            let expected = Outcome::Request(
                method.to_ascii_uppercase(),
                path.to_string(),
                body,
                keep_alive,
                deadline.then_some(ms),
            );
            (bytes, expected)
        },
    )
}

/// Bytes a mutation writes: the protocol's delimiters, digits that
/// retarget a length, a letter, and non-UTF-8 / NUL bytes.
const PALETTE: &[u8] = b"\r\n: 09aX\xff\x00";

/// One request or a pipelined pair, then zero to three one-byte edits
/// (overwrite, insert, delete), and half the time cut short where the
/// peer hung up.
fn stream() -> impl Strategy<Value = Vec<u8>> {
    let edits = vec((any::<usize>(), 0u8..3, any::<usize>()), 0..4);
    (
        valid_request(),
        valid_request(),
        any::<bool>(),
        edits,
        any::<bool>(),
        any::<usize>(),
    )
        .prop_map(
            |((mut bytes, _), (second, _), pipelined, edits, hang_up, at)| {
                if pipelined {
                    bytes.extend_from_slice(&second);
                }
                for (at, op, pick) in edits {
                    let (at, byte) = (at % (bytes.len() + 1), PALETTE[pick % PALETTE.len()]);
                    match op {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 => bytes.insert(at, byte),
                        2 if at < bytes.len() => drop(bytes.remove(at)),
                        _ => {}
                    }
                }
                if hang_up {
                    bytes.truncate(at % (bytes.len() + 1));
                }
                bytes
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any split of the stream, down to one byte at a time, parses exactly
    /// like the whole stream delivered at once.
    #[test]
    fn any_split_parses_like_one_shot(bytes in stream(), cuts in vec(any::<usize>(), 0..6)) {
        let whole = incremental(&bytes, &[]);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        prop_assert_eq!(incremental(&bytes, &cuts), whole.clone());
        let every_byte: Vec<usize> = (1..bytes.len()).collect();
        prop_assert_eq!(incremental(&bytes, &every_byte), whole);
    }

    /// Every well-formed request, alone or pipelined behind another,
    /// parses to exactly the fields it was built from.
    #[test]
    fn well_formed_requests_parse_to_their_fields(
        (first, want_first) in valid_request(),
        (second, want_second) in valid_request(),
    ) {
        prop_assert_eq!(incremental(&first, &[]), vec![want_first.clone()]);
        let pipelined = [first, second].concat();
        prop_assert_eq!(incremental(&pipelined, &[]), vec![want_first, want_second]);
    }

    /// Arbitrary bytes: the parser returns, never panics, at any split.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256), cut in any::<usize>()) {
        let whole = incremental(&bytes, &[]);
        prop_assert_eq!(incremental(&bytes, &[cut % (bytes.len() + 1)]), whole);
    }

    /// A head of up to `MAX_HEAD_BYTES` bytes, its blank line included,
    /// parses; one byte more is a 413.
    #[test]
    fn head_cap_is_exact(pad in (MAX_HEAD_BYTES - 64)..(MAX_HEAD_BYTES + 8), bare_lf in any::<bool>()) {
        let eol = if bare_lf { "\n" } else { "\r\n" };
        let bytes = format!("GET /healthz HTTP/1.1{eol}X-Pad: {}{eol}{eol}", "a".repeat(pad))
            .into_bytes();
        let parsed = incremental(&bytes, &[]);
        if bytes.len() <= MAX_HEAD_BYTES {
            prop_assert!(matches!(parsed.as_slice(), [Outcome::Request(..)]), "{:?}", parsed);
        } else {
            prop_assert_eq!(parsed, vec![Outcome::Reject(413)]);
        }
    }
}

/// A stray `\r` before the blank line's terminator: the parser strips
/// exactly one `\r` before `\n`, so the line is not blank and the head
/// is rejected.
#[test]
fn stray_cr_before_the_blank_line_is_rejected() {
    let bytes = b"GET /healthz HTTP/1.1\r\n\r\r\n";
    assert_eq!(incremental(bytes, &[]), vec![Outcome::Reject(400)]);
}

/// A head cut off before its blank line is incomplete: the end of what
/// arrived does not end the headers.
#[test]
fn head_without_blank_line_is_incomplete() {
    let bytes = b"GET /healthz HTTP/1.1\r\nHost: t\r\n";
    assert_eq!(incremental(bytes, &[]), vec![Outcome::Incomplete]);
}

/// Bytes that steer the JSON parser into every production.
const JSON_ALPHABET: &[u8] = b"{}[]\":,\\/ \t\n-+.0123456789eEtrufalsnb\xc3\xa9";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `json::parse` returns, never panics, on arbitrary and on
    /// JSON-flavoured input.
    #[test]
    fn json_parse_never_panics(raw in vec(any::<u8>(), 0..128), picks in vec(any::<usize>(), 0..128)) {
        let _ = json::parse(&String::from_utf8_lossy(&raw));
        let flavoured: Vec<u8> = picks.iter().map(|p| JSON_ALPHABET[p % JSON_ALPHABET.len()]).collect();
        let _ = json::parse(&String::from_utf8_lossy(&flavoured));
    }

    /// Whatever `write_escaped` writes parses back to the same string.
    #[test]
    fn json_escape_round_trips(
        codes in vec(prop_oneof![0u32..0x80, 0x80u32..0x800, 0x800u32..0x11_0000], 0..32),
    ) {
        let original: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let mut doc = String::new();
        json::write_escaped(&mut doc, &original);
        prop_assert_eq!(json::parse(&doc), Ok(json::Value::Str(original)));
    }
}

/// A request body of nothing but `[` is an error, not a stack overflow
/// that takes the whole server down.
#[test]
fn json_deep_nesting_is_an_error() {
    assert!(json::parse(&"[".repeat(MAX_BODY_BYTES)).is_err());
    let nested = format!("{}{}", "[".repeat(64), "]".repeat(64));
    assert!(json::parse(&nested).is_ok());
}
