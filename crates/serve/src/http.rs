//! A minimal HTTP/1.1 layer with a **resumable** request parser.
//!
//! Just enough protocol for the server's five endpoints and the bundled
//! client: request line + headers + `Content-Length` bodies, with
//! **persistent connections** — `Connection: keep-alive` / `close`
//! semantics (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close), exact
//! `Content-Length` framing so sequential — even pipelined — requests on
//! one socket never bleed into each other. Every length a peer controls is
//! capped before allocation.
//!
//! The parser is a pure function over buffered bytes: [`parse_request`]
//! either produces one complete request (and how many bytes it consumed),
//! reports what it is still waiting for ([`Parsed::Incomplete`]), or fails.
//! That shape is what lets the event loop ([`crate::Server`]) resume a
//! parse across an arbitrary number of partial non-blocking reads: the
//! connection accumulates bytes and re-offers the buffer, and no parser
//! state lives anywhere but the buffer itself.

use crate::ServeError;
use std::io::Write;

/// Longest accepted request line or header line (bytes, terminator
/// included).
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted body (a full-scale 870×870 design with netlist is ~20
/// MiB; leave generous headroom).
pub const MAX_BODY: usize = 256 << 20;

/// One parsed HTTP request (the subset the server routes on).
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are not interpreted).
    pub target: String,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the peer asked to close the connection after this exchange
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

/// What an incomplete parse is still waiting for, so the caller can pick
/// the right deadline (head vs body) and honour `Expect: 100-continue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Needs {
    /// The head (request line + headers) is complete; the declared
    /// `Content-Length` body has not fully arrived yet.
    pub body: bool,
    /// The head carried `Expect: 100-continue`: the peer is waiting for
    /// the interim response before it transmits the body (curl does for
    /// bodies over 1 KiB; without it, it stalls ~1 s).
    pub expects_continue: bool,
}

/// Outcome of offering buffered bytes to the parser.
#[derive(Debug)]
pub enum Parsed {
    /// More bytes are needed before a request can be framed.
    Incomplete(Needs),
    /// One complete request. `consumed` bytes belong to it; anything after
    /// is the next pipelined request and must stay in the buffer.
    Ready {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed (head + body).
        consumed: usize,
    },
}

/// Strips one line's trailing `\r` padding and decodes it as UTF-8.
fn decode_line(raw: &[u8]) -> Result<&str, ServeError> {
    let mut end = raw.len();
    while end > 0 && raw[end - 1] == b'\r' {
        end -= 1;
    }
    std::str::from_utf8(&raw[..end])
        .map_err(|e| ServeError::Proto(format!("non-UTF-8 header: {e}")))
}

/// Attempts to parse one request from the front of `buf`.
///
/// Pure and restartable: callers append newly received bytes and call
/// again. A request is only materialized once every byte of it is present;
/// pipelined follow-up bytes are left untouched past `consumed`.
///
/// # Errors
///
/// Returns [`ServeError::Proto`] for malformed or oversized requests — a
/// failed parse poisons the connection's framing, so callers should answer
/// `400` and close.
pub fn parse_request(buf: &[u8]) -> Result<Parsed, ServeError> {
    let mut cursor = 0usize;
    let mut line_meta: Option<(String, String, bool)> = None; // method, target, close
    let mut content_length: Option<usize> = None;
    let mut expects_continue = false;
    let mut headers_seen = 0usize;
    let body_start = loop {
        let Some(nl) = buf[cursor..].iter().position(|&b| b == b'\n') else {
            // No complete line. A line that already overflows the cap can
            // never terminate legally; otherwise wait for more bytes.
            if buf.len() - cursor >= MAX_LINE {
                return Err(ServeError::Proto(format!(
                    "header line exceeds {MAX_LINE} bytes or is unterminated"
                )));
            }
            return Ok(Parsed::Incomplete(Needs {
                body: false,
                expects_continue: false,
            }));
        };
        if nl + 1 > MAX_LINE {
            return Err(ServeError::Proto(format!(
                "header line exceeds {MAX_LINE} bytes or is unterminated"
            )));
        }
        let line = decode_line(&buf[cursor..cursor + nl])?;
        cursor += nl + 1;
        match &mut line_meta {
            None => {
                let mut parts = line.split_ascii_whitespace();
                let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
                    _ => {
                        return Err(ServeError::Proto(format!(
                            "malformed request line: {line:?}"
                        )))
                    }
                };
                if !version.starts_with("HTTP/1.") {
                    return Err(ServeError::Proto(format!(
                        "unsupported protocol version {version:?}"
                    )));
                }
                // HTTP/1.0 closes by default; 1.1 keeps alive by default.
                line_meta = Some((method, target, version == "HTTP/1.0"));
            }
            Some((_, _, close)) => {
                if line.is_empty() {
                    break cursor;
                }
                headers_seen += 1;
                if headers_seen > MAX_HEADERS {
                    return Err(ServeError::Proto(format!(
                        "more than {MAX_HEADERS} headers"
                    )));
                }
                if let Some((name, value)) = line.split_once(':') {
                    let value = value.trim();
                    if name.eq_ignore_ascii_case("expect")
                        && value.eq_ignore_ascii_case("100-continue")
                    {
                        expects_continue = true;
                    }
                    if name.eq_ignore_ascii_case("connection") {
                        if value.eq_ignore_ascii_case("close") {
                            *close = true;
                        } else if value.eq_ignore_ascii_case("keep-alive") {
                            *close = false;
                        }
                    }
                    if name.eq_ignore_ascii_case("content-length") {
                        // Repeated Content-Length headers are the classic
                        // request-smuggling vector: two parsers that pick
                        // different copies frame the stream differently.
                        // Reject them all — even agreeing duplicates — and
                        // accept only plain digit runs (`parse` would admit
                        // a `+` sign), capped before any buffer is sized
                        // off the value.
                        if content_length.is_some() {
                            return Err(ServeError::Proto(
                                "duplicate content-length header".to_string(),
                            ));
                        }
                        content_length = Some(
                            Some(value)
                                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                                .and_then(|v| v.parse::<usize>().ok())
                                .filter(|&n| n <= MAX_BODY)
                                .ok_or_else(|| {
                                    ServeError::Proto(format!(
                                        "bad content-length {value:?} (cap {MAX_BODY})"
                                    ))
                                })?,
                        );
                    }
                    // Bodies this server cannot frame (chunked et al.) must
                    // fail the *request*, not poison the connection: on
                    // keep-alive, an unread chunked body would be parsed as
                    // the next request line. The caller answers 400 and
                    // closes, which is framing-safe.
                    if name.eq_ignore_ascii_case("transfer-encoding") {
                        return Err(ServeError::Proto(format!(
                            "transfer-encoding {value:?} is not supported; \
                             send a Content-Length body"
                        )));
                    }
                }
            }
        }
    };
    let content_length = content_length.unwrap_or(0);
    if buf.len() < body_start + content_length {
        return Ok(Parsed::Incomplete(Needs {
            body: true,
            expects_continue,
        }));
    }
    let (method, target, close) = line_meta.expect("head terminated, so the request line parsed");
    Ok(Parsed::Ready {
        request: Request {
            method,
            target,
            body: buf[body_start..body_start + content_length].to_vec(),
            close,
        },
        consumed: body_start + content_length,
    })
}

/// The interim response owed to a peer that sent `Expect: 100-continue`.
pub const CONTINUE_INTERIM: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Writes one response and flushes. `close` selects the advertised
/// `Connection` header; the caller owns actually closing the socket (and
/// must, after advertising `close` — clients block on it). Writing into a
/// `Vec<u8>` (the event loop's outgoing buffer) cannot fail.
///
/// # Errors
///
/// Returns the underlying transport error.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" }
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Canonical reason phrases for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a complete request that must be fully present in `raw`.
    fn parse_one(raw: &[u8]) -> Result<Request, ServeError> {
        match parse_request(raw)? {
            Parsed::Ready { request, .. } => Ok(request),
            Parsed::Incomplete(needs) => panic!("expected a full request, got {needs:?}"),
        }
    }

    fn incomplete(raw: &[u8]) -> Needs {
        match parse_request(raw).unwrap() {
            Parsed::Incomplete(needs) => needs,
            Parsed::Ready { request, .. } => panic!("expected incomplete, got {request:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_one(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/predict");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn resumes_across_arbitrary_partial_reads() {
        // Feed the request one byte at a time: every prefix must report
        // Incomplete, and only the full buffer yields the request. This is
        // the exact discipline of the event loop's non-blocking reads.
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            let needs = incomplete(&raw[..cut]);
            // The head completes at the blank line; from there on the
            // parser reports it is waiting on the body.
            let head_len = raw.len() - 5;
            assert_eq!(needs.body, cut >= head_len, "cut at {cut}");
        }
        let req = parse_one(raw).unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn expect_100_continue_is_reported_while_body_pending() {
        // Head complete, body missing: the parser surfaces the Expect so
        // the connection layer can send the interim response.
        let head = b"POST /predict HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let needs = incomplete(head);
        assert!(needs.body && needs.expects_continue);
        // Once the body is present the request parses normally.
        let mut full = head.to_vec();
        full.extend_from_slice(b"hi");
        assert_eq!(parse_one(&full).unwrap().body, b"hi");
        // No Expect header: nothing to signal.
        let needs = incomplete(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n");
        assert!(needs.body && !needs.expects_continue);
    }

    #[test]
    fn connection_semantics_by_version_and_header() {
        // 1.0 closes by default; 1.0 + keep-alive stays open.
        let req = parse_one(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close);
        let req = parse_one(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.close);
        // 1.1 keeps alive by default; 1.1 + close closes.
        let req = parse_one(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        // Header matching is case-insensitive.
        let req = parse_one(b"GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n").unwrap();
        assert!(req.close);
    }

    #[test]
    fn empty_buffer_is_incomplete_not_error() {
        // A clean peer close with nothing buffered is the normal end of a
        // keep-alive connection: the parser stays neutral (Incomplete) and
        // the connection layer turns EOF-with-empty-buffer into a clean
        // close.
        let needs = incomplete(b"");
        assert!(!needs.body);
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let raw =
            b"POST /predict HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";
        let Parsed::Ready { request, consumed } = parse_request(raw).unwrap() else {
            panic!("first request must parse");
        };
        assert_eq!(request.body, b"abc", "body must not bleed into request 2");
        let second = parse_one(&raw[consumed..]).unwrap();
        assert_eq!(second.target, "/healthz");
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_request(b"GARBAGE\r\n\r\n").is_err());
        assert!(parse_request(b"GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse_request(b"POST / HTTP/1.1\r\nContent-Length: zero\r\n\r\n").is_err());
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(parse_request(huge.as_bytes()).is_err());
        // A truncated body is *incomplete*, not malformed — EOF-awareness
        // belongs to the connection layer, which closes on EOF mid-request.
        assert!(incomplete(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").body);
        // Chunked bodies cannot be framed: rejecting the request (the
        // caller then closes) beats parsing the chunk stream as the next
        // pipelined request.
        assert!(parse_request(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n"
        )
        .is_err());
        // An unterminated line that already overflows the cap can never
        // recover, terminator or not.
        let mut long = b"GET / HTTP/1.1\r\nX: ".to_vec();
        long.extend(std::iter::repeat_n(b'a', MAX_LINE + 10));
        assert!(parse_request(&long).is_err());
        let mut terminated = long;
        terminated.extend_from_slice(b"\r\n\r\n");
        assert!(parse_request(&terminated).is_err());
        // More headers than the cap.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("X-{i}: y\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert!(parse_request(&many).is_err());
    }

    #[test]
    fn rejects_duplicate_or_decorated_content_length() {
        // Conflicting copies: whichever one a downstream parser picked, the
        // framing would differ — hard 400.
        assert!(parse_request(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde"
        )
        .is_err());
        // Agreeing copies are still smuggling bait and still rejected.
        assert!(parse_request(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"
        )
        .is_err());
        // Case-insensitive duplicate detection.
        assert!(parse_request(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc"
        )
        .is_err());
        // Only plain digit runs are lengths: `usize::from_str` would accept
        // a leading `+`, which other parsers in the chain may not.
        assert!(parse_request(b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc").is_err());
        assert!(parse_request(b"POST / HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc").is_err());
        assert!(parse_request(b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n").is_err());
        // A value over the body cap fails at parse time — before any caller
        // sizes a buffer off it.
        let over = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse_request(over.as_bytes()).is_err());
        // One well-formed header still frames normally.
        let req = parse_one(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc").unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\nok\n"));
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n", false).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive"));
        let mut out = Vec::new();
        write_response(&mut out, 408, "text/plain", b"body timeout\n", true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    }
}
