//! A minimal blocking client for the serve endpoints.
//!
//! Shared by the integration tests, the `loadgen` benchmark driver and the
//! `serve_client` example, so every consumer speaks the exact protocol the
//! server implements. Two flavours: the free functions open one connection
//! per exchange (`Connection: close`), and [`Client`] holds a persistent
//! keep-alive connection, reconnecting transparently when the server closes
//! it (idle timeout, per-connection request cap, or restart).

use crate::proto::{PredictRequest, PredictResponse};
use crate::ServeError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed HTTP response: status, body, and whether the server asked to
/// close the connection.
struct Response {
    status: u16,
    body: Vec<u8>,
    close: bool,
}

/// Reads one response off a buffered stream (exact `Content-Length`
/// framing, so the connection stays usable for the next exchange).
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, ServeError> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if status_line.is_empty() {
        return Err(ServeError::Proto(
            "connection closed before a response".to_string(),
        ));
    }
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Proto(format!("bad status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            }
            if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                close = true;
            }
        }
    }
    let body = match content_length {
        Some(n) if n > crate::http::MAX_BODY => {
            return Err(ServeError::Proto(format!(
                "response declares {n}-byte body (cap {})",
                crate::http::MAX_BODY
            )));
        }
        // Same discipline as the server side: grow the buffer with the
        // bytes actually received, never from the peer's declared length
        // alone (a typo'd --addr may be talking to anything).
        Some(n) => {
            let mut buf = Vec::with_capacity(n.min(1 << 16));
            let mut chunk = [0u8; 16 * 1024];
            let mut remaining = n;
            while remaining > 0 {
                let take = remaining.min(chunk.len());
                reader.read_exact(&mut chunk[..take])?;
                buf.extend_from_slice(&chunk[..take]);
                remaining -= take;
            }
            buf
        }
        None => {
            // Without a Content-Length the body runs to EOF — the
            // connection cannot be reused after this.
            close = true;
            let mut buf = Vec::new();
            reader
                .by_ref()
                .take(crate::http::MAX_BODY as u64)
                .read_to_end(&mut buf)?;
            buf
        }
    };
    Ok(Response {
        status,
        body,
        close,
    })
}

fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "{method} {path} HTTP/1.1\r\nHost: lmmir\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Performs one HTTP exchange (`Connection: close`), returning the status
/// code and body.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on transport failure and
/// [`ServeError::Proto`] on a malformed response.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(300)))?;
    stream.set_write_timeout(Some(Duration::from_secs(300)))?;
    write_request(&mut stream, method, path, body, false)?;
    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader)?;
    Ok((resp.status, resp.body))
}

/// `GET` returning the body as text (any status).
///
/// # Errors
///
/// See [`request`].
pub fn get_text(addr: impl ToSocketAddrs, path: &str) -> Result<(u16, String), ServeError> {
    let (status, body) = request(addr, "GET", path, &[])?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Sends one predict request and decodes the response; a server-side error
/// frame (any status) surfaces as [`ServeError::Proto`] with the message.
///
/// # Errors
///
/// See [`request`]; additionally fails on an undecodable response frame.
pub fn predict(
    addr: impl ToSocketAddrs,
    req: &PredictRequest,
) -> Result<PredictResponse, ServeError> {
    let (status, body) = request(addr, "POST", "/predict", &req.encode())?;
    decode_predict(status, &body)
}

fn decode_predict(status: u16, body: &[u8]) -> Result<PredictResponse, ServeError> {
    if body.is_empty() {
        return Err(ServeError::Proto(format!("HTTP {status} with empty body")));
    }
    PredictResponse::decode(body)
}

/// A persistent keep-alive connection to one server.
///
/// The connection is opened lazily on the first exchange and reused for
/// subsequent ones. When the server closes it — `Connection: close` in a
/// response, idle timeout, per-connection request cap — the next exchange
/// reconnects transparently. A request that dies *mid-exchange on a reused
/// connection* is retried once on a fresh connection (the server may have
/// idled it out between our write and its read); a fresh connection's
/// failure is the caller's.
pub struct Client {
    addr: String,
    /// Read half (buffered) and write half of the one persistent
    /// connection; the halves are cloned once at connect, not per request.
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    /// A client for `addr` (`host:port`). No connection is opened yet.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            conn: None,
        }
    }

    fn connect(&mut self) -> Result<&mut (BufReader<TcpStream>, TcpStream), ServeError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            // Request/response ping-pong on a warm connection: Nagle +
            // delayed ACK would add ~40 ms per exchange.
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(300)))?;
            stream.set_write_timeout(Some(Duration::from_secs(300)))?;
            let writer = stream.try_clone()?;
            self.conn = Some((BufReader::new(stream), writer));
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    fn exchange_once(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Response, ServeError> {
        let (reader, writer) = self.connect()?;
        write_request(writer, method, path, body, true)?;
        read_response(reader)
    }

    /// Performs one HTTP exchange over the persistent connection.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on transport failure (after one retry on
    /// a fresh connection when the reused one died) and
    /// [`ServeError::Proto`] on a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), ServeError> {
        let reused = self.conn.is_some();
        let outcome = self.exchange_once(method, path, body);
        let resp = match outcome {
            Ok(r) => r,
            Err(ServeError::Io(_) | ServeError::Proto(_)) if reused => {
                // The server may have closed the idle connection between
                // our write and its read; retry once on a fresh one.
                self.conn = None;
                self.exchange_once(method, path, body)?
            }
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if resp.close {
            self.conn = None;
        }
        Ok((resp.status, resp.body))
    }

    /// Sends one predict request over the persistent connection.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; additionally fails on an undecodable
    /// response frame.
    pub fn predict(&mut self, req: &PredictRequest) -> Result<PredictResponse, ServeError> {
        let (status, body) = self.request("POST", "/predict", &req.encode())?;
        decode_predict(status, &body)
    }

    /// Opens the connection eagerly without sending a request — useful to
    /// establish an idle keep-alive connection (e.g. connection-scale
    /// tests that hold hundreds open) or to pay the connect cost up front.
    /// A no-op when already connected.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the server is unreachable.
    pub fn warm(&mut self) -> Result<(), ServeError> {
        self.connect().map(|_| ())
    }

    /// Whether a connection is currently held open (false before the first
    /// exchange and after the server closed it).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }
}
