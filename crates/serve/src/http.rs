//! Minimal HTTP/1.1 framing over `std::net` (zero dependencies).
//!
//! Only what the affinity service needs: parse a request (method, path,
//! query string, headers, `Content-Length` body) off a `TcpStream` with
//! hard limits on header and body size, and write a framed response.
//! Persistent connections are supported (HTTP/1.1 default keep-alive;
//! `Connection: close` honoured); chunked request bodies, upgrades and
//! trailers are not — clients that need them get a structured 400/413.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body; larger bodies get 413.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Which phase of reading a request a timeout struck in. Distinguishes
/// an idle keep-alive close (routine) from a client that stalled
/// mid-request (slow-loris or a dying peer) — both get a structured
/// 408, but operators want to count them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStage {
    /// No request bytes had arrived yet (idle keep-alive connection).
    Idle,
    /// The head was partially received when the read stalled.
    Head,
    /// The declared body was partially received when the read stalled.
    Body,
}

impl ReadStage {
    /// Stable lowercase name used in 408 bodies and metrics.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReadStage::Idle => "idle",
            ReadStage::Head => "head",
            ReadStage::Body => "body",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string (`/v1/affinity`).
    pub path: String,
    /// Raw query string without the leading `?` (empty if none).
    pub query: String,
    /// Headers with lower-cased names.
    pub headers: HashMap<String, String>,
    /// The request body (empty when none was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `name`, percent-decoding `%xx`
    /// escapes and `+` as space.
    pub(crate) fn query_param(&self, name: &str) -> Option<String> {
        for pair in self.query.split('&') {
            let mut it = pair.splitn(2, '=');
            let k = it.next().unwrap_or("");
            if k == name {
                return Some(percent_decode(it.next().unwrap_or("")));
            }
        }
        None
    }

    /// Whether the client asked to close the connection after this
    /// request.
    pub(crate) fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request off the socket failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection before sending a request
    /// (normal end of a keep-alive session).
    Closed,
    /// A socket read timed out (per-read idle timeout or the total
    /// request read budget), with the phase it struck in. The caller
    /// owes the client a structured 408 — a silent close looks like a
    /// network fault and defeats client retry logic.
    TimedOut(ReadStage),
    /// Socket-level failure other than a timeout.
    Io(std::io::Error),
    /// The request head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The bytes on the wire were not a well-formed HTTP/1.1 request.
    Malformed(&'static str),
}

/// True for the error kinds a blocking-socket read timeout surfaces as.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from `stream`, enforcing head and body limits and
/// a total read budget.
///
/// The per-read socket timeout (set by the acceptor) bounds how long
/// one `read(2)` may stall, but a slow-loris client that trickles a
/// byte per timeout window would hold a worker forever; `budget`
/// bounds the *total* wall-clock time one request may take to arrive.
/// Either limit expiring surfaces as [`RecvError::TimedOut`] with the
/// read stage it struck in.
pub(crate) fn read_request(stream: &mut TcpStream, budget: Duration) -> Result<Request, RecvError> {
    let deadline = Instant::now() + budget;
    // Read until the blank line ending the head.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let body_start;
    loop {
        if let Some(pos) = find_head_end(&head) {
            body_start = pos;
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(RecvError::HeadTooLarge);
        }
        let stage = if head.is_empty() {
            ReadStage::Idle
        } else {
            ReadStage::Head
        };
        if Instant::now() >= deadline {
            return Err(RecvError::TimedOut(stage));
        }
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(RecvError::TimedOut(stage)),
            Err(e) => return Err(RecvError::Io(e)),
        };
        if n == 0 {
            return if head.is_empty() {
                Err(RecvError::Closed)
            } else {
                Err(RecvError::Malformed("connection closed mid-head"))
            };
        }
        head.extend_from_slice(&buf[..n]);
    }

    let (head_bytes, rest) = head.split_at(body_start);
    let head_text =
        std::str::from_utf8(head_bytes).map_err(|_| RecvError::Malformed("head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().ok_or(RecvError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RecvError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(RecvError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(RecvError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed("unsupported HTTP version"));
    }

    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RecvError::Malformed("malformed header line"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let content_length: usize = match headers.get("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| RecvError::Malformed("bad content-length"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(RecvError::BodyTooLarge);
    }
    if headers.contains_key("transfer-encoding") {
        return Err(RecvError::Malformed("chunked bodies not supported"));
    }

    // `rest` holds the body bytes that arrived with the head (after the
    // CRLFCRLF separator already stripped by `find_head_end`).
    let mut body = rest.to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(RecvError::TimedOut(ReadStage::Body));
        }
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(RecvError::TimedOut(ReadStage::Body)),
            Err(e) => return Err(RecvError::Io(e)),
        };
        if n == 0 {
            return Err(RecvError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method,
        path: percent_decode(&path),
        query,
        headers,
        body,
    })
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Decodes `%xx` escapes and `+` (as space).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Canonical reason phrase for the status codes the service emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response with `Content-Length` framing.
///
/// `retry_after` adds a `Retry-After: <seconds>` header — set it on
/// 429/503 shed responses so well-behaved clients back off instead of
/// hammering an overloaded server.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
    retry_after: Option<u64>,
) -> std::io::Result<()> {
    let retry = match retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        retry,
        if close { "close" } else { "keep-alive" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("x86-16D-64W-P"), "x86-16D-64W-P");
        assert_eq!(percent_decode("bad%2"), "bad%2");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn reasons_cover_service_codes() {
        for code in [200, 400, 404, 405, 408, 413, 429, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
    }

    #[test]
    fn read_stage_names_are_stable() {
        assert_eq!(ReadStage::Idle.name(), "idle");
        assert_eq!(ReadStage::Head.name(), "head");
        assert_eq!(ReadStage::Body.name(), "body");
    }
}
