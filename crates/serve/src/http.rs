//! A minimal HTTP/1.1 request parser and response writer over `std::io`.
//!
//! The workspace builds without crates.io access, so the serving boundary
//! speaks HTTP through a deliberately small hand-rolled implementation:
//! request-line + headers + `Content-Length` body, hard size limits on
//! every dimension, and nothing else (no chunked encoding, no keep-alive
//! pipelining, no TLS). That is exactly the subset `curl`, load balancers
//! and the bundled load generators need to reach `POST /v1/infer`.
//!
//! Parsing is pure over any [`BufRead`], so the unit tests drive it from
//! in-memory byte slices without sockets.

use std::fmt;
use std::io::{BufRead, Write};

/// Largest accepted request line + single header line, in bytes.
pub(crate) const MAX_LINE: usize = 8 * 1024;
/// Largest accepted number of headers.
pub(crate) const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (a batch of f32 samples in
/// decimal JSON stays far under this).
pub(crate) const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`).
    pub method: String,
    /// The request target path, without the query string.
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Every variant maps to a `400` except
/// [`HttpError::BodyTooLarge`] (`413`), [`HttpError::Timeout`] (`408`) and
/// [`HttpError::Closed`] (no response — the peer went away).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request arrived.
    Closed,
    /// The request line is not `METHOD /path HTTP/1.x`.
    BadRequestLine(String),
    /// A header line has no `:` separator, or there are too many headers.
    BadHeader(String),
    /// `Content-Length` is missing on a body-bearing method, unparseable,
    /// or the body ended early.
    BadBody(String),
    /// The declared body exceeds `MAX_BODY`.
    BodyTooLarge(usize),
    /// A line exceeds `MAX_LINE`.
    LineTooLong,
    /// The peer sent nothing for as long as the socket's read timeout.
    Timeout,
    /// An I/O error on the connection.
    Io(String),
}

impl From<std::io::Error> for HttpError {
    fn from(err: std::io::Error) -> Self {
        // A socket read timeout surfaces as `WouldBlock` on Unix and
        // `TimedOut` on Windows.
        match err.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(err.to_string()),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::BadRequestLine(line) => write!(f, "malformed request line: {line:?}"),
            HttpError::BadHeader(line) => write!(f, "malformed header: {line:?}"),
            HttpError::BadBody(msg) => write!(f, "bad request body: {msg}"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds the {MAX_BODY}-byte limit")
            }
            HttpError::LineTooLong => write!(f, "request line or header exceeds {MAX_LINE} bytes"),
            HttpError::Timeout => write!(f, "timed out waiting for the request"),
            HttpError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one `\r\n`- (or `\n`-) terminated line, bounded by [`MAX_LINE`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Closed);
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::BadHeader("non-UTF-8 header bytes".into()));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(HttpError::LineTooLong);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Parses one HTTP/1.x request from the reader. Returns `Ok(None)` when the
/// connection closed cleanly before any bytes arrived.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let line = match read_line(reader)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequestLine(line.clone())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequestLine(line.clone()));
    }
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or(HttpError::Closed)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadHeader("too many headers".into()));
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| HttpError::BadHeader(line.clone()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadBody(format!("unparseable content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(reader, &mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::BadBody(format!("body ended before the declared {content_length} bytes"))
            } else {
                e.into()
            }
        })?;
    }
    Ok(Some(Request { method, path, headers, body }))
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
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

/// Writes one complete HTTP/1.1 response and closes the exchange
/// (`Connection: close` — one request per connection). The content type
/// defaults to JSON; an explicit `content-type` in `extra_headers`
/// overrides it (the Prometheus exposition endpoint is plain text).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    if !extra_headers.iter().any(|(name, _)| name.eq_ignore_ascii_case("content-type")) {
        head.push_str("content-type: application/json\r\n");
    }
    head.push_str(&format!("content-length: {}\r\nconnection: close\r\n", body.len()));
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req =
            parse(b"POST /v1/infer?debug=1 HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"sample\":1}")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer");
        assert_eq!(req.body, b"{\"sample\":1}");
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = parse(b"GET / HTTP/1.0\nA: b\n\n").unwrap().unwrap();
        assert_eq!(req.header("a"), Some("b"));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(parse(b"GARBAGE\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
        assert!(matches!(parse(b"GET / SPDY/99\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n"),
            Err(HttpError::BadBody(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"),
            Err(HttpError::BadBody(_))
        ));
        assert!(matches!(parse(b"GET / HTT"), Err(HttpError::Closed)));
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn a_read_timeout_is_its_own_error() {
        /// Half a request line, then what a timed-out socket read returns.
        struct Stalls(&'static [u8]);
        impl std::io::Read for Stalls {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = self.0.len().min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        for sent in [&b""[..], b"GET /v1/hea", b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc"] {
            let parsed = read_request(&mut BufReader::new(Stalls(sent)));
            assert_eq!(parsed, Err(HttpError::Timeout), "{:?}", String::from_utf8_lossy(sent));
        }
        assert_eq!(reason(408), "Request Timeout");
    }

    #[test]
    fn size_limits_are_enforced() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 1));
        assert!(matches!(parse(huge.as_bytes()), Err(HttpError::LineTooLong)));

        let declared = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse(declared.as_bytes()), Err(HttpError::BodyTooLarge(_))));

        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(parse(many.as_bytes()), Err(HttpError::BadHeader(_))));
    }

    #[test]
    fn responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 429, &[("retry-after", "1".to_string())], "{\"err\":1}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 9\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"err\":1}"));
        assert_eq!(reason(504), "Gateway Timeout");
        assert_eq!(reason(599), "Unknown");
    }

    #[test]
    fn explicit_content_type_overrides_the_json_default() {
        let mut out = Vec::new();
        let headers = [("content-type", "text/plain; version=0.0.4; charset=utf-8".to_string())];
        write_response(&mut out, 200, &headers, "metric 1\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("application/json"));
        assert_eq!(text.matches("content-type:").count(), 1);
        assert!(text.contains("content-type: text/plain; version=0.0.4; charset=utf-8\r\n"));
    }
}
