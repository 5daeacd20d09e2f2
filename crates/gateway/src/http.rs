//! A minimal, incremental HTTP/1.1 request parser and response writer.
//!
//! Hand-rolled over raw bytes (no crates.io access — the same vendor
//! discipline as `vendor/`), sized for the gateway's needs and nothing
//! more: `Content-Length` bodies only (chunked transfer encoding is
//! rejected with a typed error, never misparsed), strict CRLF line
//! endings, bounded header and body sizes, and keep-alive/pipelining on
//! one connection.
//!
//! The parser is *incremental*: feed it whatever bytes arrived, ask for
//! the next complete request. Any prefix of a valid request parses to
//! "need more" — truncation is never an error and never a misparse
//! (property-tested in `tests/fuzz_http.rs`), and every malformed input
//! is a typed [`HttpError`], never a panic.

use crate::json::write_u64;

/// Bounds on one request. Exceeding either is a typed error, not an OOM.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Max bytes of request line + headers (terminator included).
    pub max_head_bytes: usize,
    /// Max bytes of body (`Content-Length` is checked before buffering).
    pub max_body_bytes: usize,
    /// Max number of header fields.
    pub max_headers: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
            max_headers: 64,
        }
    }
}

/// The protocol version of a request line. The two differ in what a
/// missing `Connection` header means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: the connection closes unless the client asks to keep it.
    Http10,
    /// `HTTP/1.1`: the connection stays open unless the client says `close`.
    Http11,
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Protocol version of the request line.
    pub version: Version,
    /// Method token, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target, as sent (no percent-decoding; graph names on this
    /// wire are plain tokens).
    pub path: String,
    /// Header fields in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection stays open after this request. `Connection`
    /// is a comma-separated token list: `close` anywhere in it closes; an
    /// HTTP/1.1 connection otherwise stays open, an HTTP/1.0 one only when
    /// the list asks for `keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let has = |token: &str| {
            self.headers
                .iter()
                .filter(|(k, _)| k == "connection")
                .flat_map(|(_, v)| v.split(','))
                .any(|t| t.trim_matches([' ', '\t']).eq_ignore_ascii_case(token))
        };
        !has("close") && (self.version == Version::Http11 || has("keep-alive"))
    }
}

/// Typed request-parse failures; [`status`](HttpError::status) maps each
/// to its response line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request (bad request line, header, version,
    /// `Content-Length`…) — 400.
    Malformed(String),
    /// Request line + headers exceed [`HttpLimits::max_head_bytes`] or
    /// [`HttpLimits::max_headers`] — 431.
    HeadersTooLarge {
        /// The configured bound.
        limit: usize,
    },
    /// Declared `Content-Length` exceeds [`HttpLimits::max_body_bytes`]
    /// — 413 (checked before buffering a single body byte).
    BodyTooLarge {
        /// The declared length.
        len: usize,
        /// The configured bound.
        limit: usize,
    },
    /// `Transfer-Encoding` (chunked or otherwise) is not supported — 501.
    /// Typed rather than misparsed: a body the gateway cannot frame must
    /// never be read as the next pipelined request.
    UnsupportedTransferEncoding(String),
}

impl HttpError {
    /// `(status code, reason phrase)` of the rejection response.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Malformed(_) => (400, "Bad Request"),
            HttpError::HeadersTooLarge { .. } => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            HttpError::UnsupportedTransferEncoding(_) => (501, "Not Implemented"),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadersTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge { len, limit } => {
                write!(f, "declared body of {len} bytes exceeds {limit}")
            }
            HttpError::UnsupportedTransferEncoding(te) => {
                write!(f, "transfer-encoding {te:?} not supported")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Incremental request parser over one connection's byte stream.
/// [`feed`](Self::feed) bytes as they arrive; [`try_next`](Self::try_next)
/// yields complete requests in order, supporting pipelining (a second
/// request already in the buffer is returned by the next call).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    limits: HttpLimits,
}

impl RequestParser {
    /// A parser with the given limits.
    pub fn new(limits: HttpLimits) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            limits,
        }
    }

    /// Append received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (tests and backpressure accounting).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to parse the next complete request out of the buffer.
    ///
    /// * `Ok(Some(req))` — one request, its bytes consumed (pipelined
    ///   successors stay buffered for the next call);
    /// * `Ok(None)` — the buffer holds only a prefix; feed more bytes;
    /// * `Err(_)` — the stream is invalid at its current position; the
    ///   connection should answer with [`HttpError::status`] and close.
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        let head_len = match find_terminator(&self.buf) {
            Some(end) => end,
            None => {
                if self.buf.len() > self.limits.max_head_bytes {
                    return Err(HttpError::HeadersTooLarge {
                        limit: self.limits.max_head_bytes,
                    });
                }
                return Ok(None);
            }
        };
        if head_len > self.limits.max_head_bytes {
            return Err(HttpError::HeadersTooLarge {
                limit: self.limits.max_head_bytes,
            });
        }
        let (version, method, path, headers) =
            parse_head(&self.buf[..head_len], self.limits.max_headers)?;
        if let Some(te) = headers
            .iter()
            .find(|(k, _)| k == "transfer-encoding")
            .map(|(_, v)| v.clone())
        {
            return Err(HttpError::UnsupportedTransferEncoding(te));
        }
        let body_len = match headers.iter().find(|(k, _)| k == "content-length") {
            None => 0,
            Some((_, v)) => {
                // Strict digits: rejects signs, whitespace tricks and
                // anything that two proxies might frame differently.
                if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::Malformed(format!("bad content-length {v:?}")));
                }
                v.parse::<usize>()
                    .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?
            }
        };
        if headers
            .iter()
            .filter(|(k, _)| k == "content-length")
            .count()
            > 1
        {
            return Err(HttpError::Malformed("duplicate content-length".into()));
        }
        if body_len > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                len: body_len,
                limit: self.limits.max_body_bytes,
            });
        }
        let total = head_len + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_len..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Request {
            version,
            method,
            path,
            headers,
            body,
        }))
    }
}

/// Byte length of request line + headers + the `\r\n\r\n` terminator, if
/// the buffer contains it.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

type Head = (Version, String, String, Vec<(String, String)>);

fn parse_head(head: &[u8], max_headers: usize) -> Result<Head, HttpError> {
    let head =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    // `head` ends with "\r\n\r\n"; split into lines on CRLF only (bare LF
    // is malformed by the line grammar below, since '\n' lands in-token).
    let mut lines = head[..head.len() - 4].split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !method.bytes().all(is_token_byte) {
        return Err(HttpError::Malformed(format!("bad method {method:?}")));
    }
    if !path.starts_with('/') || path.bytes().any(|b| b <= b' ' || b == 0x7f) {
        return Err(HttpError::Malformed(format!("bad path {path:?}")));
    }
    let version = match version {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        _ => return Err(HttpError::Malformed(format!("bad version {version:?}"))),
    };
    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= max_headers {
            return Err(HttpError::HeadersTooLarge { limit: max_headers });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        let value = value.trim_matches([' ', '\t']);
        if value.bytes().any(|b| b < 0x20 && b != b'\t') {
            return Err(HttpError::Malformed(format!(
                "control byte in header {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }
    Ok((version, method.to_string(), path.to_string(), headers))
}

/// RFC 9110 token bytes (header names, method).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Append a response head. `content_type` of `""` omits the header (204s
/// and error shells).
fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    write_u64(out, status as u64);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    if !content_type.is_empty() {
        out.extend_from_slice(b"\r\nContent-Type: ");
        out.extend_from_slice(content_type.as_bytes());
    }
    out.extend_from_slice(b"\r\nContent-Length: ");
    write_u64(out, body_len as u64);
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n"
    } else {
        b"\r\nConnection: close\r\n\r\n"
    });
}

/// Serialize one response into a buffer of its own: error shells, and
/// callers that hold a finished body. The connection loop streams into a
/// [`ResponseBuf`] instead.
pub fn response_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEAD_ROOM + body.len());
    write_head(
        &mut out,
        status,
        reason,
        content_type,
        body.len(),
        keep_alive,
    );
    out.extend_from_slice(body);
    out
}

/// Bytes kept free in front of a streamed body for the head, which can
/// only be written once the body's length is known. The longest head this
/// gateway writes is under 160 bytes.
const HEAD_ROOM: usize = 256;

/// Capacity a connection keeps between responses. A response that grew
/// the buffer beyond this (a large `/batch`) gives the memory back once it
/// is sent, instead of pinning it for the life of a keep-alive connection.
const RETAINED_CAPACITY: usize = 8 << 20;

/// One connection's reusable response buffer: the handler appends the
/// body behind [`HEAD_ROOM`] free bytes, the head is written into that
/// room once `Content-Length` is known, and head and body leave in a
/// single write with no copy of the body in between.
#[derive(Debug, Default)]
pub(crate) struct ResponseBuf {
    buf: Vec<u8>,
}

impl ResponseBuf {
    /// Start a response and return the sink its body is appended to. The
    /// sink already holds the head room, so handlers only ever append;
    /// [`clear_body`](Self::clear_body) takes back a partly written body.
    pub(crate) fn begin(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.buf.resize(HEAD_ROOM, 0);
        &mut self.buf
    }

    /// Drop what was appended since [`begin`](Self::begin) (a handler that
    /// failed half-way) and return the sink again.
    pub(crate) fn clear_body(&mut self) -> &mut Vec<u8> {
        self.buf.truncate(HEAD_ROOM);
        &mut self.buf
    }

    /// Frame the body written since [`begin`](Self::begin) and send the
    /// response in one `write_all`; returns the bytes written. The buffer
    /// is emptied, and shrunk if this response outgrew what a connection
    /// may retain.
    pub(crate) fn send(
        &mut self,
        to: &mut impl std::io::Write,
        status: u16,
        reason: &str,
        content_type: &str,
        keep_alive: bool,
    ) -> std::io::Result<usize> {
        let body_len = self.buf.len() - HEAD_ROOM;
        let mut head = Vec::with_capacity(HEAD_ROOM);
        write_head(
            &mut head,
            status,
            reason,
            content_type,
            body_len,
            keep_alive,
        );
        let start = HEAD_ROOM
            .checked_sub(head.len())
            .expect("status lines and content types are short constants");
        self.buf[start..HEAD_ROOM].copy_from_slice(&head);
        let sent = to.write_all(&self.buf[start..]);
        let written = self.buf.len() - start;
        self.buf.clear();
        if self.buf.capacity() > RETAINED_CAPACITY {
            self.buf = Vec::new();
        }
        sent.map(|()| written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new(HttpLimits::default());
        p.feed(bytes);
        p.try_next()
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_one(
            b"POST /query/demo HTTP/1.1\r\nHost: x\r\nX-Deadline-Ms: 50\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query/demo");
        assert_eq!(req.header("x-deadline-ms"), Some("50"));
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.version, Version::Http11);
        assert!(req.keep_alive());
    }

    #[test]
    fn incremental_feeding_and_pipelining() {
        let mut p = RequestParser::new(HttpLimits::default());
        let wire =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        for chunk in wire.chunks(3) {
            p.feed(chunk);
        }
        let first = p.try_next().unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = p.try_next().unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(!second.keep_alive());
        assert!(p.try_next().unwrap().is_none());
    }

    #[test]
    fn typed_rejections() {
        assert!(matches!(
            parse_one(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding(_))
        ));
        assert!(matches!(
            parse_one(b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"),
            Err(HttpError::BodyTooLarge { .. })
        ));
        assert!(matches!(
            parse_one(b"POST / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_one(b"GET /a b HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_one(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_rejected_even_without_terminator() {
        let mut p = RequestParser::new(HttpLimits {
            max_head_bytes: 64,
            ..HttpLimits::default()
        });
        p.feed(&[b'A'; 65]);
        assert!(matches!(
            p.try_next(),
            Err(HttpError::HeadersTooLarge { .. })
        ));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_tokens() {
        let keeps = |version: &str, connection: Option<&str>| {
            let header = connection.map_or(String::new(), |v| format!("Connection: {v}\r\n"));
            parse_one(format!("GET /healthz {version}\r\n{header}\r\n").as_bytes())
                .unwrap()
                .unwrap()
                .keep_alive()
        };
        assert!(keeps("HTTP/1.1", None));
        assert!(keeps("HTTP/1.1", Some("keep-alive")));
        assert!(!keeps("HTTP/1.1", Some("close")));
        assert!(!keeps("HTTP/1.1", Some("Close")));
        assert!(!keeps("HTTP/1.1", Some("keep-alive, close")));
        assert!(!keeps("HTTP/1.1", Some("TE ,\tclose")));
        assert!(keeps("HTTP/1.1", Some("closed")));
        // 1.0 closes unless asked to stay (ApacheBench sends no header).
        assert!(!keeps("HTTP/1.0", None));
        assert!(keeps("HTTP/1.0", Some("Keep-Alive")));
        assert!(keeps("HTTP/1.0", Some("TE, keep-alive")));
        assert!(!keeps("HTTP/1.0", Some("keep-alive, close")));
        assert!(!keeps("HTTP/1.0", Some("TE")));
    }

    #[test]
    fn response_writer_frames_correctly() {
        let bytes = response_bytes(200, "OK", "application/json", b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn streamed_response_equals_the_copied_one() {
        let mut response = ResponseBuf::default();
        // The longest status line and content type the gateway sends, an
        // empty content type, and a body-less answer.
        for (status, reason, content_type, body, keep_alive) in [
            (200, "OK", "application/json", &b"{\"a\":[1,2.5]}"[..], true),
            (
                431,
                "Request Header Fields Too Large",
                "text/plain; version=0.0.4",
                &[b'x'; 70_000][..],
                false,
            ),
            (204, "No Content", "", &b""[..], true),
        ] {
            response
                .begin()
                .extend_from_slice(b"half an answer, then a failure");
            response.clear_body().extend_from_slice(body);
            let mut wire = Vec::new();
            let written = response
                .send(&mut wire, status, reason, content_type, keep_alive)
                .unwrap();
            assert_eq!(written, wire.len());
            assert_eq!(
                wire,
                response_bytes(status, reason, content_type, body, keep_alive)
            );
        }
    }

    #[test]
    fn a_large_response_does_not_stay_with_the_connection() {
        let mut response = ResponseBuf::default();
        let mut sink = std::io::sink();
        // A large batch ...
        response
            .begin()
            .resize(HEAD_ROOM + 3 * RETAINED_CAPACITY, b'7');
        let written = response
            .send(&mut sink, 200, "OK", "application/json", true)
            .unwrap();
        assert!(written > 3 * RETAINED_CAPACITY);
        assert!(response.buf.capacity() <= RETAINED_CAPACITY);
        // ... followed by a small query on the same connection.
        response.begin().extend_from_slice(b"{\"seed\":1}");
        assert!(response.buf.capacity() <= RETAINED_CAPACITY);
        let mut wire = Vec::new();
        response
            .send(&mut wire, 200, "OK", "application/json", true)
            .unwrap();
        assert!(wire.ends_with(b"\r\n\r\n{\"seed\":1}"));
        // An ordinary answer's capacity is kept for the next one.
        response.begin().resize(HEAD_ROOM + (600 << 10), b'7');
        response
            .send(&mut sink, 200, "OK", "application/json", true)
            .unwrap();
        assert!(response.buf.capacity() >= 600 << 10);
    }
}
