//! Minimal HTTP/1.1 wire layer: incremental request parser and response
//! writer.
//!
//! Implements exactly the subset the prediction server needs — no chunked
//! transfer encoding, no multipart, no TLS. Requests are framed by
//! `Content-Length`; both the head and the body are size-capped so a
//! misbehaving client cannot grow server memory, and "malformed" (400),
//! "body too large" (413) and "head too large" (431) are kept apart so
//! the server can answer each correctly.

use std::io::{self, Write};

/// Hard cap on the request head (request line + headers) in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on request bodies in bytes (overridable per server).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The value of one `key=value` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ReadError {
    /// The request was syntactically invalid (maps to `400`).
    BadRequest(String),
    /// The declared body length exceeded the server's cap (maps to `413`).
    BodyTooLarge(usize),
    /// The head grew past [`MAX_HEAD_BYTES`] (maps to `431`).
    HeadTooLarge,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::BadRequest(m) => write!(f, "bad request: {m}"),
            ReadError::BodyTooLarge(n) => write!(f, "request body of {n} bytes exceeds the cap"),
            ReadError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
        }
    }
}

/// Outcome of one incremental parse attempt over a byte buffer.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request; the first `consumed` buffer bytes belong to it
    /// (the rest is the next pipelined request's prefix).
    Complete {
        /// The parsed request.
        req: Request,
        /// Bytes of the buffer consumed by this request (head + body).
        consumed: usize,
    },
    /// The buffer does not yet hold a complete request; read more bytes
    /// and try again.
    Partial,
}

/// Attempts to parse one request from the front of `buf` without
/// consuming it.
///
/// The event loop calls it on each connection's input buffer as bytes
/// arrive; `Partial` means "read more and try again".
///
/// # Errors
///
/// A syntactically invalid head is [`ReadError::BadRequest`], a
/// declared body beyond `max_body` is [`ReadError::BodyTooLarge`]
/// (detected from the header alone, before the body arrives), and a head
/// growing past [`MAX_HEAD_BYTES`] is [`ReadError::HeadTooLarge`].
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Parsed, ReadError> {
    // Locate the blank line ending the head.
    let head_end = match find_subslice(buf, b"\r\n\r\n") {
        Some(pos) => {
            if pos > MAX_HEAD_BYTES {
                return Err(ReadError::HeadTooLarge);
            }
            pos
        }
        None => {
            if buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::HeadTooLarge);
            }
            return Ok(Parsed::Partial);
        }
    };

    let (method, target, headers, version_11) = {
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| ReadError::BadRequest("head is not valid UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => {
                    return Err(ReadError::BadRequest(format!(
                        "malformed request line `{request_line}`"
                    )))
                }
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ReadError::BadRequest(format!(
                "unsupported version `{version}`"
            )));
        }

        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::BadRequest(format!("malformed header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        (
            method.to_ascii_uppercase(),
            target.to_string(),
            headers,
            version == "HTTP/1.1",
        )
    };

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version_11,
    };

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest(format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge(content_length));
    }

    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(Parsed::Partial);
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    Ok(Parsed::Complete {
        req: Request {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
        },
        consumed: body_start + content_length,
    })
}

/// Whether `buf` holds a complete request head (the `\r\n\r\n`
/// terminator) — used to phrase truncation errors precisely.
pub(crate) fn head_complete(buf: &[u8]) -> bool {
    find_subslice(buf, b"\r\n\r\n").is_some()
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// An HTTP response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether to advertise `Connection: close`.
    pub close: bool,
    /// Request id echoed as `x-archdse-request-id` (0 = omit the
    /// header). Assigned by the session worker from the id the reactor
    /// attached at dispatch; handlers never set it themselves.
    pub request_id: u64,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            request_id: 0,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            content_type: "text/plain; charset=utf-8",
            close: false,
            request_id: 0,
        }
    }

    /// A JSON error envelope `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        dse_util::json::Json::Str(message.to_string()).write(&mut body);
        body.push('}');
        Self::json(status, body)
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialises `resp` onto `stream`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if resp.close {
        head.push_str("connection: close\r\n");
    }
    if resp.request_id != 0 {
        head.push_str(&format!("x-archdse-request-id: {}\r\n", resp.request_id));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one complete request from the front of `text`.
    fn parse(text: &str) -> Result<Request, ReadError> {
        match try_parse(text.as_bytes(), DEFAULT_MAX_BODY_BYTES)? {
            Parsed::Complete { req, .. } => Ok(req),
            Parsed::Partial => panic!("{text:?} should be complete"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r =
            parse("GET /v1/configs?limit=32&metric=cycles HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/configs");
        assert_eq!(r.query_param("limit"), Some("32"));
        assert_eq!(r.query_param("metric"), Some("cycles"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse("POST /v1/predict HTTP/1.1\r\ncontent-length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.body, b"{\"a\":1}");
        assert_eq!(r.header("Content-Length"), Some("7"));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let r = parse("GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r10.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_request_line_is_bad_request() {
        for bad in ["GARBAGE\r\n\r\n", "GET /\r\n\r\n", "GET / HTTP/2.0\r\n\r\n"] {
            match parse(bad) {
                Err(ReadError::BadRequest(_)) => {}
                other => panic!("{bad:?} should be BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let text = "POST / HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n";
        match try_parse(text.as_bytes(), 1024) {
            Err(ReadError::BodyTooLarge(n)) => assert_eq!(n, 999_999_999),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_head_is_rejected() {
        let text = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES + 1));
        match parse(&text) {
            Err(ReadError::HeadTooLarge) => {}
            other => panic!("expected HeadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_unterminated_buffers_are_partial() {
        for text in [
            "",
            "GET / HTTP/1.1\r\n",
            "POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\nhi",
        ] {
            match try_parse(text.as_bytes(), DEFAULT_MAX_BODY_BYTES) {
                Ok(Parsed::Partial) => {}
                other => panic!("{text:?} should be Partial, got {other:?}"),
            }
        }
    }

    #[test]
    fn pipelined_requests_parse_from_the_remainder() {
        let text = b"POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let Ok(Parsed::Complete { req, consumed }) = try_parse(text, 1024) else {
            panic!("first request should be complete");
        };
        assert_eq!(req.path, "/a");
        assert_eq!(req.body, b"hi");
        assert_eq!(consumed, text.len() - "GET /b HTTP/1.1\r\n\r\n".len());
        let Ok(Parsed::Complete { req, consumed }) = try_parse(&text[consumed..], 1024) else {
            panic!("second request should be complete");
        };
        assert_eq!(req.path, "/b");
        assert_eq!(consumed, "GET /b HTTP/1.1\r\n\r\n".len());
    }

    #[test]
    fn response_writes_status_and_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::error(404, "no such route")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-length: 25"));
        assert!(text.ends_with("{\"error\":\"no such route\"}"));
        assert!(
            !text.contains("x-archdse-request-id"),
            "id 0 must omit the header"
        );
    }

    #[test]
    fn response_echoes_request_id_header() {
        let mut out = Vec::new();
        let resp = Response {
            request_id: 42,
            ..Response::json(200, "{}".to_string())
        };
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-archdse-request-id: 42\r\n"), "{text}");
    }
}
