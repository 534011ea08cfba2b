//! Minimal hand-rolled HTTP/1.1 framing.
//!
//! The workspace has no crates.io access, so the server speaks just enough
//! HTTP/1.1 over `std::net` for curl, browsers and Prometheus scrapers:
//! request-line + headers + `Content-Length` bodies, keep-alive by default,
//! no chunked transfer, no TLS. [`read_request`] and [`read_response`] parse
//! the two directions (server and load-generator side respectively);
//! [`Response`] renders the wire bytes. See DESIGN.md §14 for why this is
//! deliberate rather than a missing dependency.

use std::io::{self, BufRead, Write};

/// Upper bound on a single header line (request line included).
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of headers per message.
const MAX_HEADERS: usize = 64;

/// Why a message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket error — including read timeouts (`WouldBlock`/`TimedOut`
    /// from `set_read_timeout`). The connection is unusable.
    Io(io::Error),
    /// Syntactically invalid message; the peer should see 400.
    Malformed(String),
    /// Declared body exceeds the configured limit; the peer should see 413.
    BodyTooLarge(usize),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed message: {m}"),
            HttpError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes too large"),
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token.
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub keep_alive: bool,
}

/// A parsed response (load-generator / test client side).
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8, lossily.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one CRLF- (or LF-) terminated line without the terminator.
fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Malformed("truncated line".into()))
            };
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        if newline.is_some() {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            let s = String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))?;
            return Ok(Some(s));
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::Malformed("header line too long".into()));
        }
    }
}

/// Shared header-section reader: returns `(content_length, connection)`.
fn read_headers<R: BufRead>(
    r: &mut R,
    mut on_header: impl FnMut(&str, &str),
) -> Result<usize, HttpError> {
    let mut content_length = 0usize;
    for count in 0.. {
        if count > MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let line = read_line(r)?.ok_or(HttpError::Malformed("eof inside headers".into()))?;
        if line.is_empty() {
            return Ok(content_length);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header without colon: {line:?}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
        }
        on_header(&name, value);
    }
    unreachable!("loop returns or errors");
}

fn read_body<R: BufRead>(r: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    io::Read::read_exact(r, &mut body)?;
    Ok(body)
}

/// Reads one request off the connection. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive teardown).
///
/// # Errors
///
/// [`HttpError::Io`] for socket problems (including read timeouts),
/// [`HttpError::Malformed`] for bad syntax, [`HttpError::BodyTooLarge`]
/// when the declared body exceeds `max_body`.
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<Option<Request>, HttpError> {
    let Some(start) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(HttpError::Malformed(format!("bad request line {start:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let content_length = read_headers(r, |name, value| {
        if name == "connection" {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    })?;
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let body = read_body(r, content_length)?;
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
        keep_alive,
    }))
}

/// Reads one response off the connection (client side).
///
/// # Errors
///
/// Same failure modes as [`read_request`]; responses have no body limit
/// (the client trusts its own server).
pub fn read_response<R: BufRead>(r: &mut R) -> Result<ClientResponse, HttpError> {
    let start = read_line(r)?.ok_or(HttpError::Malformed("eof before status line".into()))?;
    let mut parts = start.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad status code in {start:?}")))?,
        _ => return Err(HttpError::Malformed(format!("bad status line {start:?}"))),
    };
    let mut headers = Vec::new();
    let content_length = read_headers(r, |name, value| {
        headers.push((name.to_string(), value.to_string()));
    })?;
    let body = read_body(r, content_length)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// An outgoing response.
#[derive(Debug)]
pub struct Response {
    /// Status code; the reason phrase is derived from it.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `x-hymm-cache`), written verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// An error response carrying a one-line JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: format!("{{\"error\": \"{}\"}}\n", hymm_bench::json::esc(message)).into_bytes(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the full wire form. `keep_alive` controls the `Connection`
    /// header; the server closes the socket after a `close`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_with_body() {
        let wire = "POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut Cursor::new(wire), 1024).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let wire = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(
            !read_request(&mut Cursor::new(wire), 0)
                .unwrap()
                .unwrap()
                .keep_alive
        );
        let wire = "GET / HTTP/1.0\r\n\r\n";
        assert!(
            !read_request(&mut Cursor::new(wire), 0)
                .unwrap()
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn eof_between_requests_is_none() {
        assert!(read_request(&mut Cursor::new(""), 0).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        for wire in [
            "GARBAGE\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert!(
                matches!(
                    read_request(&mut Cursor::new(wire), 16),
                    Err(HttpError::Malformed(_))
                ),
                "accepted {wire:?}"
            );
        }
        let wire = "POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        assert!(matches!(
            read_request(&mut Cursor::new(wire), 16),
            Err(HttpError::BodyTooLarge(999))
        ));
    }

    #[test]
    fn response_round_trips_through_client_reader() {
        let mut resp = Response::json("{\"ok\": true}".into());
        resp.extra_headers
            .push(("x-hymm-cache".into(), "hit".into()));
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let parsed = read_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("x-hymm-cache"), Some("hit"));
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
        assert_eq!(parsed.text(), "{\"ok\": true}");
    }

    #[test]
    fn error_response_body_is_json() {
        let resp = Response::error(400, "bad \"thing\"");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body, "{\"error\": \"bad \\\"thing\\\"\"}\n");
    }
}
