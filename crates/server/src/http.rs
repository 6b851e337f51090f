//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! Implements exactly what the job API needs — request-line + header
//! parsing, `Content-Length` bodies, and JSON responses with
//! `Connection: close` — with hard limits on line length, header count,
//! and body size bounding each connection's memory; the server's accept
//! loop additionally caps how many connections are live at once.

use crate::json::Json;
use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body (uploaded edge lists), in bytes.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one `\r\n`- (or `\n`-) terminated line, enforcing [`MAX_LINE`].
fn read_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(bad("connection closed mid-line"))
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let line = String::from_utf8(buf)
                        .map_err(|_| bad("request line is not valid UTF-8"))?;
                    return Ok(Some(line));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(bad("request line too long"));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads and parses one request from `reader`.
///
/// Returns `Ok(None)` when the connection closed cleanly before a request
/// started.
///
/// # Errors
///
/// `InvalidData` for malformed requests (the caller answers 400);
/// transport errors pass through unchanged.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad(format!("malformed request line {request_line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol {version:?}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or_else(|| bad("connection closed inside headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        if headers.len() > MAX_HEADERS {
            return Err(bad("too many headers"));
        }
    }

    let mut request = Request {
        method: method.to_ascii_uppercase(),
        path,
        headers,
        body: Vec::new(),
    };
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| bad(format!("invalid Content-Length {len:?}")))?;
        if len > MAX_BODY {
            return Err(bad(format!("body of {len} bytes exceeds limit {MAX_BODY}")));
        }
        // Grow with the bytes actually received rather than trusting the
        // declared length up front — a client announcing 8 MB and sending
        // nothing holds a socket, not an 8 MB allocation.
        let mut body = Vec::with_capacity(len.min(64 * 1024));
        let mut limited = io::Read::take(&mut *reader, len as u64);
        io::Read::read_to_end(&mut limited, &mut body)?;
        if body.len() != len {
            return Err(bad(format!(
                "connection closed mid-body ({} of {len} bytes)",
                body.len()
            )));
        }
        request.body = body;
    }
    Ok(Some(request))
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a JSON response with `Connection: close`.
pub fn write_response<W: Write>(writer: &mut W, status: u16, body: &Json) -> io::Result<()> {
    write_text_response(writer, status, "application/json", &body.to_string())
}

/// The `Retry-After` value (seconds) sent with every 503. Short on
/// purpose: the conditions behind a 503 (queue full, connection cap)
/// clear as soon as one job or connection finishes.
pub const RETRY_AFTER_SECS: u32 = 1;

/// Writes a response with an explicit content type (the Prometheus
/// `/metrics` exposition is plain text, not JSON). Every 503 — queue
/// full, connection cap, batch overflow — carries a `Retry-After`
/// header, added here so no rejection path can forget it.
///
/// The head is formatted into one buffer first, so an unbuffered
/// socket sees two writes per response (head, payload) rather than one
/// per formatted piece.
pub fn write_text_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    payload: &str,
) -> io::Result<()> {
    let retry_after = if status == 503 {
        format!("Retry-After: {RETRY_AFTER_SECS}\r\n")
    } else {
        String::new()
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry_after}Connection: close\r\n\r\n",
        reason(status),
        payload.len(),
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

/// Shorthand for the `{"error": msg}` body every failure response uses.
pub fn error_body(msg: impl Into<String>) -> Json {
    Json::Obj(vec![("error".to_owned(), Json::str(msg))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_request_with_body_and_query() {
        let req =
            parse("POST /jobs?debug=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn bare_lf_lines_and_missing_body_are_accepted() {
        let req = parse("GET /healthz HTTP/1.0\nAccept: */*\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_yields_none_and_garbage_yields_invalid_data() {
        assert!(parse("").unwrap().is_none());
        for raw in [
            "NOT-HTTP\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
        let oversized = format!(
            "GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(
            parse(&oversized).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn every_503_carries_retry_after_and_nothing_else_does() {
        let mut out = Vec::new();
        write_response(&mut out, 503, &error_body("full")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n")),
            "{text}"
        );
        for status in [200, 201, 400, 404, 409] {
            let mut out = Vec::new();
            write_response(&mut out, status, &error_body("x")).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(!text.contains("Retry-After"), "{status}: {text}");
        }
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_at_most_two_writes_with_unchanged_bytes() {
        let cases = [
            (
                200,
                r#"{"ok":true}"#,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 11\r\nConnection: close\r\n\r\n{\"ok\":true}",
            ),
            (
                503,
                r#"{"error":"full"}"#,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 16\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
                 {\"error\":\"full\"}",
            ),
        ];
        for (status, payload, expected) in cases {
            let mut out = CountingWriter::default();
            write_text_response(&mut out, status, "application/json", payload).unwrap();
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
            assert!(out.writes <= 2, "{status}: {} writes", out.writes);
        }
    }

    #[test]
    fn response_is_well_formed_http() {
        let mut out = Vec::new();
        write_response(&mut out, 201, &error_body("nope")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"nope\"}"));
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, "{\"error\":\"nope\"}".len());
    }
}
