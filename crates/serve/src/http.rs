//! A minimal HTTP/1.1 server-side codec over [`std::net::TcpStream`].
//!
//! Just enough protocol for the serve API: request-line + headers +
//! `Content-Length` bodies on the way in; fixed-length responses or
//! `Transfer-Encoding: chunked` (for the JSONL event stream) on the way
//! out. Every connection is `Connection: close` — one request per
//! connection keeps the state machine trivial and the daemon's
//! concurrency model "thread per in-flight request", which is exactly
//! the admission queue's unit of accounting anyway.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;

use heterog_telemetry::json_object;

/// Upper bound on request head (request line + headers) bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on request body bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request. Header names are lower-cased; query values are
/// percent-decoded *not at all* (the API uses only simple tokens).
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without the query string, e.g. `/v1/plan`.
    pub path: String,
    /// Query parameters, e.g. `?wait=1`.
    pub query: HashMap<String, String>,
    /// Lower-cased header name -> value.
    pub headers: HashMap<String, String>,
    /// Raw body bytes (`Content-Length`-delimited).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed: a 400 when malformed, a 413 when
/// too large, no answer on a socket error.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed mid-request (timeout, reset).
    Io(std::io::Error),
    /// Malformed request line, headers or body framing, including a
    /// connection closed before the head or body was complete.
    Malformed(&'static str),
    /// Head or body over the fixed caps.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
        }
    }
}

/// Reads and parses one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not utf-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), HashMap::new()),
    };
    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    let content_length: usize = headers
        .get("content-length")
        .map(|v| {
            v.parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_query(q: &str) -> HashMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), "1".to_string()),
        })
        .collect()
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response and flushes. Extra headers
/// go out verbatim after the standard set.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response in progress: one chunk per
/// [`chunk`](ChunkedWriter::chunk) call, closed by
/// [`end`](ChunkedWriter::end). Used for the JSONL event stream, where
/// each event line is flushed as it lands so a client following a live
/// job sees progress, not a final dump.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked stream.
    pub fn end(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Convenience: a `{"error": ...}` body.
pub fn error_body(msg: &str) -> String {
    json_object! { "error" => msg }.to_string()
}
