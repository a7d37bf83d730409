//! A miniature blocking HTTP/1.1 client for the serve API: enough for
//! the tests, the traffic generator, and `examples/serve_client.rs` to
//! talk to the daemon without external dependencies. One request per
//! connection (`Connection: close`), with chunked-response decoding for
//! the JSONL event stream.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A decoded response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Lower-cased header name -> value.
    pub headers: HashMap<String, String>,
    /// Body, chunked-decoded when the response was chunked.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// A response header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

/// Issues one request and reads the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let body_bytes = body.unwrap_or("").as_bytes();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body_bytes.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body_bytes)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// `POST` with a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, Some(body))
}

/// Plain `GET`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, None)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head not utf-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    let payload = &raw[head_end + 4..];
    let body = if headers
        .get("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        decode_chunked(payload)?
    } else {
        payload.to_vec()
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

fn decode_chunked(mut data: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line_end = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| bad("truncated chunk size line"))?;
        let size_str =
            std::str::from_utf8(&data[..line_end]).map_err(|_| bad("chunk size not utf-8"))?;
        let size =
            usize::from_str_radix(size_str.trim(), 16).map_err(|_| bad("chunk size not hex"))?;
        data = &data[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if data.len() < size + 2 {
            return Err(bad("truncated chunk payload"));
        }
        out.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_decoding_reassembles_lines() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n7\r\n world\n\r\n0\r\n\r\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "hello world\n");
    }

    #[test]
    fn fixed_length_body_passes_through() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 404);
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert_eq!(r.text(), "{}");
    }
}
