//! A minimal HTTP/1.1 server — just enough protocol for the espserve
//! v1 API, written against the standard library only (the build
//! environment is offline, so no hyper/axum).
//!
//! Scope: request line + headers + `Content-Length` bodies, one
//! request per connection (`Connection: close` on every response),
//! bounded header and body sizes. No chunked encoding, no TLS, no
//! keep-alive — espserve is a lab-bench service, not an edge proxy.

use crate::log::{Logger, RateLimited};
use serde_json::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw query string after `?` (empty when absent), undecoded.
    pub query: String,
    /// `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: String,
}

impl HttpRequest {
    /// The first header with `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    /// The first `name=value` query parameter, if any. Values are
    /// returned as-is (the v1 API only uses numeric parameters, so no
    /// percent-decoding is needed).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: String,
    /// The body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json".to_string(),
            body,
        }
    }

    /// A plain-text response (newline appended if missing).
    pub fn text(status: u16, body: &str) -> HttpResponse {
        let body = if body.ends_with('\n') {
            body.to_string()
        } else {
            format!("{body}\n")
        };
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            _ => "Internal Server Error",
        }
    }

    /// Serializes the response onto `out`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to(&self, out: &mut dyn Write) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

/// Reads one `\n`-terminated head line, spending its bytes from
/// `budget` (what is left of [`MAX_HEAD_BYTES`]). The read itself is
/// capped at the budget, so a peer that never sends a newline costs at
/// most the head allowance, not unbounded memory.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, String> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(*budget as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("read request head: {e}"))?;
    if line.len() == *budget && !line.ends_with(b"\n") {
        return Err("request head too large".to_string());
    }
    *budget -= line.len();
    String::from_utf8(line).map_err(|_| "request head is not UTF-8".to_string())
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// A printable message on malformed or oversized requests.
pub fn read_request(stream: &mut dyn Read) -> Result<HttpRequest, String> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| "request line missing path".to_string())?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    loop {
        let hline = read_head_line(&mut reader, &mut budget)?;
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|e| format!("bad content-length: {e}")))
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err("request body too large".to_string());
    }
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(HttpRequest {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn handle_connection(mut stream: TcpStream, handler: &dyn Fn(HttpRequest) -> HttpResponse) {
    let response = match read_request(&mut stream) {
        Ok(request) => handler(request),
        Err(msg) => HttpResponse::text(400, &msg),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Accept loop: one thread per connection, forever. The handler must
/// be `Sync` because connections are served concurrently.
///
/// Accept failures are logged through `logger`, rate-limited by error
/// kind ([`RateLimited`]'s power-of-two policy) — a wedged socket (FD
/// exhaustion, say) fails thousands of times a second and must not
/// turn the log into a firehose of identical lines.
pub fn serve<H>(listener: TcpListener, handler: H, logger: Logger) -> !
where
    H: Fn(HttpRequest) -> HttpResponse + Send + Sync + 'static,
{
    let handler = std::sync::Arc::new(handler);
    let accept_errors = RateLimited::new();
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let handler = std::sync::Arc::clone(&handler);
                std::thread::spawn(move || handle_connection(stream, &*handler));
            }
            Err(e) => {
                let key = format!("{:?}", e.kind());
                if let Some(suppressed) = accept_errors.check(&key) {
                    logger.error(
                        "http.accept_failed",
                        &[
                            ("error", json!(e.to_string())),
                            ("suppressed", json!(suppressed)),
                            ("total", json!(accept_errors.count(&key))),
                        ],
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /v1/jobs?trace=1 HTTP/1.1\r\nHost: x\r\nX-Api-Key: alice\r\n\
                   Content-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut raw.as_bytes()).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs", "query string split off the path");
        assert_eq!(req.query, "trace=1");
        assert_eq!(req.query_param("trace"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("x-api-key"), Some("alice"));
        assert_eq!(req.header("X-API-KEY"), Some("alice"));
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let raw = "GET /v1/healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut raw.as_bytes()).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_short_bodies_and_oversize_claims() {
        let raw = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert!(read_request(&mut raw.as_bytes()).is_err());
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_request(&mut raw.as_bytes()).expect_err("too large");
        assert!(err.contains("too large"));
    }

    /// Counts the bytes a parser pulls from the underlying stream.
    struct Counting<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn newline_less_stream_is_rejected_within_the_head_budget() {
        let mut stream = Counting {
            inner: std::io::repeat(b'a').take(1 << 20),
            consumed: 0,
        };
        let err = read_request(&mut stream).expect_err("no newline in 1 MiB");
        assert!(err.contains("too large"), "{err}");
        // The head allowance plus at most one read-ahead buffer, not the
        // whole MiB.
        assert!(
            stream.consumed <= MAX_HEAD_BYTES + 8 * 1024,
            "{}",
            stream.consumed
        );
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let err = read_request(&mut raw.as_bytes()).expect_err("too large");
        assert!(err.contains("too large"), "{err}");
        // The same head split across header lines trips the same budget.
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(read_request(&mut raw.as_bytes()).is_err());
    }

    #[test]
    fn responses_serialize_with_content_length() {
        let mut out = Vec::new();
        HttpResponse::json(201, "{\"ok\":true}".to_string())
            .write_to(&mut out)
            .expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
