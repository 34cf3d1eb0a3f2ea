//! A small blocking HTTP/1.1 client for the prediction server.
//!
//! Used by the integration tests, the CI smoke stage and `bench_load`;
//! also the implementation behind `archdse client`. Keeps one keep-alive
//! connection and reconnects transparently once when the server closed it
//! (e.g. after an error response or a drain).

use dse_sim::Metric;
use dse_space::Config;
use dse_util::json::{FromJson, Json, ToJson};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, send or receive).
    Io(std::io::Error),
    /// The server's response could not be parsed.
    Protocol(String),
    /// The server answered with a non-2xx status.
    Status(u16, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Status(code, body) => write!(f, "server answered {code}: {body}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn text(&self) -> Result<&str, ClientError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ClientError::Protocol("body is not valid UTF-8".to_string()))
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, ClientError> {
        Json::parse(self.text()?).map_err(|e| ClientError::Protocol(format!("body: {e}")))
    }
}

/// A blocking keep-alive client bound to one server address.
pub struct Client {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (`host:port`) with a 10 s socket timeout.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            timeout: Duration::from_secs(10),
            stream: None,
        }
    }

    /// Overrides the socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn connect(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            // Head and body go out in separate writes; without NODELAY,
            // Nagle holds the body until the head is ACKed (~40ms/request
            // on loopback with delayed ACKs).
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().unwrap())
    }

    /// Sends one request, reusing the kept-alive connection; retries once
    /// on a fresh connection if the reused one turned out dead.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let reused = self.stream.is_some();
        match self.request_once(method, path, body) {
            Ok(resp) => Ok(resp),
            Err(ClientError::Io(_)) if reused => {
                self.stream = None;
                self.request_once(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let addr = self.addr.clone();
        let stream = self.connect()?;
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
            payload.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(payload.as_bytes())?;
        stream.flush()?;
        let resp = read_response(stream)?;
        if resp.header("connection") == Some("close") {
            self.stream = None;
        }
        Ok(resp)
    }

    /// `GET path`, any status.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body, any status.
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse, ClientError> {
        self.request("POST", path, Some(body))
    }

    /// Like [`Client::post`] but turns non-2xx statuses into
    /// [`ClientError::Status`] and parses the body as JSON.
    pub fn post_ok(&mut self, path: &str, body: &str) -> Result<Json, ClientError> {
        let resp = self.post(path, body)?;
        if !(200..300).contains(&resp.status) {
            return Err(ClientError::Status(
                resp.status,
                resp.text().unwrap_or("<binary>").to_string(),
            ));
        }
        resp.json()
    }

    /// `GET /healthz`, parsed.
    pub fn healthz(&mut self) -> Result<Json, ClientError> {
        let resp = self.get("/healthz")?;
        if resp.status != 200 {
            return Err(ClientError::Status(
                resp.status,
                resp.text().unwrap_or("<binary>").to_string(),
            ));
        }
        resp.json()
    }

    /// `POST /v1/predict`; returns `(value, served from cache)`.
    pub fn predict(
        &mut self,
        program: &str,
        metric: Metric,
        config: &Config,
    ) -> Result<(f64, bool), ClientError> {
        let body = Json::obj([
            ("program", program.to_json()),
            ("metric", metric.to_json()),
            ("config", config.to_json()),
        ]);
        let out = self.post_ok("/v1/predict", &dse_util::json::to_string(&body))?;
        let value = out
            .field("value")
            .and_then(f64::from_json)
            .map_err(|e| ClientError::Protocol(format!("value: {e}")))?;
        let cached = out
            .field("cached")
            .and_then(bool::from_json)
            .map_err(|e| ClientError::Protocol(format!("cached: {e}")))?;
        Ok((value, cached))
    }

    /// `POST /v1/predict_batch`; returns the values in request order.
    pub fn predict_batch(
        &mut self,
        program: &str,
        metric: Metric,
        configs: &[Config],
    ) -> Result<Vec<f64>, ClientError> {
        let body = Json::obj([
            ("program", program.to_json()),
            ("metric", metric.to_json()),
            ("configs", configs.to_vec().to_json()),
        ]);
        let out = self.post_ok("/v1/predict_batch", &dse_util::json::to_string(&body))?;
        out.field("values")
            .and_then(Vec::<f64>::from_json)
            .map_err(|e| ClientError::Protocol(format!("values: {e}")))
    }

    /// `POST /v1/fit` from `(response index, simulated value)` pairs;
    /// returns the fit summary.
    pub fn fit(
        &mut self,
        program: &str,
        metric: Metric,
        responses: &[(usize, f64)],
    ) -> Result<Json, ClientError> {
        let entries: Vec<Json> = responses
            .iter()
            .map(|&(index, value)| {
                Json::obj([("index", index.to_json()), ("value", value.to_json())])
            })
            .collect();
        let body = Json::obj([
            ("program", program.to_json()),
            ("metric", metric.to_json()),
            ("responses", Json::Arr(entries)),
        ]);
        self.post_ok("/v1/fit", &dse_util::json::to_string(&body))
    }

    /// `POST /v1/shutdown` — asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.post_ok("/v1/shutdown", "{}")
    }
}

/// Reads one HTTP/1.1 response (Content-Length framed).
fn read_response(stream: &mut TcpStream) -> Result<ClientResponse, ClientError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-response".to_string(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ClientError::Protocol("head is not valid UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line `{status_line}`")))?;
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ClientError::Protocol(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-body".to_string(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}
