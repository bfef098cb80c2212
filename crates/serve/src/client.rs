//! A small blocking client for the campaign service.
//!
//! Used by `xbar serve drive`/`stats`, the benchmark in `perfbench/`,
//! and the integration tests; real attack tooling can speak the NDJSON protocol
//! directly (see [`crate::protocol`]).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use xbar_core::oracle::QueryRecord;

use crate::protocol::{codes, Request, Response, SessionStatus};
use crate::{Result, ServeError};

/// A blocking NDJSON client: one request in flight at a time.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// How long to keep retrying [`codes::BUSY`] backpressure responses
    /// before giving up.
    busy_patience: Duration,
}

impl Client {
    /// Connects to `addr` (anything implementing `ToSocketAddrs`, e.g.
    /// `"127.0.0.1:7878"`).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            busy_patience: Duration::from_secs(30),
        })
    }

    /// Builder-style setter for the backpressure retry patience.
    #[must_use]
    pub fn with_busy_patience(mut self, patience: Duration) -> Self {
        self.busy_patience = patience;
        self
    }

    /// Sends one raw request and reads its response line.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        let mut line = serde_json::to_string(request)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ServeError::Protocol("server closed the connection".into()));
        }
        Ok(serde_json::from_str(reply.trim())?)
    }

    fn expect_ok(response: Response) -> Result<Response> {
        if response.ok {
            Ok(response)
        } else {
            Err(ServeError::Rejected {
                code: response.code.unwrap_or_else(|| "unknown".into()),
                message: response.error.unwrap_or_default(),
            })
        }
    }

    /// Opens (or resumes) a session and returns its authoritative
    /// status — on resume, `status.used` is where the query index
    /// continues.
    pub fn hello(
        &mut self,
        session: &str,
        victim: Option<&str>,
        seed: Option<u64>,
        budget: Option<u64>,
    ) -> Result<SessionStatus> {
        let mut request = Request::new("hello");
        request.session = Some(session.to_string());
        request.victim = victim.map(str::to_string);
        request.seed = seed;
        request.budget = budget;
        let response = Self::expect_ok(self.request(&request)?)?;
        response
            .status
            .ok_or_else(|| ServeError::Protocol("hello response missing status".into()))
    }

    /// Issues a batch of queries, transparently retrying backpressure
    /// ([`codes::BUSY`]) until `busy_patience` runs out. Returns the
    /// records in input order, indices continuing the session's stream.
    pub fn query(&mut self, session: &str, inputs: &[Vec<f64>]) -> Result<Vec<QueryRecord>> {
        let mut request = Request::new("query");
        request.session = Some(session.to_string());
        request.inputs = Some(inputs.to_vec());
        let deadline = std::time::Instant::now() + self.busy_patience;
        loop {
            let response = self.request(&request)?;
            if response.ok {
                return response
                    .records
                    .ok_or_else(|| ServeError::Protocol("query response missing records".into()));
            }
            let code = response.code.as_deref().unwrap_or("unknown");
            if code == codes::BUSY && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            return Err(ServeError::Rejected {
                code: code.to_string(),
                message: response.error.unwrap_or_default(),
            });
        }
    }

    /// Detaches the session, leaving it resumable.
    pub fn close(&mut self, session: &str) -> Result<SessionStatus> {
        let mut request = Request::new("close");
        request.session = Some(session.to_string());
        let response = Self::expect_ok(self.request(&request)?)?;
        response
            .status
            .ok_or_else(|| ServeError::Protocol("close response missing status".into()))
    }

    /// Scrapes the live metrics plane as a JSON snapshot. Read-only:
    /// consumes no budget and is answered even while the server drains
    /// or its session table is full.
    pub fn stats(&mut self) -> Result<serde::Value> {
        let response = Self::expect_ok(self.request(&Request::new("stats"))?)?;
        response
            .stats
            .ok_or_else(|| ServeError::Protocol("stats response missing stats".into()))
    }

    /// Scrapes the live metrics plane in Prometheus text exposition
    /// format.
    pub fn stats_prometheus(&mut self) -> Result<String> {
        let mut request = Request::new("stats");
        request.format = Some("prom".to_string());
        let response = Self::expect_ok(self.request(&request)?)?;
        response
            .text
            .ok_or_else(|| ServeError::Protocol("stats response missing text".into()))
    }

    /// Asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<()> {
        Self::expect_ok(self.request(&Request::new("shutdown"))?)?;
        Ok(())
    }
}
