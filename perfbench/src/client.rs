//! The benchmark's own closed-loop HTTP/1.1 client: one keep-alive
//! connection, one request in flight.
//!
//! Each operation is timed from its **first** send attempt, so the
//! wait a shed (`503`) imposes is part of its latency. Reads are
//! retried after a shed or a broken connection; a write is retried
//! only when the server cannot have applied it (a shed, or a refused
//! connection), so no batch is ever applied twice.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Attempts per operation before it is abandoned.
const MAX_ATTEMPTS: u32 = 50;
const BACKOFF: Duration = Duration::from_millis(2);
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// How one operation ended.
pub struct Outcome {
    pub started: Instant,
    pub finished: Instant,
    /// `None` when the operation was abandoned.
    pub reply: Option<Reply>,
    /// Attempts answered `503` or refused at connect.
    pub shed_retries: u32,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        (self.finished - self.started).as_secs_f64() * 1e3
    }

    pub fn ok(&self) -> bool {
        self.reply.as_ref().is_some_and(|r| (200..300).contains(&r.status))
    }
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
}

enum Failure {
    /// Nothing reached the server (connect refused).
    NotSent,
    /// The request may have reached the server.
    MaybeSent,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None, buf: Vec::with_capacity(16 * 1024) }
    }

    /// Runs one operation to completion (or abandonment).
    pub fn execute(&mut self, method: &str, target: &str, body: &[u8]) -> Outcome {
        let idempotent = method == "GET";
        let started = Instant::now();
        let mut shed_retries = 0;
        let mut reply = None;
        for _ in 0..MAX_ATTEMPTS {
            match self.exchange(method, target, body) {
                Ok(r) if r.status == 503 => {
                    shed_retries += 1;
                    self.conn = None;
                }
                Ok(r) => {
                    reply = Some(r);
                    break;
                }
                Err(Failure::NotSent) => shed_retries += 1,
                Err(Failure::MaybeSent) if idempotent => {}
                Err(Failure::MaybeSent) => break,
            }
            std::thread::sleep(BACKOFF);
        }
        Outcome { started, finished: Instant::now(), reply, shed_retries }
    }

    fn connect(&mut self) -> Result<(), Failure> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|_| Failure::NotSent)?;
            s.set_nodelay(true).map_err(|_| Failure::NotSent)?;
            s.set_read_timeout(Some(READ_TIMEOUT)).map_err(|_| Failure::NotSent)?;
            self.conn = Some(s);
        }
        Ok(())
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Reply, Failure> {
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        self.connect()?;
        let Client { conn, buf, .. } = self;
        let stream = conn.as_mut().ok_or(Failure::NotSent)?;
        let result = stream.write_all(&wire).and_then(|()| read_reply(stream, buf));
        match result {
            Ok((reply, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(reply)
            }
            Err(_) => {
                self.conn = None;
                Err(Failure::MaybeSent)
            }
        }
    }
}

/// Reads one `Content-Length` response; returns it and whether the
/// connection stays open.
fn read_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(Reply, bool)> {
    buf.clear();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
    Ok((Reply { status, body }, keep_alive))
}
