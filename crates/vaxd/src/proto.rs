//! The `vaxd` wire protocol: line-delimited text over TCP.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! RUN <tenant> <base> <budget> <payload-hex>
//! PING
//! SHUTDOWN
//! ```
//!
//! `budget` is a decimal cycle budget (`0` asks for the tenant's cap);
//! `payload-hex` is the guest payload as lowercase hex (`-` for empty).
//! Responses:
//!
//! ```text
//! OK <status> <cycles> <console-hex>     ! status: halted|budget|security_halt
//! PONG
//! OK BYE
//! ERR <code> <reason>                    ! e.g. ERR 429 tenant-frames
//! ```
//!
//! Everything is bounded: request lines are capped before parsing (a
//! client cannot balloon daemon memory), payloads are capped by server
//! config, and console output is capped at capture.

use std::io::{self, BufRead};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fork a child from `base`, inject `payload`, run it for the tenant.
    Run {
        /// Tenant the request is accounted to.
        tenant: String,
        /// Warm base image to fork from.
        base: String,
        /// Requested cycle budget (0 = tenant cap).
        budget: u64,
        /// Guest payload bytes (VAX code booted at the payload origin).
        payload: Vec<u8>,
    },
    /// Liveness probe.
    Ping,
    /// Ask the daemon to begin a graceful shutdown.
    Shutdown,
}

/// How a served guest run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The payload executed its HALT.
    Halted,
    /// The cycle budget expired first.
    Budget,
    /// The VMM security-halted the child (hostile or buggy payload).
    SecurityHalt,
}

impl RunStatus {
    /// Wire token.
    pub fn token(self) -> &'static str {
        match self {
            RunStatus::Halted => "halted",
            RunStatus::Budget => "budget",
            RunStatus::SecurityHalt => "security_halt",
        }
    }

    /// Parses a wire token.
    pub fn parse(tok: &str) -> Option<RunStatus> {
        match tok {
            "halted" => Some(RunStatus::Halted),
            "budget" => Some(RunStatus::Budget),
            "security_halt" => Some(RunStatus::SecurityHalt),
            _ => None,
        }
    }
}

/// Why a request was refused — the typed rejection taxonomy. Admission
/// failures are errors with a code and a machine-readable reason token,
/// never an unbounded queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line did not parse.
    BadRequest(&'static str),
    /// Payload exceeds the configured cap.
    PayloadTooLarge {
        /// Bytes received.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// Payload does not fit the base VM's memory at the payload origin.
    PayloadOutOfRange,
    /// No warm base with that name.
    UnknownBase(String),
    /// Tenant is at its concurrent-VM quota.
    TenantConcurrency {
        /// VMs the tenant has in flight.
        live: u32,
        /// The quota.
        max: u32,
    },
    /// Tenant's frame quota cannot admit this request's VM.
    TenantFrames {
        /// Frames this request needs.
        need: u64,
        /// Frames the tenant already holds.
        in_use: u64,
        /// The quota.
        quota: u64,
    },
    /// The daemon is at its global live-children cap.
    GlobalCapacity {
        /// Children live now.
        live: u32,
        /// The cap.
        max: u32,
    },
    /// The bounded accept queue was full (connection-level shed).
    Shed,
    /// The daemon is draining for shutdown.
    Draining,
}

impl RequestError {
    /// HTTP-flavored status code for the wire.
    pub fn code(&self) -> u16 {
        match self {
            RequestError::BadRequest(_)
            | RequestError::PayloadTooLarge { .. }
            | RequestError::PayloadOutOfRange => 400,
            RequestError::UnknownBase(_) => 404,
            RequestError::TenantConcurrency { .. }
            | RequestError::TenantFrames { .. }
            | RequestError::GlobalCapacity { .. }
            | RequestError::Shed => 429,
            RequestError::Draining => 503,
        }
    }

    /// Machine-readable reason token (also the rejection metric label).
    pub fn reason(&self) -> &'static str {
        match self {
            RequestError::BadRequest(_) => "bad-request",
            RequestError::PayloadTooLarge { .. } => "payload-too-large",
            RequestError::PayloadOutOfRange => "payload-out-of-range",
            RequestError::UnknownBase(_) => "unknown-base",
            RequestError::TenantConcurrency { .. } => "tenant-concurrency",
            RequestError::TenantFrames { .. } => "tenant-frames",
            RequestError::GlobalCapacity { .. } => "global-capacity",
            RequestError::Shed => "queue-full",
            RequestError::Draining => "draining",
        }
    }

    /// The full response line (without the newline).
    pub fn to_line(&self) -> String {
        format!("ERR {} {}", self.code(), self.reason())
    }
}

impl core::fmt::Display for RequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RequestError::BadRequest(what) => write!(f, "bad request: {what}"),
            RequestError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes over the {max}-byte cap")
            }
            RequestError::PayloadOutOfRange => write!(f, "payload does not fit guest memory"),
            RequestError::UnknownBase(name) => write!(f, "unknown base {name:?}"),
            RequestError::TenantConcurrency { live, max } => {
                write!(f, "tenant at concurrency quota ({live}/{max})")
            }
            RequestError::TenantFrames {
                need,
                in_use,
                quota,
            } => write!(f, "tenant frame quota: need {need}, {in_use}/{quota} used"),
            RequestError::GlobalCapacity { live, max } => {
                write!(f, "daemon at capacity ({live}/{max} children)")
            }
            RequestError::Shed => write!(f, "accept queue full"),
            RequestError::Draining => write!(f, "daemon draining"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A parsed response line (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A completed run.
    Ok {
        /// How the guest run ended.
        status: RunStatus,
        /// Simulated cycles the request consumed.
        cycles: u64,
        /// Captured console output.
        console: Vec<u8>,
    },
    /// `PONG`.
    Pong,
    /// Shutdown acknowledged.
    Bye,
    /// A refusal.
    Err {
        /// HTTP-flavored code.
        code: u16,
        /// Reason token.
        reason: String,
    },
}

/// Encodes bytes as lowercase hex; `-` for empty (keeps the line
/// space-separated-token shaped).
pub fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes the hex token (accepting `-` as empty).
///
/// # Errors
///
/// [`RequestError::BadRequest`] on odd length or a non-hex digit.
pub fn hex_decode(tok: &str) -> Result<Vec<u8>, RequestError> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    if tok.len() % 2 != 0 {
        return Err(RequestError::BadRequest("odd hex length"));
    }
    let bytes = tok.as_bytes();
    let nib = |c: u8| -> Result<u8, RequestError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(RequestError::BadRequest("non-hex digit")),
        }
    };
    let mut out = Vec::with_capacity(tok.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push(nib(pair[0])? << 4 | nib(pair[1])?);
    }
    Ok(out)
}

/// Parses a decimal token: ASCII digits only (`u64::from_str` would
/// also take a leading `+`), in range for `T`.
fn decimal<T: std::str::FromStr>(tok: &str) -> Option<T> {
    if !tok.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    tok.parse().ok()
}

/// Parses one request line.
///
/// # Errors
///
/// [`RequestError::BadRequest`] for anything that does not match the
/// grammar above.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["RUN", tenant, base, budget, payload] => {
            let budget: u64 =
                decimal(budget).ok_or(RequestError::BadRequest("budget not a decimal"))?;
            if tenant.is_empty() || base.is_empty() {
                return Err(RequestError::BadRequest("empty tenant or base"));
            }
            Ok(Request::Run {
                tenant: (*tenant).to_string(),
                base: (*base).to_string(),
                budget,
                payload: hex_decode(payload)?,
            })
        }
        ["PING"] => Ok(Request::Ping),
        ["SHUTDOWN"] => Ok(Request::Shutdown),
        [] => Err(RequestError::BadRequest("empty line")),
        _ => Err(RequestError::BadRequest("unknown verb or arity")),
    }
}

/// Renders a successful run as its response line (without the newline).
pub fn ok_line(status: RunStatus, cycles: u64, console: &[u8]) -> String {
    format!("OK {} {} {}", status.token(), cycles, hex_encode(console))
}

/// Parses one response line (the client side of [`ok_line`] /
/// [`RequestError::to_line`]).
///
/// # Errors
///
/// [`RequestError::BadRequest`] when the server spoke out of grammar.
pub fn parse_response(line: &str) -> Result<Response, RequestError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["OK", "BYE"] => Ok(Response::Bye),
        ["OK", status, cycles, console] => {
            let status =
                RunStatus::parse(status).ok_or(RequestError::BadRequest("unknown run status"))?;
            let cycles: u64 =
                decimal(cycles).ok_or(RequestError::BadRequest("cycles not a decimal"))?;
            Ok(Response::Ok {
                status,
                cycles,
                console: hex_decode(console)?,
            })
        }
        ["PONG"] => Ok(Response::Pong),
        ["ERR", code, reason] => Ok(Response::Err {
            code: decimal(code).ok_or(RequestError::BadRequest("code not a decimal"))?,
            reason: (*reason).to_string(),
        }),
        _ => Err(RequestError::BadRequest("unknown response shape")),
    }
}

/// A bounded line reader that survives read timeouts.
///
/// Bytes consumed before a `WouldBlock`/`TimedOut` error stay buffered
/// in the reader, so a caller polling a socket with a read timeout (the
/// daemon's shutdown-responsiveness mechanism) can simply retry
/// [`LineReader::poll_line`] without losing a partially received line.
#[derive(Debug, Default)]
pub struct LineReader {
    partial: Vec<u8>,
}

impl LineReader {
    /// An empty reader.
    pub fn new() -> LineReader {
        LineReader::default()
    }

    /// Reads one LF-terminated line of at most `cap` bytes (LF
    /// excluded). Returns `Ok(None)` on a clean EOF before any byte; an
    /// EOF mid-line yields the partial line. A line longer than `cap`
    /// is an `InvalidData` error — the connection should be answered
    /// with `ERR 400 line-too-long` and closed, never buffered
    /// unboundedly.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (after which a retry continues the
    /// same line); `InvalidData` for an over-cap or non-UTF-8 line.
    pub fn poll_line<R: BufRead>(
        &mut self,
        reader: &mut R,
        cap: usize,
    ) -> io::Result<Option<String>> {
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                // EOF. Yield the partial line, if any.
                if self.partial.is_empty() {
                    return Ok(None);
                }
                return finish(std::mem::take(&mut self.partial));
            }
            match buf.iter().position(|b| *b == b'\n') {
                Some(pos) => {
                    if self.partial.len() + pos > cap {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, "line over cap"));
                    }
                    self.partial.extend_from_slice(&buf[..pos]);
                    reader.consume(pos + 1);
                    return finish(std::mem::take(&mut self.partial));
                }
                None => {
                    if self.partial.len() + buf.len() > cap {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, "line over cap"));
                    }
                    self.partial.extend_from_slice(buf);
                    let n = buf.len();
                    reader.consume(n);
                }
            }
        }
    }
}

fn finish(line: Vec<u8>) -> io::Result<Option<String>> {
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 request"))
}

/// One-shot [`LineReader::poll_line`] for blocking readers.
///
/// # Errors
///
/// Propagates transport errors; `InvalidData` for an over-cap line.
pub fn read_line_bounded<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Option<String>> {
    LineReader::new().poll_line(reader, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let line = "RUN alice hello 500000 deadbeef";
        match parse_request(line).unwrap() {
            Request::Run {
                tenant,
                base,
                budget,
                payload,
            } => {
                assert_eq!(tenant, "alice");
                assert_eq!(base, "hello");
                assert_eq!(budget, 500_000);
                assert_eq!(payload, vec![0xde, 0xad, 0xbe, 0xef]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("RUN t b 0 -").unwrap(),
            Request::Run {
                tenant: "t".into(),
                base: "b".into(),
                budget: 0,
                payload: vec![]
            }
        );
    }

    #[test]
    fn bad_requests_are_typed() {
        for line in [
            "",
            "RUN",
            "RUN a b c d",
            "RUN a b 12 zz",
            "RUN a b 12 abc",
            "FLY me now",
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), 400, "line {line:?}");
            assert_eq!(err.reason(), "bad-request");
        }
    }

    #[test]
    fn response_round_trip() {
        let line = ok_line(RunStatus::Halted, 1234, b"Hi");
        assert_eq!(line, "OK halted 1234 4869");
        match parse_response(&line).unwrap() {
            Response::Ok {
                status,
                cycles,
                console,
            } => {
                assert_eq!(status, RunStatus::Halted);
                assert_eq!(cycles, 1234);
                assert_eq!(console, b"Hi");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(ok_line(RunStatus::Budget, 0, b""), "OK budget 0 -");
        let err = RequestError::TenantFrames {
            need: 700,
            in_use: 0,
            quota: 100,
        };
        assert_eq!(err.to_line(), "ERR 429 tenant-frames");
        assert_eq!(
            parse_response(&err.to_line()).unwrap(),
            Response::Err {
                code: 429,
                reason: "tenant-frames".into()
            }
        );
        assert_eq!(parse_response("PONG").unwrap(), Response::Pong);
        assert_eq!(parse_response("OK BYE").unwrap(), Response::Bye);
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(hex_decode("0").is_err());
        assert!(hex_decode("0g").is_err());
        assert_eq!(hex_decode("-").unwrap(), Vec::<u8>::new());
        assert_eq!(hex_decode("00ff").unwrap(), vec![0, 255]);
        assert_eq!(hex_encode(&[0, 255]), "00ff");
        assert_eq!(hex_encode(&[]), "-");
    }

    #[test]
    fn bounded_reader_caps_lines() {
        use std::io::BufReader;
        let data = b"short\nlonger-line\n";
        let mut r = BufReader::new(&data[..]);
        assert_eq!(read_line_bounded(&mut r, 64).unwrap().unwrap(), "short");
        assert_eq!(
            read_line_bounded(&mut r, 64).unwrap().unwrap(),
            "longer-line"
        );
        assert!(read_line_bounded(&mut r, 64).unwrap().is_none());

        let mut over = BufReader::new(&b"aaaaaaaaaa\n"[..]);
        assert!(read_line_bounded(&mut over, 5).is_err());

        // EOF mid-line still yields the partial line.
        let mut partial = BufReader::new(&b"no-newline"[..]);
        assert_eq!(
            read_line_bounded(&mut partial, 64).unwrap().unwrap(),
            "no-newline"
        );
    }

    /// A BufRead that yields scripted chunks with `WouldBlock` errors
    /// interleaved — a socket with a read timeout, in miniature.
    struct Stutter {
        steps: std::collections::VecDeque<Option<&'static [u8]>>,
        buf: Vec<u8>,
        pos: usize,
    }

    impl io::Read for Stutter {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("poll_line uses fill_buf")
        }
    }

    impl BufRead for Stutter {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos >= self.buf.len() {
                match self.steps.pop_front() {
                    Some(Some(bytes)) => {
                        self.buf = bytes.to_vec();
                        self.pos = 0;
                    }
                    Some(None) => return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout")),
                    None => {
                        self.buf.clear();
                        self.pos = 0;
                    }
                }
            }
            Ok(&self.buf[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    #[test]
    fn line_reader_survives_read_timeouts() {
        let mut reader = Stutter {
            steps: [
                Some(&b"RUN al"[..]),
                None,
                None,
                Some(&b"ice base 7 -\nPI"[..]),
                None,
                Some(&b"NG\n"[..]),
            ]
            .into_iter()
            .collect(),
            buf: Vec::new(),
            pos: 0,
        };
        let mut lines = LineReader::new();
        // Two timeouts mid-line; the prefix must survive both.
        assert!(lines.poll_line(&mut reader, 64).is_err());
        assert!(lines.poll_line(&mut reader, 64).is_err());
        assert_eq!(
            lines.poll_line(&mut reader, 64).unwrap().unwrap(),
            "RUN alice base 7 -"
        );
        assert!(lines.poll_line(&mut reader, 64).is_err());
        assert_eq!(lines.poll_line(&mut reader, 64).unwrap().unwrap(), "PING");
        assert!(lines.poll_line(&mut reader, 64).unwrap().is_none());
    }
}
