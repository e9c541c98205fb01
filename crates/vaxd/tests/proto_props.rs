//! Hostile-input properties of the `vaxd` wire protocol: whatever bytes
//! a client sends, parsing never panics and accepts exactly the
//! grammar, encodings round-trip, and the bounded line reader yields
//! exactly the lines of the stream — never one longer than its cap —
//! however the transport chunks the bytes or times out between them.

use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{self, BufRead, ErrorKind, Read};
use vaxd::proto::{hex_decode, hex_encode, ok_line, parse_request, parse_response, LineReader};
use vaxd::{Request, Response, RunStatus};

/// Reference reading of a budget token: ASCII digits whose value fits
/// in a u64 (no sign).
fn decimal(tok: &str) -> Option<u64> {
    if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    tok.bytes().try_fold(0u64, |v, d| {
        v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    })
}

/// Reference reading of a payload token: `-`, or an even number of hex
/// digits of either case.
fn hex(tok: &str) -> Option<Vec<u8>> {
    if tok == "-" {
        return Some(Vec::new());
    }
    if tok.len() % 2 != 0 || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(
        (0..tok.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&tok[i..i + 2], 16).unwrap())
            .collect(),
    )
}

/// The request grammar, written independently of `parse_request`.
fn reference(line: &str) -> Option<Request> {
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["RUN", tenant, base, budget, payload] => Some(Request::Run {
            tenant: (*tenant).to_string(),
            base: (*base).to_string(),
            budget: decimal(budget)?,
            payload: hex(payload)?,
        }),
        ["PING"] => Some(Request::Ping),
        ["SHUTDOWN"] => Some(Request::Shutdown),
        _ => None,
    }
}

/// Tokens near and across the grammar's edges.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => Just("RUN".to_string()),
        1 => Just("PING".to_string()),
        1 => Just("SHUTDOWN".to_string()),
        1 => Just("-".to_string()),
        3 => any::<u64>().prop_map(|v| v.to_string()),
        // Signed, and one digit past u64.
        1 => (any::<bool>(), any::<u64>()).prop_map(|(plus, v)| {
            if plus { format!("+{v}") } else { format!("-{v}") }
        }),
        1 => any::<u64>().prop_map(|v| format!("{}0", v | 1 << 63)),
        3 => vec(any::<u8>(), 0..12).prop_map(|b| hex_encode(&b)),
        1 => vec(any::<u8>(), 1..12).prop_map(|b| hex_encode(&b).to_uppercase()),
        1 => vec(any::<u8>(), 1..12).prop_map(|b| hex_encode(&b)[1..].to_string()),
        // Hex with one character swapped for a non-hex one, often from
        // just outside a digit range.
        2 => (vec(any::<u8>(), 1..12), not_hex(), any::<usize>()).prop_map(|(b, c, at)| {
            let mut tok = hex_encode(&b).into_bytes();
            let at = at % tok.len();
            tok[at] = c;
            String::from_utf8(tok).unwrap()
        }),
        2 => vec(0x21u8..0x7f, 1..10).prop_map(|b| String::from_utf8(b).unwrap()),
    ]
}

/// A printable byte that is not a hex digit.
fn not_hex() -> impl Strategy<Value = u8> {
    let edges = prop_oneof![
        Just(b'/'),
        Just(b':'),
        Just(b'@'),
        Just(b'G'),
        Just(b'`'),
        Just(b'g'),
    ];
    let printable = (0x21u8..0x7f).prop_map(|c| if c.is_ascii_hexdigit() { b'x' } else { c });
    prop_oneof![1 => edges, 1 => printable]
}

fn separator() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        6 => Just(" "),
        1 => Just("\t"),
        1 => Just("   "),
        1 => Just("\r"),
        1 => Just("\u{a0}"),
        1 => Just(""),
    ]
}

/// A line of edge tokens with assorted whitespace between them; half
/// of them `RUN` with four more tokens, so that many are well formed.
fn token_line() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        vec((separator(), token()), 0..7),
        vec((separator(), token()), 4..5),
        separator(),
    )
        .prop_map(|(run, soup, args, tail)| {
            let (head, parts) = if run { ("RUN", args) } else { ("", soup) };
            let mut line = head.to_string();
            for (sep, tok) in parts {
                line.push_str(if run && sep.is_empty() { " " } else { sep });
                line.push_str(&tok);
            }
            line.push_str(tail);
            line
        })
}

/// Client-chosen names: printable, no whitespace.
fn name() -> impl Strategy<Value = String> {
    vec(0x21u8..0x7f, 1..16).prop_map(|b| String::from_utf8(b).unwrap())
}

fn run_status() -> impl Strategy<Value = RunStatus> {
    prop_oneof![
        Just(RunStatus::Halted),
        Just(RunStatus::Budget),
        Just(RunStatus::SecurityHalt),
    ]
}

/// Decimal tokens are digits only: a leading `+`, which `u64::from_str`
/// accepts, is a bad request on the way in and out of grammar on the
/// way back.
#[test]
fn a_plus_signed_decimal_is_rejected() {
    let err = parse_request("RUN t b +5 -").unwrap_err();
    assert!(err.to_line().starts_with("ERR 400 "), "{}", err.to_line());
    assert!(parse_request("RUN t b 5 -").is_ok());
    for line in ["OK halted +5 -", "ERR +400 bad"] {
        assert!(parse_response(line).is_err(), "{line}");
    }
    assert!(parse_response("ERR 400 bad").is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary bytes, decoded lossily as the server does with a line
    /// that is not UTF-8: never a panic, and exactly the grammar.
    #[test]
    fn parse_request_accepts_exactly_the_grammar(
        bytes in vec(any::<u8>(), 0..160),
        line in token_line(),
        pick_bytes in any::<bool>(),
    ) {
        let line = if pick_bytes { String::from_utf8_lossy(&bytes).into_owned() } else { line };
        let got = parse_request(&line);
        if let Err(e) = &got {
            prop_assert_eq!(e.code(), 400);
        }
        prop_assert_eq!(got.ok(), reference(&line), "line {:?}", line);
    }

    #[test]
    fn formatted_requests_round_trip(
        tenant in name(),
        base in name(),
        budget in any::<u64>(),
        payload in vec(any::<u8>(), 0..64),
    ) {
        let line = format!("RUN {tenant} {base} {budget} {}", hex_encode(&payload));
        prop_assert_eq!(
            parse_request(&line).unwrap(),
            Request::Run { tenant, base, budget, payload }
        );
    }

    /// The empty payload travels as the `-` token.
    #[test]
    fn hex_round_trips(bytes in vec(any::<u8>(), 0..64)) {
        let tok = hex_encode(&bytes);
        prop_assert_eq!(tok == "-", bytes.is_empty());
        prop_assert_eq!(hex_decode(&tok).unwrap(), bytes);
    }

    #[test]
    fn ok_lines_round_trip(
        status in run_status(),
        cycles in any::<u64>(),
        console in vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(
            parse_response(&ok_line(status, cycles, &console)).unwrap(),
            Response::Ok { status, cycles, console }
        );
    }
}

/// One step of a transport's behaviour on a `fill_buf`.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Offer at most this many more bytes (at least one).
    Chunk(usize),
    /// A socket read timeout, in either of its spellings.
    Timeout(ErrorKind),
}

/// A stream that hands out `data` in chunks and timeouts following a
/// cyclic plan, as a socket with a read timeout does.
struct Transport {
    data: Vec<u8>,
    pos: usize,
    /// End of the chunk currently offered.
    offered: usize,
    plan: Vec<Step>,
    next: usize,
}

impl Read for Transport {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Transport {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.offered && self.pos < self.data.len() {
            let step = self.plan[self.next % self.plan.len()];
            self.next += 1;
            match step {
                Step::Timeout(kind) => return Err(io::Error::new(kind, "read timed out")),
                Step::Chunk(n) => self.offered = (self.pos + n).min(self.data.len()),
            }
        }
        Ok(&self.data[self.pos..self.offered])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// What a reader must make of `data` under `cap`: its lines in order
/// and, if some line is over the cap or not UTF-8, that it fails there.
fn split_reference(data: &[u8], cap: usize) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut pieces: Vec<&[u8]> = data.split(|b| *b == b'\n').collect();
    // Bytes after the last LF are a final partial line, if any.
    if pieces.last().is_some_and(|p| p.is_empty()) {
        pieces.pop();
    }
    for piece in pieces {
        match std::str::from_utf8(piece) {
            Ok(line) if piece.len() <= cap => lines.push(line.to_string()),
            _ => return (lines, true),
        }
    }
    (lines, false)
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (1usize..17).prop_map(Step::Chunk),
        1 => Just(Step::Timeout(ErrorKind::WouldBlock)),
        1 => Just(Step::Timeout(ErrorKind::TimedOut)),
    ]
}

/// Stream bytes: mostly printable, with plenty of line ends and the
/// odd byte that is not UTF-8.
fn stream_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        12 => 0x20u8..0x7f,
        3 => Just(b'\n'),
        1 => any::<u8>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn line_reader_matches_a_reference_splitter(
        data in vec(stream_byte(), 0..200),
        plan in vec(step(), 1..12),
        cap in 0usize..40,
    ) {
        // Every plan offers bytes eventually, so the loop below ends.
        let plan = if plan.iter().any(|s| matches!(s, Step::Chunk(_))) {
            plan
        } else {
            vec![Step::Chunk(1)]
        };
        let (want, want_invalid) = split_reference(&data, cap);
        let mut transport = Transport { data, pos: 0, offered: 0, plan, next: 0 };
        let mut reader = LineReader::new();
        let mut got = Vec::new();
        let invalid = loop {
            match reader.poll_line(&mut transport, cap) {
                Ok(Some(line)) => {
                    prop_assert!(line.len() <= cap, "{} bytes over a cap of {}", line.len(), cap);
                    got.push(line);
                }
                Ok(None) => break false,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => {
                    prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
                    break true;
                }
            }
        };
        prop_assert_eq!(got, want);
        prop_assert_eq!(invalid, want_invalid);
    }
}
