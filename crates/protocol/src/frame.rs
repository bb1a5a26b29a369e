//! Frame layer: the length-prefixed envelope, the request / response frame
//! types, and their encoders and decoders.
//!
//! A frame on the socket is a little-endian `u32` payload length followed
//! by the payload; the payload's first byte is the frame tag. Request tags
//! occupy `0x01..=0x7F`, response tags `0x81..=0xFF`, so a desynchronised
//! peer fails fast on an unknown tag instead of misparsing.

use crate::codec::{
    get_error, get_expr, get_options, get_rows, get_schema, get_strategy, get_value, put_error,
    put_expr, put_options, put_rows, put_schema, put_strategy, put_value,
};
use crate::wire::{put_bool, put_str, put_u32, put_u64, put_u8, Reader};
use mrq_common::{MrqError, Schema, Value};
use mrq_core::{QueryOptions, Strategy};
use mrq_expr::Expr;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Protocol magic exchanged in the handshake: both sides must speak MRQ.
pub const MAGIC: &str = "MRQ1";

/// Protocol version negotiated in the handshake. The server refuses
/// mismatches rather than guessing.
pub const VERSION: u32 = 1;

/// Hard ceiling on a single frame's payload (32 MiB). A length prefix past
/// this is treated as garbage before any allocation happens.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// Capacity of the `BufReader` each end puts under [`read_frame`]: a frame
/// of up to this size arrives in one `read` call, length prefix and payload
/// together.
pub const READ_BUFFER: usize = 64 * 1024;

/// Everything that can go wrong between bytes and frames. Malformed input
/// always lands here — never in a panic — because the server feeds this
/// decoder with whatever an arbitrary TCP peer sends.
#[derive(Debug)]
pub enum ProtocolError {
    /// The payload ended before the value being decoded was complete (also
    /// covers length prefixes that point past the end of the payload).
    Truncated,
    /// A frame announced a payload larger than [`MAX_FRAME`].
    Oversized(usize),
    /// An unknown tag byte; the `&str` names the kind of tag expected
    /// (frame, value, strategy, …).
    UnknownTag(&'static str, u8),
    /// An expression tree nested deeper than the decoder's budget.
    TooDeep,
    /// The payload was longer than the frame it claimed to encode.
    TrailingBytes(usize),
    /// A malformed scalar (bad bool byte, non-UTF-8 string, bad magic…).
    Invalid(String),
    /// The underlying socket failed.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::Oversized(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_FRAME}-byte limit"
                )
            }
            ProtocolError::UnknownTag(kind, tag) => {
                write!(f, "unknown {kind} tag {tag:#04x}")
            }
            ProtocolError::TooDeep => write!(f, "expression tree nested too deeply"),
            ProtocolError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after frame payload")
            }
            ProtocolError::Invalid(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: the first frame on every connection. Carries the magic
    /// and the client's protocol version.
    Hello {
        /// Must equal [`MAGIC`].
        magic: String,
        /// Must equal [`VERSION`].
        version: u32,
    },
    /// Submit an ad-hoc query. `id` is a client-chosen correlation id; all
    /// response frames for this query echo it, so many queries can be in
    /// flight on one connection.
    Query {
        /// Client-chosen correlation id.
        id: u64,
        /// `true` to stream row batches as they publish, `false` for one
        /// [`Response::Rows`] with the complete result.
        streamed: bool,
        /// Execution strategy.
        strategy: Strategy,
        /// Per-query options (deadline, QoS class, streamed-batch rows).
        options: QueryOptions,
        /// The query's expression tree.
        expr: Expr,
    },
    /// Compile and cache a statement server-side; constants are
    /// canonicalised into parameter slots. Answered by
    /// [`Response::Prepared`].
    Prepare {
        /// Client-chosen correlation id for the *prepare* round trip.
        id: u64,
        /// Execution strategy the statement is compiled for.
        strategy: Strategy,
        /// The statement's expression tree (with constants in place; the
        /// server extracts them as defaults).
        expr: Expr,
    },
    /// Execute a prepared statement with positional parameter bindings.
    /// A binding of [`Value::Null`] keeps that slot's captured default.
    Execute {
        /// Client-chosen correlation id.
        id: u64,
        /// Server-assigned statement handle from [`Response::Prepared`].
        statement: u64,
        /// Streamed or unary, as for [`Request::Query`].
        streamed: bool,
        /// Per-execution options.
        options: QueryOptions,
        /// Positional parameter bindings.
        bindings: Vec<Value>,
    },
    /// Drop a prepared statement handle.
    CloseStatement {
        /// The handle to drop.
        statement: u64,
    },
    /// Ask the server process to shut down (used by the load generator and
    /// the CI smoke test for a clean exit).
    Shutdown,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    Hello {
        /// The server's protocol version.
        version: u32,
    },
    /// The complete result of a unary query.
    Rows {
        /// Correlation id of the originating request.
        id: u64,
        /// Result schema.
        schema: Schema,
        /// All result rows.
        rows: Vec<Vec<Value>>,
    },
    /// One streamed row batch. Batches for a query arrive in order;
    /// a [`Response::End`] or [`Response::Error`] frame terminates the
    /// stream.
    Batch {
        /// Correlation id of the originating request.
        id: u64,
        /// The batch's rows (streams carry no schema, mirroring the
        /// in-process `QueryStream`).
        rows: Vec<Vec<Value>>,
    },
    /// Clean end of a streamed query.
    End {
        /// Correlation id of the originating request.
        id: u64,
    },
    /// The query failed (or was shed, or cancelled); terminal for both
    /// unary and streamed queries. Batches already delivered stand.
    Error {
        /// Correlation id of the originating request.
        id: u64,
        /// The typed execution error.
        error: MrqError,
    },
    /// Answer to [`Request::Prepare`].
    Prepared {
        /// Correlation id of the prepare request.
        id: u64,
        /// Server-assigned statement handle for [`Request::Execute`].
        statement: u64,
        /// Number of positional parameter slots the statement exposes.
        param_slots: u64,
    },
}

impl Request {
    /// The standard handshake frame.
    pub fn hello() -> Request {
        Request::Hello {
            magic: MAGIC.to_string(),
            version: VERSION,
        }
    }

    /// Encodes the frame payload (tag + body, without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { magic, version } => {
                put_u8(&mut buf, 0x01);
                put_str(&mut buf, magic);
                put_u32(&mut buf, *version);
            }
            Request::Query {
                id,
                streamed,
                strategy,
                options,
                expr,
            } => {
                put_u8(&mut buf, 0x02);
                put_u64(&mut buf, *id);
                put_bool(&mut buf, *streamed);
                put_strategy(&mut buf, strategy);
                put_options(&mut buf, options);
                put_expr(&mut buf, expr);
            }
            Request::Prepare { id, strategy, expr } => {
                put_u8(&mut buf, 0x03);
                put_u64(&mut buf, *id);
                put_strategy(&mut buf, strategy);
                put_expr(&mut buf, expr);
            }
            Request::Execute {
                id,
                statement,
                streamed,
                options,
                bindings,
            } => {
                put_u8(&mut buf, 0x04);
                put_u64(&mut buf, *id);
                put_u64(&mut buf, *statement);
                put_bool(&mut buf, *streamed);
                put_options(&mut buf, options);
                put_u32(&mut buf, bindings.len() as u32);
                for v in bindings {
                    put_value(&mut buf, v);
                }
            }
            Request::CloseStatement { statement } => {
                put_u8(&mut buf, 0x05);
                put_u64(&mut buf, *statement);
            }
            Request::Shutdown => put_u8(&mut buf, 0x06),
        }
        buf
    }

    /// Decodes a frame payload produced by [`Request::encode`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0x01 => Request::Hello {
                magic: r.str()?,
                version: r.u32()?,
            },
            0x02 => Request::Query {
                id: r.u64()?,
                streamed: r.bool()?,
                strategy: get_strategy(&mut r)?,
                options: get_options(&mut r)?,
                expr: get_expr(&mut r)?,
            },
            0x03 => Request::Prepare {
                id: r.u64()?,
                strategy: get_strategy(&mut r)?,
                expr: get_expr(&mut r)?,
            },
            0x04 => {
                let id = r.u64()?;
                let statement = r.u64()?;
                let streamed = r.bool()?;
                let options = get_options(&mut r)?;
                let n = r.count()?;
                let mut bindings = Vec::with_capacity(n);
                for _ in 0..n {
                    bindings.push(get_value(&mut r)?);
                }
                Request::Execute {
                    id,
                    statement,
                    streamed,
                    options,
                    bindings,
                }
            }
            0x05 => Request::CloseStatement {
                statement: r.u64()?,
            },
            0x06 => Request::Shutdown,
            tag => return Err(ProtocolError::UnknownTag("request frame", tag)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the frame payload (tag + body, without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Hello { version } => {
                put_u8(&mut buf, 0x81);
                put_u32(&mut buf, *version);
            }
            Response::Rows { id, schema, rows } => {
                put_u8(&mut buf, 0x82);
                put_u64(&mut buf, *id);
                put_schema(&mut buf, schema);
                put_rows(&mut buf, rows);
            }
            Response::Batch { id, rows } => {
                put_u8(&mut buf, 0x83);
                put_u64(&mut buf, *id);
                put_rows(&mut buf, rows);
            }
            Response::End { id } => {
                put_u8(&mut buf, 0x84);
                put_u64(&mut buf, *id);
            }
            Response::Error { id, error } => {
                put_u8(&mut buf, 0x85);
                put_u64(&mut buf, *id);
                put_error(&mut buf, error);
            }
            Response::Prepared {
                id,
                statement,
                param_slots,
            } => {
                put_u8(&mut buf, 0x86);
                put_u64(&mut buf, *id);
                put_u64(&mut buf, *statement);
                put_u64(&mut buf, *param_slots);
            }
        }
        buf
    }

    /// Decodes a frame payload produced by [`Response::encode`].
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0x81 => Response::Hello { version: r.u32()? },
            0x82 => Response::Rows {
                id: r.u64()?,
                schema: get_schema(&mut r)?,
                rows: get_rows(&mut r)?,
            },
            0x83 => Response::Batch {
                id: r.u64()?,
                rows: get_rows(&mut r)?,
            },
            0x84 => Response::End { id: r.u64()? },
            0x85 => Response::Error {
                id: r.u64()?,
                error: get_error(&mut r)?,
            },
            0x86 => Response::Prepared {
                id: r.u64()?,
                statement: r.u64()?,
                param_slots: r.u64()?,
            },
            tag => return Err(ProtocolError::UnknownTag("response frame", tag)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Writes one length-prefixed frame to `w`. The payload should come from
/// [`Request::encode`] / [`Response::encode`].
///
/// The length prefix and the payload go out in one vectored write, so a
/// frame is one `writev` on a socket and nothing is copied. Two writes
/// would put a 4-byte runt on the wire ahead of the payload; without
/// `TCP_NODELAY`, Nagle's algorithm then holds the payload until the peer's
/// delayed ACK for the runt (~40 ms). Short writes are resumed where they
/// stopped, so any [`Write`] receives exactly `prefix ++ payload`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one length-prefixed frame payload from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up); an EOF mid-frame is [`ProtocolError::Truncated`]; a length prefix
/// past [`MAX_FRAME`] is rejected before any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ProtocolError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match r.read(&mut payload[read..]) {
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let req = Request::hello();
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &req.encode()).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// A writer that records the size of every `write` / `write_vectored`
    /// call and accepts at most `limit` bytes per call.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: Vec<usize>,
        limit: usize,
    }

    impl CountingWriter {
        fn accepting(limit: usize) -> CountingWriter {
            CountingWriter {
                bytes: Vec::new(),
                calls: Vec::new(),
                limit,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.limit - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            self.calls.push(taken);
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn one_frame_is_one_write_call() {
        let payload = Request::hello().encode();
        let mut w = CountingWriter::accepting(usize::MAX);
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.calls, vec![4 + payload.len()]);
        assert_eq!(w.bytes, framed(&payload));
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        for payload in [Vec::new(), vec![7], (0u8..=200).collect::<Vec<u8>>()] {
            let mut w = CountingWriter::accepting(3);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.bytes, framed(&payload), "{} payload bytes", payload.len());
            assert!(w.calls.iter().all(|&n| (1..=3).contains(&n)));
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Oversized(_))
        ));
    }

    #[test]
    fn eof_mid_frame_is_truncation() {
        let mut bytes = 16u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut cursor = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn unknown_frame_tag_is_an_error() {
        assert!(matches!(
            Request::decode(&[0x7E]),
            Err(ProtocolError::UnknownTag("request frame", 0x7E))
        ));
        assert!(matches!(
            Response::decode(&[0x02]),
            Err(ProtocolError::UnknownTag("response frame", 0x02))
        ));
    }
}
