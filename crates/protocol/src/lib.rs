//! The MRQ wire protocol and reference TCP server.
//!
//! This crate puts the serving layer on a socket. Everything below it —
//! admission control, QoS scheduling, prepared statements, streamed
//! batches — already exists in `mrq-core`; what this crate adds is a
//! dependency-free, length-prefixed frame protocol over `std::net` and a
//! per-connection server loop that multiplexes many in-flight queries on
//! `mrq_common::executor`'s [`Multiplexer`](mrq_common::executor::Multiplexer).
//!
//! The layering, bottom up:
//!
//! * [`wire`] — little-endian primitives and a bounds-checked [`wire::Reader`]
//!   that turns malformed bytes into [`ProtocolError`]s, never panics;
//! * [`codec`] — serializers for the domain types ([`mrq_common::Value`],
//!   [`mrq_common::Schema`], expression trees, strategies, options, errors);
//! * [`frame`] — the [`Request`] / [`Response`] frame grammar and the
//!   length-prefixed envelope ([`read_frame`] / [`write_frame`]);
//! * [`server`] — [`Server`]: a `std::net::TcpListener` accept loop, one
//!   reader thread and one executor-driver thread per connection, streamed
//!   batches written to the socket as the engine publishes them.
//!
//! The protocol is specified frame-by-frame in `docs/SERVING.md`; the
//! golden-bytes test in `tests/tests/wire_protocol.rs` pins the encoding.
//! The client half lives in the `mrq-client` crate, which depends only on
//! this crate's [`frame`] layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod server;
pub mod wire;

pub use frame::{
    read_frame, write_frame, ProtocolError, Request, Response, MAGIC, MAX_FRAME, VERSION,
};
pub use server::Server;
