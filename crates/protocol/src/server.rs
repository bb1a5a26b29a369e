//! The reference TCP server: an accept loop over `std::net::TcpListener`
//! with, per connection, one frame-reader thread and one executor-driver
//! thread multiplexing every in-flight query for that connection.
//!
//! # Threading model
//!
//! The reader thread owns the request side: it parses frames, submits
//! queries through the [`OwnedProvider`] (admission control runs inside
//! `submit` / `submit_stream`, so shed requests are answered with an
//! `Overloaded` error frame without ever reaching the worker pool), and
//! hands the resulting `'static` handles and streams to a
//! [`Multiplexer`] as poll closures. The
//! driver thread runs the multiplexer: it parks until an engine waker fires
//! and then writes `Rows` / `Batch` / `End` / `Error` frames. Both threads
//! share the socket's write half behind a mutex, so handshake and
//! `Prepared` replies (written by the reader) interleave safely with result
//! frames (written by the driver).
//!
//! # Transport
//!
//! Every accepted socket gets `TCP_NODELAY`, every frame leaves in one
//! vectored write ([`write_frame`]), and the reader thread reads through a
//! [`READ_BUFFER`]-sized `BufReader`, so a small request is one `read`
//! call. Without the first two, a reply's payload waits behind its 4-byte
//! length prefix for the client's delayed ACK (~40 ms per round trip).
//!
//! # Cancellation and backpressure
//!
//! Result frames are written with blocking socket writes from the driver —
//! a slow client backpressures the stream channel, which backpressures the
//! producing engine, exactly like a slow in-process consumer. A failed
//! write (client gone) drops the `QueryStream`, whose `Drop` trips the
//! query's cancel token: disconnecting mid-stream cancels the work, which
//! `tests/tests/chaos.rs` pins by watching the work counters stop.

use crate::frame::{read_frame, write_frame, Request, Response, MAGIC, READ_BUFFER, VERSION};
use mrq_common::executor::{Multiplexer, MuxHandle};
use mrq_common::MrqError;
use mrq_core::{OwnedProvider, PreparedQuery, QueryHandle, QueryStream};
use std::collections::HashMap;
use std::future::Future;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::thread::JoinHandle;

/// A running MRQ server.
///
/// Bind with [`Server::start`], discover the bound port with
/// [`Server::local_addr`] (bind to port 0 for tests), and stop with
/// [`Server::shutdown`] — which is also what a client's `Shutdown` frame
/// triggers. Dropping the server shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// State shared by the accept loop and every connection.
struct ServerShared {
    provider: OwnedProvider,
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    /// Handles to live connections keyed by connection id, so shutdown can
    /// unblock parked reader threads with `Shutdown::Both`. A connection
    /// removes its own entry when it ends, so the duplicated descriptor
    /// does not outlive it.
    sockets: Mutex<HashMap<u64, TcpStream>>,
}

impl ServerShared {
    /// Trips the stop flag, unblocks the accept loop with a throwaway
    /// connection, and shuts down every live socket.
    fn initiate_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        for socket in self.sockets.lock().unwrap().values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

impl Server {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and
    /// starts accepting connections, serving queries from `provider`.
    ///
    /// The provider's admission gate, plan cache and parallelism settings
    /// apply as configured before sealing — the server adds no policy of
    /// its own.
    pub fn start(provider: OwnedProvider, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ServerShared {
            provider,
            stop: Arc::clone(&stop),
            local_addr,
            sockets: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("mrq-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once a shutdown (local or client-requested) has begun.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting, disconnects every client, and waits for all
    /// connection threads to finish. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the server stops on its own (a client sent a
    /// `Shutdown` frame). Used by the standalone binary.
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are written whole (one `write_frame` each), so there is
        // nothing for Nagle's algorithm to coalesce: it would only hold a
        // reply until the client's delayed ACK (~40 ms).
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.sockets.lock().unwrap().insert(id, clone);
        }
        let conn_shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("mrq-conn".into())
            .spawn(move || serve_connection(id, stream, conn_shared))
        {
            connections.push(handle);
        }
        // Reap finished connections so a long-lived server does not
        // accumulate join handles.
        connections.retain(|h| !h.is_finished());
    }
    // Stop flag is set: disconnect stragglers and wait for their threads.
    for (_, socket) in shared.sockets.lock().unwrap().drain() {
        let _ = socket.shutdown(Shutdown::Both);
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Sends one response frame over the shared write half.
fn send(writer: &Mutex<TcpStream>, response: &Response) -> io::Result<()> {
    let payload = response.encode();
    let mut guard = writer.lock().unwrap();
    write_frame(&mut *guard, &payload)
}

fn serve_connection(id: u64, stream: TcpStream, shared: Arc<ServerShared>) {
    let Ok(write_half) = stream.try_clone() else {
        shared.sockets.lock().unwrap().remove(&id);
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mux = Multiplexer::new();
    let handle = mux.handle();
    let driver = std::thread::Builder::new()
        .name("mrq-conn-driver".into())
        .spawn(move || {
            mux.run();
        });
    read_requests(&stream, &writer, &handle, &shared);
    // Reader is done (EOF, protocol error, or shutdown): no new tasks, let
    // the driver drain what is in flight. Shut the socket down so tasks
    // still writing to a gone client fail fast instead of blocking.
    handle.close();
    if shared.stop.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Both);
    }
    if let Ok(driver) = driver {
        let _ = driver.join();
    }
    // Everything in flight has been written: drop this connection's entry
    // and close the socket, so the peer sees EOF even after a protocol
    // violation and no duplicated descriptor outlives the connection.
    if let Some(socket) = shared.sockets.lock().unwrap().remove(&id) {
        let _ = socket.shutdown(Shutdown::Both);
    }
}

/// The reader loop: handshake, then one request frame at a time until the
/// peer hangs up, breaks protocol, or asks for shutdown.
fn read_requests(
    stream: &TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    handle: &MuxHandle,
    shared: &Arc<ServerShared>,
) {
    let mut read_half = match stream.try_clone() {
        Ok(s) => BufReader::with_capacity(READ_BUFFER, s),
        Err(_) => return,
    };
    // Handshake: the first frame must be a matching Hello.
    match read_frame(&mut read_half) {
        Ok(Some(payload)) => match Request::decode(&payload) {
            Ok(Request::Hello { magic, version }) if magic == MAGIC && version == VERSION => {
                if send(writer, &Response::Hello { version: VERSION }).is_err() {
                    return;
                }
            }
            _ => return,
        },
        _ => return,
    }
    let mut statements: HashMap<u64, PreparedQuery> = HashMap::new();
    let mut next_statement: u64 = 1;
    loop {
        let payload = match read_frame(&mut read_half) {
            Ok(Some(payload)) => payload,
            // Clean EOF or broken frame: either way the conversation is
            // over. A decode error below still gets a best-effort error
            // frame; a transport error cannot.
            Ok(None) | Err(_) => return,
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // Correlation id 0 is reserved for connection-level errors.
                let _ = send(
                    writer,
                    &Response::Error {
                        id: 0,
                        error: MrqError::Internal(format!("protocol error: {e}")),
                    },
                );
                return;
            }
        };
        match request {
            Request::Hello { .. } => {
                let _ = send(
                    writer,
                    &Response::Error {
                        id: 0,
                        error: MrqError::Internal("unexpected second handshake".into()),
                    },
                );
                return;
            }
            Request::Query {
                id,
                streamed,
                strategy,
                options,
                expr,
            } => {
                if streamed {
                    let stream = shared.provider.submit_stream(expr, strategy, options);
                    spawn_stream_task(handle, writer, id, stream);
                } else {
                    let query = shared.provider.submit(expr, strategy, options);
                    spawn_unary_task(handle, writer, id, query);
                }
            }
            Request::Prepare { id, strategy, expr } => {
                let reply = match shared.provider.prepare(expr, strategy) {
                    Ok(prepared) => {
                        let statement = next_statement;
                        next_statement += 1;
                        let param_slots = prepared.param_slots() as u64;
                        statements.insert(statement, prepared);
                        Response::Prepared {
                            id,
                            statement,
                            param_slots,
                        }
                    }
                    Err(error) => Response::Error { id, error },
                };
                if send(writer, &reply).is_err() {
                    return;
                }
            }
            Request::Execute {
                id,
                statement,
                streamed,
                options,
                bindings,
            } => match statements.get(&statement) {
                Some(prepared) => {
                    if streamed {
                        let stream = prepared.submit_stream(&bindings, options);
                        spawn_stream_task(handle, writer, id, stream);
                    } else {
                        let query = prepared.submit(&bindings, options);
                        spawn_unary_task(handle, writer, id, query);
                    }
                }
                None => {
                    let reply = Response::Error {
                        id,
                        error: MrqError::Internal(format!("unknown statement handle {statement}")),
                    };
                    if send(writer, &reply).is_err() {
                        return;
                    }
                }
            },
            Request::CloseStatement { statement } => {
                statements.remove(&statement);
            }
            Request::Shutdown => {
                shared.initiate_shutdown();
                return;
            }
        }
    }
}

/// Injects a poll task for a unary query: resolve the handle, write one
/// `Rows` (or `Error`) frame, done.
fn spawn_unary_task(
    handle: &MuxHandle,
    writer: &Arc<Mutex<TcpStream>>,
    id: u64,
    query: QueryHandle,
) {
    let writer = Arc::clone(writer);
    let mut query = Some(query);
    handle.spawn(Box::new(move |cx| {
        let Some(inner) = query.as_mut() else {
            return Poll::Ready(());
        };
        match Pin::new(inner).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(result) => {
                let reply = match result {
                    Ok(output) => Response::Rows {
                        id,
                        schema: output.schema,
                        rows: output.rows,
                    },
                    Err(error) => Response::Error { id, error },
                };
                let _ = send(&writer, &reply);
                query = None;
                Poll::Ready(())
            }
        }
    }));
}

/// Injects a poll task for a streamed query: write each batch as it
/// publishes, then `End` or a trailing `Error`. A failed socket write drops
/// the stream, whose `Drop` cancels the query — the network mirror of a
/// dropped in-process `QueryStream`.
fn spawn_stream_task(
    handle: &MuxHandle,
    writer: &Arc<Mutex<TcpStream>>,
    id: u64,
    stream: QueryStream,
) {
    let writer = Arc::clone(writer);
    let mut stream = Some(stream);
    handle.spawn(Box::new(move |cx| {
        let Some(inner) = stream.as_mut() else {
            return Poll::Ready(());
        };
        loop {
            match inner.poll_next_batch(cx) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(Some(Ok(batch))) => {
                    if send(&writer, &Response::Batch { id, rows: batch }).is_err() {
                        stream = None;
                        return Poll::Ready(());
                    }
                }
                Poll::Ready(Some(Err(error))) => {
                    let _ = send(&writer, &Response::Error { id, error });
                    stream = None;
                    return Poll::Ready(());
                }
                Poll::Ready(None) => {
                    let _ = send(&writer, &Response::End { id });
                    stream = None;
                    return Poll::Ready(());
                }
            }
        }
    }));
}
