//! A blocking TCP client for the MRQ wire protocol.
//!
//! The client speaks the frame grammar defined in `mrq-protocol` (see
//! `docs/SERVING.md` for the specification) over one `std::net::TcpStream`.
//! Many queries can be in flight on a single connection: every submission
//! gets a [`Ticket`] carrying its correlation id, response frames are
//! demultiplexed by that id, and frames for tickets the caller is not
//! currently waiting on are stashed until asked for. Three front ends:
//!
//! * [`Client::query`] — blocking unary round trip, returns the complete
//!   [`QueryResult`];
//! * [`Client::submit`] + [`Client::wait`] — pipelined unary queries: submit
//!   many tickets, then collect them in any order;
//! * [`Client::query_stream`] / [`Client::execute_stream`] — an iterator
//!   over row batches written by the server as the engine publishes them.
//!
//! Prepared statements mirror the in-process API: [`Client::prepare`] once,
//! then [`Client::execute`] with positional bindings (empty bindings re-use
//! the constants captured at prepare time).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_common::{MrqError, Schema, Value};
use mrq_core::{QueryOptions, Strategy};
use mrq_expr::Expr;
use mrq_protocol::{
    read_frame, write_frame, ProtocolError, Request, Response, READ_BUFFER, VERSION,
};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server sent bytes this client cannot parse, or a frame that
    /// makes no sense in the current state.
    Protocol(ProtocolError),
    /// The query itself failed server-side — the typed engine error,
    /// exactly as in-process execution would have returned it (including
    /// `Overloaded` sheds with the admission numbers).
    Query(MrqError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// The complete result of a unary query: what `Provider::execute` returns,
/// minus the work counters (which stay server-side).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Result schema.
    pub schema: Schema,
    /// All result rows.
    pub rows: Vec<Vec<Value>>,
}

/// A claim on an in-flight unary query; redeem with [`Client::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    id: u64,
}

/// A prepared statement handle: server-side compiled plan plus the number
/// of positional parameter slots it exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Statement {
    id: u64,
    param_slots: usize,
}

impl Statement {
    /// Number of positional parameter slots ([`Client::execute`] bindings
    /// must be empty or exactly this long).
    pub fn param_slots(&self) -> usize {
        self.param_slots
    }
}

/// What has arrived so far for one correlation id.
#[derive(Default)]
struct Inbox {
    batches: Vec<Vec<Vec<Value>>>,
    terminal: Option<Terminal>,
}

enum Terminal {
    Rows {
        schema: Schema,
        rows: Vec<Vec<Value>>,
    },
    End,
    Error(MrqError),
    Prepared {
        statement: u64,
        param_slots: u64,
    },
}

/// A connection to an MRQ server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    pending: HashMap<u64, Inbox>,
}

impl Client {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::with_capacity(READ_BUFFER, writer.try_clone()?);
        let mut client = Client {
            reader,
            writer,
            next_id: 1,
            pending: HashMap::new(),
        };
        client.send(&Request::hello())?;
        match client.read_response()? {
            Response::Hello { version } if version == VERSION => Ok(client),
            Response::Hello { version } => Err(ClientError::Protocol(ProtocolError::Invalid(
                format!("server speaks protocol version {version}, client {VERSION}"),
            ))),
            _ => Err(ClientError::Protocol(ProtocolError::Invalid(
                "expected a Hello response".into(),
            ))),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id, Inbox::default());
        id
    }

    /// Routes one response frame into the inbox of its correlation id.
    fn dispatch(&mut self, response: Response) -> Result<(), ClientError> {
        let (id, action): (u64, fn(&mut Inbox, Response)) = match &response {
            Response::Rows { id, .. }
            | Response::Batch { id, .. }
            | Response::End { id }
            | Response::Error { id, .. }
            | Response::Prepared { id, .. } => (*id, |inbox, response| match response {
                Response::Rows { schema, rows, .. } => {
                    inbox.terminal = Some(Terminal::Rows { schema, rows });
                }
                Response::Batch { rows, .. } => inbox.batches.push(rows),
                Response::End { .. } => inbox.terminal = Some(Terminal::End),
                Response::Error { error, .. } => inbox.terminal = Some(Terminal::Error(error)),
                Response::Prepared {
                    statement,
                    param_slots,
                    ..
                } => {
                    inbox.terminal = Some(Terminal::Prepared {
                        statement,
                        param_slots,
                    });
                }
                Response::Hello { .. } => unreachable!(),
            }),
            Response::Hello { .. } => {
                return Err(ClientError::Protocol(ProtocolError::Invalid(
                    "unexpected Hello mid-conversation".into(),
                )))
            }
        };
        // Correlation id 0 carries connection-level errors the server
        // raises outside any query (e.g. a protocol violation on our side).
        if id == 0 {
            if let Response::Error { error, .. } = response {
                return Err(ClientError::Query(error));
            }
            return Err(ClientError::Protocol(ProtocolError::Invalid(
                "frame with reserved correlation id 0".into(),
            )));
        }
        match self.pending.get_mut(&id) {
            Some(inbox) => {
                action(inbox, response);
                Ok(())
            }
            None => Err(ClientError::Protocol(ProtocolError::Invalid(format!(
                "frame for unknown correlation id {id}"
            )))),
        }
    }

    /// Blocks until `id`'s terminal frame has arrived, stashing frames for
    /// other tickets along the way.
    fn wait_terminal(&mut self, id: u64) -> Result<Terminal, ClientError> {
        loop {
            if let Some(inbox) = self.pending.get_mut(&id) {
                if let Some(terminal) = inbox.terminal.take() {
                    self.pending.remove(&id);
                    return Ok(terminal);
                }
            }
            let response = self.read_response()?;
            self.dispatch(response)?;
        }
    }

    /// Submits a unary query without waiting; redeem the [`Ticket`] with
    /// [`Client::wait`]. Many tickets can be outstanding at once — this is
    /// how one connection keeps the server's admission gate busy.
    pub fn submit(
        &mut self,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> Result<Ticket, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Query {
            id,
            streamed: false,
            strategy,
            options,
            expr,
        })?;
        Ok(Ticket { id })
    }

    /// Blocks until the ticket's query resolves, in completion order
    /// relative to other tickets (frames for them are stashed, not lost).
    pub fn wait(&mut self, ticket: Ticket) -> Result<QueryResult, ClientError> {
        match self.wait_terminal(ticket.id)? {
            Terminal::Rows { schema, rows } => Ok(QueryResult { schema, rows }),
            Terminal::Error(error) => Err(ClientError::Query(error)),
            _ => Err(ClientError::Protocol(ProtocolError::Invalid(
                "stream frames for a unary ticket".into(),
            ))),
        }
    }

    /// Blocking unary round trip: submit, wait, return the full result.
    pub fn query(
        &mut self,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> Result<QueryResult, ClientError> {
        let ticket = self.submit(expr, strategy, options)?;
        self.wait(ticket)
    }

    /// Submits a streamed query and returns an iterator over its row
    /// batches. Batches arrive in order; dropping the iterator (or the
    /// whole client) mid-stream disconnects, which cancels the query
    /// server-side.
    pub fn query_stream(
        &mut self,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> Result<ClientStream<'_>, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Query {
            id,
            streamed: true,
            strategy,
            options,
            expr,
        })?;
        Ok(ClientStream {
            client: self,
            id,
            done: false,
        })
    }

    /// Compiles and caches a statement server-side; constants in `expr`
    /// are canonicalised into parameter slots exactly as
    /// `Provider::prepare` does.
    pub fn prepare(&mut self, expr: Expr, strategy: Strategy) -> Result<Statement, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Prepare { id, strategy, expr })?;
        match self.wait_terminal(id)? {
            Terminal::Prepared {
                statement,
                param_slots,
            } => Ok(Statement {
                id: statement,
                param_slots: param_slots as usize,
            }),
            Terminal::Error(error) => Err(ClientError::Query(error)),
            _ => Err(ClientError::Protocol(ProtocolError::Invalid(
                "non-Prepared terminal for a prepare request".into(),
            ))),
        }
    }

    /// Executes a prepared statement with positional bindings (empty
    /// bindings keep the constants captured at prepare time), blocking for
    /// the full result.
    pub fn execute(
        &mut self,
        statement: Statement,
        bindings: &[Value],
        options: QueryOptions,
    ) -> Result<QueryResult, ClientError> {
        let ticket = self.execute_submit(statement, bindings, options)?;
        self.wait(ticket)
    }

    /// Pipelined prepared execution: returns a [`Ticket`] like
    /// [`Client::submit`].
    pub fn execute_submit(
        &mut self,
        statement: Statement,
        bindings: &[Value],
        options: QueryOptions,
    ) -> Result<Ticket, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Execute {
            id,
            statement: statement.id,
            streamed: false,
            options,
            bindings: bindings.to_vec(),
        })?;
        Ok(Ticket { id })
    }

    /// Streamed prepared execution; see [`Client::query_stream`].
    pub fn execute_stream(
        &mut self,
        statement: Statement,
        bindings: &[Value],
        options: QueryOptions,
    ) -> Result<ClientStream<'_>, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Execute {
            id,
            statement: statement.id,
            streamed: true,
            options,
            bindings: bindings.to_vec(),
        })?;
        Ok(ClientStream {
            client: self,
            id,
            done: false,
        })
    }

    /// Drops a prepared statement server-side (fire-and-forget).
    pub fn close_statement(&mut self, statement: Statement) -> Result<(), ClientError> {
        self.send(&Request::CloseStatement {
            statement: statement.id,
        })
    }

    /// Asks the server process to shut down cleanly (used by the load
    /// generator and the CI smoke test).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)
    }
}

/// An iterator over the row batches of one streamed query.
///
/// Yields `Ok(batch)` per batch, then ends — or yields one `Err` (the
/// query's trailing error) and then ends. Dropping it mid-stream leaves
/// remaining frames to be drained lazily; dropping the whole [`Client`]
/// disconnects, which cancels the query server-side.
pub struct ClientStream<'c> {
    client: &'c mut Client,
    id: u64,
    done: bool,
}

impl ClientStream<'_> {
    /// Blocks for the next batch: `Ok(Some(rows))` per batch, `Ok(None)`
    /// at end of stream, `Err` for the trailing in-band error (terminal).
    pub fn next_batch(&mut self) -> Result<Option<Vec<Vec<Value>>>, ClientError> {
        if self.done {
            return Ok(None);
        }
        loop {
            if let Some(inbox) = self.client.pending.get_mut(&self.id) {
                if !inbox.batches.is_empty() {
                    return Ok(Some(inbox.batches.remove(0)));
                }
                match inbox.terminal.take() {
                    Some(Terminal::End) => {
                        self.done = true;
                        self.client.pending.remove(&self.id);
                        return Ok(None);
                    }
                    Some(Terminal::Error(error)) => {
                        self.done = true;
                        self.client.pending.remove(&self.id);
                        return Err(ClientError::Query(error));
                    }
                    Some(_) => {
                        self.done = true;
                        self.client.pending.remove(&self.id);
                        return Err(ClientError::Protocol(ProtocolError::Invalid(
                            "unary frames for a streamed ticket".into(),
                        )));
                    }
                    None => {}
                }
            }
            let response = self.client.read_response()?;
            self.client.dispatch(response)?;
        }
    }
}

impl Iterator for ClientStream<'_> {
    type Item = Result<Vec<Vec<Value>>, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_batch() {
            Ok(Some(batch)) => Some(Ok(batch)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}
