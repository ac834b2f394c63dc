//! A thin blocking client for the frame protocol.
//!
//! Used by `loadgen`, `memsync-top`, the loopback e2e tests, and
//! `memsync-benchmark`. Connections are built through [`Client::builder`]:
//! the builder carries socket deadlines and the busy-retry budget, and
//! `connect` performs the `Hello` handshake before handing the connection
//! over — so a [`Client`] in your hands talks to a server of its own
//! [`PROTOCOL_VERSION`] and knows its serving geometry
//! ([`Client::server`]).
//!
//! Failures are typed ([`ClientError`]): protocol violations, server-side
//! errors, exhausted backpressure retries, and locally validated misuse
//! (e.g. a [`Client::kill_shard`] index outside the server's shard
//! count) are distinct variants, not stringly `io::Error`s.

use crate::frame::{
    write_frame, FrameReader, Request, Response, ServerHello, SubmitOptions, PROTOCOL_VERSION,
};
use crate::snapshot::StatsSnapshot;
use memsync_netapp::fib::Route;
use memsync_netapp::Ipv4Packet;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything that can go wrong between a client and a server.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, read, write, deadline expiry).
    Io(io::Error),
    /// The peer violated the frame protocol: garbage bytes, an
    /// unexpected response type, or a close mid-response.
    Protocol(String),
    /// The server refused the request with a typed error frame.
    Server(String),
    /// The handshake failed: the peer refused this client's protocol
    /// version or answered with another one.
    Unsupported(String),
    /// The server answered `Busy` more times than the configured retry
    /// budget allows; nothing from the last attempt was enqueued.
    Busy {
        /// First full shard named by the final `Busy` response.
        shard: u16,
        /// Attempts made (initial + retries).
        attempts: u32,
    },
    /// Local validation: the shard index does not exist on the server
    /// this connection talks to. Nothing was sent.
    ShardOutOfRange {
        /// The requested shard index.
        shard: u16,
        /// The server's shard count ([`ServerHello::shards`]).
        shards: u16,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unsupported(m) => write!(f, "handshake failed: {m}"),
            ClientError::Busy { shard, attempts } => write!(
                f,
                "server busy (shard {shard} full) after {attempts} attempts"
            ),
            ClientError::ShardOutOfRange { shard, shards } => write!(
                f,
                "shard {shard} out of range: the server has {shards} shards"
            ),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Configures and opens [`Client`] connections.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    retries: u32,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            read_timeout: None,
            write_timeout: None,
            retries: 32,
        }
    }
}

impl ClientBuilder {
    /// Socket read deadline (default: none — block forever). A receive
    /// that times out fails with [`ClientError::Io`]; retrying it with
    /// [`Client::submit_recv`] resumes the pending response where the
    /// timeout cut it off.
    #[must_use]
    pub fn read_timeout(mut self, t: Duration) -> ClientBuilder {
        self.read_timeout = Some(t);
        self
    }

    /// Socket write deadline (default: none).
    #[must_use]
    pub fn write_timeout(mut self, t: Duration) -> ClientBuilder {
        self.write_timeout = Some(t);
        self
    }

    /// How many `Busy` responses [`Client::submit`] absorbs (with bounded
    /// exponential backoff) before giving up. Default 32.
    #[must_use]
    pub fn retries(mut self, n: u32) -> ClientBuilder {
        self.retries = n;
        self
    }

    /// Connects and performs the `Hello` handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on socket failures; [`ClientError::Unsupported`]
    /// when the peer refuses this client's version with an error frame (as
    /// a server of another version, or one that does not know `Hello`,
    /// does) or answers with another version; [`ClientError::Protocol`] on
    /// garbage.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            frames: FrameReader::new(),
            writer: BufWriter::new(stream),
            encode_buf: Vec::new(),
            hello: ServerHello::default(),
            retries: self.retries,
        };
        match client.roundtrip(&Request::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })? {
            Response::Hello(h) if h.version == PROTOCOL_VERSION => {
                client.hello = h;
                Ok(client)
            }
            Response::Hello(h) => Err(ClientError::Unsupported(format!(
                "server answered protocol v{} but this client speaks v{PROTOCOL_VERSION}",
                h.version
            ))),
            Response::Error(e) => Err(ClientError::Unsupported(e)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to hello: {other:?}"
            ))),
        }
    }
}

/// One blocking connection to a memsync-serve instance, past its
/// handshake.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    /// The connection's one frame reader: a response cut off by a read
    /// timeout resumes on the next receive.
    frames: FrameReader,
    writer: BufWriter<TcpStream>,
    /// Reusable request encode scratch: a stream of same-size batches
    /// serializes with zero allocations per submit.
    encode_buf: Vec<u8>,
    hello: ServerHello,
    retries: u32,
}

/// The typed outcome of a route mutation ([`Client::route_add`],
/// [`Client::route_withdraw`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteUpdate {
    /// Table generation that carries the mutation. The response arrives
    /// only after every shard acknowledged this generation's drain
    /// barrier, so traffic submitted afterwards classifies against the
    /// new table.
    pub generation: u64,
    /// Routes in the table after the mutation.
    pub routes: u32,
    /// Entries of the request that actually changed the table
    /// (withdrawing an absent prefix does not count).
    pub applied: u32,
}

/// Totals reported back for a submitted batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Packets the service forwarded.
    pub forwarded: u32,
    /// Packets the service dropped (TTL expiry or FIB miss).
    pub dropped: u32,
    /// Verify-mode frame mismatches (should always be zero).
    pub mismatches: u32,
    /// `Busy` responses absorbed before the batch was accepted.
    pub busy_retries: u32,
}

impl Client {
    /// Starts building a connection.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Connects with default options (no deadlines, 32 busy retries).
    ///
    /// # Errors
    ///
    /// See [`ClientBuilder::connect`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::builder().connect(addr)
    }

    /// What the server declared at connect time: its protocol version,
    /// the serving backend, and the shard/egress/route geometry.
    pub fn server(&self) -> &ServerHello {
        &self.hello
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`ClientError::Protocol`] when the server closes
    /// mid-response or replies with garbage.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.submit_recv()
    }

    /// Encodes `req` into the reusable scratch and writes it.
    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        req.encode_into(&mut self.encode_buf);
        Ok(write_frame(&mut self.writer, &self.encode_buf)?)
    }

    /// Submits one batch without retrying `Busy` — the raw response, for
    /// open-loop callers that implement their own pacing.
    ///
    /// # Errors
    ///
    /// I/O failures or a garbled response.
    pub fn submit_once(
        &mut self,
        packets: &[Ipv4Packet],
        options: SubmitOptions,
    ) -> Result<Response, ClientError> {
        self.submit_send(packets, options)?;
        self.submit_recv()
    }

    /// Sends one submit frame without waiting for its response — the
    /// pipelined half of [`Client::submit_once`]. A fan-in driver (one
    /// thread multiplexing many connections, like `loadgen --ramp`) sends
    /// on every connection first and then collects the responses with
    /// [`Client::submit_recv`], keeping all connections in flight at once
    /// instead of serializing round trips. Responses arrive in send order
    /// on each connection; interleaving other requests between a
    /// `submit_send` and its `submit_recv` would desync the pairing.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn submit_send(
        &mut self,
        packets: &[Ipv4Packet],
        options: SubmitOptions,
    ) -> Result<(), ClientError> {
        // Encode straight from the caller's slice into the reusable
        // scratch — no Vec<Ipv4Packet> clone, no per-submit allocation.
        self.send(&Request::Submit { options, packets })
    }

    /// Receives the next response: the answer to an earlier
    /// [`Client::submit_send`]. Every response on the connection is read
    /// here, through the connection's one [`FrameReader`], so a receive
    /// that timed out (see [`ClientBuilder::read_timeout`]) can be
    /// retried and resumes the pending response instead of re-entering
    /// the stream mid-frame.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`ClientError::Protocol`] when the server closes
    /// mid-response or replies with garbage.
    pub fn submit_recv(&mut self) -> Result<Response, ClientError> {
        match self.frames.read(&mut self.reader)? {
            Some(payload) => {
                Response::decode(payload).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            None => Err(ClientError::Protocol(
                "server closed before responding".into(),
            )),
        }
    }

    /// Submits a batch, absorbing `Busy` with bounded exponential backoff
    /// (1ms doubling to 64ms) up to the builder-configured retry budget.
    ///
    /// # Errors
    ///
    /// I/O failures, [`ClientError::Server`] on a server error frame, or
    /// [`ClientError::Busy`] once retries are exhausted.
    pub fn submit(
        &mut self,
        packets: &[Ipv4Packet],
        options: SubmitOptions,
    ) -> Result<BatchResult, ClientError> {
        let mut backoff = Duration::from_millis(1);
        let mut busy_retries = 0u32;
        loop {
            match self.submit_once(packets, options)? {
                Response::Batch {
                    forwarded,
                    dropped,
                    mismatches,
                } => {
                    return Ok(BatchResult {
                        forwarded,
                        dropped,
                        mismatches,
                        busy_retries,
                    })
                }
                Response::Busy(shard) => {
                    if busy_retries >= self.retries {
                        return Err(ClientError::Busy {
                            shard,
                            attempts: busy_retries + 1,
                        });
                    }
                    busy_retries += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(64));
                }
                Response::Error(e) => return Err(ClientError::Server(e)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response to submit: {other:?}"
                    )))
                }
            }
        }
    }

    /// Fetches and decodes the stats frame.
    ///
    /// # Errors
    ///
    /// I/O failures, a non-stats response, or a stats document that does
    /// not decode (both map to [`ClientError::Protocol`]).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(doc) => doc
                .parse::<StatsSnapshot>()
                .map_err(|e| ClientError::Protocol(e.to_string())),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to stats: {other:?}"
            ))),
        }
    }

    /// Drains the service: refuses new submits, waits until every shard
    /// is quiescent.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`ClientError::Server`] when the server reports a
    /// drain timeout.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Drain)? {
            Response::Drained => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to drain: {other:?}"
            ))),
        }
    }

    /// Drains and shuts the service down.
    ///
    /// # Errors
    ///
    /// I/O failures or an unexpected response.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to shutdown: {other:?}"
            ))),
        }
    }

    /// Sends one control frame and decodes the `RouteUpdated` response.
    fn control_roundtrip(&mut self, req: &Request) -> Result<RouteUpdate, ClientError> {
        match self.roundtrip(req)? {
            Response::RouteUpdated {
                generation,
                routes,
                applied,
            } => Ok(RouteUpdate {
                generation,
                routes,
                applied,
            }),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to {}: {other:?}",
                req.name()
            ))),
        }
    }

    /// Inserts (or re-targets) a batch of routes in the live FIB; a route
    /// of `0/0` re-targets the default. The call returns once the new
    /// table generation is visible to every shard (the server runs its
    /// drain barrier before responding).
    ///
    /// # Errors
    ///
    /// I/O failures; [`ClientError::Server`] on malformed routes, a
    /// draining server, or a table the flat classifier cannot encode (the
    /// message names the limit).
    pub fn route_add(&mut self, routes: &[Route]) -> Result<RouteUpdate, ClientError> {
        self.control_roundtrip(&Request::RouteAdd(routes.to_vec()))
    }

    /// Withdraws a batch of `(prefix, len)` entries from the live FIB.
    /// Absent prefixes are counted out of [`RouteUpdate::applied`]
    /// rather than erroring, so withdraw is idempotent.
    ///
    /// # Errors
    ///
    /// See [`Client::route_add`].
    pub fn route_withdraw(&mut self, prefixes: &[(u32, u8)]) -> Result<RouteUpdate, ClientError> {
        self.control_roundtrip(&Request::RouteWithdraw(prefixes.to_vec()))
    }

    /// Fault injection: asks the service to crash shard `shard` on its
    /// next activation (it restarts in place). The index is
    /// validated against the server's [`ServerHello::shards`] before
    /// anything hits the wire.
    ///
    /// # Errors
    ///
    /// [`ClientError::ShardOutOfRange`] locally for a bad index; I/O
    /// failures or [`ClientError::Server`] otherwise.
    pub fn kill_shard(&mut self, shard: u16) -> Result<(), ClientError> {
        if shard >= self.hello.shards {
            return Err(ClientError::ShardOutOfRange {
                shard,
                shards: self.hello.shards,
            });
        }
        match self.roundtrip(&Request::Kill(shard))? {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to kill: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_errors_render_their_context() {
        let e = ClientError::ShardOutOfRange {
            shard: 9,
            shards: 4,
        };
        assert_eq!(
            e.to_string(),
            "shard 9 out of range: the server has 4 shards"
        );
        let e = ClientError::Busy {
            shard: 2,
            attempts: 5,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.to_string().contains("5 attempts"));
        let e: ClientError = io::Error::new(io::ErrorKind::TimedOut, "deadline").into();
        assert!(matches!(e, ClientError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
