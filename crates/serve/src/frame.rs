//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a big-endian `u32` payload length followed by the
//! payload; the first payload byte is the frame type. Request types live
//! below `0x80`, response types at or above it. The full layout is
//! documented in EXPERIMENTS.md ("Serving traffic").
//!
//! **Protocol v2 (this build)** is negotiated at connect time: the client
//! speaks first with [`Request::Hello`] carrying the version range it
//! supports, and the server answers [`Response::Hello`] with the settled
//! version plus a [`ServerHello`] capability block (which forwarding
//! backends the build supports, which one is serving, shard count, egress
//! width, FIB routes). Any other first request is refused with a typed
//! [`Response::Error`] and a clean close — never a frame desync. A v1
//! client (pre-`Hello`) talking to a v2 server therefore gets an explicit
//! error it already knows how to decode, and a v2 client talking to a v1
//! server maps the v1 `unknown request` error onto a typed
//! `Unsupported` connect failure.
//!
//! Packets travel as the exact 20-byte header [`Ipv4Packet::to_bytes`]
//! emits; the decode side uses the strict [`Ipv4Packet::from_bytes`]
//! (IHL and checksum validated), so a corrupted header is rejected at the
//! frame boundary instead of flowing into a shard.

use crate::backend::BackendKind;
use memsync_netapp::fib::Route;
use memsync_netapp::packet::ParsePacketError;
use memsync_netapp::Ipv4Packet;
use std::io::{self, Read, Write};

/// The newest protocol version this build speaks. Version 1 was the PR 3
/// wire protocol without the connect-time handshake; version 2 added
/// [`Request::Hello`]/[`Response::Hello`] negotiation, [`SubmitOptions`]
/// flags, and backend capability bits; version 3 added the live control
/// plane ([`Request::RouteAdd`] / [`Request::RouteWithdraw`] /
/// [`Request::SwapDefault`] behind [`CAP_CONTROL`]).
pub const PROTOCOL_VERSION: u16 = 3;

/// The oldest protocol version this build still serves. A v2 client
/// (no control frames) settles on version 2 and is served exactly as
/// before; control frames on a settled-v2 connection are refused with a
/// typed [`Response::Error`] — a frame every protocol version decodes.
pub const PROTOCOL_MIN_SUPPORTED: u16 = 2;

/// Settles the protocol version for a client advertising the closed
/// range `[client_min, client_max]`: the highest version both sides
/// speak, or `None` when the ranges don't overlap.
pub fn settle_version(client_min: u16, client_max: u16) -> Option<u16> {
    let settled = client_max.min(PROTOCOL_VERSION);
    (client_min <= settled && settled >= PROTOCOL_MIN_SUPPORTED).then_some(settled)
}

/// Hard ceiling on a frame payload (1 MiB) — a malformed length prefix
/// must not allocate unbounded memory.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Most packets one submit frame can carry. Two limits apply — the u16
/// count field (65535) and the [`MAX_PAYLOAD`] frame cap (the largest
/// submit header is 12 bytes — type, flags, optional 8-byte span id,
/// 2-byte count — plus 20 bytes per packet) — and the frame cap is
/// the tighter one. Encoding a larger batch panics on the sending side
/// instead of truncating the count on the wire.
pub const MAX_SUBMIT_PACKETS: usize = (MAX_PAYLOAD - 12) / 20;

/// Submit flag bit: run the per-packet verify mode (software pipeline
/// model + FIB oracle) on this batch.
pub const FLAG_VERIFY: u8 = 0x01;

/// Submit flag bit: the submit carries a client-assigned 8-byte span id
/// between the flags byte and the packet count (request tracing). Only
/// valid against servers advertising [`CAP_TRACING`]; the client refuses
/// locally otherwise.
pub const FLAG_SPAN: u8 = 0x02;

/// Hello capability bit: the server supports request tracing (span-tagged
/// submits via [`FLAG_SPAN`]) and [`Request::StatsStream`]. Lives above
/// the backend capability bits ([`crate::backend::CAP_SIM`] and friends).
pub const CAP_TRACING: u8 = 0x08;

/// Hello capability bit: the server supports the protocol-v3 live
/// control plane — [`Request::RouteAdd`], [`Request::RouteWithdraw`],
/// and [`Request::SwapDefault`] mutate the FIB at runtime via
/// RCU-style epoch-swapped tables. Only usable on connections that
/// settled version ≥ 3; the client refuses locally otherwise.
pub const CAP_CONTROL: u8 = 0x10;

/// Most routes one control frame ([`Request::RouteAdd`] /
/// [`Request::RouteWithdraw`]) can carry — the wire count field is a
/// `u16`. Encoding a larger mutation panics on the sending side instead
/// of truncating the count on the wire.
pub const MAX_CONTROL_ROUTES: usize = u16::MAX as usize;

/// Typed per-submit options — the wire flags byte, decoded. Replaces the
/// bare `verify: bool` of protocol v1 so new flags extend the struct
/// instead of sprouting positional booleans through every layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Cross-check every packet against the software pipeline model and
    /// FIB oracle; mismatches come back in [`Response::Batch`].
    pub verify: bool,
    /// Client-assigned span id for request tracing ([`FLAG_SPAN`] on the
    /// wire). `None` leaves the batch untagged; a tracing-enabled server
    /// then assigns its own id (high bit set).
    pub span_id: Option<u64>,
}

impl SubmitOptions {
    /// Default options: no verification, no span tag.
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Sets the per-packet verify mode.
    #[must_use]
    pub fn verify(mut self, on: bool) -> SubmitOptions {
        self.verify = on;
        self
    }

    /// Tags the batch with a client-assigned span id.
    #[must_use]
    pub fn span(mut self, id: u64) -> SubmitOptions {
        self.span_id = Some(id);
        self
    }

    /// The wire flags byte.
    pub fn to_flags(self) -> u8 {
        let mut flags = 0;
        if self.verify {
            flags |= FLAG_VERIFY;
        }
        if self.span_id.is_some() {
            flags |= FLAG_SPAN;
        }
        flags
    }

    /// Decodes a wire flags byte (unknown bits are ignored for forward
    /// compatibility within a negotiated version). The span id itself
    /// travels in the submit body, not the flags byte — the submit
    /// decoder fills it in when [`FLAG_SPAN`] is set.
    pub fn from_flags(flags: u8) -> SubmitOptions {
        SubmitOptions {
            verify: flags & FLAG_VERIFY != 0,
            span_id: None,
        }
    }
}

/// What a server tells a client at connect time: the settled protocol
/// version and the serving capabilities the client may rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// The protocol version the server settled on (currently always
    /// [`PROTOCOL_VERSION`]).
    pub version: u16,
    /// Capability bits: which forwarding backends this build supports
    /// (see [`crate::backend::CAP_SIM`] and friends).
    pub capabilities: u8,
    /// The backend actually serving this instance.
    pub backend: BackendKind,
    /// Shard count — [`Request::Kill`] indices are validated against it
    /// client-side.
    pub shards: u16,
    /// Egress consumer count of the compiled forwarding application.
    pub egress: u16,
    /// Route count of the server's synthetic FIB (the loadgen must
    /// generate against the same table).
    pub routes: u32,
}

/// A request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Protocol negotiation — must be the first frame on a connection.
    /// Carries the closed range of protocol versions the client speaks;
    /// the server settles on one ([`Response::Hello`]) or refuses with a
    /// typed error and closes.
    Hello {
        /// Lowest protocol version the client accepts.
        min_version: u16,
        /// Highest protocol version the client accepts.
        max_version: u16,
    },
    /// Forward a batch of packets.
    Submit {
        /// Parsed packet headers, in submission order.
        packets: Vec<Ipv4Packet>,
        /// Typed per-submit options (verify mode, future flags).
        options: SubmitOptions,
    },
    /// Ask for the merged stats frame (JSON).
    Stats,
    /// Subscribe to pushed stats: the server sends a
    /// [`Response::StatsPush`] immediately and then roughly every
    /// `interval_ms` until the client sends any other frame (which is
    /// answered normally and ends the stream). Capability-gated behind
    /// [`CAP_TRACING`].
    StatsStream {
        /// Push interval in milliseconds (must be nonzero).
        interval_ms: u32,
    },
    /// Stop accepting new submits, let in-flight packets complete, reply
    /// [`Response::Drained`] once every shard is idle.
    Drain,
    /// Drain, then stop the whole service (the server process exits 0).
    Shutdown,
    /// Fault injection: make shard `shard` panic on its next activation
    /// (exercises the in-place restart path).
    Kill(u16),
    /// Control plane (v3): insert (or replace) a batch of routes. The
    /// server applies the whole batch to the trie oracle, compiles a
    /// fresh flat classifier, publishes it as a new table generation,
    /// and answers [`Response::RouteUpdated`] only after every shard has
    /// acknowledged the swap (the old generation is retired). A batch
    /// the classifier cannot encode (over 32767 distinct next hops or
    /// overflow blocks) is answered [`Response::Error`] and changes
    /// nothing.
    RouteAdd(Vec<Route>),
    /// Control plane (v3): withdraw a batch of routes by exact
    /// `prefix/len`. Absent routes are skipped (reflected in the
    /// response's `applied` count), not errors — withdraw is idempotent.
    RouteWithdraw(Vec<(u32, u8)>),
    /// Control plane (v3): atomically swap the default route's next hop
    /// (shorthand for a one-route `RouteAdd` of `0/0`).
    SwapDefault {
        /// The new next hop for the `0/0` route.
        next_hop: u32,
    },
}

/// A response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The settled protocol version and server capabilities (the answer
    /// to [`Request::Hello`]).
    Hello(ServerHello),
    /// Generic acknowledgement (shutdown, kill).
    Ok,
    /// A submit batch completed.
    Batch {
        /// Packets the oracle classified as forwarded.
        forwarded: u32,
        /// Packets dropped (TTL expiry or no route).
        dropped: u32,
        /// Verify-mode mismatches (0 when verify was off).
        mismatches: u32,
    },
    /// Backpressure: a target shard queue was full; *nothing* from the
    /// submit was enqueued. The payload names the first full shard.
    Busy(u16),
    /// The merged stats frame as a JSON document.
    Stats(String),
    /// One pushed stats document of an active [`Request::StatsStream`].
    /// Deliberately a distinct frame type from [`Response::Stats`]: a
    /// client stopping a stream sends a plain [`Request::Stats`] and
    /// discards pushes until the non-push `Stats` answer arrives, which
    /// marks the stream cleanly ended with no frame ambiguity.
    StatsPush(String),
    /// Drain completed: queues empty, shards idle.
    Drained,
    /// A control-plane mutation was published and the swap barrier
    /// completed (the answer to the v3 route frames).
    RouteUpdated {
        /// The table generation the mutation landed in. Strictly
        /// monotonic; a client can order concurrent mutations by it.
        generation: u64,
        /// Total routes in the published table.
        routes: u32,
        /// Mutations actually effected (a withdraw of an absent route
        /// does not count).
        applied: u32,
    },
    /// The request failed; nothing was silently dropped — the message
    /// says what happened.
    Error(String),
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeded [`MAX_PAYLOAD`] or the payload was
    /// structurally malformed.
    Malformed(String),
    /// A submitted packet header failed the strict parse.
    BadPacket(ParsePacketError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::BadPacket(e) => write!(f, "bad packet in submit: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---- request encode/decode -------------------------------------------

const REQ_SUBMIT: u8 = 0x01;
const REQ_STATS: u8 = 0x02;
const REQ_DRAIN: u8 = 0x03;
const REQ_SHUTDOWN: u8 = 0x04;
const REQ_KILL: u8 = 0x05;
const REQ_HELLO: u8 = 0x06;
const REQ_STATS_STREAM: u8 = 0x07;
const REQ_ROUTE_ADD: u8 = 0x08;
const REQ_ROUTE_WITHDRAW: u8 = 0x09;
const REQ_SWAP_DEFAULT: u8 = 0x0a;
const RSP_OK: u8 = 0x80;
const RSP_BATCH: u8 = 0x81;
const RSP_BUSY: u8 = 0x82;
const RSP_STATS: u8 = 0x83;
const RSP_DRAINED: u8 = 0x84;
const RSP_ERROR: u8 = 0x85;
const RSP_HELLO: u8 = 0x86;
const RSP_STATS_PUSH: u8 = 0x87;
const RSP_ROUTE_UPDATED: u8 = 0x88;

/// Validates a route's shape at the frame boundary: length in range and
/// no host bits, so a malformed control frame is rejected before it can
/// reach (and panic) the trie.
fn check_route(prefix: u32, len: u8) -> Result<(), FrameError> {
    if len > 32 {
        return Err(FrameError::Malformed(format!(
            "route prefix length {len} out of range"
        )));
    }
    if len < 32 && prefix & ((1u64 << (32 - len)) - 1) as u32 != 0 {
        return Err(FrameError::Malformed(format!(
            "host bits set in route {prefix:#010x}/{len}"
        )));
    }
    Ok(())
}

impl Request {
    /// The request's wire name (error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Submit { .. } => "submit",
            Request::Stats => "stats",
            Request::StatsStream { .. } => "stats-stream",
            Request::Drain => "drain",
            Request::Shutdown => "shutdown",
            Request::Kill(_) => "kill",
            Request::RouteAdd(_) => "route-add",
            Request::RouteWithdraw(_) => "route-withdraw",
            Request::SwapDefault { .. } => "swap-default",
        }
    }

    /// Whether this request is a v3 control-plane frame (gated behind a
    /// settled version ≥ 3 and [`CAP_CONTROL`]).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Request::RouteAdd(_) | Request::RouteWithdraw(_) | Request::SwapDefault { .. }
        )
    }

    /// Serializes the request payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello {
                min_version,
                max_version,
            } => {
                let mut v = vec![REQ_HELLO];
                v.extend_from_slice(&min_version.to_be_bytes());
                v.extend_from_slice(&max_version.to_be_bytes());
                v
            }
            Request::Submit { packets, options } => {
                let mut v = Vec::new();
                encode_submit_into(packets, *options, &mut v);
                v
            }
            Request::Stats => vec![REQ_STATS],
            Request::StatsStream { interval_ms } => {
                let mut v = vec![REQ_STATS_STREAM];
                v.extend_from_slice(&interval_ms.to_be_bytes());
                v
            }
            Request::Drain => vec![REQ_DRAIN],
            Request::Shutdown => vec![REQ_SHUTDOWN],
            Request::Kill(shard) => {
                let mut v = vec![REQ_KILL];
                v.extend_from_slice(&shard.to_be_bytes());
                v
            }
            Request::RouteAdd(routes) => {
                assert!(
                    routes.len() <= MAX_CONTROL_ROUTES,
                    "route-add of {} routes exceeds the {MAX_CONTROL_ROUTES}-route frame cap",
                    routes.len()
                );
                let mut v = Vec::with_capacity(3 + routes.len() * 9);
                v.push(REQ_ROUTE_ADD);
                v.extend_from_slice(&(routes.len() as u16).to_be_bytes());
                for r in routes {
                    v.extend_from_slice(&r.prefix.to_be_bytes());
                    v.push(r.len);
                    v.extend_from_slice(&r.next_hop.to_be_bytes());
                }
                v
            }
            Request::RouteWithdraw(prefixes) => {
                assert!(
                    prefixes.len() <= MAX_CONTROL_ROUTES,
                    "route-withdraw of {} routes exceeds the {MAX_CONTROL_ROUTES}-route frame cap",
                    prefixes.len()
                );
                let mut v = Vec::with_capacity(3 + prefixes.len() * 5);
                v.push(REQ_ROUTE_WITHDRAW);
                v.extend_from_slice(&(prefixes.len() as u16).to_be_bytes());
                for (prefix, len) in prefixes {
                    v.extend_from_slice(&prefix.to_be_bytes());
                    v.push(*len);
                }
                v
            }
            Request::SwapDefault { next_hop } => {
                let mut v = vec![REQ_SWAP_DEFAULT];
                v.extend_from_slice(&next_hop.to_be_bytes());
                v
            }
        }
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// Fails on unknown types, length mismatches, and (for submits) any
    /// packet header the strict parser rejects.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let (&ty, body) = payload
            .split_first()
            .ok_or_else(|| FrameError::Malformed("empty payload".into()))?;
        match ty {
            REQ_HELLO => {
                if body.len() != 4 {
                    return Err(FrameError::Malformed("hello wants 2 x u16".into()));
                }
                Ok(Request::Hello {
                    min_version: u16::from_be_bytes([body[0], body[1]]),
                    max_version: u16::from_be_bytes([body[2], body[3]]),
                })
            }
            REQ_SUBMIT => {
                let mut packets = Vec::new();
                let options = decode_submit_into(payload, &mut packets)?;
                Ok(Request::Submit { packets, options })
            }
            REQ_STATS => Ok(Request::Stats),
            REQ_STATS_STREAM => {
                if body.len() != 4 {
                    return Err(FrameError::Malformed("stats-stream wants a u32".into()));
                }
                Ok(Request::StatsStream {
                    interval_ms: u32::from_be_bytes(body.try_into().expect("checked")),
                })
            }
            REQ_DRAIN => Ok(Request::Drain),
            REQ_SHUTDOWN => Ok(Request::Shutdown),
            REQ_KILL => {
                if body.len() != 2 {
                    return Err(FrameError::Malformed("kill wants a u16 shard".into()));
                }
                Ok(Request::Kill(u16::from_be_bytes([body[0], body[1]])))
            }
            REQ_ROUTE_ADD => {
                if body.len() < 2 {
                    return Err(FrameError::Malformed("short route-add header".into()));
                }
                let count = u16::from_be_bytes([body[0], body[1]]) as usize;
                let bytes = &body[2..];
                if bytes.len() != count * 9 {
                    return Err(FrameError::Malformed(format!(
                        "route-add length {} != {count} routes x 9",
                        bytes.len()
                    )));
                }
                let mut routes = Vec::with_capacity(count);
                for chunk in bytes.chunks_exact(9) {
                    let prefix = u32::from_be_bytes(chunk[0..4].try_into().expect("checked"));
                    let len = chunk[4];
                    check_route(prefix, len)?;
                    routes.push(Route {
                        prefix,
                        len,
                        next_hop: u32::from_be_bytes(chunk[5..9].try_into().expect("checked")),
                    });
                }
                Ok(Request::RouteAdd(routes))
            }
            REQ_ROUTE_WITHDRAW => {
                if body.len() < 2 {
                    return Err(FrameError::Malformed("short route-withdraw header".into()));
                }
                let count = u16::from_be_bytes([body[0], body[1]]) as usize;
                let bytes = &body[2..];
                if bytes.len() != count * 5 {
                    return Err(FrameError::Malformed(format!(
                        "route-withdraw length {} != {count} routes x 5",
                        bytes.len()
                    )));
                }
                let mut prefixes = Vec::with_capacity(count);
                for chunk in bytes.chunks_exact(5) {
                    let prefix = u32::from_be_bytes(chunk[0..4].try_into().expect("checked"));
                    let len = chunk[4];
                    check_route(prefix, len)?;
                    prefixes.push((prefix, len));
                }
                Ok(Request::RouteWithdraw(prefixes))
            }
            REQ_SWAP_DEFAULT => {
                if body.len() != 4 {
                    return Err(FrameError::Malformed("swap-default wants a u32".into()));
                }
                Ok(Request::SwapDefault {
                    next_hop: u32::from_be_bytes(body.try_into().expect("checked")),
                })
            }
            other => Err(FrameError::Malformed(format!(
                "unknown request {other:#04x}"
            ))),
        }
    }
}

impl Response {
    /// Serializes the response payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode_into(&mut v);
        v
    }

    /// Serializes the response payload into `out`, which is cleared
    /// first. A connection reuses one scratch buffer across responses so
    /// steady-state encoding allocates nothing once the buffer has grown
    /// to the largest response it has carried.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::Hello(h) => {
                out.reserve(13);
                out.push(RSP_HELLO);
                out.extend_from_slice(&h.version.to_be_bytes());
                out.push(h.capabilities);
                out.push(h.backend.wire_code());
                out.extend_from_slice(&h.shards.to_be_bytes());
                out.extend_from_slice(&h.egress.to_be_bytes());
                out.extend_from_slice(&h.routes.to_be_bytes());
            }
            Response::Ok => out.push(RSP_OK),
            Response::Batch {
                forwarded,
                dropped,
                mismatches,
            } => {
                out.reserve(13);
                out.push(RSP_BATCH);
                out.extend_from_slice(&forwarded.to_be_bytes());
                out.extend_from_slice(&dropped.to_be_bytes());
                out.extend_from_slice(&mismatches.to_be_bytes());
            }
            Response::Busy(shard) => {
                out.push(RSP_BUSY);
                out.extend_from_slice(&shard.to_be_bytes());
            }
            Response::Stats(json) => {
                out.reserve(1 + json.len());
                out.push(RSP_STATS);
                out.extend_from_slice(json.as_bytes());
            }
            Response::StatsPush(json) => {
                out.reserve(1 + json.len());
                out.push(RSP_STATS_PUSH);
                out.extend_from_slice(json.as_bytes());
            }
            Response::Drained => out.push(RSP_DRAINED),
            Response::RouteUpdated {
                generation,
                routes,
                applied,
            } => {
                out.reserve(17);
                out.push(RSP_ROUTE_UPDATED);
                out.extend_from_slice(&generation.to_be_bytes());
                out.extend_from_slice(&routes.to_be_bytes());
                out.extend_from_slice(&applied.to_be_bytes());
            }
            Response::Error(msg) => {
                out.reserve(1 + msg.len());
                out.push(RSP_ERROR);
                out.extend_from_slice(msg.as_bytes());
            }
        }
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Fails on unknown types and length mismatches.
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        let (&ty, body) = payload
            .split_first()
            .ok_or_else(|| FrameError::Malformed("empty payload".into()))?;
        let utf8 = |b: &[u8]| {
            String::from_utf8(b.to_vec()).map_err(|_| FrameError::Malformed("non-utf8 text".into()))
        };
        match ty {
            RSP_HELLO => {
                if body.len() != 12 {
                    return Err(FrameError::Malformed("hello wants 12 bytes".into()));
                }
                let backend = BackendKind::from_wire(body[3]).ok_or_else(|| {
                    FrameError::Malformed(format!("unknown backend code {:#04x}", body[3]))
                })?;
                Ok(Response::Hello(ServerHello {
                    version: u16::from_be_bytes([body[0], body[1]]),
                    capabilities: body[2],
                    backend,
                    shards: u16::from_be_bytes([body[4], body[5]]),
                    egress: u16::from_be_bytes([body[6], body[7]]),
                    routes: u32::from_be_bytes(body[8..12].try_into().expect("checked")),
                }))
            }
            RSP_OK => Ok(Response::Ok),
            RSP_BATCH => {
                if body.len() != 12 {
                    return Err(FrameError::Malformed("batch wants 3 x u32".into()));
                }
                let f = u32::from_be_bytes(body[0..4].try_into().expect("checked"));
                let d = u32::from_be_bytes(body[4..8].try_into().expect("checked"));
                let m = u32::from_be_bytes(body[8..12].try_into().expect("checked"));
                Ok(Response::Batch {
                    forwarded: f,
                    dropped: d,
                    mismatches: m,
                })
            }
            RSP_BUSY => {
                if body.len() != 2 {
                    return Err(FrameError::Malformed("busy wants a u16 shard".into()));
                }
                Ok(Response::Busy(u16::from_be_bytes([body[0], body[1]])))
            }
            RSP_STATS => Ok(Response::Stats(utf8(body)?)),
            RSP_STATS_PUSH => Ok(Response::StatsPush(utf8(body)?)),
            RSP_DRAINED => Ok(Response::Drained),
            RSP_ROUTE_UPDATED => {
                if body.len() != 16 {
                    return Err(FrameError::Malformed(
                        "route-updated wants u64 + 2 x u32".into(),
                    ));
                }
                Ok(Response::RouteUpdated {
                    generation: u64::from_be_bytes(body[0..8].try_into().expect("checked")),
                    routes: u32::from_be_bytes(body[8..12].try_into().expect("checked")),
                    applied: u32::from_be_bytes(body[12..16].try_into().expect("checked")),
                })
            }
            RSP_ERROR => Ok(Response::Error(utf8(body)?)),
            other => Err(FrameError::Malformed(format!(
                "unknown response {other:#04x}"
            ))),
        }
    }
}

/// Encodes a submit payload straight from a packet slice into `out`
/// (cleared first) — the allocation-free path [`crate::Client`] uses on
/// its hot loop: no intermediate `Vec<Ipv4Packet>` clone and, once the
/// buffer has grown to the working batch size, no allocation per submit.
/// `Request::Submit`'s own `encode` delegates here, so both paths emit
/// identical bytes.
///
/// # Panics
///
/// Panics when `packets` exceeds [`MAX_SUBMIT_PACKETS`] — the frame cap
/// must fail on the sending side, never truncate the count on the wire.
pub fn encode_submit_into(packets: &[Ipv4Packet], options: SubmitOptions, out: &mut Vec<u8>) {
    assert!(
        packets.len() <= MAX_SUBMIT_PACKETS,
        "submit of {} packets exceeds the {MAX_SUBMIT_PACKETS}-packet frame cap",
        packets.len()
    );
    out.clear();
    out.reserve(12 + packets.len() * 20);
    out.push(REQ_SUBMIT);
    out.push(options.to_flags());
    if let Some(span) = options.span_id {
        out.extend_from_slice(&span.to_be_bytes());
    }
    out.extend_from_slice(&(packets.len() as u16).to_be_bytes());
    for p in packets {
        out.extend_from_slice(&p.to_bytes());
    }
}

/// True when `payload` carries a submit request — the dispatch test the
/// server uses to route a frame onto the scratch-buffer decode path
/// ([`decode_submit_into`]) without constructing a [`Request`].
pub fn is_submit(payload: &[u8]) -> bool {
    payload.first() == Some(&REQ_SUBMIT)
}

/// Decodes a submit payload's packets into a reusable buffer (cleared
/// first) and returns the batch's options — the server-side twin of
/// [`encode_submit_into`]. A connection keeps one packet scratch across
/// submits, so the steady state performs no per-batch packet-vector
/// allocation. [`Request::decode`] delegates its submit arm here, so both
/// paths accept exactly the same frames.
///
/// # Errors
///
/// Fails when the payload is not a submit frame, on length mismatches,
/// and on any packet header the strict parser rejects.
pub fn decode_submit_into(
    payload: &[u8],
    packets: &mut Vec<Ipv4Packet>,
) -> Result<SubmitOptions, FrameError> {
    packets.clear();
    let (&ty, body) = payload
        .split_first()
        .ok_or_else(|| FrameError::Malformed("empty payload".into()))?;
    if ty != REQ_SUBMIT {
        return Err(FrameError::Malformed(format!(
            "expected a submit frame, got {ty:#04x}"
        )));
    }
    if body.len() < 3 {
        return Err(FrameError::Malformed("short submit header".into()));
    }
    let flags = body[0];
    let mut options = SubmitOptions::from_flags(flags);
    let mut rest = &body[1..];
    if flags & FLAG_SPAN != 0 {
        // An 8-byte big-endian span id precedes the count.
        if rest.len() < 8 {
            return Err(FrameError::Malformed("span flag without a span id".into()));
        }
        options.span_id = Some(u64::from_be_bytes(rest[..8].try_into().expect("checked")));
        rest = &rest[8..];
    }
    if rest.len() < 2 {
        return Err(FrameError::Malformed("short submit header".into()));
    }
    let count = u16::from_be_bytes([rest[0], rest[1]]) as usize;
    let bytes = &rest[2..];
    if bytes.len() != count * 20 {
        return Err(FrameError::Malformed(format!(
            "submit length {} != {count} packets x 20",
            bytes.len()
        )));
    }
    packets.reserve(count);
    for chunk in bytes.chunks_exact(20) {
        packets.push(Ipv4Packet::from_bytes(chunk).map_err(FrameError::BadPacket)?);
    }
    Ok(options)
}

// ---- framed I/O -------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures (including write-deadline expiry).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Incremental frame decoder that survives read timeouts.
///
/// `read_exact` discards its progress on `WouldBlock`/`TimedOut`, so a
/// socket with a short read timeout (the server polls so stop/drain flags
/// are honored) would lose the bytes of a partially received frame and
/// re-enter the stream mid-frame — permanently desyncing the connection.
/// `FrameReader` instead keeps the partial length prefix and payload
/// across calls: after a timeout error, calling [`FrameReader::read`]
/// again resumes exactly where the stream left off.
///
/// The payload buffer is owned by the reader and reused across frames:
/// [`FrameReader::read`] hands out a borrowed view, valid until the next
/// call, so a long-lived connection pays no per-frame payload allocation
/// once the buffer has grown to the largest frame it has carried.
#[derive(Debug, Default)]
pub struct FrameReader {
    prefix: [u8; 4],
    prefix_got: usize,
    /// Reusable payload storage. `buf.len()` is the high-water mark, not
    /// the current frame's length — `expected` carries that — so a
    /// smaller frame after a larger one reuses the bytes without a
    /// re-zeroing pass.
    buf: Vec<u8>,
    /// Length of the frame currently being decoded (`None` while the
    /// length prefix is still incomplete).
    expected: Option<usize>,
    payload_got: usize,
}

impl FrameReader {
    /// A decoder positioned at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes consumed toward the frame currently being decoded (0 at a
    /// frame boundary). Callers use this to distinguish an idle peer
    /// (no bytes — a timeout is harmless) from a stalled one and to
    /// notice progress between timeouts.
    pub fn progress(&self) -> usize {
        self.prefix_got + self.payload_got
    }

    /// Reads (or resumes reading) one length-prefixed frame. `Ok(None)`
    /// means the peer closed the connection cleanly **at a frame
    /// boundary**; an EOF after any byte of a frame was consumed is an
    /// `UnexpectedEof` error, not a clean close.
    ///
    /// The returned slice borrows the reader's internal buffer and is
    /// valid until the next `read` call.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (state is preserved across
    /// `WouldBlock`/`TimedOut`, so the call can be retried) and rejects
    /// frames above [`MAX_PAYLOAD`] with [`io::ErrorKind::InvalidData`].
    pub fn read(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        while self.expected.is_none() {
            match r.read(&mut self.prefix[self.prefix_got..]) {
                Ok(0) => {
                    if self.prefix_got == 0 {
                        return Ok(None); // clean close at a frame boundary
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("peer closed {} bytes into a length prefix", self.prefix_got),
                    ));
                }
                Ok(n) => {
                    self.prefix_got += n;
                    if self.prefix_got == 4 {
                        let len = u32::from_be_bytes(self.prefix) as usize;
                        if len > MAX_PAYLOAD {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("frame of {len} bytes exceeds the {MAX_PAYLOAD} cap"),
                            ));
                        }
                        // Grow-only: every byte of `buf[..len]` is
                        // overwritten by reads before the slice is
                        // returned, so shrinking (or re-zeroing reused
                        // capacity) would be wasted work.
                        if self.buf.len() < len {
                            self.buf.resize(len, 0);
                        }
                        self.expected = Some(len);
                        self.payload_got = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            let len = self.expected.expect("length decoded above");
            if self.payload_got == len {
                self.expected = None;
                self.prefix_got = 0;
                self.payload_got = 0;
                return Ok(Some(&self.buf[..len]));
            }
            match r.read(&mut self.buf[self.payload_got..len]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "peer closed {} bytes into a {len}-byte payload",
                            self.payload_got
                        ),
                    ));
                }
                Ok(n) => self.payload_got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Nonblocking write-side twin of [`FrameReader`]: a per-connection
/// egress queue with `WouldBlock`-resumable partial writes.
///
/// The blocking server writes responses with [`write_frame`], which
/// blocks until the socket accepts every byte. A readiness-driven
/// frontend cannot block: it enqueues the encoded payload here (the
/// length prefix is added by `enqueue`) and calls [`FrameWriter::write`]
/// whenever the socket reports writable. A partial write leaves the
/// cursor mid-frame; the next call resumes at the exact byte where the
/// kernel stopped accepting, so frame boundaries are never corrupted by
/// backpressure.
///
/// The buffer is reused across frames: fully drained, it resets to
/// empty; partially drained, `enqueue` compacts the unsent tail to the
/// front before appending, so a long-lived connection's buffer is
/// bounded by its egress high-water mark, not its lifetime.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    pos: usize,
    high_water: usize,
}

impl FrameWriter {
    /// An empty egress queue.
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Appends one frame (length prefix + `payload`) to the egress queue.
    pub fn enqueue(&mut self, payload: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 0 {
            // Compact the unsent tail to the front so the buffer tracks
            // the pending byte count instead of growing for the life of
            // the connection.
            self.buf.copy_within(self.pos.., 0);
            let pending = self.buf.len() - self.pos;
            self.buf.truncate(pending);
            self.pos = 0;
        }
        self.buf.reserve(4 + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(payload);
        self.high_water = self.high_water.max(self.pending());
    }

    /// Bytes enqueued but not yet accepted by the sink.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Largest pending byte count ever observed (egress memory bound).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Writes as much of the queue as `w` accepts. Returns `Ok(true)`
    /// when the queue drained completely and `Ok(false)` when the sink
    /// stopped accepting bytes (`WouldBlock` — keep write interest and
    /// call again on the next writable event).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than `WouldBlock`/`Interrupted`; a
    /// sink that accepts zero bytes surfaces as `WriteZero`. The cursor
    /// is preserved across every error, so retrying never corrupts a
    /// frame boundary.
    pub fn write(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "sink accepted zero bytes of a pending frame",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// Reads one length-prefixed frame from a blocking stream. `Ok(None)`
/// means the peer closed the connection cleanly at a frame boundary; an
/// EOF inside a frame (even inside the length prefix) is an
/// `UnexpectedEof` error.
///
/// # Errors
///
/// Propagates I/O failures and rejects frames above [`MAX_PAYLOAD`] with
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut fr = FrameReader::new();
    Ok(fr.read(r)?.map(<[u8]>::to_vec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_netapp::Workload;

    #[test]
    fn request_round_trips() {
        let w = Workload::generate(3, 5, 8);
        let reqs = [
            Request::Hello {
                min_version: 1,
                max_version: PROTOCOL_VERSION,
            },
            Request::Submit {
                packets: w.packets.clone(),
                options: SubmitOptions::new().verify(true),
            },
            Request::Submit {
                packets: Vec::new(),
                options: SubmitOptions::new(),
            },
            Request::Submit {
                packets: w.packets.clone(),
                options: SubmitOptions::new().verify(true).span(0xDEAD_BEEF_0042),
            },
            Request::Stats,
            Request::StatsStream { interval_ms: 250 },
            Request::Drain,
            Request::Shutdown,
            Request::Kill(3),
            Request::RouteAdd(vec![
                Route {
                    prefix: 0x0a00_0000,
                    len: 8,
                    next_hop: 42,
                },
                Route {
                    prefix: 0,
                    len: 0,
                    next_hop: 7,
                },
                Route {
                    prefix: 0xc0a8_0101,
                    len: 32,
                    next_hop: 9,
                },
            ]),
            Request::RouteAdd(Vec::new()),
            Request::RouteWithdraw(vec![(0x0a00_0000, 8), (0, 0)]),
            Request::SwapDefault { next_hop: 17 },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trips() {
        let rsps = [
            Response::Hello(ServerHello {
                version: PROTOCOL_VERSION,
                capabilities: crate::backend::capability_bits(),
                backend: BackendKind::Differential,
                shards: 4,
                egress: 4,
                routes: 64,
            }),
            Response::Ok,
            Response::Batch {
                forwarded: 7,
                dropped: 2,
                mismatches: 0,
            },
            Response::Busy(2),
            Response::Stats("{\"x\":1}".into()),
            Response::StatsPush("{\"x\":2}".into()),
            Response::Drained,
            Response::RouteUpdated {
                generation: 0x0102_0304_0506_0708,
                routes: 65,
                applied: 3,
            },
            Response::Error("nope".into()),
        ];
        for r in rsps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn encode_into_a_reused_buffer_matches_encode() {
        // One scratch buffer across differently-sized responses: each
        // encode must clear the previous payload, never append to it.
        let rsps = [
            Response::Stats("{\"a\":1,\"padding\":\"xxxxxxxxxxxxxxxx\"}".into()),
            Response::Ok,
            Response::Busy(7),
            Response::Error("short".into()),
        ];
        let mut scratch = Vec::new();
        for r in &rsps {
            r.encode_into(&mut scratch);
            assert_eq!(scratch, r.encode());
        }
    }

    #[test]
    fn submit_rejects_corrupted_packet_bytes() {
        let w = Workload::generate(3, 2, 8);
        let mut bytes = Request::Submit {
            packets: w.packets.clone(),
            options: SubmitOptions::new(),
        }
        .encode();
        // Flip a TTL byte inside the first packed header: the strict
        // parser must catch the checksum mismatch at the frame boundary.
        bytes[4 + 8] ^= 0xff;
        assert!(matches!(
            Request::decode(&bytes),
            Err(FrameError::BadPacket(ParsePacketError::BadChecksum { .. }))
        ));
    }

    #[test]
    fn span_flag_without_span_id_is_malformed() {
        // A frame claiming FLAG_SPAN but truncated before the 8-byte id.
        let bytes = [REQ_SUBMIT, FLAG_SPAN, 0x00, 0x01, 0x02];
        assert!(matches!(
            Request::decode(&bytes),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn tracing_capability_is_distinct_from_backend_bits() {
        assert_eq!(CAP_TRACING & crate::backend::capability_bits(), 0);
    }

    #[test]
    fn control_capability_is_its_own_bit() {
        assert_eq!(CAP_CONTROL & crate::backend::capability_bits(), 0);
        assert_eq!(CAP_CONTROL & CAP_TRACING, 0);
    }

    #[test]
    fn version_settling_picks_the_highest_shared_version() {
        // (client_min, client_max) -> settled
        let cases = [
            ((2, 2), Some(2)), // pure v2 client
            ((2, 3), Some(3)), // v2/v3 client takes v3
            ((3, 3), Some(3)), // pure v3 client
            ((3, 9), Some(3)), // future client caps at our newest
            ((2, 9), Some(3)), // wide range still settles on v3
            ((1, 2), Some(2)), // old floor, shared ceiling
            ((1, 1), None),    // pure v1 client: below our floor
            ((4, 9), None),    // future-only client: above our ceiling
            ((9, 12), None),   // far future
        ];
        for ((min, max), want) in cases {
            assert_eq!(settle_version(min, max), want, "range ({min},{max})");
        }
        assert_eq!(
            settle_version(PROTOCOL_VERSION, PROTOCOL_VERSION),
            Some(PROTOCOL_VERSION)
        );
    }

    #[test]
    fn control_frames_reject_malformed_routes_at_the_boundary() {
        // Host bits set: must be refused in decode, never reach the trie.
        let bad_add = Request::RouteAdd(vec![Route {
            prefix: 0x0a00_0001,
            len: 8,
            next_hop: 1,
        }])
        .encode();
        assert!(matches!(
            Request::decode(&bad_add),
            Err(FrameError::Malformed(_))
        ));
        let bad_withdraw = Request::RouteWithdraw(vec![(0x0a00_0001, 8)]).encode();
        assert!(matches!(
            Request::decode(&bad_withdraw),
            Err(FrameError::Malformed(_))
        ));
        // Length out of range.
        let mut long = Request::RouteAdd(vec![Route {
            prefix: 0,
            len: 0,
            next_hop: 1,
        }])
        .encode();
        long[7] = 33; // the route's len byte
        assert!(matches!(
            Request::decode(&long),
            Err(FrameError::Malformed(_))
        ));
        // Count/length mismatch.
        let mut short = Request::RouteAdd(vec![Route {
            prefix: 0,
            len: 0,
            next_hop: 1,
        }])
        .encode();
        short.truncate(short.len() - 1);
        assert!(matches!(
            Request::decode(&short),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn submit_rejects_length_mismatch() {
        let mut bytes = Request::Submit {
            packets: Workload::generate(1, 2, 8).packets,
            options: SubmitOptions::new(),
        }
        .encode();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            Request::decode(&bytes),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn framed_io_round_trips_and_detects_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversize_submit_encode_panics_instead_of_truncating() {
        let p = Workload::generate(1, 1, 8).packets[0];
        let _ = Request::Submit {
            packets: vec![p; MAX_SUBMIT_PACKETS + 1],
            options: SubmitOptions::new(),
        }
        .encode();
    }

    #[test]
    fn eof_mid_prefix_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in 1..4 {
            let mut r = &buf[..cut];
            assert_eq!(
                read_frame(&mut r).unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof,
                "peer died {cut} bytes into the prefix"
            );
        }
    }

    #[test]
    fn eof_mid_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..buf.len() - 2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Hands out `chunk` bytes per read, interleaving a `WouldBlock`
    /// before every chunk — models a socket read timeout firing mid-frame.
    struct Stutter<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        block_next: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stutter"));
            }
            self.block_next = true;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts_without_desync() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first frame, long enough to straddle reads").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = Stutter {
            data: &buf,
            pos: 0,
            chunk: 3,
            block_next: true,
        };
        let mut fr = FrameReader::new();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut saw_midframe_timeout = false;
        while frames.len() < 2 {
            match fr.read(&mut r) {
                Ok(Some(p)) => frames.push(p.to_vec()),
                Ok(None) => panic!("stream closed early"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    saw_midframe_timeout |= fr.progress() > 0;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            saw_midframe_timeout,
            "test must exercise mid-frame timeouts"
        );
        assert_eq!(frames[0], b"first frame, long enough to straddle reads");
        assert_eq!(frames[1], b"second");
        assert_eq!(fr.progress(), 0, "back at a frame boundary");
    }

    /// Serves bytes up to `cut`, then raises exactly one `WouldBlock`,
    /// then serves the rest — a timeout at one chosen byte boundary.
    struct SplitReader<'a> {
        data: &'a [u8],
        pos: usize,
        cut: usize,
        blocked: bool,
    }

    impl Read for SplitReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.cut && !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "split"));
            }
            let end = if self.pos < self.cut {
                self.cut
            } else {
                self.data.len()
            };
            let n = buf.len().min(end - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_after_a_timeout_at_every_byte_boundary() {
        // One submit frame exercising every wire region — length prefix,
        // type byte, flags, 8-byte span id, count, packed packet headers —
        // with a timeout injected at each byte boundary in turn. The
        // resumed decode must match the uninterrupted one exactly.
        let w = Workload::generate(4, 3, 8);
        let options = SubmitOptions::new()
            .verify(true)
            .span(0x0123_4567_89AB_CDEF);
        let mut payload = Vec::new();
        encode_submit_into(&w.packets, options, &mut payload);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            let mut r = SplitReader {
                data: &wire,
                pos: 0,
                cut,
                blocked: false,
            };
            let mut fr = FrameReader::new();
            let got = loop {
                match fr.read(&mut r) {
                    Ok(Some(p)) => break p.to_vec(),
                    Ok(None) => panic!("clean close with cut={cut}"),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        assert_eq!(fr.progress(), cut, "progress preserved at cut={cut}");
                    }
                    Err(e) => panic!("cut={cut}: {e}"),
                }
            };
            assert_eq!(got, payload, "resumed frame bytes at cut={cut}");
            let mut packets = Vec::new();
            let opts = decode_submit_into(&got, &mut packets).expect("decodes");
            assert_eq!(opts, options, "cut={cut}");
            assert_eq!(packets, w.packets, "cut={cut}");
        }
    }

    /// Accepts one byte per write, interleaving a `WouldBlock` before
    /// every byte — a maximally congested nonblocking socket.
    struct TrickleSink {
        out: Vec<u8>,
        block_next: bool,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "trickle"));
            }
            self.block_next = true;
            self.out.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_resumes_partial_writes_byte_for_byte() {
        // Queue several encoded responses, then drain through a sink that
        // blocks before every single byte. The emitted stream must be
        // byte-identical to the blocking path's write_frame output.
        let rsps = [
            Response::Batch {
                forwarded: 9000,
                dropped: 17,
                mismatches: 0,
            },
            Response::Error("slow down".into()),
            Response::Ok,
            Response::Stats("{\"pending\":true}".into()),
        ];
        let mut want = Vec::new();
        let mut scratch = Vec::new();
        for r in &rsps {
            r.encode_into(&mut scratch);
            write_frame(&mut want, &scratch).unwrap();
        }
        let mut fw = FrameWriter::new();
        for r in &rsps {
            r.encode_into(&mut scratch);
            fw.enqueue(&scratch);
        }
        assert_eq!(fw.pending(), want.len());
        let mut sink = TrickleSink {
            out: Vec::new(),
            block_next: true,
        };
        let mut stalls = 0;
        loop {
            match fw.write(&mut sink) {
                Ok(true) => break,
                Ok(false) => stalls += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(stalls, want.len(), "one WouldBlock per byte");
        assert_eq!(sink.out, want, "nonblocking egress matches write_frame");
        assert!(fw.is_empty());
        assert_eq!(fw.high_water(), want.len());
    }

    /// Accepts at most `cap` bytes total, then `WouldBlock`s forever.
    struct CappedSink {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for CappedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.out.len() == self.cap {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap - self.out.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_compacts_mid_frame_and_tracks_high_water() {
        // Stall a frame mid-payload, enqueue another behind it, then let
        // the sink drain: frame boundaries survive the compaction and the
        // high-water mark records the worst pending byte count.
        let a = b"aaaaaaaaaaaaaaaa"; // 16 + 4 prefix = 20 wire bytes
        let b = b"bb"; // 2 + 4 prefix = 6 wire bytes
        let mut want = Vec::new();
        write_frame(&mut want, a).unwrap();
        write_frame(&mut want, b).unwrap();

        let mut fw = FrameWriter::new();
        fw.enqueue(a);
        let mut sink = CappedSink {
            out: Vec::new(),
            cap: 7,
        };
        assert!(!fw.write(&mut sink).unwrap(), "sink stalls mid-frame");
        assert_eq!(fw.pending(), 20 - 7);
        fw.enqueue(b); // compacts the unsent 13-byte tail to the front
        assert_eq!(fw.pending(), 13 + 6);
        assert_eq!(fw.high_water(), 20, "worst pending was the full frame A");

        sink.cap = want.len();
        assert!(fw.write(&mut sink).unwrap(), "drains once the sink opens");
        assert_eq!(sink.out, want, "frame boundaries survive compaction");
        assert!(fw.is_empty());
        assert_eq!(fw.high_water(), 20, "high water is a running maximum");
    }

    #[test]
    fn frame_writer_zero_byte_write_is_an_error() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut fw = FrameWriter::new();
        fw.enqueue(b"x");
        assert_eq!(
            fw.write(&mut Dead).unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
        assert_eq!(fw.pending(), 5, "cursor preserved across the error");
    }
}
