//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a big-endian `u32` payload length followed by the
//! payload; the first payload byte is the frame type. Request types live
//! below `0x80`, response types at or above it. The `frames!`
//! declarations below are the layout: each frame's type byte, wire name
//! and fields in wire order, declared once, from which its one encoder
//! and one decoder are derived. A field's type decides its bytes, and
//! bytes after a frame's last field are malformed.
//! `tests/data/frames.golden` pins every frame type's encoding.
//!
//! **The handshake.** The client speaks first with [`Request::Hello`]
//! carrying the closed range of protocol versions it accepts. The server
//! answers [`Response::Hello`] with a [`ServerHello`] block (its version,
//! the backend serving, shard count, egress width, FIB routes) only when
//! that range contains [`PROTOCOL_VERSION`]. A range without it, any
//! other first frame, and a first frame that does not decode are each
//! refused with a typed [`Response::Error`] and a clean close — never a
//! frame desync. Client and server are built from one source, so this
//! build's client asks for exactly [`PROTOCOL_VERSION`].
//!
//! Packets travel as the exact 20-byte header [`Ipv4Packet::to_bytes`]
//! emits; the decode side uses the strict [`Ipv4Packet::from_bytes`]
//! (IHL and checksum validated), so a corrupted header is rejected at the
//! frame boundary instead of flowing into a shard. They are parsed once,
//! straight into the decoding caller's packet scratch.

use crate::backend::BackendKind;
use memsync_netapp::fib::Route;
use memsync_netapp::packet::ParsePacketError;
use memsync_netapp::Ipv4Packet;
use std::fmt::Display;
use std::io::{self, Read, Write};

/// The one protocol version this build speaks. Version 2 added the
/// [`Request::Hello`] handshake and [`SubmitOptions`] flags, version 3 the
/// live control plane ([`Request::RouteAdd`], [`Request::RouteWithdraw`]
/// and a swap-default frame, type `0x0a`); version 4 dropped the
/// capability byte from [`ServerHello`] and the pushed stats stream;
/// version 5 dropped the swap-default frame, which a [`Request::RouteAdd`]
/// of `0/0` replaces; version 6 dropped backend code 2 (the differential
/// backend) from [`ServerHello`].
pub const PROTOCOL_VERSION: u16 = 6;

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
/// between the flags byte and the packet count (request tracing). A
/// server running without tracing ignores the id.
pub const FLAG_SPAN: u8 = 0x02;

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
}

/// What a server tells a client at connect time: its protocol version
/// and the serving geometry the client may rely on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerHello {
    /// The server's protocol version ([`PROTOCOL_VERSION`]).
    pub version: u16,
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

/// A payload being decoded: the frame's wire name (messages), the bytes
/// not yet taken, and the packet scratch a request's submit fills.
struct Body<'p> {
    frame: &'static str,
    rest: &'p [u8],
    packets: Option<&'p mut Vec<Ipv4Packet>>,
}

impl<'p> Body<'p> {
    fn malformed(&self, what: impl Display) -> FrameError {
        FrameError::Malformed(format!("{} {what}", self.frame))
    }

    fn bytes(&mut self, n: usize) -> Result<&'p [u8], FrameError> {
        if self.rest.len() < n {
            return Err(self.malformed(format_args!("is {} bytes short", n - self.rest.len())));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }
}

/// How a value of this type is written into a frame and read back.
trait Field<'p>: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(body: &mut Body<'p>) -> Result<Self, FrameError>;
}

/// Big-endian integers.
macro_rules! int_field {
    ($($int:ty),*) => {$(
        impl<'p> Field<'p> for $int {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn take(body: &mut Body<'p>) -> Result<$int, FrameError> {
                let bytes = body.bytes(std::mem::size_of::<$int>())?.try_into();
                Ok(<$int>::from_be_bytes(bytes.expect("sized above")))
            }
        }
    )*};
}

int_field!(u8, u16, u32, u64);

impl<'p> Field<'p> for BackendKind {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.wire_code());
    }

    fn take(body: &mut Body<'p>) -> Result<BackendKind, FrameError> {
        let code = u8::take(body)?;
        BackendKind::from_wire(code)
            .ok_or_else(|| body.malformed(format_args!("names unknown backend code {code:#04x}")))
    }
}

/// Text: the rest of the payload.
impl<'p> Field<'p> for String {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn take(body: &mut Body<'p>) -> Result<String, FrameError> {
        let text = body.bytes(body.rest.len())?.to_vec();
        String::from_utf8(text).map_err(|_| body.malformed("carries non-utf8 text"))
    }
}

/// A struct carried as its fields, in declaration order.
macro_rules! record_field {
    ($ty:ident: $($field:ident),*) => {
        impl<'p> Field<'p> for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $( self.$field.put(out); )*
            }

            fn take(body: &mut Body<'p>) -> Result<$ty, FrameError> {
                Ok($ty { $( $field: Field::take(body)?, )* })
            }
        }
    };
}

record_field!(ServerHello: version, backend, shards, egress, routes);
record_field!(Route: prefix, len, next_hop);

impl<'p, A: Field<'p>, B: Field<'p>> Field<'p> for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(body: &mut Body<'p>) -> Result<(A, B), FrameError> {
        Ok((A::take(body)?, B::take(body)?))
    }
}

/// The flags byte, then the span id when [`FLAG_SPAN`] is set. Unknown
/// flags are ignored, for forward compatibility within a version.
impl<'p> Field<'p> for SubmitOptions {
    fn put(&self, out: &mut Vec<u8>) {
        let verify = if self.verify { FLAG_VERIFY } else { 0 };
        out.push(verify | self.span_id.map_or(0, |_| FLAG_SPAN));
        if let Some(id) = self.span_id {
            id.put(out);
        }
    }

    fn take(body: &mut Body<'p>) -> Result<SubmitOptions, FrameError> {
        let flags = u8::take(body)?;
        Ok(SubmitOptions {
            verify: flags & FLAG_VERIFY != 0,
            span_id: (flags & FLAG_SPAN != 0)
                .then(|| u64::take(body))
                .transpose()?,
        })
    }
}

impl<'p> Field<'p> for Ipv4Packet {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    fn take(body: &mut Body<'p>) -> Result<Ipv4Packet, FrameError> {
        Ipv4Packet::from_bytes(body.bytes(20)?).map_err(FrameError::BadPacket)
    }
}

/// Validates a route's `prefix/len` at the frame boundary: length in
/// range and no host bits, so a malformed control frame is rejected
/// before it can reach (and panic) the trie.
fn check_route(body: &Body<'_>, prefix: u32, len: u8) -> Result<(), FrameError> {
    match len {
        33.. => Err(body.malformed(format_args!("has prefix length {len} out of range"))),
        // The low `32 - len` bits are host bits.
        ..=31 if prefix << len != 0 => Err(body.malformed(format_args!(
            "has host bits set in route {prefix:#010x}/{len}"
        ))),
        _ => Ok(()),
    }
}

/// An element of a `u16`-counted list: its wire size, the most elements
/// one frame carries, and the check a decoded element must pass.
trait Item<'p>: Field<'p> {
    const SIZE: usize;
    const CAP: usize;

    fn check(&self, _body: &Body<'p>) -> Result<(), FrameError> {
        Ok(())
    }
}

impl Item<'_> for Ipv4Packet {
    const SIZE: usize = 20;
    const CAP: usize = MAX_SUBMIT_PACKETS;
}

impl<'p> Item<'p> for Route {
    const SIZE: usize = 9;
    const CAP: usize = MAX_CONTROL_ROUTES;

    fn check(&self, body: &Body<'p>) -> Result<(), FrameError> {
        check_route(body, self.prefix, self.len)
    }
}

impl<'p> Item<'p> for (u32, u8) {
    const SIZE: usize = 5;
    const CAP: usize = MAX_CONTROL_ROUTES;

    fn check(&self, body: &Body<'p>) -> Result<(), FrameError> {
        check_route(body, self.0, self.1)
    }
}

/// Writes the count, then each element. A list over its frame cap
/// panics here instead of truncating the count on the wire.
fn put_list<'p, T: Item<'p>>(items: &[T], out: &mut Vec<u8>) {
    let n = items.len();
    assert!(n <= T::CAP, "list of {n} exceeds the {}-entry cap", T::CAP);
    out.reserve(2 + n * T::SIZE);
    (n as u16).put(out);
    for item in items {
        item.put(out);
    }
}

/// Reads the count, then each element into `items`. An inflated count
/// is refused before anything is reserved for it.
fn take_list<'p, T: Item<'p>>(body: &mut Body<'p>, items: &mut Vec<T>) -> Result<(), FrameError> {
    let (count, left) = (usize::from(u16::take(body)?), body.rest.len());
    if left < count * T::SIZE {
        let what = format_args!("has {left} bytes for {count} entries x {}", T::SIZE);
        return Err(body.malformed(what));
    }
    items.reserve(count);
    for _ in 0..count {
        let item = T::take(body)?;
        item.check(body)?;
        items.push(item);
    }
    Ok(())
}

impl<'p, T: Item<'p>> Field<'p> for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_list(self, out);
    }

    fn take(body: &mut Body<'p>) -> Result<Vec<T>, FrameError> {
        let mut items = Vec::new();
        take_list(body, &mut items).map(|()| items)
    }
}

/// A request's packets decode into the caller's scratch and borrow it.
impl<'p> Field<'p> for &'p [Ipv4Packet] {
    fn put(&self, out: &mut Vec<u8>) {
        put_list(self, out);
    }

    fn take(body: &mut Body<'p>) -> Result<&'p [Ipv4Packet], FrameError> {
        let packets = body.packets.take().expect("a request's packet scratch");
        take_list(body, packets)?;
        Ok(packets)
    }
}

/// Declares one direction's frames, and derives from that one
/// declaration each frame's wire name, encoder and decoder. A variant
/// lists its fields in wire order, then `= type byte, "wire name"`; a
/// one-field tuple variant names its field, as in `Kill(shard: u16)`.
/// An enum with a lifetime borrows its payload and packet scratch.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident $(<$lt:lifetime>)? : $dir:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $( ( $bind:ident : $bty:ty ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty, )* } )?
                = $code:literal, $name:literal;
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $enum $(<$lt>)? {
            $(
                $(#[$vmeta])*
                $variant $( ($bty) )? $( { $( $(#[$fmeta])* $field: $fty, )* } )?,
            )*
        }

        impl $(<$lt>)? $enum $(<$lt>)? {
            /// The frame's wire name (error messages).
            pub fn name(&self) -> &'static str {
                match self {
                    $( $enum::$variant { .. } => $name, )*
                }
            }

            /// Serializes the payload (without the length prefix) into
            /// `out`, cleared first: a connection that reuses one buffer
            /// allocates nothing once it has grown to the largest frame.
            ///
            /// # Panics
            ///
            /// A list over [`MAX_SUBMIT_PACKETS`] or
            /// [`MAX_CONTROL_ROUTES`] fails here, never truncated.
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                out.clear();
                match self {
                    $( $enum::$variant $( ($bind) )? $( { $($field),* } )? => {
                        out.push($code);
                        $( $bind.put(out); )?
                        $( $( $field.put(out); )* )?
                    } )*
                }
            }

            /// Decodes the type byte, then that frame's fields, in full.
            fn decode_with(
                payload: &$($lt)? [u8],
                packets: Option<&$($lt)? mut Vec<Ipv4Packet>>,
            ) -> Result<Self, FrameError> {
                let empty = || FrameError::Malformed(concat!("empty ", $dir, " payload").into());
                let (&ty, rest) = payload.split_first().ok_or_else(empty)?;
                let mut body = Body { frame: "", rest, packets };
                let frame = match ty {
                    $( $code => {
                        body.frame = $name;
                        $enum::$variant
                        $( (<$bty as Field>::take(&mut body)?) )?
                        $( { $( $field: Field::take(&mut body)?, )* } )?
                    } )*
                    ty => Err(FrameError::Malformed(format!(concat!("unknown ", $dir, " {:#04x}"), ty)))?,
                };
                match body.rest.len() {
                    0 => Ok(frame),
                    n => Err(body.malformed(format_args!("has {n} trailing bytes"))),
                }
            }
        }
    };
}

frames! {
    /// A request frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request<'a>: "request" {
        /// The handshake — must be the first frame on a connection.
        /// Carries the closed range of protocol versions the client speaks;
        /// the server answers [`Response::Hello`] when the range contains
        /// its version, or refuses with a typed error and closes.
        Hello {
            /// Lowest protocol version the client accepts.
            min_version: u16,
            /// Highest protocol version the client accepts.
            max_version: u16,
        } = 0x06, "hello";
        /// Forward a batch of packets.
        Submit {
            /// Typed per-submit options (verify mode, span tag).
            options: SubmitOptions,
            /// Parsed packet headers, in submission order.
            packets: &'a [Ipv4Packet],
        } = 0x01, "submit";
        /// Ask for the merged stats frame (JSON).
        Stats = 0x02, "stats";
        /// Stop accepting new submits, let in-flight packets complete, reply
        /// [`Response::Drained`] once every shard is idle.
        Drain = 0x03, "drain";
        /// Drain, then stop the whole service (the server process exits 0).
        Shutdown = 0x04, "shutdown";
        /// Fault injection: make shard `shard` panic on its next activation
        /// (exercises the in-place restart path).
        Kill(shard: u16) = 0x05, "kill";
        /// Control plane (v3): insert (or replace) a batch of routes. The
        /// server applies the whole batch to the trie oracle, compiles a
        /// fresh flat classifier, publishes it as a new table generation,
        /// and answers [`Response::RouteUpdated`] only after every shard has
        /// acknowledged the swap (the old generation is retired). A batch
        /// the classifier cannot encode (over 32767 distinct next hops or
        /// overflow blocks) is answered [`Response::Error`] and changes
        /// nothing.
        RouteAdd(routes: Vec<Route>) = 0x08, "route-add";
        /// Control plane (v3): withdraw a batch of routes by exact
        /// `prefix/len`. Absent routes are skipped (reflected in the
        /// response's `applied` count), not errors — withdraw is idempotent.
        RouteWithdraw(prefixes: Vec<(u32, u8)>) = 0x09, "route-withdraw";
    }
}

frames! {
    /// A response frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response: "response" {
        /// The server's version and serving geometry (the answer to
        /// [`Request::Hello`]).
        Hello(hello: ServerHello) = 0x86, "hello";
        /// Generic acknowledgement (shutdown, kill).
        Ok = 0x80, "ok";
        /// A submit batch completed.
        Batch {
            /// Packets the oracle classified as forwarded.
            forwarded: u32,
            /// Packets dropped (TTL expiry or no route).
            dropped: u32,
            /// Verify-mode mismatches (0 when verify was off).
            mismatches: u32,
        } = 0x81, "batch";
        /// Backpressure: a target shard queue was full; *nothing* from the
        /// submit was enqueued. The payload names the first full shard.
        Busy(shard: u16) = 0x82, "busy";
        /// The merged stats frame as a JSON document.
        Stats(json: String) = 0x83, "stats";
        /// Drain completed: queues empty, shards idle.
        Drained = 0x84, "drained";
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
        } = 0x88, "route-updated";
        /// The request failed; nothing was silently dropped — the message
        /// says what happened.
        Error(message: String) = 0x85, "error";
    }
}

impl<'a> Request<'a> {
    /// Parses a request payload. A submit's packet headers are parsed
    /// once, into `packets` (cleared first), which [`Request::Submit`]
    /// borrows: one scratch per connection, no vector per batch.
    ///
    /// # Errors
    ///
    /// Unknown types, short payloads, trailing bytes, malformed routes,
    /// and packet headers the strict parser rejects.
    pub fn decode(payload: &'a [u8], packets: &'a mut Vec<Ipv4Packet>) -> Result<Self, FrameError> {
        packets.clear();
        Request::decode_with(payload, Some(packets))
    }

    /// Whether this request is a control-plane frame (refused while the
    /// server drains).
    pub fn is_control(&self) -> bool {
        matches!(self, Request::RouteAdd(_) | Request::RouteWithdraw(_))
    }
}

impl Response {
    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Unknown types, short payloads, trailing bytes, an unknown backend
    /// code and non-UTF-8 text.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        Response::decode_with(payload, None)
    }
}

/// Encodes a submit payload straight from a packet slice into `out`
/// (cleared first), as [`Request::encode_into`] does.
///
/// # Panics
///
/// Panics when `packets` exceeds [`MAX_SUBMIT_PACKETS`].
pub fn encode_submit_into(packets: &[Ipv4Packet], options: SubmitOptions, out: &mut Vec<u8>) {
    Request::Submit { options, packets }.encode_into(out);
}

/// Decodes a submit payload's packets into a reusable buffer (cleared
/// first) and returns the batch's options, as [`Request::decode`] does.
///
/// # Errors
///
/// A payload that is not a submit frame, or that [`Request::decode`]
/// refuses.
pub fn decode_submit_into(
    payload: &[u8],
    packets: &mut Vec<Ipv4Packet>,
) -> Result<SubmitOptions, FrameError> {
    match Request::decode(payload, packets)? {
        Request::Submit { options, .. } => Ok(options),
        other => Err(FrameError::Malformed(format!(
            "expected a submit frame, got {}",
            other.name()
        ))),
    }
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
/// nonblocking socket (the reactor's) or one with a read timeout (a
/// client's) would lose the bytes of a partially received frame and
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
/// [`write_frame`] blocks until the socket accepts every byte. A
/// readiness-driven frontend cannot block: it enqueues the encoded payload here (the
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

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_netapp::Workload;

    fn encode(req: &Request<'_>) -> Vec<u8> {
        let mut v = Vec::new();
        req.encode_into(&mut v);
        v
    }

    /// Whether `payload` decodes as a request.
    fn decode(payload: &[u8]) -> Result<(), FrameError> {
        Request::decode(payload, &mut Vec::new()).map(drop)
    }

    #[test]
    fn request_round_trips() {
        let w = Workload::generate(3, 5, 8);
        let reqs = [
            Request::Hello {
                min_version: 1,
                max_version: PROTOCOL_VERSION,
            },
            Request::Submit {
                packets: &w.packets,
                options: SubmitOptions::new().verify(true),
            },
            Request::Submit {
                packets: &[],
                options: SubmitOptions::new(),
            },
            Request::Submit {
                packets: &w.packets,
                options: SubmitOptions::new().verify(true).span(0xDEAD_BEEF_0042),
            },
            Request::Stats,
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
        ];
        let mut scratch = Vec::new();
        for r in reqs {
            let bytes = encode(&r);
            assert_eq!(Request::decode(&bytes, &mut scratch).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trips() {
        let rsps = [
            Response::Hello(ServerHello {
                version: PROTOCOL_VERSION,
                backend: BackendKind::Fast,
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
            Response::Drained,
            Response::RouteUpdated {
                generation: 0x0102_0304_0506_0708,
                routes: 65,
                applied: 3,
            },
            Response::Error("nope".into()),
        ];
        let mut bytes = Vec::new();
        for r in rsps {
            r.encode_into(&mut bytes);
            assert_eq!(Response::decode(&bytes).unwrap(), r);
        }
    }

    /// Every payload in the golden file, as `(direction, wire name, bytes)`.
    fn golden() -> Vec<(&'static str, &'static str, Vec<u8>)> {
        const GOLDEN: &str = include_str!("../tests/data/frames.golden");
        GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|line| {
                let mut cols = line.split(' ');
                let (dir, name, hex) = (cols.next(), cols.next(), cols.next());
                let hex = hex.unwrap_or_else(|| panic!("three columns: {line}"));
                let bytes = (0..hex.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                    .collect();
                (dir.unwrap(), name.unwrap(), bytes)
            })
            .collect()
    }

    #[test]
    fn golden_frames_decode_and_reencode_byte_for_byte() {
        let mut names = std::collections::BTreeSet::new();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for (dir, name, bytes) in golden() {
            let decoded_name = if dir == "request" {
                let req = Request::decode(&bytes, &mut scratch).expect("golden request decodes");
                req.encode_into(&mut out);
                req.name()
            } else {
                let rsp = Response::decode(&bytes).expect("golden response decodes");
                rsp.encode_into(&mut out);
                rsp.name()
            };
            assert_eq!(decoded_name, name, "{dir} type byte {:#04x}", bytes[0]);
            assert_eq!(out, bytes, "{dir} {name} re-encodes byte for byte");
            names.insert((dir, name));
        }
        assert_eq!(names.len(), 16, "every frame type is pinned: {names:?}");
    }

    #[test]
    fn bodiless_frames_refuse_trailing_bytes() {
        for ty in [0x02, 0x03, 0x04] {
            let err = decode(&[ty, 0x00]).unwrap_err();
            assert!(err.to_string().contains("1 trailing bytes"), "{err}");
            assert!(decode(&[ty]).is_ok());
        }
        for ty in [0x80, 0x84] {
            let err = Response::decode(&[ty, 0x00]).unwrap_err();
            assert!(err.to_string().contains("1 trailing bytes"), "{err}");
            assert!(Response::decode(&[ty]).is_ok());
        }
    }

    #[test]
    fn malformed_frames_are_named_and_unknown_types_keep_their_text() {
        assert_eq!(
            decode(&[0x42]).unwrap_err().to_string(),
            "malformed frame: unknown request 0x42"
        );
        assert_eq!(
            Response::decode(&[0x7f]).unwrap_err().to_string(),
            "malformed frame: unknown response 0x7f"
        );
        let short_hello = decode(&[0x06, 0x00]).unwrap_err().to_string();
        assert!(
            short_hello.starts_with("malformed frame: hello "),
            "{short_hello}"
        );
        let batch = Response::decode(&[0x81, 0, 0]).unwrap_err().to_string();
        assert!(batch.starts_with("malformed frame: batch "), "{batch}");
        let err = Response::decode(&[0x85, 0xff]).unwrap_err().to_string();
        assert!(err.starts_with("malformed frame: error "), "{err}");
        for code in [2, 9] {
            let backend = Response::decode(&[0x86, 0, 6, code, 0, 1, 0, 1, 0, 0, 0, 1]);
            let err = backend.unwrap_err().to_string();
            assert!(err.contains(&format!("backend code {code:#04x}")), "{err}");
        }
    }

    #[test]
    fn encode_into_a_reused_buffer_clears_it() {
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
            let mut fresh = Vec::new();
            r.encode_into(&mut fresh);
            assert_eq!(scratch, fresh);
        }
    }

    #[test]
    fn submit_rejects_corrupted_packet_bytes() {
        let w = Workload::generate(3, 2, 8);
        let mut bytes = encode(&Request::Submit {
            packets: &w.packets,
            options: SubmitOptions::new(),
        });
        // Flip a TTL byte inside the first packed header: the strict
        // parser must catch the checksum mismatch at the frame boundary.
        bytes[4 + 8] ^= 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(FrameError::BadPacket(ParsePacketError::BadChecksum { .. }))
        ));
    }

    #[test]
    fn span_flag_without_span_id_is_malformed() {
        // A frame claiming FLAG_SPAN but truncated before the 8-byte id.
        let bytes = [0x01, FLAG_SPAN, 0x00, 0x01, 0x02];
        assert!(matches!(decode(&bytes), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn decode_submit_into_refuses_other_frames_and_clears_the_scratch() {
        let w = Workload::generate(3, 4, 8);
        let mut packets = Vec::new();
        let mut bytes = Vec::new();
        encode_submit_into(&w.packets, SubmitOptions::new().span(9), &mut bytes);
        let options = decode_submit_into(&bytes, &mut packets).expect("a submit");
        assert_eq!((options.span_id, packets.len()), (Some(9), 4));
        let err = decode_submit_into(&[0x02], &mut packets).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed frame: expected a submit frame, got stats"
        );
        assert!(packets.is_empty());
    }

    #[test]
    fn control_frames_reject_malformed_routes_at_the_boundary() {
        // Host bits set: must be refused in decode, never reach the trie.
        let bad_add = encode(&Request::RouteAdd(vec![Route {
            prefix: 0x0a00_0001,
            len: 8,
            next_hop: 1,
        }]));
        assert!(matches!(decode(&bad_add), Err(FrameError::Malformed(_))));
        let bad_withdraw = encode(&Request::RouteWithdraw(vec![(0x0a00_0001, 8)]));
        assert!(matches!(
            decode(&bad_withdraw),
            Err(FrameError::Malformed(_))
        ));
        // Length out of range.
        let mut long = encode(&Request::RouteAdd(vec![Route {
            prefix: 0,
            len: 0,
            next_hop: 1,
        }]));
        long[7] = 33; // the route's len byte
        assert!(matches!(decode(&long), Err(FrameError::Malformed(_))));
        // Count/length mismatch.
        let mut short = encode(&Request::RouteAdd(vec![Route {
            prefix: 0,
            len: 0,
            next_hop: 1,
        }]));
        short.truncate(short.len() - 1);
        assert!(matches!(decode(&short), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn submit_rejects_length_mismatch() {
        let w = Workload::generate(1, 2, 8);
        let mut bytes = encode(&Request::Submit {
            packets: &w.packets,
            options: SubmitOptions::new(),
        });
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(decode(&bytes), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn framed_io_round_trips_and_detects_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        let mut fr = FrameReader::new();
        assert_eq!(fr.read(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(fr.read(&mut r).unwrap().unwrap(), b"");
        assert_eq!(fr.read(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
        let mut r = &buf[..];
        assert_eq!(
            FrameReader::new().read(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversize_submit_encode_panics_instead_of_truncating() {
        let p = Workload::generate(1, 1, 8).packets[0];
        let _ = encode(&Request::Submit {
            packets: &vec![p; MAX_SUBMIT_PACKETS + 1],
            options: SubmitOptions::new(),
        });
    }

    #[test]
    fn eof_mid_prefix_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in 1..4 {
            let mut r = &buf[..cut];
            assert_eq!(
                FrameReader::new().read(&mut r).unwrap_err().kind(),
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
            FrameReader::new().read(&mut r).unwrap_err().kind(),
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
