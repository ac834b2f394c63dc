//! Seeded decode fuzz over both frame directions.
//!
//! Inputs are every truncation of each golden payload
//! (`data/frames.golden`), seeded mutations of them (byte flips,
//! inflated `u16` counts, both at once), random bytes, and the largest
//! valid frames: a `MAX_SUBMIT_PACKETS`-packet submit and
//! `MAX_CONTROL_ROUTES`-entry route-add and route-withdraw frames, with
//! mutations of their own. For every input:
//!
//! * decoding never panics;
//! * one decode allocates at most `MAX_PAYLOAD` bytes, counted by the
//!   per-thread allocator in `common`;
//! * a frame that decodes re-encodes to bytes that decode to the same
//!   frame.
//!
//! Each seeded input is generated from its own `Pcg32` seed alone, and a
//! failure prints that seed, so any input replays on its own.

mod common;

use memsync_netapp::fib::Route;
use memsync_netapp::{Ipv4Packet, Workload};
use memsync_serve::frame::{MAX_CONTROL_ROUTES, MAX_PAYLOAD, MAX_SUBMIT_PACKETS};
use memsync_serve::{Request, Response, SubmitOptions};
use memsync_trace::prng::Pcg32;

/// Seeded inputs per run: a million in release builds (the CI step),
/// fewer in debug builds so the workspace test step stays fast.
const INPUTS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

const SEED: u64 = 0x5EED_F4A3_0000_0000;

/// Every golden payload, with its direction (`true` for a request).
fn golden() -> Vec<(bool, Vec<u8>)> {
    include_str!("data/frames.golden")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let cols: Vec<&str> = line.split(' ').collect();
            let hex = cols[2];
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect();
            (cols[0] == "request", bytes)
        })
        .collect()
}

/// The largest valid request frames.
fn max_size_requests() -> Vec<Vec<u8>> {
    let packets = Workload::generate(7, MAX_SUBMIT_PACKETS, 16).packets;
    let routes: Vec<Route> = (0..MAX_CONTROL_ROUTES as u32)
        .map(|i| Route {
            prefix: i << 8,
            len: 24,
            next_hop: i,
        })
        .collect();
    let prefixes: Vec<(u32, u8)> = routes.iter().map(|r| (r.prefix, r.len)).collect();
    let options = SubmitOptions::new().verify(true).span(u64::MAX);
    [
        Request::Submit {
            options,
            packets: &packets,
        },
        Request::RouteAdd(routes),
        Request::RouteWithdraw(prefixes),
    ]
    .iter()
    .map(|req| {
        let mut payload = Vec::new();
        req.encode_into(&mut payload);
        assert!(payload.len() <= MAX_PAYLOAD, "{} fits a frame", req.name());
        payload
    })
    .collect()
}

/// Prints what to replay when a check panics: the input's own seed, or
/// `None` for the unseeded golden truncations and largest frames.
struct Replay<'a> {
    seed: Option<u64>,
    request: bool,
    payload: &'a [u8],
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let head: String = self
                .payload
                .iter()
                .take(48)
                .map(|b| format!("{b:02x}"))
                .collect();
            eprintln!(
                "frame_fuzz failed: input seed {:#x?}, {} decode of {} bytes: {head}..",
                self.seed,
                if self.request { "request" } else { "response" },
                self.payload.len()
            );
        }
    }
}

/// Accepted and refused inputs, per direction.
#[derive(Debug, Default)]
struct Tally {
    accepted: [u64; 2],
    refused: [u64; 2],
}

impl Tally {
    /// Decodes `payload` in one direction and checks the three
    /// properties.
    fn check(&mut self, seed: Option<u64>, request: bool, payload: &[u8], out: &mut Vec<u8>) {
        let _replay = Replay {
            seed,
            request,
            payload,
        };
        let accepted = if request {
            let (mut scratch, mut again): (Vec<Ipv4Packet>, _) = (Vec::new(), Vec::new());
            let (req, counts) = common::count(|| Request::decode(payload, &mut scratch));
            assert!(counts.bytes <= MAX_PAYLOAD as u64, "{counts:?}");
            req.map(|req| {
                req.encode_into(out);
                let again = Request::decode(out, &mut again).expect("re-encoding decodes");
                assert_eq!(again, req);
            })
            .is_ok()
        } else {
            let (rsp, counts) = common::count(|| Response::decode(payload));
            assert!(counts.bytes <= MAX_PAYLOAD as u64, "{counts:?}");
            rsp.map(|rsp| {
                rsp.encode_into(out);
                assert_eq!(Response::decode(out).expect("re-encoding decodes"), rsp);
            })
            .is_ok()
        };
        let tally = if accepted {
            &mut self.accepted
        } else {
            &mut self.refused
        };
        tally[usize::from(request)] += 1;
    }
}

/// One seeded mutation of `base`: byte flips, an inflated `u16` count,
/// both, or a truncation of either.
fn mutate(rng: &mut Pcg32, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let how = rng.gen_range_u32(0..4);
    if how != 1 {
        for _ in 0..rng.gen_range_usize(1..4) {
            let at = rng.gen_range_usize(0..bytes.len());
            bytes[at] ^= rng.gen_range_u32(1..256) as u8;
        }
    }
    if how != 0 && bytes.len() >= 3 {
        // Counts sit after the type byte; any window will do.
        let at = rng.gen_range_usize(1..bytes.len() - 1);
        let count = match rng.gen_range_u32(0..3) {
            0 => u16::MAX,
            1 => u16::from_be_bytes([bytes[at], bytes[at + 1]]).wrapping_add(1),
            _ => rng.next_u32() as u16,
        };
        bytes[at..at + 2].copy_from_slice(&count.to_be_bytes());
    }
    if how == 3 {
        bytes.truncate(rng.gen_range_usize(0..bytes.len()));
    }
    bytes
}

#[test]
fn seeded_decode_fuzz_never_panics_overallocates_or_drifts() {
    let golden = golden();
    let mut tally = Tally::default();
    let mut out = Vec::new();

    // Every truncation of every golden payload, in both directions.
    for (_, payload) in &golden {
        for cut in 0..=payload.len() {
            tally.check(None, true, &payload[..cut], &mut out);
            tally.check(None, false, &payload[..cut], &mut out);
        }
    }

    // The largest valid frames, then mutations of them.
    let big = max_size_requests();
    for payload in &big {
        tally.check(None, true, payload, &mut out);
    }
    let big_mutations = if cfg!(debug_assertions) { 6 } else { 60 };
    for i in 0..big_mutations {
        let seed = !SEED ^ i;
        let mut rng = Pcg32::seed_from_u64(seed);
        let base = &big[rng.gen_range_usize(0..big.len())];
        tally.check(Some(seed), true, &mutate(&mut rng, base), &mut out);
    }

    // Seeded inputs.
    for i in 0..INPUTS {
        let seed = SEED.wrapping_add(i);
        let mut rng = Pcg32::seed_from_u64(seed);
        if rng.gen_range_u32(0..8) == 0 {
            // Random bytes, often behind a known type byte.
            let mut bytes: Vec<u8> = (0..rng.gen_range_usize(0..48))
                .map(|_| rng.next_u32() as u8)
                .collect();
            if !bytes.is_empty() && rng.gen_bool(0.75) {
                let (_, known) = &golden[rng.gen_range_usize(0..golden.len())];
                bytes[0] = known[0];
            }
            tally.check(Some(seed), true, &bytes, &mut out);
            tally.check(Some(seed), false, &bytes, &mut out);
        } else {
            let (request, base) = &golden[rng.gen_range_usize(0..golden.len())];
            tally.check(Some(seed), *request, &mutate(&mut rng, base), &mut out);
        }
    }

    eprintln!("frame_fuzz: seed {SEED:#x}, {INPUTS} seeded inputs, {tally:?}");
    for dir in 0..2 {
        assert!(
            tally.accepted[dir] > 0 && tally.refused[dir] > 0,
            "{tally:?}"
        );
    }
}
