//! # memsync-netapp — networking application substrate
//!
//! The paper's evaluation domain: IP packet forwarding. This crate provides
//! the software reference (packets, checksums, a longest-prefix-match FIB),
//! seeded workload generation, and hic source generators for the forwarding
//! application whose 1/2, 1/4, and 1/8 producer/consumer scenarios the
//! experiments sweep.
//!
//! * [`packet`] — IPv4 headers, RFC 1071 checksums, the forwarding transform;
//! * [`fib`] — binary-trie longest-prefix match plus the flat
//!   [`fib::Dir24_8`] classifier compiled from it;
//! * [`forwarding`] — hic source generators ([`forwarding::app_source`],
//!   [`forwarding::core_source`]);
//! * [`workload`] — seeded packet traces and the software oracle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fib;
pub mod forwarding;
pub mod packet;
pub mod workload;

pub use fib::{Dir24_8, Fib, Route};
pub use packet::Ipv4Packet;
pub use workload::Workload;
