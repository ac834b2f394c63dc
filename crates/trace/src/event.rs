//! Typed cycle events with `(cycle, bank, port, addr)` attribution.
//!
//! One event describes one observable micro-action of a memory wrapper or
//! of the engine around it during one clock cycle. Events are small `Copy`
//! structs so emitting them through a [`crate::sink::NullSink`] costs a
//! few moves that the optimizer deletes.

/// Physical BRAM/wrapper port an event is attributed to.
///
/// `Rx` tags engine-level network-queue events that have no BRAM port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Port {
    /// Private per-thread port (never arbitrated).
    A,
    /// Read port of the event-driven organization's consumers.
    B,
    /// Arbitrated consumer pseudo-port.
    C,
    /// Producer pseudo-port.
    D,
    /// The thread's network receive interface (no BRAM port).
    Rx,
}

impl Port {
    /// Short stable name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            Port::A => "A",
            Port::B => "B",
            Port::C => "C",
            Port::D => "D",
            Port::Rx => "rx",
        }
    }
}

/// Producer or consumer side of a pseudo-port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Writing side (port D / selection window).
    Producer,
    /// Reading side (port C / event outputs).
    Consumer,
}

impl Role {
    /// One-letter prefix used in counter names (`p0`, `c3`, …).
    pub fn prefix(self) -> char {
        match self {
            Role::Producer => 'p',
            Role::Consumer => 'c',
        }
    }
}

/// What happened this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A consumer read was issued to the BRAM (data arrives next cycle).
    ReadIssue {
        /// Consumer pseudo-port index.
        consumer: usize,
    },
    /// A held request was accepted (write committed / read issued).
    Grant {
        /// Which side was granted.
        role: Role,
        /// Pseudo-port index within that side.
        index: usize,
    },
    /// A consumer was eligible (dependency armed) but lost arbitration or
    /// was pre-empted this cycle — the §3.1 jitter source.
    ArbStall {
        /// Consumer pseudo-port index.
        consumer: usize,
    },
    /// A consumer is blocked on its dependency (producer has not written,
    /// or this round's reads are drained).
    DepWait {
        /// Consumer pseudo-port index.
        consumer: usize,
    },
    /// A producer is blocked waiting for its selection window (§3.2) or
    /// for the port to free.
    WindowStall {
        /// Producer pseudo-port index.
        producer: usize,
    },
    /// A producer write matched a dependency-list entry (CAM hit).
    DepListHit {
        /// Producer pseudo-port index.
        producer: usize,
    },
    /// A producer write missed the dependency list and was rejected.
    DepListMiss {
        /// Producer pseudo-port index.
        producer: usize,
    },
    /// A producer write was committed to the BRAM.
    Write {
        /// Producer pseudo-port index.
        producer: usize,
        /// Data written.
        data: u32,
    },
    /// Read data was delivered to a consumer.
    Deliver {
        /// Consumer pseudo-port index.
        consumer: usize,
        /// Data delivered.
        data: u32,
    },
    /// A message was pushed onto a thread's rx queue.
    QueuePush {
        /// Thread index.
        thread: usize,
        /// Queue depth after the push.
        depth: usize,
    },
    /// A message was popped from a thread's rx queue.
    QueuePop {
        /// Thread index.
        thread: usize,
        /// Queue depth after the pop.
        depth: usize,
    },
}

impl EventKind {
    /// Stable snake_case name used in the JSONL schema and counters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ReadIssue { .. } => "read_issue",
            EventKind::Grant { .. } => "grant",
            EventKind::ArbStall { .. } => "arb_stall",
            EventKind::DepWait { .. } => "dep_wait",
            EventKind::WindowStall { .. } => "window_stall",
            EventKind::DepListHit { .. } => "deplist_hit",
            EventKind::DepListMiss { .. } => "deplist_miss",
            EventKind::Write { .. } => "write",
            EventKind::Deliver { .. } => "deliver",
            EventKind::QueuePush { .. } => "queue_push",
            EventKind::QueuePop { .. } => "queue_pop",
        }
    }
}

/// One cycle-attributed trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock cycle the event happened in.
    pub cycle: u64,
    /// Bank index. Sync banks come first in compilation order; private
    /// per-thread port-A banks follow (`sync_bank_count + thread_index`).
    pub bank: u16,
    /// Port the event is attributed to.
    pub port: Port,
    /// Address within the bank (0 when not address-attributed, e.g. queue
    /// events).
    pub addr: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    ///
    /// Schema: `{"c":<cycle>,"bank":<bank>,"port":"<A|B|C|D|rx>",
    /// "addr":<addr>,"ev":"<kind>", ...kind fields}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"c\":{},\"bank\":{},\"port\":\"{}\",\"addr\":{},\"ev\":\"{}\"",
            self.cycle,
            self.bank,
            self.port.name(),
            self.addr,
            self.kind.name()
        );
        match self.kind {
            EventKind::ReadIssue { consumer }
            | EventKind::ArbStall { consumer }
            | EventKind::DepWait { consumer } => {
                s.push_str(&format!(",\"consumer\":{consumer}"));
            }
            EventKind::Grant { role, index } => {
                s.push_str(&format!(
                    ",\"role\":\"{}\",\"index\":{index}",
                    match role {
                        Role::Producer => "producer",
                        Role::Consumer => "consumer",
                    }
                ));
            }
            EventKind::WindowStall { producer }
            | EventKind::DepListHit { producer }
            | EventKind::DepListMiss { producer } => {
                s.push_str(&format!(",\"producer\":{producer}"));
            }
            EventKind::Write { producer, data } => {
                s.push_str(&format!(",\"producer\":{producer},\"data\":{data}"));
            }
            EventKind::Deliver { consumer, data } => {
                s.push_str(&format!(",\"consumer\":{consumer},\"data\":{data}"));
            }
            EventKind::QueuePush { thread, depth } | EventKind::QueuePop { thread, depth } => {
                s.push_str(&format!(",\"thread\":{thread},\"depth\":{depth}"));
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_line_carries_attribution_and_payload() {
        let ev = TraceEvent {
            cycle: 42,
            bank: 1,
            port: Port::C,
            addr: 0x10,
            kind: EventKind::Deliver {
                consumer: 3,
                data: 99,
            },
        };
        let line = ev.to_jsonl();
        assert_eq!(
            line,
            "{\"c\":42,\"bank\":1,\"port\":\"C\",\"addr\":16,\"ev\":\"deliver\",\"consumer\":3,\"data\":99}"
        );
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::ArbStall { consumer: 0 }.name(), "arb_stall");
        assert_eq!(
            EventKind::DepListMiss { producer: 0 }.name(),
            "deplist_miss"
        );
        assert_eq!(
            EventKind::Grant {
                role: Role::Producer,
                index: 0
            }
            .name(),
            "grant"
        );
    }
}
