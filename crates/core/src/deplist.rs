//! The dependency list of §3.1.
//!
//! "Each entry in the list has two parts. The first part contains a
//! dependency number, which is the number of threads that are dependent on
//! this producer. … The second part of the entry is the base address of the
//! data structure in BRAM." The list is CAM-searched by address; it is
//! populated at configuration time from the static analysis, and producers
//! re-arm an entry's counter by writing through port D.
//!
//! The behavioral model here is the single source of truth for the
//! simulator; the hardware structure is the `Cam` macro instantiated by
//! [`crate::arbitrated`].

/// Counter width per entry (up to 15 consumers per dependency).
pub const COUNTER_WIDTH: u32 = 4;

/// One dependency-list entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Guarded base address in the BRAM.
    pub base_addr: u32,
    /// Consumers that must read after each producer write (the configured
    /// dependency number).
    pub dep_number: u8,
    /// Remaining consumer reads before the produce–consume cycle completes.
    pub remaining: u8,
    /// Whether a producer write has armed the entry (reads before the first
    /// write block).
    pub armed: bool,
}

/// The configuration-time populated dependency list.
///
/// Besides the entries it keeps one pending bit per entry (armed with
/// reads still owed), so a caller that has resolved its addresses to entry
/// indices once ([`DependencyList::find`]) tests any entry with a mask and
/// reads, writes and checks by index with no further CAM search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyList {
    entries: Vec<Entry>,
    capacity: usize,
    /// Bit `e` set: entry `e` has an open produce–consume cycle.
    pending: u16,
}

/// Outcome of a guarded producer write attempt.
///
/// The paper's guarded locations have *sampling* semantics: a producer
/// write is always accepted when the address is listed, even if the
/// previous value has unconsumed reads outstanding — the old value is
/// silently superseded. [`WriteOutcome::Accepted`] makes that overwrite
/// explicit so the simulator can count it (the `lost_updates` detector)
/// instead of losing data silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// No matching entry: the address is not guarded, write refused (§3.1).
    Rejected,
    /// The entry was re-armed.
    Accepted {
        /// The previous produce–consume cycle was still open: consumers had
        /// not drained the counter, and their pending value is now gone.
        overwrote_unconsumed: bool,
    },
}

impl WriteOutcome {
    /// Whether the write was accepted (an entry matched).
    pub fn accepted(self) -> bool {
        matches!(self, WriteOutcome::Accepted { .. })
    }

    /// Whether the write destroyed a value with outstanding consumer reads.
    pub fn lost_update(self) -> bool {
        matches!(
            self,
            WriteOutcome::Accepted {
                overwrote_unconsumed: true
            }
        )
    }
}

/// Outcome of a guarded read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Address is guarded and data is available; the counter decremented.
    Granted {
        /// Reads still owed after this one.
        remaining: u8,
    },
    /// Address is guarded but the producer has not written yet (or all
    /// reads of this cycle are consumed); the request blocks.
    Blocked,
    /// Address is not in the list — not a guarded address.
    Unguarded,
}

impl DependencyList {
    /// Creates an empty list with a hardware capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 16.
    pub fn new(capacity: usize) -> Self {
        assert!(
            (1..=16).contains(&capacity),
            "dependency list capacity 1..=16"
        );
        DependencyList {
            entries: Vec::new(),
            capacity,
            pending: 0,
        }
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are populated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hardware capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Populates an entry at configuration time.
    ///
    /// # Errors
    ///
    /// Fails when capacity is exhausted, the address is already guarded, or
    /// the dependency number does not fit the counter.
    pub fn configure(&mut self, base_addr: u32, dep_number: u8) -> Result<(), String> {
        if self.entries.len() == self.capacity {
            return Err(format!("dependency list full ({} entries)", self.capacity));
        }
        if dep_number == 0 || u32::from(dep_number) >= (1 << COUNTER_WIDTH) {
            return Err(format!(
                "dependency number {dep_number} out of range 1..=15"
            ));
        }
        if self.find(base_addr).is_some() {
            return Err(format!("address {base_addr:#x} already guarded"));
        }
        self.entries.push(Entry {
            base_addr,
            dep_number,
            remaining: 0,
            armed: false,
        });
        Ok(())
    }

    /// CAM search: the index of the entry guarding `addr`.
    pub fn find(&self, addr: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.base_addr == addr)
    }

    /// Producer write through port D to the entry at index `e`, as
    /// [`DependencyList::find`] resolved it: allowed only with
    /// dep_number > 0 (§3.1); re-arms the counter. Reports whether the
    /// re-arm overwrote a value whose consumers had not all read yet
    /// ([`WriteOutcome::lost_update`]). Every guarded overwrite in the
    /// system flows through here — there is no other path that re-arms
    /// an entry.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a populated entry.
    pub fn producer_write_at(&mut self, e: usize) -> WriteOutcome {
        let entry = &mut self.entries[e];
        if entry.dep_number == 0 {
            return WriteOutcome::Rejected;
        }
        let overwrote_unconsumed = entry.armed && entry.remaining > 0;
        entry.remaining = entry.dep_number;
        entry.armed = true;
        self.pending |= 1 << e;
        WriteOutcome::Accepted {
            overwrote_unconsumed,
        }
    }

    /// Consumer read through port C of the entry at index `e`, as
    /// [`DependencyList::find`] resolved it: granted when the entry is
    /// armed with remaining reads; decrements the counter, completing the
    /// produce–consume cycle at zero ("ending of the need for the address
    /// to be guarded" until the next write).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a populated entry.
    pub fn consumer_read_at(&mut self, e: usize) -> ReadOutcome {
        let entry = &mut self.entries[e];
        if !(entry.armed && entry.remaining > 0) {
            return ReadOutcome::Blocked;
        }
        entry.remaining -= 1;
        if entry.remaining == 0 {
            entry.armed = false;
            self.pending &= !(1 << e);
        }
        ReadOutcome::Granted {
            remaining: entry.remaining,
        }
    }

    /// The entries with an open produce–consume cycle, bit `e` for the
    /// entry at index `e`.
    pub fn pending_mask(&self) -> u16 {
        self.pending
    }

    /// Number of entries with an open produce–consume cycle (armed with
    /// reads still owed) — the instantaneous occupancy the trace layer
    /// tracks as a high-water mark.
    pub fn occupancy(&self) -> usize {
        self.pending.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether entry `e` has an open produce–consume cycle.
    fn pending(dl: &DependencyList, e: usize) -> bool {
        dl.pending_mask() >> e & 1 == 1
    }

    #[test]
    fn configure_then_full_cycle() {
        let mut dl = DependencyList::new(4);
        dl.configure(0x10, 2).unwrap();
        let e = dl.find(0x10).expect("configured");
        // Reads before any write block.
        assert_eq!(dl.consumer_read_at(e), ReadOutcome::Blocked);
        // Producer arms the entry.
        assert!(dl.producer_write_at(e).accepted());
        assert!(pending(&dl, e));
        // Two consumer reads drain it.
        assert_eq!(
            dl.consumer_read_at(e),
            ReadOutcome::Granted { remaining: 1 }
        );
        assert_eq!(
            dl.consumer_read_at(e),
            ReadOutcome::Granted { remaining: 0 }
        );
        assert!(!pending(&dl, e));
        // Third read blocks until the next write.
        assert_eq!(dl.consumer_read_at(e), ReadOutcome::Blocked);
        assert!(dl.producer_write_at(e).accepted());
        assert_eq!(
            dl.consumer_read_at(e),
            ReadOutcome::Granted { remaining: 1 }
        );
    }

    #[test]
    fn occupancy_tracks_open_cycles() {
        let mut dl = DependencyList::new(4);
        dl.configure(0x10, 2).unwrap();
        dl.configure(0x20, 1).unwrap();
        let (a, b) = (dl.find(0x10).unwrap(), dl.find(0x20).unwrap());
        assert_eq!(dl.occupancy(), 0);
        dl.producer_write_at(a);
        assert_eq!(dl.occupancy(), 1);
        dl.producer_write_at(b);
        assert_eq!(dl.occupancy(), 2);
        dl.consumer_read_at(b);
        assert_eq!(dl.occupancy(), 1, "drained entry closes");
    }

    #[test]
    fn pending_mask_follows_the_entries() {
        let mut dl = DependencyList::new(4);
        dl.configure(0x10, 1).unwrap();
        dl.configure(0x20, 2).unwrap();
        assert_eq!(
            (dl.find(0x10), dl.find(0x20), dl.find(0x30)),
            (Some(0), Some(1), None)
        );
        assert_eq!(dl.pending_mask(), 0);
        dl.producer_write_at(1);
        assert_eq!(dl.pending_mask(), 0b10);
        dl.producer_write_at(0);
        assert_eq!(dl.pending_mask(), 0b11);
        assert_eq!(
            dl.consumer_read_at(0),
            ReadOutcome::Granted { remaining: 0 }
        );
        assert_eq!(dl.pending_mask(), 0b10);
        dl.consumer_read_at(1);
        assert_eq!(dl.pending_mask(), 0b10, "one read of two still owed");
        dl.consumer_read_at(1);
        assert_eq!(dl.pending_mask(), 0);
        for e in &dl.entries {
            assert!(!e.armed && e.remaining == 0);
        }
    }

    #[test]
    fn unguarded_addresses_pass_through() {
        let mut dl = DependencyList::new(4);
        dl.configure(0x10, 1).unwrap();
        assert_eq!(dl.find(0x99), None, "no entry guards 0x99");
    }

    #[test]
    fn write_to_unlisted_address_rejected() {
        let dl = DependencyList::new(4);
        assert_eq!(dl.find(0x44), None, "§3.1: write needs a matching entry");
    }

    #[test]
    fn capacity_enforced() {
        let mut dl = DependencyList::new(2);
        dl.configure(1, 1).unwrap();
        dl.configure(2, 1).unwrap();
        assert!(dl.configure(3, 1).is_err());
    }

    #[test]
    fn duplicate_address_rejected() {
        let mut dl = DependencyList::new(4);
        dl.configure(7, 1).unwrap();
        assert!(dl.configure(7, 2).is_err());
    }

    #[test]
    fn dep_number_range_checked() {
        let mut dl = DependencyList::new(4);
        assert!(dl.configure(1, 0).is_err());
        assert!(dl.configure(1, 16).is_err());
        assert!(dl.configure(1, 15).is_ok());
    }

    #[test]
    fn checked_write_reports_overwrite_of_unconsumed_value() {
        let mut dl = DependencyList::new(4);
        dl.configure(0x30, 2).unwrap();
        let e = dl.find(0x30).expect("configured");
        // First write of a cycle: nothing pending, no loss.
        assert_eq!(
            dl.producer_write_at(e),
            WriteOutcome::Accepted {
                overwrote_unconsumed: false
            }
        );
        // Re-write before any consumer read: the pending value is lost.
        assert!(dl.producer_write_at(e).lost_update());
        // Partially drained still counts: one of two reads outstanding.
        dl.consumer_read_at(e);
        assert!(dl.producer_write_at(e).lost_update());
        // Fully drained: the next write opens a fresh cycle cleanly.
        dl.consumer_read_at(e);
        dl.consumer_read_at(e);
        assert!(!dl.producer_write_at(e).lost_update());
        // Unlisted addresses have no entry to write, and a refused write
        // is never counted as lost.
        assert_eq!(dl.find(0x99), None);
        let out = WriteOutcome::Rejected;
        assert!(!out.accepted() && !out.lost_update());
    }

    #[test]
    fn rewrite_before_drain_rearms() {
        // A second producer write before all consumers read re-arms the
        // counter (the new value supersedes; no rollback per the paper).
        let mut dl = DependencyList::new(4);
        dl.configure(0x20, 3).unwrap();
        let e = dl.find(0x20).expect("configured");
        assert!(dl.producer_write_at(e).accepted());
        assert_eq!(
            dl.consumer_read_at(e),
            ReadOutcome::Granted { remaining: 2 }
        );
        assert!(dl.producer_write_at(e).accepted());
        assert_eq!(
            dl.consumer_read_at(e),
            ReadOutcome::Granted { remaining: 2 }
        );
    }
}
