//! Behavioral model of one 18 Kb BRAM bank (512×36 view, 32-bit payload),
//! with the synchronous one-cycle read latency of the real block.
//!
//! The raw bank knows nothing about guarding: `write` unconditionally
//! overwrites. That is correct because every *guarded* write in the
//! system reaches a bank only through a wrapper's counted path — the
//! arbitrated model's `DependencyList::producer_write_at` or the
//! event-driven model's window admission — both of which account for
//! overwrites of unconsumed values in their `lost_updates` counters.
//! Port A traffic (private per-thread state, lookup tables) is unguarded
//! by construction and overwrites freely.

/// Words in the bank.
pub const BANK_WORDS: usize = 512;

/// One true-dual-port BRAM (only the payload bits are modeled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BramModel {
    words: Vec<u32>,
}

impl Default for BramModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BramModel {
    /// A zero-initialized bank.
    pub fn new() -> Self {
        BramModel {
            words: vec![0; BANK_WORDS],
        }
    }

    /// Synchronous read: the value that will appear on the output register
    /// in the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the bank (a routing bug upstream).
    pub fn read(&self, addr: u32) -> u32 {
        self.words[addr as usize % BANK_WORDS]
    }

    /// Write a word.
    pub fn write(&mut self, addr: u32, data: u32) {
        self.words[addr as usize % BANK_WORDS] = data;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut b = BramModel::new();
        b.write(7, 0xdead_beef);
        assert_eq!(b.read(7), 0xdead_beef);
        assert_eq!(b.read(8), 0);
    }

    #[test]
    fn addresses_wrap_at_bank_size() {
        let mut b = BramModel::new();
        b.write(BANK_WORDS as u32 + 1, 9);
        assert_eq!(b.read(1), 9);
    }
}
