//! Dense integer IDs for thread names.
//!
//! The engine's hot loop must not touch `String`s: at [`crate::System`]
//! construction time every thread name is interned into a [`ThreadId`],
//! and all per-cycle state (private banks, rx queues, arrival sources,
//! per-bank slot routing) lives in flat `Vec`s indexed by those IDs. Names
//! are only looked up again on cold, user-facing paths such as
//! [`crate::System::thread`].

/// Dense index of a thread within a [`crate::System`] (order of
/// `CompiledSystem::fsms`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Thread-name table built once at `System::new` time.
///
/// Lookups (`name -> id`) are linear scans — they only run on cold,
/// user-facing paths (`System::thread`, `System::attach_source`).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    threads: Vec<String>,
}

impl Interner {
    /// Builds the table from thread names, in engine order.
    pub fn new(threads: Vec<String>) -> Self {
        Interner { threads }
    }

    /// Id of a thread name, if interned.
    pub fn thread_id(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .position(|t| t == name)
            .map(|i| ThreadId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_engine_order() {
        let i = Interner::new(vec!["t1".into(), "t2".into(), "t3".into()]);
        assert_eq!(i.thread_id("t2"), Some(ThreadId(1)));
        assert_eq!(i.thread_id("nope"), None);
    }
}
