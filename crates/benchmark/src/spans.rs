//! The benchmark's own spans, recorded around every client call and every
//! timed layer repetition from outside the program. They are held in
//! memory while the run measures and appended to a JSONL file when it
//! ends, one object per line:
//! `{"id","parent","req","name","start_ns","end_ns"}` with times in
//! nanoseconds since the Unix epoch.

use memsync_trace::Json;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// An in-memory span log. Disabled logs record nothing, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    epoch_unix_ns: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A log whose span ids start at `id_base + 1`. Logs that are later
    /// written to the same file take disjoint id bases.
    pub fn new(enabled: bool, id_base: u64) -> Spans {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Spans {
            enabled,
            epoch: Instant::now(),
            epoch_unix_ns: unix,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Takes the next span id without recording anything, for a span
    /// that parents others but ends after them (0 when disabled).
    pub fn reserve(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a [`Spans::reserve`]d id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start,
                end,
            });
        }
    }

    /// Records one finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Takes over every span of `other` (a worker thread's log).
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    fn unix_ns(&self, t: Instant) -> u64 {
        let since = t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let before = self.epoch.saturating_duration_since(t).as_nanos() as u64;
        (self.epoch_unix_ns + since).saturating_sub(before)
    }

    /// Appends every span to `path` as JSONL (creating the file and its
    /// directory if needed). A disabled log writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn append_jsonl(&self, path: &str) -> io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = BufWriter::new(file);
        for s in &self.spans {
            let line = Json::obj()
                .with("id", s.id.into())
                .with("parent", s.parent.into())
                .with("req", s.req.into())
                .with("name", s.name.into())
                .with("start_ns", self.unix_ns(s.start).into())
                .with("end_ns", self.unix_ns(s.end).into());
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::new(false, 0);
        let t = Instant::now();
        assert_eq!(s.record("submit", 0, 1, t, t), 0);
        assert_eq!(s.spans.len(), 0);
    }

    #[test]
    fn ids_start_above_the_base_and_parents_link() {
        let mut s = Spans::new(true, 1 << 40);
        let t = Instant::now();
        let root = s.reserve();
        let child = s.record("submit", root, 7, t, t);
        s.record_as(root, "round", 0, 0, t, t);
        assert_eq!(root, (1 << 40) + 1);
        assert_eq!(child, root + 1);
        let mut worker = Spans::new(true, 2 << 40);
        worker.record("submit", root, 8, t, t);
        s.absorb(worker);
        assert_eq!(s.spans.len(), 3);
    }
}
