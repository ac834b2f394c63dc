//! Trace sinks: where events go.
//!
//! Instrumentation sites hold a `&mut dyn TraceSink` and call
//! [`TraceSink::emit`] per event. [`NullSink`] reports itself disabled so
//! call sites can skip building events whose construction is not free
//! (e.g. per-consumer stall scans), keeping the uninstrumented hot path
//! within noise of the pre-instrumentation simulator.

use crate::event::TraceEvent;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// Destination of a cycle-event stream.
///
/// `Send` so a simulator owning its sink can move whole onto a worker
/// thread (the serve crate runs one `System` per shard, on whichever
/// thread runs the shard's activation).
pub trait TraceSink: std::fmt::Debug + Send {
    /// Records one event.
    fn emit(&mut self, ev: &TraceEvent);

    /// Whether emitting has any effect. Instrumentation may skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes buffered output (JSONL writers).
    fn flush(&mut self) {}
}

/// Discards everything; `enabled()` is `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _ev: &TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Collects every event in order (tests, the determinism regression).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// Streams events as JSON Lines to any writer.
///
/// Emitting cannot fail, so the first write error is kept and
/// [`JsonlSink::into_inner`] returns it.
#[derive(Debug)]
pub struct JsonlSink<W: Write + std::fmt::Debug> {
    w: W,
    error: Option<std::io::Error>,
}

impl<W: Write + std::fmt::Debug> JsonlSink<W> {
    /// Wraps a writer. Callers wanting buffering pass a `BufWriter`.
    pub fn new(w: W) -> Self {
        JsonlSink { w, error: None }
    }

    /// Writes a raw metadata line (e.g. run headers between experiment
    /// phases); `obj` must already be a complete JSON object.
    pub fn write_meta(&mut self, obj: &str) {
        let written = writeln!(self.w, "{obj}");
        self.keep_error(written);
    }

    /// Consumes the sink, returning the writer after flushing it, or the
    /// first error a write or the flush met.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        let flushed = self.w.flush();
        self.keep_error(flushed);
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.w),
        }
    }

    fn keep_error(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }
}

impl<W: Write + std::fmt::Debug + Send> TraceSink for JsonlSink<W> {
    fn emit(&mut self, ev: &TraceEvent) {
        let written = writeln!(self.w, "{}", ev.to_jsonl());
        self.keep_error(written);
    }

    fn flush(&mut self) {
        let flushed = self.w.flush();
        self.keep_error(flushed);
    }
}

/// A cloneable handle to a shared sink, so a caller can hand one end to a
/// `System` (which owns its sink) and keep the other to inspect events
/// afterwards. Mutex-backed (not `RefCell`) so the handle satisfies the
/// trait's `Send` bound and survives the `System` moving threads.
#[derive(Debug, Default)]
pub struct SharedSink<S: TraceSink>(Arc<Mutex<S>>);

impl<S: TraceSink> SharedSink<S> {
    /// Wraps a sink for sharing.
    pub fn new(sink: S) -> Self {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Runs `f` with the inner sink borrowed.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Runs `f` with the inner sink borrowed mutably.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<S: TraceSink> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Arc::clone(&self.0))
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn emit(&mut self, ev: &TraceEvent) {
        self.with_mut(|s| s.emit(ev));
    }

    fn enabled(&self) -> bool {
        self.with(TraceSink::enabled)
    }

    fn flush(&mut self) {
        self.with_mut(TraceSink::flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Port};

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            bank: 0,
            port: Port::C,
            addr: 1,
            kind: EventKind::ArbStall { consumer: 0 },
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&ev(0));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(&ev(7));
        s.emit(&ev(8));
        s.write_meta("{\"meta\":1}");
        let out = String::from_utf8(s.into_inner().unwrap()).unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(out.lines().next().unwrap().contains("\"c\":7"));
    }

    #[test]
    fn jsonl_sink_returns_the_first_write_error() {
        /// Accepts `room` bytes, then fails every write.
        #[derive(Debug)]
        struct Full {
            room: usize,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.room {
                    return Err(std::io::ErrorKind::WriteZero.into());
                }
                self.room -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut s = JsonlSink::new(Full { room: 40 });
        s.emit(&ev(1));
        s.emit(&ev(2));
        s.emit(&ev(3));
        let err = s.into_inner().expect_err("the writer ran out of room");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn shared_sink_exposes_events_after_moving_one_handle() {
        let shared = SharedSink::new(VecSink::new());
        let mut handle: Box<dyn TraceSink> = Box::new(shared.clone());
        handle.emit(&ev(3));
        assert_eq!(shared.with(|s| s.events.len()), 1);
    }
}
