//! Lightweight event tracing for debugging and experiment narration.
//!
//! A [`Trace`] records timestamped, categorised messages with a bounded
//! buffer. Tracing is off by default and costs one branch per call when
//! disabled, so models can trace unconditionally.

use crate::time::SimTime;

/// One recorded trace entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the entry was recorded.
    pub at: SimTime,
    /// Fixed category label (e.g. `"scsi"`, `"raid"`).
    pub category: &'static str,
    /// Free-form message.
    pub message: String,
}

/// A bounded, categorised trace buffer.
///
/// # Examples
///
/// ```
/// use simcore::trace::Trace;
/// use simcore::time::SimTime;
///
/// let mut trace = Trace::new(100);
/// trace.enable();
/// trace.log(SimTime::from_secs(1), "disk", "bad block remapped".to_string());
/// assert_eq!(trace.entries().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Trace {
    /// Creates a disabled trace that keeps at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Trace { entries: Vec::new(), capacity, dropped: 0, enabled: false }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turns recording off (existing entries are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// True if recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a message if tracing is enabled. Once the buffer is full,
    /// further entries are counted in [`dropped`](Self::dropped) instead.
    pub fn log(&mut self, at: SimTime, category: &'static str, message: String) {
        if !self.enabled {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.entries.push(TraceEntry { at, category, message });
    }

    /// The recorded entries, oldest first.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries in one category.
    pub fn by_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.category == category)
    }

    /// How many entries were discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears all entries and the drop counter.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }

    /// Renders the trace as one line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("[{}] {}: {}\n", e.at, e.category, e.message));
        }
        if self.dropped > 0 {
            out.push_str(&format!("... {} entries dropped\n", self.dropped));
        }
        out
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(10);
        t.log(SimTime::ZERO, "x", "hello".into());
        assert!(t.entries().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_and_filters() {
        let mut t = Trace::new(10);
        t.enable();
        t.log(SimTime::from_secs(1), "a", "one".into());
        t.log(SimTime::from_secs(2), "b", "two".into());
        t.log(SimTime::from_secs(3), "a", "three".into());
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.by_category("a").count(), 2);
    }

    #[test]
    fn full_buffer_counts_drops() {
        let mut t = Trace::new(2);
        t.enable();
        for i in 0..5 {
            t.log(SimTime::from_secs(i), "x", format!("{i}"));
        }
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert!(t.render().contains("3 entries dropped"));
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert!(t.entries().is_empty());
    }

    #[test]
    fn render_formats_lines() {
        let mut t = Trace::new(10);
        t.enable();
        t.log(SimTime::from_millis(1500), "raid", "rebalance".into());
        let s = t.render();
        assert!(s.contains("1.500s") && s.contains("raid: rebalance"), "{s}");
    }
}
