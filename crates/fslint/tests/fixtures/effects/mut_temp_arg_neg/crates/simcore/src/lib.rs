//! Effect fixture, sim half: a step timeline read through a cursor that
//! each lookup moves forward.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// A position in a [`Timeline`]: the segment the last lookup landed in.
#[derive(Default)]
pub struct Cursor {
    /// Index of the current segment.
    pub segment: usize,
}

/// A piecewise-constant rate timeline.
pub struct Timeline {
    /// One rate per segment.
    pub steps: Vec<u64>,
}

impl Timeline {
    /// The rate at `at`, from a fresh cursor: the cursor is a temporary
    /// of this call, so the write below stays in this frame.
    pub fn rate_at(&self, at: usize) -> u64 {
        self.rate_from(&mut Cursor::default(), at)
    }

    /// The rate at `at`, moving `cursor` to its segment.
    pub fn rate_from(&self, cursor: &mut Cursor, at: usize) -> u64 {
        cursor.segment = at.min(self.steps.len().saturating_sub(1));
        self.steps.get(cursor.segment).copied().unwrap_or(0)
    }
}
