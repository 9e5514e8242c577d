//! Unit fixture: a one-token right-hand side launders a nanos local
//! into a struct field; the field's unit must come from that token.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// A measurement window; `span` carries whatever `fill` stored.
pub struct Window {
    /// The measured span (unit declared only at the write site).
    pub span: u64,
}

/// Stores a nanos-suffixed parameter into the field.
pub fn fill(w: &mut Window, t_nanos: u64) {
    w.span = t_nanos;
}

/// Adds a millis budget to the laundered nanos field.
pub fn padded(w: &Window, budget_ms: u64) -> u64 {
    w.span + budget_ms
}
