//! Effect fixture, oracle half: the verdict moves a cursor it was handed
//! by `&mut`, so the `Cursor.segment` write lands in its caller's state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// Judges the timeline's rate at `at`, advancing the caller's cursor.
pub fn check(line: &simcore::Timeline, cursor: &mut simcore::Cursor, at: usize) -> bool {
    line.rate_from(cursor, at) > 0
}
