//! Effect fixture, policy half (clean case): a free hook in a policy
//! module that declares no type, which only reads the server's queue.

use crate::Server;

/// How many requests to shed: a decision the engine applies.
pub fn shed(srv: &Server) -> usize {
    srv.queue.len() / 2
}
