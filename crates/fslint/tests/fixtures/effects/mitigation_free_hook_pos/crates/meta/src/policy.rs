//! Effect fixture, policy half: a free load-shedding hook in a policy
//! module that declares no type, which drops the server's queue directly.

use crate::Server;

/// Sheds load by clearing the server's queue, which is not policy-owned
/// state.
pub fn shed(srv: &mut Server) {
    srv.queue.clear();
}
