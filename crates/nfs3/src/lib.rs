//! NFS version 3 protocol engine (module list; implementation follows).

pub mod proto;
mod server;

pub use proto::*;
pub use server::Nfs3Server;
