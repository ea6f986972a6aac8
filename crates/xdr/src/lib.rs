//! XDR marshaling (RFC 1832).
//!
//! Paper §3.2: "the exact bytes exchanged between programs are clearly and
//! unambiguously described in the XDR protocol description language … SFS
//! computes the hash or public key function on the raw, marshaled bytes."
//!
//! [`enc`] gives RFC 1832's 4-byte alignment and big-endian conventions
//! through the [`Xdr`] trait. The only RPC framing built on it is
//! `sfs::wire`'s sealed envelope (authno, procedure, arguments), and that
//! framing's pretty-printer is `CallMsg::describe` / `ReplyMsg::describe`.

pub mod enc;

pub use enc::{with_encoder, VarField, Xdr, XdrDecoder, XdrEncoder, XdrError};
