//! XDR marshaling (RFC 1832) and Sun RPC v2 framing (RFC 1831).
//!
//! Paper §3.2: "All programs communicate with Sun RPC. Thus, the exact bytes
//! exchanged between programs are clearly and unambiguously described in the
//! XDR protocol description language … Any data that SFS hashes, signs, or
//! public-key encrypts is defined as an XDR data structure; SFS computes the
//! hash or public key function on the raw, marshaled bytes."
//!
//! This crate provides:
//!
//! - [`enc`]: XDR encoding/decoding with the 4-byte alignment and big-endian
//!   conventions of RFC 1832, via the [`Xdr`] trait;
//! - [`rpc`]: Sun RPC call/reply messages and TCP record marking;
//! - [`pretty`]: an RPC traffic pretty-printer ("our RPC library can
//!   pretty-print RPC traffic for debugging").

pub mod enc;
pub mod pretty;
pub mod rpc;

pub use enc::{with_encoder, VarField, Xdr, XdrDecoder, XdrEncoder, XdrError};
pub use rpc::{AcceptStat, AuthFlavor, OpaqueAuth, RejectStat, RpcCall, RpcMessage, RpcReply};
