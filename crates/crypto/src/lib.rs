//! Cryptographic primitives for the SFS reproduction.
//!
//! Paper §3.1.3 enumerates SFS's exact cryptographic toolbox; this crate
//! implements all of it from scratch:
//!
//! - [`sha1`](mod@sha1): SHA-1 (FIPS 180-1), the hash behind HostIDs, MACs, and the
//!   pseudo-random generator.
//! - [`arc4`]: the ARC4 stream cipher, with SFS's 20-byte-key key-schedule
//!   spinning (one spin per 128 bits of key data).
//! - [`mac`]: the SHA-1-based per-message MAC, re-keyed for each RPC with 32
//!   bytes pulled from the ARC4 stream.
//! - [`blowfish`]: Blowfish (for CBC-encrypting NFS file handles, §3.3),
//!   with its P/S constant tables derived from hex digits of π computed
//!   in-tree ([`pi`]).
//! - [`eksblowfish`]: the future-adaptable password scheme (bcrypt) SFS uses
//!   to make password-guessing attacks expensive (§2.5.2).
//! - [`rabin`]: the Rabin–Williams public-key cryptosystem — encryption with
//!   plaintext-aware OAEP-style padding, and signatures with cheap
//!   verification (§3.1.3).
//! - [`prg`]: the DSS-style SHA-1 pseudo-random generator seeded from an
//!   entropy pool of external sources (§3.1.3).
//! - [`srp`]: the Secure Remote Password protocol used for password
//!   authentication of servers (§2.4).
//!
//! Beyond the paper's toolbox, the crate carries the negotiated fast
//! suite — the paper's separation of key management from the transport
//! cipher (§3) is exactly what makes the cipher swappable:
//!
//! - [`chacha20`]: the ChaCha20 stream cipher (RFC 8439): a portable
//!   two-block tier in an auto-vectorizable lane layout, four- and
//!   eight-block AVX2 / AVX-512 tiers picked at run time.
//! - [`poly1305`]: the Poly1305 one-time authenticator, 44-bit limbs on
//!   `u128` products, eight blocks per step on AVX-512 IFMA.
//! - [`chachapoly`]: the ChaCha20-Poly1305 AEAD composing the two — one
//!   wide cipher step yields the MAC key and the first payload blocks —
//!   with in-place seal/open for the zero-copy channel path and a
//!   detached frame form for sealing session-resumption tickets.

pub mod arc4;
pub mod blowfish;
pub mod chacha20;
pub mod chachapoly;
pub mod eksblowfish;
pub mod mac;
pub mod pi;
pub mod poly1305;
pub mod prg;
pub mod rabin;
pub mod sha1;
pub mod srp;

pub use arc4::Arc4;
pub use blowfish::Blowfish;
pub use chacha20::ChaCha20;
pub use mac::SfsMac;
pub use poly1305::Poly1305;
pub use prg::{EntropyPool, SfsPrg};
pub use rabin::{RabinPrivateKey, RabinPublicKey};
pub use sha1::{sha1, Sha1};
