//! SFS wire protocols.
//!
//! This crate implements everything §2 and §3.1 of the paper define:
//!
//! - [`pathname`]: self-certifying pathnames `/sfs/Location:HostID`, the
//!   base-32 encoding, and HostID computation (§2.2);
//! - [`keyneg`]: the key-negotiation protocol of Figure 3, yielding
//!   per-direction session keys with forward secrecy (§3.1.1);
//! - [`channel`]: the secure channel — ARC4 encryption with a SHA-1 MAC
//!   re-keyed per message from the cipher stream (§3.1.3);
//! - [`userauth`]: the user-authentication protocol of Figure 4 —
//!   SessionID/AuthInfo/AuthID, signed requests, sequence-number windows
//!   (§3.1.2);
//! - [`revoke`]: key revocation certificates and forwarding pointers
//!   (§2.6);
//! - [`readonly`]: the public read-only dialect that "proves the contents
//!   of file systems with digital signatures" so replicas can live on
//!   untrusted machines (§2.4, §3.2).

pub mod channel;
pub mod keyneg;
pub mod pathname;
pub mod readonly;
pub mod repl;
pub mod revoke;
pub mod userauth;
