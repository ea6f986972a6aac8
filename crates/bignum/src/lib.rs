//! Arbitrary-precision arithmetic for the SFS reproduction.
//!
//! The original SFS implemented Rabin–Williams public-key encryption and
//! signatures, and the SRP password protocol, both of which need multi-
//! precision modular arithmetic. This crate is that substrate, written from
//! scratch: natural numbers ([`Nat`]), signed integers ([`Int`]), modular
//! exponentiation, extended GCD, modular square roots with their Legendre
//! symbols, Chinese-remainder recombination, primality testing (one
//! random Miller–Rabin round plus Baillie–PSW), Jacobi symbols (kept as
//! the tests' oracle for the roots), and prime generation with the
//! congruence constraints Rabin–Williams needs (`p ≡ 3 (mod 8)`,
//! `q ≡ 7 (mod 8)`).
//!
//! Randomness is abstracted behind [`RandomSource`] so that all protocol
//! randomness can flow through the paper's DSS-style SHA-1 generator
//! (implemented in `sfs-crypto`), keeping this crate dependency-free.
//!
//! A square-root pair modulo the two primes of a Rabin key
//! ([`BlumPrime::root_pair`]) takes its second root on a helper thread
//! while the caller takes the first, when the host has a second CPU;
//! [`join`] lends that helper to other callers.

#![deny(unsafe_code)]

mod int;
mod modular;
mod mont;
mod nat;
mod prime;
mod rand_source;
mod twin;

pub use int::Int;
pub use modular::{crt_pair, invmod, jacobi, modpow, BlumPrime, CrtBasis};
pub use mont::Montgomery;
pub use nat::Nat;
pub use prime::{baillie_psw, gen_prime_congruent, is_probable_prime};
pub use rand_source::{RandomSource, XorShiftSource};
pub use twin::{join, join_round_trip};
