//! Arbitrary-precision arithmetic for the SFS reproduction.
//!
//! The original SFS implemented Rabin–Williams public-key encryption and
//! signatures, and the SRP password protocol, both of which need multi-
//! precision modular arithmetic. This crate is that substrate, written from
//! scratch: natural numbers ([`Nat`]), signed integers ([`Int`]), modular
//! exponentiation, extended GCD, Jacobi symbols, modular square roots,
//! Chinese-remainder recombination, Miller–Rabin primality testing, and
//! prime generation with the congruence constraints Rabin–Williams needs
//! (`p ≡ 3 (mod 8)`, `q ≡ 7 (mod 8)`).
//!
//! Randomness is abstracted behind [`RandomSource`] so that all protocol
//! randomness can flow through the paper's DSS-style SHA-1 generator
//! (implemented in `sfs-crypto`), keeping this crate dependency-free.

mod int;
mod modular;
mod mont;
mod nat;
mod prime;
mod rand_source;

pub use int::{Int, Sign};
pub use modular::{crt_pair, invmod, jacobi, modpow, BlumPrime, CrtBasis};
pub use nat::{DivideByZero, Nat};
pub use prime::{gen_prime, gen_prime_congruent, is_probable_prime, MR_ROUNDS};
pub use rand_source::{CountingSource, RandomSource, XorShiftSource};
