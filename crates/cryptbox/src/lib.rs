//! Encryption substrate for the ITC distributed file system reproduction.
//!
//! Section 3.4 of the paper: *"Vice uses encryption extensively as a
//! fundamental building block in its higher level network security
//! mechanisms"*. Workstations are never trusted; mutual authenticity is
//! established by *"an encryption-based handshake with a key derived from
//! user-supplied information"*, and *"once a connection is established, all
//! further communication on it is encrypted"* with a per-session key.
//!
//! The 1985 system assumed DES hardware. We substitute a from-scratch XTEA
//! implementation (64-bit blocks, 128-bit keys): the paper's contribution is
//! the security *architecture* — key derivation from passwords, a mutual
//! challenge/response handshake between mutually suspicious parties, session
//! keys to limit exposure of authentication keys, and encrypt-everything
//! channels — not the particular cipher. Bytes genuinely are transformed and
//! authenticated, so tamper/forgery tests exercise real code paths.
//!
//! This crate is **not** audited cryptography and must never be used outside
//! this simulation.
//!
//! Layers, bottom to top:
//! * [`xtea`] — the block cipher: one two-lane kernel that advances two
//!   independent blocks per 32-cycle loop; every layer above calls it.
//! * [`mode`] — CBC encryption with PKCS#7 padding and CBC-MAC
//!   authentication ([`mode::seal`]/[`mode::open`]), the two chains in
//!   lock-step over one buffer.
//! * [`kdf`] — deriving 128-bit keys from passwords (Davies–Meyer over
//!   XTEA, iterated).
//! * [`handshake`] — the three-message mutual authentication exchange that
//!   yields a session key.
//! * [`channel`] — a sequenced, authenticated, encrypted message channel
//!   built on the session key (replay is rejected).

pub mod channel;
pub mod handshake;
pub mod kdf;
pub mod mode;
pub mod xtea;

pub use channel::{ChannelError, SecureChannel};
pub use handshake::{ClientHandshake, HandshakeError, ServerHandshake};
pub use kdf::{derive_key, key_fingerprint};
pub use mode::{open, seal, SealError};
pub use xtea::Key;
