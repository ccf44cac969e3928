//! Key derivation from passwords.
//!
//! Section 3.4: *"Since the key used for this is user-specific it has to be
//! obtained from the user. One way to do this is by transformation of a
//! password. Note that the password itself is not transmitted, but is only
//! used to derive the encryption key."*
//!
//! The derivation is a Merkle–Damgård-style iteration of a Davies–Meyer
//! compression function built from the XTEA cipher: each 16-byte input chunk
//! keys an encryption of the running 8-byte state, twice (with distinct
//! tweaks) to fill a 128-bit output. Iterated a fixed number of rounds to
//! model (cheap) password stretching.

use crate::xtea::{encrypt2, Key, Schedule};

const STRETCH_ROUNDS: usize = 64;

/// The second lane's key tweak, so the two lanes diverge.
const LANE_TWEAK: Key = Key([0x0000_0001, 0, 0, 0x8000_0000]);

/// Absorbs arbitrary bytes into a 16-byte state.
fn absorb(state: &mut [u8; 16], data: &[u8]) {
    let mut halves = [[0u8; 8]; 2];
    halves[0].copy_from_slice(&state[..8]);
    halves[1].copy_from_slice(&state[8..]);

    // Process in 16-byte chunks, zero-padded, length-strengthened.
    let mut len_block = [0u8; 16];
    len_block[..8].copy_from_slice(&(data.len() as u64).to_be_bytes());
    for chunk in data.chunks(16).chain([&len_block[..]]) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        let k = Key::from_bytes(&block);
        // One Davies–Meyer step per lane, `half = E_k(half) ^ half`.
        let before = halves.map(u64::from_be_bytes);
        let (e0, e1) = encrypt2(
            &Schedule::new(k),
            before[0],
            &Schedule::new(k.xor(LANE_TWEAK)),
            before[1],
        );
        halves = [
            (e0 ^ before[0]).to_be_bytes(),
            (e1 ^ before[1]).to_be_bytes(),
        ];
        // Cross-mix the lanes.
        for i in 0..8 {
            let t = halves[0][i];
            halves[0][i] ^= halves[1][(i + 3) % 8];
            halves[1][i] ^= t;
        }
    }
    state[..8].copy_from_slice(&halves[0]);
    state[8..].copy_from_slice(&halves[1]);
}

/// Derives a 128-bit key from a password and salt (typically the user name,
/// so equal passwords for different users give different keys).
pub fn derive_key(password: &str, salt: &str) -> Key {
    let mut state = *b"ITC-AFS-1985-KDF";
    absorb(&mut state, salt.as_bytes());
    absorb(&mut state, password.as_bytes());
    for round in 0..STRETCH_ROUNDS {
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&(round as u64).to_be_bytes());
        absorb(&mut state, &tag);
    }
    Key::from_bytes(&state)
}

/// A short non-reversible identifier for a key, for logs and assertions.
pub fn key_fingerprint(key: Key) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in key.to_bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal local PRNG for deterministic randomized tests (this crate
    /// has no dependencies, by design).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn rand_lowercase(state: &mut u64, min_len: u64, max_len: u64) -> String {
        let len = min_len + splitmix64(state) % (max_len - min_len + 1);
        (0..len)
            .map(|_| (b'a' + (splitmix64(state) % 26) as u8) as char)
            .collect()
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            derive_key("hunter2", "satya"),
            derive_key("hunter2", "satya")
        );
    }

    /// Captured before `absorb` moved onto the two-lane kernel: a derived
    /// key is what Vice's protection database stores, so it may never move.
    #[test]
    fn derived_key_is_pinned() {
        assert_eq!(
            key_fingerprint(derive_key("pw-satya", "satya")),
            0xb1cb_64e6
        );
    }

    #[test]
    fn password_matters() {
        assert_ne!(
            derive_key("hunter2", "satya"),
            derive_key("hunter3", "satya")
        );
    }

    #[test]
    fn salt_matters() {
        assert_ne!(
            derive_key("hunter2", "satya"),
            derive_key("hunter2", "howard")
        );
    }

    #[test]
    fn boundary_shift_matters() {
        // ("ab", "c") and ("a", "bc") must not collide: absorption is
        // length-delimited per field.
        assert_ne!(derive_key("ab", "c"), derive_key("a", "bc"));
    }

    #[test]
    fn empty_inputs_are_valid() {
        let k = derive_key("", "");
        assert_ne!(k.to_bytes(), [0u8; 16]);
    }

    #[test]
    fn fingerprints_differ_for_different_keys() {
        let a = key_fingerprint(derive_key("a", "x"));
        let b = key_fingerprint(derive_key("b", "x"));
        assert_ne!(a, b);
    }

    /// Deterministic port of the former proptest suite: random distinct
    /// password pairs under the same salt never collide.
    #[test]
    fn randomized_no_trivial_collisions() {
        let mut st = 0x6b64_665f_6e74_6331u64;
        for _ in 0..256 {
            let p1 = rand_lowercase(&mut st, 1, 12);
            let p2 = rand_lowercase(&mut st, 1, 12);
            let salt = rand_lowercase(&mut st, 1, 8);
            if p1 == p2 {
                continue;
            }
            assert_ne!(
                derive_key(&p1, &salt),
                derive_key(&p2, &salt),
                "{p1} {p2} {salt}"
            );
        }
    }

    /// Weak avalanche check over random printable inputs: output bytes are
    /// never all equal.
    #[test]
    fn randomized_output_is_spread() {
        let mut st = 0x6b64_665f_7370_7264u64;
        for _ in 0..256 {
            let p: String = (0..splitmix64(&mut st) % 33)
                .map(|_| (b' ' + (splitmix64(&mut st) % 95) as u8) as char)
                .collect();
            let s: String = (0..splitmix64(&mut st) % 17)
                .map(|_| (b' ' + (splitmix64(&mut st) % 95) as u8) as char)
                .collect();
            let k = derive_key(&p, &s).to_bytes();
            assert!(k.iter().any(|&b| b != k[0]), "{p:?} {s:?}");
        }
    }
}
