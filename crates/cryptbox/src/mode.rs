//! CBC encryption with PKCS#7 padding, authenticated by a CBC-MAC computed
//! under a derived MAC key (encrypt-then-MAC).
//!
//! Wire format produced by [`seal`]:
//! `IV (8 bytes) || ciphertext (8n bytes) || MAC (8 bytes)`.
//!
//! The MAC key is derived from the data key by a fixed XOR mask so callers
//! manage only one [`Key`]. Replay protection is the responsibility of the
//! channel layer ([`crate::channel`]), which binds a sequence number into
//! the plaintext.

use crate::xtea::{encrypt1, encrypt2, encrypt_decrypt, Key, Schedule};

/// Errors returned by [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The message is too short or not block-aligned.
    Malformed,
    /// The MAC did not verify: wrong key or tampered ciphertext.
    Tampered,
    /// Padding was inconsistent after decryption (wrong key).
    BadPadding,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Malformed => write!(f, "sealed message malformed"),
            SealError::Tampered => write!(f, "authentication failed: tampered or wrong key"),
            SealError::BadPadding => write!(f, "bad padding after decryption"),
        }
    }
}

impl std::error::Error for SealError {}

const MAC_MASK: Key = Key([0xA5A5_A5A5, 0x5A5A_5A5A, 0x0F0F_0F0F, 0xF0F0_F0F0]);

/// The expanded data key and MAC key of one [`Key`]. A channel endpoint
/// builds them once; [`seal`] and [`open`] build them per call.
#[derive(Debug, Clone)]
pub(crate) struct Keys {
    data: Schedule,
    mac: Schedule,
}

impl Keys {
    pub(crate) fn new(key: Key) -> Keys {
        Keys {
            data: Schedule::new(key),
            mac: Schedule::new(key.xor(MAC_MASK)),
        }
    }
}

fn load(block: &[u8]) -> u64 {
    u64::from_be_bytes(block.try_into().expect("block is 8 bytes"))
}

/// Seals the concatenation of `parts` into one exact-size buffer,
/// `IV || ciphertext || MAC`, in one pass: the MAC lane absorbs block
/// *j*-1 of `IV || ciphertext` while the cipher lane produces block *j*.
/// The CBC-MAC is length-prefixed so messages of different lengths with a
/// common prefix cannot share a tag; its length block pairs with the IV.
pub(crate) fn seal_parts(keys: &Keys, iv_seed: u64, parts: &[&[u8]]) -> Vec<u8> {
    // PKCS#7 pad to a whole number of blocks (always adds at least 1 byte).
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let pad = 8 - len % 8;
    let mut out = Vec::with_capacity(8 + len + pad + 8);
    out.extend_from_slice(&[0; 8]);
    for part in parts {
        out.extend_from_slice(part);
    }
    out.extend(std::iter::repeat_n(pad as u8, pad));

    // Derive the IV by encrypting the seed, so equal seeds under different
    // keys give different IVs.
    let (iv, mut mac) = encrypt2(&keys.data, iv_seed, &keys.mac, out.len() as u64);
    let mut prev = iv;
    for chunk in out.chunks_exact_mut(8).skip(1) {
        let (ct, absorbed) = encrypt2(&keys.data, load(chunk) ^ prev, &keys.mac, mac ^ prev);
        chunk.copy_from_slice(&ct.to_be_bytes());
        (prev, mac) = (ct, absorbed);
    }
    out[..8].copy_from_slice(&iv.to_be_bytes());
    let tag = encrypt1(&keys.mac, mac ^ prev);
    out.extend_from_slice(&tag.to_be_bytes());
    out
}

/// Verifies and decrypts `sealed` in place, in one pass: CBC decryptions do
/// not depend on each other, so block *j* is decrypted beside the MAC
/// step that absorbs block *j*-1. On `Ok(n)` the plaintext is
/// `sealed[8..8 + n]`.
///
/// Verify-then-release: the buffer holds unauthenticated plaintext until
/// the tag has been compared, so this is crate-private and every caller
/// owns `sealed` and drops it on `Err`.
pub(crate) fn open_in_place(keys: &Keys, sealed: &mut [u8]) -> Result<usize, SealError> {
    // IV + at least one ciphertext block + MAC.
    if sealed.len() < 24 || !sealed.len().is_multiple_of(8) {
        return Err(SealError::Malformed);
    }
    let (body, tag) = sealed.split_at_mut(sealed.len() - 8);
    let mut mac = encrypt1(&keys.mac, body.len() as u64);
    let (iv, ct) = body.split_at_mut(8);
    let mut prev = load(iv);
    for chunk in ct.chunks_exact_mut(8) {
        let block = load(chunk);
        let (absorbed, plain) = encrypt_decrypt(&keys.mac, mac ^ prev, &keys.data, block);
        chunk.copy_from_slice(&(plain ^ prev).to_be_bytes());
        (prev, mac) = (block, absorbed);
    }
    // Constant-time-ish comparison is irrelevant in a simulation, but
    // compare the whole tag regardless.
    if encrypt1(&keys.mac, mac ^ prev) != load(tag) {
        return Err(SealError::Tampered);
    }

    // Verify PKCS#7 padding.
    let pad = ct[ct.len() - 1] as usize;
    if pad == 0 || pad > 8 || !ct[ct.len() - pad..].iter().all(|&b| b as usize == pad) {
        return Err(SealError::BadPadding);
    }
    Ok(ct.len() - pad)
}

/// Encrypts and authenticates `plaintext` under `key`, using `iv_seed` to
/// derive the IV (callers pass a unique value per message, e.g. a sequence
/// number).
pub fn seal(key: Key, iv_seed: u64, plaintext: &[u8]) -> Vec<u8> {
    seal_parts(&Keys::new(key), iv_seed, &[plaintext])
}

/// Verifies and decrypts a message produced by [`seal`].
pub fn open(key: Key, sealed: &[u8]) -> Result<Vec<u8>, SealError> {
    let mut buf = sealed.to_vec();
    let len = open_in_place(&Keys::new(key), &mut buf)?;
    buf.copy_within(8..8 + len, 0);
    buf.truncate(len);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key = Key([11, 22, 33, 44]);

    /// Minimal local PRNG for deterministic randomized tests (this crate
    /// has no dependencies, by design).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn rand_bytes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| splitmix64(state) as u8).collect()
    }

    /// The textbook serial construction, kept whole as the reference the
    /// lock-step kernel is compared against: XTEA from the published
    /// description, CBC to the end, then CBC-MAC over the result; on open,
    /// the MAC chain, then the decrypts. It shares no code with the crate.
    mod reference {
        use super::super::{Key, SealError, MAC_MASK};

        const DELTA: u32 = 0x9E37_79B9;

        fn mix(v: u32) -> u32 {
            ((v << 4) ^ (v >> 5)).wrapping_add(v)
        }

        fn encrypt_bytes8(key: Key, bytes: &mut [u8; 8]) {
            let k = key.0;
            let mut v0 = u32::from_be_bytes(bytes[..4].try_into().unwrap());
            let mut v1 = u32::from_be_bytes(bytes[4..].try_into().unwrap());
            let mut sum = 0u32;
            for _ in 0..32 {
                v0 = v0.wrapping_add(mix(v1) ^ sum.wrapping_add(k[(sum & 3) as usize]));
                sum = sum.wrapping_add(DELTA);
                v1 = v1.wrapping_add(mix(v0) ^ sum.wrapping_add(k[((sum >> 11) & 3) as usize]));
            }
            bytes[..4].copy_from_slice(&v0.to_be_bytes());
            bytes[4..].copy_from_slice(&v1.to_be_bytes());
        }

        fn decrypt_bytes8(key: Key, bytes: &mut [u8; 8]) {
            let k = key.0;
            let mut v0 = u32::from_be_bytes(bytes[..4].try_into().unwrap());
            let mut v1 = u32::from_be_bytes(bytes[4..].try_into().unwrap());
            let mut sum = DELTA.wrapping_mul(32);
            for _ in 0..32 {
                v1 = v1.wrapping_sub(mix(v0) ^ sum.wrapping_add(k[((sum >> 11) & 3) as usize]));
                sum = sum.wrapping_sub(DELTA);
                v0 = v0.wrapping_sub(mix(v1) ^ sum.wrapping_add(k[(sum & 3) as usize]));
            }
            bytes[..4].copy_from_slice(&v0.to_be_bytes());
            bytes[4..].copy_from_slice(&v1.to_be_bytes());
        }

        fn cbc_mac(key: Key, data: &[u8]) -> [u8; 8] {
            let mut state = (data.len() as u64).to_be_bytes();
            encrypt_bytes8(key, &mut state);
            for chunk in data.chunks_exact(8) {
                for i in 0..8 {
                    state[i] ^= chunk[i];
                }
                encrypt_bytes8(key, &mut state);
            }
            state
        }

        pub fn seal(key: Key, iv_seed: u64, plaintext: &[u8]) -> Vec<u8> {
            let mut iv = iv_seed.to_be_bytes();
            encrypt_bytes8(key, &mut iv);
            let pad = 8 - (plaintext.len() % 8);
            let mut buf = plaintext.to_vec();
            buf.extend(std::iter::repeat_n(pad as u8, pad));
            let mut prev = iv;
            for chunk in buf.chunks_exact_mut(8) {
                for i in 0..8 {
                    chunk[i] ^= prev[i];
                }
                let block: &mut [u8; 8] = chunk.try_into().unwrap();
                encrypt_bytes8(key, block);
                prev = *block;
            }
            let mut out = iv.to_vec();
            out.extend_from_slice(&buf);
            let tag = cbc_mac(key.xor(MAC_MASK), &out);
            out.extend_from_slice(&tag);
            out
        }

        pub fn open(key: Key, sealed: &[u8]) -> Result<Vec<u8>, SealError> {
            if sealed.len() < 24 || !sealed.len().is_multiple_of(8) {
                return Err(SealError::Malformed);
            }
            let (body, tag) = sealed.split_at(sealed.len() - 8);
            if tag != cbc_mac(key.xor(MAC_MASK), body) {
                return Err(SealError::Tampered);
            }
            let (iv, ct) = body.split_at(8);
            let mut prev: [u8; 8] = iv.try_into().unwrap();
            let mut buf = ct.to_vec();
            for chunk in buf.chunks_exact_mut(8) {
                let saved: [u8; 8] = (&*chunk).try_into().unwrap();
                let block: &mut [u8; 8] = chunk.try_into().unwrap();
                decrypt_bytes8(key, block);
                for i in 0..8 {
                    block[i] ^= prev[i];
                }
                prev = saved;
            }
            let pad = *buf.last().unwrap() as usize;
            if pad == 0 || pad > 8 || !buf[buf.len() - pad..].iter().all(|&b| b as usize == pad) {
                return Err(SealError::BadPadding);
            }
            buf.truncate(buf.len() - pad);
            Ok(buf)
        }
    }

    /// The lock-step `seal` is the serial one, byte for byte, and `open`
    /// inverts both: every length 0..=600 under 8 IV seeds and 4 keys.
    #[test]
    fn seal_is_byte_identical_to_the_serial_reference() {
        let mut st = 0x6f72_6163_6c65_3031u64;
        for _ in 0..4 {
            let key = Key(std::array::from_fn(|_| splitmix64(&mut st) as u32));
            let seeds: [u64; 8] = std::array::from_fn(|_| splitmix64(&mut st));
            for len in 0..=600 {
                let msg = rand_bytes(&mut st, len);
                for seed in seeds {
                    let sealed = seal(key, seed, &msg);
                    assert_eq!(sealed, reference::seal(key, seed, &msg), "len={len}");
                    assert_eq!(open(key, &sealed).unwrap(), msg, "len={len}");
                }
                assert_eq!(
                    reference::open(key, &seal(key, seeds[0], &msg)).unwrap(),
                    msg
                );
            }
        }
    }

    /// Flipping one bit of any sealed byte is an error, and the same error
    /// the serial reference gives.
    #[test]
    fn every_one_bit_flip_is_rejected_as_the_reference_rejects_it() {
        let mut st = 0x6f72_6163_6c65_3032u64;
        for len in 0..=96 {
            let msg = rand_bytes(&mut st, len);
            let sealed = seal(KEY, splitmix64(&mut st), &msg);
            for pos in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[pos] ^= 1 << (splitmix64(&mut st) % 8);
                let got = open(KEY, &bad);
                assert!(got.is_err(), "len {len} pos {pos} undetected");
                assert_eq!(got, reference::open(KEY, &bad), "len {len} pos {pos}");
            }
        }
    }

    /// A valid tag over a body whose padding is wrong: the reference and the
    /// in-place open agree on `BadPadding` (the MAC alone does not catch it).
    #[test]
    fn bad_padding_under_a_valid_tag_matches_the_reference() {
        let keys = Keys::new(KEY);
        for last in [0u8, 9, 0xff, 3] {
            // Seal 8 bytes ending in `last` with the padding block cut off:
            // re-seal by hand as `IV || one block || tag`.
            let mut sealed = seal(KEY, 5, &[1, 2, 3, 4, 5, 2, 3, last]);
            sealed.truncate(16);
            let mac = encrypt1(&keys.mac, 16);
            let mac = encrypt1(&keys.mac, mac ^ load(&sealed[..8]));
            let tag = encrypt1(&keys.mac, mac ^ load(&sealed[8..16]));
            sealed.extend_from_slice(&tag.to_be_bytes());
            assert_eq!(open(KEY, &sealed), Err(SealError::BadPadding), "{last}");
            assert_eq!(reference::open(KEY, &sealed), Err(SealError::BadPadding));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A literal captured from the serial code before the kernel replaced it,
    /// so the kernel and the reference cannot drift together.
    #[test]
    fn sealed_bytes_are_pinned() {
        assert_eq!(
            hex(&seal(KEY, 7, b"the location database changes slowly")),
            "9c52dec322947e3ce29581bc25989f7f114fe13b5be673d150d5f1994f5b3af8\
             3cc015ab7fc4dac2384874453550b2c188339779ea1e2421"
        );
    }

    #[test]
    fn round_trips_various_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = seal(KEY, 7, &msg);
            assert_eq!(open(KEY, &sealed).unwrap(), msg, "len={len}");
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let sealed = seal(KEY, 1, b"secret");
        assert_eq!(open(Key([9, 9, 9, 9]), &sealed), Err(SealError::Tampered));
    }

    #[test]
    fn tampering_any_byte_is_detected() {
        let sealed = seal(KEY, 1, b"the location database changes slowly");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(
                open(KEY, &bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal(KEY, 1, b"0123456789abcdef");
        assert!(open(KEY, &sealed[..sealed.len() - 8]).is_err());
        assert!(open(KEY, &sealed[..16]).is_err());
        assert!(open(KEY, &[]).is_err());
    }

    #[test]
    fn same_plaintext_different_seed_different_ciphertext() {
        let a = seal(KEY, 1, b"identical");
        let b = seal(KEY, 2, b"identical");
        assert_ne!(a, b);
    }

    #[test]
    fn ciphertext_hides_plaintext_bytes() {
        let msg = vec![0u8; 256];
        let sealed = seal(KEY, 3, &msg);
        // A run of 16+ zero bytes surviving into ciphertext would indicate a
        // catastrophically broken mode.
        let longest_zero_run = sealed
            .split(|&b| b != 0)
            .map(|run| run.len())
            .max()
            .unwrap_or(0);
        assert!(longest_zero_run < 16);
    }

    /// Deterministic port of the former proptest round-trip suite: random
    /// messages and IV seeds must open to exactly what was sealed.
    #[test]
    fn randomized_round_trip() {
        let mut st = 0x6d6f_6465_5f72_7472u64;
        for _ in 0..256 {
            let len = (splitmix64(&mut st) % 512) as usize;
            let msg = rand_bytes(&mut st, len);
            let seed = splitmix64(&mut st);
            let sealed = seal(KEY, seed, &msg);
            assert_eq!(open(KEY, &sealed).unwrap(), msg);
        }
    }

    /// Flipping a random bit at a random position is always detected.
    #[test]
    fn randomized_bit_flip_detected() {
        let mut st = 0x6d6f_6465_5f66_6c70u64;
        for _ in 0..256 {
            let len = 1 + (splitmix64(&mut st) % 127) as usize;
            let msg = rand_bytes(&mut st, len);
            let sealed = seal(KEY, 42, &msg);
            let pos = (splitmix64(&mut st) % sealed.len() as u64) as usize;
            let bit = splitmix64(&mut st) % 8;
            let mut bad = sealed.clone();
            bad[pos] ^= 1 << bit;
            assert!(open(KEY, &bad).is_err(), "pos {pos} bit {bit} undetected");
        }
    }
}
