//! Counter-mode XTEA with PKCS#7 padding, authenticated by a PMAC1 tag
//! (Black & Rogaway, 2002) under a derived MAC key (encrypt-then-MAC).
//!
//! Wire format produced by [`seal`] (v2; v1's layout and lengths):
//! `IV (8 bytes) || ciphertext (8n bytes) || tag (8 bytes)`.
//!
//! The MAC key is derived from the data key by a fixed XOR mask so callers
//! manage only one [`Key`]. Replay protection is the responsibility of the
//! channel layer ([`crate::channel`]), which binds a sequence number into
//! the plaintext.

use crate::xtea::{encrypt1, encrypt_each, Key, Schedule};

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

/// The expanded data and MAC keys of one [`Key`], and PMAC's `L`. A channel
/// endpoint builds them once; [`seal`] and [`open`] build them per call.
#[derive(Clone)]
pub(crate) struct Keys {
    data: Schedule,
    mac: Schedule,
    l: u64,
}

impl std::fmt::Debug for Keys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `L` is key material too: never print it.
        write!(f, "Keys({:?}, {:?}, ..)", self.data, self.mac)
    }
}

impl Keys {
    pub(crate) fn new(key: Key) -> Keys {
        let mac = Schedule::new(key.xor(MAC_MASK));
        let l = encrypt1(&mac, 0);
        Keys {
            data: Schedule::new(key),
            mac,
            l,
        }
    }
}

fn load(block: &[u8]) -> u64 {
    u64::from_be_bytes(block.try_into().expect("block is 8 bytes"))
}

/// XORs the keystream `E_data(iv + i)` into block *i* of `body`.
fn ctr(keys: &Keys, iv: u64, body: &mut [u8]) {
    let counter = |i: usize| iv.wrapping_add(i as u64);
    encrypt_each(&keys.data, body.len() / 8, counter, |i, k| {
        let block = &mut body[8 * i..8 * i + 8];
        block.copy_from_slice(&(load(block) ^ k).to_be_bytes());
    });
}

/// The PMAC1 tag of `msg` (two blocks or more): offsets `Δ_i = Δ_(i-1) ^
/// L·x^ntz(i)` in GF(2^64) modulo x^64 + x^4 + x^3 + x + 1, and `L·x^-1`
/// for the last block.
fn pmac(keys: &Keys, msg: &[u8]) -> u64 {
    let double = |x: u64| (x << 1) ^ ((x >> 63) * 0x1b);
    let n = msg.len() / 8 - 1;
    let (mut offset, mut sum) = (0, 0);
    let whiten = |i: usize| {
        offset ^= (0..(i + 1).trailing_zeros()).fold(keys.l, |l, _| double(l));
        load(&msg[8 * i..8 * i + 8]) ^ offset
    };
    encrypt_each(&keys.mac, n, whiten, |_, y| sum ^= y);
    let l_half = (keys.l >> 1) ^ ((keys.l & 1) * 0x8000_0000_0000_000d);
    encrypt1(&keys.mac, sum ^ load(&msg[8 * n..]) ^ l_half)
}

/// Seals the concatenation of `parts` into one exact-size buffer,
/// `IV || ciphertext || tag`, with `IV = E_data(seed)`.
pub(crate) fn seal_parts(keys: &Keys, iv_seed: u64, parts: &[&[u8]]) -> Vec<u8> {
    // PKCS#7 pad to a whole number of blocks (always adds at least 1 byte).
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let pad = 8 - len % 8;
    let mut out = Vec::with_capacity(8 + len + pad + 8);
    // Derive the IV by encrypting the seed, so equal seeds under different
    // keys give different IVs.
    let iv = encrypt1(&keys.data, iv_seed);
    out.extend_from_slice(&iv.to_be_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    out.extend(std::iter::repeat_n(pad as u8, pad));
    ctr(keys, iv, &mut out[8..]);
    let tag = pmac(keys, &out);
    out.extend_from_slice(&tag.to_be_bytes());
    out
}

/// Verifies and decrypts `sealed` in place. On `Ok(n)` the plaintext is
/// `sealed[8..8 + n]`.
///
/// Verify, then decrypt: a forged message is left as it arrived. A wrong
/// padding shows only after decryption, so this is crate-private and every
/// caller owns `sealed` and drops it on `Err`.
pub(crate) fn open_in_place(keys: &Keys, sealed: &mut [u8]) -> Result<usize, SealError> {
    // IV + at least one ciphertext block + tag.
    if sealed.len() < 24 || !sealed.len().is_multiple_of(8) {
        return Err(SealError::Malformed);
    }
    let (body, tag) = sealed.split_at_mut(sealed.len() - 8);
    // Constant-time comparison is irrelevant in a simulation.
    if pmac(keys, body) != load(tag) {
        return Err(SealError::Tampered);
    }
    let (iv, ct) = body.split_at_mut(8);
    ctr(keys, load(iv), ct);

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
    use crate::xtea::LANES;

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
    /// lane-parallel kernel is compared against: XTEA from the published
    /// description, one block at a time; CTR over the padded plaintext;
    /// then PMAC1 over `IV || ciphertext` with its offsets as the paper
    /// defines them, `γ_i · L` for the Gray code `γ_i`, by multiplication
    /// in GF(2^64). It shares no code with the crate.
    mod reference {
        use super::super::{Key, SealError, MAC_MASK};

        const DELTA: u32 = 0x9E37_79B9;

        fn mix(v: u32) -> u32 {
            ((v << 4) ^ (v >> 5)).wrapping_add(v)
        }

        fn encrypt(key: Key, block: u64) -> u64 {
            let k = key.0;
            let (mut v0, mut v1) = ((block >> 32) as u32, block as u32);
            let mut sum = 0u32;
            for _ in 0..32 {
                v0 = v0.wrapping_add(mix(v1) ^ sum.wrapping_add(k[(sum & 3) as usize]));
                sum = sum.wrapping_add(DELTA);
                v1 = v1.wrapping_add(mix(v0) ^ sum.wrapping_add(k[((sum >> 11) & 3) as usize]));
            }
            (u64::from(v0) << 32) | u64::from(v1)
        }

        /// `a · b` in GF(2^64) modulo x^64 + x^4 + x^3 + x + 1.
        fn gf_mul(mut a: u64, mut b: u64) -> u64 {
            let mut product = 0;
            while b != 0 {
                if b & 1 == 1 {
                    product ^= a;
                }
                let carry = a >> 63;
                a <<= 1;
                if carry == 1 {
                    a ^= 0x1b;
                }
                b >>= 1;
            }
            product
        }

        /// The inverse of x: x · (x^63 + x^3 + x^2 + 1) = 1 in the field.
        const X_INVERSE: u64 = 0x8000_0000_0000_000d;

        fn blocks(bytes: &[u8]) -> Vec<u64> {
            bytes
                .chunks_exact(8)
                .map(|b| u64::from_be_bytes(b.try_into().unwrap()))
                .collect()
        }

        /// PMAC1 of `msg` (whole blocks, at least one) under the MAC key.
        pub fn tag(key: Key, msg: &[u8]) -> [u8; 8] {
            let mac = key.xor(MAC_MASK);
            let l = encrypt(mac, 0);
            let m = blocks(msg);
            let mut sigma = 0;
            for (i, &block) in m[..m.len() - 1].iter().enumerate() {
                let i = i as u64 + 1;
                sigma ^= encrypt(mac, block ^ gf_mul(i ^ (i >> 1), l));
            }
            sigma ^= m[m.len() - 1] ^ gf_mul(l, X_INVERSE);
            encrypt(mac, sigma).to_be_bytes()
        }

        /// XORs `E(iv + i)` into block *i* of `buf`.
        pub fn ctr(key: Key, iv: u64, buf: &mut [u8]) {
            for (i, chunk) in buf.chunks_exact_mut(8).enumerate() {
                let pad = encrypt(key, iv.wrapping_add(i as u64)).to_be_bytes();
                for (b, p) in chunk.iter_mut().zip(pad) {
                    *b ^= p;
                }
            }
        }

        pub fn seal(key: Key, iv_seed: u64, plaintext: &[u8]) -> Vec<u8> {
            let iv = encrypt(key, iv_seed);
            let pad = 8 - (plaintext.len() % 8);
            let mut buf = plaintext.to_vec();
            buf.extend(std::iter::repeat_n(pad as u8, pad));
            ctr(key, iv, &mut buf);
            let mut out = iv.to_be_bytes().to_vec();
            out.extend_from_slice(&buf);
            let tag = tag(key, &out);
            out.extend_from_slice(&tag);
            out
        }

        pub fn open(key: Key, sealed: &[u8]) -> Result<Vec<u8>, SealError> {
            if sealed.len() < 24 || !sealed.len().is_multiple_of(8) {
                return Err(SealError::Malformed);
            }
            let (body, t) = sealed.split_at(sealed.len() - 8);
            if t != tag(key, body) {
                return Err(SealError::Tampered);
            }
            let (iv, ct) = body.split_at(8);
            let mut buf = ct.to_vec();
            ctr(key, u64::from_be_bytes(iv.try_into().unwrap()), &mut buf);
            let pad = *buf.last().unwrap() as usize;
            if pad == 0 || pad > 8 || !buf[buf.len() - pad..].iter().all(|&b| b as usize == pad) {
                return Err(SealError::BadPadding);
            }
            buf.truncate(buf.len() - pad);
            Ok(buf)
        }
    }

    /// The lane-parallel `seal` is the serial one, byte for byte, and
    /// `open` inverts both: every length 0..=600 under 8 IV seeds and 4
    /// keys.
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

    /// The counter wraps modulo 2^64 as the reference's does, inside a
    /// pass and across two.
    #[test]
    fn the_counter_wraps_as_the_reference_does() {
        for iv in [u64::MAX - 3, u64::MAX - LANES as u64 - 1] {
            let mut ours = [0x42u8; 8 * 2 * LANES];
            let mut theirs = ours;
            ctr(&Keys::new(KEY), iv, &mut ours);
            reference::ctr(KEY, iv, &mut theirs);
            assert_eq!(ours, theirs, "{iv:x}");
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
        for last in [0u8, 9, 0xff, 3] {
            // Seal 8 bytes ending in `last` with the padding block cut off,
            // and tag `IV || one block` again with the reference.
            let mut sealed = reference::seal(KEY, 5, &[1, 2, 3, 4, 5, 2, 3, last]);
            sealed.truncate(16);
            let tag = reference::tag(KEY, &sealed);
            sealed.extend_from_slice(&tag);
            assert_eq!(open(KEY, &sealed), Err(SealError::BadPadding), "{last}");
            assert_eq!(reference::open(KEY, &sealed), Err(SealError::BadPadding));
        }
    }

    /// For every plaintext length the sealed length is v1's,
    /// `8 + 8·(len/8 + 1) + 8`, so the wire lengths and every virtual time
    /// derived from them are those of the CBC format v2 replaced.
    #[test]
    fn sealed_length_is_the_v1_formula() {
        for len in 0..=300 {
            let sealed = seal(KEY, len as u64, &vec![7; len]);
            assert_eq!(sealed.len(), 8 + 8 * (len / 8 + 1) + 8, "len={len}");
        }
    }

    /// Verify, then decrypt: a forged message is refused before any byte
    /// of it is touched.
    #[test]
    fn a_tampered_message_is_left_byte_identical() {
        let keys = Keys::new(KEY);
        let mut st = 0x6f72_6163_6c65_3033u64;
        for len in [0usize, 7, 8, 58, 300] {
            let sealed = seal(KEY, 9, &rand_bytes(&mut st, len));
            for pos in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[pos] ^= 0x80;
                let arrived = bad.clone();
                assert_eq!(open_in_place(&keys, &mut bad), Err(SealError::Tampered));
                assert_eq!(bad, arrived, "len {len} pos {pos}");
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A literal captured from the serial reference, so the kernel and the
    /// reference cannot drift together.
    #[test]
    fn sealed_bytes_are_pinned() {
        assert_eq!(
            hex(&seal(KEY, 7, b"the location database changes slowly")),
            "9c52dec322947e3c8da28554e837286f333a2ad5cb617245948ccba296b1742e\
             8ef0035ba14d9bd311e98cc004a3057c7e891efdd53401f4"
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
