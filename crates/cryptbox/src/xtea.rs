//! The XTEA block cipher (Needham & Wheeler, 1997): 64-bit blocks, 128-bit
//! keys, 32 Feistel cycles.
//!
//! Chosen as the stand-in for the paper's DES hardware because it is tiny,
//! well-specified, and implementable from the published description without
//! external dependencies. See the crate-level warning: not for real use.

/// A 128-bit cipher key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u32; 4]);

impl Key {
    /// Builds a key from 16 bytes (big-endian words).
    pub fn from_bytes(b: &[u8; 16]) -> Key {
        let mut w = [0u32; 4];
        for (i, chunk) in b.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Key(w)
    }

    /// Serializes the key to 16 bytes (big-endian words).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// XORs two keys — used by the handshake to mix nonces into a session
    /// key.
    pub fn xor(self, other: Key) -> Key {
        Key([
            self.0[0] ^ other.0[0],
            self.0[1] ^ other.0[1],
            self.0[2] ^ other.0[2],
            self.0[3] ^ other.0[3],
        ])
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Keys are secrets: never print the material itself.
        write!(f, "Key(fingerprint={:08x})", fingerprint_words(self.0))
    }
}

fn fingerprint_words(w: [u32; 4]) -> u32 {
    // A non-reversible mix for display purposes only.
    let mut h = 0x811c_9dc5u32;
    for x in w {
        for b in x.to_be_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

const DELTA: u32 = 0x9E37_79B9;
const CYCLES: usize = 32;

/// A key's 64 round keys (`sum + k[..]` for each half-cycle), computed
/// once so the kernel's loop carries no `sum` and no table lookup.
#[derive(Clone)]
pub(crate) struct Schedule([[u32; 2]; CYCLES]);

impl Schedule {
    /// Expands `key`.
    pub(crate) fn new(key: Key) -> Schedule {
        let k = key.0;
        let mut sum = 0u32;
        Schedule(std::array::from_fn(|_| {
            let first = sum.wrapping_add(k[(sum & 3) as usize]);
            sum = sum.wrapping_add(DELTA);
            [first, sum.wrapping_add(k[((sum >> 11) & 3) as usize])]
        }))
    }
}

impl std::fmt::Debug for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Round keys are key material: never print them.
        f.write_str("Schedule(..)")
    }
}

fn mix(v: u32) -> u32 {
    ((v << 4) ^ (v >> 5)).wrapping_add(v)
}

fn split(block: u64) -> [u32; 2] {
    [(block >> 32) as u32, block as u32]
}

fn join([v0, v1]: [u32; 2]) -> u64 {
    u64::from(v0) << 32 | u64::from(v1)
}

/// The one XTEA loop: 32 cycles advancing two independent blocks (big-endian
/// `u64`s), lane `a` encrypting under `ka` and lane `b` encrypting or
/// decrypting under `kb`. A block operation is a chain of 64 dependent
/// half-cycles; two chains that do not feed each other overlap in the
/// processor almost for free, which is what lets [`crate::mode`] run the
/// CBC chain beside the CBC-MAC chain.
#[inline(always)]
fn two_lanes<const B_DECRYPTS: bool>(ka: &Schedule, a: u64, kb: &Schedule, b: u64) -> (u64, u64) {
    let [mut a0, mut a1] = split(a);
    let [mut b0, mut b1] = split(b);
    for i in 0..CYCLES {
        let [ra0, ra1] = ka.0[i];
        a0 = a0.wrapping_add(mix(a1) ^ ra0);
        a1 = a1.wrapping_add(mix(a0) ^ ra1);
        if B_DECRYPTS {
            let [rb0, rb1] = kb.0[CYCLES - 1 - i];
            b1 = b1.wrapping_sub(mix(b0) ^ rb1);
            b0 = b0.wrapping_sub(mix(b1) ^ rb0);
        } else {
            let [rb0, rb1] = kb.0[i];
            b0 = b0.wrapping_add(mix(b1) ^ rb0);
            b1 = b1.wrapping_add(mix(b0) ^ rb1);
        }
    }
    (join([a0, a1]), join([b0, b1]))
}

/// Encrypts `a` under `ka` and `b` under `kb` in lock-step.
pub(crate) fn encrypt2(ka: &Schedule, a: u64, kb: &Schedule, b: u64) -> (u64, u64) {
    two_lanes::<false>(ka, a, kb, b)
}

/// Encrypts `a` under `ka` while decrypting `b` under `kb`.
pub(crate) fn encrypt_decrypt(ka: &Schedule, a: u64, kb: &Schedule, b: u64) -> (u64, u64) {
    two_lanes::<true>(ka, a, kb, b)
}

/// Encrypts one block alone (the second lane idles).
pub(crate) fn encrypt1(k: &Schedule, block: u64) -> u64 {
    encrypt2(k, block, k, 0).0
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key = Key([0x0123_4567, 0x89ab_cdef, 0xfedc_ba98, 0x7654_3210]);

    /// Decrypts one block alone (the first lane idles).
    fn decrypt1(k: &Schedule, block: u64) -> u64 {
        encrypt_decrypt(k, 0, k, block).1
    }

    #[test]
    fn round_trips() {
        let k = Schedule::new(KEY);
        let original = join([0xdead_beef, 0x0bad_f00d]);
        let block = encrypt1(&k, original);
        assert_ne!(block, original, "encryption must change the block");
        assert_eq!(decrypt1(&k, block), original);
    }

    #[test]
    fn wrong_key_does_not_decrypt() {
        let block = encrypt1(&Schedule::new(KEY), join([1, 2]));
        let wrong = Schedule::new(Key([0, 0, 0, 1]));
        assert_ne!(decrypt1(&wrong, block), join([1, 2]));
    }

    #[test]
    fn known_answer_vectors() {
        // Published XTEA test vectors (Needham/Wheeler reference
        // implementation, 32 cycles): this implementation must agree with
        // every other correct XTEA.
        let key = Schedule::new(Key([0x0001_0203, 0x0405_0607, 0x0809_0a0b, 0x0c0d_0e0f]));
        let block = encrypt1(&key, join([0x4142_4344u32, 0x4546_4748])); // "ABCDEFGH"
        assert_eq!(split(block), [0x497d_f3d0, 0x7261_2cb5]);
        assert_eq!(split(decrypt1(&key, block)), [0x4142_4344, 0x4546_4748]);

        let zero_key = Schedule::new(Key([0; 4]));
        let zero = encrypt1(&zero_key, join([0u32, 0u32]));
        assert_eq!(split(zero), [0xdee9_d4d8, 0xf713_1ed9]);
        assert_eq!(split(decrypt1(&zero_key, zero)), [0, 0]);
    }

    /// The two-lane kernel itself against the same published vectors: each
    /// vector in either lane beside the other, and encrypting one while
    /// decrypting the other.
    #[test]
    fn two_lane_kernel_matches_the_known_answers() {
        let ka = Schedule::new(Key([0x0001_0203, 0x0405_0607, 0x0809_0a0b, 0x0c0d_0e0f]));
        let (pa, ca) = (0x4142_4344_4546_4748u64, 0x497d_f3d0_7261_2cb5u64);
        let kz = Schedule::new(Key([0; 4]));
        let (pz, cz) = (0u64, 0xdee9_d4d8_f713_1ed9u64);
        assert_eq!(encrypt2(&ka, pa, &kz, pz), (ca, cz));
        assert_eq!(encrypt2(&kz, pz, &ka, pa), (cz, ca));
        assert_eq!(encrypt_decrypt(&ka, pa, &kz, cz), (ca, pz));
        assert_eq!(encrypt_decrypt(&kz, pz, &ka, ca), (cz, pa));
        assert_eq!(encrypt1(&ka, pa), ca);
        assert_eq!(decrypt1(&kz, cz), pz);
    }

    #[test]
    fn schedule_debug_does_not_leak_material() {
        assert_eq!(format!("{:?}", Schedule::new(KEY)), "Schedule(..)");
    }

    #[test]
    fn byte_interface_round_trips() {
        let k = Schedule::new(KEY);
        let orig = *b"ITC-1985";
        let b = encrypt1(&k, u64::from_be_bytes(orig)).to_be_bytes();
        assert_ne!(b, orig);
        assert_eq!(decrypt1(&k, u64::from_be_bytes(b)).to_be_bytes(), orig);
    }

    #[test]
    fn key_bytes_round_trip() {
        let k = Key([1, 2, 3, 0xffff_ffff]);
        assert_eq!(Key::from_bytes(&k.to_bytes()), k);
    }

    #[test]
    fn key_debug_does_not_leak_material() {
        let k = Key([0x5ec2_e75e, 2, 3, 4]);
        let s = format!("{k:?}");
        assert!(s.contains("fingerprint"));
        assert!(!s.contains("5ec2e75e") && !s.contains("5EC2E75E"));
    }

    #[test]
    fn xor_mixes_keys() {
        let a = Key([1, 2, 3, 4]);
        let b = Key([4, 3, 2, 1]);
        assert_eq!(a.xor(b).0, [5, 1, 1, 5]);
        assert_eq!(a.xor(a).0, [0; 4]);
    }
}
