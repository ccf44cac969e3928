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

/// Blocks one full-width pass encrypts.
pub(crate) const LANES: usize = 16;

/// The one XTEA loop: 32 cycles over `N` blocks' high/low halves under one
/// schedule. `N` is a constant, so the chains run side by side in vector
/// registers (a loop over a run-time lane count stayed scalar).
#[inline(always)]
fn kernel<const N: usize>(k: &Schedule, v0: &mut [u32; N], v1: &mut [u32; N]) {
    for &[r0, r1] in &k.0 {
        for l in 0..N {
            v0[l] = v0[l].wrapping_add(mix(v1[l]) ^ r0);
        }
        for l in 0..N {
            v1[l] = v1[l].wrapping_add(mix(v0[l]) ^ r1);
        }
    }
}

/// The kernel for the baseline target. Out of line, because inlined into
/// [`encrypt_each`] the four-lane instance compiles to four scalar chains.
#[inline(never)]
fn portable<const N: usize>(k: &Schedule, v0: &mut [u32; N], v1: &mut [u32; N]) {
    kernel(k, v0, v1)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2(k: &Schedule, v0: &mut [u32; LANES], v1: &mut [u32; LANES]) {
    kernel(k, v0, v1)
}

/// The full-width kernel, compiled for AVX2 where the processor has it.
fn wide(k: &Schedule, v0: &mut [u32; LANES], v1: &mut [u32; LANES]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` enables only the AVX2 target feature, which this
        // processor was just found to support.
        return unsafe { avx2(k, v0, v1) };
    }
    portable(k, v0, v1)
}

/// Encrypts `input(0..n)` under `k` into `output`, in order, [`LANES`] per
/// pass; a pass of up to four is narrow, costing what one block does.
pub(crate) fn encrypt_each(
    k: &Schedule,
    n: usize,
    mut input: impl FnMut(usize) -> u64,
    mut output: impl FnMut(usize, u64),
) {
    for first in (0..n).step_by(LANES) {
        let (lanes, mut v0, mut v1) = (LANES.min(n - first), [0; LANES], [0; LANES]);
        for i in 0..lanes {
            let b = input(first + i);
            (v0[i], v1[i]) = ((b >> 32) as u32, b as u32);
        }
        match (v0.first_chunk_mut::<4>(), v1.first_chunk_mut::<4>()) {
            (Some(n0), Some(n1)) if lanes <= 4 => portable(k, n0, n1),
            _ => wide(k, &mut v0, &mut v1),
        }
        for i in 0..lanes {
            output(first + i, u64::from(v0[i]) << 32 | u64::from(v1[i]));
        }
    }
}

/// Encrypts `a` under `ka` and `b` under `kb`.
pub(crate) fn encrypt2(ka: &Schedule, a: u64, kb: &Schedule, b: u64) -> (u64, u64) {
    (encrypt1(ka, a), encrypt1(kb, b))
}

/// Encrypts one block alone.
pub(crate) fn encrypt1(k: &Schedule, block: u64) -> u64 {
    let mut out = 0;
    encrypt_each(k, 1, |_| block, |_, b| out = b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key = Key([0x0123_4567, 0x89ab_cdef, 0xfedc_ba98, 0x7654_3210]);

    /// Published XTEA test vectors (Needham/Wheeler reference
    /// implementation, 32 cycles) as `(key, plaintext, ciphertext)`.
    const VECTORS: [(Key, u64, u64); 2] = [
        (
            Key([0x0001_0203, 0x0405_0607, 0x0809_0a0b, 0x0c0d_0e0f]),
            0x4142_4344_4546_4748, // "ABCDEFGH"
            0x497d_f3d0_7261_2cb5,
        ),
        (Key([0; 4]), 0, 0xdee9_d4d8_f713_1ed9),
    ];

    #[test]
    fn known_answer_vectors() {
        // This implementation must agree with every other correct XTEA.
        for (key, plain, cipher) in VECTORS {
            assert_eq!(encrypt1(&Schedule::new(key), plain), cipher);
        }
    }

    #[test]
    fn wrong_key_gives_another_block() {
        let block = 0xdead_beef_0bad_f00d;
        let right = encrypt1(&Schedule::new(KEY), block);
        assert_ne!(right, block, "encryption must change the block");
        assert_ne!(encrypt1(&Schedule::new(Key([0, 0, 0, 1])), block), right);
    }

    /// `blocks` through one compiled instance of the kernel, `N` lanes wide.
    fn through<const N: usize>(
        run: fn(&Schedule, &mut [u32; N], &mut [u32; N]),
        k: &Schedule,
        blocks: &[u64],
    ) -> Vec<u64> {
        let (mut v0, mut v1) = ([0; N], [0; N]);
        for (i, &b) in blocks.iter().enumerate() {
            (v0[i], v1[i]) = ((b >> 32) as u32, b as u32);
        }
        run(k, &mut v0, &mut v1);
        let out = |i: usize| u64::from(v0[i]) << 32 | u64::from(v1[i]);
        (0..blocks.len()).map(out).collect()
    }

    /// Every compiled instance of the kernel against the published vectors:
    /// each vector in every lane of every partial pass, beside neighbours
    /// that must come out as `encrypt1` gives them. The portable instance
    /// is called directly, so it is covered on every host; `wide` runs the
    /// AVX2 instance wherever the processor has it.
    #[test]
    fn every_kernel_instance_matches_the_known_answers_in_every_lane() {
        for (key, plain, cipher) in VECTORS {
            let k = Schedule::new(key);
            let filler: [u64; LANES] = std::array::from_fn(|i| 0x0101_0101 * i as u64 + 7);
            let expected: Vec<u64> = filler.iter().map(|&b| encrypt1(&k, b)).collect();
            for n in 1..=LANES {
                for at in 0..n {
                    let mut want = expected[..n].to_vec();
                    want[at] = cipher;
                    let mut blocks = filler[..n].to_vec();
                    blocks[at] = plain;
                    assert_eq!(
                        through::<LANES>(portable, &k, &blocks),
                        want,
                        "portable: {at} of {n}"
                    );
                    assert_eq!(through(wide, &k, &blocks), want, "wide: {at} of {n}");
                    if n <= 4 {
                        assert_eq!(
                            through::<4>(portable, &k, &blocks),
                            want,
                            "narrow: {at} of {n}"
                        );
                    }
                    let mut got = vec![0; n];
                    encrypt_each(&k, n, |i| blocks[i], |i, b| got[i] = b);
                    assert_eq!(got, want, "encrypt_each: {at} of {n}");
                }
            }
        }
    }

    #[test]
    fn schedule_debug_does_not_leak_material() {
        assert_eq!(format!("{:?}", Schedule::new(KEY)), "Schedule(..)");
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
