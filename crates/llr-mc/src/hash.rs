//! The 128-bit state-key hash and the pass-through hasher for maps keyed
//! by it.
//!
//! [`hash128`] is computed once per transition. Every map or set keyed by
//! its result — the engine's frozen and pending shards, the disk visited
//! set's delta, the DFS visited set — then uses
//! [`PreHashed`], which hands the already-mixed bits to the table instead
//! of hashing them a second time.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The SplitMix64 finalizer: full avalanche in two multiplies.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Full 64×64→128-bit product, high half folded onto the low half.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Per-half secrets (the wyhash constants), so the halves stay
/// independent even though both see every word.
const SECRET_HI: u64 = 0xA076_1D64_78BD_642F;
const SECRET_LO: u64 = 0xE703_7ED1_A0B4_28DB;

/// 128-bit state-key hash: two independently seeded 64-bit chains, one
/// per half, each absorbing the key two words at a time with one folded
/// multiply — `hi = fold(a ⊕ s_hi, b ⊕ hi)`, `lo = fold(b ⊕ s_lo, a ⊕ lo)`
/// — so the two chains run side by side and a word costs about one
/// multiply. An odd last word is padded with zero; the length is folded
/// into both halves and each is finished with [`mix64`], so keys that
/// differ only by trailing zeros still differ in both halves.
///
/// A collision would silently merge two states; treating the halves as
/// independent 64-bit hashes, `n` states collide with probability about
/// `n²/2¹²⁹` (< 10⁻²⁴ for 10⁸ states), which the large configurations
/// accept — CI-sized runs use exact dedup. Keys are built by the checker
/// from its own state, never taken from outside, so no input is chosen
/// against the multiply.
pub(crate) fn hash128(key: &[u64]) -> u128 {
    let mut hi: u64 = 0x243F_6A88_85A3_08D3; // first 64 fractional bits of π
    let mut lo: u64 = 0x1319_8A2E_0370_7344; // next 64
    let mut pairs = key.chunks_exact(2);
    for p in &mut pairs {
        hi = fold(p[0] ^ SECRET_HI, p[1] ^ hi);
        lo = fold(p[1] ^ SECRET_LO, p[0] ^ lo);
    }
    if let [w] = pairs.remainder() {
        // The pair (w, 0).
        hi = fold(w ^ SECRET_HI, hi);
        lo = fold(SECRET_LO, w ^ lo);
    }
    let n = key.len() as u64;
    hi = mix64(hi ^ n);
    lo = mix64(lo ^ n.rotate_left(32));
    ((hi as u128) << 64) | lo as u128
}

/// Hasher for keys that are already a [`hash128`] result: passes the low
/// 64 bits through unchanged.
///
/// Sound because those bits are already avalanched and the keys are made
/// inside the checker, not taken from outside it, so nobody can choose
/// them to flood one bucket. The low half is disjoint from the top bits
/// that pick a shard (`engine::shard_of`), so the keys of one shard still
/// spread over its whole table.
#[derive(Default)]
pub(crate) struct PreHashed(u64);

impl Hasher for PreHashed {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u128(&mut self, h: u128) {
        self.0 = h as u64;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed hashes only u128 state hashes")
    }
}

/// A [`hash128`] result stored as two words, the key of the hashed
/// frozen and pending shards. Its 8-byte alignment keeps a frozen bucket
/// `(PackedHash, u32)` at 24 bytes; a 16-byte-aligned `u128` key pads it
/// to 32.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedHash([u64; 2]);

impl From<u128> for PackedHash {
    #[inline]
    fn from(h: u128) -> Self {
        Self([(h >> 64) as u64, h as u64])
    }
}

impl Hash for PackedHash {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(((self.0[0] as u128) << 64) | self.0[1] as u128);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of every map keyed by a
/// state hash.
pub(crate) type BuildPreHashed = BuildHasherDefault<PreHashed>;
/// A set of state hashes.
pub(crate) type HashSet128 = HashSet<u128, BuildPreHashed>;

#[cfg(test)]
mod tests {
    use super::*;

    fn halves(h: u128) -> (u64, u64) {
        ((h >> 64) as u64, h as u64)
    }

    #[test]
    fn length_separates_prefix_keys() {
        let keys: [&[u64]; 5] = [&[], &[0], &[0, 0], &[0, 0, 0], &[0, 0, 0, 0]];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                let (ah, al) = halves(hash128(a));
                let (bh, bl) = halves(hash128(b));
                assert!(ah != bh && al != bl, "{a:?} and {b:?} share a half");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_changes_both_halves() {
        let base: Vec<u64> = (0..13u64)
            .map(|i| match i % 4 {
                0 => u64::MAX,
                1 => i,
                _ => 0,
            })
            .collect();
        for len in [1, 2, 5, base.len()] {
            let key = &base[..len];
            let (h0, l0) = halves(hash128(key));
            for w in 0..len {
                for bit in 0..64 {
                    let mut k = key.to_vec();
                    k[w] ^= 1 << bit;
                    let (h, l) = halves(hash128(&k));
                    assert!(h != h0 && l != l0, "len {len}: word {w} bit {bit}");
                }
            }
        }
    }

    /// A million distinct keys shaped like real state keys — small
    /// integers, mostly zeros, `u64::MAX` separators between machine
    /// blocks — collide in neither half.
    #[test]
    fn no_collisions_among_structured_keys() {
        const N: u64 = 1_000_000;
        let mut full = HashSet128::default();
        let mut hi = HashSet::new();
        let mut lo = HashSet::new();
        let mut key = Vec::new();
        for n in 0..N {
            key.clear();
            // Registers: the base-5 digits of `n`, padded with zeros.
            let mut r = n;
            for _ in 0..10 {
                key.push(r % 5);
                r /= 5;
            }
            key.extend([0; 6]);
            // Three machine blocks: pc, a slot drawn from `n`, padding.
            for m in 0..3 {
                key.push(u64::MAX);
                key.push((n >> (3 * m)) & 7);
                key.push(0);
                key.push(n & 1);
            }
            if n % 3 == 0 {
                key.push(0); // some keys one word longer
            }
            let h = hash128(&key);
            assert!(full.insert(h), "128-bit collision at key {n}");
            assert!(hi.insert((h >> 64) as u64), "high-half collision at key {n}");
            assert!(lo.insert(h as u64), "low-half collision at key {n}");
        }
    }

    #[test]
    fn prehashed_passes_the_low_half_through() {
        use std::hash::BuildHasher;
        let h: u128 = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210;
        let b = BuildPreHashed::default();
        assert_eq!(b.hash_one(h), 0xFEDC_BA98_7654_3210);
        assert_eq!(b.hash_one(PackedHash::from(h)), 0xFEDC_BA98_7654_3210);
        assert_eq!(std::mem::size_of::<(PackedHash, u32)>(), 24);
    }
}
