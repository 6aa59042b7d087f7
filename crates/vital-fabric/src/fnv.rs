//! The one content hash of the workspace.

/// 64-bit FNV-1a, written out so digests are stable across Rust releases
/// and platforms (`DefaultHasher` guarantees neither). It keys the
/// bitstream database (the compiler's `NetlistDigest`), checkpoint
/// capsules and DRAM images, so its output must never change.
///
/// The methods are `#[inline]`: the release profile has no LTO, and a
/// call across crates per hashed byte would cost more than the hash.
/// `Fnv1a::default()` starts at the FNV-1a offset basis.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Hashes one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Hashes the eight little-endian bytes of `v`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Hashes `v` as a `u64`, so the digest does not depend on the
    /// platform's pointer width.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Hashes `s` length-prefixed, so adjacent strings cannot alias.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }

    /// The digest of everything hashed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        for b in *b"foobar" {
            h.byte(b);
        }
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
