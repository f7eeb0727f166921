//! 64-bit FNV-1a.
//!
//! Deliberately not `std::hash::Hasher`: the keys this hasher derives
//! must be stable across runs, platforms and releases — they name disk
//! blobs, checksum frames and appear in golden files — which rules out
//! `RandomState` and friends.

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv {
    state: u64,
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Fnv {
        Fnv {
            state: Self::OFFSET,
        }
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Feeds one `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv {
        self.write(&v.to_le_bytes())
    }

    /// Feeds a length-prefixed field, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    #[inline]
    pub fn write_field(&mut self, bytes: &[u8]) -> &mut Fnv {
        self.write_u64(bytes.len() as u64);
        self.write(bytes)
    }

    /// The accumulated 64-bit hash.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a of `bytes` in one call.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv::new().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental feeding is the same hash as one-shot.
        assert_eq!(
            Fnv::new().write(b"foo").write(b"bar").finish(),
            fnv64(b"foobar")
        );
    }

    #[test]
    fn write_field_separates_fields() {
        let mut a = Fnv::new();
        a.write_field(b"ab").write_field(b"c");
        let mut b = Fnv::new();
        b.write_field(b"a").write_field(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut h = Fnv::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv64(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
