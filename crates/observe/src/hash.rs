//! FNV-1a, the workspace's one non-cryptographic hash.
//!
//! Netlist fingerprints, run ids, daemon trace ids and failpoint seeds
//! all hash through [`Fnv1a`]. Their values key committed checkpoints,
//! ledgers and result caches, and tests pin them, so the byte stream each
//! caller feeds must never change.

/// Incremental 64-bit FNV-1a hasher.
///
/// ```
/// use nanomap_observe::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.field(b"ab").field(b"c");
/// let mut g = Fnv1a::new();
/// g.field(b"a").field(b"bc");
/// assert_ne!(h.finish(), g.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A hasher in the FNV-1a initial state.
    pub const fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    /// Mixes in one byte.
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    /// Mixes in raw bytes, with no terminator.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.byte(b);
        }
        self
    }

    /// Mixes in one variable-length field followed by a `0xFF`
    /// separator, so `"ab","c"` hashes differently from `"a","bc"`.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes(bytes).byte(0xFF)
    }

    /// Mixes in a `u64` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything mixed in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn field_and_u64_are_byte_compositions() {
        let mut h = Fnv1a::new();
        h.field(b"xy").u64(7);
        let mut g = Fnv1a::new();
        g.bytes(b"xy").byte(0xFF).bytes(&[7, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h, g);
    }
}
