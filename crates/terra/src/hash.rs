//! FNV-1a, the one content hash of the stack: both caches' keys, backend
//! fingerprints and conformance reproducer slugs.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: xor the byte in, multiply by the 64-bit FNV prime.
#[inline]
fn fnv_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| fnv_step(hash, byte))
}

/// Two FNV-1a streams fed field by field. The low stream is plain FNV-1a;
/// the high one starts from another basis and sees every byte offset by
/// `0x33`, so the pair acts as one 128-bit hash. [`FnvHasher::u64`] and
/// [`FnvHasher::f64`] feed numbers as whole little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher {
    lo: u64,
    hi: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self { lo: FNV_OFFSET, hi: FNV_OFFSET ^ 0x5bd1_e995_9d02_9c4f }
    }
}

impl FnvHasher {
    /// Feeds raw bytes without ending the field.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.lo = fnv_step(self.lo, byte);
            self.hi = fnv_step(self.hi, byte.wrapping_add(0x33));
        }
    }

    /// Feeds `bytes` and ends the field with a separator, so adjacent
    /// fields cannot alias (`"ab", "c"` against `"a", "bc"`).
    #[inline]
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.lo = fnv_step(self.lo, 0xff);
        self.hi = fnv_step(self.hi, 0xff);
    }

    /// Feeds an integer as one field.
    pub fn u64(&mut self, value: u64) {
        self.field(&value.to_le_bytes());
    }

    /// Feeds a float's bit pattern as one field.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The 64-bit digest: the low stream.
    pub fn finish64(&self) -> u64 {
        self.lo
    }

    /// The 128-bit digest: both streams.
    pub fn finish128(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut hasher = FnvHasher::default();
        hasher.write(b"foobar");
        assert_eq!(hasher.finish64(), fnv1a64(b"foobar"), "the low stream is plain FNV-1a");
    }

    #[test]
    fn fields_are_separated_and_typed_values_differ() {
        let digest = |feed: &dyn Fn(&mut FnvHasher)| {
            let mut hasher = FnvHasher::default();
            feed(&mut hasher);
            hasher.finish128()
        };
        assert_ne!(
            digest(&|h| {
                h.field(b"ab");
                h.field(b"c");
            }),
            digest(&|h| {
                h.field(b"a");
                h.field(b"bc");
            })
        );
        assert_ne!(digest(&|h| h.f64(0.0)), digest(&|h| h.f64(-0.0)));
        assert_eq!(digest(&|h| h.f64(0.5)), digest(&|h| h.u64(0.5f64.to_bits())));
        assert_ne!(digest(&|h| h.u64(1)) >> 64, digest(&|h| h.u64(1)) & u128::from(u64::MAX));
    }
}
