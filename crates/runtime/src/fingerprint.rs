//! Stable structural fingerprints for cache keys.
//!
//! [`std::hash::Hash`] offers no stability guarantees and `DefaultHasher`
//! is explicitly allowed to change between releases, so memoization keys
//! use this explicit 64-bit FNV-1a writer instead: a type writes its
//! *semantic* fields in a fixed order, giving a fingerprint that is stable
//! for a given source tree and independent of pointer identity, `HashMap`
//! iteration order, or hasher seeding. Floats are hashed by their IEEE
//! bit pattern (`f64::to_bits`), so `-0.0 != 0.0` and `NaN` payloads
//! distinguish — exactly what "same configuration" means for a cost model.

/// A 64-bit stable fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// An incremental FNV-1a writer.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprinter { state: FNV_OFFSET }
    }

    /// Finishes and returns the fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }

    /// Writes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Writes a `usize` (always as 64 bits, for cross-platform stability).
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Writes an `i64`.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Writes a bool.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_bytes(&[v as u8])
    }

    /// Writes an `f64` by IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Writes a length-prefixed string (the prefix prevents `("ab", "c")`
    /// and `("a", "bc")` from colliding).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes())
    }
}

/// A stable 128-bit key: two [`Fingerprinter`] lanes fed the same
/// content, the second seeded with a fixed prefix so the lanes' states
/// are independent. A 64-bit collision in one lane then cannot alias two
/// keys. Memo images and surrogate snapshots persist these keys, so the
/// prefix and the lane order are part of every image format.
#[derive(Debug, Clone)]
pub struct Key128 {
    lo: Fingerprinter,
    hi: Fingerprinter,
}

impl Key128 {
    /// Starts both lanes and feeds them `content`.
    pub fn of(content: impl Fn(&mut Fingerprinter)) -> Self {
        let mut hi = Fingerprinter::new();
        hi.write_u64(0x9e3779b97f4a7c15);
        let mut key = Key128 {
            lo: Fingerprinter::new(),
            hi,
        };
        key.feed(content);
        key
    }

    /// Feeds `content` to both lanes.
    pub fn feed(&mut self, content: impl Fn(&mut Fingerprinter)) {
        content(&mut self.lo);
        content(&mut self.hi);
    }

    /// The `(lo, hi)` lane fingerprints.
    pub fn finish(&self) -> (u64, u64) {
        (self.lo.finish().0, self.hi.finish().0)
    }
}

/// Types with a stable structural fingerprint. Implementations must write
/// every field that affects evaluation results, in a fixed order.
pub trait StableFingerprint {
    /// Writes this value's semantic content into the fingerprinter.
    fn fingerprint_into(&self, fp: &mut Fingerprinter);

    /// Convenience: fingerprints this value alone.
    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        self.fingerprint_into(&mut fp);
        fp.finish()
    }
}

impl StableFingerprint for u64 {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_u64(*self);
    }
}

impl StableFingerprint for usize {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_usize(*self);
    }
}

impl StableFingerprint for u32 {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_u32(*self);
    }
}

impl StableFingerprint for i64 {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_i64(*self);
    }
}

impl StableFingerprint for f64 {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_f64(*self);
    }
}

impl StableFingerprint for bool {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_bool(*self);
    }
}

impl StableFingerprint for str {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(self);
    }
}

impl StableFingerprint for String {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(self);
    }
}

impl<T: StableFingerprint> StableFingerprint for [T] {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.len());
        for item in self {
            item.fingerprint_into(fp);
        }
    }
}

impl<T: StableFingerprint> StableFingerprint for Vec<T> {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.as_slice().fingerprint_into(fp);
    }
}

impl<T: StableFingerprint> StableFingerprint for Option<T> {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        match self {
            None => {
                fp.write_bool(false);
            }
            Some(v) => {
                fp.write_bool(true);
                v.fingerprint_into(fp);
            }
        }
    }
}

impl<A: StableFingerprint, B: StableFingerprint> StableFingerprint for (A, B) {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.0.fingerprint_into(fp);
        self.1.fingerprint_into(fp);
    }
}

impl<T: StableFingerprint + ?Sized> StableFingerprint for &T {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        (**self).fingerprint_into(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_identical_fingerprints() {
        let a = (vec![1u64, 2, 3], "accel".to_string()).fingerprint();
        let b = (vec![1u64, 2, 3], "accel".to_string()).fingerprint();
        assert_eq!(a, b);
    }

    #[test]
    fn field_order_and_values_matter() {
        assert_ne!(vec![1u64, 2].fingerprint(), vec![2u64, 1].fingerprint());
        assert_ne!(1u64.fingerprint(), 2u64.fingerprint());
        assert_ne!("a".fingerprint(), "b".fingerprint());
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let ab_c = ("ab".to_string(), "c".to_string()).fingerprint();
        let a_bc = ("a".to_string(), "bc".to_string()).fingerprint();
        assert_ne!(ab_c, a_bc);
        assert_ne!(vec![1u64].fingerprint(), vec![1u64, 0].fingerprint());
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        assert_ne!((0.0f64).fingerprint(), (-0.0f64).fingerprint());
        assert_eq!((1.5f64).fingerprint(), (1.5f64).fingerprint());
    }

    #[test]
    fn option_disambiguates_none_from_default() {
        let none: Option<u64> = None;
        let zero: Option<u64> = Some(0);
        assert_ne!(none.fingerprint(), zero.fingerprint());
    }

    #[test]
    fn known_vector_is_stable_across_runs() {
        // FNV-1a of the little-endian length prefix (1u64) followed by the
        // byte 0x61 ("a"); pinned so accidental changes to the constants,
        // the length-prefix scheme, or byte order fail loudly.
        let fp = "a".fingerprint();
        assert_eq!(fp, Fingerprint(0x529a4ddc8ff56bbf));
        assert_eq!(format!("{fp}"), "529a4ddc8ff56bbf");
    }
}
