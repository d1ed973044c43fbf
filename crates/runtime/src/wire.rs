//! The one binary codec: every byte a value puts on a socket or into a
//! persisted image is laid out by [`Wire`].
//!
//! The vendored `serde` is a marker-trait shim (no derive-driven codegen),
//! so values encode by hand: little-endian fixed-width integers, `usize`
//! as `u64`, `f64` as [`f64::to_bits`] (bit-exact round trips —
//! determinism forbids any text-float detour), length-prefixed strings
//! and sequences, and one-byte tags for enums and options. Framing,
//! checksumming, and truncation handling live beside this module in
//! [`crate::persist`]; decoding here assumes a checksum-validated payload
//! and returns `None` on any structural mismatch, which callers surface
//! as a protocol error (the network) or a clean cold start (an image).
//!
//! The trait sits in `runtime`, below every crate that owns an encoded
//! type, so each type implements it next to its
//! [`StableFingerprint`](crate::StableFingerprint) impl: `tensor-ir`,
//! `accel-model`, `dse`, `sw-opt` and `hasco` for their own types, and
//! `hasco-net` only for its protocol messages, each declaring its layout
//! once with [`wire_struct!`](crate::wire_struct) or
//! [`wire_enum!`](crate::wire_enum). Only the primitive and container
//! impls below, and `tensor-ir`'s `IndexId` newtype, are written by hand;
//! their `encode` and `decode` halves must stay in step, which detlint's
//! `wire-drift` rule checks.

use std::collections::BTreeMap;

/// A cursor over a decoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or `None` past the end.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// True once the whole payload was consumed — decoders require this
    /// so trailing garbage can't hide in a valid-looking message.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Symmetric binary encoding. `decode` must accept exactly what `encode`
/// produced (a bit-exact round trip) and reject everything else with
/// `None`.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(1).and_then(|b| b.first()).copied()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::try_from(u64::decode(r)?).ok()
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        String::from_utf8(r.take(len)?.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        // No speculative preallocation from the wire length: a corrupt
        // count fails on the first short `take`, not in the allocator.
        let mut items = Vec::new();
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Some(items)
    }
}

/// A fixed-size array: its items back to back, with no length prefix.
impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let items: Vec<T> = (0..N).map(|_| T::decode(r)).collect::<Option<_>>()?;
        items.try_into().ok()
    }
}

/// An opaque byte string, for values kept encoded until they are needed.
/// Its layout is `Vec<u8>`'s (a `u64` length, then the bytes), but it
/// decodes in one copy instead of byte by byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

impl Wire for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.len().encode(out);
        out.extend_from_slice(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        Some(Bytes(r.take(len)?.to_vec()))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            // `encode` writes keys strictly ascending; anything else
            // (a repeat, or keys out of order) would decode to a map
            // that re-encodes to different bytes.
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return None;
            }
            map.insert(k, v);
        }
        Some(map)
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(Ok(T::decode(r)?)),
            1 => Some(Err(E::decode(r)?)),
            _ => None,
        }
    }
}

/// Implements [`Wire`] for a struct with all-[`Wire`] public fields,
/// encoded in the listed order. An optional `if check` names a
/// `fn(&Self) -> bool` that a decoded value must pass, for invariants
/// the field types alone cannot express.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? } $(if $check:path)?) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                // Method syntax keeps the field sequence visible to
                // detlint's wire-drift rule; the caller may import the
                // trait already.
                #[allow(unused_imports)]
                use $crate::wire::Wire as _;
                $(self.$field.encode(out);)+
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                let value = Self { $($field: $crate::wire::Wire::decode(r)?),+ };
                $(if !$check(&value) { return None; })?
                Some(value)
            }
        }
    };
}

/// Implements [`Wire`] for an enum as a one-byte tag followed by the
/// variant's fields in the listed order. Unit (`7 => Cancelled`), struct
/// (`14 => BatchRequest { batch, items }`) and tuple
/// (`1 => InvalidOptions(msg)`) variants mix freely; tuple fields take
/// any distinct binding names. A tag not listed decodes to `None`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($item:ident),* ))?
        ),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                // Method syntax keeps the field sequence visible to
                // detlint's wire-drift rule, as in `wire_struct!`.
                #[allow(unused_imports)]
                use $crate::wire::Wire as _;
                match self {
                    $(Self::$variant $({ $($field),* })? $(($($item),*))? => {
                        out.push($tag);
                        $($($field.encode(out);)*)?
                        $($($item.encode(out);)*)?
                    })+
                }
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($tag => {
                        $($(let $field = $crate::wire::Wire::decode(r)?;)*)?
                        $($(let $item = $crate::wire::Wire::decode(r)?;)*)?
                        Some(Self::$variant $({ $($field),* })? $(($($item),*))?)
                    })+
                    _ => None,
                }
            }
        }
    };
}

/// Encodes one value to a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes one value, requiring the payload to be fully consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.is_exhausted().then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + std::fmt::Debug>(value: &T) -> T {
        let bytes = to_bytes(value);
        from_bytes(&bytes).expect("round trip decodes")
    }

    #[test]
    fn bytes_lay_out_as_a_byte_vec() {
        for raw in [vec![], vec![0u8], vec![7, 8, 9, 255]] {
            let bytes = Bytes(raw.clone());
            assert_eq!(to_bytes(&bytes), to_bytes(&raw));
            assert_eq!(roundtrip(&bytes), bytes);
        }
        // A length past the payload is rejected, not allocated.
        let mut short = to_bytes(&Bytes(vec![1, 2, 3]));
        short.pop();
        assert_eq!(from_bytes::<Bytes>(&short), None);
        assert_eq!(from_bytes::<Bytes>(&u64::MAX.to_le_bytes()), None);
    }

    /// Debug output prints floats in shortest-round-trip form, so Debug
    /// equality is bit equality for everything we care about (no NaNs
    /// in the domain).
    fn assert_roundtrip<T: Wire + std::fmt::Debug>(value: &T) {
        assert_eq!(format!("{value:?}"), format!("{:?}", roundtrip(value)));
    }

    #[test]
    fn primitives_round_trip() {
        assert_roundtrip(&0u8);
        assert_roundtrip(&u64::MAX);
        assert_roundtrip(&(-0.0f64));
        assert_roundtrip(&1.000000000000004f64);
        assert_roundtrip(&Some("labelled".to_string()));
        assert_roundtrip(&Option::<u64>::None);
        assert_roundtrip(&vec![1usize, 2, 3]);
        assert_roundtrip(&Result::<u32, String>::Err("bad".into()));
    }

    #[test]
    fn arrays_lay_out_their_items_with_no_length() {
        let state = [1u64, 2, u64::MAX, 0];
        let bytes = to_bytes(&state);
        assert_eq!(bytes.len(), 32);
        assert_eq!(bytes[..8], 1u64.to_le_bytes());
        assert_eq!(roundtrip(&state), state);
        assert_eq!(from_bytes::<[u64; 4]>(&bytes[..31]), None);
    }

    #[test]
    fn trailing_garbage_and_truncation_are_rejected() {
        let mut bytes = to_bytes(&Option::<u64>::None);
        assert!(from_bytes::<Option<u64>>(&bytes).is_some());
        bytes.push(7);
        assert!(from_bytes::<Option<u64>>(&bytes).is_none());
        let labelled = to_bytes(&Some("abc".to_string()));
        assert!(from_bytes::<Option<String>>(&labelled[..labelled.len() - 1]).is_none());
        assert!(from_bytes::<Option<u64>>(&[99]).is_none());
    }

    #[test]
    fn maps_with_unsorted_or_repeated_keys_are_rejected() {
        let map = BTreeMap::from([(0u64, 8u64), (2, 16)]);
        let bytes = to_bytes(&map);
        assert_eq!(from_bytes::<BTreeMap<u64, u64>>(&bytes), Some(map));
        // Entries are (key u64, value u64) after the 8-byte count; the
        // second key sits at offset 24. Out of order, then repeated.
        for key in [0u8, 1] {
            let mut bad = bytes.clone();
            bad[24..32].copy_from_slice(&[0; 8]);
            bad[24] = key;
            bad[8] = 1;
            assert_eq!(from_bytes::<BTreeMap<u64, u64>>(&bad), None, "key {key}");
        }
    }
}
