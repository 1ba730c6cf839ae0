//! Byte codecs for container keys and values.
//!
//! The erased facade stores two value shapes: `i64` and byte strings
//! (see [`zstm_api::DynTx`]). The containers keep arbitrary typed keys
//! and values inside *bytes* variables, so every element type needs a
//! self-describing byte encoding. [`Codec`] is that contract.
//!
//! Two properties matter beyond round-tripping:
//!
//! * **Injectivity** — [`TMap`](crate::TMap) compares keys by their
//!   encoded bytes (no `Eq` bound), so two keys must encode equal iff
//!   they are equal. Every provided implementation is injective.
//! * **Self-delimiting context** — entries are stored length-prefixed,
//!   so [`Codec::decode`] always receives exactly the bytes one
//!   [`Codec::encode`] produced.

use std::cell::Cell;

/// A value that round-trips through a byte encoding, usable as a
/// container key or value.
///
/// Implementations must be *injective* (equal bytes ⟺ equal values) and
/// total on their own output: `decode(encode(v)) == Some(v)`.
pub trait Codec: Sized + Send + Sync + 'static {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from exactly the bytes one [`encode`](Self::encode)
    /// produced; `None` on any malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Convenience: this value's encoding as a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(bytes: &[u8]) -> Option<Self> {
                Some(<$ty>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, i8, u16, i16, u32, i32, u64, i64, u128, i128);

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(())
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Length-prefixed elements, so variable-width element encodings stay
/// self-delimiting. (`Vec<u8>` takes this path too — one prefix byte of
/// overhead per element buys one blanket impl with no overlap.)
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            let start = out.len();
            out.extend_from_slice(&[0; 4]);
            item.encode(out);
            let len = u32::try_from(out.len() - start - 4).expect("element fits in u32");
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        }
    }

    fn decode(mut bytes: &[u8]) -> Option<Self> {
        let mut items = Vec::new();
        while !bytes.is_empty() {
            let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
            let rest = bytes.get(4..)?;
            items.push(T::decode(rest.get(..len)?)?);
            bytes = rest.get(len..)?;
        }
        Some(items)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.0.encode(out);
        let len = u32::try_from(out.len() - start - 4).expect("first element fits in u32");
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.1.encode(out);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let rest = bytes.get(4..)?;
        Some((A::decode(rest.get(..len)?)?, B::decode(rest.get(len..)?)?))
    }
}

thread_local! {
    /// This thread's encoding buffer, kept between container operations
    /// (see [`with_scratch`]).
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A scratch buffer that grew beyond this (one huge key or value) is
/// freed after use instead of staying with the thread.
const RETAINED_SCRATCH_BYTES: usize = 64 * 1024;

/// Runs `f` with this thread's encoding buffer, empty: where container
/// operations encode keys and values and assemble payloads, so that a
/// steady state allocates for none of it. The buffer is moved out of the
/// thread-local for the duration of `f`; a [`Codec`] implementation that
/// itself runs a container operation simply finds a fresh one.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let mut buf = SCRATCH.with(Cell::take);
    buf.clear();
    let out = f(&mut buf);
    if buf.capacity() <= RETAINED_SCRATCH_BYTES {
        SCRATCH.with(|scratch| scratch.set(buf));
    }
    out
}

/// FNV-1a over a byte string — the deterministic, dependency-free hash
/// the containers use to pick a bucket from an encoded key. Determinism
/// matters: bucket placement is part of the conflict-granularity story
/// the benchmarks measure, so it must not vary between runs or hosts.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        assert_eq!(T::decode(&value.to_bytes()).as_ref(), Some(&value));
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(-7i64);
        round_trip(u64::MAX);
        round_trip(i128::MIN);
        round_trip(true);
        round_trip(());
        round_trip("köttbullar".to_string());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(vec![b"ab".to_vec(), Vec::new(), b"c".to_vec()]);
        round_trip((42u32, "x".to_string()));
        round_trip(vec![(1i64, 2i64), (3, 4)]);
    }

    #[test]
    fn malformed_input_is_rejected_not_misread() {
        assert_eq!(u32::decode(&[1, 2, 3]), None);
        assert_eq!(bool::decode(&[2]), None);
        assert_eq!(<()>::decode(&[0]), None);
        // Truncated length prefix and truncated payload.
        assert_eq!(Vec::<u64>::decode(&[5, 0, 0]), None);
        assert_eq!(Vec::<u64>::decode(&[8, 0, 0, 0, 1, 2]), None);
        assert_eq!(<(u32, u32)>::decode(&[4, 0, 0, 0, 1]), None);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so bucket placement (and thus the granularity figures)
        // can never drift silently.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
