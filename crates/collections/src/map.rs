//! [`TMap`]: a transactional hash map with per-bucket conflict
//! granularity.
//!
//! # Conflict granularity
//!
//! The whole point of the container (and the `collections` figure built
//! on it) is *where* conflicts happen. A single-cell map — the
//! `StmCell<HashMap>` idiom — makes every writer conflict with every
//! other writer and invalidate every reader, no matter which keys they
//! touch. `TMap` instead spreads its entries over `buckets` independent
//! bytes variables of the erased facade and routes each key to
//! `fnv1a(encoded key) % buckets`: transactions on keys in different
//! buckets read and write *disjoint* variables and never conflict, on
//! any of the five engines.
//!
//! # Fixed fanout (the bucket-split design note)
//!
//! The bucket count is fixed at construction; `TMap` never splits or
//! rehashes. A growable map would have to keep the bucket directory
//! itself in a transactional variable, and then **every** operation
//! reads the directory: a split rewrites it and conflicts with every
//! concurrent transaction — exactly the coarse-granularity cliff this
//! container exists to avoid, paid at unpredictable moments. (Finer
//! schemes — splitting one bucket at a time behind a version guard à la
//! linear hashing — keep a directory *read* in every operation's
//! footprint, which the certified engines' SSI layer then treats as a
//! rw-dependency source.) Since the map's capacity is not bounded by
//! the fanout (buckets are unbounded byte strings, lookups just degrade
//! linearly past ~a few dozen entries per bucket), fixing the fanout
//! buys conflict-footprint predictability for a one-line sizing
//! decision at creation, and the `repro_figures collections` sweep
//! measures exactly that trade.
//!
//! # What an operation copies
//!
//! A bucket is one immutable payload (`Arc<[u8]>`, see
//! [`DynTx::read_shared`]) of `[u32 klen][key][u32 vlen][value]`
//! entries. An operation encodes its key once, into the buffer its
//! thread keeps for that, routes by the hash of those bytes and scans
//! the payload in place, comparing encoded keys and decoding only the
//! value it was asked for: a lookup copies nothing and allocates
//! nothing. `insert` and `remove` cannot change a payload other
//! transactions may be reading, so they build the successor — in the
//! same buffer, from slices of the old payload around the one entry
//! that changes — and allocate exactly the new payload.

use std::marker::PhantomData;
use std::sync::Arc;

use zstm_api::{DynStm, DynTx, DynVar};
use zstm_core::Abort;

use crate::codec::{fnv1a, with_scratch, Codec};

/// Variance marker: ties a container to `K`/`V` without owning either
/// (the data lives in the STM's byte variables, not in the struct).
type KvMarker<K, V> = PhantomData<fn(K, V) -> (K, V)>;

/// A transactional hash map over per-bucket variables of the erased
/// facade: operations on keys in different buckets never conflict.
///
/// Create one with [`TMap::new`] against any [`DynStm`] (every `Stm<F>`
/// is one, including SSI-certified factories), then call the operations
/// inside an atomic block with the transaction handle — a typed
/// `Tx<'_, F>` coerces to `&mut dyn DynTx` at the call site, so the
/// same container serves typed and runtime-selected engines:
///
/// ```
/// use std::sync::Arc;
/// use zstm_api::{DynStm, Stm};
/// use zstm_collections::TMap;
/// use zstm_core::{RetryPolicy, StmConfig, TxKind};
/// use zstm_z::ZStm;
///
/// let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(1))));
/// let map: TMap<u64, String> = TMap::new(&*stm, 16);
/// let old = stm
///     .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
///         map.insert(tx, &7, &"seven".to_string())
///     })
///     .unwrap();
/// assert_eq!(old, None);
/// let found = stm
///     .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| map.get(tx, &7))
///     .unwrap();
/// assert_eq!(found.as_deref(), Some("seven"));
/// ```
///
/// Like every [`DynVar`]-based structure, a `TMap` is tied to the
/// [`DynStm`] *instance* that created it; using it under another
/// instance panics rather than mixing two STMs' clocks.
pub struct TMap<K: Codec, V: Codec> {
    buckets: Vec<DynVar>,
    _types: KvMarker<K, V>,
}

impl<K: Codec, V: Codec> Clone for TMap<K, V> {
    fn clone(&self) -> Self {
        Self {
            buckets: self.buckets.clone(),
            _types: PhantomData,
        }
    }
}

impl<K: Codec, V: Codec> std::fmt::Debug for TMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TMap")
            .field("buckets", &self.buckets.len())
            .finish_non_exhaustive()
    }
}

/// One bucket's byte layout: repeated `[u32 klen][key][u32 vlen][value]`
/// entries. Parses a bucket into `(entry range, key bytes, value bytes)`
/// triples; the encoding is produced only by this module, so malformed
/// bytes indicate corruption and panic (unwinding aborts the enclosing
/// transaction).
fn entries(bucket: &[u8]) -> impl Iterator<Item = (std::ops::Range<usize>, &[u8], &[u8])> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos == bucket.len() {
            return None;
        }
        let start = pos;
        let field = |at: usize| -> (usize, usize) {
            let len = u32::from_le_bytes(
                bucket
                    .get(at..at + 4)
                    .expect("corrupt TMap bucket: truncated length")
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            assert!(at + 4 + len <= bucket.len(), "corrupt TMap bucket: overrun");
            (at + 4, at + 4 + len)
        };
        let (key_start, key_end) = field(pos);
        let (value_start, value_end) = field(key_end);
        pos = value_end;
        Some((
            start..value_end,
            &bucket[key_start..key_end],
            &bucket[value_start..value_end],
        ))
    })
}

/// The entry of `bucket` whose key encodes as `key`: its byte range and
/// its encoded value.
fn find<'b>(bucket: &'b [u8], key: &[u8]) -> Option<(std::ops::Range<usize>, &'b [u8])> {
    entries(bucket)
        .find(|(_, k, _)| *k == key)
        .map(|(range, _, value)| (range, value))
}

fn len_prefix(len: usize) -> [u8; 4] {
    u32::try_from(len).expect("entry fits in u32").to_le_bytes()
}

impl<K: Codec, V: Codec> TMap<K, V> {
    /// Creates an empty map with a fixed fanout of `buckets` independent
    /// variables (see the module docs for why the fanout never changes).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(stm: &dyn DynStm, buckets: usize) -> Self {
        assert!(buckets > 0, "TMap needs at least one bucket");
        Self {
            buckets: (0..buckets).map(|_| stm.new_bytes(Vec::new())).collect(),
            _types: PhantomData,
        }
    }

    /// The fixed bucket fanout chosen at construction.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket index `key` routes to — exposed so tests and workloads
    /// can reason about which keys share a conflict footprint.
    pub fn bucket_of(&self, key: &K) -> usize {
        with_scratch(|key_bytes| {
            key.encode(key_bytes);
            self.index_of(key_bytes)
        })
    }

    fn index_of(&self, key_bytes: &[u8]) -> usize {
        (fnv1a(key_bytes) % self.buckets.len() as u64) as usize
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn get(&self, tx: &mut dyn DynTx, key: &K) -> Result<Option<V>, Abort> {
        with_scratch(|key_bytes| {
            key.encode(key_bytes);
            let bucket = tx.read_shared(&self.buckets[self.index_of(key_bytes)])?;
            Ok(find(&bucket, key_bytes)
                .map(|(_, value)| V::decode(value).expect("corrupt TMap value")))
        })
    }

    /// `true` iff `key` is present.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn contains_key(&self, tx: &mut dyn DynTx, key: &K) -> Result<bool, Abort> {
        with_scratch(|key_bytes| {
            key.encode(key_bytes);
            let bucket = tx.read_shared(&self.buckets[self.index_of(key_bytes)])?;
            Ok(find(&bucket, key_bytes).is_some())
        })
    }

    /// Inserts or replaces `key`'s value, returning the previous one.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    pub fn insert(&self, tx: &mut dyn DynTx, key: &K, value: &V) -> Result<Option<V>, Abort> {
        with_scratch(|buf| {
            key.encode(buf);
            let key_len = buf.len();
            let var = &self.buckets[self.index_of(buf)];
            let bucket = tx.read_shared(var)?;
            let found = find(&bucket, buf);
            let previous = found
                .as_ref()
                .map(|(_, old)| V::decode(old).expect("corrupt TMap value"));
            // The successor is assembled behind the key, in the same
            // buffer: the entries before the replaced one, the new entry in
            // its place (at the end for a new key), the entries after it.
            let replaced = found.map_or(bucket.len()..bucket.len(), |(range, _)| range);
            buf.extend_from_slice(&bucket[..replaced.start]);
            buf.extend_from_slice(&len_prefix(key_len));
            buf.extend_from_within(..key_len);
            let len_at = buf.len();
            buf.extend_from_slice(&[0; 4]);
            value.encode(buf);
            let value_len = len_prefix(buf.len() - len_at - 4);
            buf[len_at..len_at + 4].copy_from_slice(&value_len);
            buf.extend_from_slice(&bucket[replaced.end..]);
            tx.write_shared(var, Arc::from(&buf[key_len..]))?;
            Ok(previous)
        })
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    pub fn remove(&self, tx: &mut dyn DynTx, key: &K) -> Result<Option<V>, Abort> {
        with_scratch(|buf| {
            key.encode(buf);
            let var = &self.buckets[self.index_of(buf)];
            let bucket = tx.read_shared(var)?;
            let Some((removed, old)) = find(&bucket, buf) else {
                return Ok(None);
            };
            let old = V::decode(old).expect("corrupt TMap value");
            buf.clear();
            buf.extend_from_slice(&bucket[..removed.start]);
            buf.extend_from_slice(&bucket[removed.end..]);
            tx.write_shared(var, Arc::from(&buf[..]))?;
            Ok(Some(old))
        })
    }

    /// Number of entries. Reads **every** bucket — a whole-map footprint
    /// that conflicts with all concurrent writers, like any consistent
    /// size snapshot must; prefer per-key operations on hot paths.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn len(&self, tx: &mut dyn DynTx) -> Result<usize, Abort> {
        let mut count = 0;
        for var in &self.buckets {
            let bucket = tx.read_shared(var)?;
            count += entries(&bucket).count();
        }
        Ok(count)
    }

    /// `true` iff the map holds no entries (whole-map footprint, like
    /// [`len`](Self::len)).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn is_empty(&self, tx: &mut dyn DynTx) -> Result<bool, Abort> {
        for var in &self.buckets {
            if !tx.read_shared(var)?.is_empty() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Calls `f` for every entry, bucket by bucket (whole-map footprint;
    /// iteration order is bucket order, not insertion order).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn for_each(&self, tx: &mut dyn DynTx, mut f: impl FnMut(K, V)) -> Result<(), Abort> {
        for var in &self.buckets {
            let bucket = tx.read_shared(var)?;
            for (_, k, v) in entries(&bucket) {
                f(
                    K::decode(k).expect("corrupt TMap key"),
                    V::decode(v).expect("corrupt TMap value"),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zstm_api::Stm;
    use zstm_core::{RetryPolicy, StmConfig, TxKind};
    use zstm_lsa::LsaStm;

    fn stm() -> Arc<dyn DynStm> {
        Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))))
    }

    fn run<R>(stm: &Arc<dyn DynStm>, body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>) -> R {
        stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), body)
            .expect("unbounded")
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let stm = stm();
        let map: TMap<u64, String> = TMap::new(&*stm, 4);
        assert_eq!(run(&stm, |tx| map.insert(tx, &1, &"a".into())), None);
        assert_eq!(
            run(&stm, |tx| map.insert(tx, &1, &"b".into())),
            Some("a".to_string())
        );
        assert_eq!(run(&stm, |tx| map.get(tx, &1)), Some("b".to_string()));
        assert_eq!(run(&stm, |tx| map.get(tx, &2)), None);
        assert_eq!(run(&stm, |tx| map.remove(tx, &1)), Some("b".to_string()));
        assert_eq!(run(&stm, |tx| map.remove(tx, &1)), None);
        assert!(run(&stm, |tx| map.is_empty(tx)));
    }

    #[test]
    fn keys_of_every_length_class_round_trip_in_one_bucket() {
        // Keys of 1, 7, 8, 9 and 16 bytes, and pairs that differ only in
        // their last byte or only in their length.
        let keys = [
            "a",
            "abcdefg",
            "abcdefgh",
            "abcdefgh1",
            "abcdefgh2",
            "abcdefghijklmnop",
            "abcdefghijklmnoq",
            "abcdefghijklmno",
        ];
        let stm = stm();
        let map: TMap<String, u64> = TMap::new(&*stm, 1);
        for (value, key) in (0u64..).zip(keys) {
            assert_eq!(run(&stm, |tx| map.insert(tx, &key.into(), &value)), None);
        }
        for (value, key) in (0u64..).zip(keys) {
            assert_eq!(run(&stm, |tx| map.get(tx, &key.into())), Some(value));
        }
        for (value, key) in (0u64..).zip(keys) {
            assert_eq!(run(&stm, |tx| map.remove(tx, &key.into())), Some(value));
            assert_eq!(run(&stm, |tx| map.get(tx, &key.into())), None);
        }
        assert!(run(&stm, |tx| map.is_empty(tx)));
    }

    #[test]
    fn colliding_keys_share_a_bucket_without_clobbering() {
        let stm = stm();
        // One bucket: every key collides by construction.
        let map: TMap<u64, u64> = TMap::new(&*stm, 1);
        run(&stm, |tx| {
            for k in 0..32u64 {
                map.insert(tx, &k, &(k * k))?;
            }
            Ok(())
        });
        assert_eq!(run(&stm, |tx| map.len(tx)), 32);
        for k in 0..32u64 {
            assert_eq!(run(&stm, |tx| map.get(tx, &k)), Some(k * k));
        }
        // Remove from the middle and verify neighbours survive.
        assert_eq!(run(&stm, |tx| map.remove(tx, &15)), Some(225));
        assert_eq!(run(&stm, |tx| map.get(tx, &14)), Some(196));
        assert_eq!(run(&stm, |tx| map.get(tx, &16)), Some(256));
        assert_eq!(run(&stm, |tx| map.len(tx)), 31);
    }

    #[test]
    fn variable_width_values_replace_in_place() {
        let stm = stm();
        let map: TMap<String, Vec<u64>> = TMap::new(&*stm, 2);
        run(&stm, |tx| {
            map.insert(tx, &"k".into(), &vec![1, 2, 3])?;
            map.insert(tx, &"other".into(), &vec![9])?;
            Ok(())
        });
        // Shrink then grow the same key's value; the co-bucketed entry
        // must be untouched either way.
        assert_eq!(
            run(&stm, |tx| map.insert(tx, &"k".into(), &vec![7])),
            Some(vec![1, 2, 3])
        );
        assert_eq!(
            run(&stm, |tx| map.insert(tx, &"k".into(), &vec![0; 20])),
            Some(vec![7])
        );
        assert_eq!(run(&stm, |tx| map.get(tx, &"other".into())), Some(vec![9]));
        assert_eq!(run(&stm, |tx| map.len(tx)), 2);
    }

    #[test]
    fn for_each_visits_every_entry_once() {
        let stm = stm();
        let map: TMap<u64, u64> = TMap::new(&*stm, 8);
        run(&stm, |tx| {
            for k in 0..20u64 {
                map.insert(tx, &k, &k)?;
            }
            Ok(())
        });
        let mut seen = run(&stm, |tx| {
            let mut seen = Vec::new();
            map.for_each(tx, |k, v| seen.push((k, v)))?;
            Ok(seen)
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..20u64).map(|k| (k, k)).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_of_is_stable_and_in_range() {
        let stm = stm();
        let map: TMap<u64, ()> = TMap::new(&*stm, 7);
        for k in 0..100u64 {
            let b = map.bucket_of(&k);
            assert!(b < 7);
            assert_eq!(b, map.bucket_of(&k), "routing must be deterministic");
        }
    }
}
