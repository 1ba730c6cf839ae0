//! `map_zipf_lsa`: `TMap<u64, Val64>` on LSA-STM under a Zipf key choice —
//! codec, bucket copies and the read fast path dominate, conflicts are rare.
//!
//! Primary class: `get`. Secondary class: `insert` (overwriting a present
//! key). Each operation is its own transaction, and one thread runs them all
//! (see `affinity.rs` for why no workload keeps both CPUs busy).

use std::sync::Arc;

use zstm_api::{DynStm, Stm};
use zstm_collections::{Codec, TMap};
use zstm_core::{RetryPolicy, StmConfig, TxKind, TxStats};
use zstm_lsa::LsaStm;

use super::{fnv1a, stream_rng, warm_up_count, Finish, Workload};
use crate::harness::{self, Strides, WindowOut, Worker, PRIMARY, SECONDARY};
use crate::trace::{self, Name, Tracer};

/// Sixteen keys to a bucket, and few enough buckets that the live values
/// (about 0.4 MB) stay in the core's own cache: sized to spill into the cache
/// the host's other tenants share, the same ten runs spread twice as wide
/// (see README.md, *What changed since the first check*).
const KEYS: u64 = 4_096;
const BUCKETS: usize = 256;
const ZIPF_EXPONENT: f64 = 0.99;
const INSERT_PCT: u8 = 10;
const WARM_UP_OPS: u64 = 500_000;
/// Operations generated; the stream is replayed when it runs out.
const STREAM_LEN: usize = 1 << 20;
const INSERT_FLAG: u32 = 1 << 31;
/// Writer ids: the worker's inserts and the set-up thread's initial values.
const WORKER: u64 = 0;
const SEEDER: u64 = 1;

/// The 64-byte value: enough to make encode, decode and bucket copies cost
/// something, and self-describing so that every read can be audited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Val64 {
    key: u64,
    writer: u64,
    /// Grows with every insert its writer makes.
    seq: u64,
}

impl Codec for Val64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.writer.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&[0; 40]);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let field = |at: usize| Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
        (bytes.len() == 64).then_some(())?;
        Some(Val64 {
            key: field(0)?,
            writer: field(8)?,
            seq: field(16)?,
        })
    }
}

/// The pre-generated operation stream: a key in the low bits,
/// [`INSERT_FLAG`] on top.
pub struct MapInputs {
    stream: Arc<Vec<u32>>,
    hash: u64,
}

fn zipf_cdf() -> Vec<f64> {
    let mut cdf: Vec<f64> = (1..=KEYS)
        .scan(0.0, |sum, rank| {
            *sum += (rank as f64).powf(-ZIPF_EXPONENT);
            Some(*sum)
        })
        .collect();
    let total = *cdf.last().expect("at least one key");
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

pub struct MapWorker {
    stm: Arc<dyn DynStm>,
    map: TMap<u64, Val64>,
    stream: Arc<Vec<u32>>,
    at: usize,
    seq: u64,
    /// Highest sequence seen so far, per key.
    last_seen: Vec<u64>,
    key: u64,
    insert: bool,
    /// Reads whose value named another key or went back in sequence.
    bad_reads: u64,
    traced_gets: u64,
    traced_get_bytes: u64,
}

impl Worker for MapWorker {
    fn thread_name(&self) -> String {
        "map-worker".to_string()
    }

    fn sample_strides(&self) -> Strides {
        [16, 16]
    }

    fn trace_strides(&self) -> Strides {
        [64, 64]
    }

    fn draw(&mut self) -> usize {
        let word = self.stream[self.at];
        self.at = (self.at + 1) % self.stream.len();
        self.key = u64::from(word & !INSERT_FLAG);
        self.insert = word & INSERT_FLAG != 0;
        if self.insert {
            SECONDARY
        } else {
            PRIMARY
        }
    }

    fn run(&mut self, tracer: Option<&Tracer>) -> bool {
        let (map, key) = (&self.map, self.key);
        let policy = RetryPolicy::unbounded();
        if self.insert {
            self.seq += 1;
            let value = Val64 {
                key,
                writer: WORKER,
                seq: self.seq,
            };
            let previous =
                trace::atomically(
                    &*self.stm,
                    TxKind::Short,
                    &policy,
                    tracer,
                    |tx| match tracer {
                        Some(tracer) => {
                            tracer.span(Name::MapInsert, || map.insert(tx, &key, &value))
                        }
                        None => map.insert(tx, &key, &value),
                    },
                );
            // Every key was seeded, so an insert always replaces a value.
            return matches!(previous, Ok(Some(_)));
        }
        let bytes_before = tracer.map_or(0, Tracer::bytes_read);
        let found = trace::atomically(
            &*self.stm,
            TxKind::Short,
            &policy,
            tracer,
            |tx| match tracer {
                Some(tracer) => tracer.span(Name::MapGet, || map.get(tx, &key)),
                None => map.get(tx, &key),
            },
        );
        if let Some(tracer) = tracer {
            self.traced_gets += 1;
            self.traced_get_bytes += tracer.bytes_read() - bytes_before;
        }
        let Ok(Some(value)) = found else {
            return false;
        };
        if value.key != key {
            self.bad_reads += 1;
        } else if value.writer != SEEDER {
            let seen = &mut self.last_seen[key as usize];
            if value.seq < *seen {
                self.bad_reads += 1;
            }
            *seen = value.seq;
        }
        true
    }
}

pub struct Map {
    stm: Arc<dyn DynStm>,
    map: TMap<u64, Val64>,
    worker: [MapWorker; 1],
    input_hash: u64,
}

impl Workload for Map {
    const NAME: &'static str = "map_zipf_lsa";
    type Worker = MapWorker;
    type Inputs = MapInputs;

    fn generate(seed: u64) -> MapInputs {
        let cdf = zipf_cdf();
        let mut rng = stream_rng(seed, Self::NAME, 0);
        let stream: Vec<u32> = (0..STREAM_LEN)
            .map(|_| {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let key = cdf.partition_point(|&c| c < u).min(KEYS as usize - 1) as u32;
                if rng.next_percent(INSERT_PCT) {
                    key | INSERT_FLAG
                } else {
                    key
                }
            })
            .collect();
        let bytes: Vec<u8> = stream.iter().flat_map(|word| word.to_le_bytes()).collect();
        MapInputs {
            stream: Arc::new(stream),
            hash: fnv1a(&bytes),
        }
    }

    fn setup(inputs: &MapInputs, smoke: bool) -> Self {
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(3))));
        let map: TMap<u64, Val64> = TMap::new(&*stm, BUCKETS);
        let policy = RetryPolicy::unbounded();
        for key in 0..KEYS {
            let value = Val64 {
                key,
                writer: SEEDER,
                seq: 0,
            };
            stm.atomically(TxKind::Short, &policy, |tx| map.insert(tx, &key, &value))
                .expect("unbounded seeding commits");
        }
        let mut worker = [MapWorker {
            stm: Arc::clone(&stm),
            map: map.clone(),
            stream: Arc::clone(&inputs.stream),
            at: 0,
            seq: 0,
            last_seen: vec![0; KEYS as usize],
            key: 0,
            insert: false,
            bad_reads: 0,
            traced_gets: 0,
            traced_get_bytes: 0,
        }];
        let failed = harness::warm_up(&mut worker, warm_up_count(WARM_UP_OPS, smoke));
        assert_eq!(failed, 0, "warm-up operations must find their keys");
        Map {
            stm,
            map,
            worker,
            input_hash: inputs.hash,
        }
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn workers(&mut self) -> &mut [MapWorker] {
        &mut self.worker
    }

    fn take_stats(&mut self) -> Option<TxStats> {
        Some(self.stm.take_stats())
    }

    fn finish(self, _traced: Option<&WindowOut>) -> Finish {
        let mut entries = 0u64;
        let mut misfiled = 0u64;
        self.stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                (entries, misfiled) = (0, 0);
                self.map.for_each(tx, |key, value| {
                    entries += 1;
                    misfiled += u64::from(value.key != key);
                })
            })
            .expect("unbounded audit commits");
        let [worker] = &self.worker;
        let bad_reads = worker.bad_reads;
        let audit = if entries != KEYS {
            Err(format!("map holds {entries} entries, not {KEYS}"))
        } else if misfiled > 0 {
            Err(format!("{misfiled} final values name another key"))
        } else if bad_reads > 0 {
            Err(format!(
                "{bad_reads} reads named another key or went back in sequence"
            ))
        } else {
            Ok(())
        };
        let (gets, bytes) = (worker.traced_gets, worker.traced_get_bytes);
        let layers = if gets > 0 {
            vec![("collections.bytes_read_per_get", bytes as f64 / gets as f64)]
        } else {
            Vec::new()
        };
        Finish { audit, layers }
    }
}
