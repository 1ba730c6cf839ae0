//! Model-based property tests: each container behaves exactly like its
//! `std::collections` reference under random (shrunk) operation
//! sequences, driven through the erased facade on several engines —
//! including an SSI-certified one, since the containers promise to run
//! unchanged under `CertifiedFactory`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use zstm_api::{DynStm, DynTx, DynVar, Stm};
use zstm_certify::CertifiedFactory;
use zstm_collections::{TDeque, TMap, TQueue, TSet};
use zstm_core::{Abort, RetryPolicy, StmConfig, TxKind};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_z::ZStm;

/// The engine a script runs on, and whether its bodies get the engine's
/// own transaction handle or one that knows only [`DynTx`]'s required
/// methods.
struct Engine {
    stm: Arc<dyn DynStm>,
    required_methods_only: bool,
}

impl std::ops::Deref for Engine {
    type Target = dyn DynStm;

    fn deref(&self) -> &Self::Target {
        &*self.stm
    }
}

/// A [`DynTx`] implementor that knows only the required methods (the
/// shape of the benchmark's `TracedTx`): the containers must work through
/// the provided methods' fallbacks, `read_bytes_with` lending a
/// `read_bytes` copy and `write_shared` going through `write_bytes`.
struct RequiredMethodsOnly<'a>(&'a mut dyn DynTx);

impl DynTx for RequiredMethodsOnly<'_> {
    fn read_i64(&mut self, var: &DynVar) -> Result<i64, Abort> {
        self.0.read_i64(var)
    }

    fn write_i64(&mut self, var: &DynVar, value: i64) -> Result<(), Abort> {
        self.0.write_i64(var, value)
    }

    fn read_bytes(&mut self, var: &DynVar) -> Result<Vec<u8>, Abort> {
        self.0.read_bytes(var)
    }

    fn write_bytes(&mut self, var: &DynVar, value: Vec<u8>) -> Result<(), Abort> {
        self.0.write_bytes(var, value)
    }

    fn retry(&self) -> Abort {
        self.0.retry()
    }

    fn kind(&self) -> TxKind {
        self.0.kind()
    }
}

fn run<R>(engine: &Engine, mut body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>) -> R {
    engine
        .stm
        .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            if engine.required_methods_only {
                body(&mut RequiredMethodsOnly(tx))
            } else {
                body(tx)
            }
        })
        .expect("sequential bodies never exhaust an unbounded policy")
}

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Len,
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        ((0u64..16), (0u64..1000)).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u64..16).prop_map(MapOp::Remove),
        (0u64..16).prop_map(MapOp::Get),
        Just(MapOp::Len),
    ]
}

fn check_map(stm: Engine, buckets: usize, ops: &[MapOp]) -> Result<(), TestCaseError> {
    let map: TMap<u64, u64> = TMap::new(&*stm, buckets);
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            MapOp::Insert(k, v) => {
                let old = run(&stm, |tx| map.insert(tx, &k, &v));
                prop_assert_eq!(old, model.insert(k, v));
            }
            MapOp::Remove(k) => {
                let old = run(&stm, |tx| map.remove(tx, &k));
                prop_assert_eq!(old, model.remove(&k));
            }
            MapOp::Get(k) => {
                let found = run(&stm, |tx| map.get(tx, &k));
                prop_assert_eq!(found, model.get(&k).copied());
                let present = run(&stm, |tx| map.contains_key(tx, &k));
                prop_assert_eq!(present, model.contains_key(&k));
            }
            MapOp::Len => {
                prop_assert_eq!(run(&stm, |tx| map.len(tx)), model.len());
                prop_assert_eq!(run(&stm, |tx| map.is_empty(tx)), model.is_empty());
            }
        }
    }
    // Final structural comparison via iteration.
    let mut contents = run(&stm, |tx| {
        let mut out = Vec::new();
        map.for_each(tx, |k, v| out.push((k, v)))?;
        Ok(out)
    });
    contents.sort_unstable();
    let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
    expected.sort_unstable();
    prop_assert_eq!(contents, expected);
    Ok(())
}

#[derive(Clone, Debug)]
enum DequeOp {
    PushBack(u64),
    PushFront(u64),
    PopBack,
    PopFront,
    Len,
}

fn deque_op() -> impl Strategy<Value = DequeOp> {
    prop_oneof![
        (0u64..1000).prop_map(DequeOp::PushBack),
        (0u64..1000).prop_map(DequeOp::PushFront),
        Just(DequeOp::PopBack),
        Just(DequeOp::PopFront),
        Just(DequeOp::Len),
    ]
}

/// The queue is exercised through the non-blocking `try_` entry points so
/// a sequential script can observe full/empty instead of parking.
fn check_queue(stm: Engine, capacity: usize, ops: &[DequeOp]) -> Result<(), TestCaseError> {
    let queue: TQueue<u64> = TQueue::new(&*stm, capacity);
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in ops {
        match *op {
            // The FIFO queue only has back-push/front-pop; map the other
            // two onto length checks so one strategy serves both rings.
            DequeOp::PushBack(v) | DequeOp::PushFront(v) => {
                let pushed = run(&stm, |tx| queue.try_push(tx, &v));
                prop_assert_eq!(pushed, model.len() < capacity);
                if pushed {
                    model.push_back(v);
                }
            }
            DequeOp::PopBack | DequeOp::PopFront => {
                let popped = run(&stm, |tx| queue.try_pop(tx));
                prop_assert_eq!(popped, model.pop_front());
            }
            DequeOp::Len => {
                prop_assert_eq!(run(&stm, |tx| queue.len(tx)), model.len());
            }
        }
    }
    prop_assert_eq!(run(&stm, |tx| queue.len(tx)), model.len());
    Ok(())
}

fn check_deque(stm: Engine, capacity: usize, ops: &[DequeOp]) -> Result<(), TestCaseError> {
    let deque: TDeque<u64> = TDeque::new(&*stm, capacity);
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in ops {
        match *op {
            DequeOp::PushBack(v) => {
                if model.len() < capacity {
                    run(&stm, |tx| deque.push_back(tx, &v));
                    model.push_back(v);
                }
            }
            DequeOp::PushFront(v) => {
                if model.len() < capacity {
                    run(&stm, |tx| deque.push_front(tx, &v));
                    model.push_front(v);
                }
            }
            DequeOp::PopBack => {
                let popped = run(&stm, |tx| deque.try_pop_back(tx));
                prop_assert_eq!(popped, model.pop_back());
            }
            DequeOp::PopFront => {
                let popped = run(&stm, |tx| deque.try_pop_front(tx));
                prop_assert_eq!(popped, model.pop_front());
            }
            DequeOp::Len => {
                prop_assert_eq!(run(&stm, |tx| deque.len(tx)), model.len());
                prop_assert_eq!(run(&stm, |tx| deque.is_empty(tx)), model.is_empty());
            }
        }
    }
    prop_assert_eq!(run(&stm, |tx| deque.len(tx)), model.len());
    Ok(())
}

#[derive(Clone, Debug)]
enum SetOp {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0u64..24).prop_map(SetOp::Insert),
        (0u64..24).prop_map(SetOp::Remove),
        (0u64..24).prop_map(SetOp::Contains),
    ]
}

fn check_set(stm: Engine, ops: &[SetOp]) -> Result<(), TestCaseError> {
    let set: TSet<u64> = TSet::new(&*stm, 8);
    let mut model: HashSet<u64> = HashSet::new();
    for op in ops {
        match *op {
            SetOp::Insert(v) => {
                prop_assert_eq!(run(&stm, |tx| set.insert(tx, &v)), model.insert(v));
            }
            SetOp::Remove(v) => {
                prop_assert_eq!(run(&stm, |tx| set.remove(tx, &v)), model.remove(&v));
            }
            SetOp::Contains(v) => {
                prop_assert_eq!(run(&stm, |tx| set.contains(tx, &v)), model.contains(&v));
            }
        }
    }
    prop_assert_eq!(run(&stm, |tx| set.len(tx)), model.len());
    Ok(())
}

fn engine(stm: impl DynStm + 'static) -> Engine {
    Engine {
        stm: Arc::new(stm),
        required_methods_only: false,
    }
}

fn lsa() -> Engine {
    engine(Stm::new(LsaStm::new(StmConfig::new(1))))
}

fn z() -> Engine {
    engine(Stm::new(ZStm::new(StmConfig::new(1))))
}

fn cs() -> Engine {
    engine(Stm::new(CsStm::with_vector_clock(StmConfig::new(1))))
}

fn certified_lsa() -> Engine {
    engine(Stm::new(CertifiedFactory::new(
        StmConfig::new(1),
        LsaStm::new,
    )))
}

fn through_required_methods_only(engine: Engine) -> Engine {
    Engine {
        required_methods_only: true,
        ..engine
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tmap_matches_hashmap_on_lsa(ops in proptest::collection::vec(map_op(), 1..60)) {
        check_map(lsa(), 4, &ops)?;
    }

    #[test]
    fn tmap_matches_hashmap_on_z(ops in proptest::collection::vec(map_op(), 1..60)) {
        check_map(z(), 4, &ops)?;
    }

    #[test]
    fn tmap_matches_hashmap_on_certified_lsa(ops in proptest::collection::vec(map_op(), 1..40)) {
        check_map(certified_lsa(), 4, &ops)?;
    }

    #[test]
    fn tmap_matches_hashmap_with_one_bucket(ops in proptest::collection::vec(map_op(), 1..60)) {
        // Maximum collision pressure: every key in one bucket exercises
        // the in-place splice/drain paths constantly.
        check_map(lsa(), 1, &ops)?;
    }

    #[test]
    fn tmap_matches_hashmap_through_the_required_methods_only(
        ops in proptest::collection::vec(map_op(), 1..60)
    ) {
        check_map(through_required_methods_only(lsa()), 2, &ops)?;
    }

    #[test]
    fn tqueue_matches_vecdeque_through_the_required_methods_only(
        ops in proptest::collection::vec(deque_op(), 1..60)
    ) {
        check_queue(through_required_methods_only(lsa()), 4, &ops)?;
    }

    #[test]
    fn tqueue_matches_vecdeque_on_lsa(ops in proptest::collection::vec(deque_op(), 1..60)) {
        check_queue(lsa(), 4, &ops)?;
    }

    #[test]
    fn tqueue_matches_vecdeque_on_cs(ops in proptest::collection::vec(deque_op(), 1..60)) {
        check_queue(cs(), 4, &ops)?;
    }

    #[test]
    fn tdeque_matches_vecdeque_on_lsa(ops in proptest::collection::vec(deque_op(), 1..60)) {
        check_deque(lsa(), 4, &ops)?;
    }

    #[test]
    fn tdeque_matches_vecdeque_on_z(ops in proptest::collection::vec(deque_op(), 1..60)) {
        check_deque(z(), 4, &ops)?;
    }

    #[test]
    fn tset_matches_hashset_on_lsa(ops in proptest::collection::vec(set_op(), 1..60)) {
        check_set(lsa(), &ops)?;
    }

    #[test]
    fn tset_matches_hashset_on_certified_lsa(ops in proptest::collection::vec(set_op(), 1..40)) {
        check_set(certified_lsa(), &ops)?;
    }

    #[test]
    fn tset_matches_hashset_on_z(ops in proptest::collection::vec(set_op(), 1..60)) {
        check_set(z(), &ops)?;
    }

    #[test]
    fn tset_matches_hashset_on_cs(ops in proptest::collection::vec(set_op(), 1..60)) {
        check_set(cs(), &ops)?;
    }
}
