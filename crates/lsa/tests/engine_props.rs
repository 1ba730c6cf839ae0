//! Property tests for the versioned-object engine: the version list
//! invariants and the snapshot-read semantics hold under arbitrary
//! committed-write sequences.

use std::sync::Arc;

use proptest::prelude::*;
use zstm_core::{
    CmPolicy, NullSink, StmConfig, ThreadId, TmFactory, TmTx, TxKind, TxShared, WriteEntry,
};
use zstm_lsa::engine::{DynObject, VarCore};
use zstm_lsa::LsaStm;
use zstm_util::Strong;

include!("support/pinned_reader.rs");

/// Commits `value` onto `core` at commit time `ct` through the real
/// reservation/promotion protocol.
fn commit_write(core: &VarCore<i64>, value: i64, ct: u64) {
    let me = Strong::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0));
    let cm = CmPolicy::Aggressive;
    core.reserve(&me, value, cm).expect("reserve");
    assert!(me.begin_commit());
    me.set_commit_ct(ct);
    me.finish_commit();
    core.promote(&me);
}

proptest! {
    /// After any sequence of writes at strictly increasing commit times,
    /// `read_at(t)` returns exactly the value that was current at `t`.
    #[test]
    fn read_at_matches_reference_model(
        values in proptest::collection::vec(-100i64..100, 1..8),
        gaps in proptest::collection::vec(1u64..5, 1..8),
        probe in 0u64..40,
    ) {
        let n = values.len().min(gaps.len());
        let core = VarCore::new(0i64, 64, Arc::new(NullSink));
        // Reference model: (ct, value) pairs.
        let mut model: Vec<(u64, i64)> = vec![(0, 0)];
        let mut ct = 0;
        with_a_reader(|| {
            for i in 0..n {
                ct += gaps[i];
                commit_write(&core, values[i], ct);
                model.push((ct, values[i]));
            }
        });
        let expected = model
            .iter()
            .rev()
            .find(|(t, _)| *t <= probe)
            .map(|(_, v)| *v);
        let got = core.read_at(&zstm_util::pin(), None, probe, i64::clone).map(|hit| hit.value);
        prop_assert_eq!(got, expected);
    }

    /// The bounded history retains the newest versions and never more
    /// than the configured maximum.
    #[test]
    fn history_is_bounded_and_suffix(
        count in 1usize..20,
        max_versions in 1usize..6,
    ) {
        let core = VarCore::new(0i64, max_versions, Arc::new(NullSink));
        let versions = with_a_reader(|| {
            for i in 0..count {
                commit_write(&core, i as i64, (i as u64 + 1) * 10);
            }
            core.versions_snapshot()
        });
        prop_assert!(versions.len() <= max_versions);
        // Sequence numbers are dense and end at `count`.
        let seqs: Vec<u64> = versions.iter().map(|v| v.seq).collect();
        let last = *seqs.last().expect("non-empty");
        prop_assert_eq!(last, count as u64);
        for pair in seqs.windows(2) {
            prop_assert_eq!(pair[1], pair[0] + 1);
        }
        // Commit times strictly increase.
        for pair in versions.windows(2) {
            prop_assert!(pair[0].ct < pair[1].ct);
        }
    }

    /// `validate_read(seq, t)` agrees with the reference definition:
    /// valid iff no successor of `seq` has a commit time <= t — modulo
    /// pruning, where the engine must err towards "invalid".
    #[test]
    fn validate_read_is_sound(
        count in 1usize..10,
        seq in 0u64..10,
        probe in 0u64..120,
    ) {
        let core = VarCore::new(0i64, 4, Arc::new(NullSink));
        for i in 0..count {
            commit_write(&core, i as i64, (i as u64 + 1) * 10);
        }
        let me = Strong::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0));
        let verdict = core.validate_read(&me, seq, probe);
        let succ_ct = (seq as usize) < count; // successor exists iff seq < count
        if succ_ct {
            let succ_time = (seq + 1) * 10;
            if succ_time <= probe {
                prop_assert!(!verdict, "successor at {succ_time} <= {probe} must fail");
            }
            // If the successor is retained and later than probe, the
            // verdict must be positive; if pruned, a negative verdict is
            // allowed (conservative).
            let oldest = core.versions_snapshot()[0].seq;
            if succ_time > probe && seq + 1 >= oldest {
                prop_assert!(verdict, "retained later successor must pass");
            }
        } else {
            prop_assert!(verdict, "no successor: always valid");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential transactions through the full LSA stack behave like a
    /// plain variable (a model-based test of the whole read/write/commit
    /// pipeline).
    #[test]
    fn lsa_sequential_matches_model(ops in proptest::collection::vec((0usize..4, -50i64..50, any::<bool>()), 1..40)) {
        let stm = Arc::new(LsaStm::new(StmConfig::new(1)));
        let vars: Vec<_> = (0..4).map(|_| stm.new_var(0i64)).collect();
        let mut model = [0i64; 4];
        let mut thread = stm.register_thread();
        for (index, value, is_write) in ops {
            let observed = zstm_core::atomically(
                &mut thread,
                TxKind::Short,
                &zstm_core::RetryPolicy::default(),
                |tx| {
                    if is_write {
                        tx.write(&vars[index], value)?;
                    }
                    tx.read(&vars[index])
                },
            )
            .expect("sequential commit");
            if is_write {
                model[index] = value;
            }
            prop_assert_eq!(observed, model[index]);
        }
    }
}
