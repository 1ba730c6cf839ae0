//! A transaction's read and write sets take no handle of a variable, and a
//! variable outlives the attempts that hold it in their sets — on every
//! engine, native and certified.
//!
//! The sets hold `zstm_util::Held` entries: uncounted pointers, valid while
//! the attempt's thread stays inside the outermost pin it made them under.
//! A variable's last handle therefore may drop while an attempt still holds
//! it — on another thread, or in the attempt's own body — and its
//! allocation must then wait until that attempt unpins (`zstm_util`'s
//! `arc_cell` module docs, *A variable outlives the attempts that saw it*).
//!
//! Each test here counts when a variable is freed, by the clones of a
//! `Canary` value: the variable's versions, its reservation and a buffered
//! write each hold one. A free that comes too early is a read of freed
//! memory only AddressSanitizer is sure to see, so CI also runs this file
//! under ASan and with `--release`.

use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use zstm::core::{TmFactory, TmThread, TmTx};
use zstm::prelude::*;
use zstm::util::run_with_deadline;

/// A value that counts its clones: `Arc::strong_count` of the token.
#[derive(Clone)]
struct Canary(#[allow(dead_code)] Arc<()>);

/// The tests of this file one at a time: most watch when a variable is
/// freed, and a thread pinned by a test running beside would hold the free
/// back and hide an early one.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Panics unless `token` still has `held` clones, leaking `tx` first: its
/// sets would point at freed memory, and its rollback would look.
fn assert_alive<Tx>(label: &str, token: &Arc<()>, held: usize, tx: Tx) -> Tx {
    if Arc::strong_count(token) != held {
        std::mem::forget(tx);
        panic!("{label}: freed under the attempt that holds it");
    }
    tx
}

/// Pins and unpins the calling thread until `token` has `expected` clones
/// left (an unpin drains the thread's limbo and the orphans), or panics
/// after a few seconds.
fn await_clones(label: &str, token: &Arc<()>, expected: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while Arc::strong_count(token) > expected {
        assert!(
            std::time::Instant::now() < deadline,
            "{label}: the variable was never freed ({} clones left)",
            Arc::strong_count(token)
        );
        drop(zstm::util::pin());
        std::thread::yield_now();
    }
    assert_eq!(Arc::strong_count(token), expected, "{label}");
}

/// The exact oracle: inside a transaction that read and wrote `x`, short
/// or long, `x` has as many handles as before it. Reverting any engine's
/// read set or write set to cloning the variable fails it.
fn sets_take_no_handle<F: TmFactory>(label: &str, stm: &Arc<F>) {
    let _alone = alone();
    let x = stm.new_var(0i64);
    let mut thread = stm.register_thread();
    let before = F::var_handles(&x);
    for kind in [TxKind::Short, TxKind::Long] {
        let mut tx = thread.begin(kind);
        let v = tx.read(&x).expect("read");
        tx.write(&x, v + 1).expect("write");
        let _ = tx.read(&x).expect("read back");
        assert_eq!(
            F::var_handles(&x),
            before,
            "{label}, {kind:?}: a set took a handle"
        );
        tx.commit().expect("commit");
    }
    assert_eq!(F::var_handles(&x), before, "{label}");
}

/// (a) A variable whose last handle drops on another thread, while an
/// attempt holds it in its read and write sets, stays alive until that
/// attempt ends — even once the attempt's pin caught up past the drop — and
/// is freed after it.
///
/// Mutation it catches: a variable freed by the catch-up pin word instead
/// of the outer word (the dropper's exit drains its deferral after the
/// holder caught up), or freed at its last drop whoever is pinned.
fn outlives_a_last_drop_on_another_thread<F: TmFactory>(label: &str, stm: &Arc<F>) {
    let _alone = alone();
    let token = Arc::new(());
    let x = stm.new_var(Canary(Arc::clone(&token)));
    let y = stm.new_var(Canary(Arc::clone(&token)));
    let mut thread = stm.register_thread();
    let mut tx = thread.begin(TxKind::Short);
    drop(tx.read(&x).expect("read"));
    tx.write(&x, Canary(Arc::clone(&token))).expect("write");
    let held = Arc::strong_count(&token);

    let (dropped, go) = (mpsc::channel(), mpsc::channel::<()>());
    let dropper = std::thread::spawn(move || {
        drop(x);
        dropped.0.send(()).expect("the holder waits");
        // Exiting drains this thread's limbo once more, then orphans it.
        go.1.recv().expect("the holder says when");
    });
    dropped.1.recv().expect("the dropper dropped");
    // The failed free raised the epoch: this read's window catches the
    // holder's pin word up past the drop.
    drop(tx.read(&y).expect("read"));
    go.0.send(()).expect("the dropper waits");
    dropper.join().expect("the dropper panicked");
    let tx = assert_alive(label, &token, held, tx);
    tx.commit().expect("the attempt commits what it holds");
    drop(y);
    await_clones(label, &token, 1);
}

/// (b) A body that drops the last handle of a variable it read and wrote
/// still commits the write, and the variable is freed once the attempt
/// ends.
///
/// Mutation it catches: a last drop that skips the dropping thread's own
/// outer word, as a version's reclaim skips its own pin.
fn outlives_a_last_drop_in_its_own_body<F: TmFactory>(label: &str, stm: &Arc<F>) {
    let _alone = alone();
    let token = Arc::new(());
    let x = stm.new_var(Canary(Arc::clone(&token)));
    let mut thread = stm.register_thread();
    let mut tx = thread.begin(TxKind::Short);
    drop(tx.read(&x).expect("read"));
    tx.write(&x, Canary(Arc::clone(&token))).expect("write");
    let held = Arc::strong_count(&token);
    drop(x);
    let tx = assert_alive(label, &token, held, tx);
    tx.commit().expect("the write commits");
    assert_eq!(thread.stats().total_commits(), 1, "{label}");
    await_clones(label, &token, 1);
}

macro_rules! engine_tests {
    ($($engine:ident: $label:literal, $build:expr;)*) => {$(
        mod $engine {
            use super::*;

            fn native() -> Arc<impl TmFactory> {
                Arc::new($build(StmConfig::new(2)))
            }

            fn certified() -> Arc<impl TmFactory> {
                Arc::new(CertifiedFactory::new(StmConfig::new(2), $build))
            }

            /// Runs `check` on the native and the certified engine, each
            /// under a deadline.
            fn both(check: fn(&'static str, bool)) {
                for wrapped in [false, true] {
                    let label = if wrapped { concat!("certified-", $label) } else { $label };
                    let deadline = Duration::from_secs(30);
                    run_with_deadline(label, deadline, move || check(label, wrapped));
                }
            }

            #[test]
            fn sets_take_no_handle_of_a_variable() {
                both(|label, wrapped| match wrapped {
                    false => sets_take_no_handle(label, &native()),
                    true => sets_take_no_handle(label, &certified()),
                });
            }

            #[test]
            fn a_variable_outlives_a_last_drop_on_another_thread() {
                both(|label, wrapped| match wrapped {
                    false => outlives_a_last_drop_on_another_thread(label, &native()),
                    true => outlives_a_last_drop_on_another_thread(label, &certified()),
                });
            }

            #[test]
            fn a_variable_outlives_a_last_drop_in_its_own_body() {
                both(|label, wrapped| match wrapped {
                    false => outlives_a_last_drop_in_its_own_body(label, &native()),
                    true => outlives_a_last_drop_in_its_own_body(label, &certified()),
                });
            }
        }
    )*};
}

engine_tests! {
    lsa: "lsa", LsaStm::new;
    tl2: "tl2", Tl2Stm::new;
    cs: "cs", CsStm::with_vector_clock;
    s_stm: "s-stm", SStm::with_vector_clock;
    z_stm: "z-stm", ZStm::new;
}
