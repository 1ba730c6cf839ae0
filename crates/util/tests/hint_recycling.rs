//! The pin slots a reclaim scans follow the threads alive, not the threads
//! ever started, and a thread's own pin never holds its own retirements
//! back. One test, in a process of its own: the scanned prefix is global
//! and grows with every thread that is pinned at the same time as another,
//! and no other thread may be pinned while the first part runs.

use std::cell::Cell;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use zstm_util::{limbo_len, pin, run_with_deadline, scanned_prefix, ArcCell, Strong};

/// Reads `cell` once on a thread of its own.
fn read_on_a_fresh_thread(cell: &Arc<ArcCell<u64>>) {
    let cell = Arc::clone(cell);
    let seen = std::thread::spawn(move || cell.read(&pin(), |value| *value));
    assert_eq!(seen.join().expect("reader panicked"), 7);
}

/// Reads its cell when the thread's locals are destroyed.
struct ReadsAtExit(Cell<Option<Arc<ArcCell<u64>>>>);

impl Drop for ReadsAtExit {
    fn drop(&mut self) {
        let cell = self.0.take().expect("armed by the thread");
        assert_eq!(cell.read(&pin(), |value| *value), 7);
        cell.store(Strong::new(7));
    }
}

thread_local! {
    static AT_EXIT: ReadsAtExit = const { ReadsAtExit(Cell::new(None)) };
}

/// Live threads that hold a pin at once: more than there are own slots.
const CROWD: usize = 80;

/// Pin slots a live thread can own, one each.
const OWN_SLOTS: usize = 64;

#[test]
fn a_thread_hands_its_hint_back_when_it_exits() {
    run_with_deadline(
        "hint recycling [no engine]",
        Duration::from_secs(30),
        || {
            let cell = Arc::new(ArcCell::new(Strong::new(7u64)));
            // Alone in the process: what this thread retires under its own
            // pin is reclaimable at once, as a transaction's promotions
            // are — reused in place, or freed without a limbo.
            {
                let pin = pin();
                assert_eq!(cell.read(&pin, |value| *value), 7);
                let retired = cell.swap(Strong::new(7));
                assert!(retired.reclaim().is_ok(), "held back by its own pin");
                cell.store(Strong::new(7));
                assert_eq!(limbo_len(), 0);
            }
            read_on_a_fresh_thread(&cell);
            // This thread and one more: as many as are ever alive at once.
            let two_threads = scanned_prefix();
            for _ in 0..200 {
                read_on_a_fresh_thread(&cell);
            }
            assert_eq!(scanned_prefix(), two_threads, "one hint, used 201 times");

            // A local registered before the hint is destroyed after it: its
            // pin finds the hint gone and claims the first shared slot,
            // which every reclaim scans from then on — and no slot past it.
            let at_exit = Arc::clone(&cell);
            std::thread::spawn(move || {
                AT_EXIT.with(|local| local.0.set(Some(Arc::clone(&at_exit))));
                assert_eq!(at_exit.read(&pin(), |value| *value), 7);
            })
            .join()
            .expect("a read during thread teardown panicked");
            let one_shared = scanned_prefix();
            assert_eq!(
                one_shared,
                OWN_SLOTS + 1,
                "the first shared slot is scanned"
            );

            // More threads pinned at once than there are own slots: the
            // ones beyond claim shared slots, pin by pin, and the scan grows
            // by as many — this thread holds an own slot too.
            let all_pinned = Arc::new(Barrier::new(CROWD));
            let crowd: Vec<_> = (0..CROWD)
                .map(|_| {
                    let (cell, all_pinned) = (Arc::clone(&cell), Arc::clone(&all_pinned));
                    std::thread::spawn(move || {
                        let pin = pin();
                        all_pinned.wait();
                        cell.read(&pin, |value| *value)
                    })
                })
                .collect();
            for reader in crowd {
                assert_eq!(reader.join().expect("reader panicked"), 7);
            }
            assert_eq!(scanned_prefix(), CROWD + 1, "one slot per pinned thread");
        },
    );
}
