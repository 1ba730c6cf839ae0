//! The hazard slots a writer scans follow the threads alive, not the
//! threads ever started. One test, in a process of its own: the scanned
//! prefix is global and grows with every thread that is inside `ArcCell`
//! at the same time as another.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use zstm_util::{run_with_deadline, scanned_prefix, ArcCell};

/// Reads `cell` once on a thread of its own.
fn read_on_a_fresh_thread(cell: &Arc<ArcCell<u64>>) {
    let cell = Arc::clone(cell);
    let seen = std::thread::spawn(move || cell.read(|value| *value));
    assert_eq!(seen.join().expect("reader panicked"), 7);
}

/// Reads its cell when the thread's locals are destroyed.
struct ReadsAtExit(Cell<Option<Arc<ArcCell<u64>>>>);

impl Drop for ReadsAtExit {
    fn drop(&mut self) {
        let cell = self.0.take().expect("armed by the thread");
        assert_eq!(cell.read(|value| *value), 7);
        assert_eq!(*cell.swap(Arc::new(7)), 7);
    }
}

thread_local! {
    static AT_EXIT: ReadsAtExit = const { ReadsAtExit(Cell::new(None)) };
}

#[test]
fn a_thread_hands_its_hint_back_when_it_exits() {
    run_with_deadline(
        "hint recycling [no engine]",
        Duration::from_secs(30),
        || {
            let cell = Arc::new(ArcCell::new(Arc::new(7u64)));
            assert_eq!(cell.read(|value| *value), 7);
            read_on_a_fresh_thread(&cell);
            // This thread and one more: as many as are ever alive at once.
            let two_threads = scanned_prefix();
            for _ in 0..200 {
                read_on_a_fresh_thread(&cell);
            }
            assert_eq!(scanned_prefix(), two_threads, "one hint, used 201 times");

            // A local registered before the hint is destroyed after it:
            // its read finds the hint gone and probes from slot 0.
            let at_exit = Arc::clone(&cell);
            std::thread::spawn(move || {
                AT_EXIT.with(|local| local.0.set(Some(Arc::clone(&at_exit))));
                assert_eq!(at_exit.read(|value| *value), 7);
            })
            .join()
            .expect("a read during thread teardown panicked");
            assert_eq!(scanned_prefix(), two_threads);
        },
    );
}
