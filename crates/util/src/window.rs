use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// One participant's end of a [`run_window`] call.
pub struct Window<'a> {
    rendezvous: &'a Barrier,
    closed: &'a AtomicBool,
    arrived: Cell<bool>,
}

impl Window<'_> {
    /// A worker's loop condition. Its first call is the start rendezvous:
    /// it returns when every worker has finished its set-up, which is the
    /// moment the window opens.
    pub fn is_open(&self) -> bool {
        if !self.arrived.replace(true) {
            self.rendezvous.wait();
        }
        !self.closed.load(Ordering::Relaxed)
    }
}

/// Whoever unwinds, worker or driver, closes the window for all, and a
/// worker that ends before the rendezvous still arrives: nobody is left
/// spinning or waiting.
impl Drop for Window<'_> {
    fn drop(&mut self) {
        self.closed.fetch_or(thread::panicking(), Ordering::Relaxed);
        self.is_open();
    }
}

/// The fixed-duration measurement every workload driver shares: runs
/// `work(index, window)` on `workers` scoped threads (so it borrows the
/// caller's state), closes the window `length` after it opened and
/// returns the workers' results in index order with the time it was open.
/// A worker's panic is re-raised here.
pub fn run_window<R: Send>(
    workers: usize,
    length: Duration,
    work: impl Fn(usize, &Window<'_>) -> R + Sync,
) -> (Vec<R>, Duration) {
    let (rendezvous, closed) = (Barrier::new(workers + 1), AtomicBool::new(false));
    let window = || Window {
        rendezvous: &rendezvous,
        closed: &closed,
        arrived: Cell::new(false),
    };
    let (work, window) = (&work, &window);
    thread::scope(|scope| {
        let spawn = |index| scope.spawn(move || work(index, &window()));
        let handles: Vec<_> = (0..workers).map(spawn).collect();
        let driver = window();
        driver.is_open();
        let opened = Instant::now();
        thread::sleep(length);
        closed.store(true, Ordering::Relaxed);
        let elapsed = opened.elapsed();
        // Joined by hand: the scope's end waits for a worker's closure, a
        // join also for its thread-locals (a cached context lease).
        let results = handles
            .into_iter()
            .map(|worker| worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
        (results.collect(), elapsed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_with_deadline;

    #[test]
    fn returns_results_in_index_order_after_the_window() {
        let length = Duration::from_millis(20);
        let (results, elapsed) = run_window(3, length, |index, window| {
            let mut spins = 0u64;
            while window.is_open() {
                spins += 1;
            }
            (index, spins)
        });
        assert!(elapsed >= length);
        assert_eq!(
            results.iter().map(|&(index, _)| index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert!(results.iter().all(|&(_, spins)| spins > 0));
    }

    #[test]
    #[should_panic(expected = "worker 1 gave up")]
    fn a_panicking_worker_fails_the_call_and_frees_its_siblings() {
        // A second of window: the siblings leave it when worker 1 unwinds,
        // not when it ends. Were they left spinning, the scope could not
        // end and the deadline would name the test.
        run_with_deadline("run_window panic", Duration::from_secs(10), || {
            run_window(3, Duration::from_secs(1), |index, window| {
                while window.is_open() {
                    if index == 1 {
                        panic!("worker 1 gave up");
                    }
                }
            })
        });
    }

    #[test]
    #[should_panic(expected = "set-up failed")]
    fn a_panic_before_start_does_not_strand_the_rendezvous() {
        run_with_deadline("run_window set-up", Duration::from_secs(10), || {
            run_window(2, Duration::from_millis(5), |index, window| {
                if index == 0 {
                    panic!("set-up failed");
                }
                while window.is_open() {}
            })
        });
    }
}
