use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Runs `f` on its own thread and returns its result, or panics once
/// `limit` has passed without one — so a test that drives worker threads
/// fails with its name within seconds when they deadlock or livelock,
/// instead of hanging until some outer timeout kills the process without
/// output. `name` should say which test and which engine (it is also the
/// thread's name). A panic inside `f` is re-raised on the caller.
///
/// After a timeout the thread running `f` cannot be stopped and is left
/// behind; the caller's panic ends the test process soon after.
///
/// # Panics
///
/// Panics with `name`, the elapsed time and the limit when `f` does not
/// finish in time.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use zstm_util::run_with_deadline;
///
/// let sum = run_with_deadline("doc example [no engine]", Duration::from_secs(5), || 1 + 1);
/// assert_eq!(sum, 2);
/// ```
pub fn run_with_deadline<T: Send + 'static>(
    name: &str,
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, result) = mpsc::channel();
    let started = Instant::now();
    let runner = thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            // The receiver only goes away after a timeout, when nobody
            // wants the result any more.
            let _ = done.send(f());
        })
        .expect("spawn the deadline-guarded thread");
    match result.recv_timeout(limit) {
        Ok(value) => {
            runner.join().expect("the runner sent its result");
            value
        }
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(payload) => panic::resume_unwind(payload),
            Ok(()) => unreachable!("the runner ended without a result or a panic"),
        },
        Err(RecvTimeoutError::Timeout) => panic!(
            "{name}: no result after {:.1?} (deadline {limit:?}): its threads are hung",
            started.elapsed()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_the_result_in_time() {
        let got = run_with_deadline("in time", Duration::from_secs(5), || 7);
        assert_eq!(got, 7);
    }

    #[test]
    #[should_panic(expected = "assertion inside")]
    fn reraises_a_panic_of_the_body() {
        run_with_deadline("panics", Duration::from_secs(5), || {
            panic!("assertion inside");
        });
    }

    #[test]
    #[should_panic(expected = "hang [engine x]: no result after")]
    fn names_the_test_when_the_body_hangs() {
        // Held open until the test is over, so the body blocks for good.
        let (_never, block) = mpsc::channel::<()>();
        run_with_deadline("hang [engine x]", Duration::from_millis(50), move || {
            let _ = block.recv_timeout(Duration::from_secs(2));
        });
    }
}
