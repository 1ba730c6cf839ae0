/// Serialises the tests of one binary that hold a pin for a while or count
/// on no thread being pinned: pins are process-wide, and a pinned thread
/// that does not read holds back every other test's reclaims and keeps
/// every value a history displaces meanwhile.
fn one_pinning_test_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static PINNING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    PINNING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `body` while another thread holds a pin it took before `body`
/// began: an attempt running through every commit `body` makes, for which
/// a version history keeps the values those commits displace
/// (`zstm_lsa::engine`'s module docs). With no attempt running, a history
/// keeps no value behind the newest version.
fn with_a_reader<R>(body: impl FnOnce() -> R) -> R {
    let _alone = one_pinning_test_at_a_time();
    let (pinned, is_pinned) = std::sync::mpsc::channel();
    let (done, is_done) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _pin = zstm_util::pin();
            pinned.send(()).expect("the test waits for the pin");
            // Until `done` drops — after `body`, or as it unwinds — it
            // catches its pin up now and then, as a reading attempt does
            // at its next read: its outermost pin stays where it was, and
            // a full history's reclaims need not wait the reader out.
            let tick = std::time::Duration::from_micros(100);
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = is_done.recv_timeout(tick) {
                zstm_util::Backoff::new().spin();
            }
        });
        is_pinned.recv().expect("the reader pinned");
        let result = body();
        drop(done);
        result
    })
}
