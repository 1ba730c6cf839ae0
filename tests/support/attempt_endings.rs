// Every way an attempt can end, driven through the SPI on any engine.
// `include!`d by each engine crate's unit tests, which look at the thread's
// private read and write sets after every ending (`assert_sets_idle`), and
// by `tests/ghost_attempts.rs`, which looks at events and counters.

/// Ends an attempt of `thread` in each of the four ways — committed,
/// aborted at validation (Figure 3's schedule: `rival` overwrites what the
/// attempt read and writes what it reads next), rolled back, dropped raw by
/// a panicking body — each holding a read and a reservation when it ends,
/// and then commits one read of all of `vars` (at least 3). `after` runs
/// with the ending's name once the attempt is gone.
fn drive_every_ending<F: zstm_core::TmFactory>(
    thread: &mut F::Thread,
    rival: &mut F::Thread,
    vars: &[F::Var<i64>],
    mut after: impl FnMut(&str, &F::Thread),
) {
    use zstm_core::{AbortReason, TmThread, TmTx, TxKind};
    let (x, y, z) = (&vars[0], &vars[1], &vars[2]);

    let mut tx = thread.begin(TxKind::Short);
    tx.read(x).expect("read");
    tx.write(z, 1).expect("write");
    tx.commit().expect("commit");
    after("committed", thread);

    let mut tx = thread.begin(TxKind::Short);
    tx.read(x).expect("read");
    let mut overwriter = rival.begin(TxKind::Short);
    overwriter.write(x, 1).expect("rival write");
    overwriter.write(y, 1).expect("rival write");
    overwriter.commit().expect("rival commit");
    match tx.read(y).and_then(|_| tx.write(z, 2)) {
        Ok(()) => assert!(tx.commit().is_err(), "a stale read must fail validation"),
        // A single-version engine refuses the second read already.
        Err(abort) => tx.rollback(abort.reason()),
    }
    after("aborted at validation", thread);

    let mut tx = thread.begin(TxKind::Short);
    tx.read(x).expect("read");
    tx.write(z, 3).expect("write");
    tx.rollback(AbortReason::Explicit);
    after("rolled back", thread);

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut tx = thread.begin(TxKind::Short);
        tx.read(x).expect("read");
        tx.write(z, 4).expect("write");
        // Unwinds through the raw transaction, without the panic hook's
        // message.
        std::panic::resume_unwind(Box::new("the body blows up"));
    }));
    assert!(unwound.is_err());
    after("dropped raw", thread);

    // One scan of a large heap does not leave its read set behind.
    let mut tx = thread.begin(TxKind::Short);
    for var in vars {
        tx.read(var).expect("read");
    }
    tx.commit().expect("commit");
    after("a long read", thread);
}

/// An idle thread pins no variable — its sets hold no entry — and keeps
/// their buffers for the next transaction, up to `RETAINED_SET_CAPACITY`
/// entries each.
#[allow(dead_code)] // `tests/ghost_attempts.rs` sees no engine's sets
fn assert_sets_idle(ending: &str, [len, capacity]: [(usize, usize); 2]) {
    assert_eq!(len, (0, 0), "entries left after: {ending}");
    let retained = zstm_core::RETAINED_SET_CAPACITY;
    assert!(
        (1..=retained).contains(&capacity.0) && (1..=retained).contains(&capacity.1),
        "capacity {capacity:?} kept after: {ending}"
    );
}
