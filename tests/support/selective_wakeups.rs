// What a blocked atomic block parks on, on any engine through either
// driver: the channels of what its round read. `include!`d by
// `tests/retry_blocking.rs` (the blocks run on OS threads through
// `Stm::atomically`) and `tests/async_retry.rs` (tasks on a two-worker pool
// through `Stm::atomically_async`); both wait in one slab, so
// `registered_wakers()` counts either kind. Nothing but a wake ends a park:
// every scenario runs under the caller's deadline, and a lost wakeup is a
// hang it names.

mod selective {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use zstm::prelude::*;
    use zstm::util::exec::ThreadPool;

    type Body<F, R> = Box<dyn FnMut(&mut Tx<'_, F>) -> Result<R, Abort> + Send>;

    /// Where a scenario's blocked blocks run.
    pub struct Blocks {
        pool: Option<ThreadPool>,
    }

    /// Joins one block started by [`Blocks::spawn`].
    type Join<R> = Box<dyn FnOnce() -> R>;

    impl Blocks {
        pub fn new(asynchronous: bool) -> Self {
            Self {
                pool: asynchronous.then(|| ThreadPool::new(2)),
            }
        }

        /// Starts `first` (falling through to `second`, if any) as one
        /// atomic block elsewhere.
        fn spawn<F: TmFactory, R: Send + 'static>(
            &self,
            stm: &Stm<F>,
            mut first: Body<F, R>,
            second: Option<Body<F, R>>,
        ) -> Join<R> {
            let stm = stm.clone();
            match (&self.pool, second) {
                (Some(pool), None) => {
                    let task = pool
                        .spawn(async move { stm.atomically_async(TxKind::Short, first).await });
                    Box::new(move || task.join())
                }
                (Some(pool), Some(second)) => {
                    let task = pool.spawn(async move {
                        stm.atomically_or_else_async(TxKind::Short, first, second)
                            .await
                    });
                    Box::new(move || task.join())
                }
                (None, None) => {
                    let thread =
                        std::thread::spawn(move || stm.atomically(TxKind::Short, &mut first));
                    Box::new(move || thread.join().expect("blocked thread finished"))
                }
                (None, Some(mut second)) => {
                    let thread = std::thread::spawn(move || {
                        stm.atomically_or_else(TxKind::Short, &mut first, &mut second)
                    });
                    Box::new(move || thread.join().expect("blocked thread finished"))
                }
            }
        }
    }

    /// A body that counts its runs, reads `var` and retries while it is 0.
    fn gate<F: TmFactory>(var: &TVar<F, i64>, runs: &Arc<AtomicU64>) -> Body<F, i64> {
        let (var, runs) = (var.clone(), Arc::clone(runs));
        Box::new(move |tx| {
            runs.fetch_add(1, Ordering::SeqCst);
            match tx.read(&var)? {
                0 => tx.retry(),
                open => Ok(open),
            }
        })
    }

    fn counter() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    fn channel<F: TmFactory>(var: &TVar<F, i64>) -> u64 {
        zstm::api::Notifier::channel(F::var_id(var.raw()))
    }

    /// A fresh variable on a channel none of `others` is on.
    fn apart<F: TmFactory>(stm: &Stm<F>, others: &[&TVar<F, i64>]) -> TVar<F, i64> {
        loop {
            let var = stm.new_tvar(0i64);
            if others.iter().all(|other| channel(other) != channel(&var)) {
                return var;
            }
        }
    }

    fn set<F: TmFactory>(stm: &Stm<F>, var: &TVar<F, i64>, value: i64) {
        stm.atomically(TxKind::Short, |tx| tx.write(var, value));
    }

    /// Spins until `condition` holds (the caller's deadline bounds it).
    fn until(condition: impl Fn() -> bool) {
        while !condition() {
            std::thread::yield_now();
        }
    }

    /// Spins until `blocks` registrations wait in `stm`'s notifier.
    fn parked<F: TmFactory>(stm: &Stm<F>, blocks: usize) {
        until(|| stm.notifier().registered_wakers() == blocks);
    }

    /// Time enough for a block that was woken by mistake to re-run.
    fn settle() {
        std::thread::sleep(Duration::from_millis(20));
    }

    /// Two waiters on disjoint variables: a commit to one re-runs exactly
    /// that body.
    fn disjoint_waiters<F: TmFactory>(name: &str, stm: &Stm<F>, blocks: &Blocks) {
        let a = stm.new_tvar(0i64);
        let b = apart(stm, &[&a]);
        let (runs_a, runs_b) = (counter(), counter());
        let on_a = blocks.spawn(stm, gate(&a, &runs_a), None);
        let on_b = blocks.spawn(stm, gate(&b, &runs_b), None);
        parked(stm, 2);
        set(stm, &a, 7);
        assert_eq!(on_a(), 7, "{name}: the waiter on a sees the write");
        settle();
        let runs = |runs: &AtomicU64| runs.load(Ordering::SeqCst);
        assert_eq!((runs(&runs_a), runs(&runs_b)), (2, 1), "{name}: only a's");
        assert_eq!(stm.notifier().registered_wakers(), 1, "{name}: b's waits");
        set(stm, &b, 8);
        assert_eq!(on_b(), 8, "{name}");
        assert_eq!((runs(&runs_a), runs(&runs_b)), (2, 2), "{name}");
    }

    /// `or_else` over alternatives that read `a` and `b`: woken by either,
    /// not by `c`.
    fn or_else_waits_on_both<F: TmFactory>(name: &str, stm: &Stm<F>, blocks: &Blocks) {
        for written in 0..2 {
            let a = stm.new_tvar(0i64);
            let b = apart(stm, &[&a]);
            let c = apart(stm, &[&a, &b]);
            let runs = counter();
            let waiter = blocks.spawn(stm, gate(&a, &runs), Some(gate(&b, &runs)));
            parked(stm, 1);
            set(stm, &c, 1);
            settle();
            assert_eq!(runs.load(Ordering::SeqCst), 2, "{name}: c is not read");
            assert_eq!(stm.notifier().registered_wakers(), 1, "{name}");
            set(stm, [&a, &b][written], 5);
            assert_eq!(waiter(), 5, "{name}: alternative {written} woke it");
        }
    }

    /// A body that retries without reading is woken by any commit.
    fn a_bare_retry_waits_for_anything<F: TmFactory>(name: &str, stm: &Stm<F>, blocks: &Blocks) {
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let flag = Arc::clone(&flag);
            let body: Body<F, &str> = Box::new(move |tx| match flag.load(Ordering::SeqCst) {
                false => tx.retry(),
                true => Ok("saw the flag"),
            });
            blocks.spawn(stm, body, None)
        };
        parked(stm, 1);
        flag.store(true, Ordering::SeqCst);
        set(stm, &stm.new_tvar(0i64), 1);
        assert_eq!(waiter(), "saw the flag", "{name}");
    }

    /// `Tx::raw()` hides what is read and written: its users wake, and are
    /// woken by, everyone.
    fn raw_users_wake_and_are_woken_by_everyone<F: TmFactory>(
        name: &str,
        stm: &Stm<F>,
        blocks: &Blocks,
    ) {
        let hidden = stm.new_tvar(0i64);
        let seen = apart(stm, &[&hidden]);
        let other = apart(stm, &[&hidden, &seen]);
        let (runs_raw, runs_typed) = (counter(), counter());
        let raw_reader = {
            let (hidden, runs) = (hidden.clone(), Arc::clone(&runs_raw));
            let body: Body<F, i64> = Box::new(move |tx| {
                runs.fetch_add(1, Ordering::SeqCst);
                match tx.raw().read(hidden.raw())? {
                    0 => tx.retry(),
                    open => Ok(open),
                }
            });
            blocks.spawn(stm, body, None)
        };
        let typed_reader = blocks.spawn(stm, gate(&seen, &runs_typed), None);
        parked(stm, 2);
        // An unrelated typed commit re-runs the raw reader only.
        set(stm, &other, 1);
        until(|| runs_raw.load(Ordering::SeqCst) == 2);
        parked(stm, 2);
        assert_eq!(runs_typed.load(Ordering::SeqCst), 1, "{name}");
        // A raw commit re-runs everyone.
        stm.atomically(TxKind::Short, |tx| tx.raw().write(hidden.raw(), 3));
        assert_eq!(raw_reader(), 3, "{name}");
        // (Once or twice: the raw reader's own commit says "everything" too.)
        until(|| runs_typed.load(Ordering::SeqCst) >= 2);
        set(stm, &seen, 4);
        assert_eq!(typed_reader(), 4, "{name}");
    }

    /// A hand-off keeps completing while two threads hammer unrelated
    /// variables: the epoch moves all the time, a registration it refuses
    /// re-runs, and an accepted one is woken by the token's channel alone.
    fn handoff_under_unrelated_commits<F: TmFactory>(name: &str, stm: &Stm<F>, blocks: &Blocks) {
        const ROUNDS: i64 = 300;
        let token = stm.new_tvar(0i64);
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..2)
            .map(|_| {
                let (stm, stop) = (stm.clone(), Arc::clone(&stop));
                let noise = apart(&stm, &[&token]);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        stm.atomically(TxKind::Short, |tx| tx.modify(&noise, |n| *n += 1));
                        std::thread::sleep(Duration::from_micros(50));
                    }
                })
            })
            .collect();
        for _ in 0..ROUNDS {
            // The ponger, parked, takes the token this thread puts down.
            let ponger = {
                let token = token.clone();
                let body: Body<F, ()> = Box::new(move |tx| match tx.read(&token)? {
                    1 => tx.write(&token, 0),
                    _ => tx.retry(),
                });
                blocks.spawn(stm, body, None)
            };
            parked(stm, 1);
            set(stm, &token, 1);
            ponger();
            let back = stm.atomically(TxKind::Short, |tx| tx.read(&token));
            assert_eq!(back, 0, "{name}: the ponger took the token");
        }
        stop.store(true, Ordering::SeqCst);
        for hammer in hammers {
            hammer.join().expect("hammer finished");
        }
    }

    /// Every scenario above on one engine through one driver.
    pub fn scenarios<F: TmFactory>(name: &str, stm: Stm<F>, asynchronous: bool) {
        let blocks = Blocks::new(asynchronous);
        disjoint_waiters(name, &stm, &blocks);
        // Each of the two waiters retried once, and nobody else at all.
        // (Dropping the pool joins its workers: their statistics are back.)
        let retried = |blocks: Blocks| {
            drop(blocks);
            stm.take_stats().blocking_retries()
        };
        assert_eq!(retried(blocks), 2, "{name}: one retry per waiter");
        let blocks = Blocks::new(asynchronous);
        or_else_waits_on_both(name, &stm, &blocks);
        // Per block: both alternatives once, and once more for the one
        // that then committed after the other.
        assert_eq!(retried(blocks), 2 + 3, "{name}: c re-ran nothing");
        let blocks = Blocks::new(asynchronous);
        a_bare_retry_waits_for_anything(name, &stm, &blocks);
        raw_users_wake_and_are_woken_by_everyone(name, &stm, &blocks);
        handoff_under_unrelated_commits(name, &stm, &blocks);
    }

    /// Two `TVar::from_raw` handles over clones of one engine variable are
    /// one variable to the notifier: a write through one wakes a reader of
    /// the other.
    pub fn clones_of_one_variable_wake_each_other<F: TmFactory>(
        name: &str,
        stm: Stm<F>,
        asynchronous: bool,
    ) where
        F::Var<i64>: Clone,
    {
        let blocks = Blocks::new(asynchronous);
        let raw = stm.factory().new_var(0i64);
        let (read_side, write_side) = (TVar::from_raw(raw.clone()), TVar::from_raw(raw));
        let waiter = blocks.spawn(&stm, gate(&read_side, &counter()), None);
        parked(&stm, 1);
        set(&stm, &write_side, 9);
        assert_eq!(waiter(), 9, "{name}");
    }
}

/// One test per engine: the scenarios of `selective`, native and certified,
/// each under a deadline.
macro_rules! selective_wakeup_tests {
    ($asynchronous:expr; $($test:ident: $label:literal, $build:expr;)*) => {$(
        #[test]
        fn $test() {
            let config = || StmConfig::new(6);
            let deadline = std::time::Duration::from_secs(60);
            run_with_deadline(concat!(stringify!($test), " [native]"), deadline, move || {
                selective::scenarios($label, Stm::new($build(config())), $asynchronous);
                selective::clones_of_one_variable_wake_each_other(
                    $label,
                    Stm::new($build(config())),
                    $asynchronous,
                );
            });
            run_with_deadline(concat!(stringify!($test), " [certified]"), deadline, move || {
                let certified = CertifiedFactory::new(config(), $build);
                selective::scenarios(concat!("certified-", $label), Stm::new(certified), $asynchronous);
            });
        }
    )*};
}
