//! Deterministic interleaving coverage for the collections subsystem,
//! mirroring `queue_interleavings.rs` one layer up: where that file pins
//! retry semantics at the raw engine SPI, this one pins them for
//! `TQueue`/`TMap` transactions running through the erased `DynStm`
//! facade on all five engines × {native, SSI-certified}, built by the
//! server's engine registry.
//!
//! `zstm_sim::run_schedule` drives scripted SPI operations over plain
//! `i64` objects, each logical thread an `async` block it polls once per
//! step on one OS thread, so container transactions cannot reuse it
//! directly: a container body is a synchronous closure run by
//! [`atomically`](zstm_api::DynStm), and it cannot be suspended mid-body
//! on one thread. This file alone therefore keeps an OS thread per worker
//! and a step-token rendezvous. It reuses the sim's *orderings*
//! ([`enumerate_interleavings`]): every container operation waits for a
//! token from the driver, and each token's ack is deferred to the
//! worker's next gate point, so an acked step has fully
//! settled — including the commit or rollback that runs after the body
//! returns. One knob keeps the schedule exact: a single-attempt policy
//! (`with_max_attempts(1)`). The body runs at most once, so it consumes
//! exactly its scripted tokens, and the scripted attempt is the one
//! observed (the sim driver makes the same choice: "aborted transactions
//! are not retried"). It also never parks — an atomic block checks its
//! budget before any wait, so a tripped blocking guard on the only attempt
//! returns `RetryExhausted` at once and the driver loop stays
//! deterministic. The real park/wake path is covered by
//! `crates/collections/tests/engines.rs`.

use std::cell::{Cell, RefCell};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use zstm::prelude::*;
use zstm::server::registry::{build_engine, ENGINE_NAMES};
use zstm_sim::enumerate_interleavings;

enum Msg {
    Step(SyncSender<()>),
}

/// Per-worker step gate. The driver sends one [`Msg::Step`] per scripted
/// step; the worker consumes it at the matching gate point and acks it at
/// the *next* gate point (or when draining), so the driver only advances
/// once the previous step's effects — including an end-of-body commit or
/// rollback — are visible.
struct StepGate {
    rx: Receiver<Msg>,
    pending: RefCell<Option<SyncSender<()>>>,
    consumed: Cell<usize>,
}

impl StepGate {
    fn new(rx: Receiver<Msg>) -> Self {
        StepGate {
            rx,
            pending: RefCell::new(None),
            consumed: Cell::new(0),
        }
    }

    /// Acks the previous step, if any: everything up to this gate point
    /// (the previous operation, or the rollback of a doomed body) has
    /// settled.
    fn flush(&self) {
        if let Some(ack) = self.pending.borrow_mut().take() {
            let _ = ack.send(());
        }
    }

    /// One scripted container operation: waits for the step token, runs
    /// `f`, and holds the ack for the next gate point.
    fn op<R>(&self, f: impl FnOnce() -> Result<R, Abort>) -> Result<R, Abort> {
        self.flush();
        match self.rx.recv() {
            Ok(Msg::Step(ack)) => {
                self.consumed.set(self.consumed.get() + 1);
                let out = f();
                *self.pending.borrow_mut() = Some(ack);
                out
            }
            // Driver gone (test panicked elsewhere): run unscripted.
            Err(_) => f(),
        }
    }

    /// The commit step: called at the end of the body, it consumes the
    /// thread's final token and holds the ack until
    /// [`Self::release_and_drain`] — which the worker calls only after
    /// `atomically` returned, so the ack places the *actual* commit (or
    /// rollback) inside the scripted slot.
    fn arm_commit(&self) {
        self.flush();
        if let Ok(Msg::Step(ack)) = self.rx.recv() {
            self.consumed.set(self.consumed.get() + 1);
            *self.pending.borrow_mut() = Some(ack);
        }
    }

    /// Acks the armed commit token and drains the leftover tokens of a
    /// doomed transaction (the driver still delivers every scripted step,
    /// exactly like the sim driver's no-op drain).
    fn release_and_drain(&self, total_steps: usize) {
        self.flush();
        while self.consumed.get() < total_steps {
            match self.rx.recv() {
                Ok(Msg::Step(ack)) => {
                    self.consumed.set(self.consumed.get() + 1);
                    let _ = ack.send(());
                }
                Err(_) => break,
            }
        }
    }
}

/// Delivers step tokens in `interleaving` order, blocking on each ack.
fn drive(senders: &[SyncSender<Msg>], steps_left: &mut [usize], interleaving: &[usize]) {
    for &thread in interleaving {
        if thread < senders.len() && steps_left[thread] > 0 {
            let (ack_tx, ack_rx) = sync_channel(0);
            if senders[thread].send(Msg::Step(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
                steps_left[thread] -= 1;
            }
        }
    }
}

/// Every runtime configuration the server can serve — each engine of
/// [`ENGINE_NAMES`] native and wrapped in the online SSI certifier —
/// named as the server names it.
fn all_configs(threads: usize) -> Vec<(&'static str, Arc<dyn DynStm>)> {
    ENGINE_NAMES
        .into_iter()
        .flat_map(|name| {
            [false, true].map(|certified| {
                let stm = build_engine(name, threads, certified).expect("a listed engine");
                (stm.name(), stm)
            })
        })
        .collect()
}

/// The scripted attempt runs exactly once — load-bearing for the token
/// accounting (a re-run body would consume tokens the driver never
/// scheduled).
fn once() -> RetryPolicy {
    RetryPolicy::default().with_max_attempts(1)
}

#[test]
fn cross_container_move_is_atomic_under_every_interleaving() {
    // Thread 0 (mover): pop the queue, insert into the map — 2 ops +
    // commit = 3 steps. Thread 1 (auditor): read both lengths — 3 steps.
    // Under every one of the 20 interleavings, on every config: a
    // committed audit sees conservation, and the final state shows the
    // move happened entirely or not at all.
    const ITEMS: usize = 2;
    for interleaving in enumerate_interleavings(&[3, 3]) {
        for (name, stm) in all_configs(3) {
            let queue: TQueue<u64> = TQueue::new(&*stm, ITEMS);
            let map: TMap<u64, u64> = TMap::new(&*stm, 2);
            stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                queue.push(tx, &1)?;
                queue.push(tx, &2)
            })
            .expect("seeding an empty queue cannot block");

            let (send_mover, rx_mover) = sync_channel(1);
            let (send_auditor, rx_auditor) = sync_channel(1);
            let mover = {
                let (stm, queue, map) = (Arc::clone(&stm), queue.clone(), map.clone());
                std::thread::spawn(move || {
                    let gate = StepGate::new(rx_mover);
                    let result = stm.atomically(TxKind::Short, &once(), |tx| {
                        let item = gate.op(|| queue.pop(tx))?;
                        gate.op(|| map.insert(tx, &item, &1))?;
                        gate.arm_commit();
                        Ok(item)
                    });
                    gate.release_and_drain(3);
                    result
                })
            };
            let auditor = {
                let (stm, queue, map) = (Arc::clone(&stm), queue.clone(), map.clone());
                std::thread::spawn(move || {
                    let gate = StepGate::new(rx_auditor);
                    let result = stm.atomically(TxKind::Short, &once(), |tx| {
                        let queued = gate.op(|| queue.len(tx))?;
                        let mapped = gate.op(|| map.len(tx))?;
                        gate.arm_commit();
                        Ok((queued, mapped))
                    });
                    gate.release_and_drain(3);
                    result
                })
            };
            drive(&[send_mover, send_auditor], &mut [3, 3], &interleaving);
            let moved = mover.join().expect("mover thread");
            let audit = auditor.join().expect("auditor thread");

            if let Ok((queued, mapped)) = audit {
                assert_eq!(
                    queued + mapped,
                    ITEMS,
                    "{name} {interleaving:?}: a committed audit saw a torn \
                     cross-container move ({queued} queued + {mapped} mapped)"
                );
            }
            // Nothing in this scenario touches an empty queue, so the
            // blocking guard must never trip — aborts, if any, are
            // conflicts or certification, not retries.
            assert_eq!(
                stm.take_stats().blocking_retries(),
                0,
                "{name} {interleaving:?}: spurious blocking retry"
            );
            let (queued, mapped, moved_value) = stm
                .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                    let item = match &moved {
                        Ok(item) => map.get(tx, item)?,
                        Err(_) => None,
                    };
                    Ok((queue.len(tx)?, map.len(tx)?, item))
                })
                .expect("quiescent final read cannot block");
            match &moved {
                Ok(_) => assert_eq!(
                    (queued, mapped, moved_value),
                    (ITEMS - 1, 1, Some(1)),
                    "{name} {interleaving:?}: committed move not fully applied"
                ),
                Err(err) => {
                    assert_ne!(
                        err.last_reason(),
                        AbortReason::Retry,
                        "{name} {interleaving:?}: a pop from a non-empty queue \
                         must never block"
                    );
                    assert_eq!(
                        (queued, mapped),
                        (ITEMS, 0),
                        "{name} {interleaving:?}: aborted move left partial \
                         effects"
                    );
                }
            }
        }
    }
}

#[test]
fn blocking_pop_trips_iff_the_push_has_not_committed_under_every_interleaving() {
    // Thread 0 (push): 1 op + commit. Thread 1 (pop): 1 guarded op +
    // commit. Mirrors the SPI-level regime analysis in
    // `queue_interleavings.rs`: whether the composable `retry` guard
    // inside `TQueue::pop` trips is decided only by whether the push
    // committed before the pop's read — under every interleaving, on
    // every config.
    for interleaving in enumerate_interleavings(&[2, 2]) {
        let pop_read_at = interleaving
            .iter()
            .position(|&t| t == 1)
            .expect("pop read present");
        let push_write_at = interleaving
            .iter()
            .position(|&t| t == 0)
            .expect("push write present");
        let push_commit_at = interleaving
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == 0)
            .map(|(i, _)| i)
            .nth(1)
            .expect("push commit present");
        let regime = if pop_read_at < push_write_at {
            "before-write"
        } else if pop_read_at > push_commit_at {
            "after-commit"
        } else {
            "during-write"
        };
        for (name, stm) in all_configs(3) {
            let queue: TQueue<u64> = TQueue::new(&*stm, 2);
            let (send_push, rx_push) = sync_channel(1);
            let (send_pop, rx_pop) = sync_channel(1);
            let push = {
                let (stm, queue) = (Arc::clone(&stm), queue.clone());
                std::thread::spawn(move || {
                    let gate = StepGate::new(rx_push);
                    let result = stm.atomically(TxKind::Short, &once(), |tx| {
                        gate.op(|| queue.push(tx, &42))?;
                        gate.arm_commit();
                        Ok(())
                    });
                    gate.release_and_drain(2);
                    result
                })
            };
            let pop = {
                let (stm, queue) = (Arc::clone(&stm), queue.clone());
                std::thread::spawn(move || {
                    let gate = StepGate::new(rx_pop);
                    let result = stm.atomically(TxKind::Short, &once(), |tx| {
                        let value = gate.op(|| queue.pop(tx))?;
                        gate.arm_commit();
                        Ok(value)
                    });
                    gate.release_and_drain(2);
                    result
                })
            };
            drive(&[send_push, send_pop], &mut [2, 2], &interleaving);
            let pushed = push.join().expect("push thread");
            let popped = pop.join().expect("pop thread");
            let stats = stm.take_stats();

            // Accounting holds in every regime: the dedicated counter
            // records exactly the tripped guards.
            let tripped = matches!(&popped, Err(e) if e.last_reason() == AbortReason::Retry);
            assert_eq!(
                stats.blocking_retries(),
                tripped as u64,
                "{name} {interleaving:?}: blocking_retries diverges from the \
                 observed outcome ({popped:?})"
            );
            // Atomicity ledger: the final length is exactly the committed
            // pushes minus the committed pops.
            let final_len = stm
                .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| queue.len(tx))
                .expect("quiescent final read cannot block");
            assert_eq!(
                final_len as i64,
                pushed.is_ok() as i64 - popped.is_ok() as i64,
                "{name} {interleaving:?} ({regime}): torn queue state \
                 (push {pushed:?}, pop {popped:?})"
            );
            if let Ok(value) = &popped {
                assert_eq!(*value, 42, "{name} {interleaving:?}: wrong value popped");
            }
            match regime {
                "before-write" => {
                    // The queue is pristine at the read: the guard *must*
                    // trip, and the rolled-back guard must not impede the
                    // push.
                    assert!(
                        tripped,
                        "{name} {interleaving:?}: guard before the write must \
                         block (got {popped:?})"
                    );
                    assert!(
                        pushed.is_ok(),
                        "{name} {interleaving:?}: a rolled-back guard blocked \
                         the push ({pushed:?})"
                    );
                }
                "after-commit" => {
                    // The value is committed before the read: the guard
                    // must not trip. Engines that strive for the latest
                    // value deliver it; engines pinned to a pre-commit
                    // snapshot conflict-abort — either way no retry.
                    assert!(
                        !tripped,
                        "{name} {interleaving:?}: guard after the commit must \
                         not block"
                    );
                    assert!(
                        pushed.is_ok(),
                        "{name} {interleaving:?}: unopposed push aborted \
                         ({pushed:?})"
                    );
                }
                _ => {
                    // During the uncommitted write the pop cannot possibly
                    // deliver the value (isolation); it retries or
                    // conflict-aborts depending on the engine.
                    assert!(
                        popped.is_err(),
                        "{name} {interleaving:?}: pop observed an uncommitted \
                         push"
                    );
                }
            }
        }
    }
}
