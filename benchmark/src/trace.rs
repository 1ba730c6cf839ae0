//! Span recording from the benchmark's side of each layer boundary.
//!
//! A [`Tracer`] belongs to one thread and keeps its spans in a preallocated
//! vector; nothing is written until the run ends. Every span carries its
//! name, start, end, the span that was open when it started (its parent) and
//! the identifier of the operation it belongs to. A layer's *self time* is
//! its span minus the spans opened inside it.
//!
//! The program under test is not instrumented: [`TracedTx`] wraps the
//! transaction handle a body receives, so the calls the body makes into
//! `zstm-api` are timed from outside.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use zstm_api::{DynStm, DynTx, DynVar};
use zstm_core::{Abort, RetryExhausted, RetryPolicy, TxKind};

use crate::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Atomically,
    ReadI64,
    WriteI64,
    LongReadI64,
    ReadBytes,
    WriteBytes,
    MapGet,
    MapInsert,
    QueuePush,
    QueuePop,
    Request,
    ClientGet,
    ClientExec,
}

impl Name {
    pub const ALL: [Name; 13] = [
        Name::Atomically,
        Name::ReadI64,
        Name::WriteI64,
        Name::LongReadI64,
        Name::ReadBytes,
        Name::WriteBytes,
        Name::MapGet,
        Name::MapInsert,
        Name::QueuePush,
        Name::QueuePop,
        Name::Request,
        Name::ClientGet,
        Name::ClientExec,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Atomically => "api.atomically",
            Name::ReadI64 => "api.read_i64",
            Name::WriteI64 => "api.write_i64",
            Name::LongReadI64 => "api.long_read_i64",
            Name::ReadBytes => "api.read_bytes",
            Name::WriteBytes => "api.write_bytes",
            Name::MapGet => "collections.get",
            Name::MapInsert => "collections.insert",
            Name::QueuePush => "collections.push",
            Name::QueuePop => "collections.pop",
            Name::Request => "server.request",
            Name::ClientGet => "server.client_get",
            Name::ClientExec => "server.client_exec",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: Name,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
pub struct Open(u32);

/// Nanoseconds since the first call in this process: one time origin for
/// every thread, so that timestamps taken on different threads compare.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub struct Tracer {
    thread: String,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    op: Cell<u64>,
    dropped: Cell<u64>,
    bytes_read: Cell<u64>,
}

/// Spans one thread may keep: 32 MB of address space, touched only as used.
const CAPACITY: usize = 1 << 20;
/// Spans per thread written to the trace file (the summary covers them all).
const FILE_SPANS: usize = 20_000;

impl Tracer {
    pub fn new(thread: &str) -> Self {
        Self {
            thread: thread.to_string(),
            spans: RefCell::new(Vec::with_capacity(CAPACITY)),
            open: RefCell::new(Vec::with_capacity(16)),
            op: Cell::new(0),
            dropped: Cell::new(0),
            bytes_read: Cell::new(0),
        }
    }

    /// Names the operation the following spans belong to.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    pub fn enter(&self, name: Name) -> Open {
        let mut spans = self.spans.borrow_mut();
        if spans.len() == CAPACITY {
            self.dropped.set(self.dropped.get() + 1);
            return Open(u32::MAX);
        }
        let mut open = self.open.borrow_mut();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            parent: open.last().copied(),
            op: self.op.get(),
            start_ns: 0,
            end_ns: 0,
        });
        open.push(id);
        // Clock read last, so the bookkeeping above is outside the span.
        spans[id as usize].start_ns = now_ns();
        Open(id)
    }

    pub fn exit(&self, span: Open) {
        let end = now_ns();
        if span.0 == u32::MAX {
            return;
        }
        self.spans.borrow_mut()[span.0 as usize].end_ns = end;
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(span.0), "spans close innermost first");
    }

    pub fn span<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Bytes returned by traced `read_bytes` calls so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

/// Per-name totals over a set of tracers.
#[derive(Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

pub struct Summary {
    totals: [Total; Name::ALL.len()],
    pub spans_recorded: u64,
    pub spans_dropped: u64,
}

impl Summary {
    pub fn of(tracers: &[Tracer]) -> Summary {
        let mut totals = [Total::default(); Name::ALL.len()];
        let (mut recorded, mut dropped) = (0u64, 0u64);
        for tracer in tracers {
            let spans = tracer.spans.borrow();
            let mut child_ns = vec![0u64; spans.len()];
            for span in spans.iter() {
                if let Some(parent) = span.parent {
                    child_ns[parent as usize] += span.end_ns.saturating_sub(span.start_ns);
                }
            }
            for (span, children) in spans.iter().zip(&child_ns) {
                let duration = span.end_ns.saturating_sub(span.start_ns);
                let total = &mut totals[span.name as usize];
                total.count += 1;
                total.total_ns += duration;
                total.self_ns += duration.saturating_sub(*children);
            }
            recorded += spans.len() as u64;
            dropped += tracer.dropped.get();
        }
        Summary {
            totals,
            spans_recorded: recorded,
            spans_dropped: dropped,
        }
    }

    pub fn get(&self, name: Name) -> Total {
        self.totals[name as usize]
    }
}

/// The trace file for one workload: a per-name summary over every span and
/// the first [`FILE_SPANS`] spans of each thread in full.
pub fn to_json(workload: &str, seed: u64, tracers: &[Tracer], summary: &Summary) -> Value {
    let num = |n: u64| Value::Num(n as f64);
    let threads = tracers
        .iter()
        .map(|tracer| {
            let spans = tracer.spans.borrow();
            let written: Vec<Value> = spans
                .iter()
                .take(FILE_SPANS)
                .enumerate()
                .map(|(id, span)| {
                    Value::obj(vec![
                        ("id", num(id as u64)),
                        ("name", Value::str(span.name.label())),
                        ("op", num(span.op)),
                        (
                            "parent",
                            span.parent.map_or(Value::Null, |p| num(u64::from(p))),
                        ),
                        ("start_ns", num(span.start_ns)),
                        ("end_ns", num(span.end_ns)),
                    ])
                })
                .collect();
            Value::obj(vec![
                ("thread", Value::str(&tracer.thread)),
                ("spans_recorded", num(spans.len() as u64)),
                ("spans_written", num(written.len() as u64)),
                ("spans", Value::Arr(written)),
            ])
        })
        .collect();
    let by_name = Name::ALL
        .iter()
        .filter(|name| summary.get(**name).count > 0)
        .map(|name| {
            let total = summary.get(*name);
            (
                name.label().to_string(),
                Value::obj(vec![
                    ("count", num(total.count)),
                    ("total_ns", num(total.total_ns)),
                    ("self_ns", num(total.self_ns)),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("workload", Value::str(workload)),
        ("seed", num(seed)),
        ("spans_recorded", num(summary.spans_recorded)),
        ("spans_dropped", num(summary.spans_dropped)),
        ("summary", Value::Obj(by_name)),
        ("threads", Value::Arr(threads)),
    ])
}

/// A transaction handle that times every call made through it.
pub struct TracedTx<'a> {
    inner: &'a mut (dyn DynTx + 'a),
    tracer: &'a Tracer,
    read_i64: Name,
}

impl<'a> TracedTx<'a> {
    pub fn new(inner: &'a mut (dyn DynTx + 'a), tracer: &'a Tracer) -> Self {
        let read_i64 = if inner.kind().is_long() {
            Name::LongReadI64
        } else {
            Name::ReadI64
        };
        Self {
            inner,
            tracer,
            read_i64,
        }
    }
}

impl DynTx for TracedTx<'_> {
    fn read_i64(&mut self, var: &DynVar) -> Result<i64, Abort> {
        let open = self.tracer.enter(self.read_i64);
        let out = self.inner.read_i64(var);
        self.tracer.exit(open);
        out
    }

    fn write_i64(&mut self, var: &DynVar, value: i64) -> Result<(), Abort> {
        let open = self.tracer.enter(Name::WriteI64);
        let out = self.inner.write_i64(var, value);
        self.tracer.exit(open);
        out
    }

    fn read_bytes(&mut self, var: &DynVar) -> Result<Vec<u8>, Abort> {
        let open = self.tracer.enter(Name::ReadBytes);
        let out = self.inner.read_bytes(var);
        self.tracer.exit(open);
        if let Ok(bytes) = &out {
            let read = &self.tracer.bytes_read;
            read.set(read.get() + bytes.len() as u64);
        }
        out
    }

    fn write_bytes(&mut self, var: &DynVar, value: Vec<u8>) -> Result<(), Abort> {
        let open = self.tracer.enter(Name::WriteBytes);
        let out = self.inner.write_bytes(var, value);
        self.tracer.exit(open);
        out
    }

    fn retry(&self) -> Abort {
        self.inner.retry()
    }

    fn kind(&self) -> TxKind {
        self.inner.kind()
    }
}

/// `stm.atomically(..)`, with an `api.atomically` span around it and a
/// [`TracedTx`] inside it when `tracer` is given. Untraced operations take
/// the plain call, so the timed runs pay nothing for this.
pub fn atomically<R>(
    stm: &dyn DynStm,
    kind: TxKind,
    policy: &RetryPolicy,
    tracer: Option<&Tracer>,
    mut body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>,
) -> Result<R, RetryExhausted> {
    let Some(tracer) = tracer else {
        return stm.atomically(kind, policy, body);
    };
    tracer.span(Name::Atomically, || {
        stm.atomically(kind, policy, |tx| body(&mut TracedTx::new(tx, tracer)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tracer = Tracer::new("t");
        tracer.set_op(7);
        let outer = tracer.enter(Name::Atomically);
        tracer.span(Name::ReadI64, || std::hint::black_box(1 + 1));
        tracer.span(Name::WriteI64, || std::hint::black_box(1 + 1));
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let summary = Summary::of(std::slice::from_ref(&tracer));
        let outer = summary.get(Name::Atomically);
        let children = summary.get(Name::ReadI64).total_ns + summary.get(Name::WriteI64).total_ns;
        assert_eq!(outer.self_ns, outer.total_ns - children);
        assert_eq!(summary.spans_recorded, 3);
    }
}
