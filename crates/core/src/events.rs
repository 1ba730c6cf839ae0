//! Transaction event stream for offline consistency checking.
//!
//! Every STM in this workspace can report its transactional events to an
//! [`EventSink`]. The `zstm-history` crate implements a recording sink and
//! checkers that verify, on the recorded history, exactly the guarantee each
//! STM claims (linearizability, causal serializability, serializability,
//! z-linearizability).
//!
//! ## Real-time soundness contract
//!
//! For the linearizability checkers to be sound, STMs must emit
//! * the [`TxEventKind::Begin`] event **before** the transaction takes its
//!   snapshot / becomes visible, and
//! * the [`TxEventKind::Commit`] event **after** the commit point.
//!
//! A sink that stamps events with a global sequence number then satisfies:
//! if `seq(commit A) < seq(begin B)`, transaction A's commit point truly
//! precedes B's start in real time. (Missing real-time edges only make the
//! check weaker, never unsound.)

use core::fmt;

use crate::{AbortReason, ObjId, ThreadId, TxId, TxKind};

/// Sequence number of an object version: the initial version is 0 and each
/// committed update increments it by one.
pub type VersionSeq = u64;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxEventKind {
    /// The transaction started (recorded before its snapshot is taken).
    Begin,
    /// The transaction read version `version` of `obj`.
    Read {
        /// Object read.
        obj: ObjId,
        /// Version observed.
        version: VersionSeq,
    },
    /// The transaction committed a write installing `version` of `obj`.
    ///
    /// Write events are emitted at commit time (not at the tentative write)
    /// so the history only contains writes that took effect.
    Write {
        /// Object written.
        obj: ObjId,
        /// Version installed.
        version: VersionSeq,
    },
    /// The transaction committed (recorded after the commit point). `zone`
    /// is the z-linearizability zone for Z-STM histories, `None` elsewhere.
    Commit {
        /// Zone number at commit, for z-linearizable STMs.
        zone: Option<u64>,
    },
    /// The transaction attempt aborted.
    Abort {
        /// Why.
        reason: AbortReason,
    },
}

/// One event emitted by an STM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxEvent {
    /// The transaction attempt this event belongs to.
    pub tx: TxId,
    /// Logical thread running the transaction.
    pub thread: ThreadId,
    /// Short/long classification of the transaction.
    pub kind: TxKind,
    /// What happened.
    pub event: TxEventKind,
}

impl TxEvent {
    /// Convenience constructor.
    pub fn new(tx: TxId, thread: ThreadId, kind: TxKind, event: TxEventKind) -> Self {
        Self {
            tx,
            thread,
            kind,
            event,
        }
    }
}

impl fmt::Display for TxEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:?}", self.thread, self.tx, self.event)
    }
}

/// Receiver of transaction events.
///
/// Implementations must be cheap when disabled: STM hot paths consult
/// [`EventSink::enabled`] before assembling events.
pub trait EventSink: Send + Sync + 'static {
    /// Whether events should be reported at all. STMs skip event assembly
    /// when this returns `false`. The answer is fixed for the sink's life:
    /// a thread context asks once, when it is claimed, and tests the
    /// remembered answer on every access.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Called concurrently from many threads.
    fn record(&self, event: TxEvent);
}

/// Sink that drops everything; the default for benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TxEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(TxEvent::new(
            TxId::fresh(),
            ThreadId::new(0),
            TxKind::Short,
            TxEventKind::Begin,
        ));
    }

    #[test]
    fn event_display_mentions_parties() {
        let tx = TxId::fresh();
        let event = TxEvent::new(tx, ThreadId::new(2), TxKind::Long, TxEventKind::Begin);
        let text = event.to_string();
        assert!(text.contains("thr2"));
        assert!(text.contains("Begin"));
    }
}
