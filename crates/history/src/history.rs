use std::collections::{BTreeMap, HashMap};

use zstm_core::{AbortReason, ObjId, ThreadId, TxEvent, TxEventKind, TxId, TxKind, VersionSeq};

/// Everything the checkers need to know about one transaction attempt.
#[derive(Clone, Debug)]
pub struct TxRecord {
    /// The attempt's id.
    pub id: TxId,
    /// Logical thread that ran it.
    pub thread: ThreadId,
    /// Short/long classification.
    pub kind: TxKind,
    /// Global sequence number of the `Begin` event.
    pub begin_seq: u64,
    /// Global sequence number of the `Commit` event, if committed.
    pub commit_seq: Option<u64>,
    /// Zone number at commit (Z-STM histories).
    pub zone: Option<u64>,
    /// Abort reason, if the attempt aborted.
    pub abort: Option<AbortReason>,
    /// `(object, version)` pairs read.
    pub reads: Vec<(ObjId, VersionSeq)>,
    /// `(object, version)` pairs written (emitted at commit, so writes are
    /// only present on committed transactions).
    pub writes: Vec<(ObjId, VersionSeq)>,
}

impl TxRecord {
    /// `true` if the attempt committed.
    pub fn committed(&self) -> bool {
        self.commit_seq.is_some()
    }
}

/// A recorded transactional history.
///
/// Build one with [`crate::Recorder::history`] or
/// [`History::from_events`]; feed it to the checkers in this crate.
#[derive(Clone, Debug, Default)]
pub struct History {
    txs: BTreeMap<TxId, TxRecord>,
    /// `(obj, version) → writer` for every committed write.
    writers: HashMap<(ObjId, VersionSeq), TxId>,
    /// Highest written version per object.
    max_version: HashMap<ObjId, VersionSeq>,
}

impl History {
    /// Builds a history from a stamped event stream.
    pub fn from_events(events: impl IntoIterator<Item = (u64, TxEvent)>) -> Self {
        let mut txs: BTreeMap<TxId, TxRecord> = BTreeMap::new();
        for (seq, event) in events {
            let record = txs.entry(event.tx).or_insert_with(|| TxRecord {
                id: event.tx,
                thread: event.thread,
                kind: event.kind,
                begin_seq: seq,
                commit_seq: None,
                zone: None,
                abort: None,
                reads: Vec::new(),
                writes: Vec::new(),
            });
            match event.event {
                TxEventKind::Begin => record.begin_seq = seq,
                TxEventKind::Read { obj, version } => record.reads.push((obj, version)),
                TxEventKind::Write { obj, version } => record.writes.push((obj, version)),
                TxEventKind::Commit { zone } => {
                    record.commit_seq = Some(seq);
                    record.zone = zone;
                }
                TxEventKind::Abort { reason } => record.abort = Some(reason),
                _ => {}
            }
        }
        let mut writers = HashMap::new();
        let mut max_version: HashMap<ObjId, VersionSeq> = HashMap::new();
        for record in txs.values() {
            if !record.committed() {
                continue;
            }
            for &(obj, version) in &record.writes {
                writers.insert((obj, version), record.id);
                let entry = max_version.entry(obj).or_insert(version);
                *entry = (*entry).max(version);
            }
        }
        Self {
            txs,
            writers,
            max_version,
        }
    }

    /// Looks up one transaction attempt.
    pub fn get(&self, id: TxId) -> Option<&TxRecord> {
        self.txs.get(&id)
    }

    /// Iterates over all attempts (committed and aborted).
    pub fn iter(&self) -> impl Iterator<Item = &TxRecord> {
        self.txs.values()
    }

    /// Iterates over committed transactions only.
    pub fn committed(&self) -> impl Iterator<Item = &TxRecord> {
        self.txs.values().filter(|t| t.committed())
    }

    /// Number of recorded attempts.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// The committed writer of `(obj, version)`, if any (version 0 is the
    /// initial version and has no writer).
    pub fn writer_of(&self, obj: ObjId, version: VersionSeq) -> Option<TxId> {
        self.writers.get(&(obj, version)).copied()
    }

    /// Highest committed version of `obj` in this history.
    pub fn max_version(&self, obj: ObjId) -> Option<VersionSeq> {
        self.max_version.get(&obj).copied()
    }

    /// Sanity check used by tests: every committed read must observe
    /// either the initial version or a version some committed transaction
    /// wrote. Returns the offending `(tx, obj, version)` if violated
    /// (e.g. a dirty read of a never-committed tentative value).
    pub fn find_dirty_read(&self) -> Option<(TxId, ObjId, VersionSeq)> {
        for record in self.committed() {
            for &(obj, version) in &record.reads {
                if version == 0 {
                    continue;
                }
                if self.writer_of(obj, version).is_none() {
                    // The version may be a read-own-write placeholder
                    // (reads of the transaction's own tentative value use
                    // seq newest+1); accept it if this tx wrote the object.
                    let wrote_it = record.writes.iter().any(|&(o, _)| o == obj);
                    if !wrote_it {
                        return Some((record.id, obj, version));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::TxEvent;

    fn event(tx: TxId, kind: TxEventKind) -> TxEvent {
        TxEvent::new(tx, ThreadId::new(0), TxKind::Short, kind)
    }

    #[test]
    fn builds_records_from_events() {
        let tx = TxId::fresh();
        let obj = ObjId::fresh();
        let history = History::from_events([
            (0, event(tx, TxEventKind::Begin)),
            (1, event(tx, TxEventKind::Read { obj, version: 0 })),
            (2, event(tx, TxEventKind::Write { obj, version: 1 })),
            (3, event(tx, TxEventKind::Commit { zone: Some(7) })),
        ]);
        let record = history.get(tx).expect("present");
        assert!(record.committed());
        assert_eq!(record.zone, Some(7));
        assert_eq!(record.reads, vec![(obj, 0)]);
        assert_eq!(record.writes, vec![(obj, 1)]);
        assert_eq!(history.writer_of(obj, 1), Some(tx));
        assert_eq!(history.max_version(obj), Some(1));
        assert!(history.find_dirty_read().is_none());
    }

    #[test]
    fn aborted_attempts_do_not_write() {
        let tx = TxId::fresh();
        let obj = ObjId::fresh();
        let history = History::from_events([
            (0, event(tx, TxEventKind::Begin)),
            (1, event(tx, TxEventKind::Read { obj, version: 0 })),
            (
                2,
                event(
                    tx,
                    TxEventKind::Abort {
                        reason: AbortReason::Explicit,
                    },
                ),
            ),
        ]);
        let record = history.get(tx).expect("present");
        assert!(!record.committed());
        assert_eq!(record.abort, Some(AbortReason::Explicit));
        assert_eq!(history.committed().count(), 0);
    }

    #[test]
    fn dirty_read_detection() {
        let reader = TxId::fresh();
        let obj = ObjId::fresh();
        // Reader observes version 3 that nobody committed.
        let history = History::from_events([
            (0, event(reader, TxEventKind::Begin)),
            (1, event(reader, TxEventKind::Read { obj, version: 3 })),
            (2, event(reader, TxEventKind::Commit { zone: None })),
        ]);
        assert_eq!(history.find_dirty_read(), Some((reader, obj, 3)));
    }
}
