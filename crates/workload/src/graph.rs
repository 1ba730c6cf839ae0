//! A graph workload over the transactional collections: atomic edge
//! moves with a secondary index maintained in the same transaction.
//!
//! The adjacency structure lives in a [`TMap<u64, Vec<u64>>`] (node →
//! out-neighbour multiset) and a second [`TMap<u64, i64>`] keeps every
//! node's **in-degree** as a secondary index. A *move* transaction picks
//! a node, swaps one of its out-edges to a new target, and updates both
//! affected in-degree entries — four to six container operations, all in
//! one atomic block. An *audit* transaction (long, read-only) recomputes
//! every in-degree from the adjacency map and compares it against the
//! index, and checks that the total edge count never changed.
//!
//! This is the cross-container stress the collections layer is built
//! for: the two maps share nothing but the transaction, so only the
//! engine's atomicity keeps the index coherent. Per-bucket `TVar`s mean
//! moves touching different buckets proceed without conflicts; an audit
//! still reads the whole footprint and so is the natural victim under
//! update pressure (the same long-vs-short tension as the bank's
//! Compute-Total).
//!
//! Out-degrees are invariant under moves (an edge is replaced, never
//! added or dropped), so the seeded edge count is conserved — the
//! report's `consistent` flag records whether every committed audit
//! agreed.

use std::sync::Arc;
use std::time::Duration;

use zstm_api::DynStm;
use zstm_collections::TMap;
use zstm_core::{RetryPolicy, TxKind, TxStats};
use zstm_util::{run_window, XorShift64};

/// Configuration of the graph workload.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Number of nodes. Every node is seeded with out-edges and an
    /// in-degree index entry.
    pub nodes: usize,
    /// Buckets for each of the two maps (adjacency and index).
    pub buckets: usize,
    /// Seeded out-degree of every node (constant for the whole run).
    pub edges_per_node: usize,
    /// Percentage of operations that are full audits (long read-only
    /// transactions); the rest are edge moves.
    pub audit_pct: u8,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// PRNG seed.
    pub seed: u64,
}

impl GraphConfig {
    /// The default shape: 128 nodes × 4 edges over 64 buckets, 10 %
    /// audits.
    pub fn new(threads: usize) -> Self {
        Self {
            nodes: 128,
            buckets: 64,
            edges_per_node: 4,
            audit_pct: 10,
            threads,
            duration: Duration::from_millis(500),
            seed: 0x6772,
        }
    }

    /// Scaled-down variant for tests.
    pub fn quick(threads: usize) -> Self {
        Self {
            nodes: 24,
            buckets: 8,
            edges_per_node: 3,
            duration: Duration::from_millis(60),
            ..Self::new(threads)
        }
    }

    /// Total (constant) number of edges.
    pub fn total_edges(&self) -> usize {
        self.nodes * self.edges_per_node
    }
}

/// Result of one graph-workload run.
#[derive(Clone, Debug)]
pub struct GraphReport {
    /// Name of the STM that was measured.
    pub stm: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Committed edge-move transactions.
    pub moves: u64,
    /// Committed audit transactions.
    pub audits: u64,
    /// Committed operations per second (all kinds).
    pub ops_per_sec: f64,
    /// Merged per-thread statistics (abort breakdown etc.).
    pub stats: TxStats,
    /// `true` iff every committed audit found the in-degree index exactly
    /// matching the adjacency map and the edge count conserved.
    pub consistent: bool,
}

impl GraphReport {
    /// Total committed operations.
    pub fn commits(&self) -> u64 {
        self.moves + self.audits
    }
}

/// The transactional graph: adjacency plus the in-degree secondary index.
/// Shared by the workload driver and `examples/graph.rs`.
#[derive(Clone)]
pub struct TxGraph {
    /// Node → out-neighbour multiset (self-loops and parallel edges are
    /// allowed; a `Vec`, not a set, keeps moves O(out-degree)).
    pub adjacency: TMap<u64, Vec<u64>>,
    /// Node → in-degree, maintained in the same transaction as every
    /// adjacency change. Every node keeps an entry, even at degree zero,
    /// so audits compare complete functions rather than sparse ones.
    pub index: TMap<u64, i64>,
}

impl TxGraph {
    /// Creates the two maps and seeds the ring-like graph: node `u` points
    /// at `u+1, u+2, ...` (mod `nodes`), so every node starts with
    /// in-degree `edges_per_node`.
    pub fn seed(stm: &dyn DynStm, config: &GraphConfig) -> Self {
        let graph = TxGraph {
            adjacency: TMap::new(stm, config.buckets),
            index: TMap::new(stm, config.buckets),
        };
        stm.atomically(TxKind::Long, &RetryPolicy::unbounded(), |tx| {
            for u in 0..config.nodes as u64 {
                let targets: Vec<u64> = (1..=config.edges_per_node as u64)
                    .map(|d| (u + d) % config.nodes as u64)
                    .collect();
                graph.adjacency.insert(tx, &u, &targets)?;
                graph
                    .index
                    .insert(tx, &u, &(config.edges_per_node as i64))?;
            }
            Ok(())
        })
        .expect("unbounded seed transaction");
        graph
    }

    /// Swaps one out-edge of `node` (the one at `slot`, modulo the
    /// out-degree) to `new_target`, keeping the in-degree index coherent
    /// in the same transaction. Returns the displaced target, or `None`
    /// if the node has no out-edges.
    pub fn move_edge(
        &self,
        tx: &mut dyn zstm_api::DynTx,
        node: u64,
        slot: usize,
        new_target: u64,
    ) -> Result<Option<u64>, zstm_core::Abort> {
        let mut targets = match self.adjacency.get(tx, &node)? {
            Some(targets) if !targets.is_empty() => targets,
            _ => return Ok(None),
        };
        let slot = slot % targets.len();
        let old_target = targets[slot];
        targets[slot] = new_target;
        self.adjacency.insert(tx, &node, &targets)?;
        if old_target != new_target {
            // Sequential read-modify-writes on the index: the second pair
            // relies on read-your-own-writes when both nodes share a
            // bucket.
            let outgoing = self.index.get(tx, &old_target)?.unwrap_or(0);
            self.index.insert(tx, &old_target, &(outgoing - 1))?;
            let incoming = self.index.get(tx, &new_target)?.unwrap_or(0);
            self.index.insert(tx, &new_target, &(incoming + 1))?;
        }
        Ok(Some(old_target))
    }

    /// Recomputes every in-degree from the adjacency map and compares it
    /// against the index; returns `(total_edges, index_matches)`.
    pub fn audit(
        &self,
        tx: &mut dyn zstm_api::DynTx,
        nodes: usize,
    ) -> Result<(usize, bool), zstm_core::Abort> {
        let mut actual = vec![0i64; nodes];
        let mut total = 0usize;
        self.adjacency.for_each(tx, |_, targets: Vec<u64>| {
            for t in &targets {
                actual[*t as usize % nodes] += 1;
            }
            total += targets.len();
        })?;
        let mut indexed = vec![None; nodes];
        self.index.for_each(tx, |node, degree: i64| {
            indexed[node as usize % nodes] = Some(degree);
        })?;
        let matches = actual
            .iter()
            .zip(&indexed)
            .all(|(computed, stored)| *stored == Some(*computed));
        Ok((total, matches))
    }
}

/// Runs the graph workload against `stm` — the erased facade, so one
/// compiled driver serves every engine, certified wrappers included.
pub fn run_graph(stm: &Arc<dyn DynStm>, config: &GraphConfig) -> GraphReport {
    let graph = TxGraph::seed(&**stm, config);
    let move_policy = RetryPolicy::unbounded();
    // Audits walk both maps in full; bounded so a starved audit cannot
    // hang a sweep (same convention as the map workload's scans).
    let audit_policy = RetryPolicy::unbounded().with_max_attempts(200);

    let (workers, elapsed) = run_window(config.threads, config.duration, |t, window| {
        let mut rng = XorShift64::new(config.seed.wrapping_add(t as u64 * 104_729));
        let mut moves = 0u64;
        let mut audits = 0u64;
        let mut consistent = true;
        while window.is_open() {
            if rng.next_percent(config.audit_pct) {
                let audit = stm.atomically(TxKind::Long, &audit_policy, |tx| {
                    graph.audit(tx, config.nodes)
                });
                if let Ok((total, matches)) = audit {
                    consistent &= total == config.total_edges() && matches;
                    audits += 1;
                }
            } else {
                let node = rng.next_range(config.nodes as u64);
                let slot = rng.next_range(config.edges_per_node as u64) as usize;
                let new_target = rng.next_range(config.nodes as u64);
                let moved = stm.atomically(TxKind::Short, &move_policy, |tx| {
                    graph.move_edge(tx, node, slot, new_target)
                });
                if let Ok(displaced) = moved {
                    // Every node keeps a constant positive out-degree,
                    // so a committed move always displaces an edge.
                    consistent &= displaced.is_some();
                    moves += 1;
                }
            }
        }
        (moves, audits, consistent)
    });

    let mut moves = 0u64;
    let mut audits = 0u64;
    let mut consistent = true;
    for (m, a, ok) in workers {
        moves += m;
        audits += a;
        consistent &= ok;
    }
    // Final quiescent audit from the harness thread: the invariants must
    // hold at rest even if no worker audit committed.
    let (total, matches) = stm
        .atomically(TxKind::Long, &RetryPolicy::unbounded(), |tx| {
            graph.audit(tx, config.nodes)
        })
        .expect("quiescent audit cannot starve");
    consistent &= total == config.total_edges() && matches;
    let stats: TxStats = stm.take_stats();
    let commits = moves + audits;
    GraphReport {
        stm: stm.name(),
        threads: config.threads,
        elapsed,
        moves,
        audits,
        ops_per_sec: commits as f64 / elapsed.as_secs_f64(),
        stats,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_api::Stm;
    use zstm_core::StmConfig;
    use zstm_lsa::LsaStm;
    use zstm_z::ZStm;

    fn dyn_stm(threads: usize, z: bool) -> Arc<dyn DynStm> {
        // One extra logical thread for the harness's final audit.
        let c = StmConfig::new(threads + 1);
        if z {
            Arc::new(Stm::new(ZStm::new(c)))
        } else {
            Arc::new(Stm::new(LsaStm::new(c)))
        }
    }

    #[test]
    fn graph_stays_consistent_on_lsa() {
        let config = GraphConfig::quick(2);
        let report = run_graph(&dyn_stm(config.threads, false), &config);
        assert!(report.moves > 0, "moves must commit");
        assert!(report.consistent, "audits must find a coherent index");
    }

    #[test]
    fn graph_stays_consistent_on_z() {
        let config = GraphConfig::quick(2);
        let report = run_graph(&dyn_stm(config.threads, true), &config);
        assert!(report.commits() > 0);
        assert!(report.consistent);
    }

    #[test]
    fn move_edge_updates_the_index_atomically() {
        let stm = dyn_stm(1, false);
        let config = GraphConfig {
            nodes: 4,
            buckets: 2,
            edges_per_node: 1,
            ..GraphConfig::quick(1)
        };
        let graph = TxGraph::seed(&*stm, &config);
        // Node 0 points at node 1; move that edge onto node 3.
        let displaced = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                graph.move_edge(tx, 0, 0, 3)
            })
            .expect("move");
        assert_eq!(displaced, Some(1));
        let (deg1, deg3, total, matches) = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                let (total, matches) = graph.audit(tx, config.nodes)?;
                Ok((
                    graph.index.get(tx, &1)?,
                    graph.index.get(tx, &3)?,
                    total,
                    matches,
                ))
            })
            .expect("read");
        assert_eq!(deg1, Some(0));
        assert_eq!(deg3, Some(2));
        assert_eq!(total, config.total_edges());
        assert!(matches);
    }

    #[test]
    fn self_loop_move_keeps_the_index_fixed() {
        let stm = dyn_stm(1, false);
        let config = GraphConfig {
            nodes: 2,
            buckets: 1,
            edges_per_node: 1,
            ..GraphConfig::quick(1)
        };
        let graph = TxGraph::seed(&*stm, &config);
        // Swap node 0's edge onto itself twice: old == new on the second
        // move, which must leave the index untouched.
        for _ in 0..2 {
            stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                graph.move_edge(tx, 0, 0, 0)
            })
            .expect("move");
        }
        let (total, matches) = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                graph.audit(tx, config.nodes)
            })
            .expect("audit");
        assert_eq!(total, config.total_edges());
        assert!(matches);
    }
}
