use std::sync::Arc;

use crate::{CmPolicy, EventSink, NullSink};

/// Configuration shared by every STM in the workspace.
///
/// Built with a non-consuming builder:
///
/// ```
/// use zstm_core::{CmPolicy, StmConfig};
///
/// let mut config = StmConfig::new(8);
/// config.cm(CmPolicy::Karma).max_versions(4);
/// assert_eq!(config.threads(), 8);
/// assert_eq!(config.cm_policy(), CmPolicy::Karma);
/// ```
#[derive(Clone)]
pub struct StmConfig {
    threads: usize,
    cm: CmPolicy,
    max_versions: usize,
    readonly_readsets: bool,
    sink: Arc<dyn EventSink>,
}

impl StmConfig {
    /// Default bound on retained versions per object (multi-version STMs).
    pub const DEFAULT_MAX_VERSIONS: usize = 8;

    /// Creates a configuration for `threads` logical threads with default
    /// settings: Polite contention management, 8 retained versions, read
    /// sets maintained for read-only transactions, events disabled.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "an STM needs at least one thread");
        Self {
            threads,
            cm: CmPolicy::default(),
            max_versions: Self::DEFAULT_MAX_VERSIONS,
            readonly_readsets: true,
            sink: Arc::new(NullSink),
        }
    }

    /// Selects the contention-management policy.
    pub fn cm(&mut self, policy: CmPolicy) -> &mut Self {
        self.cm = policy;
        self
    }

    /// Bounds the number of versions retained per object (≥ 1). Only
    /// multi-version STMs (LSA and the STMs built on it) consult this.
    pub fn max_versions(&mut self, max: usize) -> &mut Self {
        self.max_versions = max.max(1);
        self
    }

    /// Chooses whether read-only transactions maintain read sets.
    ///
    /// `true` is plain LSA-STM; `false` is the optimized "LSA-STM (no
    /// readsets)" variant from Figure 6 that detects read-only transactions
    /// and serves them from the version history without validation.
    pub fn readonly_readsets(&mut self, enabled: bool) -> &mut Self {
        self.readonly_readsets = enabled;
        self
    }

    /// Installs an event sink for history recording.
    pub fn event_sink(&mut self, sink: Arc<dyn EventSink>) -> &mut Self {
        self.sink = sink;
        self
    }

    /// Number of logical threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selected contention-management policy.
    pub fn cm_policy(&self) -> CmPolicy {
        self.cm
    }

    /// Bound on retained versions per object.
    pub fn max_versions_per_object(&self) -> usize {
        self.max_versions
    }

    /// Whether read-only transactions maintain read sets.
    pub fn readonly_uses_readsets(&self) -> bool {
        self.readonly_readsets
    }

    /// The configured event sink.
    pub fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }
}

impl std::fmt::Debug for StmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmConfig")
            .field("threads", &self.threads)
            .field("cm", &self.cm)
            .field("max_versions", &self.max_versions)
            .field("readonly_readsets", &self.readonly_readsets)
            .field("events", &self.sink.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let config = StmConfig::new(4);
        assert_eq!(config.threads(), 4);
        assert_eq!(config.cm_policy(), CmPolicy::Polite);
        assert_eq!(
            config.max_versions_per_object(),
            StmConfig::DEFAULT_MAX_VERSIONS
        );
        assert!(config.readonly_uses_readsets());
        assert!(!config.sink().enabled());
    }

    #[test]
    fn builder_chains() {
        let mut config = StmConfig::new(2);
        config
            .cm(CmPolicy::Greedy)
            .max_versions(0) // clamped to 1
            .readonly_readsets(false);
        assert_eq!(config.cm_policy(), CmPolicy::Greedy);
        assert_eq!(config.max_versions_per_object(), 1);
        assert!(!config.readonly_uses_readsets());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = StmConfig::new(0);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", StmConfig::new(1)).contains("StmConfig"));
    }
}
