//! Fingerprint-keyed result cache.
//!
//! Completed reports are stored under their scenario fingerprint
//! ([`crate::RunSpec::fingerprint`]). Soundness: the determinism oracles
//! pin that equal result-affecting inputs produce byte-identical reports,
//! and the fingerprint hashes exactly those inputs — so serving a cached
//! report is indistinguishable from re-running the scenario.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use elastisim::Report;

/// A completed run: the report and its [`Report::digest`], computed once.
/// The cache and every [`crate::RunRecord`] answering the scenario share
/// one `Arc` of it.
#[derive(Debug)]
pub struct CachedRun {
    /// The report, as produced by the original execution.
    pub report: Report,
    /// The report's `rdg1-` digest.
    pub digest: String,
}

impl CachedRun {
    /// Wraps a finished report, digesting it.
    pub fn new(report: Report) -> Self {
        let digest = report.digest();
        CachedRun { report, digest }
    }
}

/// Thread-safe scenario-fingerprint → report cache, shared by every
/// worker of an executor and kept across its campaigns.
///
/// Failed runs are never cached: errors and panics must re-execute on
/// resubmission so transient causes can clear.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<String, Arc<CachedRun>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Looks up a fingerprint, counting the hit or miss.
    pub fn get(&self, fingerprint: &str) -> Option<Arc<CachedRun>> {
        let found = self.lock().get(fingerprint).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a completed run. Two workers racing the same scenario both
    /// insert byte-identical values (determinism), so last-write-wins is
    /// harmless.
    pub fn insert(&self, fingerprint: String, run: Arc<CachedRun>) {
        self.lock().insert(fingerprint, run);
    }

    /// Number of cached scenarios.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Lookups served from cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<CachedRun>>> {
        // Forgive poisoning: a panicking run must not wedge the cache for
        // the rest of the pool.
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_and_counters() {
        let cache = ResultCache::new();
        assert!(cache.is_empty());
        assert!(cache.get("sfp1-x").is_none());
        let run = Arc::new(CachedRun::new(Report::default()));
        cache.insert("sfp1-x".into(), Arc::clone(&run));
        let hit = cache.get("sfp1-x").expect("cached");
        assert!(Arc::ptr_eq(&hit, &run));
        assert_eq!(hit.digest, Report::default().digest());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }
}
