//! The shared, bounded plan cache.
//!
//! Compiling a [`RemapPlan`] is the expensive part of a view change —
//! ray tracing the map plus quantizing LUTs and building span/tile
//! indexes. When many sessions watch the *same* view (the security
//! console case: every operator gets the default wide shot), each
//! compile should happen **once** and the resulting immutable plan be
//! shared by `Arc`.
//!
//! [`PlanCache`] is keyed by [`fisheye_core::plan_request_digest`],
//! the pre-compile digest of the whole request (lens, view, source
//! dims, plan options) — so a hit costs a hash lookup, never a map
//! trace. The cache is bounded to `capacity` entries with LRU
//! eviction, and concurrent requests for the same digest are
//! *single-flighted*: the first caller compiles while the rest block
//! on a condvar and receive the same `Arc`. Hit / miss / eviction /
//! byte counters feed the serve [`Registry`].

// Admission and every view change resolve plans here, on the serving
// threads: a panic takes a shard down.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fisheye_core::plan::RemapPlan;
use par_runtime::sync::{Condvar, Mutex};

use crate::metrics::Registry;

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry (includes waits on an
    /// in-flight compile — the work was still done once).
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Ready entries discarded to stay within capacity.
    pub evictions: u64,
    /// Ready entries currently cached.
    pub entries: usize,
    /// Total bytes of plan data currently cached (LUTs, spans, tile
    /// indexes — what `RemapPlan::bytes` reports).
    pub bytes: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (1.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CachedPlan {
    plan: Arc<RemapPlan>,
    last_used: u64,
    bytes: usize,
}

struct CacheState {
    entries: HashMap<u64, CachedPlan>,
    /// Digests currently being compiled by some caller.
    inflight: HashSet<u64>,
    /// Monotonic LRU clock.
    tick: u64,
}

struct CacheInner {
    capacity: usize,
    state: Mutex<CacheState>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Removes the in-flight mark when the compiling caller unwinds, so a
/// panicking compile closure never strands its waiters.
struct InflightGuard<'a> {
    inner: &'a CacheInner,
    digest: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.inflight.remove(&self.digest);
        drop(state);
        self.inner.ready.notify_all();
    }
}

/// A bounded, digest-keyed, LRU cache of compiled remap plans shared
/// by every session of a [`Server`](crate::Server), and by every
/// shard of a [`NetServer`](crate::NetServer). Clone-cheap (`Arc`
/// inside); all clones share one store.
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<CacheInner>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.inner.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` ready plans.
    /// `capacity == 0` is a [`fisheye::Error::Config`] — a cache that
    /// can hold nothing would recompile on every frame-facing view
    /// change, silently.
    pub fn new(capacity: usize) -> Result<PlanCache, fisheye::Error> {
        if capacity == 0 {
            return Err(fisheye::Error::config(
                "plan cache capacity must be at least 1",
            ));
        }
        Ok(PlanCache {
            inner: Arc::new(CacheInner {
                capacity,
                state: Mutex::new(CacheState {
                    entries: HashMap::new(),
                    inflight: HashSet::new(),
                    tick: 0,
                }),
                ready: Condvar::new(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        })
    }

    /// The plan for `digest`, compiling it with `compile` on a miss.
    ///
    /// Identical concurrent requests compile **once**: the first
    /// caller runs `compile` outside the lock, later callers block
    /// until the entry is ready and share the same `Arc`. Distinct
    /// digests compile in parallel. On a miss that grows the cache
    /// past capacity, the least-recently-used *ready* entries are
    /// evicted (plans still held by sessions stay alive through their
    /// own `Arc`s — eviction only forgets, it never invalidates).
    pub fn get_or_compile(
        &self,
        digest: u64,
        compile: impl FnOnce() -> RemapPlan,
    ) -> Arc<RemapPlan> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        loop {
            if state.entries.contains_key(&digest) {
                state.tick += 1;
                let tick = state.tick;
                if let Some(entry) = state.entries.get_mut(&digest) {
                    entry.last_used = tick;
                    let plan = Arc::clone(&entry.plan);
                    inner.hits.fetch_add(1, Ordering::Relaxed);
                    return plan;
                }
            }
            if state.inflight.contains(&digest) {
                inner.ready.wait(&mut state);
                continue;
            }
            state.inflight.insert(digest);
            break;
        }
        drop(state);
        let guard = InflightGuard { inner, digest };
        let plan = Arc::new(compile());
        let bytes = plan.bytes();
        let mut state = inner.state.lock();
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(
            digest,
            CachedPlan {
                plan: Arc::clone(&plan),
                last_used: tick,
                bytes,
            },
        );
        inner.misses.fetch_add(1, Ordering::Relaxed);
        while state.entries.len() > inner.capacity {
            let oldest = state
                .entries
                .iter()
                .filter(|(k, _)| **k != digest)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match oldest {
                Some(k) => {
                    state.entries.remove(&k);
                    inner.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        drop(state);
        drop(guard); // clears in-flight and wakes waiters
        plan
    }

    /// Whether a ready plan for `digest` is cached (no LRU touch).
    pub fn contains(&self, digest: u64) -> bool {
        self.inner.state.lock().entries.contains_key(&digest)
    }

    /// Maximum ready entries.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.inner.state.lock();
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            entries: state.entries.len(),
            bytes: state.entries.values().map(|e| e.bytes).sum(),
        }
    }

    /// Export the counters into `registry` under `prefix`
    /// (`<prefix>.hits` counter-style gauges and entry/byte gauges).
    pub fn export(&self, registry: &Registry, prefix: &str) {
        let s = self.stats();
        registry.gauge(&format!("{prefix}.hits"), s.hits as f64);
        registry.gauge(&format!("{prefix}.misses"), s.misses as f64);
        registry.gauge(&format!("{prefix}.evictions"), s.evictions as f64);
        registry.gauge(&format!("{prefix}.hit_rate"), s.hit_rate());
        registry.gauge(&format!("{prefix}.entries"), s.entries as f64);
        registry.gauge(&format!("{prefix}.bytes"), s.bytes as f64);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use fisheye_core::plan::PlanOptions;
    use fisheye_core::RemapMap;
    use fisheye_geom::{FisheyeLens, PerspectiveView};

    fn compile_view(idx: u32) -> RemapPlan {
        let lens = FisheyeLens::equidistant_fov(96, 72, 180.0);
        let view = PerspectiveView::centered(48, 36, 90.0).look(idx as f64, 0.0);
        let map = RemapMap::build(&lens, &view, 96, 72);
        RemapPlan::compile(&map, PlanOptions::default())
    }

    #[test]
    fn zero_capacity_is_a_config_error() {
        let err = PlanCache::new(0).expect_err("must reject");
        assert_eq!(err.kind(), fisheye::ErrorKind::Config);
    }

    #[test]
    fn hit_returns_the_same_arc_without_recompiling() {
        let cache = PlanCache::new(4).expect("capacity ok");
        let a = cache.get_or_compile(1, || compile_view(0));
        let b = cache.get_or_compile(1, || panic!("must not recompile"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, a.bytes());
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_only() {
        let cache = PlanCache::new(2).expect("capacity ok");
        cache.get_or_compile(1, || compile_view(1));
        cache.get_or_compile(2, || compile_view(2));
        cache.get_or_compile(1, || panic!("1 is cached")); // 1 now MRU
        cache.get_or_compile(3, || compile_view(3)); // evicts 2
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn eviction_never_invalidates_held_plans() {
        let cache = PlanCache::new(1).expect("capacity ok");
        let held = cache.get_or_compile(1, || compile_view(1));
        cache.get_or_compile(2, || compile_view(2)); // evicts 1
        assert!(!cache.contains(1));
        assert!(held.width() > 0, "session's Arc keeps the plan alive");
    }

    #[test]
    fn panicking_compile_releases_waiters() {
        let cache = PlanCache::new(2).expect("capacity ok");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compile(9, || panic!("compile failed"))
        }));
        assert!(result.is_err());
        // the digest is no longer in-flight: a retry compiles fresh
        let plan = cache.get_or_compile(9, || compile_view(9));
        assert!(plan.width() > 0);
    }
}
