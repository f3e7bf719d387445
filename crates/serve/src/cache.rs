//! The result cache: a small LRU of finished predictions.
//!
//! Answering a repeated query from its encoded frame skips the whole
//! pipeline, so the server keeps the last `capacity` responses keyed by
//! `(model, content hash)`. Recency is a monotonic tick per entry;
//! eviction scans for the minimum tick — O(capacity), which is deliberate:
//! capacities are tens of designs, and the scan is branch-predictable, far
//! below the cost of the one forward pass it saves.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// The **result cache**: finished predictions keyed by
/// `(requested model name, design content hash)`. Event-loop threads
/// consult it *before enqueueing a job* — a hit serves the whole
/// prediction without ever waking an inference lane — and the lanes insert
/// after each successful forward and clear it on a successful `/reload`.
///
/// The value is the **encoded response frame**, not the decoded
/// [`crate::proto::PredictResponse`]: a hit is written to the socket as-is,
/// skipping the re-encode (which at 870 px full-scale maps copies megabytes
/// per hit). The frame is built exactly once, on the lane that ran the
/// forward pass which produced it.
///
/// Keyed by the *requested* name (not the registry-canonical one) because
/// the connection layer must not wait on the registry lock to resolve
/// aliases; the empty default-model alias simply populates its own entries.
pub type ResultCache = Arc<Mutex<LruCache<(String, u64), Arc<[u8]>>>>;

/// Builds a fresh shared result cache of the given capacity (0 disables).
#[must_use]
pub fn result_cache(capacity: usize) -> ResultCache {
    Arc::new(Mutex::new(LruCache::new(capacity)))
}

/// Least-recently-used cache with a fixed capacity.
///
/// A capacity of `0` disables caching (every `get` misses, `insert` is a
/// no-op), which keeps call sites free of special cases.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone + Ord, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    ///
    /// Misses leave the tick counter untouched: only operations that stamp
    /// an entry advance it, so the counter's value is exactly the number of
    /// recency stamps handed out (and a miss storm cannot burn through the
    /// counter's range).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (t, v) = self.map.get_mut(key)?;
        self.tick += 1;
        *t = self.tick;
        Some(v)
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// entry when full. Ties on recency evict the smallest key, so eviction
    /// never depends on `HashMap` iteration order.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            // Replacement refreshes in place: the entry must not also run
            // the eviction path, which would count it against capacity a
            // second time and evict an innocent victim.
            *entry = (tick, value);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by(|a, b| (a.1 .0, a.0).cmp(&(b.1 .0, b.0)))
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (tick, value));
    }

    /// Recency stamps handed out so far (test hook for the tick discipline).
    #[cfg(test)]
    fn current_tick(&self) -> u64 {
        self.tick
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (used on model reload: predictions are
    /// per-model-weights and must not outlive a swap).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn misses_do_not_advance_the_tick() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        let after_insert = c.current_tick();
        for _ in 0..100 {
            assert_eq!(c.get(&"zzz"), None);
        }
        assert_eq!(c.current_tick(), after_insert, "misses must not stamp");
        c.get(&"a");
        assert_eq!(c.current_tick(), after_insert + 1, "hits stamp once");
    }

    #[test]
    fn replacement_at_capacity_evicts_nothing_and_refreshes() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Replacing `a` at capacity is not an arrival: both keys survive,
        // and the replacement counts as a use of `a`.
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        c.insert("c", 3); // `a` outlived its replacement: `b` is oldest
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn eviction_ties_break_on_the_smallest_key() {
        // Ticks are unique in normal operation, so force a tie by building
        // the state by hand — the tiebreak must pick the smallest key, not
        // whatever the hash map yields first.
        let mut c = LruCache::new(3);
        c.insert("b", 2);
        c.insert("c", 3);
        c.insert("a", 1);
        for (t, _) in c.map.values_mut() {
            *t = 7;
        }
        c.insert("d", 4);
        assert_eq!(c.get(&"a"), None, "smallest key loses the tie");
        assert_eq!(c.len(), 3);
        assert!(c.get(&"b").is_some() && c.get(&"c").is_some() && c.get(&"d").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, "x");
        c.clear();
        assert!(c.is_empty());
    }
}
