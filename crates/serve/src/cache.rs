//! LRU response cache keyed on canonicalized queries.
//!
//! The key is the *semantic* query — case-study tag, `topk`, and the exact
//! integer parameters — not the JSON text, so two bodies that differ only
//! in field order or float formatting share an entry. Every entry is
//! stamped with the generation of the model that produced it; a lookup
//! whose generation no longer matches the live model is treated as a miss,
//! which makes hot-reload invalidation race-free: a thread still finishing
//! an old-model answer can insert stale entries after the swap without any
//! client ever observing them.

use std::collections::HashMap;

/// A cached rendered response.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResponse {
    /// The rendered result JSON with the leading `{` stripped (the handler
    /// re-wraps it with a `"cached"` flag).
    pub body_tail: String,
    /// Generation of the model that computed it.
    pub generation: u64,
}

struct Node {
    key: Vec<u8>,
    value: CachedResponse,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU map from canonical query bytes to rendered
/// responses. O(1) get/put via a `HashMap` into an intrusive doubly-linked
/// list over a slab of nodes.
pub struct LruCache {
    map: HashMap<Vec<u8>, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries (zero disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit. Entries
    /// whose generation differs from `live_generation` are evicted and
    /// reported as misses.
    pub fn get(&mut self, key: &[u8], live_generation: u64) -> Option<CachedResponse> {
        let idx = *self.map.get(key)?;
        if self.nodes[idx].value.generation != live_generation {
            self.remove_idx(idx);
            return None;
        }
        self.detach(idx);
        self.push_front(idx);
        Some(self.nodes[idx].value.clone())
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry
    /// when at capacity. A zero-capacity cache drops everything.
    pub fn put(&mut self, key: Vec<u8>, value: CachedResponse) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.remove_idx(lru);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn remove_idx(&mut self, idx: usize) {
        self.detach(idx);
        let key = std::mem::take(&mut self.nodes[idx].key);
        self.nodes[idx].value.body_tail.clear();
        self.map.remove(&key);
        self.free.push(idx);
    }

    /// Drops every entry (hot-reload hygiene; correctness is already
    /// guaranteed by the generation check in [`LruCache::get`]).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tail: &str, generation: u64) -> CachedResponse {
        CachedResponse {
            body_tail: tail.to_string(),
            generation,
        }
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = LruCache::new(2);
        c.put(b"a".to_vec(), resp("A", 1));
        c.put(b"b".to_vec(), resp("B", 1));
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(c.get(b"a", 1).unwrap().body_tail, "A");
        c.put(b"c".to_vec(), resp("C", 1));
        assert_eq!(c.len(), 2);
        assert!(c.get(b"b", 1).is_none(), "b should have been evicted");
        assert!(c.get(b"a", 1).is_some());
        assert!(c.get(b"c", 1).is_some());
    }

    #[test]
    fn generation_mismatch_is_a_miss_and_evicts() {
        let mut c = LruCache::new(4);
        c.put(b"a".to_vec(), resp("A", 1));
        assert!(c.get(b"a", 2).is_none());
        assert_eq!(c.len(), 0);
        // A stale late insertion from an old-model answer is also invisible.
        c.put(b"a".to_vec(), resp("OLD", 1));
        assert!(c.get(b"a", 2).is_none());
    }

    #[test]
    fn replacement_updates_in_place() {
        let mut c = LruCache::new(2);
        c.put(b"a".to_vec(), resp("A1", 1));
        c.put(b"a".to_vec(), resp("A2", 1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(b"a", 1).unwrap().body_tail, "A2");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put(b"a".to_vec(), resp("A", 1));
        assert!(c.get(b"a", 1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_reuses_slots() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.put(i.to_le_bytes().to_vec(), resp("x", 1));
        }
        assert_eq!(c.len(), 8);
        assert!(c.nodes.len() <= 9, "slab should not grow unboundedly");
        // The 8 most recent keys are present.
        for i in 992..1000u32 {
            assert!(c.get(&i.to_le_bytes(), 1).is_some());
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = LruCache::new(4);
        c.put(b"a".to_vec(), resp("A", 1));
        c.put(b"b".to_vec(), resp("B", 1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(b"a", 1).is_none());
        c.put(b"c".to_vec(), resp("C", 2));
        assert_eq!(c.get(b"c", 2).unwrap().body_tail, "C");
    }
}
