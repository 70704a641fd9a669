//! The one least-recently-used map of the stack, behind both the transpile
//! cache and the executor's result cache.

use std::collections::HashMap;
use std::hash::Hash;

/// A map of at most `capacity` entries. Recency is a logical clock
/// bumped on every hit and insert; eviction scans for the oldest stamp,
/// which is cheap at the few hundred entries the caches hold and
/// allocates nothing.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    /// Each value with the tick of its last use.
    entries: HashMap<K, (V, u64)>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty map bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), entries: HashMap::new(), tick: 0 }
    }

    /// Looks a value up and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let (value, last_used) = self.entries.get_mut(key)?;
        *last_used = self.tick;
        Some(value)
    }

    /// Stores a value as the most recently used entry. When the key is new
    /// and the map full, the least recently used entry is evicted first
    /// and returned, so the caller can count it.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let mut evicted = None;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let victim = self.entries.iter().min_by_key(|(_, (_, last_used))| *last_used);
            let victim = victim.map(|(victim, _)| victim.clone()).expect("a full map has entries");
            evicted = self.entries.remove_entry(&victim).map(|(key, (value, _))| (key, value));
        }
        self.entries.insert(key, (value, self.tick));
        evicted
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        let mut lru = Lru::new(4);
        assert!(lru.get(&7u128).is_none());
        assert!(lru.insert(7, "seven").is_none());
        assert_eq!(lru.get(&7), Some(&"seven"));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let mut lru = Lru::new(2);
        assert!(lru.insert('a', 1).is_none());
        assert!(lru.insert('b', 2).is_none());
        assert!(lru.get(&'a').is_some(), "touch a so b is the oldest");
        assert_eq!(lru.insert('c', 3), Some(('b', 2)), "b is evicted and handed back");
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&'b').is_none());
        assert!(lru.get(&'a').is_some() && lru.get(&'c').is_some());
    }

    #[test]
    fn inserts_refresh_recency_and_replacing_a_key_evicts_nothing() {
        let mut lru = Lru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert!(lru.insert(1, "uno").is_none(), "replacing at capacity evicts nothing");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.insert(3, "three"), Some((2, "two")), "the replaced key is now newest");
        assert_eq!(lru.get(&1), Some(&"uno"));
    }

    #[test]
    fn capacity_is_at_least_one_and_clear_empties() {
        let mut lru = Lru::new(0);
        lru.insert(1, ());
        assert_eq!(lru.insert(2, ()), Some((1, ())));
        assert_eq!(lru.len(), 1);
        lru.clear();
        assert!(lru.is_empty());
        assert!(lru.get(&2).is_none());
    }
}
