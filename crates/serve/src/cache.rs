//! Sharded LRU cache for predictions.
//!
//! Keyed on `(program id, metric, canonical config encoding)` — the raw
//! 13-parameter vector, so two JSON spellings of the same configuration
//! share an entry. A request resolves `(program, metric)` once into a
//! [`Prefix`]; each configuration's hash continues from its hasher state,
//! so a lookup or insert costs one hash, allocates nothing, and picks the
//! shard the whole [`CacheKey`] hashes to. Only that shard's mutex is
//! taken. A shard keeps its slots in a recency list (O(1) touch and evict)
//! and evicts its own LRU entry at capacity, bounding the cache at
//! `shards × per-shard capacity` entries.
//!
//! An insert is dropped if its target was invalidated, or the cache
//! cleared, since its prefix was taken: a value computed from a replaced
//! combiner is never cached after the refit or reload that replaced it.

use dse_sim::Metric;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

const POISONED: &str = "a prediction-cache lock holder panicked";

/// Cache key: one program's one metric at one configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Program id the prediction belongs to.
    pub program: String,
    /// Target metric.
    pub metric: Metric,
    /// Canonical configuration encoding: per-parameter value indices
    /// ([`dse_space::Config::to_indices`]), widened to `u64`.
    pub config: [u64; 13],
}

/// An interned `(program, metric)`. Ids are never reused; `invalidate`
/// bumps the generation.
#[derive(Debug)]
struct Target {
    id: u32,
    generation: AtomicU64,
}

/// A `(program, metric)` resolved for [`PredictionCache::get_in`] and
/// [`PredictionCache::insert_in`]: the hasher state after both, and the
/// target's generation and cache's epoch as they were. Take it before
/// reading the combiner whose predictions will be inserted.
#[derive(Debug)]
pub struct Prefix<'a> {
    program: &'a str,
    metric: Metric,
    hasher: DefaultHasher,
    /// `None` until the target's first insert or invalidation interns it.
    target: Option<Arc<Target>>,
    seen: (u64, u64),
}

/// `(hash, target id, config)`. The shard map hashes only the stored
/// hash, under per-cache random keys; equality compares all three.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Key(u64, u32, [u64; 13]);

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
    }
}

fn key(hasher: &DefaultHasher, target: u32, config: &[u64; 13]) -> Key {
    let mut h = hasher.clone();
    config.hash(&mut h);
    Key(h.finish(), target, *config)
}

#[derive(Clone, Copy, Default)]
struct Slot {
    key: Key,
    value: f64,
    prev: u32,
    next: u32,
}

/// A slab of slots in a circular recency list whose sentinel is
/// `slots[0]`: its `next` is the most, its `prev` the least recently used.
struct Shard {
    map: HashMap<Key, u32, RandomState>,
    slots: Vec<Slot>,
}

impl Shard {
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
    }

    fn push_front(&mut self, i: u32) {
        let head = self.slots[0].next;
        (self.slots[i as usize].prev, self.slots[i as usize].next) = (0, head);
        (self.slots[head as usize].prev, self.slots[0].next) = (i, i);
    }

    fn touch(&mut self, key: &Key) -> Option<f64> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i as usize].value)
    }

    fn insert(&mut self, key: Key, value: f64, capacity: usize) {
        let i = match self.map.get(&key) {
            Some(&i) => i,
            None if self.map.len() >= capacity => {
                let lru = self.slots[0].prev;
                self.map.remove(&self.slots[lru as usize].key);
                lru
            }
            None => {
                // Linked in at once, so every arm's slot can be unlinked.
                self.slots.push(Slot::default());
                self.push_front(self.slots.len() as u32 - 1);
                self.slots.len() as u32 - 1
            }
        };
        self.unlink(i);
        (self.slots[i as usize].key, self.slots[i as usize].value) = (key, value);
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.truncate(1);
        self.slots[0] = Slot::default();
    }

    /// Drops `target`'s entries, rebuilding the slab in recency order.
    fn sweep(&mut self, target: u32) {
        let mut live = Vec::with_capacity(self.map.len());
        let mut i = self.slots[0].prev;
        while i != 0 {
            live.push(self.slots[i as usize]);
            i = self.slots[i as usize].prev;
        }
        self.clear();
        for slot in live.into_iter().filter(|s| s.key.1 != target) {
            self.insert(slot.key, slot.value, usize::MAX);
        }
    }
}

/// A sharded LRU prediction cache.
pub struct PredictionCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    targets: Mutex<HashMap<Metric, HashMap<String, Arc<Target>>>>,
    /// Bumped by `clear`. This and the generations are `Relaxed`: an
    /// insert reads both under the shard lock that the sweep following
    /// each bump takes, and a prefix is taken before the registry lock
    /// whose refit or reload precedes the bump.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionCache {
    /// A cache of `shards` shards holding at most `capacity` entries in
    /// total (rounded up to a multiple of the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero, or a shard would hold
    /// `u32::MAX` entries.
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "capacity must be positive");
        let per_shard = capacity.div_ceil(shards);
        assert!(per_shard < u32::MAX as usize, "too many entries per shard");
        let keys = RandomState::new();
        let shard = |_| {
            let (map, slots) = (HashMap::with_hasher(keys.clone()), vec![Slot::default()]);
            Mutex::new(Shard { map, slots })
        };
        Self {
            shards: (0..shards).map(shard).collect(),
            per_shard,
            targets: Mutex::default(),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn intern(&self, program: &str, metric: Metric) -> Arc<Target> {
        let mut targets = self.targets.lock().expect(POISONED);
        let count = targets.values().map(HashMap::len).sum::<usize>();
        let id = u32::try_from(count).expect("fewer than 2^32 interned targets");
        let of_metric = targets.entry(metric).or_default();
        if !of_metric.contains_key(program) {
            let generation = AtomicU64::new(0);
            of_metric.insert(program.to_string(), Arc::new(Target { id, generation }));
        }
        of_metric[program].clone()
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[(key.0 as usize) % self.shards.len()]
    }

    /// Resolves `(program, metric)` for a run of lookups and inserts.
    pub fn prefix<'a>(&self, program: &'a str, metric: Metric) -> Prefix<'a> {
        let mut hasher = DefaultHasher::new();
        (program, metric).hash(&mut hasher);
        let targets = self.targets.lock().expect(POISONED);
        let target = targets.get(&metric).and_then(|t| t.get(program)).cloned();
        let generation = target.as_ref().map_or(0, |t| t.generation.load(Relaxed));
        let seen = (generation, self.epoch.load(Relaxed));
        Prefix {
            program,
            metric,
            hasher,
            target,
            seen,
        }
    }

    /// Looks `config` up under `prefix`, refreshing its recency and
    /// counting a hit or miss.
    pub fn get_in(&self, prefix: &Prefix, config: &[u64; 13]) -> Option<f64> {
        let found = prefix.target.as_ref().and_then(|t| {
            let key = key(&prefix.hasher, t.id, config);
            self.shard(&key).lock().expect(POISONED).touch(&key)
        });
        match found {
            Some(_) => self.hits.fetch_add(1, Relaxed),
            None => self.misses.fetch_add(1, Relaxed),
        };
        found
    }

    /// Inserts (or refreshes) a prediction under `prefix`, evicting the
    /// shard's LRU entry at capacity — unless `(program, metric)` was
    /// invalidated, or the cache cleared, after `prefix` was taken.
    pub fn insert_in(&self, prefix: &mut Prefix, config: &[u64; 13], value: f64) {
        let target =
            (prefix.target).get_or_insert_with(|| self.intern(prefix.program, prefix.metric));
        let key = key(&prefix.hasher, target.id, config);
        let mut shard = self.shard(&key).lock().expect(POISONED);
        if (target.generation.load(Relaxed), self.epoch.load(Relaxed)) == prefix.seen {
            shard.insert(key, value, self.per_shard);
        }
    }

    /// Looks `key` up, refreshing its recency and counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        self.get_in(&self.prefix(&key.program, key.metric), &key.config)
    }

    /// Inserts (or refreshes) a prediction, evicting the shard's LRU entry
    /// at capacity.
    pub fn insert(&self, key: CacheKey, value: f64) {
        self.insert_in(
            &mut self.prefix(&key.program, key.metric),
            &key.config,
            value,
        );
    }

    /// Drops every entry of `(program, metric)` — required when a program
    /// is re-fitted, or its stale predictions would outlive the new
    /// combiner.
    pub fn invalidate(&self, program: &str, metric: Metric) {
        let target = self.intern(program, metric);
        target.generation.fetch_add(1, Relaxed);
        for shard in &self.shards {
            shard.lock().expect(POISONED).sweep(target.id);
        }
    }

    /// Drops everything (used on artifact hot-reload).
    pub fn clear(&self) {
        self.epoch.fetch_add(1, Relaxed);
        for shard in &self.shards {
            shard.lock().expect(POISONED).clear();
        }
    }

    /// Entries currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect(POISONED).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_rng::Xoshiro256;
    use std::collections::BTreeMap;

    fn key(program: &str, n: u64) -> CacheKey {
        CacheKey {
            program: program.to_string(),
            metric: Metric::Cycles,
            config: [n; 13],
        }
    }

    #[test]
    fn get_after_insert_hits() {
        let c = PredictionCache::new(4, 64);
        assert_eq!(c.get(&key("p", 1)), None);
        c.insert(key("p", 1), 42.5);
        assert_eq!(c.get(&key("p", 1)), Some(42.5));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_programs_do_not_collide() {
        let c = PredictionCache::new(2, 16);
        c.insert(key("a", 1), 1.0);
        c.insert(key("b", 1), 2.0);
        assert_eq!(c.get(&key("a", 1)), Some(1.0));
        assert_eq!(c.get(&key("b", 1)), Some(2.0));
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        // Single shard so eviction order is fully observable.
        let c = PredictionCache::new(1, 3);
        c.insert(key("p", 1), 1.0);
        c.insert(key("p", 2), 2.0);
        c.insert(key("p", 3), 3.0);
        // Touch 1 so 2 becomes the LRU; inserting 4 must evict 2.
        assert_eq!(c.get(&key("p", 1)), Some(1.0));
        c.insert(key("p", 4), 4.0);
        assert_eq!(c.get(&key("p", 2)), None, "LRU entry should be evicted");
        assert_eq!(c.get(&key("p", 1)), Some(1.0));
        assert_eq!(c.get(&key("p", 3)), Some(3.0));
        assert_eq!(c.get(&key("p", 4)), Some(4.0));
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let c = PredictionCache::new(1, 8);
        c.insert(key("p", 1), 1.0);
        c.insert(key("p", 1), 9.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key("p", 1)), Some(9.0));
    }

    #[test]
    fn invalidate_targets_one_program_metric() {
        let c = PredictionCache::new(4, 64);
        c.insert(key("a", 1), 1.0);
        c.insert(key("b", 1), 2.0);
        let mut energy = key("a", 1);
        energy.metric = Metric::Energy;
        c.insert(energy.clone(), 3.0);
        c.invalidate("a", Metric::Cycles);
        assert_eq!(c.get(&key("a", 1)), None);
        assert_eq!(c.get(&key("b", 1)), Some(2.0));
        assert_eq!(c.get(&energy), Some(3.0));
    }

    #[test]
    fn clear_empties_every_shard() {
        let c = PredictionCache::new(8, 64);
        for i in 0..32 {
            c.insert(key("p", i), i as f64);
        }
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_bounded_under_churn() {
        let c = PredictionCache::new(4, 16);
        for i in 0..1000 {
            c.insert(key("p", i), i as f64);
        }
        // div_ceil(16, 4) = 4 per shard; tolerate the one-slot overshoot
        // window inside insert.
        assert!(c.len() <= 20, "cache grew to {}", c.len());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = std::sync::Arc::new(PredictionCache::new(8, 1024));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        let k = key("p", (t * 200 + i) % 64);
                        match c.get(&k) {
                            Some(v) => assert_eq!(v, k.config[0] as f64),
                            None => c.insert(k.clone(), k.config[0] as f64),
                        }
                    }
                });
            }
        });
        assert!(c.hits() + c.misses() >= 800);
    }

    #[test]
    fn insert_through_a_prefix_taken_before_invalidate_is_dropped() {
        let c = PredictionCache::new(4, 64);
        c.insert(key("p", 1), 1.0);
        c.insert(key("q", 1), 1.0);
        let mut stale = c.prefix("p", Metric::Cycles);
        let mut other = c.prefix("q", Metric::Cycles);
        c.invalidate("p", Metric::Cycles);
        c.insert_in(&mut stale, &[2; 13], 2.0);
        c.insert_in(&mut other, &[2; 13], 2.0);
        assert_eq!(c.get(&key("p", 2)), None, "stale insert was cached");
        assert_eq!(c.get(&key("q", 2)), Some(2.0), "another target's insert");
        // A prefix taken after the invalidation caches again.
        c.insert_in(&mut c.prefix("p", Metric::Cycles), &[2; 13], 2.0);
        assert_eq!(c.get(&key("p", 2)), Some(2.0));
    }

    #[test]
    fn insert_for_a_target_invalidated_before_it_was_interned_is_dropped() {
        let c = PredictionCache::new(2, 16);
        let mut stale = c.prefix("new", Metric::Energy);
        c.invalidate("new", Metric::Energy);
        c.insert_in(&mut stale, &[3; 13], 3.0);
        assert!(c.is_empty(), "stale insert was cached");
    }

    #[test]
    fn insert_through_a_prefix_taken_before_clear_is_dropped() {
        let c = PredictionCache::new(4, 64);
        c.insert(key("p", 1), 1.0);
        let mut interned = c.prefix("p", Metric::Cycles);
        let mut fresh = c.prefix("never-seen", Metric::Cycles);
        c.clear();
        c.insert_in(&mut interned, &[2; 13], 2.0);
        c.insert_in(&mut fresh, &[2; 13], 2.0);
        assert!(c.is_empty(), "an insert from before the clear was cached");
        c.insert(key("p", 2), 2.0);
        assert_eq!(c.get(&key("p", 2)), Some(2.0));
    }

    /// The hash a prefix continues is the hash of the whole [`CacheKey`]
    /// under a fresh `DefaultHasher`, so every key keeps its shard (and
    /// `serve_cache_hit_pct` does not move).
    #[test]
    fn prefix_hash_is_the_hash_of_the_whole_key() {
        let c = PredictionCache::new(8, 64);
        let mut rng = Xoshiro256::seed_from(7);
        for program in ["", "gzip", "mcf", "a much longer program name"] {
            for metric in Metric::ALL {
                let prefix = c.prefix(program, metric);
                for _ in 0..64 {
                    let config = std::array::from_fn(|_| rng.next_range(4));
                    let mut whole = DefaultHasher::new();
                    let program = program.to_string();
                    CacheKey {
                        program,
                        metric,
                        config,
                    }
                    .hash(&mut whole);
                    let (key, hash) = (super::key(&prefix.hasher, 0, &config), whole.finish());
                    assert_eq!(key.0, hash);
                    let shard = &c.shards[(hash as usize) % c.shards.len()];
                    assert!(std::ptr::eq(c.shard(&key), shard));
                }
            }
        }
    }

    /// Values with stamps, the stamp-ordered recency index, the clock.
    type RefShard = (HashMap<CacheKey, (f64, u64)>, BTreeMap<u64, CacheKey>, u64);

    /// The previous shard, kept as the oracle: a `HashMap` of values and
    /// stamps plus a `BTreeMap` recency index, sharded by `DefaultHasher`
    /// over the whole key.
    struct Reference {
        shards: Vec<RefShard>,
        per_shard: usize,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(shards: usize, capacity: usize) -> Self {
            Self {
                shards: (0..shards).map(|_| Default::default()).collect(),
                per_shard: capacity.div_ceil(shards),
                hits: 0,
                misses: 0,
            }
        }

        fn shard(&mut self, key: &CacheKey) -> usize {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            (h.finish() as usize) % self.shards.len()
        }

        fn get(&mut self, key: &CacheKey) -> Option<f64> {
            let s = self.shard(key);
            let (map, order, clock) = &mut self.shards[s];
            let found = map.get(key).copied().map(|(value, old)| {
                *clock += 1;
                order.remove(&old);
                order.insert(*clock, key.clone());
                map.insert(key.clone(), (value, *clock));
                value
            });
            match found {
                Some(_) => self.hits += 1,
                None => self.misses += 1,
            }
            found
        }

        fn insert(&mut self, key: CacheKey, value: f64) {
            let (s, capacity) = (self.shard(&key), self.per_shard);
            let (map, order, clock) = &mut self.shards[s];
            *clock += 1;
            if let Some((_, old)) = map.insert(key.clone(), (value, *clock)) {
                order.remove(&old);
            } else if map.len() > capacity {
                let (_, victim) = order.pop_first().unwrap();
                map.remove(&victim);
            }
            order.insert(*clock, key);
        }

        fn invalidate(&mut self, program: &str, metric: Metric) {
            for (map, order, _) in &mut self.shards {
                map.retain(|k, _| k.program != program || k.metric != metric);
                order.retain(|_, k| k.program != program || k.metric != metric);
            }
        }

        fn clear(&mut self) {
            for (map, order, _) in &mut self.shards {
                map.clear();
                order.clear();
            }
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|(map, ..)| map.len()).sum()
        }
    }

    /// Seeded sequences of gets, inserts, reinserts, prefix batches,
    /// invalidations and clears: every value, hit and miss count and
    /// length matches the reference after every step.
    #[test]
    fn matches_the_reference_lru_on_seeded_sequences() {
        const PROGRAMS: [&str; 3] = ["gzip", "mcf", "p"];
        for shards in [1, 4, 8] {
            for capacity in [1, 2, 3, 5, 8, 13, 21, 34, 64] {
                let mut rng = Xoshiro256::seed_from((shards * 100 + capacity) as u64);
                let (cache, mut reference) = (
                    PredictionCache::new(shards, capacity),
                    Reference::new(shards, capacity),
                );
                // A small pool of configurations with repeated values, so
                // keys recur and evict each other.
                let pool: Vec<[u64; 13]> = (0..2 * capacity + 3)
                    .map(|_| std::array::from_fn(|_| rng.next_range(3)))
                    .collect();
                let random_key = |rng: &mut Xoshiro256| CacheKey {
                    program: PROGRAMS[rng.next_index(PROGRAMS.len())].to_string(),
                    metric: Metric::ALL[rng.next_index(2)],
                    config: pool[rng.next_index(pool.len())],
                };
                for step in 0..1500 {
                    let k = random_key(&mut rng);
                    let what = rng.next_range(100);
                    let value = step as f64;
                    match what {
                        0..=39 => assert_eq!(cache.get(&k), reference.get(&k), "step {step}"),
                        40..=69 => {
                            cache.insert(k.clone(), value);
                            reference.insert(k, value);
                        }
                        70..=94 => {
                            // One request: a prefix, lookups, then inserts
                            // of the misses (some of them repeats).
                            let mut prefix = cache.prefix(&k.program, k.metric);
                            let n = 1 + rng.next_index(6);
                            let mut misses = Vec::new();
                            for _ in 0..n {
                                let mut k = k.clone();
                                k.config = pool[rng.next_index(pool.len())];
                                let got = cache.get_in(&prefix, &k.config);
                                assert_eq!(got, reference.get(&k), "step {step}");
                                if got.is_none() {
                                    misses.push(k);
                                }
                            }
                            for k in misses {
                                cache.insert_in(&mut prefix, &k.config, value);
                                reference.insert(k, value);
                            }
                        }
                        95..=98 => {
                            cache.invalidate(&k.program, k.metric);
                            reference.invalidate(&k.program, k.metric);
                        }
                        _ => {
                            cache.clear();
                            reference.clear();
                        }
                    }
                    assert_eq!(cache.len(), reference.len(), "len at step {step}");
                    assert_eq!(cache.hits(), reference.hits, "hits at step {step}");
                    assert_eq!(cache.misses(), reference.misses, "misses at step {step}");
                }
            }
        }
    }
}
