//! The incremental query plane: cached merged views over shard
//! snapshots.
//!
//! Every query used to re-merge every shard's full snapshot from
//! scratch — O(shards × scenarios × histogram buckets) per request,
//! paid even when nothing had changed since the last query. This module
//! splits the read plane from the write plane: a [`QueryPlane`] keeps
//! the last merged view and, on each refresh, compares the per-shard
//! snapshot `Arc`s against the ones it merged last time.
//!
//! **Dirty detection contract.** The shard workers publish
//! copy-on-write: a publish clones only the map of per-scenario
//! `Arc<LatencySketch>` pointers, and a scenario's sketch body is
//! replaced (detached via `Arc::make_mut`) only on its first fold after
//! a publish. Therefore `Arc::ptr_eq` on a scenario's sketch across two
//! snapshots of the same shard is a *complete* dirty test: pointer
//! equality implies the bodies are the same object (clean), pointer
//! inequality means the scenario folded new samples (dirty). A refresh
//! re-merges **only the dirty scenarios** — O(dirty) sketch merges per
//! publish instead of O(scenarios) per query — and reuses the cached
//! [`ScenarioEntry`] (with its memoized quantiles) for every clean one.
//!
//! **Coherence invariant.** At every epoch the cached view is
//! bit-identical to a fresh full merge ([`merge_full`]) of the same
//! snapshot vector: same scenarios, same counts, same histogram
//! buckets, and bit-identical moment accumulators. The invariant holds
//! because a dirty scenario is re-merged across shards in shard-index
//! order — the exact fold order [`merge_full`] uses — and a clean
//! scenario's cached sketch *is* (or is value-equal to) the merge of
//! sketch bodies that have not changed. `ShardSet::merged_full` is kept
//! as the reference implementation; the equivalence proptest in this
//! module drives real shards through folds, publishes, drains, and WAL
//! recovery and compares the two after arbitrary interleavings.
//!
//! **Cold rebuild.** The first refresh (startup, including post-crash
//! recovery, where every scenario is new) merges the whole snapshot
//! vector, partitioned across threads — recovery of a large corpus
//! becomes queryable at full speed without a warm cache.
//!
//! **Derived-result memoization.** Each [`ScenarioEntry`] precomputes
//! its sample and miss totals (what `HEALTH` and `STATS` need) and
//! memoizes quantile lookups (what `PCTL` and `SNAPSHOT` need) keyed by
//! the requested fraction. Because a clean scenario keeps its entry
//! across refreshes, the memo is effectively keyed by
//! `(scenario, last-dirty-epoch)` — it invalidates exactly when the
//! underlying sketch changes, by construction.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use latlab_analysis::LatencySketch;

use crate::shard::{ShardSet, ShardSnapshot};

/// The reference merge: fold every snapshot's scenarios into fresh
/// sketches, first contributor cloned, later ones merged in shard-index
/// order. This is the per-query full merge the query plane replaces —
/// kept as the ground truth its cached view must stay bit-identical to.
pub fn merge_full(snaps: &[Arc<ShardSnapshot>]) -> (u64, HashMap<String, LatencySketch>) {
    let mut epoch = 0u64;
    let mut merged: HashMap<String, LatencySketch> = HashMap::new();
    for snap in snaps {
        epoch += snap.epoch;
        for (scenario, sketch) in &snap.sketches {
            merged
                .entry(scenario.clone())
                .and_modify(|m| m.merge(sketch))
                .or_insert_with(|| (**sketch).clone());
        }
    }
    (epoch, merged)
}

/// Memoized quantiles beyond this many distinct fractions per entry are
/// answered uncached. Real probers ask for a handful of fixed
/// percentiles; the cap only bounds a hostile client cycling fractions.
const QUANTILE_MEMO_CAP: usize = 32;

/// Below this many scenarios a cold rebuild stays on the calling thread
/// — spawning costs more than the merge.
const COLD_PARALLEL_MIN: usize = 32;

/// One scenario's merged state inside a [`MergedView`]: the
/// cross-shard merged sketch plus the derived results queries actually
/// ask for. Entries are shared (`Arc`) between successive views as long
/// as the scenario stays clean, so the memo warms once per dirty epoch,
/// not once per query.
pub struct ScenarioEntry {
    sketch: Arc<LatencySketch>,
    total: u64,
    misses: u64,
    /// `(fraction bits, quantile ms)` pairs, append-only up to the cap.
    quantiles: Mutex<Vec<(u64, f64)>>,
}

impl ScenarioEntry {
    fn new(sketch: Arc<LatencySketch>) -> ScenarioEntry {
        ScenarioEntry {
            total: sketch.total(),
            misses: sketch.total_misses(),
            sketch,
            quantiles: Mutex::new(Vec::new()),
        }
    }

    /// The merged sketch (shared with the publishing shard when only
    /// one shard contributes to this scenario).
    pub fn sketch(&self) -> &LatencySketch {
        &self.sketch
    }

    /// Samples across all classes (precomputed — `HEALTH`/`STATS` never
    /// touch the histogram for this).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Deadline misses across all classes (precomputed).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The `p`-quantile over all classes (ms), memoized per fraction:
    /// the first lookup pays the union-histogram pass, repeats are a
    /// table hit until the entry is invalidated by a dirty re-merge.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let key = p.to_bits();
        {
            let memo = self.quantiles.lock().expect("quantile memo poisoned");
            if let Some(&(_, ms)) = memo.iter().find(|&&(k, _)| k == key) {
                return Some(ms);
            }
        }
        let ms = self.sketch.quantile(p)?;
        let mut memo = self.quantiles.lock().expect("quantile memo poisoned");
        if memo.len() < QUANTILE_MEMO_CAP && !memo.iter().any(|&(k, _)| k == key) {
            memo.push((key, ms));
        }
        Some(ms)
    }

    /// Answers several quantiles at once. Fully-memoized requests are
    /// table hits; otherwise all fractions are computed in **one**
    /// union-histogram pass ([`LatencySketch::quantiles_into`]) and
    /// memoized. `out` is cleared and gets one value per fraction (0.0
    /// when the entry is empty, matching the snapshot view's encoding).
    pub fn quantiles(&self, ps: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if self.total == 0 {
            out.resize(ps.len(), 0.0);
            return;
        }
        let mut memo = self.quantiles.lock().expect("quantile memo poisoned");
        let lookup = |memo: &Vec<(u64, f64)>, p: f64| {
            let key = p.to_bits();
            memo.iter().find(|&&(k, _)| k == key).map(|&(_, ms)| ms)
        };
        if let Some(hit) = ps
            .iter()
            .map(|&p| lookup(&memo, p))
            .collect::<Option<Vec<f64>>>()
        {
            out.extend(hit);
            return;
        }
        let mut fresh = Vec::with_capacity(ps.len());
        self.sketch.quantiles_into(ps, &mut fresh);
        for (&p, v) in ps.iter().zip(&fresh) {
            let ms = v.unwrap_or(0.0);
            if memo.len() < QUANTILE_MEMO_CAP && lookup(&memo, p).is_none() {
                memo.push((p.to_bits(), ms));
            }
            out.push(ms);
        }
    }
}

/// An immutable merged view of one snapshot vector. Cheap to clone
/// (`Arc`), safe to read from any thread, and shares every clean
/// scenario's entry with its predecessor view.
pub struct MergedView {
    epoch: u64,
    entries: HashMap<Arc<str>, Arc<ScenarioEntry>>,
    total: u64,
    total_misses: u64,
}

impl MergedView {
    fn empty() -> MergedView {
        MergedView {
            epoch: 0,
            entries: HashMap::new(),
            total: 0,
            total_misses: 0,
        }
    }

    /// Sum of shard epochs this view merged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of scenarios with data.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no scenario has folded any samples yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Samples across every scenario (precomputed at refresh — the
    /// `HEALTH` total without any merge).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Deadline misses across every scenario (precomputed at refresh).
    pub fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// One scenario's entry. Returns the `Arc` so callers (and the
    /// sharing unit test) can observe entry identity across views.
    pub fn get(&self, scenario: &str) -> Option<&Arc<ScenarioEntry>> {
        self.entries.get(scenario)
    }

    /// Iterates `(scenario, entry)` in map order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ScenarioEntry)> {
        self.entries.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Clones the view out into the owned `(epoch, sketches)` shape the
    /// reference [`merge_full`] returns — the drain-time final report,
    /// paid once at shutdown instead of once per query.
    pub fn to_sketches(&self) -> (u64, HashMap<String, LatencySketch>) {
        let sketches = self
            .entries
            .iter()
            .map(|(name, entry)| (name.to_string(), (*entry.sketch).clone()))
            .collect();
        (self.epoch, sketches)
    }
}

/// Observability counters a [`QueryPlane`] maintains (surfaced by
/// `HEALTH`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Refresh calls (≈ queries served through the plane).
    pub refreshes: u64,
    /// Refreshes answered entirely from cache — every shard snapshot
    /// `Arc` was unchanged.
    pub hits: u64,
    /// Scenarios re-merged across all incremental refreshes.
    pub remerged: u64,
    /// Full parallel rebuilds (first touch / recovery).
    pub cold_rebuilds: u64,
}

struct PlaneState {
    /// The snapshot vector the current view was merged from.
    last: Vec<Arc<ShardSnapshot>>,
    view: Arc<MergedView>,
    /// Reused buffer for [`QueryPlane::refresh_from`], so the steady-
    /// state query path allocates nothing.
    scratch: Vec<Arc<ShardSnapshot>>,
}

/// The cached merged view plus the machinery to keep it coherent. One
/// plane serves every query connection; refreshes serialize on an
/// internal mutex (the unchanged-snapshot fast path holds it only for a
/// pointer walk), readers then work off the returned `Arc<MergedView>`
/// without any lock.
pub struct QueryPlane {
    state: Mutex<PlaneState>,
    refreshes: AtomicU64,
    hits: AtomicU64,
    remerged: AtomicU64,
    cold_rebuilds: AtomicU64,
}

impl Default for QueryPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryPlane {
    /// An empty plane; the first refresh cold-rebuilds.
    pub fn new() -> QueryPlane {
        QueryPlane {
            state: Mutex::new(PlaneState {
                last: Vec::new(),
                view: Arc::new(MergedView::empty()),
                scratch: Vec::new(),
            }),
            refreshes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            remerged: AtomicU64::new(0),
            cold_rebuilds: AtomicU64::new(0),
        }
    }

    /// The current cached view without refreshing (may lag the shards).
    pub fn view(&self) -> Arc<MergedView> {
        self.state
            .lock()
            .expect("query plane poisoned")
            .view
            .clone()
    }

    /// The observability counters.
    pub fn stats(&self) -> PlaneStats {
        PlaneStats {
            refreshes: self.refreshes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            remerged: self.remerged.load(Ordering::Relaxed),
            cold_rebuilds: self.cold_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Refreshes against the shard set's current snapshots, reusing an
    /// internal snapshot buffer — the steady-state (all-clean) path
    /// performs no allocation at all.
    pub fn refresh_from(&self, shards: &ShardSet) -> Arc<MergedView> {
        let mut st = self.state.lock().expect("query plane poisoned");
        let mut snaps = std::mem::take(&mut st.scratch);
        shards.snapshots_into(&mut snaps);
        let view = self.refresh_locked(&mut st, &snaps);
        st.scratch = snaps;
        view
    }

    /// Refreshes against an explicit snapshot vector (what the perf
    /// harness and benches drive with synthetic snapshots).
    pub fn refresh(&self, snaps: &[Arc<ShardSnapshot>]) -> Arc<MergedView> {
        let mut st = self.state.lock().expect("query plane poisoned");
        self.refresh_locked(&mut st, snaps)
    }

    fn refresh_locked(&self, st: &mut PlaneState, snaps: &[Arc<ShardSnapshot>]) -> Arc<MergedView> {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        if st.last.len() == snaps.len() && st.last.iter().zip(snaps).all(|(a, b)| Arc::ptr_eq(a, b))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return st.view.clone();
        }
        let epoch = snaps.iter().map(|s| s.epoch).sum();
        let entries = if st.last.is_empty() {
            self.cold_rebuilds.fetch_add(1, Ordering::Relaxed);
            cold_rebuild(snaps)
        } else {
            self.incremental(&st.last, &st.view, snaps)
        };
        let view = Arc::new(MergedView {
            epoch,
            total: entries.values().map(|e| e.total).sum(),
            total_misses: entries.values().map(|e| e.misses).sum(),
            entries,
        });
        st.last.clear();
        st.last.extend(snaps.iter().cloned());
        st.view = view.clone();
        view
    }

    /// Re-merges only the scenarios whose sketch `Arc` changed in some
    /// shard; every other entry is carried over by pointer, memo and
    /// all.
    fn incremental(
        &self,
        last: &[Arc<ShardSnapshot>],
        old: &MergedView,
        snaps: &[Arc<ShardSnapshot>],
    ) -> HashMap<Arc<str>, Arc<ScenarioEntry>> {
        let empty = HashMap::new();
        let mut dirty: HashSet<&str> = HashSet::new();
        for (i, cur) in snaps.iter().enumerate() {
            let prev = last.get(i);
            if prev.is_some_and(|p| Arc::ptr_eq(p, cur)) {
                continue;
            }
            let prev_sketches = prev.map_or(&empty, |p| &p.sketches);
            for (name, sketch) in &cur.sketches {
                if !prev_sketches
                    .get(name)
                    .is_some_and(|p| Arc::ptr_eq(p, sketch))
                {
                    dirty.insert(name.as_str());
                }
            }
            for name in prev_sketches.keys() {
                if !cur.sketches.contains_key(name) {
                    dirty.insert(name.as_str());
                }
            }
        }
        // A shrinking shard set never happens live, but stay coherent:
        // scenarios only present in trailing removed shards are dirty.
        for gone in last.iter().skip(snaps.len()) {
            for name in gone.sketches.keys() {
                dirty.insert(name.as_str());
            }
        }
        self.remerged
            .fetch_add(dirty.len() as u64, Ordering::Relaxed);
        let mut entries = old.entries.clone();
        for name in dirty {
            match merge_scenario(name, snaps) {
                Some(entry) => {
                    // Reuse the interned key so a long-lived scenario
                    // allocates its name exactly once.
                    let key = old
                        .entries
                        .get_key_value(name)
                        .map_or_else(|| Arc::from(name), |(k, _)| k.clone());
                    entries.insert(key, Arc::new(entry));
                }
                None => {
                    entries.remove(name);
                }
            }
        }
        entries
    }
}

/// Merges one scenario across the snapshot vector, in shard-index order
/// (the [`merge_full`] fold order — first contributor cloned, the rest
/// merged — so moments stay bit-identical to the reference). A single
/// contributor shares its published `Arc` outright: no copy, and
/// value-equal to the clone the reference makes.
fn merge_scenario(name: &str, snaps: &[Arc<ShardSnapshot>]) -> Option<ScenarioEntry> {
    let contributors: Vec<&Arc<LatencySketch>> =
        snaps.iter().filter_map(|s| s.sketches.get(name)).collect();
    let sketch = match contributors.as_slice() {
        [] => return None,
        [one] => Arc::clone(one),
        many => Arc::new(
            LatencySketch::merge_of(many.iter().map(|a| a.as_ref())).expect("non-empty merge"),
        ),
    };
    Some(ScenarioEntry::new(sketch))
}

/// First-touch rebuild: merge every scenario, partitioned across
/// threads. Used at startup and after recovery, where the whole corpus
/// is new and an incremental diff would degenerate to this anyway —
/// done in parallel, the recovered state is queryable at full speed
/// immediately.
fn cold_rebuild(snaps: &[Arc<ShardSnapshot>]) -> HashMap<Arc<str>, Arc<ScenarioEntry>> {
    let mut seen = HashSet::new();
    let mut names: Vec<&str> = Vec::new();
    for snap in snaps {
        for name in snap.sketches.keys() {
            if seen.insert(name.as_str()) {
                names.push(name.as_str());
            }
        }
    }
    let build =
        |name: &str| merge_scenario(name, snaps).map(|e| (Arc::<str>::from(name), Arc::new(e)));
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(names.len() / COLD_PARALLEL_MIN);
    if threads <= 1 {
        return names.iter().filter_map(|n| build(n)).collect();
    }
    let chunk = names.len().div_ceil(threads);
    let mut entries = HashMap::with_capacity(names.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = names
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().filter_map(|n| build(n)).collect::<Vec<_>>())
            })
            .collect();
        for w in workers {
            entries.extend(w.join().expect("cold rebuild worker panicked"));
        }
    });
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testkit::*;
    use crate::shard::{BeginMode, Reply, ShardConfig};
    use crate::slam::idle_corpus;
    use latlab_analysis::EventClass;
    use proptest::prelude::*;

    /// Builds a synthetic snapshot: `epoch` plus `(name, seed)` sketches
    /// of a few dozen deterministic samples each.
    fn snap(epoch: u64, scenarios: &[(&str, u64)]) -> Arc<ShardSnapshot> {
        let sketches = scenarios
            .iter()
            .map(|&(name, seed)| {
                let mut s = LatencySketch::new();
                for i in 0..48u64 {
                    let class = EventClass::ALL[((i + seed) % 6) as usize];
                    s.push(class, 0.3 + ((i * 17 + seed * 131) % 389) as f64 * 3.7);
                }
                (name.to_owned(), Arc::new(s))
            })
            .collect();
        Arc::new(ShardSnapshot { epoch, sketches })
    }

    /// Asserts the cached view is bit-identical to the [`merge_full`]
    /// reference over the same snapshot vector.
    fn assert_view_matches_full(view: &MergedView, snaps: &[Arc<ShardSnapshot>]) {
        let (epoch, full) = merge_full(snaps);
        assert_eq!(view.epoch(), epoch);
        assert_eq!(view.len(), full.len(), "scenario sets differ");
        assert_eq!(view.total(), full.values().map(LatencySketch::total).sum());
        assert_eq!(
            view.total_misses(),
            full.values().map(LatencySketch::total_misses).sum()
        );
        for (name, reference) in &full {
            let entry = view.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(entry.total(), reference.total(), "{name} total");
            assert_eq!(entry.misses(), reference.total_misses(), "{name} misses");
            let got = entry.sketch();
            for class in EventClass::ALL {
                let (a, b) = (got.class(class), reference.class(class));
                assert_eq!(a.count(), b.count(), "{name} {class:?} count");
                assert_eq!(a.misses(), b.misses(), "{name} {class:?} misses");
                assert_eq!(a.saturated(), b.saturated(), "{name} {class:?} saturated");
                assert_eq!(
                    a.stats().mean().to_bits(),
                    b.stats().mean().to_bits(),
                    "{name} {class:?} mean"
                );
                assert_eq!(
                    a.stats().sample_variance().to_bits(),
                    b.stats().sample_variance().to_bits(),
                    "{name} {class:?} variance"
                );
                assert_eq!(a.stats().min().to_bits(), b.stats().min().to_bits());
                assert_eq!(a.stats().max().to_bits(), b.stats().max().to_bits());
            }
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(entry.quantile(q), reference.quantile(q), "{name} q{q}");
            }
        }
    }

    #[test]
    fn a_query_never_blocks_ingest() {
        // A query holds the plane's mutex while it refreshes, and a
        // shard's slot lock while it clones the published snapshot. Held
        // for a whole upload, neither may stall it: the upload still
        // ends in `DONE`, and the shard publishes what it folded once
        // they are released. Without and with a WAL (the log stage
        // inline on the worker, then on its own thread).
        let corpus = idle_corpus(20_000, 0x9b10, 32);
        let frames = frames_of(&corpus, 4096);
        let expect = crate::pipeline::fold_corpus(&corpus, 4096, EventClass::Keystroke, false);
        let tmp = TempDir::new("query-blocks");
        for wal in [None, Some(tmp.wal())] {
            let config = ShardConfig {
                shards: 1,
                queue_depth: 64,
                // Every folded frame tries to publish.
                publish_every: 1,
            };
            let set = ShardSet::start(&config, wal.as_ref()).unwrap();
            let plane = QueryPlane::new();
            let stream = keyed("c", "q");
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            let epoch = set.snapshots()[0].epoch;
            {
                let _plane = plane.state.lock().unwrap();
                let _slot = hold_slot(&set, 0);
                let verdict = upload_tail(&set, 0, &stream, &rx, &frames, 0, 0);
                assert!(
                    matches!(
                        verdict,
                        Reply::Done {
                            records: 20_000,
                            ..
                        }
                    ),
                    "wal {}: {verdict:?}",
                    wal.is_some()
                );
            }
            // Every publish the upload tried was put off; the shard's
            // next idle moment publishes all of it.
            let snap = wait_for_epoch(&set, 0, epoch + 1);
            assert_eq!(snap.sketches["q"].total(), expect.samples);
            assert_eq!(plane.refresh_from(&set).total(), expect.samples);
            set.drain_and_join();
        }
    }

    #[test]
    fn refresh_matches_full_merge_on_synthetic_snapshots() {
        let plane = QueryPlane::new();
        let snaps = vec![
            snap(3, &[("a", 1), ("b", 2), ("shared", 3)]),
            snap(5, &[("c", 4), ("shared", 5)]),
            snap(1, &[]),
        ];
        let view = plane.refresh(&snaps);
        assert_view_matches_full(&view, &snaps);
        assert_eq!(plane.stats().cold_rebuilds, 1);
        // Unchanged snapshots: pure cache hit, same view object.
        let again = plane.refresh(&snaps);
        assert!(Arc::ptr_eq(&view, &again));
        assert_eq!(plane.stats().hits, 1);
    }

    #[test]
    fn clean_scenarios_share_their_entry_across_refreshes() {
        let plane = QueryPlane::new();
        let mut snaps = vec![
            snap(1, &[("clean", 7), ("dirty", 8)]),
            snap(1, &[("clean", 9)]),
        ];
        let before = plane.refresh(&snaps);
        // Warm the memo on the clean entry, then dirty the other
        // scenario in shard 0 (new sketch Arc, same clean Arc).
        let warm = before.get("clean").unwrap().quantile(0.99);
        let mut sketches = snaps[0].sketches.clone();
        let mut grown = (**sketches.get("dirty").unwrap()).clone();
        grown.push(EventClass::Keystroke, 12.5);
        sketches.insert("dirty".to_owned(), Arc::new(grown));
        snaps[0] = Arc::new(ShardSnapshot { epoch: 2, sketches });
        let after = plane.refresh(&snaps);
        assert_view_matches_full(&after, &snaps);
        // The clean scenario's cached entry is the same object — memo
        // included — while the dirty one was rebuilt.
        assert!(
            Arc::ptr_eq(before.get("clean").unwrap(), after.get("clean").unwrap()),
            "clean entry must be shared by pointer across refreshes"
        );
        assert!(!Arc::ptr_eq(
            before.get("dirty").unwrap(),
            after.get("dirty").unwrap()
        ));
        assert_eq!(after.get("clean").unwrap().quantile(0.99), warm);
        assert_eq!(plane.stats().remerged, 1, "exactly one scenario re-merged");
    }

    #[test]
    fn scenario_disappearance_is_coherent() {
        let plane = QueryPlane::new();
        let mut snaps = vec![snap(1, &[("keep", 1), ("gone", 2)])];
        plane.refresh(&snaps);
        // The scenario vanishes from the next publish (never happens
        // live, but the plane must not serve a stale entry).
        let mut sketches = snaps[0].sketches.clone();
        sketches.remove("gone");
        snaps[0] = Arc::new(ShardSnapshot { epoch: 2, sketches });
        let view = plane.refresh(&snaps);
        assert_view_matches_full(&view, &snaps);
        assert!(view.get("gone").is_none());
    }

    #[test]
    fn cold_rebuild_parallelizes_and_matches_reference() {
        // Enough scenarios to cross COLD_PARALLEL_MIN per thread.
        let names: Vec<String> = (0..220).map(|i| format!("scen-{i}")).collect();
        let per_shard = |shard: u64| {
            let scenarios: Vec<(&str, u64)> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), shard * 1000 + i as u64))
                .collect();
            snap(shard + 1, &scenarios)
        };
        let snaps: Vec<_> = (0..4).map(per_shard).collect();
        let plane = QueryPlane::new();
        let view = plane.refresh(&snaps);
        assert_view_matches_full(&view, &snaps);
        assert_eq!(plane.stats().cold_rebuilds, 1);
    }

    #[test]
    fn quantile_memo_matches_uncached_answers() {
        let snaps = vec![snap(1, &[("s", 3)]), snap(1, &[("s", 4)])];
        let plane = QueryPlane::new();
        let view = plane.refresh(&snaps);
        let entry = view.get("s").unwrap();
        let (_, full) = merge_full(&snaps);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let first = entry.quantile(q);
            let memoized = entry.quantile(q);
            assert_eq!(first, memoized);
            assert_eq!(first, full["s"].quantile(q), "q{q}");
        }
        // Batch path agrees with the scalar path and the reference.
        let ps = [0.5, 0.9, 0.99, 1.0];
        let mut out = Vec::new();
        entry.quantiles(&ps, &mut out);
        for (&p, &got) in ps.iter().zip(&out) {
            assert_eq!(Some(got), full["s"].quantile(p), "batch q{p}");
        }
    }

    /// One scripted operation of the equivalence proptest.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Upload a small corpus as (client, scenario) choice `n`.
        Upload(u8),
        /// Graceful drain, then restart from the WAL.
        DrainRestart,
        /// kill -9, then restart from the WAL (replays the log tail).
        CrashRestart,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest has no `prop_oneof`; weight by hand:
        // 0..6 uploads (n picks the client/scenario pair), then one
        // slot each for drain+restart and crash+restart.
        (0u8..8).prop_map(|n| match n {
            6 => Op::DrainRestart,
            7 => Op::CrashRestart,
            n => Op::Upload(n),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// The tentpole invariant: after arbitrary interleavings of
        /// folds, publishes (forced by a tiny publish_every), drains,
        /// and WAL recovery, one long-lived plane's cached view stays
        /// bit-identical to a fresh full merge of the same snapshots.
        #[test]
        fn cached_view_stays_bit_identical_to_full_merge(
            seed in 0u64..1 << 48,
            ops in proptest::collection::vec(op_strategy(), 1..10),
        ) {
            let tmp = TempDir::new("query-equiv");
            let config = ShardConfig {
                shards: 2,
                queue_depth: 64,
                publish_every: 64, // publish mid-upload, not just on idle
            };
            let corpus = idle_corpus(2_000, seed | 1, 16);
            let frames = frames_of(&corpus, 1024);
            let plane = QueryPlane::new();
            let mut set = ShardSet::start(&config, Some(&tmp.wal())).unwrap();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Upload(n) => {
                        let stream = keyed(&format!("c{}-{step}", n % 2), &format!("s{}", n % 3));
                        let shard = set.route(&format!("c{}-{step}", n % 2), &format!("s{}", n % 3));
                        let (rx, base) = begin(&set, shard, &stream, BeginMode::Fresh);
                        let done = upload_tail(&set, shard, &stream, &rx, &frames, base, 0);
                        prop_assert!(matches!(done, Reply::Done { .. }), "upload failed: {done:?}");
                    }
                    Op::DrainRestart => {
                        set.drain_and_join();
                        set = ShardSet::start(&config, Some(&tmp.wal())).unwrap();
                    }
                    Op::CrashRestart => {
                        set.crash_and_join();
                        set = ShardSet::start(&config, Some(&tmp.wal())).unwrap();
                    }
                }
                // Whatever the shards have published right now is a
                // valid vector; the view must match its full merge.
                let snaps = set.snapshots();
                let view = plane.refresh(&snaps);
                assert_view_matches_full(&view, &snaps);
            }
            set.drain_and_join();
            let snaps = set.snapshots();
            let view = plane.refresh(&snaps);
            assert_view_matches_full(&view, &snaps);
        }
    }
}
