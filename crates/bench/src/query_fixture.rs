//! The synthetic shard snapshots the query-plane benchmarks merge. The
//! `perf` harness's query phase and the `merge_incremental` criterion
//! bench time the same fixture.

use std::collections::HashMap;
use std::sync::Arc;

use latlab_analysis::{EventClass, LatencySketch};
use latlab_serve::ShardSnapshot;

/// One deterministic shard snapshot: `scenarios` sketches (`scen-0`,
/// `scen-1`, …) of 48 samples each.
pub fn synthetic_snapshot(shard: u64, scenarios: usize) -> Arc<ShardSnapshot> {
    let sketches: HashMap<String, Arc<LatencySketch>> = (0..scenarios)
        .map(|k| {
            let mut s = LatencySketch::new();
            for i in 0..48u64 {
                let class = EventClass::ALL[((i + shard) % EventClass::ALL.len() as u64) as usize];
                let ms = 0.3 + ((i * 17 + shard * 131 + k as u64 * 29) % 389) as f64 * 3.7;
                s.push(class, ms);
            }
            (format!("scen-{k}"), Arc::new(s))
        })
        .collect();
    Arc::new(ShardSnapshot {
        epoch: shard + 1,
        sketches,
    })
}

/// A variant of `base` sharing every scenario `Arc` except a
/// re-published `scen-0`. Alternating two of them makes every refresh
/// see exactly one dirty scenario without timing snapshot construction.
pub fn dirty_variant(base: &ShardSnapshot, bump: u64) -> Arc<ShardSnapshot> {
    let mut sketches = base.sketches.clone();
    let mut dirty = (**sketches.get("scen-0").expect("scen-0 exists")).clone();
    dirty.push(EventClass::Keystroke, 1.0 + bump as f64);
    sketches.insert("scen-0".to_owned(), Arc::new(dirty));
    Arc::new(ShardSnapshot {
        epoch: base.epoch + bump,
        sketches,
    })
}
