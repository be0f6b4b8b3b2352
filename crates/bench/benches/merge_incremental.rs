//! Head-to-head microbenchmark for the incremental query plane: the
//! pre-PR per-query cost (a full merge of every shard snapshot on every
//! query, `merge_full`) vs. the `QueryPlane` refresh in its two steady
//! states — nothing dirty (pure pointer walk returning the cached view)
//! and exactly one dirty scenario (one re-merge, everything else
//! carried by `Arc` pointer).
//!
//! The fixture mirrors the perf harness: 4 shards by 512 scenarios of
//! deterministic synthetic sketches. The dirty-scenario pass flip-flops
//! between two prebuilt shard-0 variants that share every scenario
//! `Arc` except one, so the benchmark times the refresh alone and not
//! snapshot construction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use latlab_bench::query_fixture::{dirty_variant, synthetic_snapshot};
use latlab_serve::{merge_full, QueryPlane, ShardSnapshot};

const SHARDS: u64 = 4;
const SCENARIOS: usize = 512;

fn bench_merge(c: &mut Criterion) {
    let snaps: Vec<Arc<ShardSnapshot>> = (0..SHARDS)
        .map(|shard| synthetic_snapshot(shard, SCENARIOS))
        .collect();

    let mut group = c.benchmark_group("merge_incremental");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    group.bench_function("full_merge/512_scenarios", |b| {
        b.iter(|| black_box(merge_full(&snaps)))
    });

    group.bench_function("plane_refresh_clean/512_scenarios", |b| {
        let plane = QueryPlane::new();
        plane.refresh(&snaps);
        b.iter(|| black_box(plane.refresh(&snaps)))
    });

    group.bench_function("plane_refresh_one_dirty/512_scenarios", |b| {
        let plane = QueryPlane::new();
        plane.refresh(&snaps);
        let (alt_a, alt_b) = (dirty_variant(&snaps[0], 1), dirty_variant(&snaps[0], 2));
        let mut flipped = snaps.clone();
        let mut flip = false;
        b.iter(|| {
            flipped[0] = if flip { alt_a.clone() } else { alt_b.clone() };
            flip = !flip;
            black_box(plane.refresh(&flipped))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
