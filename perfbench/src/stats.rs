//! Order statistics and the in-memory span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile of `samples` (0 ≤ q ≤ 1), linearly interpolated
/// between closest ranks. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `samples`, or 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// `(q1, q3)` of `samples`, or zeros when empty.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile_sorted(&sorted, 0.25).unwrap_or(0.0),
        quantile_sorted(&sorted, 0.75).unwrap_or(0.0),
    )
}

/// One recorded span: a named interval, nested under the span that was
/// open when it started.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans and counts of one traced run, kept in memory and written out
/// when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
    /// `HEALTH` counters sampled after traced ops, with the number of
    /// ops completed when each was taken.
    pub health: Vec<(u64, BTreeMap<String, f64>)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            health: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span called `name`; spans opened before the matching
    /// [`exit`](Self::exit) are its children.
    pub fn enter(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, idx: usize) {
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Records a span that was timed elsewhere (e.g. a duration the
    /// program itself reports), ending now.
    pub fn record(&mut self, name: &str, ms: f64) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub((ms * 1e6) as u64);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Sets a count (or any other non-timing layer figure).
    pub fn set(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_owned(), value);
    }

    /// A figure set with [`set`](Self::set).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }

    /// The spans as tab-separated lines: index, parent, name, start and
    /// end in ns since the tracer was created.
    pub fn dump(&self) -> String {
        let mut out = String::from("idx\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// A small deterministic generator (SplitMix64) for seeded inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.125), Some(1.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quartiles(&v), (2.0, 4.0));
    }

    #[test]
    fn spans_nest() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer);
        let dump = t.dump();
        assert!(dump.contains("0\t-\touter\t"));
        assert!(dump.contains("1\t0\tinner\t"));
        assert_eq!(t.durations_ms("inner").len(), 1);
    }
}
