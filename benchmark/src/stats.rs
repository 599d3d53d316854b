//! Summary statistics over latency samples, and the arithmetic that turns
//! two reads of a server's `Stats` surface into per-request means.

use rel_server::StatsReply;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Latency samples in milliseconds, summarized at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// `(p50, p99, max)`, all 0 when empty.
    pub fn summary(&self) -> (f64, f64, f64) {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        (
            percentile(&v, 50.0).unwrap_or(0.0),
            percentile(&v, 99.0).unwrap_or(0.0),
            v.last().copied().unwrap_or(0.0),
        )
    }
}

/// The change in a server's `Stats` surface across a run: counter deltas
/// and histogram count/sum deltas. Histogram percentiles on the wire are
/// log2 bucket bounds, so only the exact means are derived from them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsDiff {
    counters: Vec<(String, u64)>,
    /// `(name, count delta, sum delta)`.
    hists: Vec<(String, u64, u64)>,
}

impl StatsDiff {
    /// `after - before`, name by name (saturating; names missing from
    /// `before` count from zero).
    pub fn between(before: &StatsReply, after: &StatsReply) -> StatsDiff {
        let counters = after
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(before.counter(n).unwrap_or(0))))
            .collect();
        let hists = after
            .histograms
            .iter()
            .map(|(n, h)| {
                let (c0, s0) = before.histogram(n).map_or((0, 0), |b| (b.count, b.sum_us));
                (
                    n.clone(),
                    h.count.saturating_sub(c0),
                    h.sum_us.saturating_sub(s0),
                )
            })
            .collect();
        StatsDiff { counters, hists }
    }

    /// Add another diff's deltas, name by name (a run over several
    /// servers sums the diff of each).
    pub fn add(&mut self, other: &StatsDiff) {
        for (n, v) in &other.counters {
            match self.counters.iter_mut().find(|(m, _)| m == n) {
                Some((_, w)) => *w += v,
                None => self.counters.push((n.clone(), *v)),
            }
        }
        for (n, c, s) in &other.hists {
            match self.hists.iter_mut().find(|(m, ..)| m == n) {
                Some((_, d, t)) => {
                    *d += c;
                    *t += s;
                }
                None => self.hists.push((n.clone(), *c, *s)),
            }
        }
    }

    /// Counter delta (0 for an unknown name).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Samples recorded into a histogram during the run.
    pub fn count(&self, hist: &str) -> u64 {
        self.hists
            .iter()
            .find(|(n, ..)| n == hist)
            .map_or(0, |&(_, c, _)| c)
    }

    /// Mean of the samples recorded into a histogram during the run (0
    /// when none were).
    pub fn mean(&self, hist: &str) -> f64 {
        match self.hists.iter().find(|(n, ..)| n == hist) {
            Some(&(_, c, s)) if c > 0 => s as f64 / c as f64,
            _ => 0.0,
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_engine::metrics::HistogramSnapshot;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 10 samples: p99 needs rank ceil(9.9) = 10, the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn samples_summary() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.summary(), (3.0, 5.0, 5.0));
        assert_eq!(Samples::default().summary(), (0.0, 0.0, 0.0));
    }

    fn hist(count: u64, sum_us: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum_us,
            max_us: 0,
            p50_us: 0,
            p99_us: 0,
        }
    }

    #[test]
    fn stats_diff_takes_deltas_and_exact_means() {
        let before = StatsReply {
            counters: vec![("commits".into(), 10), ("server.busy_rejections".into(), 1)],
            histograms: vec![("server.request.execute_us".into(), hist(4, 400))],
            ..StatsReply::default()
        };
        let after = StatsReply {
            counters: vec![
                ("commits".into(), 25),
                ("server.busy_rejections".into(), 1),
                ("fsyncs".into(), 3),
            ],
            histograms: vec![
                ("server.request.execute_us".into(), hist(14, 1400)),
                ("server.request.query_us".into(), hist(0, 0)),
            ],
            ..StatsReply::default()
        };
        let d = StatsDiff::between(&before, &after);
        assert_eq!(d.counter("commits"), 15);
        assert_eq!(d.counter("server.busy_rejections"), 0);
        assert_eq!(
            d.counter("fsyncs"),
            3,
            "a counter new since `before` counts from 0"
        );
        assert_eq!(d.counter("missing"), 0);
        assert_eq!(d.count("server.request.execute_us"), 10);
        assert_eq!(d.mean("server.request.execute_us"), 100.0);
        assert_eq!(d.mean("server.request.query_us"), 0.0, "no samples: mean 0");
        assert_eq!(d.mean("missing"), 0.0);
    }

    #[test]
    fn stats_diffs_add_name_by_name() {
        let reply = |commits: u64, execs: u64, sum_us: u64| StatsReply {
            counters: vec![("commits".into(), commits)],
            histograms: vec![("server.request.execute_us".into(), hist(execs, sum_us))],
            ..StatsReply::default()
        };
        let mut d = StatsDiff::between(&reply(0, 0, 0), &reply(5, 2, 100));
        d.add(&StatsDiff::between(&reply(1, 1, 10), &reply(4, 3, 410)));
        let mut other = StatsDiff::between(&StatsReply::default(), &reply(0, 0, 0));
        other.counters.push(("fsyncs".into(), 2));
        d.add(&other);
        assert_eq!(d.counter("commits"), 8);
        assert_eq!(d.counter("fsyncs"), 2, "a name only the added diff has");
        assert_eq!(d.count("server.request.execute_us"), 4);
        assert_eq!(d.mean("server.request.execute_us"), 125.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
