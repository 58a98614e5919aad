//! Latency samples and the summaries the report takes from them.

use crate::gen::Rng;

/// Latencies kept per sample set by default. Past this many, a uniform
/// reservoir keeps a random subset, so the benchmark's own memory stays
/// flat however fast the program runs (`peak_rss_mb` would otherwise grow
/// with it).
pub const RESERVOIR: usize = 1 << 17;

/// Slices the measured window of an untraced run is cut into. Each
/// end-to-end figure is the median over slices, so a burst of outside load
/// in one slice does not move it.
pub const SLICES: usize = 15;

/// Latencies kept per slice, op type and caller.
pub const SLICE_RESERVOIR: usize = 1 << 14;

/// Latencies in nanoseconds: every op counts toward the mean; percentiles
/// come from the (possibly sampled) kept values.
#[derive(Clone, Debug)]
pub struct Samples {
    capacity: usize,
    kept: Vec<u32>,
    len: usize,
    seen: u64,
    sum_ns: u128,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::with_capacity(RESERVOIR)
    }
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Samples {
        Samples {
            capacity,
            kept: Vec::new(),
            len: 0,
            seen: 0,
            sum_ns: 0,
            rng: Rng::new(0x05A3_D1E5),
        }
    }

    pub fn push(&mut self, ns: u64) {
        if self.kept.is_empty() {
            // Touch the whole reservoir up front: the resident size is then
            // the same whether a run completes few ops or many.
            self.kept = vec![u32::MAX; self.capacity];
        }
        let ns32 = ns.min(u32::MAX as u64) as u32;
        self.seen += 1;
        self.sum_ns += ns as u128;
        if self.len < self.capacity {
            self.kept[self.len] = ns32;
            self.len += 1;
        } else {
            let j = self.rng.next_u64() % self.seen;
            if (j as usize) < self.capacity {
                self.kept[j as usize] = ns32;
            }
        }
    }

    /// Pools two sample sets (callers of one workload run at similar rates,
    /// so their reservoirs weigh alike).
    pub fn extend(&mut self, other: Samples) {
        let mut kept = self.kept[..self.len].to_vec();
        kept.extend_from_slice(&other.kept[..other.len]);
        self.len = kept.len();
        self.kept = kept;
        self.seen += other.seen;
        self.sum_ns += other.sum_ns;
    }

    /// Ops recorded.
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    /// Values the percentiles are taken over.
    pub fn kept(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    pub fn mean_us(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.seen as f64 / 1e3
    }

    /// Nearest-rank percentile `q` in microseconds (0 when empty).
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let kept = &mut self.kept[..self.len];
        kept.sort_unstable();
        let rank = ((q * kept.len() as f64).ceil() as usize).clamp(1, kept.len());
        kept[rank - 1] as f64 / 1e3
    }
}

/// Latencies of one op type, one sample set per slice of the window.
#[derive(Clone, Debug)]
pub struct Sliced(Vec<Samples>);

impl Sliced {
    pub fn new(slices: usize) -> Sliced {
        Sliced(
            (0..slices)
                .map(|_| Samples::with_capacity(SLICE_RESERVOIR))
                .collect(),
        )
    }

    pub fn push(&mut self, slice: usize, ns: u64) {
        self.0[slice].push(ns);
    }

    /// Pools another caller's samples, slice by slice.
    pub fn merge(&mut self, other: Sliced) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.extend(theirs);
        }
    }

    /// Ops recorded per slice.
    pub fn counts(&self) -> Vec<usize> {
        self.0.iter().map(Samples::len).collect()
    }

    /// Ops recorded.
    pub fn len(&self) -> usize {
        self.0.iter().map(Samples::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values the percentiles of each slice are taken over, summed.
    pub fn kept(&self) -> usize {
        self.0.iter().map(Samples::kept).sum()
    }

    /// Mean over every op of every slice, in µs.
    pub fn mean_us(&self) -> f64 {
        let sum_ns: u128 = self.0.iter().map(|s| s.sum_ns).sum();
        ratio(sum_ns as f64, self.len() as f64) / 1e3
    }

    /// The median over non-empty slices of each slice's percentile `q`.
    pub fn median_percentile_us(&mut self, q: f64) -> f64 {
        self.median_over_slices(|s| s.percentile_us(q))
    }

    /// The median over non-empty slices of each slice's mean.
    pub fn median_mean_us(&mut self) -> f64 {
        self.median_over_slices(|s| s.mean_us())
    }

    fn median_over_slices(&mut self, f: impl FnMut(&mut Samples) -> f64) -> f64 {
        let per_slice: Vec<f64> = self.0.iter_mut().filter(|s| !s.is_empty()).map(f).collect();
        if per_slice.is_empty() {
            0.0
        } else {
            median(&per_slice)
        }
    }
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
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

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::default();
        for ns in (1..=100).rev() {
            s.push(ns * 1000);
        }
        assert_eq!(s.percentile_us(0.5), 50.0);
        assert_eq!(s.percentile_us(0.99), 99.0);
        assert_eq!(s.mean_us(), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sliced_figures_are_medians_over_slices() {
        let mut s = Sliced::new(3);
        for (slice, us) in [(0, 10), (1, 20), (2, 300)] {
            s.push(slice, us * 1000);
        }
        assert_eq!(s.median_percentile_us(0.99), 20.0);
        assert_eq!(s.median_mean_us(), 20.0);
        assert_eq!(s.counts(), vec![1, 1, 1]);
        assert_eq!(s.mean_us(), 110.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut s = Samples::default();
        let n = 4 * RESERVOIR as u64;
        for i in 0..n {
            s.push(i);
        }
        assert_eq!(s.len(), n as usize);
        assert_eq!(s.kept(), RESERVOIR);
        assert_eq!(s.mean_us(), (n - 1) as f64 / 2.0 / 1e3);
        let p50 = s.percentile_us(0.5) * 1e3;
        let expected = n as f64 / 2.0;
        assert!((p50 - expected).abs() < expected * 0.02, "p50 {p50}");
    }
}
