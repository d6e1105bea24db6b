//! Latency histograms, windowed percentiles, run-to-run quantiles, and the
//! `max_rps` bisection.

/// Sub-buckets per power of two: a recorded value is known to within
/// 1/128 (0.8%) before interpolation inside its bucket.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) share the top bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS) as usize) * SUB + 2 * SUB;

/// Fixed-size log-linear histogram of nanosecond values. Failed requests
/// are recorded as infinitely late: they rank above every finite value.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u32>,
    finite: u64,
    infinite: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    let v = v.min((1u64 << MAX_BITS) - 1);
    let bits = u64::BITS - v.leading_zeros();
    if bits <= SUB_BITS + 1 {
        return v as usize;
    }
    let shift = bits - (SUB_BITS + 1);
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// `(lower bound, width)` of a bucket in nanoseconds.
fn bucket_range(i: usize) -> (f64, f64) {
    if i < 2 * SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let mantissa = i - shift * SUB;
    (((mantissa as u64) << shift) as f64, (1u64 << shift) as f64)
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            finite: 0,
            infinite: 0,
        }
    }

    /// Records one value in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.finite += 1;
    }

    /// Records one failed request.
    pub fn record_infinite(&mut self) {
        self.infinite += 1;
    }

    /// Samples recorded, failures included.
    pub fn count(&self) -> u64 {
        self.finite + self.infinite
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.finite += other.finite;
        self.infinite += other.infinite;
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds by nearest rank,
    /// interpolated inside its bucket; infinite when it falls among the
    /// failures, `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank > self.finite {
            return Some(f64::INFINITY);
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let (lo, width) = bucket_range(i);
                let frac = (rank - below) as f64 - 0.5;
                return Some(lo + width * frac / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} <= finite count {}", self.finite)
    }
}

/// One histogram per fixed-width window of a phase; a request lands in the
/// window its send was due in.
#[derive(Debug, Clone)]
pub struct Windows {
    hists: Vec<LogHist>,
    start_ns: u64,
    width_ns: u64,
}

impl Windows {
    /// `count` windows of `width_ns` starting at `start_ns`.
    pub fn new(start_ns: u64, width_ns: u64, count: usize) -> Self {
        Self {
            hists: vec![LogHist::new(); count.max(1)],
            start_ns,
            width_ns: width_ns.max(1),
        }
    }

    fn slot(&mut self, due_ns: u64) -> &mut LogHist {
        let i = (due_ns.saturating_sub(self.start_ns) / self.width_ns) as usize;
        let last = self.hists.len() - 1;
        &mut self.hists[i.min(last)]
    }

    /// Records a completed request.
    pub fn record(&mut self, due_ns: u64, latency_ns: u64) {
        self.slot(due_ns).record(latency_ns);
    }

    /// Records a failed request.
    pub fn record_infinite(&mut self, due_ns: u64) {
        self.slot(due_ns).record_infinite();
    }

    /// The per-window histograms.
    pub fn hists(&self) -> &[LogHist] {
        &self.hists
    }

    /// Every window merged.
    pub fn merged(&self) -> LogHist {
        let mut all = LogHist::new();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }

    /// The median across non-empty windows of each window's `q`-quantile,
    /// in nanoseconds.
    pub fn windowed_quantile_ns(&self, q: f64) -> Option<f64> {
        let per_window: Vec<f64> = self.hists.iter().filter_map(|h| h.quantile_ns(q)).collect();
        median(&per_window)
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Geometric bisection of the highest passing rate in `(lo, hi)`: each of
/// `probes` steps tries the geometric midpoint of the current bracket.
/// Returns every probe as `(rate, passed)` in order; the caller reports the
/// highest passing one.
pub fn bisect(
    lo: f64,
    hi: f64,
    probes: usize,
    mut passes: impl FnMut(f64) -> bool,
) -> Vec<(f64, bool)> {
    let (mut lo, mut hi) = (lo, hi);
    let mut trail = Vec::with_capacity(probes);
    for _ in 0..probes {
        let rate = (lo * hi).sqrt();
        let ok = passes(rate);
        trail.push((rate, ok));
        if ok {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    trail
}
