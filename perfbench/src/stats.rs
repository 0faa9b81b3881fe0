//! Order statistics, tails, the seeded generator, and the result types
//! every workload fills in.

/// Percentiles tried for a tail, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((n - 1) as f64 * p).round() as usize
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it: `(percentile, value, samples beyond)`. Falls back to the
/// median when even that leaves fewer.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    let beyond = |p: f64| if n == 0 { 0 } else { n - 1 - rank(n, p) };
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p) >= TAIL_BEYOND)
        .unwrap_or(0.5);
    (p, percentile(sorted, p), beyond(p))
}

/// Median, quartiles and range of one metric's per-rep values.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the benchmark's own spread
/// figures match what a reader computes from its output.
pub fn spread(values: &[f64]) -> Spread {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return Spread {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quartile = |i: f64| {
        if n < 2 {
            return v[0];
        }
        let j = i * (n + 1) as f64 / 4.0;
        let lo = j.floor() as usize;
        if lo < 1 {
            v[0]
        } else if lo >= n {
            v[n - 1]
        } else {
            v[lo - 1] + (j - lo as f64) * (v[lo] - v[lo - 1])
        }
    };
    Spread {
        median,
        q1: quartile(1.0),
        q3: quartile(3.0),
        min: v[0],
        max: v[n - 1],
    }
}

/// SplitMix64: every workload input is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x1a2b_3c4d_5e6f_7081)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Which of a metric's per-rep values a run reports.
///
/// Interference from the rest of a shared host only ever slows a rep,
/// and it comes in stretches of seconds to minutes, longer than a run,
/// so a run's median moves with the host as much as with the program.
/// The rep the host slowed least is the steadiest estimate of the
/// program's own speed: the highest rate, the lowest latency. Each rep
/// still holds the whole operation mix, and its latencies are still a
/// median and a tail over its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    Median,
    Highest,
    Lowest,
}

/// One named measurement: per-rep values, and which of them is reported.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub values: Vec<f64>,
    pub report: Report,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, values: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            values,
            report: Report::Median,
        }
    }

    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, vec![value])
    }

    pub fn reported(self, report: Report) -> Metric {
        Metric { report, ..self }
    }

    /// The reported figure.
    pub fn value(&self) -> f64 {
        let s = spread(&self.values);
        match self.report {
            Report::Median => s.median,
            Report::Highest => s.max,
            Report::Lowest => s.min,
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Seconds of each set-up, before and between slices of the timed loop.
    pub setup_s: Vec<f64>,
    /// Work completed per second, one value per rep.
    pub ops_per_s: Vec<f64>,
    /// Per-rep median latency of one operation, µs.
    pub lat_p50_us: Vec<f64>,
    /// Per-rep tail latency of one operation, µs.
    pub lat_tail_us: Vec<f64>,
    /// Tail percentile used and the fewest samples beyond it in any rep.
    pub tail_pct: f64,
    pub tail_beyond: usize,
    /// Latency samples per rep (fewest over the reps).
    pub samples_per_rep: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The workload's own named end-to-end figures (printed and recorded;
    /// the gated metrics above are derived from the same measurements).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl RunOut {
    /// Records one rep's latency samples (µs).
    pub fn push_latencies(&mut self, mut lat_us: Vec<f64>) {
        lat_us.sort_by(f64::total_cmp);
        let (p, v, beyond) = tail(&lat_us);
        if self.lat_tail_us.is_empty() || beyond < self.tail_beyond {
            self.tail_beyond = beyond;
        }
        if self.lat_tail_us.is_empty() || lat_us.len() < self.samples_per_rep {
            self.samples_per_rep = lat_us.len();
        }
        self.tail_pct = p;
        self.lat_p50_us.push(percentile(&lat_us, 0.5));
        self.lat_tail_us.push(v);
    }

    /// Counts a failed check and keeps the first few reasons.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why().chars().take(240).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, _, beyond) = tail(&v);
        assert_eq!(p, 0.99);
        assert!(beyond >= TAIL_BEYOND);
    }
}
