//! Measurement primitives: a fine log-linear latency histogram with
//! interpolated quantiles, quantiles over `lrb-obs` histogram deltas,
//! medians, peak resident memory and the pooled chi-square test.

use lrb_obs::histogram::bounds_of;
use lrb_stats::chi_square::chi_square_gof;

/// Values below this are their own bucket.
const LINEAR: u64 = 32;
/// Sub-buckets per octave above [`LINEAR`] (bucket width 1/32 ≈ 3 %,
/// interpolated within).
const SUB_BITS: u32 = 5;
const FIRST_EXP: u32 = SUB_BITS;
const BUCKETS: usize = LINEAR as usize + (64 - FIRST_EXP as usize) * (1 << SUB_BITS);

/// A fixed-size latency histogram in nanoseconds. Memory stays constant
/// however many samples a run records, so the client side does not move
/// the process's peak resident memory with the run length.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    count: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
        }
    }
}

fn bucket(value: u64) -> usize {
    if value < LINEAR {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    LINEAR as usize + ((exp - FIRST_EXP) as usize) * (1 << SUB_BITS) + sub as usize
}

fn bucket_bounds(index: usize) -> (f64, f64) {
    if (index as u64) < LINEAR {
        return (index as f64, index as f64 + 1.0);
    }
    let level = index - LINEAR as usize;
    let exp = FIRST_EXP + (level >> SUB_BITS) as u32;
    let sub = (level & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = ((1u64 << SUB_BITS) + sub) << (exp - SUB_BITS);
    (lower as f64, lower as f64 + width as f64)
}

/// The `q`-quantile of bucketed counts, interpolated linearly inside the
/// bucket that holds the rank. 0 for an empty histogram.
fn interpolated(counts: &[u64], q: f64, bounds: impl Fn(usize) -> (f64, f64)) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).clamp(0.0, total as f64);
    let mut seen = 0u64;
    for (index, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if (seen + count) as f64 >= rank {
            let (lower, upper) = bounds(index);
            let within = (rank - seen as f64) / count as f64;
            return lower + within * (upper - lower);
        }
        seen += count;
    }
    let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    bounds(last).1
}

impl LatHist {
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket(nanos)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Interpolated `q`-quantile in nanoseconds.
    pub fn quantile(&self, q: f64) -> f64 {
        interpolated(&self.counts, q, bucket_bounds)
    }
}

/// Interpolated `q`-quantile of `lrb-obs` histogram bucket counts.
pub fn obs_quantile(counts: &[u64], q: f64) -> f64 {
    interpolated(counts, q, |index| {
        let (lower, upper) = bounds_of(index);
        (lower as f64, upper as f64)
    })
}

/// Sum `lrb-obs` bucket-count vectors element-wise into `into`.
pub fn add_counts(into: &mut Vec<u64>, counts: &[u64]) {
    if into.len() < counts.len() {
        into.resize(counts.len(), 0);
    }
    for (slot, &count) in into.iter_mut().zip(counts) {
        *slot += count;
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Outcome of checking observed draw counts against exact weights.
#[derive(Debug, Clone, Copy)]
pub struct Conformance {
    pub p_value: f64,
    pub bins: usize,
    /// Draws that landed on a zero-weight category.
    pub zero_weight_hits: u64,
}

/// Pearson chi-square of `observed` against `F_i = w_i / Σ w`, with
/// neighbouring positive-weight categories pooled (in index order) until
/// each bin expects at least five draws. Zero-weight categories are not
/// binned: any draw on one is counted in `zero_weight_hits`.
pub fn conformance(observed: &[u64], weights: &[f64]) -> Conformance {
    assert_eq!(observed.len(), weights.len());
    let total_weight: f64 = weights.iter().sum();
    let draws: u64 = observed.iter().sum();
    let mut zero_weight_hits = 0u64;
    let mut bins_obs = Vec::new();
    let mut bins_p = Vec::new();
    let (mut acc_obs, mut acc_p) = (0u64, 0.0f64);
    for (&count, &weight) in observed.iter().zip(weights) {
        if weight <= 0.0 {
            zero_weight_hits += count;
            continue;
        }
        acc_obs += count;
        acc_p += weight / total_weight;
        if acc_p * draws as f64 >= 5.0 {
            bins_obs.push(acc_obs);
            bins_p.push(acc_p);
            (acc_obs, acc_p) = (0, 0.0);
        }
    }
    if acc_p > 0.0 {
        match (bins_obs.last_mut(), bins_p.last_mut()) {
            (Some(o), Some(p)) => {
                *o += acc_obs;
                *p += acc_p;
            }
            _ => {
                bins_obs.push(acc_obs);
                bins_p.push(acc_p);
            }
        }
    }
    let p_value = if bins_obs.len() < 2 {
        // Too few draws to test anything: nothing contradicts the law.
        1.0
    } else {
        // Renormalise the pooled probabilities against rounding drift.
        let sum: f64 = bins_p.iter().sum();
        let probs: Vec<f64> = bins_p.iter().map(|p| p / sum).collect();
        chi_square_gof(&bins_obs, &probs).p_value
    };
    Conformance {
        p_value,
        bins: bins_obs.len(),
        zero_weight_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_contain_their_values() {
        for index in 0..BUCKETS - 1 {
            assert_eq!(bucket_bounds(index).1, bucket_bounds(index + 1).0);
        }
        for value in [0u64, 1, 127, 128, 129, 1000, 12_345, 1 << 40] {
            let (lower, upper) = bucket_bounds(bucket(value));
            assert!(lower <= value as f64 && (value as f64) < upper, "{value}");
        }
    }

    #[test]
    fn quantiles_track_a_uniform_spread_within_a_bucket_width() {
        let mut hist = LatHist::default();
        for v in 1..=100_000u64 {
            hist.record(v);
        }
        let p50 = hist.quantile(0.5);
        let p99 = hist.quantile(0.99);
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.01, "{p99}");
    }

    #[test]
    fn conformance_accepts_exact_counts_and_flags_zero_weight_hits() {
        let weights = [1.0, 0.0, 2.0, 3.0];
        let exact = conformance(&[1000, 0, 2000, 3000], &weights);
        assert!(exact.p_value > 0.9 && exact.zero_weight_hits == 0);
        let hit = conformance(&[1000, 7, 2000, 3000], &weights);
        assert_eq!(hit.zero_weight_hits, 7);
        let skewed = conformance(&[3000, 0, 2000, 1000], &weights);
        assert!(skewed.p_value < 1e-6);
    }
}
