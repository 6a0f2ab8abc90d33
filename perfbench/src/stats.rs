//! Quantiles from raw samples — never from histogram buckets.
//!
//! Two selection rules, both unit-tested below:
//!
//! * [`median`]: the middle sample, or the mean of the two middle
//!   samples for an even count.
//! * [`tail`]: the nearest-rank percentile (the smallest sample with at
//!   least `p`% of the samples at or below it). A tail is only reported
//!   as that percentile when at least [`MIN_BEYOND_TAIL`] samples lie
//!   strictly beyond its rank; otherwise the maximum is reported and
//!   labelled as such, so a thin sample never masquerades as a p99.

/// How many samples must lie beyond a tail percentile's rank before the
/// percentile itself is reported.
const MIN_BEYOND_TAIL: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of raw samples; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A tail statistic together with what it actually is.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// `"p99"` (nearest rank) when enough samples lie beyond it, else
    /// `"max"`.
    pub label: String,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Tail percentile `p` of raw samples under the rule in the module docs.
pub fn tail(values: &[f64], p: f64) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            label: "none".to_owned(),
            beyond: 0,
        };
    }
    let rank = nearest_rank(p, n);
    let beyond = n - rank;
    if beyond >= MIN_BEYOND_TAIL {
        Tail {
            value: v[rank - 1],
            label: format!("p{p}"),
            beyond,
        }
    } else {
        Tail {
            value: v[n - 1],
            label: "max".to_owned(),
            beyond,
        }
    }
}

/// Splits `(t_seconds, value)` samples into consecutive windows of
/// `window_s` seconds (by sample time) and returns each window's values.
/// A trailing partial window shorter than half a window is folded into
/// the window before it, so every window carries comparable weight.
pub fn windows(samples: &[(f64, f64)], window_s: f64, span_s: f64) -> Vec<Vec<f64>> {
    let full = (span_s / window_s).floor() as usize;
    let keep_partial = span_s - full as f64 * window_s >= 0.5 * window_s;
    let count = (full + usize::from(keep_partial)).max(1);
    let mut out = vec![Vec::new(); count];
    for &(t, v) in samples {
        let k = ((t / window_s).floor().max(0.0) as usize).min(count - 1);
        out[k].push(v);
    }
    out.retain(|w| !w.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(99.0, 1), 1);
        assert_eq!(nearest_rank(100.0, 7), 7);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1..=1000: rank 990 leaves exactly 10 beyond → a real p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.value, t.label.as_str(), t.beyond), (990.0, "p99", 10));
        // 999 samples: rank 990 leaves 9 beyond → falls back to max.
        let t = tail(&v[..999], 99.0);
        assert_eq!((t.value, t.label.as_str(), t.beyond), (999.0, "max", 9));
        // A handful of samples is always the max.
        let t = tail(&[5.0, 1.0, 9.0], 99.0);
        assert_eq!((t.value, t.label.as_str()), (9.0, "max"));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail(&v, 99.0);
        v.reverse();
        assert_eq!(a, tail(&v, 99.0));
        assert_eq!(a.value, 1979.0);
    }

    #[test]
    fn windows_drop_short_trailing_window() {
        let s: Vec<(f64, f64)> = (0..50).map(|i| (f64::from(i) * 0.1, 1.0)).collect();
        // 5 s of samples in 2 s windows: [0,2) [2,4) [4,5) — the last
        // is half a window, so it is kept.
        assert_eq!(
            windows(&s, 2.0, 5.0)
                .iter()
                .map(Vec::len)
                .collect::<Vec<_>>(),
            vec![20, 20, 10]
        );
        // A 0.9 s tail of a 2 s window is folded into the last window.
        assert_eq!(
            windows(&s, 2.0, 4.9)
                .iter()
                .map(Vec::len)
                .collect::<Vec<_>>(),
            vec![20, 30]
        );
    }
}
