//! Percentiles, quartiles and the parent-versus-change verdict.

/// The `p`-th percentile (0 < p <= 100) by nearest rank: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive").
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => panic!("quartiles of no samples"),
        1 => (v[0], v[0], v[0]),
        ld => {
            let n = 4usize;
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Whether a larger value of a metric is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    fn worse_by(self, parent: f64, change: f64) -> f64 {
        let d = (change - parent) / parent.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Higher => -d,
            Better::Lower => d,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and the medians differ by
    /// more than the parent's own quartile spread.
    Improved,
    /// The change's median is no worse than the parent's by more than the
    /// bound.
    WithinBound,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's spread exceeds the bound and not every change run beats
    /// every parent run, or there are fewer than ten pairs.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a comparison needs before it reaches a verdict.
pub const MIN_PAIRS: usize = 10;

/// One metric on one workload: parent and change runs, paired by position.
pub struct Comparison {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    pub pairs: usize,
    /// Pairs the change won outright, as a share of all pairs.
    pub win_fraction: f64,
    pub verdict: Verdict,
}

/// Compares parent and change runs of one metric by the rules of the
/// benchmark's README: at least [`MIN_PAIRS`] pairs; a gain needs a 9/10
/// win fraction and a median shift beyond the parent's quartile spread; a
/// regression is a median worse by more than `bound`.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let pairs = parent.len().min(change.len());
    let p = quartiles(parent);
    let c = quartiles(change);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&a, &b)| better.worse_by(a, b) < 0.0)
        .count();
    let win_fraction = wins as f64 / pairs.max(1) as f64;
    let all_better = change
        .iter()
        .all(|&b| parent.iter().all(|&a| better.worse_by(a, b) < 0.0));
    let spread = (p.2 - p.0) / p.1.abs().max(f64::MIN_POSITIVE);
    let worse = better.worse_by(p.1, c.1);
    let verdict = if pairs < MIN_PAIRS {
        Verdict::Unresolved
    } else if win_fraction >= 0.9 && worse < 0.0 && (c.1 - p.1).abs() > p.2 - p.0 {
        Verdict::Improved
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Comparison {
        parent: p,
        change: c,
        pairs,
        win_fraction,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 7.0, 10.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[2.0, 1.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(
            percentile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 90.0),
            9.0
        );
    }

    fn runs(base: f64, n: usize, step: f64) -> Vec<f64> {
        (0..n).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_improved() {
        let parent = runs(100.0, 10, 0.1);
        let change = runs(90.0, 10, 0.1);
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.win_fraction, 1.0);
        let c = compare(&change, &parent, Better::Higher, 0.1);
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn small_shifts_are_within_bound_and_large_ones_regress() {
        let parent = runs(100.0, 10, 0.1);
        let slightly_worse = runs(105.0, 10, 0.1);
        let c = compare(&parent, &slightly_worse, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::WithinBound);
        assert_eq!(c.win_fraction, 0.0);
        let much_worse = runs(120.0, 10, 0.1);
        assert_eq!(
            compare(&parent, &much_worse, Better::Lower, 0.1).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare(&parent, &much_worse, Better::Higher, 0.1).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = runs(80.0, 10, 5.0); // quartile spread ~25% of the median
        let change = runs(81.0, 10, 5.0);
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn fewer_than_ten_pairs_is_unresolved() {
        let parent = runs(100.0, 9, 0.1);
        let change = runs(50.0, 9, 0.1);
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.pairs, 9);
        assert_eq!(c.verdict, Verdict::Unresolved);
    }
}
