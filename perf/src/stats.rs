//! Order statistics for host timings.

/// The `q`-quantile of `samples`, interpolating linearly between order
/// statistics (`q = 0` is the minimum, `q = 1` the maximum).
///
/// # Panics
///
/// Panics if `samples` is empty, holds a NaN, or `q` is outside `0..=1`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = pos.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

/// The estimator of short standalone timings: repetitions do identical
/// work, so time above the fastest ones is interference from the host;
/// the lower quartile discards it while staying less sensitive than the
/// minimum to one unusually lucky sample.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

/// The estimator of a run's host time (README.md, "Estimator").
/// `reps[r][k]` is the time repetition `r` spent in segment `k` of the
/// run. Every repetition does bit-identical work segment by segment, and
/// interference from the host only ever adds time, so the fastest
/// execution of each segment is the best evidence of what that segment
/// costs; their sum is the run as it would go on an undisturbed host. A
/// host that is busy for seconds at a time ruins whole repetitions but
/// rarely the same segment of every one.
///
/// # Panics
///
/// Panics if `reps` is empty or the repetitions differ in length.
pub fn best_composite<R: AsRef<[f64]>>(reps: &[R]) -> f64 {
    let first = reps.first().expect("composite of no repetitions");
    let segments = first.as_ref().len();
    assert!(
        reps.iter().all(|r| r.as_ref().len() == segments),
        "repetitions of identical work have identical segments"
    );
    (0..segments)
        .map(|k| {
            reps.iter()
                .map(|r| r.as_ref()[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Interquartile range as a share of the median: how much the repetitions
/// of one run disagreed.
pub fn iqr_frac(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
        assert_eq!(lower_quartile(&s), 2.0);
    }

    #[test]
    fn composite_takes_each_segment_from_its_fastest_repetition() {
        let reps = [
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.5, 2.5],
            vec![2.0, 4.0, 0.5],
        ];
        assert_eq!(best_composite(&reps), 1.0 + 1.5 + 0.5);
        assert_eq!(best_composite(&reps[..1]), 8.0);
    }

    #[test]
    fn iqr_frac_is_zero_for_identical_reps_and_scales_with_spread() {
        assert_eq!(iqr_frac(&[2.0; 7]), 0.0);
        assert_eq!(iqr_frac(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile of no samples")]
    fn quantile_rejects_empty_input() {
        quantile(&[], 0.5);
    }
}
