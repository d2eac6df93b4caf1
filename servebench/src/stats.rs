//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. `q` is clamped to
/// `[0, 1]`; an empty sample yields `NaN`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean of an unsorted sample: the mean of what is left
/// after dropping the lowest and the highest quarter (rounded down) of it;
/// `NaN` when empty. Unlike the median it averages a sample that falls into
/// two clusters instead of jumping between them, and unlike the mean it
/// ignores a few outliers.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Times `f` over `rounds` rounds of `iters` calls each and returns the
/// median nanoseconds per call; the median over rounds keeps one preempted
/// round from moving the figure.
pub fn median_ns_per_call(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_round)
}

/// Times several functions round-robin — each round makes `iters` calls of
/// every function in turn — and returns, per function, nanoseconds per call
/// in each round. Interleaving lets related layers see the same host
/// conditions, so per-round differences between them mean something.
pub fn interleaved_rounds(
    rounds: usize,
    iters: usize,
    fs: &mut [&mut dyn FnMut()],
) -> Vec<Vec<f64>> {
    let mut per_round = vec![Vec::with_capacity(rounds); fs.len()];
    for _ in 0..rounds {
        for (f, times) in fs.iter_mut().zip(per_round.iter_mut()) {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            times.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    per_round
}

/// Median over rounds of `outer - inner`: the self time of a layer that
/// wraps another, from [`interleaved_rounds`] samples.
pub fn median_difference(outer: &[f64], inner: &[f64]) -> f64 {
    let diffs: Vec<f64> = outer.iter().zip(inner).map(|(o, i)| o - i).collect();
    median(&diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // Ten samples: p90 is the ninth value, p99 the tenth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[1000.0, 1.0, 3.0, 2.0, 0.0]), 2.0);
        // Nine values: the lowest two and the highest two are dropped.
        let nine = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(interquartile_mean(&nine), 5.0);
        // Two clusters: the median jumps to one, this lands between them.
        let split = [10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0, 20.0];
        assert_eq!(interquartile_mean(&split), 16.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn median_difference_pairs_rounds() {
        let outer = [10.0, 50.0, 12.0];
        let inner = [7.0, 45.0, 10.0];
        assert_eq!(median_difference(&outer, &inner), 3.0);
    }
}
