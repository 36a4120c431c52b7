//! Order statistics for the reported metrics.

/// Median of `v` (mean of the two middle values for an even count; 0 for
/// an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        f64::midpoint(s[mid - 1], s[mid])
    } else {
        s[mid]
    }
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The percentiles a tail may be reported at, highest first, in hundredths
/// of a percent (integer ranks avoid float rounding at the boundaries).
const LADDER: [u64; 7] = [9999, 9990, 9900, 9500, 9000, 7500, 5000];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency and the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// The highest percentile of [`LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank; the median when
/// there are too few samples for any of them.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |bp: u64| {
        // Nearest rank, 1-based: the smallest k with k/n >= bp/10000.
        let rank = usize::try_from((bp * n as u64).div_ceil(10_000))
            .expect("rank fits usize")
            .max(1);
        Tail {
            percentile: bp as f64 / 100.0,
            value: s.get(rank.min(n).wrapping_sub(1)).copied().unwrap_or(0.0),
            beyond: n.saturating_sub(rank),
            count: n,
        }
    };
    LADDER
        .iter()
        .map(|&bp| at(bp))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(5000))
}

/// Ops a run of consecutive passes must hold for [`chunked_tail`] to read
/// a tail in it: enough for p90 with ten ops beyond.
pub const CHUNK_OPS: usize = 100;

/// A tail read in runs of consecutive passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedTail {
    /// The percentile, e.g. 99.0 (that of the first run of passes).
    pub percentile: f64,
    /// The median over the runs of their tails.
    pub value: f64,
    /// Ops beyond the percentile in the first run of passes.
    pub beyond: usize,
    /// Ops in the first run of passes.
    pub count: usize,
    /// Runs of passes read.
    pub chunks: usize,
}

/// The [`tail`] of each run of consecutive passes holding at least
/// [`CHUNK_OPS`] ops (a short last run joins the one before it), and the
/// median over those runs. A pass with many ops is its own run, so a
/// stretch of host interference spoils only the tails of the passes it
/// covers; passes with a few slow op kinds pool until the tail lies inside
/// the slowest kind instead of on a boundary between kinds.
pub fn chunked_tail<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> ChunkedTail {
    let mut chunks: Vec<Vec<f64>> = vec![Vec::new()];
    for ops in passes {
        let last = chunks.last_mut().expect("never empty");
        if last.len() >= CHUNK_OPS {
            chunks.push(ops.to_vec());
        } else {
            last.extend_from_slice(ops);
        }
    }
    if chunks.len() > 1 && chunks.last().is_some_and(|c| c.len() < CHUNK_OPS) {
        let short = chunks.pop().expect("more than one");
        chunks.last_mut().expect("more than one").extend(short);
    }
    let tails: Vec<Tail> = chunks.iter().map(|c| tail(c)).collect();
    let first = tails[0];
    ChunkedTail {
        percentile: first.percentile,
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        beyond: first.beyond,
        count: first.count,
        chunks: tails.len(),
    }
}

/// Mix `salt` into `seed` (splitmix64): independent sub-seeds for each
/// generated input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` from `mix(seed, salt)`.
pub fn uniform(seed: u64, salt: u64, lo: f64, hi: f64) -> f64 {
    let unit = (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond; p99.9 has 1.
        let t = tail(&ramp(1000));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.count),
            (99.0, 990.0, 10, 1000)
        );
        // 40 samples reach p75 but not p90.
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        // One sample fewer leaves p99 with 9 beyond, so it steps down.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        // 100 000 samples reach p99.99.
        let t = tail(&ramp(100_000));
        assert_eq!((t.percentile, t.beyond), (99.99, 10));
        // Order does not matter.
        let mut rev = ramp(100);
        rev.reverse();
        assert_eq!(tail(&rev).value, 90.0);
        for n in [20, 39, 40, 57, 100, 250, 1000, 4321, 12_000] {
            let t = tail(&ramp(n));
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            let next = LADDER
                .iter()
                .rev()
                .find(|&&bp| bp as f64 / 100.0 > t.percentile);
            if let Some(&bp) = next {
                let rank = (bp as usize * n).div_ceil(10_000);
                assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: {bp} bp also qualifies");
            }
        }
    }

    #[test]
    fn tail_of_too_few_samples_is_the_median() {
        let t = tail(&ramp(7));
        assert_eq!((t.percentile, t.value, t.count), (50.0, 4.0, 7));
        assert_eq!(tail(&[]).count, 0);
    }

    #[test]
    fn chunked_tail_reads_each_run_of_passes_and_takes_the_median() {
        // Passes of 1000 ops are runs of their own: p99, 10 beyond each.
        let passes: Vec<Vec<f64>> = (0..5)
            .map(|k| ramp(1000).iter().map(|v| v + f64::from(k)).collect())
            .collect();
        let t = chunked_tail(passes.iter().map(Vec::as_slice));
        assert_eq!(
            (t.percentile, t.beyond, t.count, t.chunks),
            (99.0, 10, 1000, 5)
        );
        assert_eq!(t.value, 992.0);
        // Passes of 6 ops pool into runs of 102; 10 passes leave a short
        // run of 60 that joins the first: one run of 60 ops, p75.
        let small: Vec<Vec<f64>> = (0..10).map(|_| ramp(6)).collect();
        let t = chunked_tail(small.iter().map(Vec::as_slice));
        assert_eq!((t.chunks, t.count, t.percentile), (1, 60, 75.0));
        let t = chunked_tail((0..40).map(|_| [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].as_slice()));
        assert_eq!((t.chunks, t.count, t.percentile), (2, 102, 90.0));
        // p90 of six kinds lies inside the slowest kind.
        assert_eq!(t.value, 6.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn sub_seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        for salt in 0..100 {
            let u = uniform(3, salt, -1.0, 1.0);
            assert!((-1.0..1.0).contains(&u));
        }
    }
}
