//! Small statistics helpers: nearest-rank percentiles that carry their
//! sample count, the per-segment fastest replay, and the metric-name
//! rule the result line must follow.

/// A nearest-rank percentile together with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    /// The percentile's value (the `rank`-th smallest sample).
    pub value: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank — at least ten are
    /// needed before a tail percentile says anything about the tail.
    pub beyond: usize,
}

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by the
/// nearest-rank method: the smallest sample with at least `p` % of all
/// samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> Option<Percentile> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The fastest time of every segment of a replay, over replays that do
/// identical work. A replay is cut into segments at marks it passes in
/// the same order every time (the fleet's routing decisions, the
/// device's service-loop steps), and each segment keeps the fastest
/// time any replay took for it. Their sum is the replay's time at the
/// machine's quietest: a slow spell of the host, which can only slow
/// work down, then costs one segment's sample, not a whole replay's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FastestSegments {
    best: Vec<f64>,
}

impl FastestSegments {
    /// Adds one replay, given as the elapsed seconds at each of its
    /// marks, the last one at its end. Every replay must pass as many
    /// marks as the first one did.
    pub fn add(&mut self, marks: &[f64]) -> Result<(), String> {
        let segments = marks
            .iter()
            .scan(0.0, |prev, &at| Some(at - std::mem::replace(prev, at)));
        if self.best.is_empty() {
            self.best = segments.collect();
        } else if marks.len() != self.best.len() {
            return Err(format!(
                "a replay passed {} marks, the first {}",
                marks.len(),
                self.best.len()
            ));
        } else {
            for (best, s) in self.best.iter_mut().zip(segments) {
                *best = best.min(s);
            }
        }
        Ok(())
    }

    /// Segments per replay.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// The longest segment's fastest time, in seconds.
    pub fn longest_secs(&self) -> f64 {
        self.best.iter().copied().fold(0.0, f64::max)
    }

    /// Seconds of a replay made of every segment's fastest time.
    pub fn total_secs(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_a_hundred_leaves_ten_beyond() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        let p = percentile(&samples, 90.0).unwrap();
        assert_eq!(p.value, 90);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50, 50));
    }

    #[test]
    fn small_samples_report_how_thin_the_tail_is() {
        let p = percentile(&[7, 3, 5], 90.0).unwrap();
        assert_eq!(p.value, 7);
        assert_eq!(p.samples, 3);
        assert_eq!(p.beyond, 0);
        assert_eq!(percentile(&[4], 1.0).unwrap().value, 4);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1, 2], 0.0), None);
        assert_eq!(percentile(&[1, 2], 101.0), None);
    }

    #[test]
    fn fastest_segments_sum_each_segments_best_replay() {
        let mut f = FastestSegments::default();
        f.add(&[1.0, 3.0, 4.0]).unwrap();
        // Segments 2.0, 0.5, 3.0: faster in the middle, slower at the end.
        f.add(&[2.0, 2.5, 5.5]).unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f.longest_secs(), 1.0);
        assert_eq!(f.total_secs(), 1.0 + 0.5 + 1.0);
        assert!(f.add(&[1.0, 2.0]).is_err());
        assert_eq!(f.total_secs(), 2.5);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "service.settle.ms_p99",
            "fleet.run_ms",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "quo\"te",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
