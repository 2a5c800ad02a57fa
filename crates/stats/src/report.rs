//! Statistics query results and derived moments.

use std::time::Duration;

/// Timing/traffic breakdown of a statistics query (same components as the
/// base protocol's report).
#[derive(Clone, Debug, Default)]
pub struct StatsTimings {
    /// Online client encryption time (one pass of index encryptions).
    pub client_encrypt: Duration,
    /// Total server compute across all requested aggregates.
    pub server_compute: Duration,
    /// Simulated communication time.
    pub comm: Duration,
    /// Total client decryption time (one decryption per aggregate).
    pub client_decrypt: Duration,
    /// Payload bytes client → server.
    pub bytes_to_server: usize,
    /// Payload bytes server → client.
    pub bytes_to_client: usize,
}

/// Decrypted aggregates and the statistics derived from them.
#[derive(Clone, Debug)]
pub struct StatsReport {
    /// `Σ I_i` — selected-row count (or total weight).
    pub count: Option<u128>,
    /// `Σ I_i·x_i` — selected (weighted) sum.
    pub sum: Option<u128>,
    /// `Σ I_i·x_i²` — selected sum of squares.
    pub sum_squares: Option<u128>,
    /// Execution breakdown.
    pub timings: StatsTimings,
}

impl StatsReport {
    /// Assembles a report.
    pub fn new(
        count: Option<u128>,
        sum: Option<u128>,
        sum_squares: Option<u128>,
        timings: StatsTimings,
    ) -> Self {
        StatsReport {
            count,
            sum,
            sum_squares,
            timings,
        }
    }

    /// Mean of the selected rows; `None` unless both count and sum were
    /// requested, or the selection is empty.
    pub fn mean(&self) -> Option<f64> {
        match (self.count, self.sum) {
            (Some(c), Some(s)) if c > 0 => Some(s as f64 / c as f64),
            _ => None,
        }
    }

    /// Population variance `E[x²] − E[x]²` of the selected rows; `None`
    /// unless all three aggregates were requested and count > 0.
    pub fn variance(&self) -> Option<f64> {
        let c = self.count? as f64;
        if c == 0.0 {
            return None;
        }
        let mean = self.mean()?;
        let mean_sq = self.sum_squares? as f64 / c;
        // Clamp tiny negative values from floating-point rounding.
        Some((mean_sq - mean * mean).max(0.0))
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(count: u128, sum: u128, sq: u128) -> StatsReport {
        StatsReport::new(Some(count), Some(sum), Some(sq), StatsTimings::default())
    }

    #[test]
    fn moments_of_known_set() {
        // {1, 2, 3, 4}: mean 2.5, population variance 1.25.
        let r = report(4, 10, 1 + 4 + 9 + 16);
        assert_eq!(r.mean(), Some(2.5));
        assert!((r.variance().unwrap() - 1.25).abs() < 1e-12);
        assert!((r.std_dev().unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn missing_aggregates_give_none() {
        let r = StatsReport::new(None, Some(10), None, StatsTimings::default());
        assert!(r.mean().is_none());
        assert!(r.variance().is_none());
        let r = StatsReport::new(Some(5), None, Some(10), StatsTimings::default());
        assert!(r.mean().is_none());
    }

    #[test]
    fn empty_selection_edge() {
        let r = report(0, 0, 0);
        assert!(r.mean().is_none());
        assert!(r.variance().is_none());
    }

    #[test]
    fn single_row_variance_zero_sample_none() {
        let r = report(1, 7, 49);
        assert_eq!(r.variance(), Some(0.0));
    }

    #[test]
    fn rounding_clamp() {
        // Constructed so mean_sq - mean² is a tiny negative float.
        let r = report(3, 3_000_000_001, 3_000_000_002_000_000_000);
        assert!(r.variance().unwrap() >= 0.0);
    }
}
