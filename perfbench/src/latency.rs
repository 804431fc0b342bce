//! Detection-latency arithmetic of the paced pass.
//!
//! Deliveries are the events in the order they are pushed. After each
//! delivery the declared disorder bound `D` proves a prefix of event
//! time; a match's *proving delivery* is the first one after which its
//! provable time is proven. With `D = 0` the stream is in `(timestamp,
//! seq)` order, so delivering an event proves every position up to its
//! own. With `D > 0` a delivered maximum `M` proves every timestamp
//! below `M - D`, which is exactly when the runtime's watermark
//! releases an event.

use crate::query::Provable;

/// Proving deliveries over one delivery order.
pub struct ProofIndex {
    bound: u64,
    /// `(timestamp, seq)` of each delivery (`D = 0`) or the running
    /// maximum timestamp with seq 0 (`D > 0`); non-decreasing.
    frontier: Vec<(u64, u64)>,
}

impl ProofIndex {
    pub fn new(deliveries: &[(u64, u64)], bound: u64) -> Self {
        let frontier = if bound == 0 {
            debug_assert!(deliveries.windows(2).all(|w| w[0] <= w[1]));
            deliveries.to_vec()
        } else {
            let mut max = 0;
            deliveries
                .iter()
                .map(|&(ts, _)| {
                    max = max.max(ts);
                    (max, 0)
                })
                .collect()
        };
        Self { bound, frontier }
    }

    /// Index of the proving delivery of a match whose last positive
    /// event has seq `last_seq`, or `None` when only the end-of-input
    /// call proves it.
    pub fn proving(&self, provable: Provable, last_seq: u64) -> Option<usize> {
        let i = match (self.bound, provable) {
            (0, Provable::Through(ts)) => self.frontier.partition_point(|&p| p < (ts, last_seq)),
            (0, Provable::AllUpTo(ts)) => self.frontier.partition_point(|&(t, _)| t <= ts),
            (d, Provable::Through(ts) | Provable::AllUpTo(ts)) => self
                .frontier
                .partition_point(|&(m, _)| m.saturating_sub(d) <= ts),
        };
        (i < self.frontier.len()).then_some(i)
    }
}

/// The `q`-quantile of `values` by nearest rank: the smallest value
/// with at least `q` of the sample at or below it. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of a sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_proof_is_the_last_event_or_the_first_past_the_scope() {
        let deliveries = [(0, 1), (5, 2), (5, 3), (9, 4), (12, 5)];
        let idx = ProofIndex::new(&deliveries, 0);
        // A match ending at (5, 3) is proven by its own delivery.
        assert_eq!(idx.proving(Provable::Through(5), 3), Some(2));
        // A negation scope ending at 9 needs an event past 9.
        assert_eq!(idx.proving(Provable::AllUpTo(9), 0), Some(4));
        assert_eq!(idx.proving(Provable::AllUpTo(12), 0), None);
    }

    #[test]
    fn bounded_disorder_proof_needs_the_watermark_past_the_time() {
        // D = 3: the watermark max - 3 must pass the provable time.
        let deliveries = [(4, 1), (2, 2), (7, 3), (6, 4), (11, 5)];
        let idx = ProofIndex::new(&deliveries, 3);
        // Time 3 is proven once max reaches 7 (7 - 3 = 4 > 3).
        assert_eq!(idx.proving(Provable::Through(3), 9), Some(2));
        // Time 4 needs max - 3 > 4: max 11 at index 4.
        assert_eq!(idx.proving(Provable::AllUpTo(4), 0), Some(4));
        assert_eq!(idx.proving(Provable::Through(8), 0), None);
        // A prefix whose maximum is below the bound proves nothing.
        let early = ProofIndex::new(&[(1, 1), (2, 2)], 3);
        assert_eq!(early.proving(Provable::Through(0), 1), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
