//! Discrete-event makespan model for staged batch pipelines — the
//! analytic machinery behind the paper's §3.2 batching experiment.
//!
//! With batching, three activities overlap: the client encrypts batch
//! `i+1` while batch `i` is on the wire and the server is folding batch
//! `i-1` into its partial product. The paper notes that "in order to
//! achieve maximum parallelization, ideally all three activities ... will
//! require approximately the same amount of time."
//!
//! [`pipeline_makespan`] computes the completion time of a k-item,
//! S-stage pipeline with the classic flow-shop recurrence
//!
//! ```text
//! T[s][i] = max(T[s-1][i], T[s][i-1]) + t[s][i]
//! ```
//!
//! which is exact for pipelines where each stage processes items in order
//! and holds at most one item at a time (true here: one CPU per party and
//! one serial link).

use std::time::Duration;

/// Completion time of the last item through the last stage.
///
/// `stage_times[s][i]` is the service time of item `i` at stage `s`.
/// All stages must have the same item count. Empty input gives zero.
///
/// # Panics
/// Panics if stages have differing item counts (a caller bug).
pub fn pipeline_makespan(stage_times: &[Vec<Duration>]) -> Duration {
    let Some(first) = stage_times.first() else {
        return Duration::ZERO;
    };
    let items = first.len();
    assert!(
        stage_times.iter().all(|s| s.len() == items),
        "all pipeline stages must have the same item count"
    );
    if items == 0 {
        return Duration::ZERO;
    }
    // prev[i]: completion time of item i at the previous stage.
    let mut prev = vec![Duration::ZERO; items];
    for stage in stage_times {
        let mut last_here = Duration::ZERO;
        for (i, &t) in stage.iter().enumerate() {
            let start = prev[i].max(last_here);
            last_here = start + t;
            prev[i] = last_here;
        }
    }
    prev[items - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(pipeline_makespan(&[]), Duration::ZERO);
        assert_eq!(pipeline_makespan(&[vec![], vec![]]), Duration::ZERO);
        assert_eq!(pipeline_makespan(&[vec![]]), Duration::ZERO);
    }

    #[test]
    fn single_stage_sums() {
        let t = pipeline_makespan(&[vec![ms(1), ms(2), ms(3)]]);
        assert_eq!(t, ms(6));
    }

    #[test]
    fn single_item_sums_stages() {
        let t = pipeline_makespan(&[vec![ms(1)], vec![ms(2)], vec![ms(3)]]);
        assert_eq!(t, ms(6));
    }

    #[test]
    fn balanced_pipeline_formula() {
        // k items, S stages, all times t: makespan = (k + S - 1) · t.
        for (k, s) in [(10usize, 3usize), (100, 3), (5, 5)] {
            let t = pipeline_makespan(&vec![vec![ms(7); k]; s]);
            assert_eq!(t, ms(7 * (k as u64 + s as u64 - 1)), "k={k} s={s}");
        }
    }

    #[test]
    fn bottleneck_stage_dominates() {
        // Stage 2 is 10x slower: makespan ≈ k · t_bottleneck for large k.
        let k = 1000;
        let t = pipeline_makespan(&[ms(1), ms(10), ms(1)].map(|t| vec![t; k]));
        let bottleneck_total = ms(10 * k as u64);
        assert!(t >= bottleneck_total);
        assert!(
            t <= bottleneck_total + ms(22),
            "only pipeline fill/drain on top"
        );
    }

    #[test]
    fn pipelining_beats_sequential() {
        // Sequential = sum over all items of all stages; pipelined is
        // strictly less when k > 1 and stages overlap.
        let stages = [vec![ms(3); 50], vec![ms(2); 50], vec![ms(4); 50]];
        let pipelined = pipeline_makespan(&stages);
        let sequential = ms((3 + 2 + 4) * 50);
        assert!(pipelined < sequential);
        // And no better than the bottleneck bound.
        assert!(pipelined >= ms(4 * 50));
    }

    #[test]
    fn irregular_times() {
        // Hand-computed 2-stage, 2-item example.
        // T[0] = [2, 2+1=3]; T[1] = [2+5=7, max(3,7)+1=8].
        let t = pipeline_makespan(&[vec![ms(2), ms(1)], vec![ms(5), ms(1)]]);
        assert_eq!(t, ms(8));
    }

    #[test]
    #[should_panic(expected = "same item count")]
    fn mismatched_counts_panic() {
        let _ = pipeline_makespan(&[vec![ms(1)], vec![ms(1), ms(2)]]);
    }
}
