//! Due times of an open-loop run.
//!
//! The driver's pacer releases slice `i`'s budget as tokens when the
//! slice opens, and a submission needs a token. So the k-th submission
//! (0-based, in submit order) is due when the slice holding token k
//! opens, whatever the generator did: a late generator makes every later
//! transaction late, and that lateness counts in the commit latency.

use std::time::Duration;

/// Offsets from the first submission at which each of the `Σ budgets`
/// submissions falls due.
pub fn due_offsets(budgets: &[u32], slice: Duration) -> Vec<Duration> {
    let mut due = Vec::with_capacity(budgets.iter().map(|b| *b as usize).sum());
    for (i, budget) in budgets.iter().enumerate() {
        let open = slice * i as u32;
        due.extend(std::iter::repeat_n(open, *budget as usize));
    }
    due
}

/// Per-submission timing of one run, from the driver's records.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Submit time minus due time, for every submission.
    pub lateness: Vec<Duration>,
    /// Block inclusion minus due time, for every committed transaction.
    pub commit: Vec<Duration>,
}

/// Ranks submissions by start time and measures each against its due time.
/// `records` holds `(start, end of a committed transaction)` pairs; more
/// records than due times means the pacer released more tokens than the
/// control sequence holds, which the caller's checks refuse.
pub fn timing(records: &[(Duration, Option<Duration>)], due: &[Duration]) -> Timing {
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|(start, _)| *start);
    let first = sorted.first().map_or(Duration::ZERO, |(start, _)| *start);
    let mut timing = Timing::default();
    for ((start, end), offset) in sorted.iter().zip(due) {
        let due_at = first + *offset;
        timing.lateness.push(start.saturating_sub(due_at));
        if let Some(end) = end {
            timing.commit.push(end.saturating_sub(due_at));
        }
    }
    timing
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Duration = Duration::from_secs(1);

    #[test]
    fn constant_sequence_is_due_slice_by_slice() {
        let due = due_offsets(&[3, 3, 3], S);
        let secs: Vec<u64> = due.iter().map(|d| d.as_secs()).collect();
        assert_eq!(secs, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn varying_sequence_follows_cumulative_budgets() {
        let due = due_offsets(&[1, 0, 4, 2], Duration::from_millis(500));
        let ms: Vec<u128> = due.iter().map(|d| d.as_millis()).collect();
        assert_eq!(ms, [0, 1000, 1000, 1000, 1000, 1500, 1500]);
    }

    #[test]
    fn lateness_and_commit_latency_count_from_the_due_time() {
        let ms = Duration::from_millis;
        let due = due_offsets(&[2, 2], S);
        // Listed out of order; by start time the third submission (rank 2)
        // ran 0.3 s after its slice opened, 1.3 s after the first.
        let records = [
            (ms(11_400), Some(ms(12_000))),
            (ms(10_000), Some(ms(10_500))),
            (ms(11_300), Some(ms(12_000))),
            (ms(10_100), None),
        ];
        let t = timing(&records, &due);
        let got: Vec<u128> = t.lateness.iter().map(|d| d.as_millis()).collect();
        assert_eq!(got, [0, 100, 300, 400]);
        let got: Vec<u128> = t.commit.iter().map(|d| d.as_millis()).collect();
        assert_eq!(got, [500, 1_000, 1_000]);
    }
}
