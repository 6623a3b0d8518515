//! Spans recorded around the calls into each layer, their self times, and
//! the per-transaction decomposition of replication lag into hops.
//!
//! All stamps are `c5_log::now_nanos()` — the clock the primary stamps
//! `commit_wall_nanos` with and the replica's `LagTracker` stamps exposure
//! with — so a transaction's three hops, commit → receive → `apply_segment`
//! return → exposed, telescope to exactly its recorded lag.

/// One span: a named interval, the request it belongs to, and its parent
/// (an index into the same span list) if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Request id shared by every span of one request: the transaction's
    /// log position (boundary sequence number) for writes, and the read's
    /// index with the high bit set for reads.
    pub id: u64,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Id space for reads, disjoint from log positions.
pub const READ_ID_BIT: u64 = 1 << 63;

/// The three hops of one transaction's replication lag, in nanoseconds.
/// Signed: the expose stage can publish a transaction before the feeding
/// thread returns from `apply_segment`, making the last hop negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hops {
    /// Commit on the primary → `LogReceiver::recv` returned its segment.
    pub commit_to_recv: i64,
    /// Receipt → `apply_segment` returned (hand-off and backpressure).
    pub recv_to_return: i64,
    /// `apply_segment` returned → the replica exposed the transaction.
    pub return_to_expose: i64,
}

impl Hops {
    /// Splits one transaction's lag at the ingest stamps.
    pub fn new(commit: u64, recv: u64, ret: u64, exposed: u64) -> Hops {
        let d = |a: u64, b: u64| b as i64 - a as i64;
        Hops {
            commit_to_recv: d(commit, recv),
            recv_to_return: d(recv, ret),
            return_to_expose: d(ret, exposed),
        }
    }

    /// Sum of the hops.
    pub fn sum(&self) -> i64 {
        self.commit_to_recv + self.recv_to_return + self.return_to_expose
    }

    /// Receipt → exposed (the replica's share of the lag).
    pub fn recv_to_expose(&self) -> i64 {
        self.recv_to_return + self.return_to_expose
    }
}

/// Checks the hop-sum identity for one transaction: the hops must add up to
/// the lag its `LagSample` records (`exposed - committed`, which the sample
/// reports clamped at zero).
pub fn hops_match_lag(hops: &Hops, lag_nanos: u64) -> bool {
    hops.sum().max(0) as u64 == lag_nanos
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let parent = &spans[p];
            let (s, e) = (sp.start.max(parent.start), sp.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(sp, kids)| sp.end.saturating_sub(sp.start) - covered(kids))
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_telescope_to_the_lag() {
        let h = Hops::new(1_000, 4_000, 4_500, 9_000);
        assert_eq!(h.commit_to_recv, 3_000);
        assert_eq!(h.recv_to_return, 500);
        assert_eq!(h.return_to_expose, 4_500);
        assert_eq!(h.sum(), 8_000);
        assert_eq!(h.recv_to_expose(), 5_000);
        assert!(hops_match_lag(&h, 8_000));
        assert!(!hops_match_lag(&h, 7_999));
    }

    #[test]
    fn exposure_before_apply_returns_gives_a_negative_last_hop() {
        // The expose stage published the transaction 200 ns before the
        // feeding thread came back from apply_segment.
        let h = Hops::new(1_000, 2_000, 5_000, 4_800);
        assert_eq!(h.return_to_expose, -200);
        assert_eq!(h.sum(), 3_800);
        assert!(hops_match_lag(&h, 3_800));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            Span {
                name: "txn",
                id: 7,
                start: 0,
                end: 100,
                parent: None,
            },
            Span {
                name: "a",
                id: 7,
                start: 10,
                end: 30,
                parent: Some(0),
            },
            Span {
                name: "b",
                id: 7,
                start: 20,
                end: 50,
                parent: Some(0),
            },
            Span {
                name: "c",
                id: 7,
                start: 90,
                end: 120,
                parent: Some(0),
            },
        ];
        // Children cover [10,50) and [90,100): 50 ns of the root's 100.
        assert_eq!(self_times(&spans), vec![50, 20, 30, 30]);
    }
}
