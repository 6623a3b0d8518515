//! Open-loop pacing: requests are due on a fixed schedule whatever the
//! system does, and a generator thread sleeps until the next due time.
//!
//! A generator serves one or more [`Stream`]s (e.g. writes and reads). On
//! each wake-up it dispatches, earliest due first, every request that has
//! come due — a stall is followed by a catch-up burst, never by silently
//! skipped requests — then sleeps until the next due time. It never polls:
//! every sleep targets a future due time, so every wake-up has work.
//!
//! Each request also gets an *origin*: its due time, or the generator's
//! wake-up if that came later. Latency is timed from the origin, which keeps
//! the generator's own wake-up overshoot out of it while still charging a
//! request for every request queued ahead of it since the wake-up (a
//! backlogged generator does not sleep, so its origins are its due times).

/// One request schedule: request `i` is due `i · interval_ns` after the
/// start, for `i < count`.
#[derive(Debug, Clone)]
pub struct Stream {
    interval_ns: u64,
    count: u64,
    next: u64,
}

impl Stream {
    /// A stream of `rate_per_s` requests per second over `window_ns`.
    /// A zero rate gives an empty stream.
    pub fn new(rate_per_s: u64, window_ns: u64) -> Stream {
        if rate_per_s == 0 {
            return Stream {
                interval_ns: 1,
                count: 0,
                next: 0,
            };
        }
        let interval_ns = (1_000_000_000 / rate_per_s).max(1);
        Stream {
            interval_ns,
            count: window_ns / interval_ns,
            next: 0,
        }
    }

    /// Number of requests the stream will dispatch.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Due offset (from the start) of the next undispatched request.
    fn next_due(&self) -> Option<u64> {
        (self.next < self.count).then(|| self.next * self.interval_ns)
    }
}

/// The time source a generator paces against. Offsets are nanoseconds since
/// the generator's start.
pub trait Clock {
    /// Current offset.
    fn now(&self) -> u64;
    /// Blocks until at least offset `t` (called only with `t > now()`).
    fn sleep_until(&self, t: u64);
}

/// What one generator did, for the open-loop integrity report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaceReport {
    /// Requests dispatched.
    pub dispatched: u64,
    /// Times the generator slept.
    pub sleeps: u64,
    /// Wake-ups that found nothing due (a polling generator would make
    /// many; a correct one makes none).
    pub idle_wakeups: u64,
}

/// Runs `streams` to completion on the calling thread. `dispatch(stream,
/// index, due, origin)` issues request `index` of `streams[stream]`, whose
/// due offset is `due` and whose origin is `max(due, last wake-up)`; it runs
/// in due order across all streams.
pub fn run(
    clock: &impl Clock,
    streams: &mut [Stream],
    mut dispatch: impl FnMut(usize, u64, u64, u64),
) -> PaceReport {
    let mut report = PaceReport::default();
    let mut woke = false;
    let mut wake_at = 0;
    loop {
        let Some((s, due)) = streams
            .iter()
            .enumerate()
            .filter_map(|(s, st)| st.next_due().map(|d| (s, d)))
            .min_by_key(|&(_, d)| d)
        else {
            return report;
        };
        let now = clock.now();
        if due > now {
            if woke {
                report.idle_wakeups += 1;
            }
            clock.sleep_until(due);
            wake_at = clock.now();
            report.sleeps += 1;
            woke = true;
            continue;
        }
        woke = false;
        let index = streams[s].next;
        streams[s].next += 1;
        dispatch(s, index, due, due.max(wake_at));
        report.dispatched += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A simulated clock: `sleep_until` jumps to the target plus a fixed
    /// oversleep, and every dispatch costs `work` nanoseconds.
    struct FakeClock {
        now: Cell<u64>,
        oversleep: u64,
        sleeps: Cell<Vec<(u64, u64)>>,
    }

    impl FakeClock {
        fn new(oversleep: u64) -> Self {
            Self {
                now: Cell::new(0),
                oversleep,
                sleeps: Cell::new(Vec::new()),
            }
        }
        fn advance(&self, ns: u64) {
            self.now.set(self.now.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, t: u64) {
            let mut v = self.sleeps.take();
            v.push((self.now.get(), t));
            self.sleeps.set(v);
            self.now.set(t + self.oversleep);
        }
    }

    /// Dispatch log entry: (stream, index, due, origin, dispatched at).
    type Entry = (usize, u64, u64, u64, u64);

    fn drive(clock: &FakeClock, streams: &mut [Stream], work: u64) -> (Vec<Entry>, PaceReport) {
        let mut log = Vec::new();
        let report = run(clock, streams, |s, i, due, origin| {
            log.push((s, i, due, origin, clock.now()));
            clock.advance(work);
        });
        (log, report)
    }

    #[test]
    fn dispatches_every_request_exactly_once_in_due_order() {
        let clock = FakeClock::new(0);
        // 1000/s and 300/s over 1 s.
        let mut streams = [
            Stream::new(1000, 1_000_000_000),
            Stream::new(300, 1_000_000_000),
        ];
        let expected = streams[0].count() + streams[1].count();
        let (log, report) = drive(&clock, &mut streams, 10_000);
        assert_eq!(report.dispatched, expected);
        assert_eq!(log.len() as u64, expected);
        for s in 0..2 {
            let idx: Vec<u64> = log.iter().filter(|e| e.0 == s).map(|e| e.1).collect();
            assert_eq!(idx, (0..idx.len() as u64).collect::<Vec<_>>());
        }
        assert!(log.windows(2).all(|w| w[0].2 <= w[1].2), "due order");
        // Nothing is dispatched before it is due; with exact wake-ups every
        // origin is the due time.
        assert!(log
            .iter()
            .all(|&(_, _, due, origin, at)| at >= due && origin == due));
    }

    #[test]
    fn never_spins_every_sleep_targets_a_future_due_time() {
        let clock = FakeClock::new(0);
        let mut streams = [Stream::new(2000, 100_000_000)];
        let (_, report) = drive(&clock, &mut streams, 1_000);
        assert_eq!(report.idle_wakeups, 0);
        let sleeps = clock.sleeps.take();
        assert!(sleeps.iter().all(|&(at, target)| target > at));
        // One sleep per request at most (first request is due at 0).
        assert!(report.sleeps < report.dispatched);
    }

    #[test]
    fn a_stall_is_followed_by_a_catch_up_burst() {
        // Each wake-up oversleeps 1 ms against a 100 µs interval: the
        // generator must dispatch the whole backlog on each wake-up rather
        // than one request per sleep.
        let clock = FakeClock::new(1_000_000);
        let mut streams = [Stream::new(10_000, 50_000_000)];
        let count = streams[0].count();
        let (log, report) = drive(&clock, &mut streams, 1_000);
        assert_eq!(report.dispatched, count);
        assert_eq!(report.idle_wakeups, 0);
        assert!(report.sleeps * 5 < count, "{report:?}");
        // Lateness is bounded by the oversleep plus the burst's own work.
        let worst = log
            .iter()
            .map(|&(_, _, due, _, at)| at - due)
            .max()
            .unwrap();
        assert!(worst <= 1_000_000 + 100_000 + 11 * 1_000, "worst {worst}");
        // The oversleep is kept out of the origin: a request is never
        // charged for more than the work queued ahead of it since wake-up.
        let charged = log
            .iter()
            .map(|&(_, _, _, origin, at)| at - origin)
            .max()
            .unwrap();
        assert!(charged <= 11 * 1_000, "charged {charged}");
        assert!(log.iter().all(|&(_, _, due, origin, _)| origin >= due));
    }

    #[test]
    fn zero_rate_streams_are_empty() {
        let clock = FakeClock::new(0);
        let mut streams = [Stream::new(0, 1_000_000_000)];
        let (log, report) = drive(&clock, &mut streams, 1);
        assert!(log.is_empty());
        assert_eq!(report, PaceReport::default());
    }
}
