//! The open-loop dispatcher of the serve workloads.
//!
//! Independent users send queries on their own schedule, so arrivals are a
//! fixed seeded Poisson schedule that does not wait for the service. One
//! single-threaded dispatcher repeatedly takes everything that is due:
//! writes are applied first, in arrival order, then the due queries run as
//! one micro-batch of at most `max_batch`. Every operation is timed from
//! its *scheduled* arrival, so a stalled batch charges its wait to every
//! operation that fell due during the stall.

use std::time::{Duration, Instant};

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the start of the schedule.
    pub at: f64,
    /// What arrives.
    pub op: Op,
}

/// The operations a schedule carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A query, by index into the workload's query set.
    Query(usize),
    /// Insert the next fresh reference record.
    Insert,
    /// Remove a seeded random live reference record.
    Remove,
}

/// The dispatcher's notion of time, in seconds since the schedule started.
pub trait Clock {
    /// Current time.
    fn now(&mut self) -> f64;
    /// Block until `t`.
    fn wait_until(&mut self, t: f64);
}

/// Wall-clock time.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn wait_until(&mut self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// What one pass over a schedule measured. Times are seconds.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopStats {
    /// Per query: completion of its batch minus its scheduled arrival.
    pub query_latency: Vec<f64>,
    /// Per query: start of its batch minus its scheduled arrival.
    pub queue_wait: Vec<f64>,
    /// Per write: its completion minus its scheduled arrival.
    pub write_latency: Vec<f64>,
    /// Queries per dispatched batch.
    pub batch_sizes: Vec<usize>,
    /// Time the dispatcher spent waiting for arrivals.
    pub idle: f64,
    /// Completion of the last operation minus the last scheduled arrival:
    /// how far behind the schedule the service finished.
    pub end_lag: f64,
}

/// Run `schedule` (sorted by `at`) open loop. `write` applies one write;
/// `serve` runs one batch of query indices. Either returning `false`
/// marks the operation failed; failures still count their latency.
pub fn run_open_loop<C: Clock>(
    schedule: &[Arrival],
    max_batch: usize,
    clock: &mut C,
    mut write: impl FnMut(Op) -> bool,
    mut serve: impl FnMut(&[usize]) -> bool,
) -> (OpenLoopStats, usize) {
    let mut stats = OpenLoopStats::default();
    let mut failed = 0;
    let mut next = 0;
    let mut batch: Vec<usize> = Vec::with_capacity(max_batch);
    let mut due_at: Vec<f64> = Vec::with_capacity(max_batch);
    while next < schedule.len() {
        let mut now = clock.now();
        if schedule[next].at > now {
            clock.wait_until(schedule[next].at);
            let after = clock.now();
            stats.idle += after - now;
            now = after;
        }
        batch.clear();
        due_at.clear();
        while next < schedule.len() && schedule[next].at <= now {
            let arrival = schedule[next];
            match arrival.op {
                Op::Query(q) => {
                    if batch.len() == max_batch {
                        break;
                    }
                    batch.push(q);
                    due_at.push(arrival.at);
                }
                op => {
                    if !write(op) {
                        failed += 1;
                    }
                    stats.write_latency.push(clock.now() - arrival.at);
                }
            }
            next += 1;
        }
        if batch.is_empty() {
            continue;
        }
        let began = clock.now();
        if !serve(&batch) {
            failed += batch.len();
        }
        let done = clock.now();
        for &at in &due_at {
            stats.queue_wait.push(began - at);
            stats.query_latency.push(done - at);
        }
        stats.batch_sizes.push(batch.len());
    }
    let end = clock.now();
    stats.end_lag = schedule.last().map_or(0.0, |a| end - a.at);
    (stats, failed)
}

/// A Poisson schedule of `queries` queries (indices `0..queries`) at
/// `rate` queries per second; with `writes_per_8 > 0`, each run of eight
/// queries is followed by that many insert/remove pairs at the same
/// arrival process.
pub fn poisson_schedule(
    rng: &mut crate::stats::SplitMix,
    queries: usize,
    rate: f64,
    write_pairs_per_8: usize,
) -> Vec<Arrival> {
    let ops_per_query = 1.0 + 2.0 * write_pairs_per_8 as f64 / 8.0;
    let mut t = 0.0;
    let mut out = Vec::new();
    for q in 0..queries {
        t += rng.exp_gap(rate * ops_per_query);
        out.push(Arrival { at: t, op: Op::Query(q) });
        if q % 8 == 7 {
            for _ in 0..write_pairs_per_8 {
                t += rng.exp_gap(rate * ops_per_query);
                out.push(Arrival { at: t, op: Op::Insert });
                t += rng.exp_gap(rate * ops_per_query);
                out.push(Arrival { at: t, op: Op::Remove });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock<'a>(&'a Cell<f64>);

    impl Clock for FakeClock<'_> {
        fn now(&mut self) -> f64 {
            self.0.get()
        }
        fn wait_until(&mut self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn queries(times: &[f64]) -> Vec<Arrival> {
        times.iter().enumerate().map(|(q, &at)| Arrival { at, op: Op::Query(q) }).collect()
    }

    #[test]
    fn stalled_batch_charges_its_wait_to_every_query_due_during_it() {
        let time = Cell::new(0.0);
        let mut clock = FakeClock(&time);
        // Query 0 at t=0 stalls the service for 100 ms; queries 1..=3 fall
        // due during the stall; each later batch takes 10 ms.
        let schedule = queries(&[0.0, 0.02, 0.05, 0.09, 0.5]);
        let mut calls = 0;
        let (stats, failed) = run_open_loop(
            &schedule,
            256,
            &mut clock,
            |_| true,
            |_| {
                calls += 1;
                time.set(time.get() + if calls == 1 { 0.1 } else { 0.01 });
                true
            },
        );
        assert_eq!(failed, 0);
        assert_eq!(stats.batch_sizes, vec![1, 3, 1]);
        let lat: Vec<f64> = stats.query_latency.iter().map(|l| (l * 1e3).round()).collect();
        // 0: 100 ms of service. 1..=3: waited for the stall to end at
        // 100 ms, then 10 ms of service, timed from their own arrival.
        assert_eq!(lat, vec![100.0, 90.0, 60.0, 20.0, 10.0]);
        let wait: Vec<f64> = stats.queue_wait.iter().map(|w| (w * 1e3).round()).collect();
        assert_eq!(wait, vec![0.0, 80.0, 50.0, 10.0, 0.0]);
        assert!((stats.idle - 0.39).abs() < 1e-9, "idle {}", stats.idle);
        assert!((stats.end_lag - 0.01).abs() < 1e-9);
    }

    #[test]
    fn writes_apply_before_the_batch_and_batches_cap_at_max() {
        let time = Cell::new(1.0); // everything is already due
        let mut clock = FakeClock(&time);
        let mut schedule = queries(&[0.0, 0.0, 0.0]);
        schedule.insert(1, Arrival { at: 0.0, op: Op::Insert });
        let log = std::cell::RefCell::new(Vec::new());
        let (stats, _) = run_open_loop(
            &schedule,
            2,
            &mut clock,
            |op| {
                log.borrow_mut().push(format!("{op:?}"));
                true
            },
            |b| {
                log.borrow_mut().push(format!("batch{b:?}"));
                true
            },
        );
        assert_eq!(log.into_inner(), vec!["Insert", "batch[0, 1]", "batch[2]"]);
        assert_eq!(stats.write_latency, vec![1.0]);
    }

    #[test]
    fn failed_batches_count_every_query() {
        let time = Cell::new(0.0);
        let mut clock = FakeClock(&time);
        let schedule = queries(&[0.0, 0.0, 0.0]);
        let (_, failed) = run_open_loop(&schedule, 8, &mut clock, |_| true, |_| false);
        assert_eq!(failed, 3);
    }

    #[test]
    fn schedule_interleaves_writes() {
        let mut rng = crate::stats::SplitMix::new(7, 0);
        let s = poisson_schedule(&mut rng, 16, 1000.0, 1);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(s[8].op, Op::Insert);
        assert_eq!(s[9].op, Op::Remove);
        // Mean gap near 1 / (rate * 1.25).
        let mean = s.last().map(|a| a.at).unwrap_or(0.0) / s.len() as f64;
        assert!(mean > 0.0002 && mean < 0.002, "mean gap {mean}");
    }
}
