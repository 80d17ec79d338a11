//! Open-loop load: requests are due on a fixed schedule whether or not the
//! previous one has completed, and each is timed from when it was *due*, so
//! the wait a stall imposes on later requests is counted (no coordinated
//! omission) and how late the generator ran is reported.

use std::time::{Duration, Instant};

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `rate` requests per second; `None` unless the rate is positive and
    /// finite.
    pub fn per_second(rate: f64) -> Option<Schedule> {
        let interval = 1e9 / rate;
        (interval.is_finite() && interval >= 1.0).then_some(Schedule {
            interval_ns: interval as u64,
        })
    }

    /// When request `i` is due, in nanoseconds after the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i.saturating_mul(self.interval_ns)
    }

    /// Requests due within `seconds`.
    pub fn requests_in(&self, seconds: f64) -> u64 {
        ((seconds * 1e9) as u64 / self.interval_ns).max(1)
    }
}

/// One request of an open-loop run, in nanoseconds after the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Latency of each request from its due time, microseconds, ascending.
    pub latencies_us: Vec<f64>,
    /// Share of requests sent at least one interval after they were due:
    /// the generator, not the server, was behind by a whole request.
    pub late_frac: f64,
}

pub fn report(schedule: &Schedule, sent: &[Sent]) -> Report {
    let mut latencies_us: Vec<f64> = sent
        .iter()
        .map(|s| s.done_ns.saturating_sub(s.due_ns) as f64 / 1e3)
        .collect();
    latencies_us.sort_by(f64::total_cmp);
    let late = sent
        .iter()
        .filter(|s| s.sent_ns.saturating_sub(s.due_ns) >= schedule.interval_ns)
        .count();
    Report {
        latencies_us,
        late_frac: late as f64 / sent.len().max(1) as f64,
    }
}

/// Sends `request` on the schedule for `seconds` from one caller. A request
/// that comes due while the previous one is still in flight goes out as
/// soon as the caller is free — late, and timed from its due time.
pub fn run(
    schedule: &Schedule,
    seconds: f64,
    mut request: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Sent>, String> {
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut sent = Vec::new();
    for i in 0..schedule.requests_in(seconds) {
        let due_ns = schedule.due_ns(i);
        // Sleep most of the way, then spin: a sleep alone overshoots by the
        // timer slack, which would read as generator lateness.
        loop {
            let now = now_ns();
            if now >= due_ns {
                break;
            }
            let left = due_ns - now;
            if left > 200_000 {
                std::thread::sleep(Duration::from_nanos(left - 100_000));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent_ns = now_ns();
        request()?;
        sent.push(Sent {
            due_ns,
            sent_ns,
            done_ns: now_ns(),
        });
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_multiples_of_the_interval() {
        let s = Schedule::per_second(1000.0).unwrap();
        assert_eq!(
            (s.due_ns(0), s.due_ns(1), s.due_ns(250)),
            (0, 1_000_000, 250_000_000)
        );
        assert_eq!(s.requests_in(0.5), 500);
        assert_eq!(s.requests_in(0.0), 1);
        assert!(Schedule::per_second(0.0).is_none());
        assert!(Schedule::per_second(f64::NAN).is_none());
        assert!(Schedule::per_second(-5.0).is_none());
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_needs_a_whole_interval() {
        let s = Schedule::per_second(1000.0).unwrap();
        let sent = [
            // On time, 100 µs of service.
            Sent {
                due_ns: 0,
                sent_ns: 10,
                done_ns: 100_000,
            },
            // Sent 0.5 ms late: not yet a whole interval.
            Sent {
                due_ns: 1_000_000,
                sent_ns: 1_500_000,
                done_ns: 1_600_000,
            },
            // Stuck behind a stall: sent 3 ms late, and the wait counts.
            Sent {
                due_ns: 2_000_000,
                sent_ns: 5_000_000,
                done_ns: 5_100_000,
            },
        ];
        let r = report(&s, &sent);
        assert_eq!(r.latencies_us, vec![100.0, 600.0, 3100.0]);
        assert!((r.late_frac - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn the_generator_keeps_its_schedule_when_requests_are_fast() {
        let s = Schedule::per_second(500.0).unwrap();
        let sent = run(&s, 0.1, || Ok(())).unwrap();
        assert_eq!(sent.len(), 50);
        assert!(sent.iter().all(|x| x.sent_ns >= x.due_ns));
        assert!(report(&s, &sent).late_frac < 0.2);
        assert!(run(&s, 0.01, || Err("refused".into())).is_err());
    }
}
