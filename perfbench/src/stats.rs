//! The benchmark's own arithmetic: order statistics, open-loop
//! latency, backlog growth and the sustainable-rate estimate. Kept free
//! of any SPROUT type so it can be unit-tested in isolation.

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`), the
/// `numpy` default. `None` for an empty slice. Infinite samples sort
/// last, so a failed request counted as `f64::INFINITY` pushes the
/// upper percentiles out without disturbing the lower ones.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[lo] == v[hi] {
        return Some(v[lo]);
    }
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest of the standard percentiles (p50, p90, p99, p99.9) that
/// has at least `min_beyond` samples above it among `n` samples —
/// the tail a sample of this size can actually support.
pub fn supported_tail(n: usize, min_beyond: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= min_beyond as f64 - 1e-9)
}

/// Geometric mean of positive values; `None` if any is non-positive or
/// the slice is empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// One open-loop request, timed on the generator's clock (seconds since
/// the stream started).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the schedule said to send it.
    pub due_s: f64,
    /// When the generator actually sent it.
    pub sent_s: f64,
    /// When its terminal state was first observed, or `None` when it
    /// failed (was refused, shed, expired or errored).
    pub done_s: Option<f64>,
}

impl OpenLoopSample {
    /// Latency from the *due* time, so a stall that delays later sends
    /// is charged to those requests. A failed request misses every
    /// latency limit: its latency is infinite.
    pub fn latency_ms(&self) -> f64 {
        match self.done_s {
            Some(done) => (done - self.due_s) * 1e3,
            None => f64::INFINITY,
        }
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        ((self.sent_s - self.due_s) * 1e3).max(0.0)
    }
}

/// Completed requests per second from the first one's due time to the
/// last completion. Offered faster than it can serve, a service works
/// flat out over that span, so this is its capacity; offered slower, it
/// is about the offered rate. `0.0` when nothing completed.
pub fn completion_rate(samples: &[OpenLoopSample]) -> f64 {
    let first_due = samples
        .iter()
        .map(|s| s.due_s)
        .fold(f64::INFINITY, f64::min);
    let done: Vec<f64> = samples.iter().filter_map(|s| s.done_s).collect();
    let last_done = done.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if done.is_empty() || last_done <= first_due {
        return 0.0;
    }
    done.len() as f64 / (last_done - first_due)
}

/// `true` when the outstanding-request count trends upward across an
/// arrival window: the least-squares slope of `(time_s, outstanding)`
/// samples, extrapolated over the window, exceeds `threshold` requests.
/// A stable queue fluctuates around a level and has a slope near zero;
/// an overloaded one accumulates `(arrival − service) × window`.
pub fn backlog_grows(samples: &[(f64, f64)], threshold: f64) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let n = samples.len() as f64;
    let mean_t = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mean_q = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(t, q) in samples {
        sxy += (t - mean_t) * (q - mean_q);
        sxx += (t - mean_t) * (t - mean_t);
    }
    if sxx <= 0.0 {
        return false;
    }
    let span = samples[samples.len() - 1].0 - samples[0].0;
    sxy / sxx * span > threshold
}

/// The outcome of one fixed-rate rung of the load ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered arrival rate (requests/s).
    pub rate: f64,
    /// Tail latency measured at that rate (ms; infinite when requests
    /// failed).
    pub tail_ms: f64,
    /// Whether the backlog grew during the rung.
    pub backlog_grew: bool,
}

impl Rung {
    fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && !self.backlog_grew
    }
}

/// The highest sustainable rate along `rungs` (ascending rates): the
/// highest rung that meets `limit_ms` without a growing backlog. When a
/// failing rung follows it, the rate is interpolated towards that rung,
/// to where the tail crosses the limit, so the estimate moves
/// continuously as the service speeds up or slows down instead of
/// jumping a whole rung. The interpolation is linear in the *reciprocal*
/// of the tail: queueing delay grows like `1 / (capacity − rate)`, so
/// `1 / latency` falls about linearly to zero at saturation, where
/// latency itself bends sharply between two rungs. A failing rung whose
/// tail stayed under the limit (backlog growth only) counts as reaching
/// the limit exactly; an infinite tail (failed requests) as saturation.
/// `0.0` when no rung passes.
pub fn max_sustainable_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let Some(h) = rungs.iter().rposition(|r| r.passes(limit_ms)) else {
        return 0.0;
    };
    let lo = &rungs[h];
    let Some(hi) = rungs.get(h + 1) else {
        return lo.rate;
    };
    let (x_lo, x_hi, x_lim) = (
        1.0 / lo.tail_ms,
        1.0 / hi.tail_ms.max(limit_ms),
        1.0 / limit_ms,
    );
    if x_lo.is_nan() || x_hi.is_nan() || x_lo <= x_hi {
        return lo.rate;
    }
    let frac = (x_lo - x_lim) / (x_lo - x_hi);
    lo.rate + (hi.rate - lo.rate) * frac.clamp(0.0, 1.0)
}

/// Poisson arrival times (seconds from 0) at `rate` per second over
/// `[0, duration_s)`, driven by `uniform` — a source of draws in
/// `[0, 1)`.
pub fn poisson_arrivals(rate: f64, duration_s: f64, mut uniform: impl FnMut() -> f64) -> Vec<f64> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = 0.0;
    loop {
        t += -(1.0 - uniform()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(6.0));
        assert_eq!(quantile(&v, 0.9), Some(10.0));
        assert!((quantile(&[1.0, 2.0], 0.25).unwrap() - 1.25).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quantile_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..10], n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25).unwrap() - 3.25).abs() < 1e-12);
        assert!((quantile(&v, 0.75).unwrap() - 7.75).abs() < 1e-12);
    }

    #[test]
    fn failed_requests_push_the_tail_to_infinity() {
        let mut v = vec![10.0; 95];
        v.extend([f64::INFINITY; 5]);
        assert_eq!(quantile(&v, 0.5), Some(10.0));
        assert_eq!(quantile(&v, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(9, 10), None);
        assert_eq!(supported_tail(20, 10), Some(0.5));
        assert_eq!(supported_tail(99, 10), Some(0.5));
        assert_eq!(supported_tail(100, 10), Some(0.9));
        assert_eq!(supported_tail(999, 10), Some(0.9));
        assert_eq!(supported_tail(1000, 10), Some(0.99));
        assert_eq!(supported_tail(10_000, 10), Some(0.999));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let s = OpenLoopSample {
            due_s: 1.000,
            sent_s: 1.004,
            done_s: Some(1.010),
        };
        assert!((s.latency_ms() - 10.0).abs() < 1e-9);
        assert!((s.lag_ms() - 4.0).abs() < 1e-9);
        let early = OpenLoopSample {
            due_s: 1.0,
            sent_s: 0.9999,
            done_s: Some(1.002),
        };
        assert_eq!(early.lag_ms(), 0.0);
        let failed = OpenLoopSample {
            due_s: 1.0,
            sent_s: 1.0,
            done_s: None,
        };
        assert_eq!(failed.latency_ms(), f64::INFINITY);
    }

    #[test]
    fn a_stalled_generator_charges_the_stall_to_later_requests() {
        // The generator froze for 50 ms at t = 0.1: the next request
        // went out 50 ms late and, though served in 2 ms, waited 52.
        let late = OpenLoopSample {
            due_s: 0.100,
            sent_s: 0.150,
            done_s: Some(0.152),
        };
        assert!((late.latency_ms() - 52.0).abs() < 1e-9);
        assert!((late.lag_ms() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn completion_rate_measures_capacity_under_overload() {
        // 100 requests due over 0.1 s, served one per 10 ms: the queue
        // never empties, and 100 completions over 1 s read 100/s.
        let overloaded: Vec<OpenLoopSample> = (0..100)
            .map(|i| OpenLoopSample {
                due_s: i as f64 * 0.001,
                sent_s: i as f64 * 0.001,
                done_s: Some((i + 1) as f64 * 0.01),
            })
            .collect();
        assert!((completion_rate(&overloaded) - 100.0).abs() < 1e-9);
        // A failed request adds nothing; none completed reads 0.
        let mut with_failure = overloaded.clone();
        with_failure[99].done_s = None;
        assert!((completion_rate(&with_failure) - 99.0 / 0.99).abs() < 1e-9);
        assert_eq!(completion_rate(&with_failure[99..]), 0.0);
    }

    #[test]
    fn flat_backlog_does_not_grow() {
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 0.01, if i % 2 == 0 { 3.0 } else { 1.0 }))
            .collect();
        assert!(!backlog_grows(&samples, 4.0));
    }

    #[test]
    fn linear_backlog_grows() {
        // 30 requests/s of excess over a 1 s window.
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 0.01, i as f64 * 0.3))
            .collect();
        assert!(backlog_grows(&samples, 4.0));
        assert!(!backlog_grows(&samples, 40.0));
        assert!(!backlog_grows(&samples[..1], 0.0));
    }

    #[test]
    fn max_rate_interpolates_to_the_limit_crossing() {
        let rung = |rate, tail_ms, backlog_grew| Rung {
            rate,
            tail_ms,
            backlog_grew,
        };
        let rungs = [
            rung(100.0, 10.0, false),
            rung(200.0, 20.0, false),
            rung(300.0, 60.0, false),
        ];
        // 1/latency falls from 1/20 at 200 to 1/60 at 300 and crosses
        // 1/40 three quarters of the way.
        assert!((max_sustainable_rate(&rungs, 40.0) - 275.0).abs() < 1e-9);
        // Every rung passes: the top rate.
        assert_eq!(max_sustainable_rate(&rungs, 100.0), 300.0);
        // The first rung fails: nothing is sustainable.
        assert_eq!(max_sustainable_rate(&rungs, 5.0), 0.0);
    }

    #[test]
    fn max_rate_takes_the_highest_passing_rung() {
        // A stall fails the 200 rung, but 300 passes again: the highest
        // passing rate counts, interpolated towards the failing 400.
        let rungs = [
            Rung {
                rate: 100.0,
                tail_ms: 10.0,
                backlog_grew: false,
            },
            Rung {
                rate: 200.0,
                tail_ms: 70.0,
                backlog_grew: false,
            },
            Rung {
                rate: 300.0,
                tail_ms: 20.0,
                backlog_grew: false,
            },
            Rung {
                rate: 400.0,
                tail_ms: 80.0,
                backlog_grew: false,
            },
        ];
        // 1/20 → 1/80 crosses 1/50 at 0.8 of the way.
        assert!((max_sustainable_rate(&rungs, 50.0) - 380.0).abs() < 1e-9);
    }

    #[test]
    fn max_rate_stops_at_a_growing_backlog() {
        let rungs = [
            Rung {
                rate: 100.0,
                tail_ms: 10.0,
                backlog_grew: false,
            },
            // Latency still under the limit, but the queue is growing:
            // counts as reaching the limit at this rate.
            Rung {
                rate: 200.0,
                tail_ms: 30.0,
                backlog_grew: true,
            },
        ];
        assert!((max_sustainable_rate(&rungs, 40.0) - 200.0).abs() < 1e-9);
        // A failed request's infinite tail reads as saturation: 1/latency
        // falls from 1/10 to 0 and crosses 1/40 three quarters of the way.
        let failed = [
            rungs[0],
            Rung {
                rate: 200.0,
                tail_ms: f64::INFINITY,
                backlog_grew: false,
            },
        ];
        assert!((max_sustainable_rate(&failed, 40.0) - 175.0).abs() < 1e-9);
    }

    #[test]
    fn max_rate_is_continuous_across_a_rung_boundary() {
        // As the middle rung's tail approaches the limit from either
        // side, both formulas converge on the middle rate.
        let at = |mid_tail: f64| {
            max_sustainable_rate(
                &[
                    Rung {
                        rate: 100.0,
                        tail_ms: 10.0,
                        backlog_grew: false,
                    },
                    Rung {
                        rate: 200.0,
                        tail_ms: mid_tail,
                        backlog_grew: false,
                    },
                    Rung {
                        rate: 300.0,
                        tail_ms: 90.0,
                        backlog_grew: false,
                    },
                ],
                40.0,
            )
        };
        assert!((at(40.0 - 1e-6) - 200.0).abs() < 1e-3);
        assert!((at(40.0 + 1e-6) - 200.0).abs() < 1e-3);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_hit_the_rate() {
        let mut state = 7u64;
        let mut uniform = || sprout_rng::u64_to_f64(sprout_rng::splitmix64(&mut state));
        let a = poisson_arrivals(200.0, 10.0, &mut uniform);
        assert!((a.len() as f64 - 2000.0).abs() < 150.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        let mut state = 7u64;
        let b = poisson_arrivals(200.0, 10.0, || {
            sprout_rng::u64_to_f64(sprout_rng::splitmix64(&mut state))
        });
        assert_eq!(a, b);
    }
}
