//! Percentiles and the per-window figures every rate and latency is
//! reported from. A run is cut into fixed-length windows, and each window
//! yields its own rate and latency percentiles.
//!
//! On this kind of host, noise only ever slows a window down: the
//! hypervisor takes CPU time from the 2-vCPU guest in bursts ("steal" in
//! `/proc/stat`), other tenants contend for the shared caches, and a
//! window with 20-30% steal showed a third of the throughput and a p99 ten
//! times longer than a clean one. Such bursts last from seconds to minutes
//! and can cover most of a run. So a run reports each figure's decile on
//! its good side over the windows — the 10th percentile of a latency, the
//! 90th of a rate — which holds as long as a tenth of the windows ran
//! undisturbed, while a change to the code moves every window alike. Each
//! window is printed with its steal share, so a noisy run shows as noisy.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Which way a figure improves.
#[derive(Debug, Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

/// The figures of one measurement window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Operations completed per second of the window.
    pub ops_per_s: f64,
    /// Units of work (distances) completed per second of the window.
    pub units_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    /// Share of the machine's CPU time the hypervisor stole in the window.
    pub steal: f64,
    /// Whether spans were recorded during the window (traced runs only).
    pub traced: bool,
}

/// Collects latencies into fixed-length windows of wall time.
pub struct Windows {
    len: Duration,
    current: Vec<f64>,
    units: u64,
    closed: Vec<WindowStats>,
    ticks: Option<(u64, u64)>,
}

impl Windows {
    pub fn new(len: Duration) -> Self {
        Windows {
            len,
            current: Vec::new(),
            units: 0,
            closed: Vec::new(),
            ticks: crate::procfs::cpu_ticks(),
        }
    }

    pub fn len(&self) -> Duration {
        self.len
    }

    /// Records one completed operation that carried `units` distances.
    pub fn record(&mut self, latency_us: f64, units: u64) {
        self.current.push(latency_us);
        self.units += units;
    }

    /// Closes the current window, which lasted `elapsed`.
    pub fn close(&mut self, elapsed: Duration, traced: bool) {
        let secs = elapsed.as_secs_f64();
        let mut lat = std::mem::take(&mut self.current);
        let units = std::mem::replace(&mut self.units, 0);
        let ticks = crate::procfs::cpu_ticks();
        let steal = match (self.ticks, ticks) {
            (Some((a0, s0)), Some((a1, s1))) if a1 > a0 => (s1 - s0) as f64 / (a1 - a0) as f64,
            _ => 0.0,
        };
        self.ticks = ticks;
        if lat.is_empty() || secs <= 0.0 {
            return;
        }
        lat.sort_by(f64::total_cmp);
        self.closed.push(WindowStats {
            ops_per_s: lat.len() as f64 / secs,
            units_per_s: units as f64 / secs,
            p50_us: percentile(&lat, 50.0),
            p90_us: percentile(&lat, 90.0),
            p99_us: percentile(&lat, 99.0),
            samples: lat.len(),
            steal,
            traced,
        });
    }

    pub fn windows(&self) -> &[WindowStats] {
        &self.closed
    }

    /// A per-window figure's decile on its good side, over the untraced
    /// windows (or the traced ones): the 10th percentile when lower is
    /// better, the 90th when higher is. NaN when there is no such window.
    pub fn quiet(&self, traced: bool, better: Better, f: impl Fn(&WindowStats) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .closed
            .iter()
            .filter(|w| w.traced == traced)
            .map(f)
            .collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        match better {
            Better::Lower => percentile(&v, 10.0),
            Better::Higher => percentile(&v, 90.0),
        }
    }

    /// The fewest samples any window held: the base of its p99.
    pub fn min_samples(&self) -> usize {
        self.closed.iter().map(|w| w.samples).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_inputs() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&w, 95.0), 10.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
        assert_eq!(percentile(&w, 25.0), 3.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    fn window(p50_us: f64) -> WindowStats {
        WindowStats {
            ops_per_s: 1e6 / p50_us,
            units_per_s: 2e6 / p50_us,
            p50_us,
            p90_us: 1.5 * p50_us,
            p99_us: 2.0 * p50_us,
            samples: 100,
            steal: 0.0,
            traced: false,
        }
    }

    #[test]
    fn windows_record_rates_and_percentiles() {
        let mut w = Windows::new(Duration::from_millis(500));
        for (i, lat) in [10.0, 11.0, 1000.0, 12.0].iter().enumerate() {
            for k in 0..100 {
                // 1% of each window is ten times slower.
                w.record(if k == 0 { lat * 10.0 } else { *lat }, 2);
            }
            // One window is twice as long: its rate halves.
            let secs = if i == 2 { 1.0 } else { 0.5 };
            w.close(Duration::from_secs_f64(secs), false);
        }
        let ws = w.windows();
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].ops_per_s, 200.0);
        assert_eq!(ws[2].ops_per_s, 100.0);
        assert_eq!(ws[2].units_per_s, 200.0);
        assert_eq!(ws[1].p50_us, 11.0);
        assert_eq!(ws[1].p99_us, 11.0);
        assert_eq!(w.min_samples(), 100);
    }

    #[test]
    fn quiet_takes_the_good_side_decile() {
        let mut w = Windows::new(Duration::from_millis(500));
        // Twenty windows: quiet ones at 10..=19 us and five slowed by noise.
        let p50s: Vec<f64> = (10..25)
            .map(f64::from)
            .chain([90.0, 91.0, 92.0, 93.0, 94.0])
            .collect();
        w.closed = p50s.iter().map(|&p50| window(p50)).collect();
        // 10th percentile of twenty values by nearest rank: the 2nd.
        assert_eq!(w.quiet(false, Better::Lower, |s| s.p50_us), 11.0);
        assert_eq!(w.quiet(false, Better::Lower, |s| s.p90_us), 16.5);
        assert_eq!(w.quiet(false, Better::Lower, |s| s.p99_us), 22.0);
        // 90th percentile of the rates: the 18th smallest, i.e. the 3rd
        // quickest window.
        assert_eq!(w.quiet(false, Better::Higher, |s| s.ops_per_s), 1e6 / 12.0);
        // Traced windows are kept apart.
        w.closed[0].traced = true;
        assert_eq!(w.quiet(true, Better::Lower, |s| s.p50_us), 10.0);
        assert_eq!(w.quiet(false, Better::Lower, |s| s.p50_us), 12.0);
        assert!(Windows::new(Duration::from_millis(1))
            .quiet(false, Better::Lower, |s| s.p50_us)
            .is_nan());
    }

    #[test]
    fn empty_windows_are_dropped() {
        let mut w = Windows::new(Duration::from_millis(500));
        w.close(Duration::from_millis(500), false);
        assert!(w.windows().is_empty());
    }
}
