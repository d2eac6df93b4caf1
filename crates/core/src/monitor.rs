//! Rolling coverage/width monitoring with a typed drift alarm.
//!
//! Conformal guarantees are marginal over exchangeable data; when the
//! workload drifts, empirical coverage is exactly the quantity that breaks
//! (Fig. 11 of the paper). [`CoverageMonitor`] turns the `observe()` feedback
//! loop into a live health signal: it maintains empirical coverage and width
//! percentiles over a sliding window and raises a typed [`CoverageDrift`]
//! alarm when coverage falls below `1 - alpha - epsilon`.
//!
//! The monitor is strictly out-of-band: nothing in the serving path reads it
//! back, so attaching it cannot change any computed interval (DESIGN.md §5b).

use std::collections::VecDeque;

use crate::error::{check_alpha, CardEstError};
use crate::interval::PredictionInterval;

/// Configuration for a [`CoverageMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct CoverageMonitorConfig {
    /// Nominal miscoverage level of the monitored intervals.
    pub alpha: f64,
    /// Sliding-window length (number of most recent observations kept).
    pub window: usize,
    /// Alarm slack: the alarm raises when rolling coverage drops below
    /// `1 - alpha - epsilon`.
    pub epsilon: f64,
    /// Minimum window occupancy before the alarm may raise (guards against
    /// noisy early estimates).
    pub min_samples: usize,
}

impl Default for CoverageMonitorConfig {
    fn default() -> Self {
        CoverageMonitorConfig { alpha: 0.1, window: 200, epsilon: 0.05, min_samples: 50 }
    }
}

/// A typed coverage-drift alarm, carried while rolling coverage sits below
/// the configured floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageDrift {
    /// Rolling empirical coverage at the moment the alarm (last) fired.
    pub coverage: f64,
    /// The floor that was crossed, `1 - alpha - epsilon`.
    pub floor: f64,
    /// Observations in the window when the alarm fired.
    pub samples: usize,
}

/// Rolling empirical coverage and width percentiles over a sliding window,
/// with a hysteretic drift alarm.
///
/// Feed it every served interval together with the later-observed truth; it
/// answers "is the service still covering at its nominal rate *right now*".
/// The alarm raises when coverage drops below `1 - alpha - epsilon` (with at
/// least `min_samples` observations in the window) and clears only once
/// coverage recovers past `1 - alpha - epsilon/2` — the half-gap hysteresis
/// keeps a borderline stream from flapping.
#[derive(Debug, Clone)]
pub struct CoverageMonitor {
    config: CoverageMonitorConfig,
    /// Most recent `(covered, width)` pairs, oldest at the front.
    window: VecDeque<(bool, f64)>,
    covered_in_window: usize,
    alarm: Option<CoverageDrift>,
    alarms_raised: usize,
    observed_total: u64,
}

impl CoverageMonitor {
    /// Creates a monitor.
    ///
    /// # Panics
    /// Panics on `alpha` outside `(0, 1)`, a zero window, a negative or
    /// non-finite `epsilon`, or `min_samples` of zero.
    pub fn new(config: CoverageMonitorConfig) -> Self {
        Self::try_new(config).expect("invalid CoverageMonitorConfig")
    }

    /// Non-panicking [`CoverageMonitor::new`].
    pub fn try_new(config: CoverageMonitorConfig) -> Result<Self, CardEstError> {
        check_alpha(config.alpha)?;
        if config.window == 0 {
            return Err(CardEstError::InvalidParameter("monitor window must be positive"));
        }
        if !config.epsilon.is_finite() || config.epsilon < 0.0 {
            return Err(CardEstError::InvalidParameter("epsilon must be finite and >= 0"));
        }
        if config.min_samples == 0 {
            return Err(CardEstError::InvalidParameter("min_samples must be positive"));
        }
        Ok(CoverageMonitor {
            config,
            window: VecDeque::with_capacity(config.window),
            covered_in_window: 0,
            alarm: None,
            alarms_raised: 0,
            observed_total: 0,
        })
    }

    /// The monitor's configuration.
    pub fn config(&self) -> CoverageMonitorConfig {
        self.config
    }

    /// Records one feedback observation: whether the served interval covered
    /// the truth, and how wide it was. A NaN width is kept as `+∞` — an
    /// uninformative interval is infinitely wide, never accidentally narrow.
    pub fn observe(&mut self, covered: bool, width: f64) {
        let width = if width.is_nan() { f64::INFINITY } else { width };
        if self.window.len() == self.config.window {
            if let Some((was_covered, _)) = self.window.pop_front() {
                if was_covered {
                    self.covered_in_window -= 1;
                }
            }
        }
        self.window.push_back((covered, width));
        if covered {
            self.covered_in_window += 1;
        }
        self.observed_total += 1;
        self.update_alarm();
        if ce_telemetry::enabled() {
            ce_telemetry::counter("monitor.observed").inc();
        }
    }

    /// Convenience form of [`CoverageMonitor::observe`] taking the served
    /// interval and the observed truth.
    pub fn observe_interval(&mut self, interval: &PredictionInterval, y_true: f64) {
        self.observe(interval.contains(y_true), interval.width());
    }

    fn update_alarm(&mut self) {
        let coverage = self.coverage();
        let floor = 1.0 - self.config.alpha - self.config.epsilon;
        match self.alarm {
            None => {
                if self.window.len() >= self.config.min_samples && coverage < floor {
                    self.alarm = Some(CoverageDrift {
                        coverage,
                        floor,
                        samples: self.window.len(),
                    });
                    self.alarms_raised += 1;
                }
            }
            Some(_) => {
                // Clear only once coverage recovers past half the gap.
                if coverage >= 1.0 - self.config.alpha - 0.5 * self.config.epsilon {
                    self.alarm = None;
                }
            }
        }
    }

    /// Rolling empirical coverage over the window, always in `[0, 1]`.
    /// An empty window reports full coverage (nothing has missed yet).
    pub fn coverage(&self) -> f64 {
        if self.window.is_empty() {
            1.0
        } else {
            self.covered_in_window as f64 / self.window.len() as f64
        }
    }

    /// The `q`-quantile of interval widths in the window (`q` clamped to
    /// `[0, 1]`, rank `⌈q·n⌉`), or NaN for an empty window.
    pub fn width_quantile(&self, q: f64) -> f64 {
        if self.window.is_empty() {
            return f64::NAN;
        }
        let mut widths: Vec<f64> = self.window.iter().map(|&(_, w)| w).collect();
        widths.sort_by(|a, b| a.partial_cmp(b).expect("NaN widths are stored as +inf"));
        let n = widths.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        widths[rank - 1]
    }

    /// Median interval width in the window (NaN when empty).
    pub fn width_p50(&self) -> f64 {
        self.width_quantile(0.50)
    }

    /// 95th-percentile interval width in the window (NaN when empty).
    pub fn width_p95(&self) -> f64 {
        self.width_quantile(0.95)
    }

    /// The active drift alarm, if rolling coverage is below the floor.
    pub fn drift(&self) -> Option<CoverageDrift> {
        self.alarm
    }

    /// Number of distinct alarm activations so far.
    pub fn alarms_raised(&self) -> usize {
        self.alarms_raised
    }

    /// Observations currently held in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Total observations ever fed to the monitor.
    pub fn observed_total(&self) -> u64 {
        self.observed_total
    }

    /// The `(covered, width)` window contents, oldest first (for
    /// checkpointing).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (bool, f64)> + '_ {
        self.window.iter().copied()
    }

    /// The active alarm plus lifetime counters, for checkpointing.
    pub(crate) fn alarm_state(&self) -> (Option<CoverageDrift>, usize, u64) {
        (self.alarm, self.alarms_raised, self.observed_total)
    }

    /// Empties the window and clears any active alarm, keeping the lifetime
    /// counters. Used when a recalibration is promoted: the old regime's
    /// misses must not keep the alarm latched against the fresh config.
    pub fn reset_window(&mut self) {
        self.window.clear();
        self.covered_in_window = 0;
        self.alarm = None;
    }

    /// Rebuilds a monitor from checkpointed state. Entries beyond the
    /// configured window are rejected as corrupt.
    pub(crate) fn restore(
        config: CoverageMonitorConfig,
        entries: Vec<(bool, f64)>,
        alarm: Option<CoverageDrift>,
        alarms_raised: usize,
        observed_total: u64,
    ) -> Result<Self, CardEstError> {
        let mut m = Self::try_new(config)?;
        if entries.len() > config.window {
            return Err(CardEstError::CheckpointCorrupt("monitor window overflows its config"));
        }
        m.covered_in_window = entries.iter().filter(|&&(c, _)| c).count();
        m.window = entries.into();
        m.alarm = alarm;
        m.alarms_raised = alarms_raised;
        m.observed_total = observed_total;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn monitor() -> CoverageMonitor {
        CoverageMonitor::new(CoverageMonitorConfig::default())
    }

    /// A stream covering at exactly the nominal 90% stays silent: the
    /// epsilon slack exists precisely so nominal-rate misses never alarm.
    #[test]
    fn silent_on_exchangeable_stream() {
        let mut m = monitor();
        for i in 0..1000 {
            m.observe(i % 10 != 0, 1.0);
        }
        assert!(m.drift().is_none(), "coverage {} raised a false alarm", m.coverage());
        assert_eq!(m.alarms_raised(), 0);
        assert!((0.0..=1.0).contains(&m.coverage()));
    }

    /// After a hard shift (coverage collapses to ~40%), the alarm fires
    /// within one window of the shift point.
    #[test]
    fn alarms_within_one_window_of_shift() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = monitor();
        for _ in 0..500 {
            m.observe(rng.gen_range(0.0..1.0) < 0.9, 1.0);
        }
        assert!(m.drift().is_none());
        let mut fired_after = None;
        for i in 0..m.config().window {
            m.observe(rng.gen_range(0.0..1.0) < 0.4, 5.0);
            if m.drift().is_some() {
                fired_after = Some(i + 1);
                break;
            }
        }
        let fired_after = fired_after.expect("no alarm within one window of the shift");
        assert!(fired_after <= m.config().window);
        let drift = m.drift().unwrap();
        assert!(drift.coverage < drift.floor);
    }

    /// The alarm clears only after coverage recovers past the hysteresis
    /// point, and re-raising counts as a new activation.
    #[test]
    fn alarm_hysteresis_clears_on_recovery() {
        let mut m = CoverageMonitor::new(CoverageMonitorConfig {
            window: 100,
            min_samples: 20,
            ..Default::default()
        });
        for _ in 0..100 {
            m.observe(false, 2.0);
        }
        assert!(m.drift().is_some());
        assert_eq!(m.alarms_raised(), 1);
        // Recover: full coverage refills the window past the clear point.
        for _ in 0..100 {
            m.observe(true, 1.0);
        }
        assert!(m.drift().is_none(), "alarm should clear at coverage {}", m.coverage());
        assert_eq!(m.alarms_raised(), 1, "clearing is not a new activation");
    }

    #[test]
    fn window_evicts_oldest_first() {
        let mut m = CoverageMonitor::new(CoverageMonitorConfig {
            window: 3,
            min_samples: 1,
            ..Default::default()
        });
        m.observe(false, 1.0);
        m.observe(true, 2.0);
        m.observe(true, 3.0);
        assert_eq!(m.len(), 3);
        // The next observation evicts the oldest (false): coverage becomes 3/3.
        m.observe(true, 4.0);
        assert_eq!(m.len(), 3);
        assert_eq!(m.coverage(), 1.0);
        assert_eq!(m.width_quantile(0.0), 2.0, "width 1.0 was evicted with its entry");
        assert_eq!(m.observed_total(), 4);
    }

    #[test]
    fn width_quantiles_handle_nan_and_empty() {
        let mut m = monitor();
        assert!(m.width_p50().is_nan());
        m.observe(true, 1.0);
        m.observe(true, f64::NAN);
        assert_eq!(m.width_p50(), 1.0);
        assert_eq!(m.width_p95(), f64::INFINITY, "NaN width stored as +inf");
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let bad = |c: CoverageMonitorConfig| CoverageMonitor::try_new(c).is_err();
        assert!(bad(CoverageMonitorConfig { alpha: 0.0, ..Default::default() }));
        assert!(bad(CoverageMonitorConfig { window: 0, ..Default::default() }));
        assert!(bad(CoverageMonitorConfig { epsilon: -0.1, ..Default::default() }));
        assert!(bad(CoverageMonitorConfig { epsilon: f64::NAN, ..Default::default() }));
        assert!(bad(CoverageMonitorConfig { min_samples: 0, ..Default::default() }));
    }
}
