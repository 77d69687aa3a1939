//! Overload control: adaptive concurrency limiting and brownout modes.
//!
//! Open-loop traffic does not slow down when the server does — arrivals
//! keep coming at the offered rate, so past saturation the only choices
//! are *which* requests to shed and *how much* backlog to carry. This
//! module makes both choices deterministically on the simulated clock:
//!
//! * **Adaptive concurrency limit** — an AIMD controller over the
//!   admission backlog. Every [`OverloadConfig::window`] completed
//!   requests it compares the window's observed p99 *time-in-system*
//!   (queue wait + service) against [`OverloadConfig::target_p99_s`]:
//!   over target → multiplicative decrease of the limit (carrying less
//!   backlog directly caps queueing delay), under target → additive
//!   increase. The limit tightens the admission queue's effective
//!   capacity; arrivals beyond it are shed at admission with
//!   [`ShedReason::AdaptiveLimit`](crate::queue::ShedReason) instead of
//!   queueing up a deadline they can never make.
//! * **Brownout ladder** — when the limit is already at its floor and
//!   the p99 still overruns, the server steps down a brownout rung:
//!   first shedding Low-priority traffic at admission, then Normal.
//!   Brownout degrades *capacity allocation only*: every request that is
//!   served still runs the full verification ladder (ABFT / sanitizer
//!   checks are never skipped — shedding is the only degradation lever).
//!   Calm windows walk the ladder back up.
//!
//! With [`OverloadConfig::enabled`] false (the default) the controller
//! is inert: the limit is unbounded, no brownout mode ever engages, and
//! the serving path is bit-identical to the pre-overload-control server.

use crate::queue::{Priority, ShedReason, PRIORITIES};

/// Brownout rung: which priority classes are shed at admission. Deeper
/// rungs shed more traffic; no rung ever weakens verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutMode {
    /// No brownout: every class admitted.
    Normal = 0,
    /// Low-priority traffic shed at admission.
    ShedLow = 1,
    /// Low- and Normal-priority traffic shed; only High admitted.
    ShedLowAndNormal = 2,
}

impl BrownoutMode {
    /// All rungs, shallowest first.
    pub const ALL: [BrownoutMode; 3] =
        [BrownoutMode::Normal, BrownoutMode::ShedLow, BrownoutMode::ShedLowAndNormal];

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BrownoutMode::Normal => "normal",
            BrownoutMode::ShedLow => "shed-low",
            BrownoutMode::ShedLowAndNormal => "shed-low+normal",
        }
    }

    /// Whether this rung sheds `priority` at admission. High-priority
    /// traffic is never shed by brownout.
    pub fn sheds(&self, priority: Priority) -> bool {
        match self {
            BrownoutMode::Normal => false,
            BrownoutMode::ShedLow => priority == Priority::Low,
            BrownoutMode::ShedLowAndNormal => priority != Priority::High,
        }
    }

    fn deeper(self) -> BrownoutMode {
        match self {
            BrownoutMode::Normal => BrownoutMode::ShedLow,
            _ => BrownoutMode::ShedLowAndNormal,
        }
    }

    fn shallower(self) -> BrownoutMode {
        match self {
            BrownoutMode::ShedLowAndNormal => BrownoutMode::ShedLow,
            _ => BrownoutMode::Normal,
        }
    }
}

/// Overload-control policy. All times are simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Master switch. Off (the default) keeps the serving path
    /// bit-identical to the pre-overload-control server.
    pub enabled: bool,
    /// The p99 time-in-system the limiter steers toward.
    pub target_p99_s: f64,
    /// Floor of the adaptive limit — backlog the server always accepts.
    pub min_outstanding: usize,
    /// Ceiling (and initial value) of the adaptive limit.
    pub max_outstanding: usize,
    /// Completed requests per control window.
    pub window: usize,
    /// Multiplicative decrease factor applied on an overrun window.
    pub decrease: f64,
    /// Additive increase applied on an in-target window.
    pub increase: usize,
    /// Consecutive overrun windows *at the limit floor* before the
    /// brownout ladder steps deeper.
    pub brownout_after: u32,
    /// Consecutive in-target windows before the ladder steps back up.
    pub recover_after: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        // Target sized to the serve layer's 500 us default deadline: the
        // limiter reacts before queue wait alone eats the budget.
        OverloadConfig {
            enabled: false,
            target_p99_s: 300e-6,
            min_outstanding: 2,
            max_outstanding: 64,
            window: 32,
            decrease: 0.5,
            increase: 2,
            brownout_after: 2,
            recover_after: 2,
        }
    }
}

impl OverloadConfig {
    /// The default policy with the master switch on (what the traffic
    /// engine runs under).
    pub fn on() -> Self {
        OverloadConfig { enabled: true, ..OverloadConfig::default() }
    }
}

/// Controller counters (monotonic over the controller's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Arrivals shed at admission by the active brownout mode, per class.
    pub shed_brownout: [u64; PRIORITIES],
    /// Multiplicative decreases of the limit.
    pub limit_decreases: u64,
    /// Additive increases of the limit.
    pub limit_increases: u64,
    /// Brownout ladder steps down (deeper shedding).
    pub brownout_escalations: u64,
    /// Brownout ladder steps back up.
    pub brownout_recoveries: u64,
    /// Control windows whose p99 overran the target.
    pub overrun_windows: u64,
}

/// Deterministic AIMD limiter plus brownout ladder over completed-request
/// latencies. Drive it with [`OverloadController::on_complete`] for every
/// resolved request (served, failed, or shed after queueing — each one is
/// evidence about time-in-system) and gate admissions with
/// [`OverloadController::admission_shed`] / [`OverloadController::limit`].
#[derive(Debug, Clone)]
pub struct OverloadController {
    config: OverloadConfig,
    limit: usize,
    mode: BrownoutMode,
    window: Vec<f64>,
    overrun_streak: u32,
    calm_streak: u32,
    stats: OverloadStats,
}

impl OverloadController {
    /// A controller at full limit, no brownout.
    pub fn new(config: OverloadConfig) -> Self {
        OverloadController {
            config,
            limit: config.max_outstanding.max(config.min_outstanding).max(1),
            mode: BrownoutMode::Normal,
            window: Vec::with_capacity(config.window.max(1)),
            overrun_streak: 0,
            calm_streak: 0,
            stats: OverloadStats::default(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Current admission limit (effective queue capacity). Unbounded when
    /// the controller is disabled.
    pub fn limit(&self) -> usize {
        if self.config.enabled {
            self.limit
        } else {
            usize::MAX
        }
    }

    /// Current brownout rung.
    pub fn mode(&self) -> BrownoutMode {
        self.mode
    }

    /// Lifetime counters.
    pub fn stats(&self) -> OverloadStats {
        self.stats
    }

    /// Gate for one arrival: `Some(reason)` when the active brownout mode
    /// sheds this class (counted), `None` when it may proceed to the
    /// queue. Always `None` when disabled.
    pub fn admission_shed(&mut self, priority: Priority) -> Option<ShedReason> {
        if self.config.enabled && self.mode.sheds(priority) {
            self.stats.shed_brownout[priority as usize] += 1;
            Some(ShedReason::Brownout { mode: self.mode })
        } else {
            None
        }
    }

    /// Feeds one resolved request's time-in-system (queue wait plus
    /// whatever service it got) into the control window; every
    /// [`OverloadConfig::window`]-th call closes the window and adjusts
    /// the limit / brownout rung. No-op when disabled.
    pub fn on_complete(&mut self, time_in_system_s: f64) {
        if !self.config.enabled {
            return;
        }
        self.window.push(time_in_system_s);
        if self.window.len() < self.config.window.max(1) {
            return;
        }
        let p99 = percentile(&mut self.window, 99.0);
        self.window.clear();
        if p99 > self.config.target_p99_s {
            self.stats.overrun_windows += 1;
            self.calm_streak = 0;
            let floor = self.config.min_outstanding.max(1);
            let shrunk = ((self.limit as f64) * self.config.decrease).floor() as usize;
            let next = shrunk.max(floor);
            if next < self.limit {
                self.limit = next;
                self.stats.limit_decreases += 1;
                self.overrun_streak = 0;
            } else {
                // Already at the floor: sustained overrun escalates the
                // brownout ladder instead.
                self.overrun_streak += 1;
                if self.overrun_streak >= self.config.brownout_after
                    && self.mode != BrownoutMode::ShedLowAndNormal
                {
                    self.mode = self.mode.deeper();
                    self.stats.brownout_escalations += 1;
                    self.overrun_streak = 0;
                }
            }
        } else {
            self.overrun_streak = 0;
            let ceiling = self.config.max_outstanding.max(self.config.min_outstanding).max(1);
            let next = (self.limit + self.config.increase).min(ceiling);
            if next > self.limit {
                self.limit = next;
                self.stats.limit_increases += 1;
            }
            self.calm_streak += 1;
            if self.calm_streak >= self.config.recover_after && self.mode != BrownoutMode::Normal
            {
                self.mode = self.mode.shallower();
                self.stats.brownout_recoveries += 1;
                self.calm_streak = 0;
            }
        }
    }
}

/// Nearest-rank percentile of `values`, `p` in `[0, 100]`; sorts in
/// place. Zero when `values` is empty. The one percentile definition of
/// the serving stack: [`ServeStats`](crate::ServeStats), the overload
/// controller and the `repro` reports all read latencies through it.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> OverloadController {
        OverloadController::new(OverloadConfig {
            enabled: true,
            target_p99_s: 1.0,
            min_outstanding: 2,
            max_outstanding: 16,
            window: 4,
            decrease: 0.5,
            increase: 2,
            brownout_after: 2,
            recover_after: 2,
        })
    }

    fn feed(c: &mut OverloadController, latency: f64, n: usize) {
        for _ in 0..n {
            c.on_complete(latency);
        }
    }

    #[test]
    fn disabled_controller_is_inert() {
        let mut c = OverloadController::new(OverloadConfig::default());
        assert_eq!(c.limit(), usize::MAX);
        feed(&mut c, 1e9, 1000);
        assert_eq!(c.limit(), usize::MAX);
        assert_eq!(c.mode(), BrownoutMode::Normal);
        assert!(c.admission_shed(Priority::Low).is_none());
        assert_eq!(c.stats(), OverloadStats::default());
    }

    #[test]
    fn overrun_windows_halve_the_limit_down_to_the_floor() {
        let mut c = controller();
        assert_eq!(c.limit(), 16);
        feed(&mut c, 2.0, 4);
        assert_eq!(c.limit(), 8);
        feed(&mut c, 2.0, 4);
        assert_eq!(c.limit(), 4);
        feed(&mut c, 2.0, 4);
        assert_eq!(c.limit(), 2, "floor reached");
        feed(&mut c, 2.0, 4);
        assert_eq!(c.limit(), 2, "never below the floor");
        assert!(c.stats().limit_decreases >= 3);
    }

    #[test]
    fn sustained_overrun_at_the_floor_walks_the_brownout_ladder() {
        let mut c = controller();
        // Three windows to the floor, then brownout_after = 2 windows per
        // escalation step.
        feed(&mut c, 2.0, 12);
        assert_eq!(c.mode(), BrownoutMode::Normal);
        feed(&mut c, 2.0, 8);
        assert_eq!(c.mode(), BrownoutMode::ShedLow);
        assert!(c.admission_shed(Priority::Low).is_some());
        assert!(c.admission_shed(Priority::Normal).is_none());
        feed(&mut c, 2.0, 8);
        assert_eq!(c.mode(), BrownoutMode::ShedLowAndNormal);
        assert!(c.admission_shed(Priority::Normal).is_some());
        assert!(c.admission_shed(Priority::High).is_none(), "high always admitted");
        // Saturates at the deepest rung.
        feed(&mut c, 2.0, 16);
        assert_eq!(c.mode(), BrownoutMode::ShedLowAndNormal);
    }

    #[test]
    fn calm_windows_recover_the_limit_and_the_ladder() {
        let mut c = controller();
        feed(&mut c, 2.0, 20); // floor + ShedLow
        assert_eq!(c.mode(), BrownoutMode::ShedLow);
        feed(&mut c, 0.1, 8); // recover_after = 2 calm windows
        assert_eq!(c.mode(), BrownoutMode::Normal);
        assert!(c.limit() > 2, "calm windows grow the limit again");
        assert_eq!(c.stats().brownout_recoveries, 1);
        // And the limit climbs back to the ceiling additively.
        feed(&mut c, 0.1, 40);
        assert_eq!(c.limit(), 16);
    }

    #[test]
    fn brownout_counts_sheds_per_class() {
        let mut c = controller();
        feed(&mut c, 2.0, 20);
        assert_eq!(c.mode(), BrownoutMode::ShedLow);
        for _ in 0..3 {
            c.admission_shed(Priority::Low);
        }
        assert_eq!(c.stats().shed_brownout[Priority::Low as usize], 3);
        assert_eq!(c.stats().shed_brownout[Priority::High as usize], 0);
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut c = controller();
            for i in 0..200 {
                c.on_complete(if i % 7 < 4 { 2.5 } else { 0.3 });
            }
            (c.limit(), c.mode(), c.stats())
        };
        assert_eq!(run(), run());
    }
}
