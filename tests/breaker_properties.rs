//! Model-based test of [`CircuitBreaker`]: seeded random sequences of
//! `allow`, `record_success`, `record_failure`, `record_probe_timeout`
//! and `force_open` on an advancing simulated clock, each step checked
//! against a small reference state machine. The model covers:
//!
//! 1. Trip: `trip_after` consecutive failures while closed open the
//!    breaker; a success in between resets the count.
//! 2. Cooldown: an open breaker refuses traffic until `cooldown_s` has
//!    elapsed since its last trip (or forced re-open).
//! 3. Half-open probe: the first `allow` after the cooldown admits a
//!    probe; `close_after` consecutive probe successes close it.
//! 4. Re-open: a failed or timed-out probe trips it again and restarts
//!    the cooldown; a timeout outside half-open is ignored.
//! 5. Counters: trips, recoveries, probe timeouts, successes, failures
//!    and the EWMA health score match the model after every step.

use spaden_serve::{BreakerConfig, BreakerState, CircuitBreaker};
use spaden_sparse::Pcg64;
use BreakerState::{Closed, HalfOpen, Open};

/// Reference model. `run` counts consecutive failures while closed and
/// consecutive probe successes while half-open; `counts` is (trips,
/// recoveries, probe timeouts, successes, failures).
struct Model {
    cfg: BreakerConfig,
    state: BreakerState,
    run: u32,
    since: f64,
    health: f64,
    counts: (u64, u64, u64, u64, u64),
}

impl Model {
    fn trip(&mut self, now: f64) -> bool {
        (self.state, self.run, self.since) = (Open, 0, now);
        self.counts.0 += 1;
        true
    }

    fn allow(&mut self, now: f64) -> bool {
        if self.state == Open {
            if now - self.since < self.cfg.cooldown_s {
                return false;
            }
            (self.state, self.run) = (HalfOpen, 0);
        }
        true
    }

    fn success(&mut self) {
        self.counts.3 += 1;
        self.health += self.cfg.health_alpha * (1.0 - self.health);
        match self.state {
            Closed => self.run = 0,
            HalfOpen => {
                self.run += 1;
                if self.run >= self.cfg.close_after {
                    (self.state, self.run) = (Closed, 0);
                    self.counts.1 += 1;
                }
            }
            Open => {}
        }
    }

    fn failure(&mut self, now: f64) -> bool {
        self.counts.4 += 1;
        self.health -= self.cfg.health_alpha * self.health;
        match self.state {
            Closed => {
                self.run += 1;
                self.run >= self.cfg.trip_after && self.trip(now)
            }
            HalfOpen => self.trip(now),
            Open => false,
        }
    }

    fn probe_timeout(&mut self, now: f64) -> bool {
        self.state == HalfOpen && {
            self.counts.2 += 1;
            self.trip(now)
        }
    }

    fn force_open(&mut self, now: f64) {
        if self.state == Open {
            self.since = now;
        } else {
            self.trip(now);
        }
    }
}

#[test]
fn breaker_agrees_with_the_reference_state_machine() {
    let mut visited = [false; 3];
    let mut totals = (0, 0, 0);
    for seed in 0..48u64 {
        let mut rng = Pcg64::new(seed, 0xb4e);
        let cfg = BreakerConfig {
            trip_after: 1 + rng.below_usize(4) as u32,
            cooldown_s: rng.range_f32(0.5, 4.0) as f64,
            close_after: 1 + rng.below_usize(3) as u32,
            health_alpha: rng.range_f32(0.05, 0.5) as f64,
        };
        let mut b = CircuitBreaker::new(cfg);
        let mut m =
            Model { cfg, state: Closed, run: 0, since: 0.0, health: 1.0, counts: (0, 0, 0, 0, 0) };
        let (mut now, mut fail_p) = (0.0f64, 0.5f64);
        for step in 0..600 {
            now += rng.range_f32(0.0, 1.0) as f64;
            // Failure-heavy phases alternate with healthy ones, so every
            // transition is reached from every state.
            if step % 50 == 0 {
                fail_p = rng.range_f32(0.05, 0.95) as f64;
            }
            let ctx = format!("seed {seed} step {step} t {now:.3}");
            let (kind, fail) = (rng.below_usize(16), rng.chance(fail_p));
            let outcome = |b: &mut CircuitBreaker, m: &mut Model| {
                if fail {
                    assert_eq!(b.record_failure(now), m.failure(now), "{ctx}: failure");
                } else {
                    b.record_success();
                    m.success();
                }
            };
            match kind {
                0..=5 => assert_eq!(b.allow(now), m.allow(now), "{ctx}: allow"),
                // An outcome may land in any state: a request admitted
                // before a trip can finish after it.
                6..=8 => outcome(&mut b, &mut m),
                // The usual path: an admitted request reports back.
                9..=12 => {
                    let allowed = b.allow(now);
                    assert_eq!(allowed, m.allow(now), "{ctx}: allow");
                    if allowed {
                        outcome(&mut b, &mut m);
                    }
                }
                13 | 14 => {
                    let reopened = b.record_probe_timeout(now);
                    assert_eq!(reopened, m.probe_timeout(now), "{ctx}: probe timeout");
                }
                _ => {
                    b.force_open(now);
                    m.force_open(now);
                }
            }
            assert_eq!(b.state(), m.state, "{ctx}: state");
            let counts = (b.trips, b.recoveries, b.probe_timeouts, b.successes, b.failures);
            assert_eq!(counts, m.counts, "{ctx}: trips, recoveries, timeouts, successes, failures");
            assert_eq!(b.health().to_bits(), m.health.to_bits(), "{ctx}: health");
            visited[b.state() as usize] = true;
        }
        totals = (totals.0 + m.counts.0, totals.1 + m.counts.1, totals.2 + m.counts.2);
    }
    // The sweep must exercise the machine, not idle in one state.
    assert_eq!(visited, [true; 3], "every state visited");
    assert!(totals.0 > 0 && totals.1 > 0 && totals.2 > 0, "trips, recoveries, timeouts: {totals:?}");
}
