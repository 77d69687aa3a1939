//! Tenant population: who sends each arrival, at which priority, against
//! which matrix fingerprint.
//!
//! The population is sampled once per arrival from the same seeded
//! [`Pcg64`] stream as everything else, so a traffic run is a pure
//! function of its config and seed. Three skews matter:
//!
//! * **Tenant weight** is Zipf — a few tenants dominate the request
//!   stream, as in any real multi-tenant service.
//! * **Matrix popularity** is Zipf over a fingerprint universe of
//!   thousands, independent of tenant — the hot head concentrates
//!   same-matrix traffic (what the batching window coalesces) while the
//!   long tail spreads load across the registered corpus.
//! * **Priority** is a per-tenant *tier* fixed at construction (paying
//!   tenants stay `High` for every request), so brownout decisions map to
//!   a stable set of tenants rather than flickering per request.

use spaden_serve::Priority;
use spaden_sparse::rng::Pcg64;

/// Population shape knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of tenants.
    pub tenants: usize,
    /// Zipf exponent of tenant request share.
    pub tenant_zipf_s: f64,
    /// Distinct matrix fingerprints in the popularity universe.
    pub fingerprints: usize,
    /// Zipf exponent of matrix popularity.
    pub matrix_zipf_s: f64,
    /// Fraction of tenants in the `High` tier (rounded down, min 1).
    pub high_tenant_fraction: f64,
    /// Fraction of tenants in the `Low` tier; the rest are `Normal`.
    pub low_tenant_fraction: f64,
    /// Per-request latency SLO, simulated seconds. Doubles as the
    /// deadline budget the serving layer sheds against.
    pub slo_s: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            tenants: 24,
            tenant_zipf_s: 1.1,
            fingerprints: 2_000,
            matrix_zipf_s: 1.05,
            high_tenant_fraction: 0.2,
            low_tenant_fraction: 0.35,
            // ~25 service times on the evaluation corpus: deep enough
            // that sub-saturation queueing never trips it, shallow
            // enough that overload backlogs expire (and feed the
            // adaptive limit) before the bounded queue hard-rejects.
            slo_s: 150e-6,
        }
    }
}

/// One arrival's provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalMeta {
    /// Sending tenant index in `[0, tenants)`.
    pub tenant: usize,
    /// The tenant's priority tier.
    pub priority: Priority,
    /// Matrix fingerprint index in `[0, fingerprints)`.
    pub fingerprint: usize,
}

/// Per-tenant SLO ledger, filled in by the engine as outcomes resolve.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantAccount {
    /// Requests this tenant sent.
    pub arrivals: u64,
    /// Requests that came back verified.
    pub served: u64,
    /// Served requests whose time-in-system met the SLO.
    pub slo_met: u64,
    /// Requests shed by overload control (expiry, eviction, brownout).
    pub shed: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
}

impl TenantAccount {
    /// Fraction of arrivals that were served within the SLO.
    pub fn slo_attainment(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.arrivals as f64
        }
    }
}

/// Seeded sampler over the tenant population.
#[derive(Debug, Clone)]
pub struct Population {
    config: PopulationConfig,
    /// Tier of each tenant, fixed at construction.
    tiers: Vec<Priority>,
    rng: Pcg64,
}

impl Population {
    /// Builds the population: tier assignment consumes the head of the
    /// seeded stream, then per-arrival sampling continues from there.
    pub fn new(config: PopulationConfig, seed: u64) -> Self {
        assert!(config.tenants > 0 && config.fingerprints > 0);
        let mut rng = Pcg64::new(seed, 0x007e_4a11);
        let n_high = ((config.tenants as f64 * config.high_tenant_fraction) as usize).max(1);
        let n_low = (config.tenants as f64 * config.low_tenant_fraction) as usize;
        // Heaviest tenants must not all share one tier, or a brownout
        // check degenerates: shuffle the tier labels over tenant ids.
        let mut tiers: Vec<Priority> = (0..config.tenants)
            .map(|i| {
                if i < n_high {
                    Priority::High
                } else if i < n_high + n_low {
                    Priority::Low
                } else {
                    Priority::Normal
                }
            })
            .collect();
        rng.shuffle(&mut tiers);
        Population { config, tiers, rng }
    }

    /// The population config.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The fixed tier of `tenant`.
    pub fn tier(&self, tenant: usize) -> Priority {
        self.tiers[tenant]
    }

    /// Draws the provenance of the next arrival.
    pub fn sample(&mut self) -> ArrivalMeta {
        let tenant = self.rng.zipf(self.config.tenants, self.config.tenant_zipf_s);
        let fingerprint = self.rng.zipf(self.config.fingerprints, self.config.matrix_zipf_s);
        ArrivalMeta { tenant, priority: self.tiers[tenant], fingerprint }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut p = Population::new(PopulationConfig::default(), seed);
            (0..200).map(|_| p.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn tiers_cover_all_three_priorities() {
        let p = Population::new(PopulationConfig::default(), 4);
        for pr in Priority::ALL {
            assert!(
                (0..p.config().tenants).any(|t| p.tier(t) == pr),
                "no tenant in tier {pr:?}"
            );
        }
    }

    #[test]
    fn matrix_popularity_is_zipf_skewed() {
        let mut p = Population::new(PopulationConfig::default(), 11);
        let n = 4_000;
        let head = (0..n)
            .filter(|_| p.sample().fingerprint < p.config().fingerprints / 100)
            .count();
        // Top 1% of fingerprints should draw far more than 1% of traffic.
        assert!(head > n / 5, "only {head}/{n} draws in the hot head");
    }

    #[test]
    fn heavy_tenants_span_tiers() {
        // The head of the Zipf tenant distribution must not be all-High
        // or all-Low, or brownout/eviction tests lose their contrast.
        let mut p = Population::new(PopulationConfig::default(), 2);
        let mut seen = [false; 3];
        for _ in 0..500 {
            seen[p.sample().priority as usize] = true;
        }
        assert_eq!(seen, [true; 3], "traffic must carry all three priorities");
    }

    #[test]
    fn account_attainment_math() {
        let a = TenantAccount { arrivals: 10, served: 8, slo_met: 7, shed: 1, failed: 1 };
        assert!((a.slo_attainment() - 0.7).abs() < 1e-12);
        assert_eq!(TenantAccount::default().slo_attainment(), 1.0);
    }
}
