//! Unified injection surface over the simulator's three fault planes.
//!
//! The fault machinery grew one plane at a time: seeded kernel-level bit
//! faults ([`FaultConfig`]), device-level crash/hang/straggler processes
//! ([`DeviceFaultConfig`]), and the SimSan hazard detector
//! ([`SanConfig`]) that turns numeric and memory hazards into typed
//! errors. Each plane has its own config type and its own hook on the
//! serving layer, which is fine for single-family sweeps but awkward for
//! a chaos orchestrator that composes families: correlated schedules
//! need to swap *all three* planes atomically at a simulated-time
//! boundary.
//!
//! [`InjectionConfig`] is that atom — one value describing everything the
//! simulator may inject. It is pure data (the serving layer applies it);
//! the combinators here exist so schedule code can start from
//! [`InjectionConfig::none`] and overlay the planes that a window of the
//! schedule activates.

use crate::device::DeviceFaultConfig;
use crate::fault::FaultConfig;
use crate::san::SanConfig;

/// Everything the simulator can inject or detect, as one value.
///
/// `san` rides along because hazard-family chaos is only observable when
/// the sanitizer is armed: injected lane races and fragment misuse are
/// silent without it. An orchestrator that schedules a hazard window
/// must therefore flip detection on in the same atomic swap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionConfig {
    /// Kernel-level seeded bit faults (memory flips, fragment
    /// corruption, stuck lanes, dropped atomics, access hazards).
    pub faults: FaultConfig,
    /// Device-level failure processes (crash / hang / straggler).
    pub device: DeviceFaultConfig,
    /// SimSan detection state. Keep enabled whenever `faults` includes
    /// hazard-class rates, else those faults execute undetected.
    pub san: SanConfig,
}

impl Default for InjectionConfig {
    fn default() -> Self {
        InjectionConfig::none()
    }
}

impl InjectionConfig {
    /// Nothing injected, nothing armed: the clean simulator.
    pub fn none() -> Self {
        InjectionConfig {
            faults: FaultConfig::disabled(),
            device: DeviceFaultConfig::disabled(),
            san: SanConfig::disabled(),
        }
    }

    /// True when any plane can fire.
    pub fn enabled(&self) -> bool {
        self.faults.enabled() || self.device.enabled()
    }

    /// Overlays kernel-level bit faults (replacing that plane only).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the sanitizer (detection plane).
    pub fn with_san(mut self, san: SanConfig) -> Self {
        self.san = san;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_fully_disabled() {
        let inj = InjectionConfig::none();
        assert!(!inj.enabled());
        assert!(!inj.san.enabled);
    }

    #[test]
    fn overlays_replace_only_their_plane() {
        let inj = InjectionConfig::none()
            .with_faults(FaultConfig::uniform(7, 1e-3))
            .with_san(SanConfig::on());
        assert!(inj.faults.enabled());
        assert!(inj.san.enabled);
        assert!(!inj.device.enabled(), "device plane untouched");
        let cleared = inj.with_faults(FaultConfig::disabled());
        assert!(!cleared.faults.enabled());
        assert!(cleared.san.enabled, "other planes survive the overlay");
    }
}
