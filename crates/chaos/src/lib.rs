//! Deterministic chaos orchestration for the Spaden serving stack.
//!
//! PRs 1–9 armored each layer against one fault family at a time:
//! kernel bit flips (ABFT), device crash/hang/straggler (sharding),
//! SimSan numeric hazards, storage torn tails (durability), corrupted
//! updates (rollback), and overload (shedding). Each family has its own
//! `repro` subcommand — and correlated failures, where several families
//! fire inside the same commit window, were untested. This crate is the
//! simulation-testing layer that closes that gap:
//!
//! * [`ChaosProfile`] → [`ChaosSchedule`]: a seeded generator that
//!   composes all six families behind per-family rate knobs and
//!   *correlation windows* deliberately aligned with epoch commits on
//!   the simulated clock ([`schedule`]).
//! * [`run_schedule`]: drives a real server — sharded fleet, batching
//!   window, overload control, durable evolving registration — through
//!   the schedule, swapping the unified [`InjectionConfig`] at every
//!   fault boundary, then checks a global invariant oracle: no
//!   unverified output ever served, epoch-exact reads against the f64
//!   oracle, recovery bit-identity at every crash point, High-priority
//!   availability above the floor, counter conservation, and a
//!   determinism digest ([`run`]).
//! * [`shrink()`]: on any violation, delta-debugging over the fault
//!   events and then the arrival count produces a minimal reproducer
//!   ([`shrink`][mod@shrink]).
//! * [`explore()`] + [`ReplayFile`]: the seed sweep behind `repro chaos`,
//!   and the text artifact `repro chaos --replay <file>` re-runs
//!   bit-exactly ([`explore`][mod@explore], [`replay`]).
//!
//! [`InjectionConfig`]: spaden_gpusim::InjectionConfig

pub mod explore;
pub mod replay;
pub mod run;
pub mod schedule;
pub mod shrink;

/// Fleet size of the chaos scenario's sharded rung (what
/// [`FaultEvent::KillDevice`] device indexes range over).
pub const SHARD_DEVICES: usize = 3;

pub use explore::{explore, CaughtViolation, ChaosFindings, ExploreConfig, ScheduleRow};
pub use replay::ReplayFile;
pub use run::{run_schedule, CrashCheck, ScenarioOutcome};
pub use schedule::{ChaosProfile, ChaosSchedule, FaultEvent, FaultFamily, FAMILIES};
pub use shrink::{shrink, ShrinkResult};
