//! SimSan — a shadow-state sanitizer for the warp-lockstep executor.
//!
//! The Spaden kernels are exactly the kind of code where a silent
//! out-of-bounds read, an uninitialized fragment register or an f16
//! overflow produces a *plausible* wrong answer instead of a crash: a
//! hand-laid register↔lane↔element mapping driving an f16-in/f32-out MMA.
//! SimSan watches every access a kernel makes through [`crate::WarpCtx`]
//! and turns such events into typed, reproducible reports.
//!
//! ## Shadow-state model
//!
//! The [`crate::Gpu`] bump allocator hands out 256-byte-aligned,
//! non-overlapping allocations. When SimSan is on, every allocation is
//! recorded in a host-side shadow table ([`ShadowState`]); the span
//! `[base, base + data_bytes)` is *initialized data*, the alignment tail
//! `[base + data_bytes, base + alloc_bytes)` is *allocated but
//! uninitialized*, and everything else is *unmapped*. At launch the table
//! is snapshotted (kernels cannot allocate mid-launch), so per-warp checks
//! are lock-free. An access is classified per lane:
//!
//! * index within the buffer → OK (plus read-after-write race checks),
//! * address inside the alignment tail → [`HazardKind::UninitRead`],
//! * address past the allocation → [`HazardKind::OutOfBounds`],
//! * buffer freed via [`crate::Gpu::free`] → [`HazardKind::UseAfterFree`].
//!
//! ## Conflict detection
//!
//! Plain (non-atomic) global stores are logged while SimSan is on. Two
//! lanes of one warp storing to the same address in the same instruction
//! is a [`HazardKind::LaneRace`]; plain stores to one address from two
//! different warps is a [`HazardKind::WriteRace`]; a mix of plain and
//! atomic writes on one address is a [`HazardKind::AtomicConflict`]; a
//! warp gathering from an address it plain-stored earlier in the same
//! launch is a [`HazardKind::WriteReadRace`]. Cross-warp conflicts are
//! found in a deterministic post-pass over the merged write log.
//!
//! ## Numerical guard rails
//!
//! Fragment writes round f32 through IEEE binary16 ([`crate::half::F16`]).
//! SimSan classifies every conversion ([`F16::convert_hazard`]): finite
//! values rounding to ±Inf are [`HazardKind::F16Overflow`], nonzero values
//! at or above [`SanConfig::underflow_tol`] rounding to zero are
//! [`HazardKind::F16Underflow`], and NaNs are [`HazardKind::NanProduced`].
//! MMA results are scanned per block for non-finite accumulators. The
//! engine layer surfaces these as `EngineError::NumericalHazard`, which
//! the serving ladder treats as a verification failure (demote, don't
//! return poisoned results).
//!
//! ## Determinism and cost
//!
//! Reports carry `(kind, warp, lane, address, kernel step)` and are merged
//! in fixed shard order, so a violation is reproducible from the fault
//! seed alone. With SimSan off (`SanConfig::disabled`, the default on
//! every preset) the executor takes no per-access branches beyond one
//! `Option` check, allocations are not tracked, and outputs and counters
//! are bit-identical to a build without the sanitizer.

use crate::half::{ConvertHazard, F16};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sanitizer configuration, carried on [`crate::GpuConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanConfig {
    /// Master switch. Off by default on every preset.
    pub enabled: bool,
    /// Minimum magnitude at which an f16 underflow-to-zero is reported.
    /// Values smaller than this are treated as negligible accumulation
    /// noise rather than lost signal.
    pub underflow_tol: f32,
}

impl SanConfig {
    /// Sanitizer off (the default): zero cost, zero behaviour change.
    pub fn disabled() -> Self {
        SanConfig { enabled: false, underflow_tol: 1e-12 }
    }

    /// Sanitizer on with the default underflow tolerance.
    pub fn on() -> Self {
        SanConfig { enabled: true, underflow_tol: 1e-12 }
    }
}

impl Default for SanConfig {
    fn default() -> Self {
        SanConfig::disabled()
    }
}

/// The hazard taxonomy (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// A lane addressed memory past its buffer's allocation.
    OutOfBounds,
    /// A lane read the allocated-but-uninitialized alignment tail.
    UninitRead,
    /// An access to a buffer after [`crate::Gpu::free`].
    UseAfterFree,
    /// Host-side allocator misuse: double free or free of an unknown base.
    AllocMisuse,
    /// Two lanes of one warp stored to one address in one instruction.
    LaneRace,
    /// Plain stores to one address from two different warps.
    WriteRace,
    /// A warp gathered from an address it plain-stored earlier.
    WriteReadRace,
    /// Plain and atomic writes mixed on one address.
    AtomicConflict,
    /// A fragment register access inconsistent with the m16n16k16 mapping.
    FragmentMapping,
    /// An f16 conversion or MMA accumulator reached ±Inf.
    F16Overflow,
    /// A value at or above the tolerance rounded to zero in f16.
    F16Underflow,
    /// A NaN was produced or propagated.
    NanProduced,
}

impl HazardKind {
    /// Short stable name, used in reports and harness tables.
    pub fn name(&self) -> &'static str {
        match self {
            HazardKind::OutOfBounds => "out-of-bounds",
            HazardKind::UninitRead => "uninit-read",
            HazardKind::UseAfterFree => "use-after-free",
            HazardKind::AllocMisuse => "alloc-misuse",
            HazardKind::LaneRace => "lane-race",
            HazardKind::WriteRace => "write-race",
            HazardKind::WriteReadRace => "write-read-race",
            HazardKind::AtomicConflict => "atomic-conflict",
            HazardKind::FragmentMapping => "fragment-mapping",
            HazardKind::F16Overflow => "f16-overflow",
            HazardKind::F16Underflow => "f16-underflow",
            HazardKind::NanProduced => "nan-produced",
        }
    }
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One sanitizer finding: what, where, and at which kernel step.
#[derive(Debug, Clone, PartialEq)]
pub struct SanReport {
    /// Hazard class.
    pub kind: HazardKind,
    /// Warp that triggered it (`None` for host-side findings).
    pub warp: Option<usize>,
    /// Offending lane, when one lane is identifiable.
    pub lane: Option<usize>,
    /// Device byte address involved, when the hazard has one.
    pub addr: Option<u64>,
    /// Per-warp instruction step at which the hazard fired (0-based count
    /// of sanitized instructions the warp had issued).
    pub step: u64,
    /// The executor operation that detected it (e.g. `"gather"`).
    pub op: &'static str,
}

impl fmt::Display for SanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SAN {} in {}", self.kind, self.op)?;
        match self.warp {
            Some(w) => write!(f, " warp={w}")?,
            None => write!(f, " host")?,
        }
        if let Some(l) = self.lane {
            write!(f, " lane={l}")?;
        }
        if let Some(a) = self.addr {
            write!(f, " addr={a:#x}")?;
        }
        write!(f, " step={}", self.step)
    }
}

/// One logged global store (plain or atomic) for conflict detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    /// Device byte address written.
    pub addr: u64,
    /// Writing warp.
    pub warp: u32,
    /// The warp's instruction step of the write.
    pub step: u32,
    /// Writing lane.
    pub lane: u8,
    /// True for atomic adds, false for plain stores.
    pub atomic: bool,
}

/// One tracked allocation in the shadow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRecord {
    /// Base device address (256-byte aligned).
    pub base: u64,
    /// Bytes of initialized data.
    pub data_bytes: u64,
    /// Bytes reserved (data plus alignment tail).
    pub alloc_bytes: u64,
    /// True after [`crate::Gpu::free`].
    pub freed: bool,
}

/// 256-byte allocation rounding, mirroring the `Gpu` bump allocator (and
/// cudaMalloc's granularity).
pub(crate) fn aligned256(bytes: u64) -> u64 {
    bytes.div_ceil(256) * 256
}

/// Host-side shadow state: the allocation table, the report sink, and the
/// numeric-hazard tallies engines snapshot around a run.
#[derive(Debug, Default)]
pub struct ShadowState {
    allocs: Mutex<Vec<AllocRecord>>,
    reports: Mutex<Vec<SanReport>>,
    overflow: AtomicU64,
    underflow: AtomicU64,
    nan: AtomicU64,
}

impl ShadowState {
    /// Records a fresh allocation (bases are strictly increasing).
    pub(crate) fn register(&self, base: u64, data_bytes: u64, alloc_bytes: u64) {
        let mut a = self.allocs.lock().unwrap();
        a.push(AllocRecord { base, data_bytes, alloc_bytes, freed: false });
    }

    /// Marks the allocation at `base` freed; double frees and unknown
    /// bases become host-side [`HazardKind::AllocMisuse`] reports.
    pub(crate) fn free(&self, base: u64) {
        let misuse = {
            let mut a = self.allocs.lock().unwrap();
            match a.iter_mut().find(|r| r.base == base) {
                Some(r) if r.freed => Some("double-free"),
                Some(r) => {
                    r.freed = true;
                    None
                }
                None => Some("free-unknown"),
            }
        };
        if let Some(op) = misuse {
            self.reports.lock().unwrap().push(SanReport {
                kind: HazardKind::AllocMisuse,
                warp: None,
                lane: None,
                addr: Some(base),
                step: 0,
                op,
            });
        }
    }

    /// Immutable copy of the allocation table for one launch.
    pub(crate) fn snapshot(&self) -> Arc<Vec<AllocRecord>> {
        Arc::new(self.allocs.lock().unwrap().clone())
    }

    /// Merges one launch's reports into the sink and the numeric tallies.
    pub(crate) fn absorb(&self, reports: Vec<SanReport>) {
        for r in &reports {
            match r.kind {
                HazardKind::F16Overflow => self.overflow.fetch_add(1, Ordering::Relaxed),
                HazardKind::F16Underflow => self.underflow.fetch_add(1, Ordering::Relaxed),
                HazardKind::NanProduced => self.nan.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
        }
        self.reports.lock().unwrap().extend(reports);
    }

    /// Drains all accumulated reports.
    pub(crate) fn take_reports(&self) -> Vec<SanReport> {
        std::mem::take(&mut self.reports.lock().unwrap())
    }

    /// Cumulative `(overflow, underflow, nan)` counts since construction.
    /// Monotonic; engines snapshot before/after a run to attribute
    /// hazards to it without consuming the report sink.
    pub(crate) fn numeric_counts(&self) -> (u64, u64, u64) {
        (
            self.overflow.load(Ordering::Relaxed),
            self.underflow.load(Ordering::Relaxed),
            self.nan.load(Ordering::Relaxed),
        )
    }
}

/// Per-shard sanitizer context, carried on `WarpCtx` while SimSan is on.
/// Reports and the write log accumulate across the shard's warps; the
/// launch merges them in shard order, so output is deterministic.
#[derive(Debug)]
pub(crate) struct SanCtx {
    pub(crate) cfg: SanConfig,
    allocs: Arc<Vec<AllocRecord>>,
    warp: usize,
    step: u64,
    pub(crate) reports: Vec<SanReport>,
    pub(crate) writes: Vec<WriteRecord>,
    // Start of the current warp's records in `writes` (for the
    // read-after-write scan, which is intra-warp only).
    warp_writes_from: usize,
}

impl SanCtx {
    pub(crate) fn new(cfg: SanConfig, allocs: Arc<Vec<AllocRecord>>) -> Self {
        SanCtx { cfg, allocs, warp: 0, step: 0, reports: Vec::new(), writes: Vec::new(), warp_writes_from: 0 }
    }

    /// Resets per-warp state at the start of a warp's execution.
    pub(crate) fn begin_warp(&mut self, warp: usize) {
        self.warp = warp;
        self.step = 0;
        self.warp_writes_from = self.writes.len();
    }

    fn alloc_of(&self, base: u64) -> Option<&AllocRecord> {
        let i = self.allocs.binary_search_by_key(&base, |r| r.base).ok()?;
        Some(&self.allocs[i])
    }

    fn report(&mut self, kind: HazardKind, lane: Option<usize>, addr: Option<u64>, op: &'static str) {
        self.reports.push(SanReport { kind, warp: Some(self.warp), lane, addr, step: self.step, op });
    }

    /// Checks one warp-wide read instruction over `(lane, element index)`
    /// pairs of a buffer with the given base, length and element size.
    pub(crate) fn check_read(
        &mut self,
        base: u64,
        len: usize,
        elem_bytes: u64,
        lanes: impl Iterator<Item = (usize, u64)>,
        op: &'static str,
    ) {
        self.step += 1;
        let rec = self.alloc_of(base).copied();
        if let Some(r) = rec {
            if r.freed {
                self.report(HazardKind::UseAfterFree, None, Some(base), op);
            }
        }
        let data_end = base + len as u64 * elem_bytes;
        let alloc_end = match rec {
            Some(r) => r.base + r.alloc_bytes,
            // Untracked buffer (host-constructed in tests): assume the
            // allocator's alignment tail.
            None => base + aligned256(len as u64 * elem_bytes),
        };
        for (lane, i) in lanes {
            let addr = base + i * elem_bytes;
            if i >= len as u64 {
                let kind = if addr >= data_end && addr < alloc_end {
                    HazardKind::UninitRead
                } else {
                    HazardKind::OutOfBounds
                };
                self.report(kind, Some(lane), Some(addr), op);
            } else if self.writes[self.warp_writes_from..]
                .iter()
                .any(|w| !w.atomic && w.addr == addr)
            {
                self.report(HazardKind::WriteReadRace, Some(lane), Some(addr), op);
            }
        }
    }

    /// Checks and logs one warp-wide store instruction. Returns a lane
    /// mask of writes that must be suppressed (out of bounds).
    pub(crate) fn check_writes(
        &mut self,
        base: u64,
        len: usize,
        lanes: impl Iterator<Item = (usize, u64)>,
        atomic: bool,
        op: &'static str,
    ) {
        self.step += 1;
        let mut seen: Vec<u64> = Vec::new();
        for (lane, i) in lanes {
            let addr = base + i * 4;
            if i >= len as u64 {
                self.report(HazardKind::OutOfBounds, Some(lane), Some(addr), op);
                continue;
            }
            if !atomic {
                if seen.contains(&addr) {
                    self.report(HazardKind::LaneRace, Some(lane), Some(addr), op);
                }
                seen.push(addr);
            }
            self.writes.push(WriteRecord {
                addr,
                warp: self.warp as u32,
                step: self.step as u32,
                lane: lane as u8,
                atomic,
            });
        }
    }

    /// Logs the *intent* of an atomic that the fault injector demoted to a
    /// plain store: both records land at the address, so the post-pass
    /// reports a deterministic [`HazardKind::AtomicConflict`].
    pub(crate) fn log_demoted_atomic(&mut self, base: u64, i: u64, lane: usize) {
        let addr = base + i * 4;
        for atomic in [true, false] {
            self.writes.push(WriteRecord {
                addr,
                warp: self.warp as u32,
                step: self.step as u32,
                lane: lane as u8,
                atomic,
            });
        }
    }

    /// Checks one warp-wide pair of fragment register writes: the actual
    /// register base per lane must be the even base of a diagonal 8×8
    /// portion (the m16n16k16 mapping's TL/BR pair homes, regs {0,1} and
    /// {6,7}), and every value is classified for f16 conversion hazards.
    pub(crate) fn check_frag_pairs(
        &mut self,
        bases: impl Iterator<Item = (usize, usize)>,
        vals: &[Option<(f32, f32)>],
        op: &'static str,
    ) {
        self.step += 1;
        for (lane, rb) in bases {
            let diagonal = rb % 2 == 0 && rb + 1 < crate::fragment::REGS_PER_LANE && rb / 4 == (rb % 4) / 2;
            if !diagonal {
                self.report(HazardKind::FragmentMapping, Some(lane), None, op);
            }
        }
        let mut found: [Option<usize>; 3] = [None; 3];
        for (lane, v) in vals.iter().enumerate() {
            let Some((v0, v1)) = v else { continue };
            for v in [v0, v1] {
                if let Some(h) = F16::convert_hazard(*v, self.cfg.underflow_tol) {
                    let slot = &mut found[h as usize];
                    if slot.is_none() {
                        *slot = Some(lane);
                    }
                }
            }
        }
        for (h, kind) in [
            (ConvertHazard::Overflow, HazardKind::F16Overflow),
            (ConvertHazard::Underflow, HazardKind::F16Underflow),
            (ConvertHazard::Nan, HazardKind::NanProduced),
        ] {
            if let Some(lane) = found[h as usize] {
                self.report(kind, Some(lane), None, op);
            }
        }
    }

    /// Scans an MMA result fragment for non-finite accumulators (one
    /// report per kind per MMA — "per block" granularity).
    pub(crate) fn check_mma_result(&mut self, regs: &[[f32; 8]; 32]) {
        self.step += 1;
        let mut inf = None;
        let mut nan = None;
        for (lane, r) in regs.iter().enumerate() {
            for v in r {
                if v.is_nan() {
                    nan.get_or_insert(lane);
                } else if v.is_infinite() {
                    inf.get_or_insert(lane);
                }
            }
        }
        if let Some(lane) = inf {
            self.report(HazardKind::F16Overflow, Some(lane), None, "mma");
        }
        if let Some(lane) = nan {
            self.report(HazardKind::NanProduced, Some(lane), None, "mma");
        }
    }
}

/// Deterministic post-pass over one launch's merged write log: flags
/// plain stores to one address from different warps ([`HazardKind::WriteRace`])
/// and plain/atomic mixes on one address ([`HazardKind::AtomicConflict`]),
/// one report per address per kind.
pub(crate) fn cross_warp_conflicts(writes: &mut [WriteRecord]) -> Vec<SanReport> {
    writes.sort_unstable_by_key(|w| (w.addr, w.atomic, w.warp, w.step, w.lane));
    let mut out = Vec::new();
    let mut i = 0;
    while i < writes.len() {
        let addr = writes[i].addr;
        let mut j = i;
        while j < writes.len() && writes[j].addr == addr {
            j += 1;
        }
        let group = &writes[i..j];
        let first_plain = group.iter().find(|w| !w.atomic);
        let has_atomic = group.iter().any(|w| w.atomic);
        if let Some(p) = first_plain {
            if let Some(q) = group.iter().find(|w| !w.atomic && w.warp != p.warp) {
                out.push(SanReport {
                    kind: HazardKind::WriteRace,
                    warp: Some(q.warp as usize),
                    lane: Some(q.lane as usize),
                    addr: Some(addr),
                    step: q.step as u64,
                    op: "store",
                });
            }
            if has_atomic {
                out.push(SanReport {
                    kind: HazardKind::AtomicConflict,
                    warp: Some(p.warp as usize),
                    lane: Some(p.lane as usize),
                    addr: Some(addr),
                    step: p.step as u64,
                    op: "store",
                });
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(base: u64, data: u64) -> AllocRecord {
        AllocRecord { base, data_bytes: data, alloc_bytes: aligned256(data), freed: false }
    }

    fn ctx(allocs: Vec<AllocRecord>) -> SanCtx {
        let mut c = SanCtx::new(SanConfig::on(), Arc::new(allocs));
        c.begin_warp(0);
        c
    }

    #[test]
    fn read_classification_data_pad_beyond() {
        // 100 f32 = 400 data bytes, 512 allocated: indices 100..127 are
        // the uninitialized tail, 128+ are out of bounds.
        let mut c = ctx(vec![rec(0x1000, 400)]);
        c.check_read(0x1000, 100, 4, [(0usize, 50u64), (1, 100), (2, 127), (3, 128)].into_iter(), "gather");
        assert_eq!(c.reports.len(), 3);
        assert_eq!(c.reports[0].kind, HazardKind::UninitRead);
        assert_eq!(c.reports[0].lane, Some(1));
        assert_eq!(c.reports[1].kind, HazardKind::UninitRead);
        assert_eq!(c.reports[2].kind, HazardKind::OutOfBounds);
        assert_eq!(c.reports[2].addr, Some(0x1000 + 128 * 4));
    }

    #[test]
    fn use_after_free_flagged_once_per_instruction() {
        let mut r = rec(0x2000, 64);
        r.freed = true;
        let mut c = ctx(vec![r]);
        c.check_read(0x2000, 16, 4, [(0usize, 0u64), (1, 1)].into_iter(), "gather");
        assert_eq!(c.reports.len(), 1);
        assert_eq!(c.reports[0].kind, HazardKind::UseAfterFree);
    }

    #[test]
    fn lane_race_and_raw_detection() {
        let mut c = ctx(vec![rec(0x1000, 400)]);
        // Lanes 0 and 5 store to the same element: lane race.
        c.check_writes(0x1000, 100, [(0usize, 7u64), (5, 7), (6, 8)].into_iter(), false, "scatter");
        assert_eq!(c.reports.len(), 1);
        assert_eq!(c.reports[0].kind, HazardKind::LaneRace);
        assert_eq!(c.reports[0].lane, Some(5));
        // The same warp now gathers element 8: read-after-write.
        c.check_read(0x1000, 100, 4, [(0usize, 8u64)].into_iter(), "gather");
        assert_eq!(c.reports[1].kind, HazardKind::WriteReadRace);
        // A different warp reading it is not an intra-warp hazard.
        c.begin_warp(1);
        c.check_read(0x1000, 100, 4, [(0usize, 8u64)].into_iter(), "gather");
        assert_eq!(c.reports.len(), 2);
    }

    #[test]
    fn cross_warp_write_race_and_atomic_conflict() {
        let w = |addr, warp, atomic| WriteRecord { addr, warp, step: 1, lane: 0, atomic };
        // addr 0x10: plain stores from warps 0 and 2 -> WriteRace.
        // addr 0x20: plain from warp 1 + atomic from warp 3 -> AtomicConflict.
        // addr 0x30: atomics only -> clean. addr 0x40: one plain -> clean.
        let mut log = vec![
            w(0x40, 5, false),
            w(0x10, 2, false),
            w(0x20, 3, true),
            w(0x10, 0, false),
            w(0x30, 6, true),
            w(0x30, 7, true),
            w(0x20, 1, false),
        ];
        let mut reports = cross_warp_conflicts(&mut log);
        reports.sort_by_key(|r| r.addr);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].kind, HazardKind::WriteRace);
        assert_eq!(reports[0].addr, Some(0x10));
        assert_eq!(reports[0].warp, Some(2), "reported at the second distinct warp");
        assert_eq!(reports[1].kind, HazardKind::AtomicConflict);
        assert_eq!(reports[1].addr, Some(0x20));
    }

    #[test]
    fn fragment_mapping_checker_accepts_only_diagonal_bases() {
        for rb in 0..crate::fragment::REGS_PER_LANE {
            let mut c = ctx(vec![]);
            c.check_frag_pairs([(3usize, rb)].into_iter(), &[], "frag");
            let ok = rb == 0 || rb == 6;
            assert_eq!(c.reports.is_empty(), ok, "reg base {rb}");
            if !ok {
                assert_eq!(c.reports[0].kind, HazardKind::FragmentMapping);
                assert_eq!(c.reports[0].lane, Some(3));
            }
        }
    }

    #[test]
    fn numeric_hazards_classified_per_call() {
        let mut c = ctx(vec![]);
        let vals = [
            Some((1.0f32, 2.0f32)),
            Some((1e6, 0.5)),        // overflows f16
            Some((f32::NAN, 0.0)),   // NaN
            Some((1e-20, 3.0)),      // below tolerance: ignored
            Some((1e-9, 3.0)),       // underflow above tolerance
            None,
        ];
        c.check_frag_pairs(std::iter::empty(), &vals, "frag");
        let kinds: Vec<_> = c.reports.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![HazardKind::F16Overflow, HazardKind::F16Underflow, HazardKind::NanProduced]
        );
        assert_eq!(c.reports[0].lane, Some(1));
        assert_eq!(c.reports[1].lane, Some(4));
        assert_eq!(c.reports[2].lane, Some(2));
    }

    #[test]
    fn mma_scan_reports_inf_and_nan_once() {
        let mut c = ctx(vec![]);
        let mut regs = [[0.0f32; 8]; 32];
        regs[4][2] = f32::INFINITY;
        regs[9][1] = f32::NAN;
        regs[20][0] = f32::NEG_INFINITY;
        c.check_mma_result(&regs);
        assert_eq!(c.reports.len(), 2);
        assert_eq!(c.reports[0].kind, HazardKind::F16Overflow);
        assert_eq!(c.reports[0].lane, Some(4));
        assert_eq!(c.reports[1].kind, HazardKind::NanProduced);
        assert_eq!(c.reports[1].lane, Some(9));
    }

    #[test]
    fn shadow_free_misuse_reports() {
        let sh = ShadowState::default();
        sh.register(0x1000, 100, 256);
        sh.free(0x1000);
        sh.free(0x1000); // double free
        sh.free(0x9999); // never allocated
        let reports = sh.take_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.kind == HazardKind::AllocMisuse && r.warp.is_none()));
        assert_eq!(reports[0].op, "double-free");
        assert_eq!(reports[1].op, "free-unknown");
        assert!(sh.take_reports().is_empty(), "drained");
    }

    #[test]
    fn report_display_is_informative() {
        let r = SanReport {
            kind: HazardKind::OutOfBounds,
            warp: Some(3),
            lane: Some(7),
            addr: Some(0x1200),
            step: 42,
            op: "gather",
        };
        let s = r.to_string();
        assert!(s.contains("out-of-bounds"), "{s}");
        assert!(s.contains("warp=3"), "{s}");
        assert!(s.contains("lane=7"), "{s}");
        assert!(s.contains("0x1200"), "{s}");
        assert!(s.contains("step=42"), "{s}");
    }

    #[test]
    fn disabled_config_is_default() {
        assert_eq!(SanConfig::default(), SanConfig::disabled());
        assert!(!SanConfig::default().enabled);
        assert!(SanConfig::on().enabled);
    }
}
