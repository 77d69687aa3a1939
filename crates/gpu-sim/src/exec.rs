//! Kernel execution: warp-lockstep functional simulation with full traffic
//! accounting.
//!
//! Kernels are closures invoked once per warp with a [`WarpCtx`], which
//! provides warp-wide memory operations (gather/scatter/atomics, each
//! passing through the coalescer and L2 model), tensor-core MMA issue, and
//! instruction counting. Warps run across a fixed number of L2 *shards*:
//! contiguous warp ranges sharing one slice of the L2 model. A launch of
//! at least [`POOLED_MIN_WARPS`] warps runs its shards on the
//! [`spaden_sparse::par`] pool, a smaller one runs them inline on the
//! calling thread, and results and counters are the same either way.
//!
//! Float atomics do not commute bit for bit, so [`WarpCtx::atomic_add`]
//! does not touch the output during the launch. It draws its faults,
//! then records each lane's effect (an add, or a plain store when a fault
//! demotes it) in its shard's log. The launch replays the logs in shard
//! order once every shard has finished, which is the serial warp order.
//! [`WarpCtx::scatter`] stores directly. The contract that makes the two
//! compose: within one launch, no output element receives both plain
//! stores and atomics (SimSan reports such a mix as an atomic conflict),
//! and a kernel does not read the outputs it writes, so atomic effects
//! become visible when the launch returns.

use crate::config::GpuConfig;
use crate::counters::KernelCounters;
use crate::fault::FaultInjector;
use crate::fragment::{FragKind, Fragment};
use crate::half::F16;
use crate::memory::{
    coalesce_into, DeviceBuffer, DeviceOutput, DeviceScalar, L2Cache, SECTOR_BYTES,
};
use crate::san::{self, SanCtx, SanReport, ShadowState};
use spaden_sparse::par;
use std::sync::Mutex;

/// Threads per warp.
pub const WARP_SIZE: usize = 32;

/// Number of L2 shards / parallel execution lanes. Fixed (not tied to host
/// threads) so counter results are reproducible.
const SHARDS: usize = 16;

/// Launches with fewer warps than this, which leave some shards empty,
/// run their shards inline. At or above it the pool pays: on a 2-vCPU
/// host an empty pooled launch costs about 2-5 us against 1.3-1.6 us
/// inline, while a launch of 16 working warps costs tens of microseconds.
pub const POOLED_MIN_WARPS: usize = SHARDS;

/// One shard's slice of the L2 capacity.
fn shard_l2_bytes(config: &GpuConfig) -> usize {
    (config.l2_bytes / SHARDS).max(4096)
}

/// A simulated GPU: configuration plus a bump allocator handing out
/// non-overlapping virtual addresses for device buffers.
#[derive(Debug)]
pub struct Gpu {
    /// Architectural parameters (timing model inputs).
    pub config: GpuConfig,
    next_addr: std::sync::atomic::AtomicU64,
    // Monotonic launch counter, used to salt the per-warp fault RNG so
    // repeated launches (e.g. ABFT recovery retries) draw independent
    // fault sites. Only advanced when fault injection is enabled.
    launch_salt: std::sync::atomic::AtomicU64,
    // SimSan shadow state: allocation table, report sink and numeric
    // tallies. `Some` exactly when `config.san.enabled`.
    shadow: Option<ShadowState>,
    // One L2 shard cache per slot, kept between launches so a launch
    // resets them instead of allocating. Host-side reuse only: every
    // launch still starts with a cold L2. A launch that finds a slot empty
    // (another launch on this `Gpu` holds it) builds a fresh cache.
    l2_pool: [Mutex<Option<L2Cache>>; SHARDS],
}

impl Gpu {
    /// Creates a GPU with the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        let shadow = config.san.enabled.then(ShadowState::default);
        Gpu {
            config,
            next_addr: std::sync::atomic::AtomicU64::new(0x1000_0000),
            launch_salt: std::sync::atomic::AtomicU64::new(0),
            shadow,
            l2_pool: std::array::from_fn(|_| Mutex::new(None)),
        }
    }

    // Shard `s`'s cache for one launch: the pooled one, emptied, when it
    // was built for `capacity`, otherwise a fresh one.
    fn take_l2(&self, s: usize, capacity: usize) -> L2Cache {
        let pooled = self.l2_pool[s].lock().ok().and_then(|mut slot| slot.take());
        match pooled {
            Some(mut l2) if l2.capacity_bytes() == capacity => {
                l2.reset();
                l2
            }
            _ => L2Cache::new(capacity),
        }
    }

    fn return_l2(&self, s: usize, l2: L2Cache) {
        if let Ok(mut slot) = self.l2_pool[s].lock() {
            *slot = Some(l2);
        }
    }

    fn bump(&self, bytes: u64) -> u64 {
        // 256-byte allocation alignment, like cudaMalloc.
        self.next_addr.fetch_add(san::aligned256(bytes), std::sync::atomic::Ordering::Relaxed)
    }

    /// Copies host data into a fresh device buffer.
    pub fn alloc<T: DeviceScalar>(&self, data: Vec<T>) -> DeviceBuffer<T> {
        let bytes = data.len() as u64 * T::BYTES;
        let base = self.bump(bytes);
        if let Some(sh) = &self.shadow {
            sh.register(base, bytes, san::aligned256(bytes));
        }
        DeviceBuffer::with_base(base, data)
    }

    /// Allocates a zeroed output vector.
    pub fn alloc_output(&self, len: usize) -> DeviceOutput {
        let bytes = len as u64 * 4;
        let base = self.bump(bytes);
        if let Some(sh) = &self.shadow {
            sh.register(base, bytes, san::aligned256(bytes));
        }
        DeviceOutput::with_base(base, len)
    }

    /// Releases a device buffer in the SimSan shadow table (a no-op with
    /// the sanitizer off — the simulator itself never reuses addresses).
    /// Subsequent kernel accesses are use-after-free; a second `free` of
    /// the same buffer is allocator misuse.
    pub fn free<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>) {
        if let Some(sh) = &self.shadow {
            sh.free(buf.base());
        }
    }

    /// True when SimSan is on for this GPU.
    pub fn san_enabled(&self) -> bool {
        self.shadow.is_some()
    }

    /// Drains every sanitizer report accumulated so far (empty when
    /// SimSan is off).
    pub fn take_san_reports(&self) -> Vec<SanReport> {
        self.shadow.as_ref().map(|sh| sh.take_reports()).unwrap_or_default()
    }

    /// Cumulative `(f16 overflow, f16 underflow, NaN)` hazard counts.
    /// Monotonic — engines snapshot around a run to attribute hazards to
    /// it without consuming the report sink.
    pub fn san_numeric_counts(&self) -> (u64, u64, u64) {
        self.shadow.as_ref().map(|sh| sh.numeric_counts()).unwrap_or_default()
    }

    /// True when a launch that reads only buffers of the given byte sizes
    /// counts the same L2 hits wherever the bump allocator placed them.
    ///
    /// Every shard's cache has the same capacity, so one bound covers
    /// them all: each buffer of `n` lines fills at most `ceil(n / sets)`
    /// ways of any set, and when these sum to at most the ways no set
    /// ever evicts (see [`L2Cache::placement_free`]). Allocations are
    /// 256-byte aligned and disjoint, so moving one keeps its sectors
    /// distinct from every other buffer's.
    pub fn l2_placement_free(&self, buffer_bytes: &[u64]) -> bool {
        L2Cache::placement_free(shard_l2_bytes(&self.config), buffer_bytes)
    }

    /// Launches `nwarps` instances of `kernel` and returns merged counters.
    ///
    /// Outputs that the kernel updates with [`WarpCtx::atomic_add`] are
    /// borrowed for the launch (`'o`), because their effects are applied
    /// when it ends.
    pub fn launch<'o, F>(&self, nwarps: usize, kernel: F) -> KernelCounters
    where
        F: Fn(&mut WarpCtx<'o>) + Sync,
    {
        let shard_l2 = shard_l2_bytes(&self.config);
        let faults = self.config.faults;
        let salt = if faults.enabled() {
            self.launch_salt.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        } else {
            0
        };
        // With SimSan on, snapshot the allocation table once per launch
        // (kernels cannot allocate mid-launch), so per-warp checks are
        // lock-free and the hot path stays untouched when it is off.
        let san_cfg = self.config.san;
        let san_allocs = self.shadow.as_ref().map(|sh| sh.snapshot());
        let run_shard = |s: usize| {
            let lo = nwarps * s / SHARDS;
            let hi = nwarps * (s + 1) / SHARDS;
            let mut ctx = WarpCtx {
                warp_id: 0,
                nwarps,
                counters: KernelCounters::default(),
                l2: self.take_l2(s, shard_l2),
                scratch: Vec::new(),
                injector: None,
                san: san_allocs.as_ref().map(|a| SanCtx::new(san_cfg, a.clone())),
                atomics: Vec::new(),
            };
            for w in lo..hi {
                ctx.warp_id = w;
                // Seeded per (config seed, launch, warp): independent of
                // host threading and of the shard partition.
                ctx.injector = if faults.enabled() {
                    Some(FaultInjector::for_warp(faults, salt, w as u64))
                } else {
                    None
                };
                if let Some(san) = &mut ctx.san {
                    san.begin_warp(w);
                }
                kernel(&mut ctx);
            }
            self.return_l2(s, ctx.l2);
            (ctx.counters, ctx.san, ctx.atomics)
        };
        let results: Vec<_> = if nwarps < POOLED_MIN_WARPS {
            (0..SHARDS).map(run_shard).collect()
        } else {
            par::map_tasks(SHARDS, run_shard)
        };
        let mut merged = KernelCounters::default();
        let mut reports = Vec::new();
        let mut writes = Vec::new();
        // Shards are merged in fixed order, so report order and the order
        // atomics land in are the global warp order.
        for (c, s, atomics) in results {
            merged.merge(&c);
            for a in atomics {
                if a.demoted {
                    a.out.store(a.index as usize, a.value);
                } else {
                    a.out.fetch_add(a.index as usize, a.value);
                }
            }
            if let Some(s) = s {
                reports.extend(s.reports);
                writes.extend(s.writes);
            }
        }
        merged.warps = nwarps as u64;
        if let Some(sh) = &self.shadow {
            reports.extend(san::cross_warp_conflicts(&mut writes));
            merged.san_reports = reports.len() as u64;
            sh.absorb(reports);
        }
        merged
    }
}

/// One lane's `atomic_add` effect, applied when the launch ends.
struct AtomicEffect<'o> {
    out: &'o DeviceOutput,
    index: u32,
    value: f32,
    /// An invalid-atomic fault demoted the add to a plain store.
    demoted: bool,
}

/// Per-warp execution context: the only way kernels touch device memory,
/// so every access is coalesced, cached and counted. `'o` is the launch's
/// borrow of the outputs its atomics update.
pub struct WarpCtx<'o> {
    /// This warp's global index.
    pub warp_id: usize,
    /// Total warps in the launch.
    pub nwarps: usize,
    /// Event counters for this shard.
    pub counters: KernelCounters,
    l2: L2Cache,
    scratch: Vec<u64>,
    injector: Option<FaultInjector>,
    san: Option<SanCtx>,
    // This shard's atomic effects in warp order, replayed at merge.
    atomics: Vec<AtomicEffect<'o>>,
}

impl<'o> WarpCtx<'o> {
    /// Registers `n` warp-wide arithmetic/logic instructions.
    #[inline]
    pub fn ops(&mut self, n: u64) {
        self.counters.cuda_ops += n;
    }

    // Hazard injection for one value-type read instruction: perturbs one
    // lane's index past the allocation (OOB) or into the alignment tail
    // (uninit read). The perturbed access is coalesced (real traffic) but
    // suppressed functionally — silent garbage, exactly what SimSan exists
    // to make loud.
    fn inject_read_hazards<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &mut [Option<u32>; WARP_SIZE],
    ) {
        let (active, n) = active_lanes(idx);
        let Some(inj) = self.injector.as_mut() else { return };
        if n == 0 {
            return;
        }
        let oob_rate = inj.config().oob_read_rate;
        let uninit_rate = inj.config().uninit_read_rate;
        let len = buf.len() as u64;
        let alloc_elems = san::aligned256(len * T::BYTES) / T::BYTES;
        if inj.chance(oob_rate) {
            idx[active[inj.below(n)]] = Some(alloc_elems as u32);
            self.counters.faults_injected += 1;
        }
        if inj.chance(uninit_rate) {
            let pad = (alloc_elems - len) as usize;
            if pad > 0 {
                idx[active[inj.below(n)]] = Some((len as usize + inj.below(pad)) as u32);
                self.counters.faults_injected += 1;
            }
        }
    }

    // SimSan check of one warp-wide read instruction (no-op when off).
    fn san_check_read<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[Option<u32>; WARP_SIZE],
        op: &'static str,
    ) {
        if let Some(s) = &mut self.san {
            s.check_read(
                buf.base(),
                buf.len(),
                T::BYTES,
                idx.iter().enumerate().filter_map(|(l, i)| i.map(|i| (l, i as u64))),
                op,
            );
        }
    }

    // Draws load faults for one value-type gather whose coalesced sectors
    // are currently in `scratch`: one bit-flip trial per sector plus one
    // stuck-lane trial per instruction. Returns choices as indices into
    // the *active* lane set (the caller maps them to physical lanes).
    fn draw_load_faults(&mut self, nactive: usize) -> Option<LoadFaults> {
        let nsectors = self.scratch.len();
        let inj = self.injector.as_mut()?;
        if nactive == 0 {
            return None;
        }
        let flip_rate = inj.config().mem_bit_flip_rate;
        let stuck_rate = inj.config().stuck_lane_rate;
        let mut flips = Vec::new();
        for _ in 0..nsectors {
            if inj.chance(flip_rate) {
                flips.push((inj.below(nactive), inj.next_u64()));
            }
        }
        let stuck = if inj.chance(stuck_rate) { Some(inj.below(nactive)) } else { None };
        if flips.is_empty() && stuck.is_none() {
            return None;
        }
        self.counters.faults_injected += flips.len() as u64 + stuck.is_some() as u64;
        Some(LoadFaults { flips, stuck })
    }

    // Applies drawn load faults to a plain gather result.
    fn corrupt_gather<T: DeviceScalar>(
        &mut self,
        out: &mut [T; WARP_SIZE],
        idx: &[Option<u32>; WARP_SIZE],
    ) {
        let (active, n) = active_lanes(idx);
        if let Some(f) = self.draw_load_faults(n) {
            for (c, r) in f.flips {
                let lane = active[c];
                out[lane] = out[lane].flip_high_bit(r);
            }
            if let Some(c) = f.stuck {
                out[active[c]] = T::default();
            }
        }
    }

    fn account_read_sectors(&mut self) {
        for i in 0..self.scratch.len() {
            self.account_read_sector(self.scratch[i]);
        }
    }

    #[inline]
    fn account_read_sector(&mut self, sector: u64) {
        self.counters.sectors_read += 1;
        if self.l2.access_sector(sector) {
            self.counters.l2_hits += 1;
        } else {
            self.counters.dram_read_bytes += SECTOR_BYTES;
        }
    }

    // True when fault injection or SimSan is on: both perturb or inspect
    // individual lanes, so the fused fast paths defer to the per-lane
    // primitives they are defined by.
    fn instrumented(&self) -> bool {
        self.injector.is_some() || self.san.is_some()
    }

    /// Warp-wide gather: active lane `l` reads `buf[idx[l]]`. One load
    /// instruction; transactions are the coalesced unique sectors.
    pub fn gather<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[Option<u32>; WARP_SIZE],
    ) -> [T; WARP_SIZE] {
        let mut local;
        let idx = if T::FLIPPABLE && self.injector.is_some() {
            local = *idx;
            self.inject_read_hazards(buf, &mut local);
            &local
        } else {
            idx
        };
        self.counters.load_insts += 1;
        coalesce_into(
            idx.iter().flatten().map(|&i| buf.addr_raw(i as usize)),
            &mut self.scratch,
        );
        self.account_read_sectors();
        self.san_check_read(buf, idx, "gather");
        let mut out = [T::default(); WARP_SIZE];
        for (lane, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                if (*i as usize) < buf.len() {
                    out[lane] = buf.get(*i as usize);
                }
            }
        }
        if T::FLIPPABLE && self.injector.is_some() {
            self.corrupt_gather(&mut out, idx);
        }
        out
    }

    /// Warp-wide gather that bypasses the L2 model: every coalesced sector
    /// goes to DRAM. Models pre-`__ldg`/texture-path kernels (2015-era
    /// LightSpMV) whose irregular reads get no cache reuse.
    pub fn gather_nocache<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[Option<u32>; WARP_SIZE],
    ) -> [T; WARP_SIZE] {
        let mut local;
        let idx = if T::FLIPPABLE && self.injector.is_some() {
            local = *idx;
            self.inject_read_hazards(buf, &mut local);
            &local
        } else {
            idx
        };
        self.counters.load_insts += 1;
        coalesce_into(
            idx.iter().flatten().map(|&i| buf.addr_raw(i as usize)),
            &mut self.scratch,
        );
        let n = self.scratch.len() as u64;
        self.counters.sectors_read += n;
        self.counters.dram_read_bytes += n * SECTOR_BYTES;
        self.san_check_read(buf, idx, "gather_nocache");
        let mut out = [T::default(); WARP_SIZE];
        for (lane, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                if (*i as usize) < buf.len() {
                    out[lane] = buf.get(*i as usize);
                }
            }
        }
        if T::FLIPPABLE && self.injector.is_some() {
            self.corrupt_gather(&mut out, idx);
        }
        out
    }

    /// Uniform (broadcast) read: all lanes read the same element. One load
    /// instruction, one sector.
    pub fn read<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.counters.load_insts += 1;
        self.scratch.clear();
        self.scratch.push(buf.addr_raw(i) / SECTOR_BYTES);
        self.account_read_sectors();
        if let Some(s) = &mut self.san {
            s.check_read(buf.base(), buf.len(), T::BYTES, std::iter::once((0, i as u64)), "read");
        }
        if i < buf.len() {
            buf.get(i)
        } else {
            T::default()
        }
    }

    /// Warp-wide gather of one ascending run: the values of a bitmap-coded
    /// block, packed in bit order from `buf[base]`. Set bit `p` of
    /// `bitmap` reads `buf[base + (set bits below p)]`, and lane `l` owns
    /// bits `2l` and `2l + 1`. Element `p` of the result is bit `p`'s
    /// value, `T::default()` where the bit is clear.
    ///
    /// Two load instructions, exactly the two [`WarpCtx::gather`]s over
    /// [`run_indices`] (every lane's even bit, then its odd bit): the same
    /// values, counters, L2 access order, fault draws and SimSan reports.
    /// The indices ascend with the bits, so each load's sectors come in
    /// ascending order from walking its set bits, with no index arrays and
    /// no sort. The two gathers themselves run instead when faults or
    /// SimSan are armed, or when the run leaves the buffer or saturates
    /// `u32` addressing.
    pub fn gather_run<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        bitmap: u64,
        base: u32,
    ) -> [T; 2 * WARP_SIZE] {
        let (start, len) = (base as usize, bitmap.count_ones() as usize);
        let end = base as u64 + len as u64;
        let mut out = [T::default(); 2 * WARP_SIZE];
        if self.instrumented() || end > (buf.len() as u64).min(1 << 32) {
            let (idx1, idx2) = run_indices(bitmap, base);
            let (v1, v2) = (self.gather(buf, &idx1), self.gather(buf, &idx2));
            for (pair, (a, b)) in out.chunks_exact_mut(2).zip(v1.into_iter().zip(v2)) {
                pair.copy_from_slice(&[a, b]);
            }
            return out;
        }
        let run = &buf.as_slice()[start..start + len];
        let mut bits = bitmap;
        for &v in run {
            out[bits.trailing_zeros() as usize] = v;
            bits &= bits - 1;
        }
        for lane_bits in [EVEN_BITS, !EVEN_BITS] {
            self.counters.load_insts += 1;
            let mut last = None;
            let mut bits = bitmap & lane_bits;
            while bits != 0 {
                let below = bitmap & ((1u64 << bits.trailing_zeros()) - 1);
                let sector = buf.addr_raw(start + below.count_ones() as usize) / SECTOR_BYTES;
                if last != Some(sector) {
                    self.account_read_sector(sector);
                    last = Some(sector);
                }
                bits &= bits - 1;
            }
        }
        out
    }

    /// Consecutive-pair read covering two elements per active lane
    /// (`buf[i]`, `buf[i+1]`) — the access shape of Algorithm 2's
    /// vector-segment loads (lines 9–10) and of cuSPARSE BSR's value and
    /// vector loads. One load instruction (128-bit-style vectorised
    /// access).
    pub fn gather_pair<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[Option<u32>; WARP_SIZE],
    ) -> [(T, T); WARP_SIZE] {
        let mut local;
        let idx = if T::FLIPPABLE && self.injector.is_some() {
            local = *idx;
            self.inject_read_hazards(buf, &mut local);
            &local
        } else {
            idx
        };
        self.counters.load_insts += 1;
        coalesce_into(
            idx.iter().flatten().flat_map(|&i| [i as usize, i as usize + 1].map(|i| buf.addr_raw(i))),
            &mut self.scratch,
        );
        self.account_read_sectors();
        if let Some(s) = &mut self.san {
            s.check_read(
                buf.base(),
                buf.len(),
                T::BYTES,
                idx.iter()
                    .enumerate()
                    .filter_map(|(l, i)| i.map(|i| (l, i as u64)))
                    .flat_map(|(l, i)| [(l, i), (l, i + 1)]),
                "gather_pair",
            );
        }
        let mut out = [(T::default(), T::default()); WARP_SIZE];
        for (lane, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                let i = *i as usize;
                if i + 1 < buf.len() {
                    out[lane] = (buf.get(i), buf.get(i + 1));
                } else if i < buf.len() {
                    out[lane] = (buf.get(i), T::default());
                }
            }
        }
        if T::FLIPPABLE && self.injector.is_some() {
            let (active, n) = active_lanes(idx);
            if let Some(f) = self.draw_load_faults(n) {
                for (c, r) in f.flips {
                    // The high bit of `r` picks which half of the pair.
                    let lane = active[c];
                    if r >> 63 == 0 {
                        out[lane].0 = out[lane].0.flip_high_bit(r);
                    } else {
                        out[lane].1 = out[lane].1.flip_high_bit(r);
                    }
                }
                if let Some(c) = f.stuck {
                    out[active[c]] = (T::default(), T::default());
                }
            }
        }
        out
    }

    /// Warp-wide scatter store: active lane `l` writes `val` to
    /// `out[idx]`. Writes stream through L2 to DRAM (no read allocation).
    pub fn scatter(&mut self, out: &DeviceOutput, writes: &[Option<(u32, f32)>; WARP_SIZE]) {
        self.counters.store_insts += 1;
        let mut local;
        let writes = match self.injector.as_mut() {
            Some(inj) if inj.config().lane_race_rate > 0.0 => {
                local = *writes;
                // Duplicate one active lane's target onto another's: two
                // lanes now store to one element (last writer wins), and
                // the victim's own element silently stays unwritten.
                let rate = inj.config().lane_race_rate;
                let (active, n) = active_lanes_w(&local);
                if n >= 2 && inj.chance(rate) {
                    let ai = inj.below(n);
                    let bi = (ai + 1 + inj.below(n - 1)) % n;
                    let (a, b) = (active[ai], active[bi]);
                    local[b] = Some((local[a].unwrap().0, local[b].unwrap().1));
                    self.counters.faults_injected += 1;
                }
                &local
            }
            _ => writes,
        };
        coalesce_into(
            writes.iter().flatten().map(|&(i, _)| out.addr(i as usize)),
            &mut self.scratch,
        );
        let n = self.scratch.len() as u64;
        self.counters.sectors_written += n;
        self.counters.dram_write_bytes += n * SECTOR_BYTES;
        if let Some(s) = &mut self.san {
            s.check_writes(
                out.base(),
                out.len(),
                writes.iter().enumerate().filter_map(|(l, w)| w.map(|(i, _)| (l, i as u64))),
                false,
                "scatter",
            );
        }
        for w in writes.iter().flatten() {
            if (w.0 as usize) < out.len() {
                out.store(w.0 as usize, w.1);
            }
        }
    }

    /// Warp-wide atomic float add (CUDA `atomicAdd`): one atomic operation
    /// per active lane, write traffic for the unique sectors. The adds land
    /// in `out` when the launch ends, in warp order.
    pub fn atomic_add(&mut self, out: &'o DeviceOutput, writes: &[Option<(u32, f32)>; WARP_SIZE]) {
        let nactive = writes.iter().flatten().count() as u64;
        self.counters.atomic_ops += nactive;
        coalesce_into(
            writes.iter().flatten().map(|&(i, _)| out.addr(i as usize)),
            &mut self.scratch,
        );
        let n = self.scratch.len() as u64;
        self.counters.sectors_written += n;
        self.counters.dram_write_bytes += n * SECTOR_BYTES;
        // Invalid-atomic injection: one lane's add is demoted to a plain
        // store (a non-read-modify-write update — lost-update corruption).
        let demoted = match self.injector.as_mut() {
            Some(inj) if inj.config().invalid_atomic_rate > 0.0 => {
                let rate = inj.config().invalid_atomic_rate;
                let (active, na) = active_lanes_w(writes);
                if na > 0 && inj.chance(rate) {
                    self.counters.faults_injected += 1;
                    Some(active[inj.below(na)])
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(s) = &mut self.san {
            s.check_writes(
                out.base(),
                out.len(),
                writes
                    .iter()
                    .enumerate()
                    .filter_map(|(l, w)| w.map(|(i, _)| (l, i as u64)))
                    .filter(|&(l, _)| Some(l) != demoted),
                true,
                "atomic_add",
            );
            if let Some(lane) = demoted {
                if let Some((i, _)) = writes[lane] {
                    // Log both the atomic intent and the plain act, so the
                    // post-pass reports a deterministic atomic-conflict.
                    s.log_demoted_atomic(out.base(), i as u64, lane);
                }
            }
        }
        for (lane, w) in writes.iter().enumerate() {
            let Some(w) = w else { continue };
            if (w.0 as usize) >= out.len() {
                continue;
            }
            let dropped = match self.injector.as_mut() {
                Some(inj) => {
                    let rate = inj.config().dropped_atomic_rate;
                    inj.chance(rate)
                }
                None => false,
            };
            if dropped {
                // The op was issued and counted; its effect is lost.
                self.counters.faults_injected += 1;
            } else {
                self.atomics.push(AtomicEffect {
                    out,
                    index: w.0,
                    value: w.1,
                    demoted: Some(lane) == demoted,
                });
            }
        }
    }

    /// Issues one `m16n16k16` MMA that accumulates in place: `d = a×b + d`.
    pub fn mma_16x16x16(&mut self, d: &mut Fragment, a: &Fragment, b: &Fragment) {
        self.counters.mma_m16n16k16 += 1;
        crate::mma::mma_accumulate(d, a, b);
        if let Some(s) = &mut self.san {
            // Per-block numeric guard rail: non-finite accumulators.
            s.check_mma_result(&d.regs);
        }
        if let Some(inj) = self.injector.as_mut() {
            let rate = inj.config().fragment_corrupt_rate;
            if inj.chance(rate) {
                let lane = inj.below(WARP_SIZE);
                let reg = inj.below(crate::fragment::REGS_PER_LANE);
                let r = inj.next_u64();
                d.regs[lane][reg] = d.regs[lane][reg].flip_high_bit(r);
                self.counters.faults_injected += 1;
            }
        }
    }

    /// Warp-wide fragment pair-write: lane `l` stores `vals[l]` into its
    /// registers `[reg_base]`, `[reg_base + 1]` — the direct register
    /// access of Algorithm 3 lines 6-7. Adds no counters (the kernels bill
    /// register moves through [`WarpCtx::ops`], exactly as before), but
    /// with SimSan on the register base is checked against the
    /// reverse-engineered m16n16k16 mapping and every value is classified
    /// for f16 conversion hazards.
    pub fn frag_write_pairs(
        &mut self,
        frag: &mut Fragment,
        reg_base: usize,
        vals: &[(f32, f32); WARP_SIZE],
    ) {
        // Fragment-misuse injection: one lane's pair lands on a register
        // base off the diagonal mapping — the operand tile is silently
        // wrong, which only the sanitizer's mapping checker makes loud.
        let mut bases = [reg_base; WARP_SIZE];
        if let Some(inj) = self.injector.as_mut() {
            let rate = inj.config().frag_misuse_rate;
            if rate > 0.0 && inj.chance(rate) {
                // `^ 2` maps both valid bases {0, 6} to invalid ones {2, 4}.
                bases[inj.below(WARP_SIZE)] = reg_base ^ 2;
                self.counters.faults_injected += 1;
            }
        }
        if let Some(s) = &mut self.san {
            let opt: [Option<(f32, f32)>; WARP_SIZE] = vals.map(Some);
            s.check_frag_pairs(bases.iter().copied().enumerate(), &opt, "frag_write");
        }
        // A/B operands hold f16 values; the accumulator is full f32.
        let mut flat: [f32; 2 * WARP_SIZE] = std::array::from_fn(|i| {
            let (v0, v1) = vals[i / 2];
            if i % 2 == 0 {
                v0
            } else {
                v1
            }
        });
        if frag.kind != FragKind::Accumulator {
            flat = F16::round_f32_all(flat);
        }
        for ((regs, pair), &b) in frag.regs.iter_mut().zip(flat.chunks_exact(2)).zip(&bases) {
            regs[b..b + 2].copy_from_slice(pair);
        }
    }

    /// Algorithm 3 lines 4–7 for one diagonal portion, once the block's
    /// values `a` are loaded (lane `l` holds `a[2l]`, `a[2l + 1]`): loads
    /// the 8-element vector run `x[start..start + 8]`, lane `l` reading the
    /// pair at `start + 2 * (l % 4)` (Algorithm 2 lines 7–10), then writes
    /// every lane's matrix pair into `a_frag` and its vector pair into
    /// `b_frag`, registers `[reg_base]`, `[reg_base + 1]`.
    ///
    /// Exactly [`WarpCtx::gather_pair`] over those lanes followed by two
    /// [`WarpCtx::frag_write_pairs`], which it runs when faults or SimSan
    /// are armed or the run leaves `x`. Otherwise the one load touches the
    /// sectors the run spans, the run is rounded to f16 once instead of
    /// once per lane, and `a`, already f16, is widened without rounding.
    pub fn fill_portion(
        &mut self,
        a_frag: &mut Fragment,
        b_frag: &mut Fragment,
        reg_base: usize,
        a: &[F16; 2 * WARP_SIZE],
        x: &DeviceBuffer<f32>,
        start: u32,
    ) {
        let start = start as usize;
        if self.instrumented() || start + SEGMENT > x.len() {
            let idx = std::array::from_fn(|l| Some((start + 2 * (l % 4)) as u32));
            let b = self.gather_pair(x, &idx);
            let a: [(f32, f32); WARP_SIZE] =
                std::array::from_fn(|l| (a[2 * l].to_f32(), a[2 * l + 1].to_f32()));
            self.frag_write_pairs(a_frag, reg_base, &a);
            self.frag_write_pairs(b_frag, reg_base, &b);
            return;
        }
        self.counters.load_insts += 1;
        let first = x.addr_raw(start) / SECTOR_BYTES;
        for sector in first..=x.addr_raw(start + SEGMENT - 1) / SECTOR_BYTES {
            self.account_read_sector(sector);
        }
        let mut run = [0.0f32; SEGMENT];
        run.copy_from_slice(&x.as_slice()[start..start + SEGMENT]);
        let run = F16::round_f32_all(run);
        a_frag.write_f16_pairs(reg_base, a);
        for (lane, regs) in b_frag.regs.iter_mut().enumerate() {
            let p = 2 * (lane % 4);
            regs[reg_base..reg_base + 2].copy_from_slice(&run[p..p + 2]);
        }
    }

    /// Registers `n` issued `m8n8k4` MMAs (DASP's primitive; its kernels
    /// compute with [`crate::mma::mma_m8n8k4`] directly).
    pub fn mma_m8n8k4_issue(&mut self, n: u64) {
        self.counters.mma_m8n8k4 += n;
    }

    /// Registers `bytes` staged through shared memory (the conventional
    /// WMMA load path that the paper's direct register access eliminates).
    /// Counts the store-to-smem and load-from-smem instruction pair.
    pub fn smem_stage(&mut self, bytes: u64) {
        self.counters.smem_bytes += bytes;
        // One 32-lane store + one load instruction per 128 staged bytes.
        self.counters.cuda_ops += 2 * bytes.div_ceil(128);
    }

    /// Warp tree-reduction (`__shfl_down_sync` ladder): returns the sum of
    /// all 32 lane values; 5 shuffle+add steps.
    pub fn reduce_sum(&mut self, vals: &[f32; WARP_SIZE]) -> f32 {
        self.counters.cuda_ops += 5;
        let mut v = *vals;
        let mut width = WARP_SIZE / 2;
        while width > 0 {
            for i in 0..width {
                v[i] += v[i + width];
            }
            width /= 2;
        }
        v[0]
    }

    /// Segmented tree-reduction: sums each aligned group of `group` lanes
    /// (power of two); lane `l` receives the sum of its group.
    ///
    /// At each step lane `l` adds the lane `width` further on, wrapping
    /// within its group: the group's first lane `l & !(group - 1)` plus
    /// the offset `(l + width) & (group - 1)`.
    pub fn segmented_reduce_sum(
        &mut self,
        vals: &[f32; WARP_SIZE],
        group: usize,
    ) -> [f32; WARP_SIZE] {
        assert!(group.is_power_of_two() && group <= WARP_SIZE);
        self.counters.cuda_ops += group.trailing_zeros() as u64;
        let mask = group - 1;
        let mut v = *vals;
        let mut width = group / 2;
        while width > 0 {
            let mut next = v;
            for l in 0..WARP_SIZE {
                next[l] = v[l] + v[(l & !mask) | ((l + width) & mask)];
            }
            v = next;
            width /= 2;
        }
        v
    }
}

// Drawn fault sites for one load instruction: `(active-lane choice, random
// word)` per bit flip, plus an optional stuck active-lane choice.
struct LoadFaults {
    flips: Vec<(usize, u64)>,
    stuck: Option<usize>,
}

// Physical lane numbers of the active lanes, plus their count.
fn active_lanes(idx: &[Option<u32>; WARP_SIZE]) -> ([usize; WARP_SIZE], usize) {
    let mut active = [0usize; WARP_SIZE];
    let mut n = 0;
    for (lane, i) in idx.iter().enumerate() {
        if i.is_some() {
            active[n] = lane;
            n += 1;
        }
    }
    (active, n)
}

// `active_lanes` for a write set.
fn active_lanes_w(writes: &[Option<(u32, f32)>; WARP_SIZE]) -> ([usize; WARP_SIZE], usize) {
    let mut active = [0usize; WARP_SIZE];
    let mut n = 0;
    for (lane, w) in writes.iter().enumerate() {
        if w.is_some() {
            active[n] = lane;
            n += 1;
        }
    }
    (active, n)
}

/// Bit positions read by every lane's first load in
/// [`WarpCtx::gather_run`]: lane `l`'s even bit `2l`.
const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// Elements of the vector run [`WarpCtx::fill_portion`] loads.
const SEGMENT: usize = 8;

/// The lane indices of [`WarpCtx::gather_run`]'s two loads: lane `l` owns
/// bits `2l` and `2l + 1` of `bitmap`, and a set bit reads `base` plus
/// the number of set bits below it. Returns `(idx1, idx2)` per lane,
/// `None` where the bit is clear.
///
/// The additions saturate: a corrupt `base` near `u32::MAX` must become an
/// out-of-range index (a modelled OOB access SimSan reports), not wrap
/// around to a bogus in-bounds one.
#[inline]
pub fn run_indices(bitmap: u64, base: u32) -> ([Option<u32>; WARP_SIZE], [Option<u32>; WARP_SIZE]) {
    let mut idx1 = [None; WARP_SIZE];
    let mut idx2 = [None; WARP_SIZE];
    // The packed-value prefix: set bits in the lanes before this one.
    let mut below = 0u32;
    for lid in 0..WARP_SIZE {
        let pair = (bitmap >> (lid << 1)) as u32 & 3;
        let (set1, set2) = (pair & 1, pair >> 1);
        idx1[lid] = (set1 != 0).then(|| base.saturating_add(below));
        idx2[lid] = (set2 != 0).then(|| base.saturating_add(below + set1));
        below += set1 + set2;
    }
    (idx1, idx2)
}

/// Builds a lane-index array from an iterator of at most 32 indices
/// (remaining lanes inactive) — a small kernel-authoring convenience.
pub fn lanes_from(iter: impl IntoIterator<Item = u32>) -> [Option<u32>; WARP_SIZE] {
    let mut out = [None; WARP_SIZE];
    for (l, i) in iter.into_iter().take(WARP_SIZE).enumerate() {
        out[l] = Some(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::l40())
    }

    #[test]
    fn alloc_assigns_disjoint_addresses() {
        let g = gpu();
        let a = g.alloc(vec![0f32; 100]);
        let b = g.alloc(vec![0u64; 10]);
        // a spans 400 bytes from its base; b must start past it.
        assert!(b.addr(0) >= a.addr(99) + 4);
    }

    #[test]
    fn unit_stride_gather_counts_four_sectors() {
        let g = gpu();
        let buf = g.alloc((0..64u32).map(|i| i as f32).collect::<Vec<_>>());
        let c = g.launch(1, |ctx| {
            let idx = lanes_from(0..32u32);
            let vals = ctx.gather(&buf, &idx);
            assert_eq!(vals[5], 5.0);
        });
        assert_eq!(c.load_insts, 1);
        assert_eq!(c.sectors_read, 4); // 32 f32 = 128 B = 4 sectors
        assert_eq!(c.dram_read_bytes, 128);
        assert_eq!(c.warps, 1);
    }

    #[test]
    fn strided_gather_is_uncoalesced() {
        let g = gpu();
        let buf = g.alloc(vec![1.0f32; 32 * 32]);
        let c = g.launch(1, |ctx| {
            let idx = lanes_from((0..32u32).map(|i| i * 32)); // 128 B stride
            ctx.gather(&buf, &idx);
        });
        assert_eq!(c.sectors_read, 32);
    }

    #[test]
    fn l2_hit_on_repeat_access() {
        let g = gpu();
        let buf = g.alloc(vec![1.0f32; 32]);
        let c = g.launch(1, |ctx| {
            let idx = lanes_from(0..32u32);
            ctx.gather(&buf, &idx);
            ctx.gather(&buf, &idx);
        });
        assert_eq!(c.sectors_read, 8);
        assert_eq!(c.l2_hits, 4, "second gather fully hits");
        assert_eq!(c.dram_read_bytes, 128, "only first gather reaches DRAM");
    }

    #[test]
    fn inactive_lanes_skip_traffic() {
        let g = gpu();
        let buf = g.alloc(vec![2.0f32; 64]);
        let c = g.launch(1, |ctx| {
            let mut idx = [None; WARP_SIZE];
            idx[3] = Some(8u32);
            let vals = ctx.gather(&buf, &idx);
            assert_eq!(vals[3], 2.0);
            assert_eq!(vals[0], 0.0, "inactive lane default");
        });
        assert_eq!(c.sectors_read, 1);
    }

    #[test]
    fn gather_pair_reads_two_consecutive() {
        let g = gpu();
        let buf = g.alloc((0..64u32).map(|i| i as f32).collect::<Vec<_>>());
        g.launch(1, |ctx| {
            let idx = lanes_from((0..32u32).map(|i| i * 2));
            let pairs = ctx.gather_pair(&buf, &idx);
            assert_eq!(pairs[3], (6.0, 7.0));
        });
    }

    #[test]
    fn scatter_writes_and_counts() {
        let g = gpu();
        let out = g.alloc_output(64);
        let c = g.launch(1, |ctx| {
            let mut w = [None; WARP_SIZE];
            for l in 0..16 {
                w[l] = Some((l as u32, l as f32));
            }
            ctx.scatter(&out, &w);
        });
        assert_eq!(c.store_insts, 1);
        assert_eq!(c.sectors_written, 2); // 16 f32 = 64 B
        assert_eq!(c.dram_write_bytes, 64);
        assert_eq!(out.load(7), 7.0);
    }

    #[test]
    fn atomics_accumulate_across_warps() {
        let g = gpu();
        let out = g.alloc_output(4);
        let c = g.launch(64, |ctx| {
            let mut w = [None; WARP_SIZE];
            w[0] = Some((1u32, 1.0f32));
            ctx.atomic_add(&out, &w);
        });
        assert_eq!(c.atomic_ops, 64);
        assert_eq!(out.load(1), 64.0);
    }

    #[test]
    fn float_atomics_land_in_warp_order_under_any_threading() {
        // Magnitudes spanning 2^0..2^24 make the f32 sum depend on the
        // order of the adds; the result must equal the warp-order fold.
        let term = |w: usize| {
            let sign = if w.is_multiple_of(3) { -1.0 } else { 1.0 };
            sign * (1u32 << (w % 25)) as f32
        };
        for _ in 0..8 {
            let g = gpu();
            let out = g.alloc_output(1);
            g.launch(512, |ctx| {
                let mut w = [None; WARP_SIZE];
                w[0] = Some((0u32, term(ctx.warp_id)));
                ctx.atomic_add(&out, &w);
            });
            let serial = (0..512).fold(0.0f32, |acc, w| acc + term(w));
            assert_eq!(out.load(0).to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn counters_are_deterministic_across_launches() {
        let g = gpu();
        let buf = g.alloc(vec![1.0f32; 10_000]);
        let run = || {
            g.launch(200, |ctx| {
                let base = (ctx.warp_id * 37 % 9000) as u32;
                let idx = lanes_from(base..base + 32);
                ctx.gather(&buf, &idx);
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reduce_sum_is_exact_tree() {
        let g = gpu();
        g.launch(1, |ctx| {
            let mut v = [0.0f32; WARP_SIZE];
            for (i, x) in v.iter_mut().enumerate() {
                *x = (i + 1) as f32;
            }
            assert_eq!(ctx.reduce_sum(&v), (32 * 33 / 2) as f32);
        });
    }

    #[test]
    fn segmented_reduce_groups_of_four() {
        let g = gpu();
        g.launch(1, |ctx| {
            let mut v = [0.0f32; WARP_SIZE];
            for (i, x) in v.iter_mut().enumerate() {
                *x = i as f32;
            }
            let r = ctx.segmented_reduce_sum(&v, 4);
            // Group 0 = 0+1+2+3 = 6, each lane of the group sees the sum.
            assert_eq!(&r[0..4], &[6.0; 4]);
            assert_eq!(&r[4..8], &[22.0; 4]);
            assert_eq!(r[31], (28 + 29 + 30 + 31) as f32);
        });
    }

    #[test]
    fn mma_issue_is_counted_and_computed() {
        use crate::fragment::{FragKind, Fragment};
        let g = gpu();
        let c = g.launch(1, |ctx| {
            let mut a = Fragment::new(FragKind::MatrixA);
            a.set(0, 0, 2.0);
            let mut b = Fragment::new(FragKind::MatrixB);
            b.set(0, 0, 3.0);
            let mut d = Fragment::new(FragKind::Accumulator);
            ctx.mma_16x16x16(&mut d, &a, &b);
            assert_eq!(d.get(0, 0), 6.0);
        });
        assert_eq!(c.mma_m16n16k16, 1);
    }

    #[test]
    fn smem_staging_costs_instructions() {
        let g = gpu();
        let c = g.launch(1, |ctx| ctx.smem_stage(512));
        assert_eq!(c.smem_bytes, 512);
        assert_eq!(c.cuda_ops, 8);
    }

    #[test]
    fn fault_injection_corrupts_values_and_counts() {
        use crate::fault::FaultConfig;
        let mut cfg = GpuConfig::l40();
        cfg.faults = FaultConfig { seed: 7, mem_bit_flip_rate: 1.0, ..FaultConfig::disabled() };
        let g = Gpu::new(cfg);
        let buf = g.alloc(vec![1.0f32; 32]);
        let out = g.alloc_output(32);
        let c = g.launch(1, |ctx| {
            let idx = lanes_from(0..32u32);
            let vals = ctx.gather(&buf, &idx);
            let mut w = [None; WARP_SIZE];
            for (l, v) in vals.iter().enumerate() {
                w[l] = Some((l as u32, *v));
            }
            ctx.scatter(&out, &w);
        });
        // Rate 1.0 per sector, 4 sectors: exactly 4 flips drawn.
        assert_eq!(c.faults_injected, 4);
        assert!(out.to_vec().iter().any(|&v| v != 1.0), "at least one lane corrupted");
    }

    #[test]
    fn faults_never_touch_structural_loads() {
        use crate::fault::FaultConfig;
        let mut cfg = GpuConfig::l40();
        cfg.faults = FaultConfig::uniform(3, 1.0);
        let g = Gpu::new(cfg);
        let buf = g.alloc((0..32u32).collect::<Vec<_>>());
        g.launch(1, |ctx| {
            let idx = lanes_from(0..32u32);
            let vals = ctx.gather(&buf, &idx);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(*v as usize, i, "u32 loads must be exact");
            }
        });
    }

    #[test]
    fn dropped_atomics_lose_updates_but_count_ops() {
        use crate::fault::FaultConfig;
        let mut cfg = GpuConfig::l40();
        cfg.faults =
            FaultConfig { seed: 11, dropped_atomic_rate: 1.0, ..FaultConfig::disabled() };
        let g = Gpu::new(cfg);
        let out = g.alloc_output(4);
        let c = g.launch(8, |ctx| {
            let mut w = [None; WARP_SIZE];
            w[0] = Some((0u32, 1.0f32));
            ctx.atomic_add(&out, &w);
        });
        assert_eq!(c.atomic_ops, 8, "ops issue even when their effect is lost");
        assert_eq!(c.faults_injected, 8);
        assert_eq!(out.load(0), 0.0);
    }

    #[test]
    fn fault_sites_are_deterministic_per_launch_and_differ_across_launches() {
        use crate::fault::FaultConfig;
        let mut cfg = GpuConfig::l40();
        cfg.faults = FaultConfig::uniform(42, 0.05);
        // Per-warp gathered sums land in an output via scatter (scatter is
        // not a fault site), exposing exactly which lanes were corrupted.
        let sums = |g: &Gpu, buf: &DeviceBuffer<f32>| {
            let out = g.alloc_output(100);
            let c = g.launch(100, |ctx| {
                let base = (ctx.warp_id * 93 % 9000) as u32;
                let vals = ctx.gather(buf, &lanes_from(base..base + 32));
                let s = ctx.reduce_sum(&vals);
                let mut w = [None; WARP_SIZE];
                w[0] = Some((ctx.warp_id as u32, s));
                ctx.scatter(&out, &w);
            });
            let bits: Vec<u32> = out.to_vec().iter().map(|v| v.to_bits()).collect();
            (c, bits)
        };
        let run = || {
            let g = Gpu::new(cfg.clone());
            let buf = g.alloc(vec![1.0f32; 10_000]);
            sums(&g, &buf)
        };
        let (c1, s1) = run();
        let (c2, s2) = run();
        assert!(c1.faults_injected > 0);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);

        // Same Gpu, second launch: salt advances, fault draws differ.
        let g = Gpu::new(cfg.clone());
        let buf = g.alloc(vec![1.0f32; 10_000]);
        let (_, a) = sums(&g, &buf);
        let (_, b) = sums(&g, &buf);
        assert_ne!(a, b, "retries must see fresh fault sites");
    }

    #[test]
    fn disabled_faults_leave_everything_bit_identical() {
        let run = || {
            let g = gpu(); // stock preset: faults disabled
            let buf = g.alloc((0..4096u32).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
            let out = g.alloc_output(64);
            let c = g.launch(128, |ctx| {
                let base = (ctx.warp_id * 31 % 4000) as u32;
                let vals = ctx.gather(&buf, &lanes_from(base..base + 32));
                let s = ctx.reduce_sum(&vals);
                let mut w = [None; WARP_SIZE];
                w[0] = Some(((ctx.warp_id % 64) as u32, s));
                ctx.atomic_add(&out, &w);
            });
            assert_eq!(c.faults_injected, 0);
            assert_eq!(c.faults_observed, 0);
            (c, out.to_vec())
        };
        let (c1, y1) = run();
        let (c2, y2) = run();
        assert_eq!(c1, c2);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y1), bits(&y2));
    }

    fn san_gpu(faults: crate::fault::FaultConfig) -> Gpu {
        use crate::san::SanConfig;
        let mut cfg = GpuConfig::l40();
        cfg.faults = faults;
        cfg.san = SanConfig::on();
        Gpu::new(cfg)
    }

    #[test]
    fn san_clean_run_is_bit_identical_to_sanitizer_off() {
        use crate::fault::FaultConfig;
        let run = |san: bool| {
            let g = if san { san_gpu(FaultConfig::disabled()) } else { gpu() };
            let buf = g.alloc((0..4096u32).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
            let out = g.alloc_output(64);
            let mut c = g.launch(128, |ctx| {
                let base = (ctx.warp_id * 31 % 4000) as u32;
                let vals = ctx.gather(&buf, &lanes_from(base..base + 32));
                let s = ctx.reduce_sum(&vals);
                let mut w = [None; WARP_SIZE];
                w[0] = Some(((ctx.warp_id % 64) as u32, s));
                ctx.atomic_add(&out, &w);
            });
            assert!(g.take_san_reports().is_empty(), "clean kernel: no reports");
            // The only permitted counter difference is the report tally
            // itself, and on a clean kernel it is zero too.
            assert_eq!(c.san_reports, 0);
            c.san_reports = 0;
            (c, out.to_vec().iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn san_catches_injected_oob_and_uninit_reads() {
        use crate::fault::FaultConfig;
        use crate::san::HazardKind;
        // 100 f32 = 400 data bytes in a 512-byte allocation: both the
        // alignment tail and past-the-end targets exist.
        let g = san_gpu(FaultConfig {
            seed: 5,
            oob_read_rate: 1.0,
            uninit_read_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let buf = g.alloc(vec![1.0f32; 100]);
        let c = g.launch(4, |ctx| {
            ctx.gather(&buf, &lanes_from(0..32u32));
        });
        assert_eq!(c.faults_injected, 8, "both kinds fire on all 4 warps");
        let reports = g.take_san_reports();
        for kind in [HazardKind::OutOfBounds, HazardKind::UninitRead] {
            let r = reports
                .iter()
                .find(|r| r.kind == kind)
                .unwrap_or_else(|| panic!("{kind} not reported"));
            assert!(r.warp.is_some() && r.lane.is_some() && r.addr.is_some(), "{r}");
        }
        // Injection without the sanitizer: silent (no panic, no report).
        let mut cfg = GpuConfig::l40();
        cfg.faults = FaultConfig { seed: 5, oob_read_rate: 1.0, ..FaultConfig::disabled() };
        let g2 = Gpu::new(cfg);
        let buf2 = g2.alloc(vec![1.0f32; 100]);
        g2.launch(4, |ctx| {
            ctx.gather(&buf2, &lanes_from(0..32u32));
        });
        assert!(g2.take_san_reports().is_empty());
    }

    #[test]
    fn san_catches_injected_lane_race() {
        use crate::fault::FaultConfig;
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig {
            seed: 9,
            lane_race_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let out = g.alloc_output(64);
        let c = g.launch(1, |ctx| {
            let mut w = [None; WARP_SIZE];
            for l in 0..16 {
                w[l] = Some((l as u32, l as f32));
            }
            ctx.scatter(&out, &w);
        });
        assert_eq!(c.faults_injected, 1);
        let reports = g.take_san_reports();
        let r = reports.iter().find(|r| r.kind == HazardKind::LaneRace).expect("lane race");
        assert_eq!(r.op, "scatter");
        assert!(r.lane.is_some() && r.addr.is_some());
    }

    #[test]
    fn san_catches_injected_invalid_atomic() {
        use crate::fault::FaultConfig;
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig {
            seed: 3,
            invalid_atomic_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let out = g.alloc_output(8);
        // All warps hammer one element atomically; the demoted lane's
        // plain store must surface as an atomic conflict.
        let c = g.launch(4, |ctx| {
            let mut w = [None; WARP_SIZE];
            for l in 0..4 {
                w[l] = Some((0u32, 1.0f32));
            }
            ctx.atomic_add(&out, &w);
        });
        assert_eq!(c.faults_injected, 4, "one demotion per warp");
        let reports = g.take_san_reports();
        assert!(
            reports.iter().any(|r| r.kind == HazardKind::AtomicConflict),
            "demoted atomic must be reported: {reports:?}"
        );
    }

    #[test]
    fn san_catches_injected_fragment_misuse() {
        use crate::fault::FaultConfig;
        use crate::fragment::{FragKind, Fragment};
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig {
            seed: 21,
            frag_misuse_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let c = g.launch(1, |ctx| {
            let mut a = Fragment::new(FragKind::MatrixA);
            ctx.frag_write_pairs(&mut a, 0, &[(1.0, 2.0); WARP_SIZE]);
            ctx.frag_write_pairs(&mut a, 6, &[(3.0, 4.0); WARP_SIZE]);
        });
        assert_eq!(c.faults_injected, 2);
        let reports = g.take_san_reports();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.kind, HazardKind::FragmentMapping);
            assert_eq!(r.op, "frag_write");
            assert!(r.lane.is_some());
        }
    }

    #[test]
    fn san_reports_use_after_free_and_double_free() {
        use crate::fault::FaultConfig;
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig::disabled());
        let buf = g.alloc(vec![1.0f32; 32]);
        g.free(&buf);
        let c = g.launch(1, |ctx| {
            ctx.gather(&buf, &lanes_from(0..32u32));
        });
        assert_eq!(c.san_reports, 1);
        g.free(&buf); // allocator misuse, host-side
        let reports = g.take_san_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].kind, HazardKind::UseAfterFree);
        assert_eq!(reports[1].kind, HazardKind::AllocMisuse);
        assert!(reports[1].warp.is_none());
    }

    #[test]
    fn san_catches_cross_warp_write_race() {
        use crate::fault::FaultConfig;
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig::disabled());
        let out = g.alloc_output(4);
        // Every warp plain-stores to element 0: a cross-warp race the
        // post-pass must flag exactly once.
        let c = g.launch(8, |ctx| {
            let mut w = [None; WARP_SIZE];
            w[0] = Some((0u32, ctx.warp_id as f32));
            ctx.scatter(&out, &w);
        });
        assert_eq!(c.san_reports, 1);
        let reports = g.take_san_reports();
        assert_eq!(reports[0].kind, HazardKind::WriteRace);
        assert_eq!(reports[0].op, "store");
    }

    #[test]
    fn san_catches_write_then_read_race() {
        use crate::fault::FaultConfig;
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig::disabled());
        let out = g.alloc_output(32);
        // A read-side alias of the output at the same addresses.
        let alias = DeviceBuffer::with_base(out.base(), vec![0.0f32; 32]);
        g.launch(1, |ctx| {
            let mut w = [None; WARP_SIZE];
            w[0] = Some((5u32, 1.0f32));
            ctx.scatter(&out, &w);
            ctx.gather(&alias, &lanes_from(std::iter::once(5u32)));
        });
        let reports = g.take_san_reports();
        assert!(
            reports.iter().any(|r| r.kind == HazardKind::WriteReadRace),
            "store-then-gather of one address must be flagged: {reports:?}"
        );
    }

    #[test]
    fn san_mma_scan_flags_nonfinite_accumulators() {
        use crate::fault::FaultConfig;
        use crate::fragment::{FragKind, Fragment};
        use crate::san::HazardKind;
        let g = san_gpu(FaultConfig::disabled());
        g.launch(1, |ctx| {
            let mut a = Fragment::new(FragKind::MatrixA);
            a.set(0, 0, f32::INFINITY);
            let mut b = Fragment::new(FragKind::MatrixB);
            b.set(0, 0, 0.0); // Inf * 0 = NaN
            b.set(0, 1, 1.0); // Inf * 1 = Inf
            let mut d = Fragment::new(FragKind::Accumulator);
            ctx.mma_16x16x16(&mut d, &a, &b);
        });
        let kinds: Vec<_> = g.take_san_reports().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&HazardKind::F16Overflow), "{kinds:?}");
        assert!(kinds.contains(&HazardKind::NanProduced), "{kinds:?}");
        let (ovf, _, nan) = g.san_numeric_counts();
        assert!(ovf >= 1 && nan >= 1);
    }

    #[test]
    fn san_numeric_counts_accumulate_from_frag_writes() {
        use crate::fault::FaultConfig;
        use crate::fragment::{FragKind, Fragment};
        let g = san_gpu(FaultConfig::disabled());
        g.launch(1, |ctx| {
            let mut a = Fragment::new(FragKind::MatrixA);
            let mut vals = [(1.0f32, 1.0f32); WARP_SIZE];
            vals[3] = (1e6, 1.0); // f16 overflow
            vals[7] = (1e-9, 1.0); // underflow above tolerance
            ctx.frag_write_pairs(&mut a, 0, &vals);
        });
        assert_eq!(g.san_numeric_counts(), (1, 1, 0));
        assert_eq!(g.take_san_reports().len(), 2);
    }

    #[test]
    fn shards_cover_all_warps_exactly_once() {
        let g = gpu();
        let out = g.alloc_output(1000);
        g.launch(1000, |ctx| {
            let mut w = [None; WARP_SIZE];
            w[0] = Some((ctx.warp_id as u32, 1.0f32));
            ctx.atomic_add(&out, &w);
        });
        assert!(out.to_vec().iter().all(|&v| v == 1.0));
    }

    // One launch with a warp per bitmap (three per L2 shard), each loading
    // one bitmap-coded run from `base` (plus a per-warp offset when it
    // fits) and then probing L2 with a gather spread over the buffer, so
    // the probe's hits expose what the run left in the cache. `fused`
    // picks `gather_run` or the two `gather`s over `run_indices` that
    // define it. Returns the counters, every loaded and probed value's
    // bits, and the SimSan reports.
    fn run_gather_launch(
        cfg: &GpuConfig,
        bitmaps: &[u64],
        base: u32,
        fused: bool,
    ) -> (KernelCounters, Vec<u16>, Vec<SanReport>) {
        let probe = lanes_from((0..32u32).map(|l| l * 19));
        run_gather_probe(cfg, 600, bitmaps, base, &probe, fused)
    }

    fn run_gather_probe(
        cfg: &GpuConfig,
        len: usize,
        bitmaps: &[u64],
        base: u32,
        probe: &[Option<u32>; WARP_SIZE],
        fused: bool,
    ) -> (KernelCounters, Vec<u16>, Vec<SanReport>) {
        let g = Gpu::new(cfg.clone());
        let buf = g.alloc((0..len).map(|i| F16::from_f32(i as f32 * 0.75 - 200.0)).collect());
        let seen = Mutex::new(vec![Vec::new(); bitmaps.len()]);
        let c = g.launch(bitmaps.len(), |ctx| {
            let w = ctx.warp_id;
            let base = base.checked_add(7 * w as u32).unwrap_or(base);
            let bitmap = bitmaps[w];
            let vals = if fused {
                ctx.gather_run(&buf, bitmap, base)
            } else {
                let (idx1, idx2) = run_indices(bitmap, base);
                let (v1, v2) = (ctx.gather(&buf, &idx1), ctx.gather(&buf, &idx2));
                std::array::from_fn(|p| if p % 2 == 0 { v1[p / 2] } else { v2[p / 2] })
            };
            let probe = ctx.gather(&buf, probe);
            let bits = vals.iter().chain(&probe).map(|v| v.0).collect();
            seen.lock().unwrap()[w] = bits;
        });
        (c, seen.into_inner().unwrap().concat(), g.take_san_reports())
    }

    #[test]
    fn run_gather_matches_the_two_gathers_it_is_defined_by() {
        use crate::fault::FaultConfig;
        use crate::san::SanConfig;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let with = |faults: FaultConfig, san: bool| {
            let mut cfg = GpuConfig::l40();
            cfg.faults = faults;
            if san {
                cfg.san = SanConfig::on();
            }
            cfg
        };
        let both_kinds = FaultConfig {
            oob_read_rate: 0.2,
            uninit_read_rate: 0.2,
            ..FaultConfig::uniform(13, 0.2)
        };
        let configs = [
            with(FaultConfig::disabled(), false),
            with(FaultConfig::disabled(), true),
            with(both_kinds, false),
            with(both_kinds, true),
        ];
        // In range, runs ending past the 600-element buffer, and bases
        // whose indices saturate at `u32::MAX`.
        let bases = [0u32, 5, 300, 540, 580, 599, 600, 4096, u32::MAX - 40, u32::MAX];
        for round in 0..6 {
            // Dense, sparse and very sparse bitmaps.
            let bitmaps: Vec<u64> = (0..46)
                .map(|w| match (w + round) % 3 {
                    0 => next() | next(),
                    1 => next(),
                    _ => next() & next() & next(),
                })
                .chain([0, u64::MAX])
                .collect();
            for cfg in &configs {
                for &base in &bases {
                    let fused = run_gather_launch(cfg, &bitmaps, base, true);
                    let plain = run_gather_launch(cfg, &bitmaps, base, false);
                    assert_eq!(fused, plain, "base {base}, faults {:?}", cfg.faults);
                    if cfg.faults.enabled() {
                        assert!(fused.0.faults_injected > 0, "base {base}: sites must be drawn");
                    }
                }
            }
        }
    }

    #[test]
    fn run_gather_keeps_the_two_loads_in_order_in_l2() {
        // One 16-way L2 set per shard. The run's even bits read two
        // sectors of line 62 and its odd bits one sector of line 63, so
        // the load order decides which line is least recent. Fifteen
        // filler lines evict line 62, refetching it evicts line 63, and
        // the probe hits nothing. Loaded the other way round, line 62
        // would survive and both its sectors would hit.
        let mut cfg = GpuConfig::l40();
        cfg.l2_bytes = 0;
        let bitmap = 0x5555_5555_5555 | 0xaaaa << 48;
        let probe = lanes_from((0..15u32).map(|line| line * 64).chain([4008, 4016, 4032]));
        let fused = run_gather_probe(&cfg, 4096, &[bitmap], 4008, &probe, true);
        let plain = run_gather_probe(&cfg, 4096, &[bitmap], 4008, &probe, false);
        assert_eq!(fused, plain);
        assert_eq!(plain.0.l2_hits, 0, "even-bit load first: line 62 is evicted");
    }

    #[test]
    fn portion_fill_matches_the_pair_gather_and_writes_it_is_defined_by() {
        use crate::fault::FaultConfig;
        use crate::san::SanConfig;
        // x holds values that overflow and underflow f16, so SimSan's
        // numeric classification of the vector pairs has work to do.
        let x: Vec<f32> = (0..100).map(|i| [0.3, -7.25, 1e6, 1e-9][i % 4] * i as f32).collect();
        let a: [F16; 2 * WARP_SIZE] =
            std::array::from_fn(|i| [F16::ONE, F16::ZERO, F16(0x8000), F16::INFINITY][i % 4]);
        let run = |cfg: &GpuConfig, start: u32, fused: bool| {
            let g = Gpu::new(cfg.clone());
            let xb = g.alloc(x.clone());
            let frags = Mutex::new(Vec::new());
            let c = g.launch(32, |ctx| {
                let (mut af, mut bf) =
                    (Fragment::new(FragKind::MatrixA), Fragment::new(FragKind::MatrixB));
                let start = start + 8 * (ctx.warp_id as u32 % 3);
                for reg_base in [0, 6] {
                    if fused {
                        ctx.fill_portion(&mut af, &mut bf, reg_base, &a, &xb, start);
                    } else {
                        let idx = std::array::from_fn(|l| Some(start + 2 * (l as u32 % 4)));
                        let b = ctx.gather_pair(&xb, &idx);
                        let pairs =
                            std::array::from_fn(|l| (a[2 * l].to_f32(), a[2 * l + 1].to_f32()));
                        ctx.frag_write_pairs(&mut af, reg_base, &pairs);
                        ctx.frag_write_pairs(&mut bf, reg_base, &b);
                    }
                }
                let bits = |f: &Fragment| f.regs.concat().iter().map(|v| v.to_bits()).collect();
                frags.lock().unwrap().push((ctx.warp_id, bits(&af), bits(&bf)));
            });
            let mut frags: Vec<(usize, Vec<u32>, Vec<u32>)> = frags.into_inner().unwrap();
            frags.sort_unstable_by_key(|f| f.0);
            (c, frags, g.take_san_reports(), g.san_numeric_counts())
        };
        let mut configs = Vec::new();
        for faults in
            [FaultConfig::disabled(), FaultConfig::uniform(5, 0.3), FaultConfig::hazards(5, 0.3)]
        {
            for san in [false, true] {
                let mut cfg = GpuConfig::l40();
                cfg.faults = faults;
                cfg.san = if san { SanConfig::on() } else { SanConfig::default() };
                configs.push(cfg);
            }
        }
        // Aligned and unaligned runs, one straddling two sectors, and runs
        // reaching past the 100-element buffer.
        for start in [0u32, 8, 12, 44, 80, 90, 95] {
            for cfg in &configs {
                assert_eq!(run(cfg, start, true), run(cfg, start, false), "start {start}");
            }
        }
    }

    // Three launches with different access shapes over buffers allocated
    // up front, so every `Gpu` that runs them sees the same addresses.
    fn l2_probe_buffers(g: &Gpu) -> Vec<DeviceBuffer<f32>> {
        [4096usize, 50_000, 300].iter().map(|&n| g.alloc(vec![1.0f32; n])).collect()
    }

    fn l2_probe_launch(g: &Gpu, bufs: &[DeviceBuffer<f32>], pattern: usize) -> KernelCounters {
        g.launch(48, |ctx| {
            let w = ctx.warp_id as u32;
            match pattern {
                // Reuse within a warp: the second gather hits.
                0 => {
                    let idx = lanes_from((0..32u32).map(|l| (w * 64 + l) % 4096));
                    ctx.gather(&bufs[0], &idx);
                    ctx.gather(&bufs[0], &idx);
                }
                // A strided sweep of 384 lines, twice: it fits an L40 shard,
                // so the second pass hits, but thrashes a 1 MiB L2's shard.
                1 => {
                    for step in 0..24u32 {
                        let at = |l: u32| (w * 977 + (step % 12) * 1280 + l * 32) % 50_000;
                        let idx = lanes_from((0..32u32).map(at));
                        ctx.gather(&bufs[1], &idx);
                    }
                }
                // Broadcast reads of a small table.
                _ => {
                    for i in 0..300 {
                        ctx.read(&bufs[2], (i + w as usize) % 300);
                    }
                }
            }
        })
    }

    #[test]
    fn pooled_l2_is_cold_on_every_launch() {
        // A sequence of different launches on one `Gpu` (reusing its
        // pooled shard caches, across `l2_bytes` changes) must count
        // exactly what each launch counts on a fresh `Gpu`.
        let mut shared = gpu();
        let bufs = l2_probe_buffers(&shared);
        let default_l2 = shared.config.l2_bytes;
        let schedule = [
            (0, default_l2),
            (0, default_l2),
            (1, default_l2),
            (1, 1 << 20),
            (0, 1 << 20),
            (2, 1 << 20),
            (1, default_l2),
            (2, default_l2),
        ];
        for (step, &(pattern, l2_bytes)) in schedule.iter().enumerate() {
            shared.config.l2_bytes = l2_bytes;
            let got = l2_probe_launch(&shared, &bufs, pattern);
            let mut cfg = GpuConfig::l40();
            cfg.l2_bytes = l2_bytes;
            let fresh = Gpu::new(cfg);
            let want = l2_probe_launch(&fresh, &l2_probe_buffers(&fresh), pattern);
            assert_eq!(got, want, "step {step}: pattern {pattern}, l2_bytes {l2_bytes}");
            assert!(got.l2_hits > 0 || pattern == 1, "step {step}: the probe must hit in L2");
        }
        let small = {
            let mut cfg = GpuConfig::l40();
            cfg.l2_bytes = 1 << 20;
            let g = Gpu::new(cfg);
            l2_probe_launch(&g, &l2_probe_buffers(&g), 1)
        };
        let large = l2_probe_launch(&shared, &bufs, 1);
        assert!(small.l2_hits < large.l2_hits, "capacity changes must take effect");
    }

    #[test]
    fn concurrent_and_nested_launches_stay_cold() {
        let g = gpu();
        let bufs = l2_probe_buffers(&g);
        let want: Vec<KernelCounters> = (0..3).map(|p| l2_probe_launch(&g, &bufs, p)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|p| {
                    let (g, bufs) = (&g, &bufs);
                    s.spawn(move || {
                        (0..20).map(|_| l2_probe_launch(g, bufs, p)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for (p, h) in handles.into_iter().enumerate() {
                for got in h.join().expect("launch thread") {
                    assert_eq!(got, want[p], "pattern {p}");
                }
            }
        });
        // A kernel that launches on its own `Gpu` holds one pooled cache
        // while the inner launch runs.
        let outer = g.launch(2, |_| {
            assert_eq!(l2_probe_launch(&g, &bufs, 0), want[0]);
        });
        assert_eq!(outer.warps, 2);
        assert_eq!(l2_probe_launch(&g, &bufs, 1), want[1]);
    }

    // An atomic launch on the pool whose sums depend on the order of the
    // adds: each warp adds terms spanning 2^0..2^24 to eight cells.
    // Returns the cells' bits, checked against the warp-order fold.
    fn pooled_atomic_launch(g: &Gpu) -> Vec<u32> {
        let nwarps = 4 * POOLED_MIN_WARPS;
        let term = |w: usize, l: usize| {
            let sign = if (w + l).is_multiple_of(3) { -1.0 } else { 1.0 };
            sign * (1u32 << ((w * 7 + l) % 25)) as f32
        };
        let out = g.alloc_output(8);
        let c = g.launch(nwarps, |ctx| {
            let w = ctx.warp_id;
            let writes = std::array::from_fn(|l| (l < 8).then(|| (l as u32, term(w, l))));
            ctx.atomic_add(&out, &writes);
        });
        assert_eq!(c.atomic_ops, 8 * nwarps as u64);
        let bits: Vec<u32> = out.to_vec().iter().map(|v| v.to_bits()).collect();
        let serial: Vec<u32> =
            (0..8).map(|l| (0..nwarps).fold(0.0f32, |acc, w| acc + term(w, l)).to_bits()).collect();
        assert_eq!(bits, serial, "atomics must land in warp order");
        bits
    }

    #[test]
    fn concurrent_pooled_launches_give_identical_bits() {
        // Four threads launch together: one gets the pool, the others run
        // inline, and every launch lands its atomics in warp order.
        let g = gpu();
        let want = pooled_atomic_launch(&g);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (g, start) = (&g, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..10).map(|_| pooled_atomic_launch(g)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for got in h.join().expect("launch thread") {
                    assert_eq!(got, want);
                }
            }
        });
    }

    #[test]
    fn par_helpers_inside_a_pooled_kernel_complete() {
        // The kernel's shards hold the pool, so the nested call runs
        // inline instead of waiting for it.
        let g = gpu();
        let out = g.alloc_output(POOLED_MIN_WARPS);
        let n = par::MIN_POOLED_ITEMS;
        g.launch(POOLED_MIN_WARPS, |ctx| {
            let sum: usize = par::map_indexed(n, |i| i).iter().sum();
            let mut w = [None; WARP_SIZE];
            w[0] = Some((ctx.warp_id as u32, sum as f32));
            ctx.scatter(&out, &w);
        });
        assert!(out.to_vec().iter().all(|&v| v == (n * (n - 1) / 2) as f32));
    }

    #[test]
    fn a_panicking_pooled_shard_panics_on_the_caller_and_the_next_launch_runs() {
        let g = gpu();
        let last = POOLED_MIN_WARPS - 1;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.launch(POOLED_MIN_WARPS, |ctx| {
                if ctx.warp_id == last {
                    panic!("warp {last} failed");
                }
            })
        }))
        .expect_err("the shard's panic must reach the caller");
        let msg = err.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some(format!("warp {last} failed").as_str()));
        pooled_atomic_launch(&g);
    }

    // One lane-index array of a given access shape: unit stride from a
    // random base (possibly running past the buffer), descending,
    // broadcast, cuSPARSE CSR's x-gather (eight rows of four lanes,
    // ascending within a row), random, or all inactive; active lanes
    // under a random mask for half the shapes.
    fn lane_shape(next: &mut impl FnMut() -> u64, len: u32) -> [Option<u32>; WARP_SIZE] {
        let r = next();
        let base = (r >> 8) as u32 % (len + 40);
        let rows: [u32; 8] = std::array::from_fn(|_| next() as u32 % len);
        let mask = if r & 0x10 == 0 { u32::MAX } else { next() as u32 };
        std::array::from_fn(|l| {
            let l32 = l as u32;
            let i = match r % 7 {
                0 => base + l32,
                1 => base + 31 - l32,
                2 => base,
                3 => rows[l / 4] + l32 % 4,
                4 => next() as u32 % (len + 8),
                5 => return None,
                _ => base + 2 * l32,
            };
            (mask >> l & 1 != 0).then_some(i)
        })
    }

    // A launch of eight warps (inline, so a thread-local switch reaches
    // every shard) issuing mixed memory instructions of every shape.
    // Returns the counters after every instruction (which exposes each
    // one's sectors and L2 hits), every loaded value's bits, the output,
    // and the SimSan reports.
    fn memory_instruction_launch(cfg: &GpuConfig) -> (Vec<Vec<u64>>, Vec<u32>, Vec<SanReport>) {
        let g = Gpu::new(cfg.clone());
        let f32s = g.alloc((0..600).map(|i| i as f32 * 0.5 - 99.0).collect::<Vec<_>>());
        let u32s = g.alloc((0..300u32).collect::<Vec<_>>());
        let f16s = g.alloc((0..500).map(|i| F16::from_f32(i as f32 - 250.0)).collect::<Vec<_>>());
        let out = g.alloc_output(300);
        let trace = Mutex::new(vec![Vec::new(); 8]);
        g.launch(8, |ctx| {
            let mut rng = 0x51ed_u64 + ctx.warp_id as u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut seen = Vec::new();
            for step in 0..40 {
                let bits: Vec<u64> = match step % 8 {
                    0 => ctx
                        .gather(&f32s, &lane_shape(&mut next, 600))
                        .map(|v| v.to_bits() as u64)
                        .into(),
                    1 => ctx.gather(&u32s, &lane_shape(&mut next, 300)).map(u64::from).into(),
                    2 => ctx.gather(&f16s, &lane_shape(&mut next, 500)).map(|v| v.0 as u64).into(),
                    3 => ctx
                        .gather_nocache(&f32s, &lane_shape(&mut next, 600))
                        .map(|v| v.to_bits() as u64)
                        .into(),
                    4 => ctx
                        .gather_pair(&f32s, &lane_shape(&mut next, 600))
                        .map(|(a, b)| (a.to_bits() as u64) << 32 | b.to_bits() as u64)
                        .into(),
                    5 => ctx
                        .gather_pair(&f16s, &lane_shape(&mut next, 500))
                        .map(|(a, b)| (a.0 as u64) << 16 | b.0 as u64)
                        .into(),
                    6 => {
                        let idx = lane_shape(&mut next, 300);
                        ctx.scatter(&out, &idx.map(|i| i.map(|i| (i, i as f32 + 0.25))));
                        Vec::new()
                    }
                    _ => {
                        let idx = lane_shape(&mut next, 300);
                        ctx.atomic_add(&out, &idx.map(|i| i.map(|i| (i, 1.0 / (1 + i) as f32))));
                        Vec::new()
                    }
                };
                let c = &ctx.counters;
                seen.push(vec![
                    c.sectors_read,
                    c.l2_hits,
                    c.dram_read_bytes,
                    c.sectors_written,
                    c.dram_write_bytes,
                    c.atomic_ops,
                    c.faults_injected,
                ]);
                seen.push(bits);
            }
            trace.lock().unwrap()[ctx.warp_id] = seen;
        });
        let out_bits = out.to_vec().iter().map(|v| v.to_bits()).collect();
        (trace.into_inner().unwrap().concat(), out_bits, g.take_san_reports())
    }

    #[test]
    fn memory_instructions_match_the_sort_and_dedup_coalescer() {
        use crate::fault::FaultConfig;
        use crate::memory::reference::with_sort_every_warp;
        use crate::san::SanConfig;
        let faults = FaultConfig {
            oob_read_rate: 0.3,
            uninit_read_rate: 0.3,
            ..FaultConfig::uniform(17, 0.1)
        };
        for (faults, san) in [
            (FaultConfig::disabled(), false),
            (FaultConfig::disabled(), true),
            (faults, false),
            (faults, true),
            (FaultConfig::hazards(23, 0.3), true),
        ] {
            let mut cfg = GpuConfig::l40();
            cfg.faults = faults;
            cfg.san = if san { SanConfig::on() } else { SanConfig::default() };
            let fast = memory_instruction_launch(&cfg);
            let slow = with_sort_every_warp(|| memory_instruction_launch(&cfg));
            assert_eq!(fast, slow, "faults {faults:?}, SimSan {san}");
            if san {
                assert!(!fast.2.is_empty(), "indices past the end must be reported");
            }
        }
    }

    // `segmented_reduce_sum` as it was: the partner lane from `/` and `%`.
    fn segmented_reduce_by_division(vals: &[f32; WARP_SIZE], group: usize) -> [f32; WARP_SIZE] {
        let mut v = *vals;
        let mut width = group / 2;
        while width > 0 {
            let mut next = v;
            for l in 0..WARP_SIZE {
                let base = l / group * group;
                let pos = l % group;
                let partner = base + (pos + width) % group;
                next[l] = v[l] + v[partner];
            }
            v = next;
            width /= 2;
        }
        v
    }

    #[test]
    fn segmented_reduce_matches_the_division_form_bit_for_bit() {
        // Lanes drawn from signed zeros, infinities, NaN and finite values
        // of many magnitudes, so the sums depend on the order of the adds.
        let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut rng = 0x0dd_ba11_u64;
        let g = gpu();
        for case in 0..400 {
            let vals: [f32; WARP_SIZE] = std::array::from_fn(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = rng >> 33;
                match (r % 16, case % 4) {
                    (0, 0) => special[(r >> 8) as usize % 5],
                    (0..=2, 1) => special[(r >> 8) as usize % 2],
                    _ => {
                        ((r >> 8) % 2001) as f32 * [1e-3, 1.0, 1e6][(r >> 20) as usize % 3] - 1000.0
                    }
                }
            });
            for group in [1, 2, 4, 8, 16, 32] {
                let c = g.launch(1, |ctx| {
                    let got = ctx.segmented_reduce_sum(&vals, group);
                    let want = segmented_reduce_by_division(&vals, group);
                    assert_eq!(
                        got.map(f32::to_bits),
                        want.map(f32::to_bits),
                        "case {case}, group {group}"
                    );
                });
                assert_eq!(c.cuda_ops, group.trailing_zeros() as u64);
            }
        }
    }
}
