//! Device memory model: virtually-addressed buffers, the warp coalescer
//! and a sectored, set-associative L2 cache.
//!
//! Every simulated global-memory access is translated to a byte address,
//! coalesced warp-wide into unique 32-byte sectors (the transaction
//! granularity of NVIDIA GPUs), and looked up in the L2 model. This is what
//! makes the paper's Section 5.3 observable in the simulator: CSR Warp16's
//! per-thread row walks shatter into many sectors per instruction, while
//! block-granular kernels touch few.

use crate::half::F16;
use std::sync::atomic::{AtomicU32, Ordering};

/// Bytes per memory transaction sector.
pub const SECTOR_BYTES: u64 = 32;
/// Bytes per L2 cache line (4 sectors).
pub const LINE_BYTES: u64 = 128;

/// Scalar types that can live in simulated device memory.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {
    /// Size in device memory, in bytes.
    const BYTES: u64;
    /// Whether the fault injector may corrupt loads of this type. True only
    /// for *value* types (`f32`, [`F16`]); structural types (indices,
    /// bitmaps, offsets) stay false — corrupting them models control-flow
    /// corruption, which is outside the arithmetic fault model (and would
    /// crash the host-side simulator instead of producing silent errors).
    const FLIPPABLE: bool = false;
    /// Returns the value with one high-order bit flipped, selected by the
    /// random word `r`. Identity for non-flippable types. High-order bits
    /// only, so every injected fault perturbs results above f16
    /// accumulation noise and is therefore observable by ABFT checks.
    #[must_use]
    fn flip_high_bit(self, _r: u64) -> Self {
        self
    }
}

impl DeviceScalar for f32 {
    const BYTES: u64 = 4;
    const FLIPPABLE: bool = true;
    fn flip_high_bit(self, r: u64) -> Self {
        // Bits 20..=30: top mantissa bits and the exponent (sign excluded).
        let bit = 20 + (r % 11) as u32;
        f32::from_bits(self.to_bits() ^ (1 << bit))
    }
}
impl DeviceScalar for u32 {
    const BYTES: u64 = 4;
}
impl DeviceScalar for i32 {
    const BYTES: u64 = 4;
}
impl DeviceScalar for u64 {
    const BYTES: u64 = 8;
}
impl DeviceScalar for F16 {
    const BYTES: u64 = 2;
    const FLIPPABLE: bool = true;
    fn flip_high_bit(self, r: u64) -> Self {
        // Bits 8..=14: top mantissa bits and the exponent (sign excluded).
        let bit = 8 + (r % 7) as u32;
        F16(self.0 ^ (1 << bit))
    }
}
impl DeviceScalar for u8 {
    const BYTES: u64 = 1;
}

/// A read-only device buffer with a virtual base address.
///
/// Created through [`crate::exec::Gpu::alloc`], which assigns
/// non-overlapping addresses so the coalescer and cache see a realistic
/// address space.
#[derive(Debug, Clone)]
pub struct DeviceBuffer<T: DeviceScalar> {
    base: u64,
    data: Vec<T>,
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    /// Wraps host data at a fixed device address (use
    /// [`crate::exec::Gpu::alloc`] in normal code).
    pub fn with_base(base: u64, data: Vec<T>) -> Self {
        DeviceBuffer { base, data }
    }

    /// Virtual byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len(), "device OOB: {i} >= {}", self.data.len());
        self.base + i as u64 * T::BYTES
    }

    /// Like [`DeviceBuffer::addr`] but without the bounds assertion — used
    /// by the executor, where an out-of-range index is a *modelled* event
    /// (coalesced, and reported by SimSan) rather than a host bug.
    #[inline]
    pub fn addr_raw(&self, i: usize) -> u64 {
        self.base + i as u64 * T::BYTES
    }

    /// Base device address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Element value (functional read; traffic accounting happens in
    /// [`crate::exec::WarpCtx`]).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.data[i]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device bytes occupied.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES
    }

    /// Host view of the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// A writable f32 output vector: atomically updatable so row-parallel warps
/// (disjoint writers) and edge-parallel kernels (Gunrock's atomic adds) can
/// share one abstraction.
#[derive(Debug)]
pub struct DeviceOutput {
    base: u64,
    data: Vec<AtomicU32>,
}

impl DeviceOutput {
    /// Zero-initialised output of `len` elements at `base`.
    pub fn with_base(base: u64, len: usize) -> Self {
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU32::new(0));
        DeviceOutput { base, data }
    }

    /// Virtual byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.base + i as u64 * 4
    }

    /// Base device address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Plain store (relaxed; each element has exactly one writer in
    /// row-parallel kernels).
    #[inline]
    pub fn store(&self, i: usize, v: f32) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomic float add via compare-exchange, the semantics of CUDA's
    /// `atomicAdd(float*)`.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: f32) {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reads element `i`.
    #[inline]
    pub fn load(&self, i: usize) -> f32 {
        f32::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Copies the result back to the host.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.iter().map(|a| f32::from_bits(a.load(Ordering::Relaxed))).collect()
    }
}

/// Ways per L2 set.
const WAYS: usize = 16;

/// Sectored, 16-way set-associative LRU cache model.
///
/// Lines are 128 bytes with 4 independently-fillable 32-byte sectors,
/// matching NVIDIA's L2 behaviour: a miss fetches only the missing sector
/// from DRAM.
///
/// Sets live inline in one flat array, `WAYS + 1` words each: a header
/// (`generation << 8 | live ways`) and then the live ways as
/// `line << 4 | sector mask`, least recently used first. A set whose
/// header carries an older generation is empty, so `L2Cache::reset`
/// empties the whole cache in O(1) — which is what lets one allocation
/// serve many cold launches.
pub struct L2Cache {
    capacity_bytes: usize,
    set_mask: u64,
    generation: u32,
    words: Vec<u64>,
}

impl std::fmt::Debug for L2Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L2Cache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("sets", &self.sets())
            .field("ways", &WAYS)
            .finish_non_exhaustive()
    }
}

impl L2Cache {
    /// The set count of a cache of `capacity_bytes`: the line count over
    /// the ways, rounded down to a power of two.
    fn sets_for(capacity_bytes: usize) -> usize {
        let lines = (capacity_bytes as u64 / LINE_BYTES).max(WAYS as u64);
        ((lines / WAYS as u64).next_power_of_two() / 2).max(1) as usize
    }

    /// True when a cache of `capacity_bytes` can never evict while it is
    /// accessed only within buffers of the given byte sizes, each at a
    /// line-aligned base: a buffer of `n` lines puts at most
    /// `ceil(n / sets)` of them in any one set, wherever it starts, and
    /// these bounds sum to at most the ways.
    ///
    /// Without an eviction a sector hits exactly when it was accessed
    /// before, so the hit sequence of such an access stream is the same
    /// for every line-aligned placement of the buffers that keeps them
    /// disjoint.
    pub fn placement_free(capacity_bytes: usize, buffer_bytes: &[u64]) -> bool {
        let sets = Self::sets_for(capacity_bytes) as u64;
        let ways: u64 = buffer_bytes.iter().map(|&b| b.div_ceil(LINE_BYTES).div_ceil(sets)).sum();
        ways <= WAYS as u64
    }

    /// Builds a cache of approximately `capacity_bytes` (rounded down to a
    /// power-of-two set count) with 16 ways.
    pub fn new(capacity_bytes: usize) -> Self {
        let nsets = Self::sets_for(capacity_bytes);
        // Every header starts at generation 0 and the cache at 1, so every
        // set starts empty and the zeroed storage needs no other set-up.
        L2Cache {
            capacity_bytes,
            set_mask: nsets as u64 - 1,
            generation: 1,
            words: vec![0; nsets * (WAYS + 1)],
        }
    }

    /// The `capacity_bytes` this cache was built for.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn sets(&self) -> usize {
        self.words.len() / (WAYS + 1)
    }

    /// Empties the cache in O(1): afterwards it behaves exactly like
    /// `L2Cache::new(self.capacity_bytes())`.
    pub(crate) fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Headers from 2^32 resets ago would alias: clear them once.
            for header in self.words.iter_mut().step_by(WAYS + 1) {
                *header = 0;
            }
            self.generation = 1;
        }
    }

    /// Looks up one 32-byte sector (identified by `addr >> 5`, so below
    /// 2^59); returns `true` on hit. On miss the sector is installed.
    pub fn access_sector(&mut self, sector: u64) -> bool {
        debug_assert!(sector >> 62 == 0, "sector {sector:#x} out of range");
        let line = sector >> 2;
        let sector_bit = 1u64 << (sector & 3);
        let base = (line & self.set_mask) as usize * (WAYS + 1);
        let generation = self.generation as u64;
        let header = self.words[base];
        let len = if header >> 8 == generation { (header & 0xff) as usize } else { 0 };
        let ways = &mut self.words[base + 1..base + 1 + WAYS];

        // Lines in a set are unique, so scanning from the most recently
        // used end finds the same way as any other order, and a repeated
        // line is found first.
        if let Some(way) = ways[..len].iter().rposition(|&w| w >> 4 == line) {
            // Hit on the line: it becomes the most recently used.
            let entry = ways[way];
            ways[way..len].rotate_left(1);
            ways[len - 1] = entry | sector_bit;
            return entry & sector_bit != 0;
        }
        let entry = line << 4 | sector_bit;
        if len == WAYS {
            // Evict the least recently used line.
            ways.rotate_left(1);
            ways[WAYS - 1] = entry;
        } else {
            ways[len] = entry;
            self.words[base] = generation << 8 | (len as u64 + 1);
        }
        false
    }
}

/// Deduplicates a warp's byte addresses into unique 32-byte sectors
/// (the coalescer), in ascending order. `scratch` is reused across calls
/// to avoid allocation.
///
/// One pass drops each sector equal to the one before it and notes
/// whether the sequence ever descends. Without a descent what is left
/// already ascends strictly, which is the sorted, deduplicated list;
/// only a descent pays for the sort.
pub fn coalesce_into(addrs: impl Iterator<Item = u64>, scratch: &mut Vec<u64>) {
    #[cfg(test)]
    if reference::SORT_EVERY_WARP.get() {
        return reference::coalesce_by_sort(addrs, scratch);
    }
    scratch.clear();
    let mut sectors = addrs.map(|a| a / SECTOR_BYTES);
    let Some(mut last) = sectors.next() else { return };
    scratch.push(last);
    let mut descends = false;
    // `for_each` folds nested iterators (the gathers' active lanes, the
    // pair loads' two elements) without re-entering them per item.
    sectors.for_each(|sector| {
        if sector != last {
            descends |= sector < last;
            scratch.push(sector);
            last = sector;
        }
    });
    if descends {
        scratch.sort_unstable();
        scratch.dedup();
    }
}

/// The coalescer this module used to have, kept as the reference the
/// single-pass one is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::SECTOR_BYTES;
    use std::cell::Cell;

    thread_local! {
        /// While set, [`super::coalesce_into`] on this thread runs
        /// [`coalesce_by_sort`] instead, so a launch small enough to run
        /// inline can be replayed with the reference coalescer.
        pub(crate) static SORT_EVERY_WARP: Cell<bool> = const { Cell::new(false) };
    }

    /// Sorts and deduplicates every warp's sectors.
    pub(crate) fn coalesce_by_sort(addrs: impl Iterator<Item = u64>, scratch: &mut Vec<u64>) {
        scratch.clear();
        for a in addrs {
            scratch.push(a / SECTOR_BYTES);
        }
        scratch.sort_unstable();
        scratch.dedup();
    }

    /// Runs `f` with [`coalesce_by_sort`] in place of the coalescer.
    pub(crate) fn with_sort_every_warp<R>(f: impl FnOnce() -> R) -> R {
        SORT_EVERY_WARP.set(true);
        let out = f();
        SORT_EVERY_WARP.set(false);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_addressing() {
        let b = DeviceBuffer::with_base(0x1000, vec![1.0f32, 2.0, 3.0]);
        assert_eq!(b.addr(0), 0x1000);
        assert_eq!(b.addr(2), 0x1008);
        assert_eq!(b.get(1), 2.0);
        assert_eq!(b.bytes(), 12);
    }

    #[test]
    fn f16_buffer_is_two_bytes_per_element() {
        let b = DeviceBuffer::with_base(0, vec![F16::ONE; 10]);
        assert_eq!(b.bytes(), 20);
        assert_eq!(b.addr(5), 10);
    }

    #[test]
    fn output_store_and_read_back() {
        let o = DeviceOutput::with_base(0, 4);
        o.store(2, 1.5);
        o.fetch_add(2, 2.0);
        o.fetch_add(0, -1.0);
        assert_eq!(o.to_vec(), vec![-1.0, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn atomic_add_from_threads_is_exact_for_integers() {
        let o = std::sync::Arc::new(DeviceOutput::with_base(0, 1));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let o = o.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        o.fetch_add(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(o.load(0), 8000.0);
    }

    #[test]
    fn coalesce_unit_stride_warp() {
        // 32 lanes reading consecutive f32s: 128 bytes = 4 sectors.
        let mut s = Vec::new();
        coalesce_into((0..32u64).map(|i| i * 4), &mut s);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn coalesce_strided_warp_is_uncoalesced() {
        // 32 lanes striding 128 bytes apart: 32 separate sectors.
        let mut s = Vec::new();
        coalesce_into((0..32u64).map(|i| i * 128), &mut s);
        assert_eq!(s.len(), 32);
    }

    #[test]
    fn coalesce_broadcast_is_one_sector() {
        let mut s = Vec::new();
        coalesce_into((0..32u64).map(|_| 0x40), &mut s);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cache_hits_after_fill() {
        let mut c = L2Cache::new(1 << 20);
        assert!(!c.access_sector(100), "cold miss");
        assert!(c.access_sector(100), "hit after fill");
    }

    #[test]
    fn sectored_fill_misses_neighbour_sector() {
        let mut c = L2Cache::new(1 << 20);
        assert!(!c.access_sector(4)); // line 1, sector 0
        assert!(!c.access_sector(5), "neighbour sector must miss (sectored)");
        assert!(c.access_sector(4));
        assert!(c.access_sector(5));
    }

    #[test]
    fn lru_eviction() {
        // Tiny cache: 16 ways * 1 set (capacity 2 KiB -> 16 lines).
        let mut c = L2Cache::new(2048);
        assert_eq!(c.sets(), 1);
        for line in 0..16u64 {
            assert!(!c.access_sector(line * 4));
        }
        // All 16 resident.
        assert!(c.access_sector(0));
        // A 17th line evicts the least recently used (line 1: line 0 was
        // just touched).
        assert!(!c.access_sector(16 * 4));
        assert!(!c.access_sector(4), "line 1 was evicted");
        assert!(c.access_sector(0), "line 0 survived");
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut c = L2Cache::new(1 << 20); // 1 MiB = 8192 lines
        let sectors: Vec<u64> = (0..2000u64).collect();
        for &s in &sectors {
            c.access_sector(s);
        }
        let hits = sectors.iter().filter(|&&s| c.access_sector(s)).count();
        assert_eq!(hits, sectors.len(), "resident set must fully hit");
    }

    // Deterministic test-input generator (64-bit LCG, high bits).
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn cache_matches_a_last_use_stamp_lru_reference() {
        // Reference model: per set, (line, sector mask, last-use tick); a
        // full set evicts the line with the smallest tick. Each capacity
        // runs two traces: mostly a hot region with cold sweeps, and an
        // MRU-heavy one that mostly revisits the last four sectors or
        // their line neighbours, so most hits land on the MRU end.
        for (capacity, mru_heavy) in
            [2048usize, 16 << 10, 64 << 10].into_iter().flat_map(|c| [(c, false), (c, true)])
        {
            let mut cache = L2Cache::new(capacity);
            let nsets = cache.sets() as u64;
            let mut sets: Vec<Vec<(u64, u8, u64)>> = vec![Vec::new(); nsets as usize];
            let mut rng = capacity as u64 + mru_heavy as u64;
            let mut recent = [0u64; 4];
            for tick in 0..30_000u64 {
                let r = lcg(&mut rng);
                let sector = if mru_heavy && !r.is_multiple_of(8) {
                    let s = recent[(r >> 3) as usize % 4];
                    if r & 0x40 == 0 { s } else { s & !3 | (r >> 8) & 3 }
                } else if r.is_multiple_of(4) {
                    r % 20_000
                } else {
                    r % (nsets * 64)
                };
                recent[tick as usize % 4] = sector;
                let (line, bit) = (sector >> 2, 1u8 << (sector & 3));
                let set = &mut sets[(line % nsets) as usize];
                let want = match set.iter_mut().find(|e| e.0 == line) {
                    Some(e) => {
                        e.2 = tick;
                        let hit = e.1 & bit != 0;
                        e.1 |= bit;
                        hit
                    }
                    None => {
                        if set.len() == WAYS {
                            let lru = (0..WAYS).min_by_key(|&w| set[w].2).expect("full set");
                            set.remove(lru);
                        }
                        set.push((line, bit, tick));
                        false
                    }
                };
                let got = cache.access_sector(sector);
                assert_eq!(got, want, "capacity {capacity}, MRU-heavy {mru_heavy}, tick {tick}");
            }
        }
    }

    #[test]
    fn reset_cache_behaves_like_a_new_one() {
        let capacity = 64 << 10; // 32 sets: plenty of evictions below
        let mut rng = 0xcafe_u64;
        let trace: Vec<u64> = (0..20_000).map(|_| lcg(&mut rng) % 3000).collect();
        let hits = |c: &mut L2Cache| trace.iter().map(|&s| c.access_sector(s)).collect::<Vec<_>>();
        let fresh = hits(&mut L2Cache::new(capacity));
        let mut reused = L2Cache::new(capacity);
        for round in 0..3 {
            assert_eq!(hits(&mut reused), fresh, "round {round}");
            reused.reset();
        }
        // A generation counter that wraps must not resurrect stale sets.
        reused.generation = u32::MAX;
        hits(&mut reused);
        reused.reset();
        assert_eq!(reused.generation, 1);
        assert_eq!(hits(&mut reused), fresh);
        assert_eq!(reused.capacity_bytes(), capacity);
    }

    #[test]
    fn placement_free_buffers_hit_the_same_under_any_aligned_shift() {
        // A 16 KiB cache has 4 sets of 16 ways. The first size list needs
        // at most 2 + 4 + 1 + 1 + 3 + 1 + 1 = 13 ways per set; the second
        // needs 16 for its largest buffer alone, 25 in all.
        let capacity = 16 << 10;
        assert_eq!(L2Cache::sets_for(capacity), 4);
        let free = [1000u64, 2000, 500, 300, 1536, 256, 64];
        let tight = [1000u64, 8192, 500, 300, 1536, 256, 64];
        assert!(L2Cache::placement_free(capacity, &free));
        assert!(!L2Cache::placement_free(capacity, &tight));
        let mut rng = 0x9e37_u64;
        let mut hit_sequences = |sizes: &[u64]| -> Vec<Vec<bool>> {
            // One trace of (buffer, byte offset) reads, replayed under the
            // packed layout and then under layouts with random 256-byte
            // gaps, as the bump allocator leaves between allocations.
            let trace: Vec<(usize, u64)> = (0..6000)
                .map(|_| {
                    let b = lcg(&mut rng) as usize % sizes.len();
                    (b, lcg(&mut rng) % sizes[b])
                })
                .collect();
            (0..40)
                .map(|layout| {
                    let mut next = 0x1000_0000u64;
                    let bases: Vec<u64> = sizes
                        .iter()
                        .map(|&bytes| {
                            let gap = if layout == 0 { 0 } else { lcg(&mut rng) % 80 * 256 };
                            let base = next + gap;
                            next = base + bytes.div_ceil(256) * 256;
                            base
                        })
                        .collect();
                    let mut cache = L2Cache::new(capacity);
                    trace
                        .iter()
                        .map(|&(b, off)| cache.access_sector((bases[b] + off) / SECTOR_BYTES))
                        .collect()
                })
                .collect()
        };
        let runs = hit_sequences(&free);
        assert!(runs.iter().all(|r| *r == runs[0]), "a placement-free stream moved");
        // The bound is what makes it hold: past it, placement moves hits.
        let runs = hit_sequences(&tight);
        assert!(runs.iter().any(|r| *r != runs[0]), "an over-full stream never moved");
    }

    // Warp address shapes: `lane_addr` maps an active lane to its byte
    // address; inactive lanes come from a random mask.
    fn warp_shapes(rng: &mut u64) -> Vec<Vec<u64>> {
        let mut warps = Vec::new();
        for round in 0..400u64 {
            let mask = match round % 5 {
                0 => u32::MAX,
                1 => 0,
                _ => lcg(rng) as u32 | (lcg(rng) as u32) << 16,
            };
            let base = (lcg(rng) % 4096) * 4;
            // Per-row column starts for the CSR x-gather shape: eight rows
            // of four lanes, ascending within a row.
            let rows: [u64; 8] = std::array::from_fn(|_| lcg(rng) % 2048);
            let shape = round / 5 % 8;
            let lane_addr = |l: u64, r: u64| -> u64 {
                match shape {
                    0 => base + 4 * l,                                       // unit stride
                    1 => base + 2 * l,                                       // f16 unit stride
                    2 => base + 4 * (31 - l),                                // descending
                    3 => base,                                               // broadcast
                    4 => base + 128 * (l / 3),                               // repeated runs
                    5 => 4 * (rows[l as usize / 4] + (l % 4) * (1 + r % 3)), // CSR x-gather
                    6 => (r % 64) * 32 + l % 2,                              // random sectors
                    _ => u64::MAX / 2 + 4 * l,                               // far past any buffer
                }
            };
            let addrs: Vec<u64> =
                (0..32).filter(|l| mask >> l & 1 != 0).map(|l| lane_addr(l, lcg(rng))).collect();
            // The pair loads' shape: each lane's element and the next.
            let pairs: Vec<u64> = addrs.iter().flat_map(|&a| [a, a + 4]).collect();
            warps.push(addrs);
            warps.push(pairs);
        }
        warps
    }

    #[test]
    fn coalescer_matches_sort_and_dedup_and_feeds_l2_the_same_sequence() {
        let mut rng = 0x5eed_u64;
        let warps = warp_shapes(&mut rng);
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        let (mut fast_l2, mut slow_l2) = (L2Cache::new(16 << 10), L2Cache::new(16 << 10));
        let mut sorted = 0;
        for (w, addrs) in warps.iter().enumerate() {
            coalesce_into(addrs.iter().copied(), &mut fast);
            reference::coalesce_by_sort(addrs.iter().copied(), &mut slow);
            assert_eq!(fast, slow, "warp {w}: {addrs:?}");
            let hits = |l2: &mut L2Cache, s: &[u64]| -> Vec<bool> {
                s.iter().map(|&s| l2.access_sector(s)).collect()
            };
            assert_eq!(hits(&mut fast_l2, &fast), hits(&mut slow_l2, &slow), "warp {w}");
            sorted += addrs.windows(2).any(|p| p[1] / SECTOR_BYTES < p[0] / SECTOR_BYTES) as usize;
        }
        // Both branches ran: some warps descend, most do not.
        assert!(sorted > 0 && sorted < warps.len() / 2, "{sorted} of {} sorted", warps.len());
    }
}
