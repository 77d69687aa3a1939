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
    /// Builds a cache of approximately `capacity_bytes` (rounded down to a
    /// power-of-two set count) with 16 ways.
    pub fn new(capacity_bytes: usize) -> Self {
        let lines = (capacity_bytes as u64 / LINE_BYTES).max(WAYS as u64);
        let nsets = ((lines / WAYS as u64).next_power_of_two() / 2).max(1) as usize;
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

        if let Some(way) = ways[..len].iter().position(|&w| w >> 4 == line) {
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
pub fn coalesce_into(addrs: impl Iterator<Item = u64>, scratch: &mut Vec<u64>) {
    scratch.clear();
    for a in addrs {
        scratch.push(a / SECTOR_BYTES);
    }
    scratch.sort_unstable();
    scratch.dedup();
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
        // full set evicts the line with the smallest tick.
        for capacity in [2048usize, 16 << 10, 64 << 10] {
            let mut cache = L2Cache::new(capacity);
            let nsets = cache.sets() as u64;
            let mut sets: Vec<Vec<(u64, u8, u64)>> = vec![Vec::new(); nsets as usize];
            let mut rng = capacity as u64;
            for tick in 0..30_000u64 {
                // Mostly a hot region, sometimes a cold sweep.
                let r = lcg(&mut rng);
                let sector = if r.is_multiple_of(4) { r % 20_000 } else { r % (nsets * 64) };
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
                assert_eq!(cache.access_sector(sector), want, "capacity {capacity}, tick {tick}");
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
}
