//! Performance counters collected during simulated kernel execution.

/// Event counts for one kernel launch (or one warp's share of it; counters
/// from parallel shards are merged with [`KernelCounters::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// 32-byte memory sectors requested after warp-level coalescing
    /// (i.e. L2 accesses).
    pub sectors_read: u64,
    /// Sectors written (writes are modelled as streaming through L2).
    pub sectors_written: u64,
    /// Read sectors served by the L2 model.
    pub l2_hits: u64,
    /// Bytes fetched from DRAM (read misses, 32 B per missed sector).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Warp-wide load instructions issued.
    pub load_insts: u64,
    /// Warp-wide store instructions issued.
    pub store_insts: u64,
    /// Warp-wide arithmetic/logic instructions on the CUDA cores.
    pub cuda_ops: u64,
    /// `m16n16k16` tensor-core MMA operations.
    pub mma_m16n16k16: u64,
    /// `m8n8k4` tensor-core MMA operations (DASP's primitive).
    pub mma_m8n8k4: u64,
    /// Global atomic operations.
    pub atomic_ops: u64,
    /// Bytes staged through shared memory (the conventional WMMA path the
    /// paper's direct register access avoids; exercised by the ablation).
    pub smem_bytes: u64,
    /// Warps launched.
    pub warps: u64,
    /// Faults injected by the simulator during this launch (zero unless
    /// fault injection is enabled in [`crate::fault::FaultConfig`]).
    pub faults_injected: u64,
    /// Faults *observed* by software-level checks (e.g. ABFT verification
    /// in the engine layer); merged into run counters by callers.
    pub faults_observed: u64,
    /// Sanitizer reports emitted during this launch (zero unless SimSan is
    /// enabled in [`crate::san::SanConfig`] — and zero on a clean kernel
    /// even then).
    pub san_reports: u64,
}

impl KernelCounters {
    /// Element-wise sum, used when merging per-shard counters.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.sectors_read += other.sectors_read;
        self.sectors_written += other.sectors_written;
        self.l2_hits += other.l2_hits;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.load_insts += other.load_insts;
        self.store_insts += other.store_insts;
        self.cuda_ops += other.cuda_ops;
        self.mma_m16n16k16 += other.mma_m16n16k16;
        self.mma_m8n8k4 += other.mma_m8n8k4;
        self.atomic_ops += other.atomic_ops;
        self.smem_bytes += other.smem_bytes;
        self.warps += other.warps;
        self.faults_injected += other.faults_injected;
        self.faults_observed += other.faults_observed;
        self.san_reports += other.san_reports;
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// L2 read hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.sectors_read == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.sectors_read as f64
        }
    }
}

/// Cumulative health and work counters of one device in a simulated
/// fleet. The kernel-level counters of every launch that ran to
/// completion on the device are merged into `kernel`; scheduler-level
/// events (retries, speculation, hangs) are tallied alongside so shard
/// reports can print per-device health without ad-hoc bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceCounters {
    /// The device's index in its fleet.
    pub id: u64,
    /// Merged kernel counters of completed launches (DRAM bytes, MMAs, …).
    pub kernel: KernelCounters,
    /// Launches issued to the device (including hung and crashed ones).
    pub launches: u64,
    /// Launches that completed and verified.
    pub completed: u64,
    /// Scheduler retries of shards that failed verification here.
    pub retries: u64,
    /// Launches killed by the per-shard hang timeout.
    pub hangs: u64,
    /// Launches whose modelled time was inflated by a straggle event.
    pub stragglers: u64,
    /// Speculative duplicate launches placed on this device.
    pub speculative_launches: u64,
    /// Speculative launches that finished before the original.
    pub speculative_wins: u64,
    /// True once the device crashed (drawn or operator-killed).
    pub crashed: bool,
    /// Simulated seconds the device spent executing launches.
    pub busy_s: f64,
}

impl DeviceCounters {
    /// Total DRAM traffic of completed launches, in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.kernel.dram_bytes()
    }

    /// Tensor-core MMA operations of completed launches (both shapes).
    pub fn mma_ops(&self) -> u64 {
        self.kernel.mma_m16n16k16 + self.kernel.mma_m8n8k4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = KernelCounters { sectors_read: 1, l2_hits: 1, cuda_ops: 5, ..Default::default() };
        let b = KernelCounters {
            sectors_read: 2,
            dram_read_bytes: 64,
            mma_m16n16k16: 3,
            warps: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sectors_read, 3);
        assert_eq!(a.l2_hits, 1);
        assert_eq!(a.cuda_ops, 5);
        assert_eq!(a.dram_read_bytes, 64);
        assert_eq!(a.mma_m16n16k16, 3);
        assert_eq!(a.warps, 7);
    }

    #[test]
    fn hit_rate_bounds() {
        let c = KernelCounters { sectors_read: 10, l2_hits: 4, ..Default::default() };
        assert!((c.l2_hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(KernelCounters::default().l2_hit_rate(), 0.0);
    }

    #[test]
    fn dram_bytes_sums_read_write() {
        let c = KernelCounters { dram_read_bytes: 96, dram_write_bytes: 32, ..Default::default() };
        assert_eq!(c.dram_bytes(), 128);
    }
}
