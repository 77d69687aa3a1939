//! Exclusive prefix sums (scans).
//!
//! Every blocked-format conversion in the paper (BSR, bitBSR, DASP's row
//! bucketing) turns per-row or per-block counts into offsets with an
//! exclusive scan; this module provides a serial kernel plus a two-pass
//! parallel one for large inputs.

use crate::par;

/// Below this length the parallel scan falls back to the serial one;
/// the split/recombine overhead dominates for small inputs. At or above
/// it, each chunk is one task on the [`par`] pool.
const PAR_THRESHOLD: usize = 1 << 15;

/// Serial exclusive scan: returns `out` with `out[i] = sum(counts[..i])`
/// and one extra trailing element holding the grand total, i.e.
/// `out.len() == counts.len() + 1`.
pub fn exclusive_scan(counts: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc: u32 = 0;
    out.push(0);
    for &c in counts {
        acc = acc
            .checked_add(c)
            .expect("exclusive_scan: count overflowed u32");
        out.push(acc);
    }
    out
}

/// Parallel exclusive scan with the same contract as [`exclusive_scan`].
///
/// Two passes: per-chunk sums, then a serial scan over chunk totals, then a
/// parallel fill. Falls back to the serial kernel for small inputs.
pub fn exclusive_scan_par(counts: &[u32]) -> Vec<u32> {
    if counts.len() < PAR_THRESHOLD {
        return exclusive_scan(counts);
    }
    let nchunks = par::num_threads() * 4;
    let chunk = counts.len().div_ceil(nchunks);
    let nchunks = counts.len().div_ceil(chunk);

    let partials: Vec<u64> = par::map_tasks(nchunks, |ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(counts.len());
        counts[lo..hi].iter().map(|&x| x as u64).sum()
    });

    let mut bases = Vec::with_capacity(partials.len());
    let mut acc: u64 = 0;
    for &p in &partials {
        bases.push(acc);
        acc += p;
    }
    assert!(acc <= u32::MAX as u64, "exclusive_scan_par: total overflows u32");

    let mut out = vec![0u32; counts.len() + 1];
    // Fill out[1..] chunk by chunk in parallel; out[0] stays 0.
    let fill: Vec<(&mut [u32], &[u32], u64)> = out[1..]
        .chunks_mut(chunk)
        .zip(counts.chunks(chunk))
        .zip(bases.iter())
        .map(|((o, c), &base)| (o, c, base))
        .collect();
    par::for_each_task(fill, |_, (o, c, base)| {
        let mut acc = base;
        for (oi, &ci) in o.iter_mut().zip(c) {
            acc += ci as u64;
            *oi = acc as u32;
        }
    });
    out
}

/// Inclusive scan helper used by a few statistics routines.
pub fn inclusive_scan(counts: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(counts.len());
    let mut acc = 0u32;
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;

    #[test]
    fn scan_empty() {
        assert_eq!(exclusive_scan(&[]), vec![0]);
    }

    #[test]
    fn scan_basic() {
        assert_eq!(exclusive_scan(&[3, 0, 2, 5]), vec![0, 3, 3, 5, 10]);
    }

    #[test]
    fn inclusive_basic() {
        assert_eq!(inclusive_scan(&[3, 0, 2]), vec![3, 3, 5]);
    }

    #[test]
    fn parallel_matches_serial_small() {
        let counts = vec![1u32, 2, 3, 4, 5];
        assert_eq!(exclusive_scan_par(&counts), exclusive_scan(&counts));
    }

    #[test]
    fn parallel_matches_serial_large() {
        let mut rng = Pcg64::new(7, 7);
        let counts: Vec<u32> = (0..200_000).map(|_| rng.below(100) as u32).collect();
        assert_eq!(exclusive_scan_par(&counts), exclusive_scan(&counts));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn scan_overflow_panics() {
        exclusive_scan(&[u32::MAX, 1]);
    }
}
