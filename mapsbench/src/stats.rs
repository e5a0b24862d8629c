//! Order statistics over timing samples, plus the host-drift reference
//! loop.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Milliseconds of a fixed memory-bound loop: a dependent pointer chase
/// through a 16 MiB single-cycle permutation. It does the same work on
/// every run, so its drift between runs is the host's drift (neighbour
/// load, frequency, memory bandwidth), recorded next to the workload
/// figures rather than guessed at.
pub fn host_ref_ms() -> f64 {
    const SLOTS: usize = 1 << 22;
    const STEPS: usize = 1 << 20;
    // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) as usize) % i;
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(at);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
    }
}
