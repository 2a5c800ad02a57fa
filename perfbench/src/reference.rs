//! The benchmark's speed reference: a fixed amount of arithmetic of its
//! own, timed on the load thread right before and after each op, so a
//! run can tell how fast the host's CPU ran while the op ran.
//!
//! On a shared host a vCPU's speed changes within seconds: a burst takes
//! 1.4–2 times longer while another tenant contends for the core than
//! on an uncontended vCPU, and each vCPU switches on its own. A run's
//! wall-clock times then follow the share of contended seconds it
//! happened to get. Every end-to-end time is therefore divided by the
//! slowdown its nearest bursts saw, which states it at the speed of
//! [`BURST_S`].
//!
//! The kernel is a 16-limb (1024-bit) Montgomery product, the width of
//! `N²` at 512-bit keys, shaped like `pps-bignum`'s `redc_mul`: the full
//! product into a fresh buffer, then one single-limb reduction per limb,
//! carries rippled in loops, a fresh vector out. A kernel of that shape
//! slows with the host the way the workloads do; a fixed-size,
//! allocation-free product tracked them worse (spread of the scaled
//! `latency_p50_s` over runs of one set 7.1 % against 4.5 % on
//! `paper_query`, 5.5 % against 2.8 % on `replay_saturate`), and integer
//! division, which contention hardly slows, not at all. The kernel is
//! written here rather than called from `pps-bignum`: a change to the
//! program's arithmetic must not move the reference it is judged
//! against.

use std::hint::black_box;
use std::time::Instant;

const LIMBS: usize = 16;

/// Products per timed burst.
const PRODUCTS: usize = 1000;

/// Seconds a burst takes on an uncontended vCPU of the host the
/// baseline was measured on (two vCPUs of an Intel Xeon VM): the speed
/// every end-to-end time is stated at. A time at this speed equals the
/// wall-clock time on that host when nothing contends for it.
pub const BURST_S: f64 = 0.56e-3;

/// `a · b · 2^-1024` modulo the odd `n`, with `n_inv = -n⁻¹ mod 2^64`,
/// left unreduced (below `2n`): the work per call does not depend on the
/// operands.
fn mont_mul(a: &[u64], b: &[u64], n: &[u64], n_inv: u64) -> Vec<u64> {
    let k = n.len();
    let mut t = vec![0u64; 2 * k + 1];
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let p = u128::from(ai) * u128::from(bj) + u128::from(t[i + j]) + u128::from(carry);
            t[i + j] = p as u64;
            carry = (p >> 64) as u64;
        }
        let mut idx = i + b.len();
        while carry != 0 {
            let (s, c) = t[idx].overflowing_add(carry);
            t[idx] = s;
            carry = u64::from(c);
            idx += 1;
        }
    }
    for i in 0..k {
        let m = t[i].wrapping_mul(n_inv);
        let mut carry = 0u64;
        for (j, &nj) in n.iter().enumerate() {
            let p = u128::from(m) * u128::from(nj) + u128::from(t[i + j]) + u128::from(carry);
            t[i + j] = p as u64;
            carry = (p >> 64) as u64;
        }
        let mut idx = i + k;
        while carry != 0 && idx < t.len() {
            let (s, c) = t[idx].overflowing_add(carry);
            t[idx] = s;
            carry = u64::from(c);
            idx += 1;
        }
    }
    t[k..2 * k].to_vec()
}

/// A fixed odd 1024-bit modulus and its Montgomery constant.
fn modulus() -> (Vec<u64>, u64) {
    let mut n: Vec<u64> = (1..=LIMBS as u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i) | 1)
        .collect();
    n[LIMBS - 1] |= 1 << 63;
    // Newton's iteration doubles the correct low bits of n⁻¹ each step.
    let mut inv: u64 = 1;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
    }
    (n, inv.wrapping_neg())
}

/// How much slower than [`BURST_S`] the host ran around the `j`-th of a
/// sequence of timed intervals, where `bursts[j]` was timed right before
/// it and `bursts[j + 1]` right after: the mean of the four bursts
/// nearest it, two on each side. The host's speed changes over seconds,
/// and one burst on each side is too few to follow it.
pub fn slowdown(bursts: &[f64], j: usize) -> f64 {
    let near = &bursts[j.saturating_sub(1)..bursts.len().min(j + 3)];
    near.iter().sum::<f64>() / near.len() as f64 / BURST_S
}

/// Seconds one burst of the reference kernel takes on this thread now.
pub fn burst() -> f64 {
    let (n, n_inv) = modulus();
    let b = [0x0123_4567_89ab_cdefu64; LIMBS];
    let mut acc = vec![7u64; LIMBS];
    let started = Instant::now();
    for _ in 0..PRODUCTS {
        acc = mont_mul(black_box(&acc), &b, &n, n_inv);
    }
    let took = started.elapsed().as_secs_f64();
    black_box(acc);
    took
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_averages_the_four_nearest_bursts() {
        let b = [1.0, 2.0, 3.0, 4.0, 5.0].map(|x| x * BURST_S);
        // Interval 0 lies between bursts 0 and 1; there is none before 0.
        assert!((slowdown(&b, 0) - 2.0).abs() < 1e-12);
        assert!((slowdown(&b, 1) - 2.5).abs() < 1e-12);
        // The last interval, between bursts 3 and 4, has none after 4.
        assert!((slowdown(&b, 3) - 4.0).abs() < 1e-12);
    }
}
