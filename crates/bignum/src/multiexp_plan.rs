//! Precomputed fixed-exponent plans for the two hot exponentiation paths.
//!
//! The selected-sum server evaluates `Π bᵢ^{xᵢ} mod N²` where the
//! database exponents `xᵢ` are **fixed across every query** while the
//! bases (ciphertexts) change per query; the client evaluates `r^N mod
//! N²` where the exponent `N` is fixed per key while the base `r` is
//! fresh per randomizer. Both paths today re-derive their exponent
//! recoding (window digits) on every call. This module pays that
//! recoding **once**:
//!
//! * [`MultiExpPlan`] — a per-database table of 4-bit window digits for
//!   every `xᵢ`, stored column-major so a streaming fold over a row
//!   range touches contiguous memory. Evaluation is Pippenger-style
//!   bucketization: per window, each base costs **one** Montgomery
//!   multiplication into its digit's bucket, and a single shared
//!   suffix-product chain (≈ `2·2^w` muls) reduces the buckets — versus
//!   the interleaved Straus fold's one multiplication per *set bit*
//!   (≈ 16 per base for 32-bit exponents). Because the server folds in
//!   batches, the effective window width (4, 8 or 12 bits, merged from
//!   the stored 4-bit digits at ~zero cost) is chosen per batch by a
//!   cost model: small batches can't amortize large bucket sets.
//! * [`FixedExponentPlan`] — the window digits of one fixed exponent,
//!   recoded once, so each `r^N` pays only the per-base table build and
//!   the multiply/square chain, not the exponent bit-scan.
//!
//! Both plans are immutable after construction and `Send + Sync`, so one
//! `Arc`-shared instance serves every concurrent session, shard worker,
//! and resumed checkpoint.
//!
//! Both evaluations pick their Montgomery kernel from the modulus width
//! once per call, not per product: at 4, 8 and 16 limbs they run on
//! `[u64; K]` stack operands with width-specialised bodies, the window
//! loop's squarings on the dedicated squaring; at other widths on the
//! slice kernel. The loops themselves are written once, generic over the
//! kernel.

use crate::error::BignumError;
use crate::montgomery::kernel::{with_kernel, Kernel};
use crate::montgomery::{MontElem, Montgomery};
use crate::uint::Uint;

/// Granularity of the stored digit decomposition. Evaluation merges
/// 1–3 adjacent stored digits into an effective window of 4, 8 or 12
/// bits, so one table serves every batch size.
const BASE_WINDOW_BITS: usize = 4;

/// Effective window widths the evaluation cost model chooses between.
const EFFECTIVE_WINDOWS: [usize; 3] = [4, 8, 12];

/// Largest effective window accepted by the forced-width entry point
/// (buckets are `2^w`; beyond 16 bits the bucket set dwarfs any batch).
const MAX_WINDOW_BITS: usize = 16;

/// A per-database multi-exponentiation plan: the windowed digit
/// decomposition and bucket assignment of every fixed exponent `xᵢ`,
/// computed once and reused by every fold over that database.
///
/// Build with [`MultiExpPlan::build`]; evaluate a batch with
/// [`MultiExpPlan::fold_range`].
///
/// # Examples
///
/// ```
/// use pps_bignum::{Montgomery, MultiExpPlan, Uint};
///
/// let ctx = Montgomery::new(Uint::from_u64(101 * 103)).unwrap();
/// let exps = [3u64, 0, 7];
/// let plan = MultiExpPlan::build(&exps);
/// let bases = [Uint::from_u64(2), Uint::from_u64(5), Uint::from_u64(9)];
/// let got = plan.fold_range(&ctx, &bases, 0).unwrap();
/// let want = ctx.multi_pow(&bases, &[Uint::from_u64(3), Uint::zero(), Uint::from_u64(7)]);
/// assert_eq!(got, want);
/// ```
#[derive(Clone, Debug)]
pub struct MultiExpPlan {
    /// Number of exponents (database rows) covered by the plan.
    rows: usize,
    /// Stored 4-bit windows per exponent: `ceil(max_bit_len / 4)`.
    windows: usize,
    /// Column-major digit table: `digits[w * rows + row]` is window `w`
    /// (least-significant first) of exponent `row`.
    digits: Vec<u8>,
}

// Compile-time audit: plans are built once and shared read-only behind
// an `Arc` across every session thread, shard worker, and resumed
// checkpoint. Interior mutability added here would silently serialize
// or break that sharing; make it a build failure instead.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MultiExpPlan>();
    assert_send_sync::<FixedExponentPlan>();
};

impl MultiExpPlan {
    /// Recodes every exponent into 4-bit window digits, column-major.
    ///
    /// This is the once-per-database cost the plan amortizes: `O(rows)`
    /// integer work, no modular arithmetic. All-zero exponent sets
    /// produce an empty table whose folds return 1.
    pub fn build(exps: &[u64]) -> Self {
        let max_bits = exps
            .iter()
            .map(|&x| 64 - x.leading_zeros() as usize)
            .max()
            .unwrap_or(0);
        let windows = max_bits.div_ceil(BASE_WINDOW_BITS);
        let rows = exps.len();
        let mut digits = vec![0u8; windows * rows];
        for (row, &x) in exps.iter().enumerate() {
            for w in 0..windows {
                digits[w * rows + row] = ((x >> (w * BASE_WINDOW_BITS)) & 0xf) as u8;
            }
        }
        MultiExpPlan {
            rows,
            windows,
            digits,
        }
    }

    /// Number of exponents (database rows) this plan covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Heap bytes held by the digit table — the memory cost of caching
    /// the plan (`rows × ceil(max_exponent_bits / 4)` bytes).
    pub fn table_bytes(&self) -> usize {
        self.digits.len()
    }

    /// The effective window width (bits) the cost model picks for a
    /// fold over `len` bases: minimizes `len·windows(w) + windows(w)·2^(w+1)`
    /// — bucket-accumulation muls plus the shared bucket-reduction
    /// chain. Small batches get 4-bit windows (small bucket sets),
    /// large folds get 8 or 12 bits.
    pub fn window_bits_for(&self, len: usize) -> usize {
        let max_bits = self.windows * BASE_WINDOW_BITS;
        EFFECTIVE_WINDOWS
            .iter()
            .copied()
            .min_by_key(|&w| {
                let nwin = max_bits.div_ceil(w).max(1);
                nwin * len + nwin * (1usize << (w + 1))
            })
            .unwrap_or(BASE_WINDOW_BITS)
    }

    /// Folds `Π basesᵢ^{x_{start+i}} mod n` for ordinary bases, using
    /// the cost-model window width. The result is an ordinary value.
    ///
    /// Each base is converted straight into the fold's limb stripe with
    /// one Montgomery product (a base `≥ n` is reduced first), so the
    /// caller can hand over borrowed values — the server passes its
    /// batch's ciphertexts without copying them.
    ///
    /// # Errors
    /// [`BignumError::ValueTooLarge`] when `start + bases.len()`
    /// exceeds the plan's row count.
    pub fn fold_range<'a, I>(
        &self,
        ctx: &Montgomery,
        bases: I,
        start: usize,
    ) -> Result<Uint, BignumError>
    where
        I: IntoIterator<Item = &'a Uint>,
        I::IntoIter: ExactSizeIterator,
    {
        let bases = bases.into_iter();
        let window_bits = self.window_bits_for(bases.len());
        self.fold_range_with_window(ctx, bases, start, window_bits)
    }

    /// As [`MultiExpPlan::fold_range`] but with a caller-forced
    /// effective window width (the bench's window-width sweep).
    ///
    /// # Errors
    /// [`BignumError::ValueTooLarge`] on a bad range or a width that is
    /// not a positive multiple of 4 up to 16.
    pub fn fold_range_with_window<'a, I>(
        &self,
        ctx: &Montgomery,
        bases: I,
        start: usize,
        window_bits: usize,
    ) -> Result<Uint, BignumError>
    where
        I: IntoIterator<Item = &'a Uint>,
        I::IntoIter: ExactSizeIterator,
    {
        let bases = bases.into_iter();
        let len = bases.len();
        if window_bits == 0
            || !window_bits.is_multiple_of(BASE_WINDOW_BITS)
            || window_bits > MAX_WINDOW_BITS
        {
            return Err(BignumError::ValueTooLarge {
                bits: window_bits,
                capacity_bits: MAX_WINDOW_BITS,
            });
        }
        if start.checked_add(len).filter(|&e| e <= self.rows).is_none() {
            return Err(BignumError::ValueTooLarge {
                bits: start.saturating_add(len),
                capacity_bits: self.rows,
            });
        }
        Ok(with_kernel!(ctx, |kr| {
            let stripe: Vec<_> = bases.map(|base| kr.enter(base)).collect();
            let acc = self.fold_stripe(kr, &stripe, start, window_bits);
            kr.leave(acc)
        }))
    }

    /// The bucket fold over `stripe`, the bases in Montgomery form for
    /// rows `start..`, with a checked width and range.
    ///
    /// Every product is one kernel product on operands allocated once per
    /// call: the `2^w − 1` buckets, each with an occupancy flag, and the
    /// accumulator, the running suffix product and the bucket sum.
    fn fold_stripe<K: Kernel>(
        &self,
        kr: &mut K,
        stripe: &[K::Elem],
        start: usize,
        window_bits: usize,
    ) -> K::Elem {
        // How many stored 4-bit digits merge into one effective window.
        let merge = window_bits / BASE_WINDOW_BITS;
        let eff_windows = self.windows.div_ceil(merge);
        let top = (1usize << window_bits) - 1;
        // buckets[d - 1] holds the product of the bases whose current
        // digit is d, once filled[d - 1] is set.
        let one = kr.one();
        let mut buckets = vec![one.clone(); top];
        let mut filled = vec![false; top];
        let (mut acc, mut running, mut sum) = (one.clone(), one.clone(), one);
        let mut acc_set = false;
        for ew in (0..eff_windows).rev() {
            if acc_set {
                for _ in 0..window_bits {
                    kr.square(&mut acc);
                }
            }
            // Scatter: one multiplication per base with a nonzero digit.
            let mut any = false;
            for (i, base) in stripe.iter().enumerate() {
                let d = self.effective_digit(start + i, ew, merge);
                if d == 0 {
                    continue;
                }
                any = true;
                accumulate(kr, &mut buckets[d - 1], &mut filled[d - 1], base);
            }
            if !any {
                continue;
            }
            // Shared bucket reduction: Π_d bucket[d]^d via the running
            // suffix product (Pippenger), ≈ 2·2^w muls for the whole
            // batch. Clearing the flags drains the buckets for the next
            // window.
            let (mut running_set, mut sum_set) = (false, false);
            for d in (1..=top).rev() {
                if std::mem::take(&mut filled[d - 1]) {
                    accumulate(kr, &mut running, &mut running_set, &buckets[d - 1]);
                }
                if running_set {
                    accumulate(kr, &mut sum, &mut sum_set, &running);
                }
            }
            accumulate(kr, &mut acc, &mut acc_set, &sum);
        }
        if acc_set {
            acc
        } else {
            kr.one()
        }
    }

    /// Merges `merge` adjacent stored 4-bit digits of `row` into the
    /// effective digit for effective-window `ew`.
    #[inline]
    fn effective_digit(&self, row: usize, ew: usize, merge: usize) -> usize {
        let lo = ew * merge;
        let hi = (lo + merge).min(self.windows);
        let mut d = 0usize;
        for (shift, w) in (lo..hi).enumerate() {
            d |= (self.digits[w * self.rows + row] as usize) << (BASE_WINDOW_BITS * shift);
        }
        d
    }
}

/// `dst ← dst · src` in Montgomery form, or `dst ← src` while `set` is
/// false (`dst` still stands for the identity, which is never multiplied
/// in).
fn accumulate<K: Kernel>(kr: &mut K, dst: &mut K::Elem, set: &mut bool, src: &K::Elem) {
    if *set {
        kr.mul(dst, src);
    } else {
        dst.clone_from(src);
        *set = true;
    }
}

/// The recoded window digits of one **fixed** exponent, built once per
/// key so repeated `baseᵏ` calls (the client's `r^N` randomizer path)
/// skip the exponent bit-scan that [`Montgomery::pow_mont`] redoes on
/// every call. The per-call cost that remains — the base-power table and
/// the square/multiply chain — is inherent, because the base changes
/// every call (fixed-*exponent*, not fixed-*base*, precomputation).
///
/// This is the crate's only window loop: [`Montgomery::pow`] and
/// [`Montgomery::pow_mont`] build a throwaway plan and call
/// [`FixedExponentPlan::pow`] and [`FixedExponentPlan::pow_mont`].
///
/// # Examples
///
/// ```
/// use pps_bignum::{FixedExponentPlan, Montgomery, Uint};
///
/// let ctx = Montgomery::new(Uint::from_u64(1_000_003)).unwrap();
/// let plan = FixedExponentPlan::new(&Uint::from_u64(65_537));
/// let got = plan.pow(&ctx, &Uint::from_u64(42));
/// assert_eq!(got, ctx.pow(&Uint::from_u64(42), &Uint::from_u64(65_537)).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct FixedExponentPlan {
    /// 4-bit window digits of the exponent, most-significant first,
    /// with the leading all-zero windows trimmed. Empty iff exp == 0.
    digits: Vec<u8>,
}

impl FixedExponentPlan {
    /// Recodes `exp` into most-significant-first 4-bit window digits.
    pub fn new(exp: &Uint) -> Self {
        let bits = exp.bit_len();
        let top = bits.div_ceil(BASE_WINDOW_BITS);
        let mut digits = Vec::with_capacity(top);
        for w in (0..top).rev() {
            let mut d = 0u8;
            for b in 0..BASE_WINDOW_BITS {
                if exp.bit(w * BASE_WINDOW_BITS + b) {
                    d |= 1 << b;
                }
            }
            digits.push(d);
        }
        // The top window holds the exponent's highest set bit, so it is
        // nonzero and nothing is trimmed, except for a zero exponent:
        // its empty schedule makes every power 1.
        let first = digits.iter().position(|&d| d != 0).unwrap_or(digits.len());
        digits.drain(..first);
        FixedExponentPlan { digits }
    }

    /// Heap bytes held by the recoded digit schedule.
    pub fn table_bytes(&self) -> usize {
        self.digits.len()
    }

    /// The Montgomery products one [`FixedExponentPlan::pow_mont`]
    /// performs: the base-power table up to the largest digit, four
    /// squarings per window after the first, and one multiplication per
    /// nonzero window after the first. A host-independent work count.
    pub fn products(&self) -> usize {
        let Some((_, rest)) = self.digits.split_first() else {
            return 0;
        };
        let multiplies = rest.iter().filter(|&&d| d != 0).count();
        self.top_digit() - 1 + BASE_WINDOW_BITS * rest.len() + multiplies
    }

    /// The largest window digit: the per-call table holds
    /// `base^1 ..= base^top_digit`. Zero only for the empty schedule.
    fn top_digit(&self) -> usize {
        self.digits.iter().copied().max().map_or(0, usize::from)
    }

    /// `base^exp` with the base already in Montgomery form; the result
    /// stays in Montgomery form.
    pub fn pow_mont(&self, ctx: &Montgomery, base: &MontElem) -> MontElem {
        MontElem::from_limbs(with_kernel!(ctx, |kr| {
            let base = kr.load(base.limbs());
            let acc = self.pow_in(kr, base);
            kr.limbs(&acc).to_vec()
        }))
    }

    /// `base^exp mod n` for an ordinary base; the result is ordinary. The
    /// conversions into and out of Montgomery form run on the same kernel
    /// as the power.
    pub fn pow(&self, ctx: &Montgomery, base: &Uint) -> Uint {
        with_kernel!(ctx, |kr| {
            let base = kr.enter(base);
            let acc = self.pow_in(kr, base);
            kr.leave(acc)
        })
    }

    /// The window loop on one kernel: the powers `base^1 ..= base^top_digit`
    /// (the base is fresh every call), then four squarings per window and
    /// one multiplication per nonzero window. At 4, 8 and 16 limbs every
    /// operand but the table is a stack array.
    fn pow_in<K: Kernel>(&self, kr: &mut K, base: K::Elem) -> K::Elem {
        let Some((&first, rest)) = self.digits.split_first() else {
            return kr.one();
        };
        // table[d - 1] holds base^d.
        let top = self.top_digit();
        let mut table = Vec::with_capacity(top);
        table.push(base);
        for d in 1..top {
            let mut next = table[d - 1].clone();
            kr.mul(&mut next, &table[0]);
            table.push(next);
        }
        let power = |d: u8| &table[usize::from(d) - 1];
        let mut acc = power(first).clone();
        for &d in rest {
            for _ in 0..BASE_WINDOW_BITS {
                kr.square(&mut acc);
            }
            if d != 0 {
                kr.mul(&mut acc, power(d));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx(bits: usize, seed: u64) -> Montgomery {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Uint::random_bits_exact(&mut rng, bits);
        n.set_bit(0, true);
        Montgomery::new(n).unwrap()
    }

    #[test]
    fn empty_plan_folds_to_one() {
        let c = ctx(128, 1);
        let plan = MultiExpPlan::build(&[]);
        assert_eq!(plan.rows(), 0);
        assert_eq!(plan.table_bytes(), 0);
        assert_eq!(plan.fold_range(&c, &[], 0).unwrap(), Uint::one());
    }

    #[test]
    fn all_zero_exponents_fold_to_one() {
        let c = ctx(128, 2);
        let plan = MultiExpPlan::build(&[0, 0, 0]);
        let bases = [Uint::from_u64(7), Uint::from_u64(9), Uint::from_u64(11)];
        assert_eq!(plan.fold_range(&c, &bases, 0).unwrap(), Uint::one());
    }

    #[test]
    fn matches_straus_over_random_inputs() {
        let c = ctx(256, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for count in [1usize, 2, 7, 33, 100] {
            let exps: Vec<u64> = (0..count).map(|_| rng.gen::<u32>() as u64).collect();
            let bases: Vec<Uint> = (0..count)
                .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
                .collect();
            let plan = MultiExpPlan::build(&exps);
            let exps_u: Vec<Uint> = exps.iter().map(|&x| Uint::from_u64(x)).collect();
            let want = c.multi_pow(&bases, &exps_u);
            assert_eq!(
                plan.fold_range(&c, &bases, 0).unwrap(),
                want,
                "count={count}"
            );
        }
    }

    #[test]
    fn every_window_width_agrees() {
        let c = ctx(192, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let exps: Vec<u64> = (0..40).map(|_| rng.gen::<u32>() as u64).collect();
        let bases: Vec<Uint> = (0..40)
            .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
            .collect();
        let plan = MultiExpPlan::build(&exps);
        let exps_u: Vec<Uint> = exps.iter().map(|&x| Uint::from_u64(x)).collect();
        let want = c.multi_pow(&bases, &exps_u);
        for w in [4usize, 8, 12, 16] {
            assert_eq!(
                plan.fold_range_with_window(&c, &bases, 0, w).unwrap(),
                want,
                "window={w}"
            );
        }
    }

    #[test]
    fn range_folds_compose_like_one_fold() {
        // Streaming batches must multiply up to the same product as one
        // whole-database fold — the server's resume invariant.
        let c = ctx(256, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let n = 57usize;
        let exps: Vec<u64> = (0..n).map(|_| rng.gen::<u32>() as u64).collect();
        let bases: Vec<Uint> = (0..n)
            .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
            .collect();
        let plan = MultiExpPlan::build(&exps);
        let whole = plan.fold_range(&c, &bases, 0).unwrap();
        let mut acc = Uint::one();
        let mut cursor = 0usize;
        for chunk in bases.chunks(13) {
            let part = plan.fold_range(&c, chunk, cursor).unwrap();
            acc = acc.mod_mul(&part, c.modulus()).unwrap();
            cursor += chunk.len();
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn out_of_range_rejected() {
        let c = ctx(128, 9);
        let plan = MultiExpPlan::build(&[1, 2, 3]);
        let bases = [Uint::from_u64(5), Uint::from_u64(6)];
        assert!(plan.fold_range(&c, &bases, 2).is_err());
        assert!(plan.fold_range(&c, &bases, usize::MAX).is_err());
        assert!(plan.fold_range(&c, &bases, 1).is_ok());
    }

    #[test]
    fn bad_window_width_rejected() {
        let c = ctx(128, 10);
        let plan = MultiExpPlan::build(&[1, 2, 3]);
        let bases = [Uint::from_u64(5)];
        for w in [0usize, 3, 5, 20] {
            assert!(
                plan.fold_range_with_window(&c, &bases, 0, w).is_err(),
                "window={w}"
            );
        }
    }

    #[test]
    fn cost_model_prefers_small_windows_for_small_batches() {
        let plan = MultiExpPlan::build(&(0..100_000u64).map(|i| i % 997).collect::<Vec<_>>());
        assert_eq!(plan.window_bits_for(10), 4);
        assert!(plan.window_bits_for(100_000) >= 8);
    }

    #[test]
    fn table_bytes_scales_with_rows_and_width() {
        // 32-bit exponents → 8 stored windows → 8 bytes per row.
        let exps: Vec<u64> = (0..1000).map(|i| (i as u64) | 0x8000_0000).collect();
        let plan = MultiExpPlan::build(&exps);
        assert_eq!(plan.table_bytes(), 8 * 1000);
    }

    #[test]
    fn fixed_exponent_plan_matches_pow_mont() {
        let c = ctx(256, 11);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let bits = 1 + rng.gen_range(0..200);
            let exp = Uint::random_bits_exact(&mut rng, bits);
            let plan = FixedExponentPlan::new(&exp);
            let base = Uint::random_below(&mut rng, c.modulus()).unwrap();
            assert_eq!(plan.pow(&c, &base), c.pow(&base, &exp).unwrap());
        }
    }

    #[test]
    fn fixed_exponent_plan_edge_cases() {
        let c = ctx(128, 13);
        let zero = FixedExponentPlan::new(&Uint::zero());
        assert_eq!(zero.pow(&c, &Uint::from_u64(5)), Uint::one());
        assert_eq!(zero.table_bytes(), 0);
        let one = FixedExponentPlan::new(&Uint::one());
        assert_eq!(one.pow(&c, &Uint::from_u64(5)), Uint::from_u64(5));
        let plan = FixedExponentPlan::new(&Uint::from_u64(16));
        assert_eq!(plan.pow(&c, &Uint::from_u64(2)), Uint::from_u64(65536));
    }
}
