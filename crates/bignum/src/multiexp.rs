//! Simultaneous multi-exponentiation (interleaved Straus/Shamir trick).
//!
//! A product `Π bᵢ^{eᵢ} mod N²` over `n` bases with short (32-bit)
//! exponents: computing each power independently costs
//! ~`n·(W squarings + W/2 muls)` for `W`-bit exponents; interleaving
//! shares the squaring chain across **all** bases: `W` squarings total
//! plus one multiplication per set exponent bit (~`n·W/2`). PIR's server
//! folds with it, and it is the reference the selected-sum server's
//! [`crate::SessionFold`] is tested against. The `server_fold_scale`
//! ablation bench times it.

use crate::montgomery::kernel::{with_kernel, Kernel};
use crate::montgomery::Montgomery;
use crate::uint::Uint;

impl Montgomery {
    /// Computes `Π basesᵢ^{expsᵢ} mod n` with a shared squaring chain.
    ///
    /// Bases are ordinary (non-Montgomery) values; the result is
    /// ordinary. Empty input yields 1.
    ///
    /// # Panics
    /// Panics when `bases` and `exps` lengths differ (caller bug).
    pub fn multi_pow(&self, bases: &[Uint], exps: &[Uint]) -> Uint {
        assert_eq!(bases.len(), exps.len(), "bases/exponents length mismatch");
        with_kernel!(self, |kr| {
            let bases: Vec<_> = bases.iter().map(|b| kr.enter(b)).collect();
            let acc = straus(kr, &bases, exps);
            kr.leave(acc)
        })
    }
}

/// The interleaved loop on one kernel: per exponent bit, most
/// significant first, one squaring of the accumulator and one
/// multiplication per base whose exponent has that bit set.
fn straus<K: Kernel>(kr: &mut K, bases: &[K::Elem], exps: &[Uint]) -> K::Elem {
    let max_bits = exps.iter().map(|e| e.bit_len()).max().unwrap_or(0);
    let mut acc = kr.one();
    let mut started = false;
    for bit in (0..max_bits).rev() {
        if started {
            kr.square(&mut acc);
        }
        for (base, exp) in bases.iter().zip(exps) {
            if exp.bit(bit) {
                kr.mul(&mut acc, base);
                started = true;
            }
        }
    }
    acc
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

    fn naive(ctx: &Montgomery, bases: &[Uint], exps: &[Uint]) -> Uint {
        let mut acc = Uint::one();
        for (b, e) in bases.iter().zip(exps) {
            let p = ctx.pow(b, e).unwrap();
            acc = acc.mod_mul(&p, ctx.modulus()).unwrap();
        }
        acc
    }

    #[test]
    fn empty_input_is_one() {
        let c = ctx(128, 1);
        assert_eq!(c.multi_pow(&[], &[]), Uint::one());
    }

    #[test]
    fn single_base_matches_pow() {
        let c = ctx(128, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let b = Uint::random_below(&mut rng, c.modulus()).unwrap();
            let e = Uint::from_u64(rng.gen());
            assert_eq!(
                c.multi_pow(std::slice::from_ref(&b), std::slice::from_ref(&e)),
                c.pow(&b, &e).unwrap()
            );
        }
    }

    #[test]
    fn matches_naive_product() {
        let c = ctx(256, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for count in [2usize, 5, 17, 40] {
            let bases: Vec<Uint> = (0..count)
                .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
                .collect();
            let exps: Vec<Uint> = (0..count)
                .map(|_| Uint::from_u64(rng.gen::<u32>() as u64))
                .collect();
            assert_eq!(
                c.multi_pow(&bases, &exps),
                naive(&c, &bases, &exps),
                "count={count}"
            );
        }
    }

    #[test]
    fn zero_exponents_ignored() {
        let c = ctx(128, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let b1 = Uint::random_below(&mut rng, c.modulus()).unwrap();
        let b2 = Uint::random_below(&mut rng, c.modulus()).unwrap();
        let e = Uint::from_u64(12345);
        let got = c.multi_pow(&[b1.clone(), b2], &[e.clone(), Uint::zero()]);
        assert_eq!(got, c.pow(&b1, &e).unwrap());
        // All-zero exponents give 1.
        let b3 = Uint::random_below(&mut rng, c.modulus()).unwrap();
        assert_eq!(c.multi_pow(&[b3], &[Uint::zero()]), Uint::one());
    }

    #[test]
    fn mixed_exponent_widths() {
        let c = ctx(192, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let bases: Vec<Uint> = (0..4)
            .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
            .collect();
        let exps = vec![
            Uint::one(),
            Uint::from_u64(u64::MAX),
            Uint::from_u64(2),
            Uint::from_u128(1u128 << 100),
        ];
        assert_eq!(c.multi_pow(&bases, &exps), naive(&c, &bases, &exps));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let c = ctx(128, 10);
        let _ = c.multi_pow(&[Uint::one()], &[]);
    }
}
