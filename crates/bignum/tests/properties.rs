//! Property-based tests for `pps-bignum`: ring axioms against a `u128`
//! oracle, division reconstruction, modular-arithmetic laws, and codec
//! round trips over arbitrary-size operands.

use pps_bignum::{crt_combine, FixedExponentPlan, Montgomery, SessionFold, Uint};
use proptest::prelude::*;

/// The Montgomery kernel widths a 512-bit key runs at (`p`, `p²`, `N²`:
/// 4, 8 and 16 limbs, each with its own fixed-width kernel) and one
/// width that falls back to the slice kernel.
const KERNEL_WIDTHS: [usize; 4] = [4, 8, 12, 16];

/// Strategy: an arbitrary Uint of up to `max_limbs` limbs.
fn uint(max_limbs: usize) -> impl Strategy<Value = Uint> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Uint::from_limbs)
}

/// Strategy: a Uint drawn from exactly `limbs` random limbs, an operand
/// as wide as a `limbs`-limb modulus.
fn uint_exact(limbs: usize) -> impl Strategy<Value = Uint> {
    prop::collection::vec(any::<u64>(), limbs).prop_map(Uint::from_limbs)
}

/// Strategy: an odd modulus of 1..=`max_limbs` limbs whose top limb is
/// `u64::MAX`. Such a modulus is within a factor two of `R`, so the
/// Montgomery kernel's running value often reaches `R` and its carry
/// word is live.
fn top_limb_max_modulus(max_limbs: usize) -> impl Strategy<Value = Uint> {
    prop::collection::vec(any::<u64>(), 0..max_limbs).prop_map(with_top_limb_max)
}

/// Strategy: as [`top_limb_max_modulus`], exactly `limbs` limbs wide.
fn top_limb_max_modulus_exact(limbs: usize) -> impl Strategy<Value = Uint> {
    prop::collection::vec(any::<u64>(), limbs - 1).prop_map(with_top_limb_max)
}

/// The odd modulus whose limbs are `limbs` under a top limb `u64::MAX`.
fn with_top_limb_max(mut limbs: Vec<u64>) -> Uint {
    limbs.push(u64::MAX);
    limbs[0] |= 1;
    Uint::from_limbs(limbs)
}

/// Strategy: one value of `case(k)` for each width `k` in
/// [`KERNEL_WIDTHS`].
fn at_kernel_widths<S: Strategy>(
    case: impl Fn(usize) -> S,
) -> impl Strategy<Value = [S::Value; 4]> {
    let [w0, w1, w2, w3] = KERNEL_WIDTHS;
    (case(w0), case(w1), case(w2), case(w3)).prop_map(|(a, b, c, d)| [a, b, c, d])
}

/// `[v, 0, 1, n − 1][pick % 4]`: a drawn operand or one of the edge
/// operands 0, 1 and `n − 1`.
fn edge_or(v: &Uint, n: &Uint, pick: usize) -> Uint {
    match pick % 4 {
        0 => v.clone(),
        1 => Uint::zero(),
        2 => Uint::one(),
        _ => n - &Uint::one(),
    }
}

/// Checks `Montgomery::{mul, pow}` and `FixedExponentPlan::pow` against
/// the generic `mod_mul` / `mod_pow` for one modulus and operand set.
fn kernel_agrees(m: &Uint, a: &Uint, b: &Uint, exp: &Uint) -> Result<(), TestCaseError> {
    let ctx = Montgomery::new(m.clone()).unwrap();
    let product = ctx.from_mont(&ctx.mul(&ctx.to_mont(a), &ctx.to_mont(b)));
    prop_assert_eq!(product, a.mod_mul(b, m).unwrap());
    let square = ctx.from_mont(&ctx.square(&ctx.to_mont(a)));
    prop_assert_eq!(square, a.mod_mul(a, m).unwrap());
    let want = a.mod_pow(exp, m).unwrap();
    prop_assert_eq!(ctx.pow(a, exp).unwrap(), want.clone());
    prop_assert_eq!(FixedExponentPlan::new(exp).pow(&ctx, a), want);
    Ok(())
}

/// Checks `Montgomery::multi_pow` and `SessionFold` against the
/// generic `mod_pow` / `mod_mul` product, for one modulus and `(base,
/// exponent)` rows. The fold absorbs the rows in one batch and, again,
/// in two; the second fold's product is also checked after its first
/// batch, with the second still to come.
fn fold_agrees(m: &Uint, rows: &[(Uint, u64)]) -> Result<(), TestCaseError> {
    let ctx = Montgomery::new(m.clone()).unwrap();
    let (bases, exps): (Vec<Uint>, Vec<u64>) = rows.iter().cloned().unzip();
    let product = |rows: &[(Uint, u64)]| {
        rows.iter().fold(Uint::one(), |acc, (b, x)| {
            acc.mod_mul(&b.mod_pow(&Uint::from_u64(*x), m).unwrap(), m)
                .unwrap()
        })
    };
    let want = product(rows);
    let exps_u: Vec<Uint> = exps.iter().map(|&x| Uint::from_u64(x)).collect();
    prop_assert_eq!(ctx.multi_pow(&bases, &exps_u), want.clone());
    let mut whole = SessionFold::new(&ctx, &exps);
    whole.absorb(&bases, &exps).unwrap();
    prop_assert_eq!(whole.product(), want.clone());
    let half = rows.len() / 2;
    let mut split = SessionFold::new(&ctx, &exps);
    split.absorb(&bases[..half], &exps[..half]).unwrap();
    prop_assert_eq!(split.product(), product(&rows[..half]));
    split.absorb(&bases[half..], &exps[half..]).unwrap();
    prop_assert_eq!(split.product(), want);
    Ok(())
}

/// Strategy: 1..`max` rows of a base of up to `limbs` limbs and a 32-bit
/// exponent.
fn batch(limbs: usize, max: usize) -> impl Strategy<Value = Vec<(Uint, u64)>> {
    prop::collection::vec((uint(limbs), any::<u32>().prop_map(u64::from)), 1..max)
}

/// Strategy: as [`batch`], with every base drawn from exactly `limbs`
/// limbs.
fn batch_exact(limbs: usize, max: usize) -> impl Strategy<Value = Vec<(Uint, u64)>> {
    prop::collection::vec(
        (uint_exact(limbs), any::<u32>().prop_map(u64::from)),
        1..max,
    )
}

/// Strategy: an odd `limbs`-limb value with its top bit set, one factor
/// of a composite modulus exactly twice as wide.
fn factor(limbs: usize) -> impl Strategy<Value = Uint> {
    prop::collection::vec(any::<u64>(), limbs).prop_map(move |mut l| {
        l[0] |= 1;
        l[limbs - 1] |= 1 << 63;
        Uint::from_limbs(l)
    })
}

/// Checks `Montgomery::all_coprime` over `n = f·g` against a gcd per
/// value, for the whole slice and for each value alone. `(seed, pick)`
/// chooses each value: the drawn seed itself (up to `2k + 1` limbs, so
/// sometimes past `n²`), 0, a multiple of `n`, a multiple of `f`, or a
/// `2k`-limb value just below `n²` that is coprime to `n` or shares `f`.
fn unit_check_agrees(f: &Uint, g: &Uint, picks: &[(Uint, usize)]) -> Result<(), TestCaseError> {
    let n = f * g;
    let n2 = n.square();
    let ctx = Montgomery::new(n.clone()).unwrap();
    let values: Vec<Uint> = picks
        .iter()
        .map(|(seed, pick)| {
            let small = Uint::from_u64(seed.limbs().first().map_or(1, |&l| l | 1));
            match pick % 8 {
                0..=2 => seed.clone(),
                3 => Uint::zero(),
                4 => &n * seed,
                5 => f * seed,
                6 => &n2 - &small,
                _ => &n2 - &(f * &small),
            }
        })
        .collect();
    let want = values.iter().all(|v| v.gcd(&n).is_one());
    prop_assert_eq!(ctx.all_coprime(&values), want);
    for v in &values {
        prop_assert_eq!(ctx.all_coprime(std::slice::from_ref(v)), v.gcd(&n).is_one());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- u128 oracle: every operation must agree with native arithmetic ---

    #[test]
    fn add_oracle(a in any::<u64>(), b in any::<u64>()) {
        let sum = &Uint::from_u64(a) + &Uint::from_u64(b);
        prop_assert_eq!(sum, Uint::from_u128(a as u128 + b as u128));
    }

    #[test]
    fn mul_oracle(a in any::<u64>(), b in any::<u64>()) {
        let prod = &Uint::from_u64(a) * &Uint::from_u64(b);
        prop_assert_eq!(prod, Uint::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn div_oracle(a in any::<u128>(), b in 1..=u128::MAX) {
        let (q, r) = Uint::from_u128(a).div_rem(&Uint::from_u128(b)).unwrap();
        prop_assert_eq!(q, Uint::from_u128(a / b));
        prop_assert_eq!(r, Uint::from_u128(a % b));
    }

    #[test]
    fn sub_oracle(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let diff = &Uint::from_u128(hi) - &Uint::from_u128(lo);
        prop_assert_eq!(diff, Uint::from_u128(hi - lo));
    }

    // --- ring axioms on large operands ---

    #[test]
    fn add_commutes(a in uint(12), b in uint(12)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in uint(8), b in uint(8), c in uint(8)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in uint(10), b in uint(10)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associates(a in uint(5), b in uint(5), c in uint(5)) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn distributivity(a in uint(6), b in uint(6), c in uint(6)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_identity(a in uint(12)) {
        prop_assert_eq!(&a + &Uint::zero(), a.clone());
        prop_assert_eq!(&a * &Uint::one(), a);
    }

    // --- division reconstruction on large operands ---

    #[test]
    fn div_rem_reconstructs(a in uint(16), b in uint(9)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    // --- shifts are multiplication/division by powers of two ---

    #[test]
    fn shl_is_mul_pow2(a in uint(6), k in 0usize..200) {
        prop_assert_eq!(a.shl(k), &a * &Uint::one().shl(k));
    }

    #[test]
    fn shl_shr_round_trip(a in uint(6), k in 0usize..200) {
        prop_assert_eq!(a.shl(k).shr(k), a);
    }

    // --- codecs round-trip ---

    #[test]
    fn bytes_round_trip(a in uint(10)) {
        prop_assert_eq!(Uint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_round_trip(a in uint(10)) {
        prop_assert_eq!(Uint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_round_trip(a in uint(6)) {
        prop_assert_eq!(Uint::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    // --- gcd laws ---

    #[test]
    fn gcd_divides_both(a in uint(6), b in uint(6)) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.rem_of(&g).unwrap().is_zero());
            prop_assert!(b.rem_of(&g).unwrap().is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn gcd_lcm_product(a in 1u64.., b in 1u64..) {
        let (a, b) = (Uint::from_u64(a), Uint::from_u64(b));
        prop_assert_eq!(&a.gcd(&b) * &a.lcm(&b), &a * &b);
    }

    // --- modular arithmetic laws ---

    #[test]
    fn mod_add_matches_oracle(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        let got = Uint::from_u64(a).mod_add(&Uint::from_u64(b), &Uint::from_u64(m)).unwrap();
        prop_assert_eq!(got, Uint::from_u128((a as u128 + b as u128) % m as u128));
    }

    #[test]
    fn mod_sub_then_add_cancels(a in any::<u64>(), b in any::<u64>(), m in 2u64..) {
        let m = Uint::from_u64(m);
        let a = Uint::from_u64(a);
        let b = Uint::from_u64(b);
        let d = a.mod_sub(&b, &m).unwrap();
        prop_assert_eq!(d.mod_add(&b, &m).unwrap(), a.rem_of(&m).unwrap());
    }

    #[test]
    fn mod_pow_small_exponent_oracle(a in any::<u32>(), e in 0u32..12, m in 2u64..) {
        let m_big = Uint::from_u64(m);
        let got = Uint::from_u64(a as u64).mod_pow(&Uint::from_u64(e as u64), &m_big).unwrap();
        let mut expect = 1u128;
        for _ in 0..e {
            expect = expect * (a as u128 % m as u128) % m as u128;
        }
        prop_assert_eq!(got, Uint::from_u128(expect));
    }

    // --- Montgomery agrees with the generic path ---

    #[test]
    fn montgomery_pow_matches_generic(
        base in uint(5),
        exp in uint(2),
        m in uint(5),
    ) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        let ctx = Montgomery::new(m.clone()).unwrap();
        prop_assert_eq!(ctx.pow(&base, &exp).unwrap(), base.mod_pow(&exp, &m).unwrap());
    }

    #[test]
    fn montgomery_mul_matches_generic(a in uint(5), b in uint(5), m in uint(5)) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        let ctx = Montgomery::new(m.clone()).unwrap();
        let got = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, a.mod_mul(&b, &m).unwrap());
    }

    // --- Montgomery kernel edge cases ---

    #[test]
    fn kernel_top_limb_max_modulus(
        m in top_limb_max_modulus(5),
        a in uint(5),
        b in uint(5),
        exp in uint(2),
        wide in at_kernel_widths(|k| (top_limb_max_modulus_exact(k), uint_exact(k), uint_exact(k))),
        picks in (any::<usize>(), any::<usize>()),
    ) {
        kernel_agrees(&m, &a, &b, &exp)?;
        // At every kernel width, full-width operands, each replaced by
        // 0, 1 or n − 1 in three cases of four.
        for (m, a, b) in wide {
            let (a, b) = (edge_or(&a, &m, picks.0), edge_or(&b, &m, picks.1));
            kernel_agrees(&m, &a, &b, &exp)?;
        }
    }

    #[test]
    fn kernel_one_limb_modulus(m in 3u64.., a in any::<u64>(), b in any::<u64>(), exp in any::<u64>()) {
        let m = Uint::from_u64(m | 1);
        kernel_agrees(&m, &Uint::from_u64(a), &Uint::from_u64(b), &Uint::from_u64(exp))?;
    }

    #[test]
    fn kernel_operands_shorter_than_modulus(
        m in uint(5),
        a in uint(2),
        b in uint(2),
        exp in uint(1),
    ) {
        prop_assume!(m.is_odd() && m.limbs().len() >= 3);
        kernel_agrees(&m, &a, &b, &exp)?;
    }

    #[test]
    fn kernel_bases_at_least_modulus(m in uint(3), extra in uint(3), exp in uint(2)) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        // n, n + extra and n·(extra + 1): all reduce before the kernel.
        for base in [m.clone(), &m + &extra, &m * &(&extra + &Uint::one())] {
            kernel_agrees(&m, &base, &m, &exp)?;
        }
    }

    #[test]
    fn kernel_exponents_zero_and_one(m in uint(4), a in uint(4)) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        for exp in [Uint::zero(), Uint::one()] {
            kernel_agrees(&m, &a, &a, &exp)?;
        }
    }

    // --- inverse really inverts ---

    #[test]
    fn mod_inverse_multiplies_to_one(a in uint(4), m in uint(4)) {
        prop_assume!(m.bit_len() >= 2);
        if let Ok(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mod_mul(&inv, &m).unwrap(), Uint::one());
        } else {
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    // --- CRT reconstructs ---

    #[test]
    fn crt_reconstructs(x in any::<u64>(), p in 2u64..50_000, q in 2u64..50_000) {
        let (p, q) = (Uint::from_u64(p), Uint::from_u64(q));
        prop_assume!(p.gcd(&q).is_one());
        let x = Uint::from_u64(x).rem_of(&(&p * &q)).unwrap();
        let got = crt_combine(
            &[x.rem_of(&p).unwrap(), x.rem_of(&q).unwrap()],
            &[p, q],
        ).unwrap();
        prop_assert_eq!(got, x);
    }

    // --- the batch check at the modulus width agrees with a gcd per value ---

    #[test]
    fn unit_check_matches_per_value_gcd(
        cases in at_kernel_widths(|k| (
            factor(k / 2),
            factor(k / 2),
            prop::collection::vec((uint(2 * k + 1), any::<usize>()), 1..6),
        )),
    ) {
        // 4, 8 and 16 limbs run the fixed-width reduction, 12 the slice
        // kernel's.
        for (f, g, picks) in cases {
            unit_check_agrees(&f, &g, &picks)?;
        }
    }
}

proptest! {
    // Each case reduces the buckets three times and checks against a
    // generic power per row, so these run fewer cases than the kernel
    // properties above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // --- the session's bucket fold agrees with Straus ---

    #[test]
    fn fold_top_limb_max_modulus(
        m in top_limb_max_modulus(4),
        rows in batch(4, 8),
        wide in at_kernel_widths(|k| (top_limb_max_modulus_exact(k), batch_exact(k, 6))),
        x in any::<u32>(),
    ) {
        fold_agrees(&m, &rows)?;
        // At every kernel width, full-width bases plus the edge bases 0,
        // 1 and n − 1.
        for (m, mut rows) in wide {
            for pick in 1..4 {
                rows.push((edge_or(&Uint::zero(), &m, pick), u64::from(x)));
            }
            fold_agrees(&m, &rows)?;
        }
    }

    #[test]
    fn fold_one_limb_modulus(m in 3u64.., rows in batch(1, 8)) {
        fold_agrees(&Uint::from_u64(m | 1), &rows)?;
    }

    #[test]
    fn fold_bases_shorter_than_modulus(m in uint(5), rows in batch(2, 8)) {
        prop_assume!(m.is_odd() && m.limbs().len() >= 3);
        fold_agrees(&m, &rows)?;
    }

    #[test]
    fn fold_bases_at_least_modulus(m in uint(3), rows in batch(3, 8)) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        let rows: Vec<_> = rows.into_iter().map(|(extra, x)| (&m + &extra, x)).collect();
        fold_agrees(&m, &rows)?;
    }

    #[test]
    fn fold_one_base(m in top_limb_max_modulus(3), base in uint(3), x in any::<u32>()) {
        fold_agrees(&m, &[(base, u64::from(x))])?;
    }

    #[test]
    fn fold_rows_sharing_digits(
        m in uint(3),
        pool in prop::collection::vec(any::<u32>(), 1..3),
        picks in prop::collection::vec((uint(3), any::<usize>()), 2..10),
    ) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        // Every exponent comes from a pool of one or two, so rows share
        // their digit in every window and buckets multiply.
        let rows: Vec<_> = picks
            .into_iter()
            .map(|(base, i)| (base, u64::from(pool[i % pool.len()])))
            .collect();
        fold_agrees(&m, &rows)?;
    }

    #[test]
    fn fold_all_zero_window(m in uint(3), rows in batch(3, 8)) {
        prop_assume!(m.is_odd() && m.bit_len() >= 2);
        // Bits 16..24 are clear in every exponent: at the narrow windows
        // a few rows get, whole windows between nonzero ones are empty.
        let rows: Vec<_> = rows
            .into_iter()
            .map(|(base, x)| (base, x & !0x00ff_0000 | 0x0100_0001))
            .collect();
        fold_agrees(&m, &rows)?;
    }
}
