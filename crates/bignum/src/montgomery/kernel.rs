//! The Montgomery product and squaring at one operand width, and the
//! choice of body by width.
//!
//! Every loop in the crate that multiplies in Montgomery form — the
//! window loop ([`crate::FixedExponentPlan::pow_mont`]), the session's
//! bucket fold ([`crate::SessionFold`]) and the Straus `multi_pow` — is
//! generic over [`Kernel`], and [`with_kernel!`] picks the kernel from
//! [`Montgomery::width`] once per power, batch or product. A 512-bit key runs three widths, and each
//! gets stack operands and bodies whose bounds are compile-time
//! constants, chosen from the measured rows in DESIGN.md:
//!
//! | limbs | modulus at a 512-bit key | product | squaring |
//! |---|---|---|---|
//! | 4 | `p`, `q` | CIOS | SOS |
//! | 8 | `p²`, `q²` | CIOS | SOS |
//! | 16 | `N²` | SOS | SOS |
//! | any other | — | slice kernel | slice kernel |
//!
//! CIOS interleaves the reduction with the product, one limb of `b` a
//! round ([`Montgomery::mont_mul`] is the same loop over slices). SOS
//! forms the full double-width product first and then runs `K` reduction
//! rounds; for a square that product needs each cross product `aᵢ·aⱼ`
//! only once, doubled, which saves a quarter of the multiplications.
//! SOS's reduction rounds (`redc`) also run alone, as [`Kernel::redc`],
//! to bring a value below `n²` to the modulus width for
//! [`Montgomery::all_coprime`]; [`Montgomery::mont_redc`] is their slice
//! form. Every body returns the fully reduced value, so all of them
//! agree bit for bit with the slice kernel, which stays the reference
//! the unit tests compare against.

use super::Montgomery;
use crate::uint::Uint;

/// Widths from which a general product runs the SOS body rather than
/// CIOS: the SOS product ran 0.95×, 0.91× and 1.12× the speed of CIOS
/// at 4, 8 and 16 limbs (DESIGN.md's kernel ledger).
const SOS_PRODUCT_MIN_LIMBS: usize = 16;

/// Montgomery arithmetic modulo one context's `n`, on operands of one
/// representation: `k` limbs in Montgomery form, below `n`.
pub(crate) trait Kernel {
    /// One operand.
    type Elem: Clone;

    /// The context this kernel reduces by.
    fn ctx(&self) -> &Montgomery;

    /// The normalized `limbs` of a value below `n` as an operand.
    fn load(&self, limbs: &[u64]) -> Self::Elem;

    /// The operand's `k` limbs.
    fn limbs<'e>(&self, e: &'e Self::Elem) -> &'e [u64];

    /// `a ← a·b·R⁻¹ mod n`.
    fn mul(&mut self, a: &mut Self::Elem, b: &Self::Elem);

    /// `a ← a²·R⁻¹ mod n`.
    fn square(&mut self, a: &mut Self::Elem);

    /// `t·R⁻¹ mod n` for a `t < n·R` given as at most `2k` normalized
    /// limbs: one Montgomery reduction and no product, so a value below
    /// `n²` comes down to the modulus width.
    fn redc(&mut self, t: &[u64]) -> Self::Elem;

    /// The Montgomery form of 1.
    fn one(&self) -> Self::Elem {
        self.load(self.ctx().r_mod_n.limbs())
    }

    /// The Montgomery form of `R`.
    fn radix(&self) -> Self::Elem {
        self.load(self.ctx().r2_mod_n.limbs())
    }

    /// `v` (reduced mod `n` first) loaded as it is, with no product: as
    /// an operand it stands for `v·R⁻¹`.
    fn load_raw(&self, v: &Uint) -> Self::Elem {
        self.load(self.ctx().reduced(v).limbs())
    }

    /// `v` (reduced mod `n` first) into Montgomery form: one product by
    /// `R²`.
    fn enter(&mut self, v: &Uint) -> Self::Elem {
        let mut e = self.load_raw(v);
        let r2 = self.radix();
        self.mul(&mut e, &r2);
        e
    }

    /// `e` out of Montgomery form, as a value in `[0, n)`: one product
    /// by 1.
    fn leave(&mut self, mut e: Self::Elem) -> Uint {
        let one = self.load(&[1]);
        self.mul(&mut e, &one);
        self.to_uint(&e)
    }

    /// The operand's limbs as a value, without leaving Montgomery form.
    fn to_uint(&self, e: &Self::Elem) -> Uint {
        Uint::from_limbs(self.limbs(e).to_vec())
    }
}

/// Runs `$body` with `$kr` bound to a `&mut impl Kernel` for the context
/// `$ctx`, picked from [`Montgomery::width`]: the fixed-width kernel at
/// 4, 8 and 16 limbs, the slice kernel at every other width. The body is
/// compiled once per kernel, so it should be a call to a generic
/// function.
macro_rules! with_kernel {
    ($ctx:expr, |$kr:ident| $body:expr) => {{
        use $crate::montgomery::kernel::{Fixed, Slice};
        let ctx: &$crate::montgomery::Montgomery = $ctx;
        match ctx.width() {
            4 => {
                let $kr = &mut Fixed::<4, 8>::new(ctx);
                $body
            }
            8 => {
                let $kr = &mut Fixed::<8, 16>::new(ctx);
                $body
            }
            16 => {
                let $kr = &mut Fixed::<16, 32>::new(ctx);
                $body
            }
            _ => {
                let $kr = &mut Slice::new(ctx);
                $body
            }
        }
    }};
}
pub(crate) use with_kernel;

/// The slice kernel, [`Montgomery::mont_mul`], at any width: operands
/// are `k`-limb vectors, and each product lands in the kernel's own
/// `k + 1`-limb scratch before it is copied back.
pub(crate) struct Slice<'a> {
    ctx: &'a Montgomery,
    scratch: Vec<u64>,
}

impl<'a> Slice<'a> {
    pub(crate) fn new(ctx: &'a Montgomery) -> Self {
        Slice {
            ctx,
            scratch: vec![0; ctx.width() + 1],
        }
    }
}

impl Kernel for Slice<'_> {
    type Elem = Vec<u64>;

    fn ctx(&self) -> &Montgomery {
        self.ctx
    }

    fn load(&self, limbs: &[u64]) -> Vec<u64> {
        let mut e = vec![0; self.ctx.width()];
        e[..limbs.len()].copy_from_slice(limbs);
        e
    }

    fn limbs<'e>(&self, e: &'e Vec<u64>) -> &'e [u64] {
        e
    }

    fn mul(&mut self, a: &mut Vec<u64>, b: &Vec<u64>) {
        let k = a.len();
        self.ctx.mont_mul(a, b, &mut self.scratch);
        a.copy_from_slice(&self.scratch[..k]);
    }

    fn square(&mut self, a: &mut Vec<u64>) {
        let k = a.len();
        self.ctx.mont_mul(a, a, &mut self.scratch);
        a.copy_from_slice(&self.scratch[..k]);
    }

    fn redc(&mut self, t: &[u64]) -> Vec<u64> {
        let k = self.ctx.width();
        let mut wide = vec![0; 2 * k];
        wide[..t.len()].copy_from_slice(t);
        self.ctx.mont_redc(&mut wide);
        wide.split_off(k)
    }
}

/// The kernel for a `K`-limb modulus, on `[u64; K]` stack operands; `W`
/// is `2K`, the width of the SOS bodies' double-width product.
pub(crate) struct Fixed<'a, const K: usize, const W: usize> {
    ctx: &'a Montgomery,
    n: &'a [u64; K],
}

impl<'a, const K: usize, const W: usize> Fixed<'a, K, W> {
    /// Rejects an instantiation whose `W` is not `2K` at compile time.
    const DOUBLE_WIDTH: () = assert!(W == 2 * K);

    /// # Panics
    /// When the context's width is not `K` (a dispatch bug).
    pub(crate) fn new(ctx: &'a Montgomery) -> Self {
        let () = Self::DOUBLE_WIDTH;
        let n = ctx.n.limbs().try_into().expect("modulus is K limbs wide");
        Fixed { ctx, n }
    }
}

impl<const K: usize, const W: usize> Kernel for Fixed<'_, K, W> {
    type Elem = [u64; K];

    fn ctx(&self) -> &Montgomery {
        self.ctx
    }

    fn load(&self, limbs: &[u64]) -> [u64; K] {
        let mut e = [0; K];
        e[..limbs.len()].copy_from_slice(limbs);
        e
    }

    fn limbs<'e>(&self, e: &'e [u64; K]) -> &'e [u64] {
        e
    }

    #[inline(always)]
    fn mul(&mut self, a: &mut [u64; K], b: &[u64; K]) {
        *a = if K >= SOS_PRODUCT_MIN_LIMBS {
            sos_mul::<K, W>(a, b, self.n, self.ctx.n_prime)
        } else {
            cios_mul(a, b, self.n, self.ctx.n_prime)
        };
    }

    #[inline(always)]
    fn square(&mut self, a: &mut [u64; K]) {
        *a = sos_square::<K, W>(a, self.n, self.ctx.n_prime);
    }

    fn redc(&mut self, t: &[u64]) -> [u64; K] {
        let mut wide = [0u64; W];
        wide[..t.len()].copy_from_slice(t);
        redc::<K, W>(wide, self.n, self.ctx.n_prime)
    }
}

/// A kernel that counts its products and squarings, and apart from them
/// its reductions: exact, host-independent work for the tests' gates.
#[cfg(test)]
pub(crate) struct Counting<K> {
    inner: K,
    /// Products and squarings so far.
    pub(crate) products: usize,
    /// Reductions ([`Kernel::redc`]) so far.
    pub(crate) reductions: usize,
}

#[cfg(test)]
impl<K> Counting<K> {
    pub(crate) fn new(inner: K) -> Self {
        Counting {
            inner,
            products: 0,
            reductions: 0,
        }
    }
}

#[cfg(test)]
impl<K: Kernel> Kernel for Counting<K> {
    type Elem = K::Elem;

    fn ctx(&self) -> &Montgomery {
        self.inner.ctx()
    }

    fn load(&self, limbs: &[u64]) -> K::Elem {
        self.inner.load(limbs)
    }

    fn limbs<'e>(&self, e: &'e K::Elem) -> &'e [u64] {
        self.inner.limbs(e)
    }

    fn mul(&mut self, a: &mut K::Elem, b: &K::Elem) {
        self.products += 1;
        self.inner.mul(a, b);
    }

    fn square(&mut self, a: &mut K::Elem) {
        self.products += 1;
        self.inner.square(a);
    }

    fn redc(&mut self, t: &[u64]) -> K::Elem {
        self.reductions += 1;
        self.inner.redc(t)
    }
}

/// `a·b·R⁻¹ mod n` by CIOS: [`Montgomery::mont_mul`]'s rounds, with the
/// carry word `top` in a register.
#[inline(always)]
fn cios_mul<const K: usize>(a: &[u64; K], b: &[u64; K], n: &[u64; K], n_prime: u64) -> [u64; K] {
    let mut t = [0u64; K];
    let mut top = 0u64;
    for &bi in b {
        let s = u128::from(a[0]) * u128::from(bi) + u128::from(t[0]);
        let m = (s as u64).wrapping_mul(n_prime);
        let mut c1 = (s >> 64) as u64;
        let s = u128::from(m) * u128::from(n[0]) + u128::from(s as u64);
        let mut c2 = (s >> 64) as u64;
        for j in 1..K {
            let s = u128::from(a[j]) * u128::from(bi) + u128::from(t[j]) + u128::from(c1);
            c1 = (s >> 64) as u64;
            let s = u128::from(m) * u128::from(n[j]) + u128::from(s as u64) + u128::from(c2);
            c2 = (s >> 64) as u64;
            t[j - 1] = s as u64;
        }
        let s = u128::from(top) + u128::from(c1) + u128::from(c2);
        t[K - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    reduce_once(&t, top, n)
}

/// `a·b·R⁻¹ mod n` by SOS: the schoolbook product, then [`redc`].
#[inline(always)]
fn sos_mul<const K: usize, const W: usize>(
    a: &[u64; K],
    b: &[u64; K],
    n: &[u64; K],
    n_prime: u64,
) -> [u64; K] {
    let mut t = [0u64; W];
    for i in 0..K {
        let mut c = 0u64;
        for j in 0..K {
            let s = u128::from(a[i]) * u128::from(b[j]) + u128::from(t[i + j]) + u128::from(c);
            t[i + j] = s as u64;
            c = (s >> 64) as u64;
        }
        t[i + K] = c;
    }
    redc(t, n, n_prime)
}

/// `a²·R⁻¹ mod n` by SOS: each cross product `aᵢ·aⱼ` (`i < j`) once, the
/// sum doubled by a one-bit shift, the squares `aᵢ²` added on the
/// diagonal, then [`redc`].
#[inline(always)]
fn sos_square<const K: usize, const W: usize>(
    a: &[u64; K],
    n: &[u64; K],
    n_prime: u64,
) -> [u64; K] {
    let mut t = [0u64; W];
    for i in 0..K {
        let mut c = 0u64;
        for j in i + 1..K {
            let s = u128::from(a[i]) * u128::from(a[j]) + u128::from(t[i + j]) + u128::from(c);
            t[i + j] = s as u64;
            c = (s >> 64) as u64;
        }
        t[i + K] = c;
    }
    // The cross products sum to less than a²/2 < R²/2, so doubling
    // shifts no bit out of the top limb.
    let mut shifted_out = 0u64;
    for x in &mut t {
        let next = *x >> 63;
        *x = (*x << 1) | shifted_out;
        shifted_out = next;
    }
    let mut c = 0u64;
    for i in 0..K {
        let s = u128::from(a[i]) * u128::from(a[i]) + u128::from(t[2 * i]) + u128::from(c);
        t[2 * i] = s as u64;
        let s = u128::from(t[2 * i + 1]) + (s >> 64);
        t[2 * i + 1] = s as u64;
        c = (s >> 64) as u64;
    }
    redc(t, n, n_prime)
}

/// Montgomery reduction (REDC) of a double-width `t < n·R` (every
/// product of two operands below `n` is below `n²`, in range): `K` rounds
/// each add the multiple of `n` that clears the lowest live limb,
/// leaving `t·R⁻¹ mod n` in the high half. The sum can pass `R²`, so the
/// carry out of the top limb is kept as the carry word, which is 0 or 1
/// as the result is below `2n`. [`Montgomery::mont_redc`] is the same
/// loop over slices.
#[inline(always)]
fn redc<const K: usize, const W: usize>(mut t: [u64; W], n: &[u64; K], n_prime: u64) -> [u64; K] {
    let mut top = 0u64;
    for i in 0..K {
        let m = t[i].wrapping_mul(n_prime);
        let mut c = 0u64;
        for j in 0..K {
            let s = u128::from(m) * u128::from(n[j]) + u128::from(t[i + j]) + u128::from(c);
            t[i + j] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = u128::from(t[i + K]) + u128::from(c) + u128::from(top);
        t[i + K] = s as u64;
        top = (s >> 64) as u64;
    }
    let mut high = [0u64; K];
    high.copy_from_slice(&t[K..]);
    reduce_once(&high, top, n)
}

/// The value `top·R + t`, known to be below `2n`, reduced below `n`: it
/// is at least `n` when subtracting `n` from the low limbs borrows
/// nothing, or when the carry word absorbs the borrow.
#[inline(always)]
fn reduce_once<const K: usize>(t: &[u64; K], top: u64, n: &[u64; K]) -> [u64; K] {
    let mut d = [0u64; K];
    let mut borrow = false;
    for j in 0..K {
        let (x, b1) = t[j].overflowing_sub(n[j]);
        let (x, b2) = x.overflowing_sub(u64::from(borrow));
        d[j] = x;
        borrow = b1 | b2;
    }
    if top != 0 || !borrow {
        d
    } else {
        *t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The slice kernel's `a·b·R⁻¹ mod n`, the reference.
    fn reference(ctx: &Montgomery, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut t = vec![0; ctx.width() + 1];
        ctx.mont_mul(a, b, &mut t);
        t.truncate(ctx.width());
        t
    }

    /// The slice kernel's `t·R⁻¹ mod n` for a `t < n·R` of at most `2k`
    /// limbs, the reference.
    fn reference_redc(ctx: &Montgomery, t: &[u64]) -> Vec<u64> {
        Slice::new(ctx).redc(t)
    }

    /// Random `K`-limb odd moduli, half of them with a top limb of
    /// `u64::MAX` (the carry word live), and for each random operands
    /// plus 0, 1 and `n − 1`.
    fn check_width<const K: usize, const W: usize>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..16 {
            let mut limbs: Vec<u64> = (0..K).map(|_| rng.gen()).collect();
            limbs[0] |= 1;
            if round % 2 == 0 {
                limbs[K - 1] = u64::MAX;
            } else {
                limbs[K - 1] |= 1 << 63;
            }
            let n = Uint::from_limbs(limbs);
            let ctx = Montgomery::new(n.clone()).unwrap();
            let mut ops = vec![Uint::zero(), Uint::one(), &n - &Uint::one()];
            ops.extend((0..6).map(|_| Uint::random_below(&mut rng, &n).unwrap()));
            let kr = &mut Fixed::<K, W>::new(&ctx);
            let np = ctx.n_prime;
            for a in &ops {
                let a = kr.load(a.limbs());
                let want = reference(&ctx, &a, &a);
                assert_eq!(sos_square::<K, W>(&a, kr.n, np).to_vec(), want, "K={K}");
                let mut sq = a;
                kr.square(&mut sq);
                assert_eq!(sq.to_vec(), want, "K={K}");
                for b in &ops {
                    let b = kr.load(b.limbs());
                    let want = reference(&ctx, &a, &b);
                    assert_eq!(cios_mul(&a, &b, kr.n, np).to_vec(), want, "K={K}");
                    assert_eq!(sos_mul::<K, W>(&a, &b, kr.n, np).to_vec(), want, "K={K}");
                    let mut prod = a;
                    kr.mul(&mut prod, &b);
                    assert_eq!(prod.to_vec(), want, "K={K}");
                    // The reduction body alone, on the double-width value
                    // `a·R + b` (below n·R) and on the plain product a·b.
                    let mut wide = [0u64; W];
                    wide[..K].copy_from_slice(&b);
                    wide[K..].copy_from_slice(&a);
                    let want = reference_redc(&ctx, &wide);
                    assert_eq!(redc::<K, W>(wide, kr.n, np).to_vec(), want, "K={K}");
                    let wide = Uint::from_limbs(wide.to_vec());
                    assert_eq!(kr.redc(wide.limbs()).to_vec(), want, "K={K}");
                    let plain = &Uint::from_limbs(a.to_vec()) * &Uint::from_limbs(b.to_vec());
                    let want = reference_redc(&ctx, plain.limbs());
                    assert_eq!(kr.redc(plain.limbs()).to_vec(), want, "K={K}");
                }
            }
            // The widest input REDC takes: n·R − 1.
            let top = &(&n * &Uint::one().shl(64 * K)) - &Uint::one();
            let want = reference_redc(&ctx, top.limbs());
            assert_eq!(kr.redc(top.limbs()).to_vec(), want, "K={K}");
            assert_eq!(
                Uint::from_limbs(want)
                    .mod_mul(&Uint::one().shl(64 * K), &n)
                    .unwrap(),
                top.rem_of(&n).unwrap(),
                "K={K}: t·R⁻¹·R ≡ t"
            );
        }
    }

    #[test]
    fn fixed_width_bodies_match_the_slice_kernel() {
        check_width::<4, 8>(4);
        check_width::<8, 16>(8);
        check_width::<16, 32>(16);
    }
}
