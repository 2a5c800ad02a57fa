//! The hot exponentiation paths: the server's session fold, the
//! fixed-exponent plan, and the key owner's fixed-base comb.
//!
//! The selected-sum server evaluates `Π bᵢ^{xᵢ} mod N²`, where the bases
//! `bᵢ` are one query's ciphertexts, arriving batch by batch, and the
//! exponents `xᵢ` are the database rows; a holder of only `N` evaluates
//! `r^N mod N²`, where the exponent `N` is fixed per key while the base
//! `r` is fresh per randomizer; the key owner draws the same randomizer
//! as `h^α mod s²` for each prime `s`, where the base `h` is fixed per
//! key and the exponent `α` is fresh.
//!
//! * [`SessionFold`] — one query's Pippenger buckets, kept for the whole
//!   session. Each batch multiplies every base into the bucket of its
//!   row's digit in every window, one Montgomery product per base per
//!   window; [`SessionFold::product`] reduces the buckets, one
//!   suffix-product pass per window, once per query rather than once per
//!   batch. The interleaved Straus fold ([`Montgomery::multi_pow`]) pays
//!   one product per *set bit* instead (≈ 16 a base for 32-bit rows).
//! * [`FixedExponentPlan`] — the window digits of one fixed exponent,
//!   recoded once, so each `r^N` pays only the per-base table build and
//!   the multiply/square chain, not the exponent bit-scan.
//! * [`FixedBaseComb`] — a Lim–Lee comb table of one fixed base, built
//!   once, so each power pays one squaring and one product per column
//!   and no per-call table.
//!
//! All pick their Montgomery kernel from the modulus width: at 4, 8 and
//! 16 limbs they run on `[u64; K]` stack operands with width-specialised
//! bodies, the window loop's squarings on the dedicated squaring; at
//! other widths on the slice kernel. The loops themselves are written
//! once, generic over the kernel.

use crate::error::BignumError;
use crate::montgomery::kernel::{with_kernel, Fixed, Kernel, Slice};
use crate::montgomery::{MontElem, Montgomery};
use crate::uint::Uint;

/// Granularity of the fixed-exponent plan's window digits.
const BASE_WINDOW_BITS: usize = 4;

/// Widest window the session fold's cost model considers.
const WIDEST_WINDOW_BITS: usize = 8;

/// Bucket memory one [`SessionFold`] may hold, in bytes; it bounds the
/// windows. At a 512-bit key (128-byte operands modulo `N²`) it allows
/// windows of 7, 7, 6, 6 and 6 bits for 32-bit rows: 443 buckets, 56,704
/// bytes, where four 8-bit windows would need 130,560. Every live
/// session holds its buckets, so wider windows trade resident memory
/// for speed. In the window-cap sweep on the benchmark's
/// `replay_saturate` (two sessions live at once, 2-vCPU VM), caps of 6,
/// 7 and 8 bits raised throughput 36.8 %, 43.6 % and 59.0 % over the
/// per-batch fold and `peak_rss_mib` 2.1 %, 7.1 % and 12.1 %, against
/// the benchmark's 10 % bound (DESIGN.md, the session fold).
const BUCKET_BUDGET_BYTES: usize = 64 * 1024;

// Compile-time audit: a fixed-exponent plan is shared read-only behind
// an `Arc` by every encryption worker. Interior mutability added here
// would silently serialize or break that sharing; make it a build
// failure instead.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FixedExponentPlan>();
    assert_send_sync::<FixedBaseComb>();
};

/// One query's bucket fold `Π bᵢ^{xᵢ} mod n`, kept for a whole session:
/// built once for the rows the session will fold, fed batch by batch
/// with [`SessionFold::absorb`], and reduced with
/// [`SessionFold::product`].
///
/// The windows cover the widest row's bits exactly, in widths as equal
/// as possible. In every window, of `w` bits, each absorbed base is
/// multiplied into the bucket of its row's digit there: one Montgomery
/// product per base per window, whatever the batch length. The product
/// raises each bucket to its digit with one suffix-product pass per
/// window, ≈ `2·2^w` products, paid once per query.
///
/// The bases enter as they are, not in Montgomery form: in a Montgomery
/// kernel a value `b < n` stands for `b·R⁻¹`. So the buckets reduce to
/// `P·R^(−S)`, where `S` is the sum of the absorbed rows' values, and
/// the product multiplies by `R^S` once (≈ 66 products for 2000 32-bit
/// rows) instead of each base paying a product by `R²`.
///
/// # Examples
///
/// ```
/// use pps_bignum::{Montgomery, SessionFold, Uint};
///
/// let ctx = Montgomery::new(Uint::from_u64(101 * 103)).unwrap();
/// let rows = [3u64, 0, 7];
/// let bases = [Uint::from_u64(2), Uint::from_u64(5), Uint::from_u64(9)];
/// let mut fold = SessionFold::new(&ctx, &rows);
/// fold.absorb(&bases[..2], &rows[..2]).unwrap();
/// fold.absorb(&bases[2..], &rows[2..]).unwrap();
/// let exps = [Uint::from_u64(3), Uint::zero(), Uint::from_u64(7)];
/// assert_eq!(fold.product(), ctx.multi_pow(&bases, &exps));
/// ```
pub struct SessionFold {
    ctx: Montgomery,
    shape: Shape,
    /// The sum of the absorbed rows' values: the power of `R⁻¹` the
    /// buckets carry.
    exponent_sum: u128,
    buckets: Buckets,
}

/// The window widths of one fold, least significant first.
#[derive(Clone)]
struct Shape {
    widths: Vec<usize>,
}

/// `windows` window widths, as equal as possible and the wider first,
/// that sum to `value_bits`.
fn even_widths(value_bits: usize, windows: usize) -> impl Iterator<Item = usize> {
    (0..windows).map(move |i| (value_bits + windows - 1 - i) / windows)
}

/// Buckets in a window of `w` bits: one for each nonzero digit.
fn buckets_in(w: usize) -> usize {
    (1 << w) - 1
}

impl Shape {
    /// The windows for folding `rows` rows of at most `value_bits` bits
    /// into buckets of `operand_bytes` each: `value_bits` split evenly
    /// into the window count that minimizes `rows·windows + Σ 2^(w+1)`,
    /// the scatter's products plus the reduction's, among the counts
    /// whose widths are at most [`WIDEST_WINDOW_BITS`] and whose buckets
    /// fit [`BUCKET_BUDGET_BYTES`]. No bits, no windows.
    fn for_rows(rows: usize, value_bits: usize, operand_bytes: usize) -> Self {
        let windows = (value_bits.div_ceil(WIDEST_WINDOW_BITS)..=value_bits)
            .filter(|&c| {
                let buckets: usize = even_widths(value_bits, c).map(buckets_in).sum();
                buckets * operand_bytes <= BUCKET_BUDGET_BYTES
            })
            .min_by_key(|&c| rows * c + even_widths(value_bits, c).map(|w| 2 << w).sum::<usize>())
            .unwrap_or(value_bits);
        Shape {
            widths: even_widths(value_bits, windows).collect(),
        }
    }

    /// Buckets in all.
    fn buckets(&self) -> usize {
        self.widths.iter().copied().map(buckets_in).sum()
    }

    /// Bits of a row value the windows cover.
    fn value_bits(&self) -> usize {
        self.widths.iter().sum()
    }
}

/// The buckets, stored as the operands of the kernel for the modulus
/// width.
enum Buckets {
    L4(Slots<[u64; 4]>),
    L8(Slots<[u64; 8]>),
    L16(Slots<[u64; 16]>),
    Any(Slots<Vec<u64>>),
}

/// Runs `$body` with `$kr` bound to the kernel for `$ctx` and `$v` to
/// the contents of `$value`, a `$store` ([`Buckets`] or [`CombTable`])
/// whose variant holds that kernel's operands.
macro_rules! on_width {
    ($ctx:expr, $store:ident, $value:expr, |$kr:ident, $v:ident| $body:expr) => {
        match $value {
            $store::L4($v) => {
                let $kr = &mut Fixed::<4, 8>::new($ctx);
                $body
            }
            $store::L8($v) => {
                let $kr = &mut Fixed::<8, 16>::new($ctx);
                $body
            }
            $store::L16($v) => {
                let $kr = &mut Fixed::<16, 32>::new($ctx);
                $body
            }
            $store::Any($v) => {
                let $kr = &mut Slice::new($ctx);
                $body
            }
        }
    };
}

impl SessionFold {
    /// A fold for `rows`, the values of the rows the session will fold.
    /// The windows are chosen here, once, from their number and the bit
    /// length of the largest, and the buckets are allocated here; they
    /// are freed with the fold.
    pub fn new(ctx: &Montgomery, rows: &[u64]) -> Self {
        let value_bits = rows
            .iter()
            .map(|&x| 64 - x.leading_zeros() as usize)
            .max()
            .unwrap_or(0);
        let operand_bytes = ctx.width() * std::mem::size_of::<u64>();
        Self::with_shape(ctx, Shape::for_rows(rows.len(), value_bits, operand_bytes))
    }

    fn with_shape(ctx: &Montgomery, shape: Shape) -> Self {
        let count = shape.buckets();
        let buckets = match ctx.width() {
            4 => Buckets::L4(Slots::new(&Fixed::<4, 8>::new(ctx), count)),
            8 => Buckets::L8(Slots::new(&Fixed::<8, 16>::new(ctx), count)),
            16 => Buckets::L16(Slots::new(&Fixed::<16, 32>::new(ctx), count)),
            _ => Buckets::Any(Slots::new(&Slice::new(ctx), count)),
        };
        SessionFold {
            ctx: ctx.clone(),
            shape,
            exponent_sum: 0,
            buckets,
        }
    }

    /// The window widths in bits, least significant first, chosen at
    /// construction: they sum to the bit length of the widest row.
    pub fn window_bits(&self) -> &[usize] {
        &self.shape.widths
    }

    /// Heap bytes the bucket operands hold: `2^w − 1` operands as wide as
    /// the modulus for each window of `w` bits.
    pub fn bucket_bytes(&self) -> usize {
        self.shape.buckets() * self.ctx.width() * std::mem::size_of::<u64>()
    }

    /// Scatters one batch: each of `bases` (a base `≥ n` is reduced
    /// first) is to be raised to the value at the same position in
    /// `values`, its row's.
    ///
    /// # Errors
    /// [`BignumError::ValueTooLarge`] when a value is wider than the rows
    /// the fold was built for; nothing is absorbed then.
    ///
    /// # Panics
    /// When `bases` and `values` differ in length (a caller bug).
    pub fn absorb<'a, I>(&mut self, bases: I, values: &[u64]) -> Result<(), BignumError>
    where
        I: IntoIterator<Item = &'a Uint>,
        I::IntoIter: ExactSizeIterator,
    {
        let bases = bases.into_iter();
        assert_eq!(bases.len(), values.len(), "bases/values length mismatch");
        let covered = self.shape.value_bits();
        if let Some(&x) = values.iter().find(|&&x| covered < 64 && x >> covered != 0) {
            return Err(BignumError::ValueTooLarge {
                bits: 64 - x.leading_zeros() as usize,
                capacity_bits: covered,
            });
        }
        let SessionFold {
            ctx,
            shape,
            exponent_sum,
            buckets,
        } = self;
        on_width!(ctx, Buckets, buckets, |kr, slots| slots
            .scatter(kr, shape, bases, values));
        *exponent_sum += values.iter().map(|&x| u128::from(x)).sum::<u128>();
        Ok(())
    }

    /// The product of every base absorbed so far raised to its row's
    /// value, as an ordinary value in `[0, n)`. The buckets are left as
    /// they are, so absorbing can go on: a checkpoint takes the product
    /// mid-stream.
    pub fn product(&self) -> Uint {
        let SessionFold {
            ctx,
            shape,
            exponent_sum,
            buckets,
        } = self;
        on_width!(ctx, Buckets, buckets, |kr, slots| slots.product(
            kr,
            shape,
            *exponent_sum
        ))
    }
}

/// The bucket operands of one fold, window by window: `elems[i]` holds
/// the product of the bases scattered into bucket `i` once `filled[i]`
/// is set. A window of `w` bits holds `2^w − 1` consecutive buckets,
/// least significant window first; its `d − 1`-th is digit `d`.
struct Slots<E> {
    elems: Vec<E>,
    filled: Vec<bool>,
}

impl<E: Clone> Slots<E> {
    fn new<K: Kernel<Elem = E>>(kr: &K, count: usize) -> Self {
        Slots {
            elems: vec![kr.one(); count],
            filled: vec![false; count],
        }
    }

    /// One product per base per window with a nonzero digit: the base,
    /// loaded as it is, into the bucket of that digit.
    fn scatter<'a, K: Kernel<Elem = E>>(
        &mut self,
        kr: &mut K,
        shape: &Shape,
        bases: impl Iterator<Item = &'a Uint>,
        values: &[u64],
    ) {
        for (base, &x) in bases.zip(values) {
            if x == 0 {
                continue;
            }
            let base = kr.load_raw(base);
            let (mut rest, mut window_start) = (x, 0);
            for &w in &shape.widths {
                if rest == 0 {
                    break;
                }
                let d = (rest & buckets_in(w) as u64) as usize;
                if d != 0 {
                    let i = window_start + d - 1;
                    accumulate(kr, &mut self.elems[i], &mut self.filled[i], &base);
                }
                rest >>= w;
                window_start += buckets_in(w);
            }
        }
    }

    /// The buckets reduced, most significant window first: before each
    /// window after the first, as many squarings of the accumulator as
    /// that window has bits, and per window the running suffix product
    /// (Pippenger), which raises each bucket to its digit in ≈ `2·2^w`
    /// products. `None` when no bucket is filled: the product is 1.
    fn reduce<K: Kernel<Elem = E>>(&self, kr: &mut K, shape: &Shape) -> Option<E> {
        let one = kr.one();
        let (mut acc, mut acc_set) = (one.clone(), false);
        let mut end = self.elems.len();
        for &w in shape.widths.iter().rev() {
            if acc_set {
                for _ in 0..w {
                    kr.square(&mut acc);
                }
            }
            let start = end - buckets_in(w);
            let (mut running, mut running_set) = (one.clone(), false);
            let (mut sum, mut sum_set) = (one.clone(), false);
            for i in (start..end).rev() {
                if self.filled[i] {
                    accumulate(kr, &mut running, &mut running_set, &self.elems[i]);
                }
                if running_set {
                    accumulate(kr, &mut sum, &mut sum_set, &running);
                }
            }
            if sum_set {
                accumulate(kr, &mut acc, &mut acc_set, &sum);
            }
            end = start;
        }
        acc_set.then_some(acc)
    }

    /// The reduced buckets, `P·R^(−S)` in Montgomery form, times `R^S`:
    /// the ordinary value `P`.
    fn product<K: Kernel<Elem = E>>(&self, kr: &mut K, shape: &Shape, exponent_sum: u128) -> Uint {
        let Some(mut acc) = self.reduce(kr, shape) else {
            return Uint::one();
        };
        // A filled bucket means a nonzero value was absorbed, so S ≥ 1.
        // R^S mod n is the Montgomery form of R^(S−1), and one product of
        // acc = P·R^(−S)·R by it leaves P·R^(−S)·R·R^S·R⁻¹ = P, already
        // out of Montgomery form.
        let radix = kr.radix();
        let r_to_the_s =
            FixedExponentPlan::new(&Uint::from_u128(exponent_sum - 1)).pow_in(kr, radix);
        kr.mul(&mut acc, &r_to_the_s);
        kr.to_uint(&acc)
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

/// `h^α mod n` for one **fixed** base `h` and exponents `α` of up to a
/// set bit length, by a Lim–Lee comb: the key owner's randomizer draw,
/// whose base is fixed per key and whose exponent is fresh per draw.
///
/// With `t` teeth spaced `a = ⌈bits/t⌉` apart, table entry `u < 2^t` is
/// `Π_{i ∈ u} h^(2^(i·a))` (entry 0 is one), built once. Bit `j` of
/// every tooth — bits `j, a + j, …, (t−1)·a + j` of `α` — indexes column
/// `j`'s entry, and `h^α` is the Horner product of the `a` columns' entries,
/// most significant column first. A power thus takes `a − 1` squarings
/// and `a` products, the last taking the result out of Montgomery form,
/// whatever `α` is: no column is skipped, so the count is exact
/// ([`FixedBaseComb::products`]). The table indices are the secret bits
/// of `α`.
///
/// The entries are stored as the operands of the kernel for the modulus
/// width, as [`SessionFold`] stores its buckets.
///
/// # Examples
///
/// ```
/// use pps_bignum::{FixedBaseComb, Montgomery, Uint};
///
/// let ctx = Montgomery::new(Uint::from_u64(1_000_003)).unwrap();
/// let comb = FixedBaseComb::new(&ctx, &Uint::from_u64(2), 20, 1024);
/// let alpha = Uint::from_u64(654_321);
/// assert_eq!(comb.pow(&alpha).unwrap(), ctx.pow(&Uint::from_u64(2), &alpha).unwrap());
/// ```
pub struct FixedBaseComb {
    ctx: Montgomery,
    /// `t`, the bits of `α` one column reads.
    teeth: usize,
    /// `a`, the distance between teeth: the number of columns.
    spacing: usize,
    table: CombTable,
}

/// The `2^t` comb entries, stored as the operands of the kernel for the
/// modulus width.
enum CombTable {
    L4(Vec<[u64; 4]>),
    L8(Vec<[u64; 8]>),
    L16(Vec<[u64; 16]>),
    Any(Vec<Vec<u64>>),
}

impl FixedBaseComb {
    /// The comb of `base` (reduced mod `n` first) for exponents of at
    /// most `exponent_bits` bits, with the most teeth, up to one per
    /// exponent bit, whose `2^t` operands fit `budget_bytes`, and at
    /// least one. Building it takes `(t − 1)·a` squarings and under
    /// `2^t` products.
    pub fn new(ctx: &Montgomery, base: &Uint, exponent_bits: usize, budget_bytes: usize) -> Self {
        let operand_bytes = ctx.width() * std::mem::size_of::<u64>();
        let teeth = (2..=exponent_bits)
            .take_while(|&t| operand_bytes << t <= budget_bytes)
            .last()
            .unwrap_or(1);
        let spacing = exponent_bits.div_ceil(teeth).max(1);
        let table = match ctx.width() {
            4 => CombTable::L4(comb_table(
                &mut Fixed::<4, 8>::new(ctx),
                base,
                teeth,
                spacing,
            )),
            8 => CombTable::L8(comb_table(
                &mut Fixed::<8, 16>::new(ctx),
                base,
                teeth,
                spacing,
            )),
            16 => CombTable::L16(comb_table(
                &mut Fixed::<16, 32>::new(ctx),
                base,
                teeth,
                spacing,
            )),
            _ => CombTable::Any(comb_table(&mut Slice::new(ctx), base, teeth, spacing)),
        };
        FixedBaseComb {
            ctx: ctx.clone(),
            teeth,
            spacing,
            table,
        }
    }

    /// Heap bytes the table holds: `2^t` operands as wide as the modulus.
    #[cfg(test)]
    fn table_bytes(&self) -> usize {
        (1 << self.teeth) * self.ctx.width() * std::mem::size_of::<u64>()
    }

    /// The Montgomery products one [`FixedBaseComb::pow`] performs, the
    /// same for every exponent: `a − 1` squarings and `a` products. A
    /// host-independent work count.
    pub fn products(&self) -> usize {
        2 * self.spacing - 1
    }

    /// `base^exp mod n`, as an ordinary value.
    ///
    /// # Errors
    /// [`BignumError::ValueTooLarge`] when `exp` is wider than the bits
    /// the comb was built for (rounded up to `t·a`).
    pub fn pow(&self, exp: &Uint) -> Result<Uint, BignumError> {
        let capacity_bits = self.teeth * self.spacing;
        if exp.bit_len() > capacity_bits {
            return Err(BignumError::ValueTooLarge {
                bits: exp.bit_len(),
                capacity_bits,
            });
        }
        let (teeth, spacing) = (self.teeth, self.spacing);
        Ok(on_width!(
            &self.ctx,
            CombTable,
            &self.table,
            |kr, entries| comb_pow(kr, entries, teeth, spacing, exp.limbs())
        ))
    }
}

/// The comb's entries on one kernel: entry `u` is the product of the
/// teeth `h^(2^(i·a))` for the bits `i` set in `u`, in Montgomery form.
fn comb_table<K: Kernel>(kr: &mut K, base: &Uint, teeth: usize, spacing: usize) -> Vec<K::Elem> {
    let mut table = Vec::with_capacity(1 << teeth);
    table.push(kr.one());
    let mut tooth = kr.enter(base);
    for i in 0..teeth {
        if i > 0 {
            for _ in 0..spacing {
                kr.square(&mut tooth);
            }
        }
        // Entries 2^i .. 2^(i+1): those below, times this tooth.
        for u in 0..1 << i {
            let mut entry = tooth.clone();
            if u > 0 {
                kr.mul(&mut entry, &table[u]);
            }
            table.push(entry);
        }
    }
    table
}

/// The comb's power on one kernel: the column entries from the most
/// significant column down, a squaring before each but the first, and
/// the result out of Montgomery form.
fn comb_pow<K: Kernel>(
    kr: &mut K,
    table: &[K::Elem],
    teeth: usize,
    spacing: usize,
    exp: &[u64],
) -> Uint {
    let bit = |i: usize| {
        exp.get(i / 64)
            .map_or(0, |&limb| (limb >> (i % 64)) as usize & 1)
    };
    let column = |j: usize| (0..teeth).fold(0, |u, i| u | bit(i * spacing + j) << i);
    let mut acc = table[column(spacing - 1)].clone();
    for j in (0..spacing - 1).rev() {
        kr.square(&mut acc);
        kr.mul(&mut acc, &table[column(j)]);
    }
    kr.leave(acc)
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
    use crate::montgomery::kernel::Counting;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx(bits: usize, seed: u64) -> Montgomery {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Uint::random_bits_exact(&mut rng, bits);
        n.set_bit(0, true);
        Montgomery::new(n).unwrap()
    }

    /// `count` random bases below the modulus and 32-bit row values.
    fn rows(c: &Montgomery, count: usize, rng: &mut StdRng) -> (Vec<Uint>, Vec<u64>) {
        let values = (0..count).map(|_| u64::from(rng.gen::<u32>())).collect();
        let bases = (0..count)
            .map(|_| Uint::random_below(rng, c.modulus()).unwrap())
            .collect();
        (bases, values)
    }

    /// The interleaved Straus product, the reference.
    fn straus(c: &Montgomery, bases: &[Uint], values: &[u64]) -> Uint {
        let exps: Vec<Uint> = values.iter().map(|&x| Uint::from_u64(x)).collect();
        c.multi_pow(bases, &exps)
    }

    /// A fold over all of `values`, absorbed `chunk` rows at a time.
    fn fold_in_chunks(c: &Montgomery, bases: &[Uint], values: &[u64], chunk: usize) -> SessionFold {
        let mut fold = SessionFold::new(c, values);
        for (b, v) in bases.chunks(chunk).zip(values.chunks(chunk)) {
            fold.absorb(b, v).unwrap();
        }
        fold
    }

    #[test]
    fn empty_plan_folds_to_one() {
        let c = ctx(128, 1);
        let fold = SessionFold::new(&c, &[]);
        assert_eq!(fold.bucket_bytes(), 0);
        assert_eq!(fold.product(), Uint::one());
    }

    #[test]
    fn all_zero_exponents_fold_to_one() {
        let c = ctx(128, 2);
        let bases = [Uint::from_u64(7), Uint::from_u64(9), Uint::from_u64(11)];
        let mut fold = SessionFold::new(&c, &[0, 0, 0]);
        fold.absorb(&bases, &[0, 0, 0]).unwrap();
        assert_eq!(fold.bucket_bytes(), 0, "no bits, no buckets");
        assert_eq!(fold.product(), Uint::one());
    }

    #[test]
    fn matches_straus_over_random_inputs() {
        let c = ctx(256, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for count in [1usize, 2, 7, 33, 100] {
            let (bases, values) = rows(&c, count, &mut rng);
            let fold = fold_in_chunks(&c, &bases, &values, count);
            assert_eq!(fold.product(), straus(&c, &bases, &values), "count={count}");
        }
    }

    #[test]
    fn every_window_width_agrees() {
        // Even shapes over the rows' 32 bits at every width 1–8, uneven
        // shapes in either order, and shapes wider than the rows.
        let c = ctx(192, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (bases, values) = rows(&c, 40, &mut rng);
        let want = straus(&c, &bases, &values);
        let even = (4..=32).map(|windows| even_widths(32, windows).collect::<Vec<_>>());
        let uneven = [
            vec![1, 8, 3, 7, 5, 8],
            vec![6, 6, 6, 7, 7],
            vec![2, 8, 8, 8, 6],
            vec![6; 6],
            vec![8; 5],
        ];
        for widths in even.chain(uneven) {
            let mut fold = SessionFold::with_shape(
                &c,
                Shape {
                    widths: widths.clone(),
                },
            );
            fold.absorb(&bases, &values).unwrap();
            assert_eq!(fold.product(), want, "widths={widths:?}");
        }
    }

    #[test]
    fn range_folds_compose_like_one_fold() {
        // Absorbing batch by batch must give the product of one absorb:
        // the invariant a resumed session relies on.
        let c = ctx(256, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let (bases, values) = rows(&c, 250, &mut rng);
        let whole = fold_in_chunks(&c, &bases, &values, values.len()).product();
        assert_eq!(whole, straus(&c, &bases, &values));
        for chunk in [1usize, 7, 100] {
            let fold = fold_in_chunks(&c, &bases, &values, chunk);
            assert_eq!(fold.product(), whole, "chunk={chunk}");
        }
    }

    #[test]
    fn product_mid_stream_is_the_product_so_far() {
        let c = ctx(256, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let (bases, values) = rows(&c, 60, &mut rng);
        let mut fold = SessionFold::new(&c, &values);
        fold.absorb(&bases[..25], &values[..25]).unwrap();
        assert_eq!(fold.product(), straus(&c, &bases[..25], &values[..25]));
        // Taking the product left the buckets as they were.
        assert_eq!(fold.product(), straus(&c, &bases[..25], &values[..25]));
        fold.absorb(&bases[25..], &values[25..]).unwrap();
        assert_eq!(fold.product(), straus(&c, &bases, &values));
    }

    #[test]
    fn extreme_rows_and_a_sum_beyond_u64() {
        let c = ctx(320, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let values = [u64::MAX, 0, u64::MAX, 1, u64::MAX, 0];
        assert!(values.iter().map(|&x| u128::from(x)).sum::<u128>() > u128::from(u64::MAX));
        let bases: Vec<Uint> = (0..values.len())
            .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
            .collect();
        for chunk in [1usize, values.len()] {
            let fold = fold_in_chunks(&c, &bases, &values, chunk);
            assert_eq!(fold.product(), straus(&c, &bases, &values), "chunk={chunk}");
        }
    }

    #[test]
    fn every_kernel_width_matches_straus() {
        // 4, 8 and 16 limbs run the fixed-width kernels, 12 the slice
        // kernel.
        let mut rng = StdRng::seed_from_u64(13);
        for limbs in [4usize, 8, 12, 16] {
            let c = ctx(64 * limbs, 14 + limbs as u64);
            assert_eq!(c.width(), limbs);
            let (bases, values) = rows(&c, 30, &mut rng);
            let fold = fold_in_chunks(&c, &bases, &values, 7);
            assert_eq!(fold.product(), straus(&c, &bases, &values), "limbs={limbs}");
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let c = ctx(128, 15);
        let mut fold = SessionFold::new(&c, &[1, 2, 3]);
        let covered = fold.shape.value_bits();
        let bases = [Uint::from_u64(5), Uint::from_u64(6)];
        assert!(fold.absorb(&bases, &[1, 1 << covered]).is_err());
        // The rejected batch absorbed nothing.
        assert_eq!(fold.product(), Uint::one());
        fold.absorb(&bases, &[3, 2]).unwrap();
        assert_eq!(fold.product(), straus(&c, &bases, &[3, 2]));
    }

    #[test]
    fn cost_model_prefers_small_windows_for_small_batches() {
        // Few rows cannot pay for many buckets; many rows take the widest
        // windows the bucket budget allows: 7,7,6,6,6 at 16 limbs, the
        // 8-bit cap at 4 limbs.
        let widest = |rows, bytes| Shape::for_rows(rows, 32, bytes).widths.into_iter().max();
        assert!(widest(1, 128) <= Some(2));
        assert!(widest(10, 128) <= Some(3));
        assert_eq!(Shape::for_rows(2000, 32, 128).widths, [7, 7, 6, 6, 6]);
        assert_eq!(Shape::for_rows(1_000_000, 32, 128).widths, [7, 7, 6, 6, 6]);
        assert_eq!(Shape::for_rows(2000, 32, 32).widths, [8, 8, 8, 8]);
        assert_eq!(Shape::for_rows(2000, 20, 128).widths, [7, 7, 6]);
        // Whatever the rows, the widths cover the widest row's bits
        // exactly, differ by at most one, wider first, and fit the budget.
        for rows in [1usize, 3, 10, 100, 2000, 100_000] {
            for bits in [1usize, 5, 20, 32, 33, 63, 64] {
                let shape = Shape::for_rows(rows, bits, 128);
                assert_eq!(shape.value_bits(), bits, "rows={rows} bits={bits}");
                assert!(shape
                    .widths
                    .windows(2)
                    .all(|w| w[0] == w[1] || w[0] == w[1] + 1));
                assert!(shape
                    .widths
                    .iter()
                    .all(|&w| (1..=WIDEST_WINDOW_BITS).contains(&w)));
                assert!(shape.buckets() * 128 <= BUCKET_BUDGET_BYTES);
            }
        }
        assert!(Shape::for_rows(2000, 0, 128).widths.is_empty());
    }

    #[test]
    fn table_bytes_scales_with_rows_and_width() {
        // The bucket table grows with the rows a session folds (they pay
        // for wider windows) and with the operand width, up to the
        // budget, and never past it.
        for limbs in [4usize, 8, 16] {
            let c = ctx(64 * limbs, 16);
            let mut last = 0;
            for count in [1usize, 100, 2000, 100_000] {
                for top in [u64::from(u8::MAX), u64::from(u32::MAX), u64::MAX] {
                    let mut values = vec![1u64; count];
                    values[0] = top;
                    let fold = SessionFold::new(&c, &values);
                    assert!(fold.bucket_bytes() <= BUCKET_BUDGET_BYTES);
                    assert_eq!(fold.bucket_bytes(), fold.shape.buckets() * limbs * 8);
                }
                let fold = SessionFold::new(&c, &vec![u64::from(u32::MAX); count]);
                assert!(fold.bucket_bytes() >= last, "limbs={limbs} count={count}");
                last = fold.bucket_bytes();
            }
        }
        // The paper's shape: 2000 32-bit rows at a 512-bit key, windows
        // of 7, 7, 6, 6 and 6 bits over N²'s 16 limbs, 56,704 bytes.
        let rows = [u64::from(u32::MAX); 2000];
        let wide = SessionFold::new(&ctx(1024, 17), &rows);
        assert_eq!(wide.window_bits(), [7, 7, 6, 6, 6]);
        assert_eq!(wide.bucket_bytes(), (2 * 127 + 3 * 63) * 128);
        let narrow = SessionFold::new(&ctx(256, 18), &rows);
        assert!(narrow.bucket_bytes() < wide.bucket_bytes());
    }

    #[test]
    fn query_fold_takes_at_most_five_and_a_quarter_products_a_row() {
        // The exact work of one query's fold at a 512-bit key: 2000 seeded
        // 32-bit rows in 100-row batches on the 16-limb kernel, the R^S
        // correction included. DESIGN.md's kernel ledger sets it beside
        // the counts of the folds it replaced on the same input.
        let mut rng = StdRng::seed_from_u64(2026);
        let mut n = Uint::random_bits_exact(&mut rng, 1024);
        n.set_bit(0, true);
        let c = Montgomery::new(n).unwrap();
        let (bases, values) = {
            let values: Vec<u64> = (0..2000).map(|_| u64::from(rng.gen::<u32>())).collect();
            let bases: Vec<Uint> = (0..2000)
                .map(|_| Uint::random_below(&mut rng, c.modulus()).unwrap())
                .collect();
            (bases, values)
        };
        let mut fold = SessionFold::new(&c, &values);
        assert_eq!(fold.window_bits(), [7, 7, 6, 6, 6]);
        let shape = fold.shape.clone();
        let Buckets::L16(slots) = &mut fold.buckets else {
            panic!("a 1024-bit modulus runs the 16-limb kernel");
        };
        let mut kr = Counting::new(Fixed::<16, 32>::new(&c));
        for (b, v) in bases.chunks(100).zip(values.chunks(100)) {
            slots.scatter(&mut kr, &shape, b.iter(), v);
        }
        let sum = values.iter().map(|&x| u128::from(x)).sum();
        let product = slots.product(&mut kr, &shape, sum);
        assert_eq!(product, straus(&c, &bases, &values));
        let per_row = kr.products as f64 / values.len() as f64;
        assert!(per_row <= 5.25, "{per_row:.3} products a row");
        assert_eq!(kr.products, EXACT_PRODUCTS);
    }

    /// The pinned count of
    /// `query_fold_takes_at_most_five_and_a_quarter_products_a_row`.
    const EXACT_PRODUCTS: usize = 10_398;

    #[test]
    fn comb_matches_pow_at_every_kernel_width() {
        // 4, 8 and 16 limbs run the fixed-width kernels, 1 and 12 the
        // slice kernel; the exponents are 0, 1, the largest below an
        // order-like bound m − 1 (m − 2), and random ones, at budgets
        // from one tooth to the most the exponent allows.
        let mut rng = StdRng::seed_from_u64(21);
        for limbs in [1usize, 4, 8, 12, 16] {
            let c = ctx(64 * limbs, 22 + limbs as u64);
            assert_eq!(c.width(), limbs);
            let base = Uint::random_below(&mut rng, c.modulus()).unwrap();
            let m = Uint::random_bits_exact(&mut rng, 32 * limbs);
            let bits = m.bit_len();
            for budget in [0usize, 64 * limbs, 1024 * limbs, 16 * 1024, 1 << 20] {
                let comb = FixedBaseComb::new(&c, &base, bits, budget);
                assert!(comb.table_bytes() <= budget || comb.teeth == 1);
                let mut exps = vec![Uint::zero(), Uint::one(), &m - &Uint::from_u64(2)];
                exps.extend((0..6).map(|_| Uint::random_below(&mut rng, &m).unwrap()));
                for e in &exps {
                    let want = c.pow(&base, e).unwrap();
                    assert_eq!(comb.pow(e).unwrap(), want, "limbs={limbs} budget={budget}");
                }
            }
        }
    }

    #[test]
    fn comb_teeth_fit_the_budget() {
        // Half of the keypair's 32 KiB for one prime: 8 teeth over p²'s 8
        // limbs at a 512-bit key, 6 over 32 limbs at 2048 bits.
        let base = Uint::from_u64(3);
        let comb = FixedBaseComb::new(&ctx(512, 23), &base, 256, 16 * 1024);
        assert_eq!((comb.teeth, comb.table_bytes()), (8, 16 * 1024));
        let comb = FixedBaseComb::new(&ctx(2048, 24), &base, 1024, 16 * 1024);
        assert_eq!((comb.teeth, comb.table_bytes()), (6, 16 * 1024));
        // Never more teeth than exponent bits, and one when none fits.
        let comb = |bits, budget| FixedBaseComb::new(&ctx(64, 25), &base, bits, budget);
        assert_eq!(comb(3, 16 * 1024).teeth, 3);
        assert_eq!(comb(64, 8).teeth, 1);
        // An exponent wider than the comb is refused.
        let comb = FixedBaseComb::new(&ctx(128, 27), &base, 20, 1024);
        assert!(comb
            .pow(&Uint::one().shl(comb.teeth * comb.spacing))
            .is_err());
    }

    #[test]
    fn comb_power_takes_exactly_its_products() {
        // At a 512-bit key's p² (8 limbs) and a 256-bit order, 8 teeth
        // make 32 columns: 31 squarings and 32 products, 63 in all,
        // whatever the exponent, zero digits included.
        let c = ctx(512, 28);
        let mut rng = StdRng::seed_from_u64(29);
        let base = Uint::random_below(&mut rng, c.modulus()).unwrap();
        let comb = FixedBaseComb::new(&c, &base, 256, 16 * 1024);
        assert_eq!(comb.products(), 63);
        let CombTable::L8(entries) = &comb.table else {
            panic!("a 512-bit modulus runs the 8-limb kernel");
        };
        let exps = [
            Uint::zero(),
            Uint::one(),
            &Uint::one().shl(256) - &Uint::one(),
            Uint::random_below_bits(&mut rng, 256),
        ];
        for e in &exps {
            let mut kr = Counting::new(Fixed::<8, 16>::new(&c));
            let got = comb_pow(&mut kr, entries, comb.teeth, comb.spacing, e.limbs());
            assert_eq!(got, c.pow(&base, e).unwrap());
            assert_eq!((kr.products, kr.reductions), (comb.products(), 0));
        }
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
