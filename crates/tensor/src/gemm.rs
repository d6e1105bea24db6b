//! The compute engine: one packed, register-tiled GEMM path for all three
//! products, run on the parked workers of [`crate::pool`].
//!
//! Three products cover everything the NN stack needs:
//!
//! * [`gemm_nn`] — `C = A·B` (forward pass),
//! * [`gemm_nt`] — `C = A·Bᵀ` (input gradients),
//! * [`gemm_tn`] — `C = Aᵀ·B` (weight gradients).
//!
//! All three write into a caller-owned output slice and optionally
//! *accumulate* into it (`C += …`), which lets backprop add weight
//! gradients in place without a temporary.
//!
//! # Exactness
//!
//! Every output element is computed by one fixed sequence of operations,
//! whatever the tier, tile, packing or thread count:
//!
//! 1. start a sum at `0.0`;
//! 2. for `k` ascending, add the separately rounded product `a·b` (a
//!    multiply, then an add: never a fused multiply-add);
//! 3. store the sum, or add it to the output once (`C += sum`).
//!
//! A vector lane performs exactly the scalar operations of its element,
//! so tile shape, vector width, packing and partition cannot change a
//! single bit, and neither can the thread count. This is what keeps
//! training byte-identical across thread counts and CPUs, and
//! `fit_resumable`'s resume guarantee intact.
//!
//! # Structure
//!
//! * **Tiers.** A register tile of `MR` rows × `NR` columns is held in
//!   vector accumulators: AVX-512F 8×32, AVX2 6×16, portable 4×8. The
//!   widest tier the CPU has is detected once ([`Tier::detect`]);
//!   [`gemm_with`] runs any supported tier directly, for tests.
//! * **Packing.** Only `B` is packed, one block of at most `NC` = 64 columns
//!   at a time, into `NR`-wide panels of a per-thread scratch of at most
//!   `k × NC` floats. `A` is read in place through its row and column
//!   strides, so the transposed products need no transpose.
//! * **Small `m`.** With at most `SMALL_M` = 16 rows (single queries and
//!   serving batches) and `B` contiguous along its columns, nothing is
//!   packed: the tile reads `B` in place and its row count is sized to `m`.
//! * **Threads.** The output is cut into blocks of rows × `NC` columns
//!   that [`crate::pool::run`] hands to the caller and the pool's parked
//!   workers.
//!
//! # Kernel selection
//!
//! [`set_kernel`] switches the whole process between the packed engine
//! ([`Kernel::Packed`], default) and the original [`Kernel::Reference`]
//! triple loops. The reference kernels are the pre-engine baseline; the
//! `bench` harness uses the switch to measure an honest in-binary speedup.
//! The reference path ignores `threads`.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use airchitect_telemetry::metrics;

use crate::pool;

/// Columns of `B` packed (and of `C` computed) per block: a multiple of
/// every tier's `NR`.
const NC: usize = 64;

/// Largest row count served by the unpacked small-`m` path.
const SMALL_M: usize = 16;

/// Rows of `B` a tile prefetches ahead of the one it multiplies: the
/// unpacked path walks `B` with a stride the hardware prefetcher misses.
const PREFETCH_ROWS: usize = 16;

/// Register tiles per row block: a block covers `ROW_TILES × MR` rows.
const ROW_TILES: usize = 8;

/// Products smaller than this many multiply-adds run on one thread: a
/// pool hand-off would cost more than it saves.
const PARALLEL_MIN: usize = 1 << 15;

/// Which GEMM implementation the process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The original naive triple loops (pre-engine baseline).
    Reference,
    /// The packed, register-tiled engine (default).
    Packed,
}

static KERNEL: AtomicU8 = AtomicU8::new(1);
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Selects the process-wide GEMM implementation.
pub fn set_kernel(k: Kernel) {
    KERNEL.store(
        match k {
            Kernel::Reference => 0,
            Kernel::Packed => 1,
        },
        Ordering::Relaxed,
    );
}

/// The currently selected GEMM implementation.
pub fn kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        0 => Kernel::Reference,
        _ => Kernel::Packed,
    }
}

/// Sets the default thread count used by the allocating
/// [`Matrix`](crate::Matrix) product methods. Clamped to at least 1.
pub fn set_num_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The default thread count for the allocating
/// [`Matrix`](crate::Matrix) product methods (1 unless changed).
pub fn num_threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// A register-tile implementation of the packed engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Plain Rust on 4-lane arrays, 4×8 tiles: any CPU.
    Portable,
    /// 256-bit AVX2 vectors, 6×16 tiles.
    Avx2,
    /// 512-bit AVX-512F vectors, 8×32 tiles.
    Avx512,
}

static DETECTED: AtomicU8 = AtomicU8::new(u8::MAX);

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// The widest tier this CPU supports, probed on first use.
    pub fn detect() -> Tier {
        match DETECTED.load(Ordering::Relaxed) {
            0 => Tier::Portable,
            1 => Tier::Avx2,
            2 => Tier::Avx512,
            _ => {
                let best = *Tier::ALL
                    .iter()
                    .rev()
                    .find(|t| t.is_supported())
                    .expect("the portable tier runs everywhere");
                DETECTED.store(best as u8, Ordering::Relaxed);
                best
            }
        }
    }

    /// Whether this CPU can run the tier.
    pub fn is_supported(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The register tile, `(MR, NR)`.
    fn tile(self) -> (usize, usize) {
        match self {
            Tier::Portable => (4, 8),
            Tier::Avx2 => (6, 16),
            Tier::Avx512 => (8, 32),
        }
    }
}

/// Which operands a product reads transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `C = A·B`: `a` is `m×k`, `b` is `k×n`.
    Nn,
    /// `C = A·Bᵀ`: `a` is `m×k`, `b` is `n×k`.
    Nt,
    /// `C = Aᵀ·B`: `a` is `k×m`, `b` is `k×n`.
    Tn,
}

/// `out = A·B` (or `out += A·B` when `accumulate`).
///
/// `a` is `m×k`, `b` is `k×n`, `out` is `m×n`, all row-major. `threads`
/// bounds the threads that share the work; the result is bit-identical
/// for every thread count.
///
/// # Panics
///
/// Panics if a slice length does not match the shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
    threads: usize,
) {
    let tier = Tier::detect();
    match kernel() {
        Kernel::Reference => gemm_nn_reference(m, k, n, a, b, out, accumulate),
        Kernel::Packed => gemm_with(tier, Op::Nn, m, k, n, a, b, out, accumulate, threads),
    }
}

/// `out = A·Bᵀ` (or `out += A·Bᵀ` when `accumulate`).
///
/// `a` is `m×k`, `b` is `n×k` (its *rows* are dotted against rows of
/// `a`), `out` is `m×n`.
///
/// # Panics
///
/// Panics if a slice length does not match the shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
    threads: usize,
) {
    let tier = Tier::detect();
    match kernel() {
        Kernel::Reference => gemm_nt_reference(m, k, n, a, b, out, accumulate),
        Kernel::Packed => gemm_with(tier, Op::Nt, m, k, n, a, b, out, accumulate, threads),
    }
}

/// `out = Aᵀ·B` (or `out += Aᵀ·B` when `accumulate`).
///
/// `a` is `k×m` (read transposed in place), `b` is `k×n`, `out` is `m×n`.
///
/// # Panics
///
/// Panics if a slice length does not match the shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
    threads: usize,
) {
    let tier = Tier::detect();
    match kernel() {
        Kernel::Reference => gemm_tn_reference(m, k, n, a, b, out, accumulate),
        Kernel::Packed => gemm_with(tier, Op::Tn, m, k, n, a, b, out, accumulate, threads),
    }
}

/// Runs one product on the packed engine with an explicit `tier`.
///
/// [`gemm_nn`], [`gemm_nt`] and [`gemm_tn`] call this with
/// [`Tier::detect`]; tests call it to hold every tier to the same bits.
///
/// # Panics
///
/// Panics if the CPU does not support `tier` or a slice length does not
/// match the shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    tier: Tier,
    op: Op,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
    threads: usize,
) {
    assert!(tier.is_supported(), "gemm: {tier:?} is not supported here");
    assert_eq!(a.len(), m * k, "gemm: bad `a` length");
    assert_eq!(b.len(), k * n, "gemm: bad `b` length");
    assert_eq!(out.len(), m * n, "gemm: bad `out` length");
    if m == 0 || n == 0 {
        return;
    }
    match tier {
        Tier::Portable => metrics::GEMM_DISPATCH_PORTABLE.inc(),
        Tier::Avx2 => metrics::GEMM_DISPATCH_AVX2.inc(),
        Tier::Avx512 => metrics::GEMM_DISPATCH_AVX512.inc(),
    }
    // Element (r, c) of an operand lives at `r * rows + c * cols`.
    let ((a_rs, a_cs), (b_rs, b_cs)) = match op {
        Op::Nn => ((k, 1), (n, 1)),
        Op::Nt => ((k, 1), (1, k)),
        Op::Tn => ((1, m), (n, 1)),
    };
    let (mr, nr) = tier.tile();
    let packed = m > SMALL_M || b_cs != 1;
    let g = Gemm {
        m,
        k,
        n,
        a,
        a_rs,
        a_cs,
        b,
        b_rs,
        b_cs,
        c: out.as_mut_ptr(),
        accumulate,
        packed,
        row_block: ROW_TILES * mr,
    };
    let row_blocks = m.div_ceil(g.row_block);
    let tasks = row_blocks * n.div_ceil(NC);
    let threads = if m * k * n < PARALLEL_MIN { 1 } else { threads };
    let scratch = if packed { k * NC } else { k * nr };
    pool::run(tasks, threads, scratch, &|claims, scratch| {
        // Tasks run column block by column block, so a thread that claims
        // consecutive row blocks of one column block packs it only once.
        let mut have = usize::MAX;
        for t in claims {
            let (jb, ib) = (t / row_blocks, t % row_blocks);
            // SAFETY: `g` was checked against the slices above, the tier
            // is supported, and each task writes its own block of `out`.
            unsafe { g.block(tier, ib, jb, &mut have, scratch) }
        }
    });
}

/// One product, as every task sees it.
struct Gemm<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    a_rs: usize,
    a_cs: usize,
    b: &'a [f32],
    b_rs: usize,
    b_cs: usize,
    /// Row-major `m×n` output.
    c: *mut f32,
    accumulate: bool,
    /// Whether `B` is read from packed panels (otherwise in place).
    packed: bool,
    /// Rows per task.
    row_block: usize,
}

// SAFETY: `a` and `b` are shared slices and the other fields are plain
// values, all only read by tasks. `c` comes from the `&mut` output that
// `gemm_with` holds until the loop ends, and tasks write through it only
// inside their own output block; `pool::run` yields each task index
// exactly once, so no two threads touch the same element.
unsafe impl Sync for Gemm<'_> {}

impl Gemm<'_> {
    /// Computes block `(ib, jb)` of the output on `tier`.
    ///
    /// # Safety
    ///
    /// `tier` must be supported, the slices must match the shape, `ib`
    /// and `jb` must name a block inside the output that no other thread
    /// touches meanwhile, and `scratch` must be as long as `gemm_with`
    /// sizes it.
    unsafe fn block(
        &self,
        tier: Tier,
        ib: usize,
        jb: usize,
        have: &mut usize,
        scratch: &mut [f32],
    ) {
        match tier {
            Tier::Portable => self.block_on::<Lanes4, 4>(ib, jb, have, scratch),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => x86::block_avx2(self, ib, jb, have, scratch),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => x86::block_avx512(self, ib, jb, have, scratch),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("checked by is_supported"),
        }
    }

    /// [`Gemm::block`] with vectors `V` and `MR`-row tiles (`NR` is two
    /// vectors). Inlined into each tier's target-feature function.
    ///
    /// # Safety
    ///
    /// As for [`Gemm::block`], with `V`'s target features enabled, `MR` at
    /// most 8, and `scratch` at least `k × NC` floats long when `B` is
    /// packed (`k × NR` otherwise).
    #[inline(always)]
    unsafe fn block_on<V: Simd, const MR: usize>(
        &self,
        ib: usize,
        jb: usize,
        have: &mut usize,
        scratch: &mut [f32],
    ) {
        let nr = 2 * V::LANES;
        let (i0, j0) = (ib * self.row_block, jb * NC);
        let (i1, j1) = ((i0 + self.row_block).min(self.m), (j0 + NC).min(self.n));
        if self.packed && *have != jb {
            self.pack(j0, j1, nr, scratch);
            *have = jb;
        }
        for (p, jp) in (j0..j1).step_by(nr).enumerate() {
            let cols = nr.min(j1 - jp);
            let (panel, ld) = if self.packed {
                (scratch.as_ptr().add(p * self.k * nr), nr)
            } else if cols < nr {
                // The ragged last panel would read past `b`: pack it.
                self.pack(jp, j1, nr, scratch);
                (scratch.as_ptr(), nr)
            } else {
                (self.b.as_ptr().add(jp), self.b_rs)
            };
            let mut i = i0;
            while i + MR <= i1 {
                self.tile::<V, MR>(i, jp, panel, ld, cols);
                i += MR;
            }
            match i1 - i {
                0 => {}
                1 => self.tile::<V, 1>(i, jp, panel, ld, cols),
                2 => self.tile::<V, 2>(i, jp, panel, ld, cols),
                3 => self.tile::<V, 3>(i, jp, panel, ld, cols),
                4 => self.tile::<V, 4>(i, jp, panel, ld, cols),
                5 => self.tile::<V, 5>(i, jp, panel, ld, cols),
                6 => self.tile::<V, 6>(i, jp, panel, ld, cols),
                7 => self.tile::<V, 7>(i, jp, panel, ld, cols),
                _ => unreachable!("no tier has more than 8 tile rows"),
            }
        }
    }

    /// Packs columns `j0..j1` of `B` into `NR`-wide panels of `dst`: panel
    /// `p`, row `kk` holds `B[kk][j0 + p·nr ..]`, zero-padded to `nr`.
    fn pack(&self, j0: usize, j1: usize, nr: usize, dst: &mut [f32]) {
        let k = self.k;
        for (p, jp) in (j0..j1).step_by(nr).enumerate() {
            let cols = nr.min(j1 - jp);
            let panel = &mut dst[p * k * nr..(p + 1) * k * nr];
            if self.b_cs == 1 {
                for (kk, row) in panel.chunks_exact_mut(nr).enumerate() {
                    let src = &self.b[kk * self.b_rs + jp..][..cols];
                    row[..cols].copy_from_slice(src);
                    row[cols..].fill(0.0);
                }
            } else {
                // `B` stored transposed: column `j` is a contiguous run.
                for jj in 0..nr {
                    if jj < cols {
                        let src = &self.b[(jp + jj) * self.b_cs..][..k];
                        for (kk, &v) in src.iter().enumerate() {
                            panel[kk * nr + jj] = v;
                        }
                    } else {
                        for kk in 0..k {
                            panel[kk * nr + jj] = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// One `R × NR` register tile at output `(i, j)`, of which the first
    /// `cols` columns are stored. `panel` walks `B` from row 0, `ld`
    /// floats per row.
    ///
    /// # Safety
    ///
    /// `V`'s target features must be enabled; rows `i..i + R` and columns
    /// `j..j + cols` must lie inside the output and be this thread's to
    /// write, with `cols <= NR`; `panel` must be readable for `NR` floats
    /// at each of its `k` rows.
    #[inline(always)]
    unsafe fn tile<V: Simd, const R: usize>(
        &self,
        i: usize,
        j: usize,
        panel: *const f32,
        ld: usize,
        cols: usize,
    ) {
        let mut lo = [V::zero(); R];
        let mut hi = [V::zero(); R];
        let mut ap = self.a.as_ptr().add(i * self.a_rs);
        let mut bp = panel;
        for _ in 0..self.k {
            let ahead = bp.wrapping_add(PREFETCH_ROWS * ld);
            V::prefetch(ahead);
            V::prefetch(ahead.wrapping_add(V::LANES));
            let (b0, b1) = (V::load(bp), V::load(bp.add(V::LANES)));
            for r in 0..R {
                let av = V::splat(*ap.add(r * self.a_rs));
                lo[r] = lo[r].add(av.mul(b0));
                hi[r] = hi[r].add(av.mul(b1));
            }
            ap = ap.wrapping_add(self.a_cs);
            bp = bp.wrapping_add(ld);
        }
        let c = self.c.add(i * self.n + j);
        for r in 0..R {
            let row = c.add(r * self.n);
            if cols == 2 * V::LANES {
                let (mut x, mut y) = (lo[r], hi[r]);
                if self.accumulate {
                    x = V::load(row).add(x);
                    y = V::load(row.add(V::LANES)).add(y);
                }
                x.store(row);
                y.store(row.add(V::LANES));
            } else {
                let mut tmp = [0.0f32; 32];
                lo[r].store(tmp.as_mut_ptr());
                hi[r].store(tmp.as_mut_ptr().add(V::LANES));
                for (jj, &v) in tmp[..cols].iter().enumerate() {
                    let o = row.add(jj);
                    *o = if self.accumulate { *o + v } else { v };
                }
            }
        }
    }
}

/// The few vector operations a tile needs. `add` and `mul` round like
/// their scalar counterparts, lane by lane.
///
/// # Safety
///
/// Every method requires the implementing type's target features (none
/// for [`Lanes4`]); `load` and `store` also need `p` valid for `LANES`
/// floats, read or written without alignment.
trait Simd: Copy {
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// Hints that the cache line holding `p` will be read soon (`p` need
    /// not be a valid address).
    #[inline(always)]
    unsafe fn prefetch(_p: *const f32) {}
}

/// The portable tier's vector: four lanes the compiler may map onto
/// whatever SIMD the target has.
#[derive(Clone, Copy)]
struct Lanes4([f32; 4]);

impl Simd for Lanes4 {
    const LANES: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Self([0.0; 4])
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self([x; 4])
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Self(p.cast::<[f32; 4]>().read_unaligned())
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self.0)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] + o.0[l]))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] * o.0[l]))
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{Gemm, Simd};

    #[derive(Clone, Copy)]
    pub(super) struct F32x8(__m256);

    impl Simd for F32x8 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Self(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn prefetch(p: *const f32) {
            _mm_prefetch::<_MM_HINT_T0>(p.cast())
        }
    }

    #[derive(Clone, Copy)]
    pub(super) struct F32x16(__m512);

    impl Simd for F32x16 {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(_mm512_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm512_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Self(_mm512_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn prefetch(p: *const f32) {
            _mm_prefetch::<_MM_HINT_T0>(p.cast())
        }
    }

    /// The AVX2 tier: 6×16 tiles.
    ///
    /// # Safety
    ///
    /// As for [`Gemm::block`], on a CPU with AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_avx2(
        g: &Gemm<'_>,
        ib: usize,
        jb: usize,
        have: &mut usize,
        scratch: &mut [f32],
    ) {
        g.block_on::<F32x8, 6>(ib, jb, have, scratch)
    }

    /// The AVX-512F tier: 8×32 tiles.
    ///
    /// # Safety
    ///
    /// As for [`Gemm::block`], on a CPU with AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn block_avx512(
        g: &Gemm<'_>,
        ib: usize,
        jb: usize,
        have: &mut usize,
        scratch: &mut [f32],
    ) {
        g.block_on::<F32x16, 8>(ib, jb, have, scratch)
    }
}

/// The pre-engine `A·B` triple loop (`i-k-j`, zero-skip), kept verbatim
/// as the measurement baseline and as the oracle for equivalence tests.
pub fn gemm_nn_reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if !accumulate {
        out.fill(0.0);
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The pre-engine `A·Bᵀ` dot-product loop, kept verbatim as the
/// measurement baseline and equivalence-test oracle.
pub fn gemm_nt_reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            if accumulate {
                *o += acc;
            } else {
                *o = acc;
            }
        }
    }
}

/// The pre-engine `Aᵀ·B` loop (`k` outermost, zero-skip), kept verbatim
/// as the measurement baseline and equivalence-test oracle.
pub fn gemm_tn_reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if !accumulate {
        out.fill(0.0);
    }
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Cache-blocked transpose of the row-major `rows×cols` slice `src` into
/// the `cols×rows` slice `dst`.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    for r0 in (0..rows).step_by(TB) {
        let r1 = (r0 + TB).min(rows);
        for c0 in (0..cols).step_by(TB) {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                let row = &src[r * cols..(r + 1) * cols];
                for (c, &v) in row.iter().enumerate().take(c1).skip(c0) {
                    dst[c * rows + r] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// The exactness rule, one element at a time.
    fn scalar_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0f32;
                for kk in 0..k {
                    sum += a[i * k + kk] * b[kk * n + j];
                }
                let o = &mut out[i * n + j];
                *o = if acc { *o + sum } else { sum };
            }
        }
    }

    #[test]
    fn every_tier_follows_the_scalar_rule() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 13, 5),
            (200, 3, 2),
            (3, 5, 200),
            (65, 64, 33),
        ] {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            for acc in [false, true] {
                let mut want = rand_vec(m * n, 3);
                scalar_nn(m, k, n, &a, &b, &mut want, acc);
                for tier in Tier::ALL.into_iter().filter(|t| t.is_supported()) {
                    let mut got = rand_vec(m * n, 3);
                    gemm_with(tier, Op::Nn, m, k, n, &a, &b, &mut got, acc, 2);
                    assert_eq!(want, got, "{tier:?} ({m},{k},{n}) acc={acc}");
                }
            }
        }
    }

    #[test]
    fn empty_k_stores_or_adds_zero() {
        for tier in Tier::ALL.into_iter().filter(|t| t.is_supported()) {
            // `-0 + 0` is `+0`: the empty sum is still added once.
            let mut out = vec![-0.0f32, 1.5, -2.0];
            gemm_with(tier, Op::Nn, 1, 0, 3, &[], &[], &mut out, true, 1);
            assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "{tier:?}");
            assert_eq!(out[1..], [1.5, -2.0]);
            gemm_with(tier, Op::Nt, 3, 0, 1, &[], &[], &mut out, false, 1);
            assert_eq!(out, [0.0; 3]);
        }
    }

    #[test]
    fn transpose_into_round_trips() {
        let (r, c) = (37, 53);
        let src = rand_vec(r * c, 8);
        let mut t = vec![0.0; r * c];
        transpose_into(&src, r, c, &mut t);
        let mut back = vec![0.0; r * c];
        transpose_into(&t, c, r, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn thread_globals_round_trip() {
        set_num_threads(4);
        assert_eq!(num_threads(), 4);
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(1);
        assert_eq!(kernel(), Kernel::Packed);
        assert!(Tier::detect().is_supported());
    }
}
