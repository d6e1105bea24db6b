//! The packed engine's tiers and its worker pool.
//!
//! Every tier the CPU supports must produce the portable tier's bytes, for
//! every product, shape, accumulate mode and thread count. Concurrent
//! callers must get the bytes the engine produced before the pool existed,
//! and a panicking task must reach the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use airchitect_tensor::gemm::{self, Op, Tier};
use airchitect_tensor::pool;
use proptest::prelude::*;

/// Deterministic values with exact zeros of both signs and magnitudes
/// spread over a few binades, so sums round often.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 16 {
                0 => 0.0,
                1 => -0.0,
                r => ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * (1u32 << (r % 8)) as f32,
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each supported tier, on 1, 2 or 4 threads, reproduces the portable
    /// tier on one thread bit for bit.
    #[test]
    fn every_tier_matches_the_portable_kernel(
        m in 1usize..70,
        k in 0usize..300,
        n in (0usize..3, 0usize..7).prop_map(|(base, d)| [16, 32, 64][base] + d - 3),
        op in 0usize..3,
        accumulate in any::<bool>(),
        threads in 0usize..3,
        seed in any::<u64>(),
    ) {
        let op = [Op::Nn, Op::Nt, Op::Tn][op];
        let threads = [1, 2, 4][threads];
        let a = values(m * k, seed);
        let b = values(k * n, seed ^ 1);
        let init = values(m * n, seed ^ 2);
        let mut want = init.clone();
        gemm::gemm_with(Tier::Portable, op, m, k, n, &a, &b, &mut want, accumulate, 1);
        for tier in Tier::ALL.into_iter().filter(|t| t.is_supported()) {
            let mut got = init.clone();
            gemm::gemm_with(tier, op, m, k, n, &a, &b, &mut got, accumulate, threads);
            prop_assert!(
                bits(&got) == bits(&want),
                "{tier:?} {op:?} m={m} k={k} n={n} acc={accumulate} threads={threads}"
            );
        }
    }
}

/// Products of a small training step and of serving batches: the ones a
/// pipeline makes, at sizes a debug build can afford.
const STEP: &[(Op, usize, usize, usize, bool)] = &[
    (Op::Nn, 64, 64, 256, false),
    (Op::Nn, 64, 256, 459, false),
    (Op::Tn, 256, 64, 459, true),
    (Op::Nt, 64, 459, 256, false),
    (Op::Tn, 64, 64, 256, true),
    (Op::Nt, 64, 256, 64, false),
    (Op::Nn, 3, 256, 459, false),
    (Op::Nn, 16, 192, 100, true),
];

/// FNV-1a over the output bits of every product of [`STEP`] on `threads`
/// threads, through the public entry points.
fn step_checksum(threads: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &(op, m, k, n, accumulate)) in STEP.iter().enumerate() {
        let seed = i as u64 * 3;
        let (a, b) = (values(m * k, seed + 1), values(k * n, seed + 2));
        let mut out = values(m * n, seed + 3);
        let product = match op {
            Op::Nn => gemm::gemm_nn,
            Op::Nt => gemm::gemm_nt,
            Op::Tn => gemm::gemm_tn,
        };
        product(m, k, n, &a, &b, &mut out, accumulate, threads);
        for byte in out.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The checksum the blocked engine (the one before the packed engine and
/// its pool) computed for [`STEP`].
const STEP_CHECKSUM: u64 = 0x2cc0_1820_9ea1_6f9c;

#[test]
fn eight_concurrent_callers_get_the_old_engines_bytes() {
    let start = Barrier::new(8);
    std::thread::scope(|s| {
        for t in 0..8 {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..3 {
                    let threads = 1 + (t + round) % 4;
                    assert_eq!(
                        step_checksum(threads),
                        STEP_CHECKSUM,
                        "caller {t}, round {round}, {threads} thread(s)"
                    );
                }
            });
        }
    });
}

#[test]
fn a_panicking_task_surfaces_on_the_caller() {
    let caught = std::panic::catch_unwind(|| {
        pool::run(16, 4, 0, &|claims, _| {
            if let Some(t) = claims.next() {
                panic!("task {t} failed");
            }
        })
    });
    let payload = caught.expect_err("the task's panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(msg.starts_with("task "), "{msg}");

    // A panic that only a pool worker can raise reaches the caller too.
    // The pool may be busy with another test's loop, in which case the
    // caller runs every task itself; retry until a worker took part.
    let caller = std::thread::current().id();
    let surfaced = (0..200).any(|_| {
        std::panic::catch_unwind(|| {
            pool::run(8, 2, 0, &|claims, _| {
                for _ in claims {
                    assert_eq!(std::thread::current().id(), caller, "worker task failed");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        })
        .is_err()
    });
    assert!(surfaced, "no pool worker ever took a task");

    // The pool keeps working after both.
    let done = AtomicUsize::new(0);
    pool::run(64, 4, 0, &|claims, _| {
        for _ in claims {
            done.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), 64);
}
