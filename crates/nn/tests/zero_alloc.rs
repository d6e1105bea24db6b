//! Proof that the training hot loop is allocation-free after warm-up.
//!
//! A counting wrapper around the system allocator tallies every `alloc`
//! and `realloc`. After a few warm-up batches have sized the workspace,
//! the persistent batch buffers, and the kernels' pack scratch, further
//! full-size batches must not touch the allocator at all.
//!
//! This file intentionally holds a single test: the counter is global, so
//! a concurrently running test would make it flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use airchitect_data::Dataset;
use airchitect_nn::network::{Sequential, Workspace};
use airchitect_nn::quant::{QuantArena, QuantizedNetwork};
use airchitect_nn::optim::Optimizer;
use airchitect_nn::train::gather_into;
use airchitect_nn::{loss, train};
use airchitect_tensor::{ops, Matrix};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One training batch through the zero-allocation path, exactly as
/// `fit_resumable`'s hot loop performs it — including the telemetry
/// instrumentation, so this test also proves recording stays off the heap.
#[allow(clippy::too_many_arguments)]
fn train_batch(
    network: &mut Sequential,
    ds: &Dataset,
    indices: &[usize],
    ws: &mut Workspace,
    batch_x: &mut Matrix,
    labels: &mut Vec<u32>,
    loss_grad: &mut Matrix,
    preds: &mut Vec<u32>,
    optimizer: &mut Optimizer,
) -> f32 {
    let _batch_timer = airchitect_telemetry::metrics::TRAIN_BATCH_US.start_timer();
    airchitect_telemetry::metrics::TRAIN_BATCHES.inc();
    gather_into(ds, indices, batch_x, labels);
    let threads = ws.threads();
    let logits = network.forward_ws(batch_x, ws, true);
    let loss = loss::softmax_cross_entropy_into(logits, labels, loss_grad, preds, threads);
    network.backward_ws(loss_grad, ws);
    let ctx = optimizer.prepare();
    network.for_each_param(|p| ctx.apply(p));
    loss
}

/// Warms a workspace up on `network`, then asserts that 10 more batches
/// on `threads` kernel threads allocate nothing. With 2 threads this covers
/// the parked pool: its workers, their scratch and every hand-off.
fn assert_batches_do_not_allocate(
    mut network: Sequential,
    ds: &Dataset,
    batch: &[usize],
    threads: usize,
) {
    let mut optimizer = Optimizer::adam(1e-3);
    let mut ws = Workspace::with_threads(threads);
    let mut batch_x = Matrix::zeros(1, 1);
    let mut labels: Vec<u32> = Vec::new();
    let mut loss_grad = Matrix::zeros(1, 1);
    let mut preds: Vec<u32> = Vec::new();
    let mut loss_sink = 0.0f32;
    let mut batches = |n: usize| {
        for _ in 0..n {
            loss_sink += train_batch(
                &mut network,
                ds,
                batch,
                &mut ws,
                &mut batch_x,
                &mut labels,
                &mut loss_grad,
                &mut preds,
                &mut optimizer,
            );
        }
    };
    batches(3);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    batches(10);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(loss_sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state batches on {threads} thread(s) must perform zero heap allocations"
    );
}

#[test]
fn steady_state_training_batches_do_not_allocate() {
    let mut ds = Dataset::new(3, 4).unwrap();
    for i in 0..256 {
        let f = i as f32;
        ds.push(&[f % 7.0, (f * 0.3) % 5.0, f % 11.0], (i % 4) as u32)
            .unwrap();
    }
    let mut network = Sequential::mlp(3, &[16, 8], 4, 1);
    let mut optimizer = Optimizer::adam(1e-3);
    let mut ws = Workspace::with_threads(1);
    let mut batch_x = Matrix::zeros(1, 1);
    let mut labels: Vec<u32> = Vec::new();
    let mut loss_grad = Matrix::zeros(1, 1);
    let mut preds: Vec<u32> = Vec::new();

    let batch: Vec<usize> = (0..64).collect();

    // Warm-up: size every buffer (workspace activations/gradients, batch
    // buffers, kernel pack scratch).
    for _ in 0..3 {
        train_batch(
            &mut network,
            &ds,
            &batch,
            &mut ws,
            &mut batch_x,
            &mut labels,
            &mut loss_grad,
            &mut preds,
            &mut optimizer,
        );
    }

    // Telemetry is disabled by default: batches must not allocate AND the
    // instrumentation must be a complete no-op (no counter increments, no
    // histogram samples).
    assert!(!airchitect_telemetry::enabled());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut loss_sink = 0.0f32;
    for _ in 0..10 {
        loss_sink += train_batch(
            &mut network,
            &ds,
            &batch,
            &mut ws,
            &mut batch_x,
            &mut labels,
            &mut loss_grad,
            &mut preds,
            &mut optimizer,
        );
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(loss_sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state batches must perform zero heap allocations"
    );
    assert_eq!(
        airchitect_telemetry::metrics::TRAIN_BATCHES.get(),
        0,
        "disabled telemetry must not record counters"
    );
    assert_eq!(
        airchitect_telemetry::metrics::TRAIN_BATCH_US.snapshot().count,
        0,
        "disabled telemetry must not record histogram samples"
    );

    // Enabled telemetry (metrics only, no sink) records through atomics and
    // must keep the hot loop allocation-free.
    airchitect_telemetry::enable();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        loss_sink += train_batch(
            &mut network,
            &ds,
            &batch,
            &mut ws,
            &mut batch_x,
            &mut labels,
            &mut loss_grad,
            &mut preds,
            &mut optimizer,
        );
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    airchitect_telemetry::disable();
    assert!(loss_sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "enabled metrics recording must stay allocation-free"
    );
    assert_eq!(airchitect_telemetry::metrics::TRAIN_BATCHES.get(), 10);
    assert_eq!(
        airchitect_telemetry::metrics::TRAIN_BATCH_US.snapshot().count,
        10
    );
    airchitect_telemetry::reset();

    // Inference through a warmed workspace is allocation-free too.
    let preds_a = train::predict_dataset(&mut network, &ds);
    gather_into(&ds, &batch, &mut batch_x, &mut labels);
    let mut infer_ws = Workspace::new();
    network.infer_ws(&batch_x, &mut infer_ws); // warm-up
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    ops::argmax_rows_into(network.infer_ws(&batch_x, &mut infer_ws), &mut preds);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "warmed inference must not allocate");
    assert_eq!(
        &preds_a[..64],
        &preds[..],
        "paths must agree on predictions"
    );

    // The int8 single-query path is allocation-free as well: once the
    // arena has been sized by a first query against this network's
    // shape, further queries — each gathering its embedding row into the
    // preallocated concat row, and every ranking accessor — must not touch
    // the allocator.
    let emb_net = Sequential::embedding_mlp(3, 8, 4, 16, 6, 17);
    let quant = QuantizedNetwork::from_network(&emb_net).unwrap();
    let mut arena = QuantArena::new();
    quant.infer(&[1, 2, 3], &mut arena); // warm-up sizes the arena
    let _ = arena.ranked();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut sink = 0u32;
    for i in 0..32u8 {
        quant.infer(&[i % 8, (i * 3) % 8, (i * 5) % 8], &mut arena);
        sink ^= arena.top1();
        sink ^= arena.top_k(4).len() as u32;
        sink ^= arena.ranked()[0];
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(sink != u32::MAX);
    assert_eq!(
        after - before,
        0,
        "warmed quantized queries must perform zero heap allocations"
    );

    // Multi-threaded training: the products and the loss of this network
    // are large enough to run on the pool.
    let mut wide = Dataset::new(3, 64).unwrap();
    for i in 0..256u32 {
        wide.push(
            &[(i % 8) as f32, (i * 3 % 8) as f32, (i * 5 % 8) as f32],
            i % 64,
        )
        .unwrap();
    }
    let batch: Vec<usize> = (0..256).collect();
    let network = Sequential::embedding_mlp(3, 8, 16, 256, 64, 5);
    assert_batches_do_not_allocate(network, &wide, &batch, 2);
}
