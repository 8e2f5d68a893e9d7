//! Live-heap contract for `NetworkExecutor::run`: between layers it holds
//! only the live activation, never one copy per layer.
//!
//! A counting `GlobalAlloc` tracks live bytes and their high-water mark;
//! it lives in its own single-test integration binary so no other test's
//! allocations pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use winofuse_conv::tensor::random_tensor;
use winofuse_model::layer::ConvParams;
use winofuse_model::network::Network;
use winofuse_model::runtime::{NetworkExecutor, NetworkWeights};
use winofuse_model::shape::FmShape;

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, checked by the caller per the `GlobalAlloc` contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn run_holds_only_the_live_activation() {
    const LAYERS: usize = 12;
    let (channels, side) = (16, 64);
    let activation_bytes = channels * side * side * std::mem::size_of::<f32>();
    let mut builder = Network::builder("stack", FmShape::new(channels, side, side));
    for i in 0..LAYERS {
        builder = builder.conv(format!("conv{i}"), ConvParams::new(channels, 3, 1, 1, true));
    }
    let net = builder.build().unwrap();
    let weights = NetworkWeights::random(&net, 3).unwrap();
    let exec = NetworkExecutor::new(&net, &weights)
        .unwrap()
        .with_threads(1);
    let x = random_tensor(1, channels, side, side, 4);
    // Warm-up: lazily initialized runtime state is not part of the run.
    drop(exec.run(&x).unwrap());

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let y = exec.run(&x).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert_eq!(y.c(), channels);
    assert!(
        peak < 5 * activation_bytes,
        "run peaked at {peak} live bytes above its baseline, {:.1} activations of {LAYERS} layers",
        peak as f64 / activation_bytes as f64
    );
}
