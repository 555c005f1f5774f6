//! Allocation-regression gate for the zero-allocation probe loop.
//!
//! This test binary installs the same kind of counting global allocator as
//! the `diophantus` binary (every alloc/realloc bumps the
//! `alloc.heap.allocs` registry cell) and replays the E4 path workload —
//! the sweep the allocation-discipline work was measured on. With the
//! compilation cache warm, deciding thousands of probes through the
//! scratch-memory discipline must stay under a pinned per-probe allocation
//! bound; a regression that reintroduces per-probe heap traffic fails here
//! long before it shows up in bench numbers.

use std::alloc::{GlobalAlloc, Layout, System};

use diophantus::containment::{Algorithm, BagContainmentDecider, CompiledPair};
use diophantus::workloads::suite::path_self_containment;

/// Delegates to the system allocator, counting allocations into the
/// `dioph-obs` registry (mirrors the allocator installed by the
/// `diophantus` binary).
struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the registry bump neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        diophantus::obs::registry::ALLOC_HEAP_ALLOCS.incr();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        diophantus::obs::registry::ALLOC_HEAP_ALLOCS.incr();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        diophantus::obs::registry::ALLOC_HEAP_ALLOCS.incr();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_probe_loop_stays_under_the_allocation_bound() {
    // The E4 containee-scaling instance benchmarked in ROADMAP.md: the
    // length-4 path query against itself, whose probe space has 5^5 = 3125
    // probe tuples, decided with the all-probes algorithm.
    let (containee, containing) = path_self_containment(4);
    let pair = CompiledPair::new(containee, containing).expect("the path pair is decidable");
    let decider = BagContainmentDecider::new(Algorithm::AllProbes);

    // The cold run: the first decision of a fresh pair builds its compile
    // plan and warms a new scratch. Probes are compiled in the scratch and
    // memoised nowhere, so it must stay under the same per-probe bound.
    let before = diophantus::obs::snapshot();
    let verdict = decider.decide_pair(&pair).expect("decidable");
    let delta = diophantus::obs::snapshot().since(&before);
    assert!(verdict.holds(), "the path pair is contained by construction");
    let probes = delta.get("containment.probes.decided").unwrap_or(0);
    let allocs = delta.get("alloc.heap.allocs").unwrap_or(0);
    assert_eq!(probes, 3125, "the cold run must decide the full probe space");
    let per_probe = allocs as f64 / probes as f64;
    assert!(
        per_probe < 8.0,
        "cold allocation regression: {allocs} heap allocs over {probes} probes \
         ({per_probe:.1}/probe)"
    );

    // The warm run recompiles every probe through a fresh scratch, exactly
    // as a bench repeat loop does.
    let before = diophantus::obs::snapshot();
    decider.decide_pair(&pair).expect("decidable");
    let delta = diophantus::obs::snapshot().since(&before);

    let probes = delta.get("containment.probes.decided").unwrap_or(0);
    let allocs = delta.get("alloc.heap.allocs").unwrap_or(0);
    assert_eq!(probes, 3125, "the warm run must decide the full probe space");
    let per_probe = allocs as f64 / probes as f64;
    // The pre-discipline baseline measured ~76 heap allocations per probe on
    // this workload; the scratch-threaded loop runs well under 8. The bound
    // leaves headroom for allocator-pattern jitter while still catching any
    // reintroduced per-probe allocation (each costs +1.0 here).
    assert!(
        per_probe < 8.0,
        "allocation regression: {allocs} heap allocs over {probes} probes ({per_probe:.1}/probe)"
    );
    // The scratch actually served the loop: all but the first probe of the
    // pair reused warmed buffers.
    assert_eq!(delta.get("alloc.scratch.reuses"), Some(3124));
}
