//! The unified (pair × unit) work-stealing scheduler: one shared work
//! queue serves both the single-pair `decide` pool and the streaming
//! `batch` pool.
//!
//! ## The work unit
//!
//! The schedulable unit is a **(pair, unit-index) claim**, not a whole
//! pair. Every admitted [`PairTask`] publishes a range of claimable unit
//! indices (`0..units`). The scheduler does not know what a unit is: the
//! decider counts a pair's units ([`BagContainmentDecider::units`] — one
//! per raw probe index for a sweep, one for the most-general probe, one
//! no-op unit for an empty probe space, so some worker always retires —
//! and therefore finalizes — the pair), decides each one
//! ([`BagContainmentDecider::decide_unit_in`]) and assembles the verdict
//! ([`BagContainmentDecider::verdict`]). Workers claim *chunks* of
//! consecutive units with one relaxed `fetch_add` on the task's
//! `next_unit` cursor: chunking keeps cache locality on giant probe spaces
//! and keeps tiny pairs from paying one atomic claim per probe, while the
//! shared cursor means any worker can pull units from any in-flight pair —
//! a giant pair amid small ones is drained by the whole pool instead of
//! starving on one thread.
//!
//! ## Unit lifecycle
//!
//! ```text
//!   admit ──▶ claim chunk ──▶ decide units ──▶ retire chunk ──▶ finalize
//!   (feeder   (fetch_add on    (the sequential   (per-task tally  (last
//!    blocks    next_unit; a     decide_unit_in,   under one lock   retired
//!    at the    foreign pair     in the worker     per chunk; the   chunk
//!    in-flight counts one       scratch; units    scratch flushes  calls the
//!    capacity) steal)           past the cutoff   its counters)    decider's
//!                               skipped)                           verdict)
//! ```
//!
//! A claimed chunk always retires in full — skipped units (past the
//! cutoff, or after a cancellation) retire without being decided — so the
//! per-task `remaining` tally reaches zero exactly once, and the worker
//! that retires the last chunk finalizes the pair: the decider assembles
//! the verdict from the merged event, and the worker hands it to the
//! caller's sink. The per-task completion tally lives under a `Mutex`
//! locked once per retired chunk, which is also what publishes every
//! worker's probe outcomes to the finalizer (the claim cursors only use
//! relaxed atomics).
//!
//! ## Deterministic merging
//!
//! The sequential decider returns the outcome of the **first** unit (in
//! unit order) that produces an event — a witness assignment or a
//! per-probe error. To be bit-identical for any worker count and any
//! claim interleaving, each task keeps only the event with the lowest unit
//! index and uses that index as a *cutoff*: units above a known event are
//! skipped (their outcome could never win the merge), while lower units
//! are still decided and may replace the event. Contained verdicts count
//! every probe tuple exactly once, so `probes_checked` also matches the
//! sequential run.
//!
//! ## Cancellation
//!
//! Early termination never poisons the pool. A per-pair event (a witness,
//! a `--keep-going` budget error) cancels only that pair's remaining units
//! through its cutoff; other in-flight pairs are untouched. A scheduler
//! abort (the batch collector's `emit` returned `false`) flips one relaxed
//! flag: workers retire remaining units without deciding them, finalize
//! normally, and the collector discards the drained results — no worker is
//! ever detached or killed mid-unit.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dioph_arith::Natural;
use dioph_containment::{
    BagContainment, BagContainmentDecider, CompiledPair, ContainmentError, ProbeScratch,
};

/// A unit that decides the whole pair: its index and its witness or error.
type UnitEvent = (usize, Result<Vec<Natural>, ContainmentError>);

/// The merge-and-completion state of one task, locked once per retired
/// chunk. Holding `checked` and the winning event under the same lock as
/// `remaining` is what hands the finalizing worker every peer's outcome.
struct Progress {
    /// Units not yet retired; the chunk that takes this to zero finalizes.
    remaining: usize,
    /// Probe tuples decided (the `probes_checked` of a Contained verdict).
    checked: usize,
    /// The lowest-index unit event seen so far.
    event: Option<UnitEvent>,
}

/// One admitted pair: a claimable range of `units` unit indices plus the
/// merge state that turns retired units back into a single verdict.
pub(crate) struct PairTask {
    /// Submission sequence; handed back to the sink for in-order collection.
    seq: u64,
    pair: Arc<CompiledPair>,
    /// Total claimable units (≥ 1).
    units: usize,
    /// Consecutive units claimed per `fetch_add` on `next_unit`.
    chunk: usize,
    /// The claim cursor: the next unclaimed unit index.
    next_unit: AtomicUsize,
    /// Lowest unit index with a known event; higher units are skipped.
    cutoff: AtomicUsize,
    /// The worker that claimed first; foreign claims count as steals.
    owner: AtomicUsize,
    progress: Mutex<Progress>,
}

impl PairTask {
    /// Whether the task still has unclaimed units (racy, by design: a
    /// losing claimer just moves on).
    fn has_units(&self) -> bool {
        self.next_unit.load(Ordering::Relaxed) < self.units
    }
}

/// The scheduler's shared queue state, guarded by [`Scheduler::state`].
struct SchedState {
    /// In-flight tasks with unclaimed units, in submission order.
    queue: Vec<Arc<PairTask>>,
    /// Tasks admitted but not yet finalized (the feeder's backpressure).
    in_flight: usize,
    /// No further admissions; drained workers may exit.
    closed: bool,
    /// Per-worker claimed-unit tallies, for the claim-spread gauge.
    claims: Vec<u64>,
}

/// One shared work queue of (pair, unit-index) units.
///
/// The same implementation serves the single-pair pool (`pool` label
/// `"probe"`, one pre-admitted task) and the streaming batch pool (label
/// `"batch"`, tasks admitted by the feeder while workers run).
pub(crate) struct Scheduler {
    /// Pool label for worker thread names and per-worker stats.
    pool: &'static str,
    workers: usize,
    /// Maximum tasks in flight before [`Self::admit`] blocks.
    capacity: usize,
    state: Mutex<SchedState>,
    /// Signalled on admission and close: workers wait here when drained.
    work_available: Condvar,
    /// Signalled on finalize and abort: the feeder waits here when full.
    slot_available: Condvar,
    aborted: AtomicBool,
}

impl Scheduler {
    pub(crate) fn new(pool: &'static str, workers: usize, capacity: usize) -> Self {
        Scheduler {
            pool,
            workers: workers.max(1),
            capacity: capacity.max(1),
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                in_flight: 0,
                closed: false,
                claims: vec![0; workers.max(1)],
            }),
            work_available: Condvar::new(),
            slot_available: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Publishes a compiled pair's `units` claimable units (the decider's
    /// [`BagContainmentDecider::units`]), blocking while the scheduler is
    /// at capacity. Returns `false` (without admitting) once the scheduler
    /// is aborted.
    pub(crate) fn admit(&self, seq: u64, pair: Arc<CompiledPair>, units: usize) -> bool {
        // Chunks aim for a few claims per worker per pair — enough that a
        // giant pair spreads across the pool, few enough that a tiny pair
        // costs one claim — capped so late-joining workers on a giant pair
        // still find units to steal.
        let chunk = (units / (self.workers * 4)).clamp(1, 64);
        let task = Arc::new(PairTask {
            seq,
            pair,
            units,
            chunk,
            next_unit: AtomicUsize::new(0),
            cutoff: AtomicUsize::new(usize::MAX),
            owner: AtomicUsize::new(usize::MAX),
            progress: Mutex::new(Progress { remaining: units, checked: 0, event: None }),
        });
        let mut state = self.state.lock().expect("scheduler users never panic");
        while state.in_flight >= self.capacity && !self.aborted.load(Ordering::Relaxed) {
            state = self.slot_available.wait(state).expect("scheduler users never panic");
        }
        if self.aborted.load(Ordering::Relaxed) {
            return false;
        }
        state.in_flight += 1;
        if self.pool == "batch" {
            let depth = state.in_flight as u64;
            dioph_obs::registry::ENGINE_BATCH_QUEUE_DEPTH_MAX.record_max(depth);
        }
        state.queue.push(task);
        drop(state);
        self.work_available.notify_all();
        true
    }

    /// Declares the stream complete: workers exit once the queue drains.
    pub(crate) fn close(&self) {
        self.state.lock().expect("scheduler users never panic").closed = true;
        self.work_available.notify_all();
    }

    /// Cancels everything: admissions stop, un-decided units retire as
    /// skips. In-flight tasks still finalize (their sinks still run), so
    /// the caller keeps draining its result channel as usual.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
        drop(self.state.lock().expect("scheduler users never panic"));
        self.work_available.notify_all();
        self.slot_available.notify_all();
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Picks the next task with unclaimed units — earliest submission
    /// first, which unblocks the in-order collector soonest — or blocks
    /// until one is admitted. `None` means the stream is closed (or
    /// aborted) and drained.
    fn next_task(&self) -> Option<Arc<PairTask>> {
        let mut state = self.state.lock().expect("scheduler users never panic");
        loop {
            state.queue.retain(|task| task.has_units());
            if let Some(task) = state.queue.first() {
                return Some(Arc::clone(task));
            }
            if state.closed || self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            state = self.work_available.wait(state).expect("scheduler users never panic");
        }
    }

    /// The worker loop: claim a chunk, decide its units, retire it, and
    /// finalize the pair when the last chunk retires. `sink` receives every
    /// finalized `(seq, verdict)`.
    pub(crate) fn run_worker(
        &self,
        worker: usize,
        decider: &BagContainmentDecider,
        sink: &impl Fn(u64, Result<BagContainment, ContainmentError>),
    ) {
        dioph_obs::trace::name_current_thread(&format!("{}-worker-{worker}", self.pool));
        let mut claims = 0u64;
        let mut busy_ns = 0u64;
        let mut max_unit_ns = 0u64;
        // One scratch per worker thread for the whole run: every probe this
        // worker decides — across chunks, across pairs — reuses the same
        // warmed buffers. Scratch reuse is capacity-only, so worker verdicts
        // stay bit-identical to the sequential loop.
        let mut scratch = ProbeScratch::new();
        let mut current: Option<Arc<PairTask>> = None;
        loop {
            let task = match current.take() {
                // Locality: keep claiming from the task this worker already
                // touched while it has units left (no queue lock needed).
                Some(task) if task.has_units() => task,
                _ => match self.next_task() {
                    Some(task) => task,
                    None => break,
                },
            };
            let start = task.next_unit.fetch_add(task.chunk, Ordering::Relaxed);
            if start >= task.units {
                continue; // lost the race for the task's tail
            }
            let end = task.units.min(start + task.chunk);
            let claimed = end - start;
            claims += claimed as u64;
            dioph_obs::registry::ENGINE_UNITS_CLAIMED.add(claimed as u64);
            // The first claim marks ownership; every chunk another worker
            // pulls from the pair afterwards is a steal.
            let claim = task.owner.compare_exchange(
                usize::MAX,
                worker,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            if claim.is_err_and(|owner| owner != worker) {
                dioph_obs::registry::ENGINE_STEALS.incr();
            }
            let (decided, event) = self.decide_units(
                &task,
                decider,
                start..end,
                &mut scratch,
                &mut busy_ns,
                &mut max_unit_ns,
            );
            // The chunk's per-probe counters reach the registry in one go.
            scratch.flush_counters();
            let finished = {
                let mut progress = task.progress.lock().expect("scheduler workers never panic");
                if let Some((index, event)) = event {
                    if progress.event.as_ref().is_none_or(|(winner, _)| index < *winner) {
                        progress.event = Some((index, event));
                        // Written only under this task's progress lock, so
                        // the store is monotone decreasing; readers race it
                        // harmlessly (skipping is only an optimisation).
                        task.cutoff.store(index, Ordering::Relaxed);
                    }
                }
                progress.checked += decided;
                progress.remaining -= claimed;
                progress.remaining == 0
            };
            if finished {
                self.finalize(&task, decider, sink);
            }
            current = Some(task);
        }
        dioph_obs::pool::record(self.pool, worker, claims, busy_ns, max_unit_ns);
        self.state.lock().expect("scheduler users never panic").claims[worker] = claims;
    }

    /// Decides the units of one claimed chunk; returns how many probes were
    /// decided and the chunk's lowest-index event, if any.
    fn decide_units(
        &self,
        task: &PairTask,
        decider: &BagContainmentDecider,
        range: std::ops::Range<usize>,
        scratch: &mut ProbeScratch,
        busy_ns: &mut u64,
        max_unit_ns: &mut u64,
    ) -> (usize, Option<UnitEvent>) {
        let mut decided = 0usize;
        for index in range {
            if self.aborted.load(Ordering::Relaxed) {
                // Cancelled: the rest of the chunk retires as skips.
                break;
            }
            // An event at a lower index already decides the pair; skipping
            // is only an optimisation (a stale read costs wasted work,
            // never a wrong merge).
            if index > task.cutoff.load(Ordering::Relaxed) {
                continue;
            }
            let unit_start = dioph_obs::phase::timing_enabled().then(Instant::now);
            // A unit that is not a probe tuple (or the degenerate no-op
            // unit) decides nothing.
            let Some(outcome) = decider.decide_unit_in(&task.pair, index, scratch) else {
                continue;
            };
            decided += 1;
            if let Some(unit_start) = unit_start {
                let ns = u64::try_from(unit_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                *busy_ns = busy_ns.saturating_add(ns);
                *max_unit_ns = (*max_unit_ns).max(ns);
            }
            let Some(event) = outcome.transpose() else { continue };
            // Later units of this chunk have strictly higher indices, so
            // they can never win the merge against this event: stop here
            // and let the remainder retire as skips.
            return (decided, Some((index, event)));
        }
        (decided, None)
    }

    /// Has the decider turn a fully retired task back into a verdict and
    /// hands it to the sink; runs on whichever worker retired the last chunk.
    fn finalize(
        &self,
        task: &PairTask,
        decider: &BagContainmentDecider,
        sink: &impl Fn(u64, Result<BagContainment, ContainmentError>),
    ) {
        let (event, checked) = {
            let mut progress = task.progress.lock().expect("scheduler workers never panic");
            (progress.event.take(), progress.checked)
        };
        sink(task.seq, decider.verdict(&task.pair, event, checked));
        let mut state = self.state.lock().expect("scheduler users never panic");
        state.in_flight -= 1;
        drop(state);
        self.slot_available.notify_all();
    }

    /// Records the run's claim spread (busiest minus idlest worker's
    /// claimed units) into the `engine.claim_spread.max` gauge. Call after
    /// every worker has exited.
    pub(crate) fn finish(&self) {
        let state = self.state.lock().expect("scheduler users never panic");
        if let (Some(max), Some(min)) = (state.claims.iter().max(), state.claims.iter().min()) {
            dioph_obs::registry::ENGINE_CLAIM_SPREAD_MAX.record_max(max - min);
        }
    }
}

/// Decides the `units` units of `pair` (the decider's
/// [`BagContainmentDecider::units`]) with up to `jobs` worker threads;
/// the verdict is bit-identical to `decider.decide_pair(&pair)`. Also
/// returns the scheduler's per-worker claimed-unit tallies (one entry per
/// spawned worker): they belong to this run alone, unlike the
/// process-global `engine.units_claimed` counter and pool stats.
pub(crate) fn decide_pair_parallel(
    decider: &BagContainmentDecider,
    pair: Arc<CompiledPair>,
    units: usize,
    jobs: usize,
) -> (Result<BagContainment, ContainmentError>, Vec<u64>) {
    // Never spawn more workers than there are claimable units: `--jobs 8`
    // on a 3-probe pair gets 3 threads, not 8 (5 of which could only idle).
    let workers = jobs.min(units).max(1);
    let scheduler = Scheduler::new("probe", workers, 1);
    scheduler.admit(0, pair, units);
    scheduler.close();
    let slot: Mutex<Option<Result<BagContainment, ContainmentError>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for worker in 0..workers {
            let (scheduler, slot) = (&scheduler, &slot);
            s.spawn(move || {
                scheduler.run_worker(worker, decider, &|_seq, result| {
                    *slot.lock().expect("probe workers never panic") = Some(result);
                });
            });
        }
    });
    scheduler.finish();
    let result = slot
        .into_inner()
        .expect("probe workers never panic")
        .expect("the admitted pair is always finalized");
    (result, scheduler.state.into_inner().expect("probe workers never panic").claims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_containment::Algorithm;
    use dioph_cq::parse_query;

    #[test]
    fn parallel_all_probes_matches_sequential_probe_counts() {
        // The diagonal-probe example has 16 probe tuples; all must be
        // checked (and counted) when containment holds.
        let q = parse_query("q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2')").unwrap();
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        let pair = Arc::new(CompiledPair::new(q.clone(), q.clone()).unwrap());
        let sequential = decider.decide_pair(&pair).unwrap();
        let units = decider.units(&pair).unwrap();
        for jobs in [1, 2, 3, 8, 64] {
            let parallel =
                decide_pair_parallel(&decider, Arc::clone(&pair), units, jobs).0.unwrap();
            assert_eq!(parallel, sequential, "jobs={jobs}");
        }
        assert!(matches!(sequential, BagContainment::Contained { probes_checked: 16 }));
    }

    #[test]
    fn parallel_merge_picks_the_first_failing_probe() {
        // A failing pair: the counterexample must be the one the sequential
        // loop finds (the lowest-index failing probe), for every job count.
        let q1 = parse_query("q(x, y) <- R(x, y)").unwrap();
        let q2 = parse_query("p(x, y) <- R(x, x)").unwrap();
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        let sequential = decider.decide(&q1, &q2).unwrap();
        let ce = sequential.counterexample().expect("pair must fail");
        for jobs in [2, 4, 16] {
            let pair = Arc::new(CompiledPair::new(q1.clone(), q2.clone()).unwrap());
            let units = decider.units(&pair).unwrap();
            let parallel = decide_pair_parallel(&decider, pair, units, jobs).0.unwrap();
            assert_eq!(parallel.counterexample(), Some(ce), "jobs={jobs}");
            assert_eq!(parallel.to_json(), sequential.to_json(), "jobs={jobs}");
        }
    }

    #[test]
    fn workers_are_capped_at_the_unit_count() {
        // A pair with a 4-unit probe space run at jobs=64 must record stats
        // for at most 4 workers (the cap is what keeps thread spawns
        // bounded by available work).
        let q = parse_query("q(x) <- R(x, x), S(x)").unwrap();
        let pair = Arc::new(CompiledPair::new(q.clone(), q.clone()).unwrap());
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        let units = decider.units(&pair).unwrap();
        assert!(units < 64, "the example must be smaller than the job count");
        // The scheduler's own per-worker tallies, not the process-global
        // pool stats that concurrently running tests also write.
        let (result, claims) = decide_pair_parallel(&decider, pair, units, 64);
        result.unwrap();
        assert!(!claims.is_empty());
        assert!(claims.len() <= units, "{} workers for {units} units", claims.len());
    }

    #[test]
    fn every_admitted_unit_is_claimed_exactly_once() {
        // Unit claims across a mixed stream must add up to the admitted
        // probe spaces — no unit is lost or double-claimed, even with many
        // workers racing tiny chunks.
        let q = parse_query("q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2')").unwrap();
        let pair = Arc::new(CompiledPair::new(q.clone(), q.clone()).unwrap());
        let decider = BagContainmentDecider::new(Algorithm::AllProbes);
        // Summed from this run's scheduler: the global `engine.units_claimed`
        // counter also moves with every sibling test deciding in parallel.
        let units = decider.units(&pair).unwrap();
        let (result, claims) = decide_pair_parallel(&decider, pair, units, 8);
        result.unwrap();
        assert_eq!(claims.iter().sum::<u64>(), units as u64);
    }
}
