//! Shared worker pool.
//!
//! One idiom serves every parallel site in the crate: an **order-preserving
//! streaming map** over an owned work list, [`par_map_streamed`]. Callers
//! fan the *pure* part of their work out through it and apply the results
//! in input order, so parallel and sequential runs produce identical
//! structures. [`par_map_isolated`] is the window = `n` special case that
//! collects into a vector.
//!
//! **Dispatch.** A call opens one thread scope with `threads − 1` helper
//! threads, and the calling thread works too. Threads claim items through
//! an atomic cursor that stays at most `window` items ahead of the next
//! undelivered result (claimed − delivered ≤ window), so the resident
//! state — tasks running plus finished results awaiting their turn — is
//! bounded by the window, not by `items.len()`. Each item has one slot,
//! holding first its input and then its outcome. Between tasks the caller
//! hands every finished in-order result to `sink`, so `sink` always runs
//! on the calling thread and a shard's state can be released as soon as
//! its turn comes. A thread with nothing to claim parks on a condvar rather
//! than spinning: a helper while the window is full, the caller while its
//! next in-order result is still running elsewhere. A task pays one cursor
//! bump and two uncontended slot locks — no channel hop and no collector
//! thread competing with the workers for cores.
//!
//! The pool is **panic-safe**: every task body runs under `catch_unwind`
//! ([`run_isolated`]), so one misbehaving task cannot unwind the scope and
//! take the other tasks' results with it; its fault surfaces as
//! `Err(TaskFault)` at its own index.
//!
//! When the calling thread holds an active [`crate::budget::BudgetScope`]
//! with a wall-clock deadline, no item is claimed once it has passed: the
//! caller closes the cursor and every item not yet claimed comes back as a
//! deadline fault. Tasks already running finish and deliver their results —
//! the call never returns before every task it started has ended.

use crate::budget;
use crate::quarantine::FaultCause;
use crate::telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Worker-pool instrumentation. `pool.tasks` (exact, counted once per map
/// call) and the per-kind fault counters are precise; the wait/exec/
/// occupancy histograms are *statistical samples* — one task in
/// [`SPAN_SAMPLE_EVERY`], starting with the first — so that two clock
/// reads plus three histogram records never dominate a short task.
/// `wait` is the time from the window admitting a task to its start.
mod metrics {
    use crate::budget::BreachKind;
    use crate::quarantine::FaultCause;

    crate::counter!(pub TASKS, "pool.tasks");
    crate::counter!(pub FAULTS_PARSE, "pool.faults.parse");
    crate::counter!(pub FAULTS_PANIC, "pool.faults.panic");
    crate::counter!(pub FAULTS_BUDGET, "pool.faults.budget");
    crate::counter!(pub FAULTS_DEADLINE, "pool.faults.deadline");
    crate::histogram!(pub TASK_WAIT_NS, "pool.task.wait_ns");
    crate::histogram!(pub TASK_EXEC_NS, "pool.task.exec_ns");
    crate::histogram!(pub WINDOW_OCCUPANCY, "pool.window.occupancy");

    /// Counts one fault under the counter matching its cause. Deadline
    /// breaches get their own bucket (they mean the *pool* was abandoned,
    /// not that the task itself exhausted a budget).
    pub fn record_fault(cause: &FaultCause) {
        match cause {
            FaultCause::Parse { .. } => FAULTS_PARSE.inc(),
            FaultCause::Panic { .. } => FAULTS_PANIC.inc(),
            FaultCause::Budget(breach) if breach.kind == BreachKind::Deadline => {
                FAULTS_DEADLINE.inc()
            }
            FaultCause::Budget(_) => FAULTS_BUDGET.inc(),
        }
    }
}

/// One task in this many records its timing histograms: per thread on the
/// sequential path, by item index (`index % SPAN_SAMPLE_EVERY == 0`) on
/// the threaded one.
const SPAN_SAMPLE_EVERY: u32 = 64;

thread_local! {
    /// Per-thread sample pacer for the pool's timing histograms.
    static SPAN_PACER: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Whether this thread's next pool event falls on the sample grid. The
/// first event on every thread samples, so short runs still populate the
/// histograms.
#[inline]
fn sample_span() -> bool {
    SPAN_PACER.with(|c| {
        let v = c.get();
        c.set(v.wrapping_add(1));
        v % SPAN_SAMPLE_EVERY == 0
    })
}

/// A fault raised by one task of a parallel map: which item faulted and why.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFault {
    /// Index of the faulting item in the input `items` vector.
    pub index: usize,
    /// The converted panic payload (typed budget breaches are preserved).
    pub cause: FaultCause,
}

thread_local! {
    /// Set while a `run_isolated` body executes, so the process-wide panic
    /// hook stays silent for panics we intend to catch and report.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind`, converting a panic into a structured
/// [`FaultCause`] and suppressing the default panic-hook stderr noise for
/// the duration. The body is treated as logically unwind-safe: a faulting
/// task's partial state is discarded wholesale, never observed.
pub fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, FaultCause> {
    install_quiet_hook();
    struct QuietGuard(bool);
    impl Drop for QuietGuard {
        fn drop(&mut self) {
            QUIET_PANICS.with(|q| q.set(self.0));
        }
    }
    let _guard = QuietGuard(QUIET_PANICS.with(|q| q.replace(true)));
    catch_unwind(AssertUnwindSafe(f)).map_err(FaultCause::from_panic_payload)
}

/// The `FaultCause` of a task abandoned at the pool's deadline.
fn deadline_cause() -> FaultCause {
    run_isolated(|| budget::breach_deadline()).expect_err("breach always unwinds")
}

/// Converts a delivered slot into the sink's `Result` form.
fn finish_slot<R>(index: usize, out: Option<Result<R, FaultCause>>) -> Result<R, TaskFault> {
    match out {
        Some(Ok(r)) => Ok(r),
        Some(Err(cause)) => {
            metrics::record_fault(&cause);
            Err(TaskFault { index, cause })
        }
        // Never run: the deadline elapsed before the item was claimed.
        None => {
            metrics::FAULTS_DEADLINE.inc();
            Err(TaskFault {
                index,
                cause: deadline_cause(),
            })
        }
    }
}

/// Streaming order-preserving parallel map with a bounded admission window.
///
/// At most `window` items are admitted at once — running on some thread or
/// finished and awaiting in-order delivery — so the caller's peak resident
/// state is proportional to the window, not to `items.len()`. Each result
/// is handed to `sink(index, result)` in input order the moment its turn
/// completes; `sink` runs on the calling thread and is called exactly once
/// per item, faulted or not.
///
/// Every task runs isolated (see [`par_map_isolated`]); deadline handling,
/// fault conversion, and the sequential fallback for `threads <= 1` are
/// identical, so a streamed run produces bit-identical sink invocations at
/// every `(window, threads)` combination.
pub fn par_map_streamed<T, R, F, S>(threads: usize, window: usize, items: Vec<T>, f: F, mut sink: S)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    S: FnMut(usize, Result<R, TaskFault>),
{
    let n = items.len();
    // Counted once per map call, not per task: the total stays exact by
    // the time the call returns (every admitted item reaches the sink)
    // without an atomic bump on each sub-microsecond task.
    metrics::TASKS.add(n as u64);
    let deadline = budget::active_deadline();
    if threads <= 1 || n <= 1 {
        for (index, item) in items.into_iter().enumerate() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    sink(index, finish_slot(index, None));
                    continue;
                }
            }
            if telemetry::enabled() && sample_span() {
                let start_ns = telemetry::clock_ns();
                let out = run_isolated(|| f(item));
                metrics::TASK_WAIT_NS.record(0);
                metrics::TASK_EXEC_NS.record(telemetry::clock_ns().saturating_sub(start_ns));
                sink(index, finish_slot(index, Some(out)));
            } else {
                let out = run_isolated(|| f(item));
                sink(index, finish_slot(index, Some(out)));
            }
        }
        return;
    }

    let pool = Pool::new(items, window.max(1), deadline);
    // The caller is one of the workers; more helpers than items or window
    // slots could never all hold a task.
    let helpers = threads.min(n).min(pool.window) - 1;
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| pool.help(&f));
        }
        // Closes the cursor however `drive` ends — including a panicking
        // `sink` — so parked helpers wake, exit, and let the scope join.
        struct CloseOnExit<'p, T, R>(&'p Pool<T, R>);
        impl<T, R> Drop for CloseOnExit<'_, T, R> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnExit(&pool);
        pool.drive(&f, &mut sink);
    });
}

/// One item's slot: its input until claimed, then its outcome until
/// delivered.
enum Slot<T, R> {
    /// Not claimed yet. The `u64` is the clock reading at which the window
    /// admitted the item, kept only for items on the timing-sample grid.
    Queued(T, u64),
    /// Claimed and running, or already delivered.
    Empty,
    /// Finished, awaiting in-order delivery.
    Done(Result<R, FaultCause>),
}

/// The outcome of one claim attempt on the cursor.
enum Claim {
    Item(usize),
    /// Every claimable item is `window` ahead of delivery.
    WindowFull,
    /// Nothing left to claim: all items claimed, the cursor closed, or the
    /// deadline passed.
    Exhausted,
}

/// Shared state of one threaded [`par_map_streamed`] call.
struct Pool<T, R> {
    slots: Vec<Mutex<Slot<T, R>>>,
    window: usize,
    deadline: Option<Instant>,
    /// Index of the next unclaimed item; `slots.len()` once closed.
    cursor: AtomicUsize,
    /// Results handed to `sink` so far.
    delivered: AtomicUsize,
    /// Threads parked on `wake`, so progress only signals when someone
    /// waits.
    parked: AtomicUsize,
    park_lock: Mutex<()>,
    wake: Condvar,
}

impl<T, R> Pool<T, R> {
    fn new(items: Vec<T>, window: usize, deadline: Option<Instant>) -> Self {
        // Items inside the first window are admitted now.
        let opened_ns = if telemetry::enabled() {
            telemetry::clock_ns()
        } else {
            0
        };
        let slots = items
            .into_iter()
            .map(|item| Mutex::new(Slot::Queued(item, opened_ns)))
            .collect();
        Pool {
            slots,
            window,
            deadline,
            cursor: AtomicUsize::new(0),
            delivered: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn slot(&self, index: usize) -> MutexGuard<'_, Slot<T, R>> {
        lock(&self.slots[index])
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn claim(&self) -> Claim {
        if self.past_deadline() {
            return Claim::Exhausted;
        }
        let mut at = self.cursor.load(SeqCst);
        loop {
            if at >= self.slots.len() {
                return Claim::Exhausted;
            }
            if at >= self.delivered.load(SeqCst) + self.window {
                return Claim::WindowFull;
            }
            match self
                .cursor
                .compare_exchange_weak(at, at + 1, SeqCst, SeqCst)
            {
                Ok(_) => return Claim::Item(at),
                Err(now) => at = now,
            }
        }
    }

    /// Runs claimed item `index` and stores its outcome in its slot.
    fn run<F: Fn(T) -> R>(&self, index: usize, f: &F) {
        let Slot::Queued(item, admitted_ns) =
            std::mem::replace(&mut *self.slot(index), Slot::Empty)
        else {
            unreachable!("item {index} claimed twice");
        };
        let out = if on_sample_grid(index) && telemetry::enabled() {
            let start_ns = telemetry::clock_ns();
            metrics::TASK_WAIT_NS.record(start_ns.saturating_sub(admitted_ns));
            let occupancy = index + 1 - self.delivered.load(SeqCst);
            metrics::WINDOW_OCCUPANCY.record(occupancy as u64);
            let out = run_isolated(|| f(item));
            metrics::TASK_EXEC_NS.record(telemetry::clock_ns().saturating_sub(start_ns));
            out
        } else {
            run_isolated(|| f(item))
        };
        *self.slot(index) = Slot::Done(out);
        self.signal();
    }

    /// A helper thread's loop: claim and run until nothing is left.
    fn help<F: Fn(T) -> R>(&self, f: &F) {
        let n = self.slots.len();
        loop {
            match self.claim() {
                Claim::Item(index) => self.run(index, f),
                Claim::WindowFull => self.park(None, || {
                    let at = self.cursor.load(SeqCst);
                    at >= n || at < self.delivered.load(SeqCst) + self.window
                }),
                Claim::Exhausted => break,
            }
        }
        // Count this thread's batched telemetry before the scope joins, not
        // whenever its thread-local destructors happen to run.
        telemetry::flush_thread();
    }

    /// The calling thread's loop: deliver every finished in-order result,
    /// claim and run a task when none is ready, park when neither is
    /// possible.
    fn drive<F, S>(&self, f: &F, sink: &mut S)
    where
        F: Fn(T) -> R,
        S: FnMut(usize, Result<R, TaskFault>),
    {
        let n = self.slots.len();
        // Where the cursor stood when the deadline closed it: items from
        // here on were never claimed.
        let mut closed_at: Option<usize> = None;
        let mut next = 0;
        while next < n {
            let unclaimed = closed_at.is_some_and(|c| next >= c);
            if let Some(out) = self.take_ready(next, unclaimed) {
                self.admit_after(next);
                sink(next, finish_slot(next, out));
                next += 1;
            } else if closed_at.is_none() && self.past_deadline() {
                closed_at = Some(self.cursor.swap(n, SeqCst));
                self.signal();
            } else if let Claim::Item(index) = self.claim() {
                self.run(index, f);
            } else {
                // `next` is claimed and running on a helper.
                let deadline = if closed_at.is_none() {
                    self.deadline
                } else {
                    None
                };
                self.park(deadline, || matches!(*self.slot(next), Slot::Done(_)));
            }
        }
    }

    /// Takes item `index`'s outcome when it is ready for delivery. An item
    /// the deadline left `unclaimed` is ready at once, with no outcome.
    fn take_ready(&self, index: usize, unclaimed: bool) -> Option<Option<Result<R, FaultCause>>> {
        let mut slot = self.slot(index);
        match &*slot {
            Slot::Done(_) => {}
            Slot::Queued(..) if unclaimed => {}
            _ => return None,
        }
        match std::mem::replace(&mut *slot, Slot::Empty) {
            Slot::Done(out) => Some(Some(out)),
            _ => Some(None),
        }
    }

    /// Counts item `index` as delivered, which admits item `index + window`.
    fn admit_after(&self, index: usize) {
        let admitted = index + self.window;
        if admitted < self.slots.len() && on_sample_grid(admitted) && telemetry::enabled() {
            if let Slot::Queued(_, admitted_ns) = &mut *self.slot(admitted) {
                *admitted_ns = telemetry::clock_ns();
            }
        }
        self.delivered.store(index + 1, SeqCst);
        self.signal();
    }

    /// Closes the cursor: nothing more is claimed.
    fn close(&self) {
        self.cursor.store(self.slots.len(), SeqCst);
        self.signal();
    }

    /// Blocks until `ready()` holds or `deadline` passes. Every state
    /// change `ready` reads is published (`SeqCst`, or under a slot lock)
    /// before its writer checks `parked` in [`Self::signal`], and `parked`
    /// rises before the first check here, so no wake-up is lost.
    fn park(&self, deadline: Option<Instant>, ready: impl Fn() -> bool) {
        let mut guard = lock(&self.park_lock);
        self.parked.fetch_add(1, SeqCst);
        while !ready() {
            guard = match deadline {
                None => self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    self.wake
                        .wait_timeout(guard, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        self.parked.fetch_sub(1, SeqCst);
    }

    /// Wakes every parked thread, if any, after a state change.
    fn signal(&self) {
        if self.parked.load(SeqCst) > 0 {
            // Taking the lock orders this wake-up after a parker's check.
            drop(lock(&self.park_lock));
            self.wake.notify_all();
        }
    }
}

/// Whether item `index` records the threaded path's timing histograms.
fn on_sample_grid(index: usize) -> bool {
    index.is_multiple_of(SPAN_SAMPLE_EVERY as usize)
}

/// Locks `m`, ignoring poison: no code panics while holding a pool lock
/// (task bodies run outside them, isolated).
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Order-preserving parallel map over `items` with `threads` workers,
/// surfacing per-item faults.
///
/// Every task runs isolated: a panic (or budget breach) in one task becomes
/// `Err(TaskFault)` at that item's position while every other task runs to
/// completion. Output order always matches input order, whatever the thread
/// count — fault positions never perturb the order or values of surviving
/// results.
///
/// With `threads <= 1` (or fewer than two items) this degrades to a plain
/// sequential loop with no thread overhead.
pub fn par_map_isolated<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<Result<R, TaskFault>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let mut out = Vec::with_capacity(n);
    par_map_streamed(threads, n.max(1), items, f, |index, r| {
        debug_assert_eq!(index, out.len(), "sink delivery is in input order");
        out.push(r);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BreachKind, BudgetBreach, BudgetScope, SourceBudget};
    use std::time::Duration;

    /// Unwraps a fault-free isolated map.
    fn values<R>(out: Vec<Result<R, TaskFault>>) -> Vec<R> {
        out.into_iter()
            .map(|r| r.expect("no faults injected"))
            .collect()
    }

    #[test]
    fn isolated_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let out = values(par_map_isolated(4, items.clone(), |x| x * 2));
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn isolated_sequential_fallback() {
        assert_eq!(
            values(par_map_isolated(1, vec![3, 1, 2], |x| x + 1)),
            vec![4, 2, 3]
        );
        assert_eq!(values(par_map_isolated(8, vec![7], |x| x - 1)), vec![6]);
        assert!(par_map_isolated(8, Vec::<u8>::new(), |x| x).is_empty());
    }

    #[test]
    fn streamed_delivers_in_order_at_every_window() {
        for window in [1usize, 2, 3, 7, 50, 64] {
            for threads in [1usize, 2, 4, 8] {
                let mut seen: Vec<(usize, u32)> = Vec::new();
                par_map_streamed(
                    threads,
                    window,
                    (0u32..50).collect(),
                    |x| x * 2,
                    |i, r| {
                        seen.push((i, r.expect("no faults injected")));
                    },
                );
                let expect: Vec<(usize, u32)> =
                    (0..50).map(|i| (i as usize, i as u32 * 2)).collect();
                assert_eq!(seen, expect, "window {window}, threads {threads}");
            }
        }
    }

    /// At every threads × window cell, no more than `window` tasks run at
    /// once, and no task starts more than `window` items ahead of the
    /// results `sink` has taken (the pool counts a result delivered just
    /// before handing it over, hence the `+ 1`).
    #[test]
    fn streamed_window_bounds_admission() {
        use std::sync::atomic::AtomicUsize;
        let n = 40usize;
        for threads in [2usize, 8] {
            for window in [1usize, 2, 3, n] {
                let running = AtomicUsize::new(0);
                let peak = AtomicUsize::new(0);
                let sunk = AtomicUsize::new(0);
                let ahead = AtomicUsize::new(0);
                par_map_streamed(
                    threads,
                    window,
                    (0..n).collect(),
                    |i| {
                        ahead.fetch_max(i + 1 - sunk.load(SeqCst), SeqCst);
                        let cur = running.fetch_add(1, SeqCst) + 1;
                        peak.fetch_max(cur, SeqCst);
                        std::thread::sleep(Duration::from_micros(300));
                        running.fetch_sub(1, SeqCst);
                        i
                    },
                    |_, _| {
                        sunk.fetch_add(1, SeqCst);
                    },
                );
                let cell = format!("threads {threads}, window {window}");
                assert!(peak.load(SeqCst) <= window, "{cell}: too many running");
                assert!(
                    ahead.load(SeqCst) <= window + 1,
                    "{cell}: claimed too far ahead"
                );
            }
        }
    }

    #[test]
    fn sink_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [2usize, 8] {
            for window in [1usize, 3, 32] {
                let mut calls = 0;
                par_map_streamed(
                    threads,
                    window,
                    (0u32..32).collect(),
                    |x| {
                        std::thread::sleep(Duration::from_micros(100));
                        x
                    },
                    |_, _| {
                        assert_eq!(std::thread::current().id(), caller);
                        calls += 1;
                    },
                );
                assert_eq!(calls, 32);
            }
        }
    }

    #[test]
    fn nested_streamed_call_completes() {
        for (threads, window) in [(2usize, 1usize), (2, 3), (8, 2), (8, 16)] {
            let out = values(par_map_isolated(threads, (0u64..16).collect(), |x| {
                let mut sum = 0;
                par_map_streamed(
                    threads,
                    window,
                    (0..x).collect(),
                    |y| y * y,
                    |_, r| sum += r.expect("inner task succeeds"),
                );
                sum
            }));
            let expect: Vec<u64> = (0u64..16).map(|x| (0..x).map(|y| y * y).sum()).collect();
            assert_eq!(out, expect, "threads {threads}, window {window}");
        }
    }

    /// A task that panics on the calling thread — which claims work like
    /// any helper — faults at its own index, and everything else completes.
    #[test]
    fn caller_claimed_panic_faults_at_its_index() {
        // Window 1 leaves no room for a helper: the caller claims every item.
        let mut seen = Vec::new();
        par_map_streamed(
            2,
            1,
            (0u32..6).collect(),
            |x| {
                if x == 3 {
                    panic!("caller boom");
                }
                x
            },
            |i, r| seen.push((i, r)),
        );
        for (i, r) in seen {
            if i == 3 {
                assert_eq!(r.unwrap_err().index, 3);
            } else {
                assert_eq!(r.unwrap(), i as u32);
            }
        }

        // Full window: the helper's first task holds until the caller has
        // claimed one, so the caller is certain to run (and fault) some.
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let caller_claimed = AtomicBool::new(false);
        let on_caller = Mutex::new(Vec::new());
        let out = par_map_isolated(2, (0usize..24).collect(), |i| {
            if std::thread::current().id() == caller {
                lock(&on_caller).push(i);
                caller_claimed.store(true, SeqCst);
                panic!("caller boom {i}");
            }
            while !caller_claimed.load(SeqCst) {
                std::thread::yield_now();
            }
            i
        });
        let on_caller = on_caller.into_inner().unwrap();
        assert!(!on_caller.is_empty(), "the caller claims work");
        for (i, r) in out.iter().enumerate() {
            match r {
                Err(fault) => {
                    assert!(on_caller.contains(&i));
                    assert_eq!(fault.index, i);
                    assert_eq!(
                        fault.cause,
                        FaultCause::Panic {
                            message: format!("caller boom {i}")
                        }
                    );
                }
                Ok(v) => assert_eq!(*v, i),
            }
        }
    }

    #[test]
    fn streamed_surfaces_faults_in_order() {
        for window in [1usize, 2, 16] {
            let mut seen = Vec::new();
            par_map_streamed(
                4,
                window,
                (0u32..20).collect(),
                |x| {
                    if x % 5 == 0 {
                        panic!("boom {x}");
                    }
                    x
                },
                |i, r| seen.push((i, r)),
            );
            assert_eq!(seen.len(), 20);
            for (pos, (i, r)) in seen.iter().enumerate() {
                assert_eq!(pos, *i, "sink order matches input order");
                if pos % 5 == 0 {
                    let fault = r.as_ref().unwrap_err();
                    assert_eq!(fault.index, pos);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), pos as u32);
                }
            }
        }
    }

    #[test]
    fn isolated_surfaces_faults_in_place() {
        for threads in [1, 4] {
            let out = par_map_isolated(threads, (0u32..20).collect(), |x| {
                if x % 7 == 3 {
                    panic!("fault at {x}");
                }
                x * 10
            });
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let fault = r.as_ref().unwrap_err();
                    assert_eq!(fault.index, i);
                    match &fault.cause {
                        FaultCause::Panic { message } => {
                            assert_eq!(message, &format!("fault at {i}"));
                        }
                        other => panic!("unexpected cause {other:?}"),
                    }
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 10);
                }
            }
        }
    }

    #[test]
    fn isolated_all_tasks_fault() {
        let out = par_map_isolated(4, vec![(); 16], |()| -> u8 { panic!("nothing survives") });
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|r| r.is_err()));
        assert!((0..16).all(|i| out[i].as_ref().unwrap_err().index == i));
    }

    #[test]
    fn isolated_preserves_typed_budget_breach() {
        let breach = BudgetBreach {
            kind: BreachKind::Facts,
            limit: 3,
            observed: 8,
        };
        let out = par_map_isolated(2, vec![0, 1], |x| {
            if x == 1 {
                crate::budget::breach(BudgetBreach {
                    kind: BreachKind::Facts,
                    limit: 3,
                    observed: 8,
                });
            }
            x
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(
            out[1].as_ref().unwrap_err().cause,
            FaultCause::Budget(breach)
        );
    }

    #[test]
    fn deadline_abandons_stuck_pool() {
        // 16 tasks x 20ms on 2 workers ≈ 160ms of work against a 40ms
        // deadline: completion within the deadline is impossible, so some
        // tail of the task list must come back as Deadline faults while
        // every completed prefix value is correct.
        let budget = SourceBudget::unlimited().with_deadline(Duration::from_millis(40));
        let _scope = BudgetScope::enter(&budget);
        let out = par_map_isolated(2, (0u32..16).collect(), |x| {
            std::thread::sleep(Duration::from_millis(20));
            x + 1
        });
        let deadline_faults = out
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Err(TaskFault {
                        cause: FaultCause::Budget(BudgetBreach {
                            kind: BreachKind::Deadline,
                            ..
                        }),
                        ..
                    })
                )
            })
            .count();
        assert!(deadline_faults > 0, "deadline never fired: {out:?}");
        for (i, r) in out.iter().enumerate() {
            if let Ok(v) = r {
                assert_eq!(*v, i as u32 + 1);
            }
        }
    }

    #[test]
    fn sequential_path_respects_deadline() {
        let budget = SourceBudget::unlimited().with_deadline(Duration::from_millis(10));
        let _scope = BudgetScope::enter(&budget);
        let out = par_map_isolated(1, (0u32..8).collect(), |x| {
            std::thread::sleep(Duration::from_millis(15));
            x
        });
        assert!(out[0].is_ok(), "first task started before the deadline");
        assert!(
            out.iter().any(|r| r.is_err()),
            "later tasks must observe the elapsed deadline"
        );
    }
}
