#![warn(missing_docs)]
//! # bvl-runtime — work-stealing task-runtime model
//!
//! The paper parallelizes task-parallel applications with a TBB/Cilk-style
//! runtime implementing *random work stealing* (section IV-B), and relies
//! on it to distribute data-parallel tasks across the heterogeneous cores
//! of `1bIV-4L` — where a task landing on the big core runs its
//! *vectorized* variant and a task landing on a little core runs its
//! *scalar* variant.
//!
//! This crate models that runtime at the scheduling level: per-worker
//! Chase-Lev-style deques of task descriptors, owner pops from the bottom,
//! thieves steal from the top of a (deterministically) random victim, and
//! every scheduling action costs simulated cycles that the system charges
//! to the worker before the task body starts. The task bodies themselves
//! are instruction streams executed by the simulated cores.

use bvl_isa::reg::XReg;
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// A task: an entry point (plus optional vectorized variant) and its
/// argument registers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Entry instruction index of the scalar variant.
    pub scalar_pc: u32,
    /// Entry of the vectorized variant, if the kernel has one.
    pub vector_pc: Option<u32>,
    /// Argument registers written before the task starts.
    pub args: Vec<(XReg, u64)>,
}

impl Task {
    /// Picks the entry point for a worker with (or without) vector
    /// support — the paper's runtime dispatches the vectorized variant to
    /// the big core and the scalar variant to little cores.
    pub fn entry(&self, vector_capable: bool) -> u32 {
        if vector_capable {
            self.vector_pc.unwrap_or(self.scalar_pc)
        } else {
            self.scalar_pc
        }
    }
}

snap_struct!(Task {
    scalar_pc,
    vector_pc,
    args,
});

/// Cycle costs of runtime actions.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeParams {
    /// Popping a task from the worker's own deque.
    pub pop_cost: u64,
    /// A successful steal (victim selection + CAS + transfer).
    pub steal_cost: u64,
    /// A failed steal attempt (empty victim).
    pub steal_fail_cost: u64,
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams {
            pop_cost: 10,
            steal_cost: 60,
            steal_fail_cost: 25,
        }
    }
}

/// Runtime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct RuntimeStats {
    /// Tasks executed.
    pub tasks_run: u64,
    /// Successful steals.
    pub steals: u64,
    /// Failed steal attempts.
    pub failed_steals: u64,
    /// Total scheduling-overhead cycles charged.
    pub overhead_cycles: u64,
}

impl RuntimeStats {
    /// Registers every counter under `scope` (conventionally
    /// `sys.runtime`).
    pub fn register(&self, scope: &mut bvl_obs::Scope<'_>) {
        scope.set("tasks_run", self.tasks_run);
        scope.set("steals", self.steals);
        scope.set("failed_steals", self.failed_steals);
        scope.set("overhead_cycles", self.overhead_cycles);
    }
}

snap_struct!(RuntimeStats {
    tasks_run,
    steals,
    failed_steals,
    overhead_cycles,
});

/// What a worker gets when it asks for work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fetched {
    /// A task plus the scheduling overhead to charge before it starts.
    Task {
        /// Index into the runtime's task table.
        index: usize,
        /// Cycles of scheduling overhead.
        overhead: u64,
    },
    /// No work anywhere: the worker should retry after `backoff` cycles.
    Empty {
        /// Cycles before the next attempt.
        backoff: u64,
    },
    /// All tasks have been handed out.
    Finished,
}

/// The work-stealing scheduler model.
///
/// ```
/// use bvl_runtime::{Fetched, RuntimeParams, Task, WorkStealing};
///
/// let mut ws = WorkStealing::new(2, RuntimeParams::default());
/// ws.seed_tasks(vec![Task { scalar_pc: 7, vector_pc: None, args: vec![] }]);
/// match ws.fetch(0) {
///     Fetched::Task { index, overhead } => {
///         assert_eq!(ws.task(index).scalar_pc, 7);
///         assert!(overhead > 0); // scheduling costs simulated cycles
///     }
///     other => panic!("expected a task, got {other:?}"),
/// }
/// assert!(ws.drained());
/// ```
#[derive(Clone, Debug)]
pub struct WorkStealing {
    params: RuntimeParams,
    tasks: Vec<Task>,
    deques: Vec<VecDeque<usize>>,
    remaining: usize,
    rng: u64,
    stats: RuntimeStats,
}

impl WorkStealing {
    /// Creates a scheduler for `workers` workers with the given costs.
    pub fn new(workers: usize, params: RuntimeParams) -> Self {
        WorkStealing {
            params,
            tasks: Vec::new(),
            deques: vec![VecDeque::new(); workers],
            remaining: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            stats: RuntimeStats::default(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The task table.
    pub fn task(&self, index: usize) -> &Task {
        &self.tasks[index]
    }

    /// Seeds the bag of tasks, distributed round-robin across workers (the
    /// paper's `parallel_for` initial split).
    pub fn seed_tasks(&mut self, tasks: Vec<Task>) {
        let w = self.deques.len();
        for (i, _) in tasks.iter().enumerate() {
            self.deques[i % w].push_back(self.tasks.len() + i);
        }
        self.remaining += tasks.len();
        self.tasks.extend(tasks);
    }

    /// Pushes a dynamically spawned task onto `worker`'s own deque.
    pub fn spawn(&mut self, worker: usize, task: Task) {
        let idx = self.tasks.len();
        self.tasks.push(task);
        self.deques[worker].push_back(idx);
        self.remaining += 1;
    }

    /// True once every task has been handed out.
    pub fn drained(&self) -> bool {
        self.remaining == 0
    }

    fn xorshift(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// A worker asks for its next task.
    pub fn fetch(&mut self, worker: usize) -> Fetched {
        if self.remaining == 0 {
            return Fetched::Finished;
        }
        // Own deque first (LIFO bottom for locality).
        if let Some(index) = self.deques[worker].pop_back() {
            self.remaining -= 1;
            self.stats.tasks_run += 1;
            self.stats.overhead_cycles += self.params.pop_cost;
            return Fetched::Task {
                index,
                overhead: self.params.pop_cost,
            };
        }
        // Steal from a random victim's top (FIFO).
        let w = self.deques.len();
        if w > 1 {
            let victim = (self.xorshift() as usize) % w;
            if victim != worker {
                if let Some(index) = self.deques[victim].pop_front() {
                    self.remaining -= 1;
                    self.stats.tasks_run += 1;
                    self.stats.steals += 1;
                    self.stats.overhead_cycles += self.params.steal_cost;
                    return Fetched::Task {
                        index,
                        overhead: self.params.steal_cost,
                    };
                }
            }
        }
        self.stats.failed_steals += 1;
        self.stats.overhead_cycles += self.params.steal_fail_cost;
        Fetched::Empty {
            backoff: self.params.steal_fail_cost,
        }
    }

    /// Appends the scheduler's mutable state — task table, deques, the
    /// deterministic xorshift state and stats — to a checkpoint (`params`
    /// is configuration and not written).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.tasks.save(w);
        self.deques.save(w);
        self.remaining.save(w);
        self.rng.save(w);
        self.stats.save(w);
    }

    /// Restores state written by [`WorkStealing::save_state`].
    ///
    /// # Errors
    ///
    /// Fails with a [`SnapError`] on malformed input or a worker count not
    /// matching this scheduler's configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tasks = Snap::load(r)?;
        let deques: Vec<VecDeque<usize>> = Snap::load(r)?;
        if deques.len() != self.deques.len() {
            return Err(SnapError::Corrupt {
                what: format!(
                    "checkpoint has {} worker deques, scheduler has {}",
                    deques.len(),
                    self.deques.len()
                ),
            });
        }
        self.deques = deques;
        self.remaining = Snap::load(r)?;
        self.rng = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

/// Builds a `parallel_for`-style task bag over `[0, n)` in chunks of
/// `chunk`, passing `(start, end)` in the given registers.
pub fn parallel_for_tasks(
    n: u64,
    chunk: u64,
    scalar_pc: u32,
    vector_pc: Option<u32>,
    start_reg: XReg,
    end_reg: XReg,
    extra_args: &[(XReg, u64)],
) -> Vec<Task> {
    assert!(chunk > 0, "chunk must be positive");
    let mut tasks = Vec::new();
    let mut s = 0;
    while s < n {
        let e = (s + chunk).min(n);
        let mut args = vec![(start_reg, s), (end_reg, e)];
        args.extend_from_slice(extra_args);
        tasks.push(Task {
            scalar_pc,
            vector_pc,
            args,
        });
        s = e;
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(pc: u32) -> Task {
        Task {
            scalar_pc: pc,
            vector_pc: None,
            args: Vec::new(),
        }
    }

    #[test]
    fn all_tasks_handed_out_exactly_once() {
        let mut ws = WorkStealing::new(4, RuntimeParams::default());
        ws.seed_tasks((0..100).map(t).collect());
        let mut got = [false; 100];
        let mut finished = 0;
        let mut guard = 0;
        while finished < 4 {
            for w in 0..4 {
                match ws.fetch(w) {
                    Fetched::Task { index, .. } => {
                        assert!(!got[index], "task {index} handed out twice");
                        got[index] = true;
                    }
                    Fetched::Empty { .. } => {}
                    Fetched::Finished => finished += 1,
                }
            }
            guard += 1;
            assert!(guard < 10_000);
            if ws.drained() {
                finished = 4;
            }
        }
        assert!(got.iter().all(|&g| g));
        assert_eq!(ws.stats().tasks_run, 100);
    }

    #[test]
    fn idle_worker_steals() {
        let mut ws = WorkStealing::new(2, RuntimeParams::default());
        // All tasks seeded, but worker 1 exhausts its half then steals.
        ws.seed_tasks((0..10).map(t).collect());
        let mut steals = 0;
        let mut done = 0;
        let mut guard = 0;
        while done < 10 {
            if let Fetched::Task { .. } = ws.fetch(1) {
                done += 1;
            } else {
                steals += 1;
            }
            guard += 1;
            assert!(guard < 1000);
        }
        let _ = steals;
        assert!(ws.stats().steals > 0, "worker 1 never stole");
    }

    #[test]
    fn steal_costs_more_than_pop() {
        let p = RuntimeParams::default();
        assert!(p.steal_cost > p.pop_cost);
    }

    #[test]
    fn parallel_for_covers_range() {
        let tasks = parallel_for_tasks(
            100,
            32,
            5,
            Some(50),
            XReg::new(10),
            XReg::new(11),
            &[(XReg::new(12), 7)],
        );
        assert_eq!(tasks.len(), 4);
        assert_eq!(tasks[0].args[0], (XReg::new(10), 0));
        assert_eq!(tasks[0].args[1], (XReg::new(11), 32));
        assert_eq!(tasks[3].args[1], (XReg::new(11), 100));
        assert_eq!(tasks[0].args[2], (XReg::new(12), 7));
        assert_eq!(tasks[0].entry(true), 50);
        assert_eq!(tasks[0].entry(false), 5);
    }

    #[test]
    fn spawn_adds_work() {
        let mut ws = WorkStealing::new(1, RuntimeParams::default());
        ws.seed_tasks(vec![t(1)]);
        ws.spawn(0, t(2));
        assert!(!ws.drained());
        let mut n = 0;
        while let Fetched::Task { .. } = ws.fetch(0) {
            n += 1;
        }
        assert_eq!(n, 2);
        assert!(ws.drained());
    }
}
