//! The deterministic scheduler and virtual-time simulator.
//!
//! This is the substitution for the paper's 8-core testbed (DESIGN.md §2):
//! VM threads are interleaved in virtual-time order — the next instruction
//! always belongs to the runnable thread with the smallest `(clock, id)`
//! key — so runs are exactly reproducible on any host, whatever its core
//! count.
//!
//! **Deferred charging.** Under the default cost model runnable threads
//! settle into lockstep one unit apart, so picking per instruction (or
//! batching "until the runner-up") means one scan and one full
//! [`VmThread::step`] per instruction. Instead a thread runs *private*
//! instructions ahead of their virtual time: everything
//! [`VmThread::step_quantum`] runs ahead is `Basic`, allocation-free, and
//! touches only the thread's own top-frame locals and operand stack, so no
//! other thread can observe when it ran. The thread carries an `uncharged`
//! count; each pick settles it in closed form — the first instruction is
//! one ordinary charge (it may wait on the shared resource), every later
//! one adds exactly `parallel + serial` — as far as the thread's key stays
//! below the runner-up's. Every other instruction runs only when its
//! thread has nothing uncharged and holds the smallest key: the position
//! the one-instruction-at-a-time order gives it. A quantum starts exactly
//! there, so it still runs its first instruction in place when that is a
//! *frontier access* (an in-bounds array `Index`/`IndexStore`, or `len`
//! of an array), which is charged at once at its own price, before the
//! private instructions after it; anything else that touches shared state
//! or may allocate, raise or change frames (enclosing-frame variables,
//! other indexing, builtins, calls, returns, locks, spawns) goes through
//! [`VmThread::step`]. Output, lock
//! order, virtual time and every count are therefore those of that order.
//!
//! The exception is a `background:` child, which reads its still-running
//! parent's frame: while one is live, run-ahead stops at the runner-up
//! bound, frontier accesses go through `step`, and no lockstep round is
//! charged. Run-ahead never allocates, but a `StoreLocal` or `Pop` may drop
//! an object reference before a collection another thread triggers, which
//! may then reclaim the object one collection sooner; runs stay
//! deterministic.
//!
//! **Lockstep rounds.** With several runnable threads that all hold
//! uncharged instructions, the clocks stay about one instruction apart and
//! each pick settles one instruction. [`Scheduler::lockstep`] instead
//! charges a *round* — one instruction per thread, in pick order — and
//! checks that it shifted every runnable clock, and the shared resource
//! when `Basic` charges move it, by one `delta`. The round then left a
//! translated copy of the state it started from; charges and key order
//! depend only on differences between clocks, so every further round
//! repeats it exactly, and as many as every thread can still pay for are
//! charged at once. The check holds in the unsaturated and saturated
//! regimes and in GIL mode alike; when it fails, the round's charges were
//! ordinary picks and the loop goes on pick by pick.
//!
//! Virtual time models the paper's own explanation of its 62.5 % efficiency:
//! "the sharing of data structures amongst interpreter threads" (§IV).
//! Every instruction has a *parallel* cost paid on the thread's own clock
//! and a *serialized* cost paid on a shared runtime resource (symbol
//! tables, allocator): with the default 4:1 split, T threads saturate the
//! shared resource at speedup 5 — reproducing the paper's measured curve
//! (2× at 2, 4× at 4, ≈5× at 8).
//!
//! The GIL mode charges the entire cost through the shared resource,
//! which pins speedup at ≈1× — the Python contrast of paper §I.

use crate::bytecode::CompiledProgram;
use crate::vm::{CostClass, Feed, FeedShare, Outcome, Registry, Table, VmState, VmThread, World};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tetra_runtime::{
    ConsoleRef, ErrorKind, GcStats, Heap, HeapConfig, MutatorGuard, RuntimeError, Value,
};
use tetra_stdlib::{SeedableRng, StdRng};

/// Virtual-time cost model (all in abstract "units").
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-instruction cost paid on the thread's own clock.
    pub instr_parallel: u64,
    /// Per-instruction cost serialized through the shared runtime resource.
    pub instr_serial: u64,
    /// Extra serialized cost of a heap allocation.
    pub alloc_serial: u64,
    /// Extra serialized cost of a builtin call.
    pub builtin_serial: u64,
    /// Cost of creating one thread (paid by the parent, serially).
    pub spawn: u64,
    /// Units of virtual time per simulated millisecond (`sleep`).
    pub units_per_ms: u64,
    /// Serialize *everything* through the shared resource (GIL mode).
    pub gil: bool,
}

impl CostModel {
    /// `(parallel, serial)` units of one instruction of class `cost`.
    fn price(&self, cost: CostClass) -> (u64, u64) {
        match cost {
            CostClass::Basic => (self.instr_parallel, self.instr_serial),
            CostClass::SharedAccess => (self.instr_parallel, self.instr_serial * 2),
            CostClass::Alloc => (self.instr_parallel, self.instr_serial + self.alloc_serial),
            CostClass::Builtin => (self.instr_parallel, self.instr_serial + self.builtin_serial),
            CostClass::Sleep(ms) => (ms * self.units_per_ms, 0),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            instr_parallel: 4,
            instr_serial: 1,
            alloc_serial: 8,
            builtin_serial: 4,
            spawn: 400,
            units_per_ms: 5_000,
            gil: false,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Worker count for `parallel for` (the simulated "cores"/threads T).
    pub workers: usize,
    /// Model the runtime pool's adaptive chunking: workers claim
    /// shrinking chunks from a shared cursor instead of taking one static
    /// contiguous chunk each (the static model E10 compares against).
    pub dynamic_chunking: bool,
    pub cost: CostModel,
    pub gc: HeapConfig,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            workers: 4,
            dynamic_chunking: true,
            cost: CostModel::default(),
            gc: HeapConfig::default(),
        }
    }
}

/// Results of a simulated run.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Virtual time at which the last thread finished.
    pub virtual_elapsed: u64,
    /// Total instructions executed across all threads.
    pub instructions: u64,
    /// Threads created (including main).
    pub threads: u32,
    /// Lock acquisitions that had to wait.
    pub lock_contentions: u64,
    pub gc: GcStats,
}

/// Most instructions one `step_quantum` call may run ahead.
const QUANTUM: u64 = 256;

/// Seed of the simulator's `random()`/`rand_int()` generator: a simulated
/// run draws the same numbers, in scheduler order, every time.
const RNG_SEED: u64 = 0x7e7a_5eed;

/// A thread's scheduling key: `(virtual clock, id)`, smallest runs next.
type Key = (u64, u32);

struct SimLock {
    holder: Option<u32>,
    /// Line where the holder took the lock (for re-entry messages).
    holder_line: u32,
    /// Trace timestamp of the current acquisition (0 when tracing is off).
    held_since_ns: u64,
    /// Shadow call-path node of the acquiring code (lock attribution).
    holder_node: u32,
    waiters: Vec<u32>,
}

/// Run a compiled program deterministically, returning stats.
pub fn run(
    program: &CompiledProgram,
    config: VmConfig,
    console: ConsoleRef,
) -> Result<SimStats, RuntimeError> {
    let mut sched = Scheduler::new(program, config, console);
    sched.run()
}

struct Scheduler<'p> {
    program: &'p CompiledProgram,
    config: VmConfig,
    heap: Arc<Heap>,
    /// The scheduler thread's single GC mutator registration. A second
    /// registration on the same OS thread would deadlock the collector.
    mutator: MutatorGuard,
    registry: Arc<Registry>,
    console: ConsoleRef,
    /// Every thread ever created, indexed by id (`Done` ones included).
    threads: Vec<VmThread>,
    /// Ids of the `Runnable` threads, in no particular order.
    runnable: Vec<u32>,
    /// Scratch for [`Scheduler::lockstep`]: the runnable keys in order.
    round: Vec<Key>,
    /// `background:` threads not yet `Done`.
    background_live: u32,
    rng: RefCell<StdRng>,
    locks: HashMap<String, SimLock>,
    /// Shared-runtime resource availability (virtual time).
    runtime_free: u64,
    next_id: u32,
    lock_contentions: u64,
    instructions: u64,
}

impl<'p> Scheduler<'p> {
    fn new(program: &'p CompiledProgram, config: VmConfig, console: ConsoleRef) -> Self {
        let heap = Heap::new(config.gc.clone());
        let mutator = heap.register_mutator();
        let registry = Arc::new(Registry::default());
        Scheduler {
            program,
            config,
            heap,
            mutator,
            registry,
            console,
            threads: Vec::new(),
            runnable: Vec::new(),
            round: Vec::new(),
            background_live: 0,
            rng: RefCell::new(StdRng::seed_from_u64(RNG_SEED)),
            locks: HashMap::new(),
            runtime_free: 0,
            next_id: 0,
            lock_contentions: 0,
            instructions: 0,
        }
    }

    fn new_thread(
        &mut self,
        parent: Option<u32>,
        unit: u16,
        locals: Table,
        outers: Vec<Table>,
        at_time: u64,
        shadow_node: u32,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let mut t = VmThread::new(id, parent, unit, locals, outers, &self.registry, shadow_node);
        t.vtime = at_time;
        self.threads.push(t);
        self.runnable.push(id);
        id
    }

    fn thread(&mut self, id: u32) -> &mut VmThread {
        &mut self.threads[id as usize]
    }

    /// Move thread `id` to `state`, keeping `runnable` in step.
    fn set_state(&mut self, id: u32, state: VmState) {
        let t = &mut self.threads[id as usize];
        let (was, now) = (t.state == VmState::Runnable, state == VmState::Runnable);
        t.state = state;
        if was && !now {
            let pos = self.runnable.iter().position(|r| *r == id).expect("runnable thread listed");
            self.runnable.swap_remove(pos);
        } else if now && !was {
            self.runnable.push(id);
        }
    }

    /// The runnable thread with the smallest key, the runner-up's key
    /// (`None` when it is the only runnable thread), and the fewest
    /// uncharged instructions any runnable thread holds.
    fn pick(&self) -> Option<(usize, Option<Key>, u64)> {
        let mut best: Option<Key> = None;
        let mut runner_up: Option<Key> = None;
        let mut fewest = u64::MAX;
        for &id in &self.runnable {
            let t = &self.threads[id as usize];
            let key = (t.vtime, id);
            fewest = fewest.min(t.uncharged);
            if best.is_none_or(|b| key < b) {
                runner_up = best;
                best = Some(key);
            } else if runner_up.is_none_or(|r| key < r) {
                runner_up = Some(key);
            }
        }
        best.map(|(_, id)| (id as usize, runner_up, fewest))
    }

    /// Whether the thread at `idx` still holds the smallest key.
    fn leads(&self, idx: usize, runner_up: Option<Key>) -> bool {
        let t = &self.threads[idx];
        runner_up.is_none_or(|r| (t.vtime, t.id) < r)
    }

    /// The clock after `n` (≥ 1) consecutive instructions of one cost
    /// class starting at `vtime`: each pays `parallel` on the thread's own
    /// clock and `serial` on the shared runtime resource. In GIL mode the
    /// whole cost queues on the resource. Back-to-back instructions of one
    /// thread never wait on each other, so `n` of them cost exactly `n`
    /// single charges, computed here in closed form.
    fn charged(&self, vtime: u64, parallel: u64, serial: u64, n: u64) -> u64 {
        if self.config.cost.gil {
            vtime.max(self.runtime_free) + n * (parallel + serial)
        } else if serial > 0 {
            (vtime + parallel).max(self.runtime_free) + serial + (n - 1) * (parallel + serial)
        } else {
            vtime + n * parallel
        }
    }

    /// Charge `n` (≥ 1) consecutive instructions to the thread at `idx`
    /// (see [`Scheduler::charged`]).
    fn charge(&mut self, idx: usize, parallel: u64, serial: u64, n: u64) {
        let vtime = self.charged(self.threads[idx].vtime, parallel, serial, n);
        self.threads[idx].vtime = vtime;
        if self.config.cost.gil || serial > 0 {
            self.runtime_free = vtime;
        }
    }

    /// Charge lockstep rounds: every runnable thread holds uncharged
    /// instructions and the leader's first one passes the runner-up.
    ///
    /// One round charges one `Basic` instruction to each runnable thread
    /// in key order, as long as the next thread in that order is also the
    /// next pick (its key is below every key charged so far); a thread
    /// that would be picked twice ends it early, with the charges made so
    /// far standing as ordinary picks. If a full round moved every clock,
    /// and the runtime resource whenever `Basic` charges move it, by one
    /// and the same `delta`, the state after it is the state before it
    /// shifted by `delta`. [`Scheduler::charged`] and the key order depend
    /// only on differences, so the next round repeats it exactly, as long
    /// as every thread still holds an uncharged instruction: those rounds
    /// are charged at once, `delta` each.
    fn lockstep(&mut self) {
        let (parallel, serial) = self.config.cost.price(CostClass::Basic);
        let mut order = std::mem::take(&mut self.round);
        order.clear();
        order.extend(self.runnable.iter().map(|&id| (self.threads[id as usize].vtime, id)));
        order.sort_unstable();
        let free_before = self.runtime_free;
        let mut lowest: Key = (u64::MAX, u32::MAX);
        let full = order.iter().all(|&(vtime, id)| {
            if lowest < (vtime, id) {
                return false; // a charged thread is picked next
            }
            self.charge(id as usize, parallel, serial, 1);
            let t = &mut self.threads[id as usize];
            t.uncharged -= 1;
            lowest = lowest.min((t.vtime, id));
            true
        });
        let shift = |&(before, id): &Key| self.threads[id as usize].vtime - before;
        let delta = shift(&order[0]);
        let moves_free = self.config.cost.gil || serial > 0;
        if full
            && order.iter().all(|key| shift(key) == delta)
            && (!moves_free || self.runtime_free - free_before == delta)
        {
            let rounds = order.iter().map(|&(_, id)| self.threads[id as usize].uncharged).min();
            let rounds = rounds.expect("a round has threads");
            for &(_, id) in &order {
                let t = &mut self.threads[id as usize];
                t.vtime += rounds * delta;
                t.uncharged -= rounds;
            }
            if moves_free {
                self.runtime_free += rounds * delta;
            }
        }
        self.round = order;
    }

    /// How many `Basic` instructions the thread at `idx`, which holds the
    /// smallest key, runs back to back before its key passes `runner_up`:
    /// the first always, then one more for each `parallel + serial` step
    /// that keeps its clock below the runner-up's.
    fn fit(&self, idx: usize, runner_up: Option<Key>) -> u64 {
        let Some((rival_time, rival_id)) = runner_up else {
            return u64::MAX;
        };
        let t = &self.threads[idx];
        let (parallel, serial) = self.config.cost.price(CostClass::Basic);
        let first = self.charged(t.vtime, parallel, serial, 1);
        // The thread keeps the lead while its clock is below `bound`.
        let bound = if t.id < rival_id { rival_time.saturating_add(1) } else { rival_time };
        match (bound.saturating_sub(first), parallel + serial) {
            (0, _) => 1,
            (_, 0) => u64::MAX,
            (gap, step) => 1 + gap.div_ceil(step),
        }
    }

    fn run(&mut self) -> Result<SimStats, RuntimeError> {
        let main_unit = self.program.main;
        let nlocals = self.program.unit(main_unit).nlocals as usize;
        let locals = self.registry.new_table(vec![Value::None; nlocals]);
        // The main unit is entered directly (no Call instruction), so seed
        // its call path here — the interpreter reaches `main` through
        // `call_user`, and the flame paths must agree across engines.
        let main_node = if tetra_obs::attribution_enabled() {
            tetra_obs::stack::child(tetra_obs::stack::ROOT, &self.program.unit(main_unit).name)
        } else {
            tetra_obs::stack::ROOT
        };
        self.new_thread(None, main_unit, locals, Vec::new(), 0, main_node);

        loop {
            let Some((idx, runner_up, fewest)) = self.pick() else {
                if self.threads.iter().all(|t| t.state == VmState::Done) {
                    break;
                }
                // Deadlock (or a join that can never complete): raise into
                // the first blocked thread — a `try:` there can catch it,
                // mirroring the interpreter's detect-at-acquire behaviour.
                let blocked: Vec<(u32, String)> = self
                    .threads
                    .iter()
                    .filter_map(|t| match &t.state {
                        VmState::BlockedLock(name) => Some((t.id, name.clone())),
                        _ => None,
                    })
                    .collect();
                let Some((victim, want)) = blocked.first().cloned() else {
                    return Err(self.stuck_error());
                };
                let err = RuntimeError::new(ErrorKind::Deadlock, self.stuck_error().message, 0);
                // Remove the victim from the wait queue and unwind it.
                if let Some(entry) = self.locks.get_mut(&want) {
                    entry.waiters.retain(|w| *w != victim);
                }
                self.set_state(victim, VmState::Runnable);
                self.thread(victim).advance_ip();
                self.deliver(victim, err)?;
                continue;
            };
            // A lone thread, or a leader that keeps the lead, is charged
            // faster by `dispatch`; rounds pay off once each thread has
            // more than one instruction to charge.
            if fewest > 1 && self.background_live == 0 && self.fit(idx, runner_up) == 1 {
                self.lockstep();
                continue;
            }
            self.dispatch(idx, runner_up)?;
        }

        // One flush at end of simulation, mirroring the interpreter: the
        // metrics registry's lock must stay off the allocation path.
        self.heap.publish_metrics();
        Ok(SimStats {
            virtual_elapsed: self.threads.iter().map(|t| t.vtime).max().unwrap_or(0),
            instructions: self.instructions,
            threads: self.next_id,
            lock_contentions: self.lock_contentions,
            gc: self.heap.stats(),
        })
    }

    /// Run the thread at `idx`, which holds the smallest key, for as long
    /// as it keeps it: settle its uncharged instructions, run the next
    /// quantum ahead, or step the instruction at its frontier. Returns
    /// once its key passes `runner_up`, or after a step whose outcome may
    /// change which threads are runnable.
    fn dispatch(&mut self, idx: usize, runner_up: Option<Key>) -> Result<(), RuntimeError> {
        let tid = idx as u32;
        let (parallel, serial) = self.config.cost.price(CostClass::Basic);
        while self.leads(idx, runner_up) {
            let pending = self.threads[idx].uncharged;
            if pending > 0 {
                let n = pending.min(self.fit(idx, runner_up));
                self.charge(idx, parallel, serial, n);
                self.threads[idx].uncharged -= n;
                continue;
            }
            // Dispatch events cover one quantum or one step, under the call
            // path it ran on, so they can feed the flame output.
            let start = tetra_obs::now_ns();
            let node = self.threads[idx].current_shadow_node();
            let world = World {
                program: self.program,
                heap: &self.heap,
                mutator: &self.mutator,
                registry: &self.registry,
                console: &self.console,
                rng: &self.rng,
            };
            if !self.threads[idx].at_step {
                // A live `background:` child may read a running parent's
                // frame: run no further ahead than the reference order, and
                // leave shared accesses to `step`.
                let frontier = self.background_live == 0;
                let max = if frontier { QUANTUM } else { self.fit(idx, runner_up).min(QUANTUM) };
                let (n, shared) = self.threads[idx].step_quantum(&world, max as u32, frontier);
                if n > 0 {
                    self.instructions += n as u64;
                    tetra_obs::vm_dispatch(tid, n, start, node);
                    // The frontier access stood at its reference position:
                    // charge it now, at its own price.
                    let ahead = match shared {
                        Some(cost) => {
                            let (p, s) = self.config.cost.price(cost);
                            self.charge(idx, p, s, 1);
                            n - 1
                        }
                        None => n,
                    };
                    self.threads[idx].uncharged = ahead as u64;
                    continue;
                }
            }
            let t = &mut self.threads[idx];
            t.at_step = false;
            let stepped = t.step(&world);
            self.instructions += 1;
            tetra_obs::vm_dispatch(tid, 1, start, node);
            let (outcome, cost) = match stepped {
                Ok(x) => x,
                // Raise into the thread's handlers (or its parent).
                Err(e) => return self.deliver(tid, e),
            };
            let (p, s) = self.config.cost.price(cost);
            self.charge(idx, p, s, 1);
            if !matches!(outcome, Outcome::Normal) {
                return self.handle(tid, outcome);
            }
        }
        Ok(())
    }

    fn handle(&mut self, tid: u32, outcome: Outcome) -> Result<(), RuntimeError> {
        match outcome {
            Outcome::Normal => Ok(()),
            Outcome::Finished => self.finish_or_refeed(tid),
            Outcome::Spawn { thunks, join } => {
                let (parent_time, parent_frame, spawn_node) = {
                    let t = self.thread(tid);
                    let f = t.frames.last().expect("spawning thread has a frame");
                    // Children attribute under the spawning call path;
                    // thunk frames themselves add no path segment.
                    (t.vtime, (f.locals.clone(), f.outers.clone()), f.shadow_node)
                };
                let spawn_cost = self.config.cost.spawn;
                let mut children = Vec::with_capacity(thunks.len());
                for (i, unit) in thunks.iter().enumerate() {
                    let nlocals = self.program.unit(*unit).nlocals as usize;
                    let locals = self.registry.new_table(vec![Value::None; nlocals]);
                    // The child's outer chain is the parent frame itself,
                    // then the parent's own outers.
                    let mut outers = vec![parent_frame.0.clone()];
                    outers.extend(parent_frame.1.iter().cloned());
                    let start = parent_time + spawn_cost * (i as u64 + 1);
                    let id = self.new_thread(Some(tid), *unit, locals, outers, start, spawn_node);
                    self.thread(id).background = !join;
                    children.push(id);
                }
                // step() already advanced past the Parallel instruction.
                self.thread(tid).vtime += spawn_cost * thunks.len() as u64;
                if join {
                    self.set_state(tid, VmState::Joining(children));
                } else {
                    self.background_live += thunks.len() as u32;
                }
                Ok(())
            }
            Outcome::ParallelFor { thunk, items } => {
                if items.is_empty() {
                    return Ok(()); // step() already advanced past the instruction
                }
                let (parent_time, parent_frame, spawn_node) = {
                    let t = self.thread(tid);
                    let f = t.frames.last().expect("spawning thread has a frame");
                    (t.vtime, (f.locals.clone(), f.outers.clone()), f.shadow_node)
                };
                let workers = self.config.workers.clamp(1, items.len());
                let per = items.len().div_ceil(workers);
                let spawn_cost = self.config.cost.spawn;
                // Dynamic chunking: all workers read one shared table and
                // claim shrinking ranges from a common cursor, modeling the
                // interpreter pool's split-on-steal. Static: each worker
                // gets one contiguous chunk up front.
                let share = if self.config.dynamic_chunking {
                    Some(std::sync::Arc::new(FeedShare::new(items.len(), workers)))
                } else {
                    None
                };
                let all_items = share.as_ref().map(|_| self.registry.new_table(items.clone()));
                let mut children = Vec::with_capacity(workers);
                for i in 0..workers {
                    let (items_table, lo, hi) = match (&share, &all_items) {
                        (Some(share), Some(table)) => {
                            // `len >= workers`, so every worker's first
                            // claim is non-empty.
                            let (lo, hi) = share.claim().expect("initial claim");
                            (table.clone(), lo, hi)
                        }
                        _ => {
                            let lo = i * per;
                            let hi = ((i + 1) * per).min(items.len());
                            if lo >= hi {
                                break;
                            }
                            // The chunk lives in a registered table so its
                            // object elements stay rooted for the loop.
                            (self.registry.new_table(items[lo..hi].to_vec()), 0, hi - lo)
                        }
                    };
                    let nlocals = self.program.unit(thunk).nlocals as usize;
                    let mut init = vec![Value::None; nlocals];
                    init[0] = items_table.read()[lo];
                    let locals = self.registry.new_table(init);
                    let mut outers = vec![parent_frame.0.clone()];
                    outers.extend(parent_frame.1.iter().cloned());
                    let start = parent_time + spawn_cost * (children.len() as u64 + 1);
                    let id = self.new_thread(
                        Some(tid),
                        thunk,
                        locals.clone(),
                        outers.clone(),
                        start,
                        spawn_node,
                    );
                    self.thread(id).feed = Some(Feed {
                        items: items_table,
                        next: lo + 1,
                        end: hi,
                        unit: thunk,
                        locals,
                        outers,
                        share: share.clone(),
                    });
                    children.push(id);
                }
                self.thread(tid).vtime += spawn_cost * children.len() as u64;
                self.set_state(tid, VmState::Joining(children));
                Ok(())
            }
            Outcome::WantLock { name, line } => {
                let acquire_node = self.thread(tid).current_shadow_node();
                let entry = self.locks.entry(name.clone()).or_insert(SimLock {
                    holder: None,
                    holder_line: 0,
                    held_since_ns: 0,
                    holder_node: 0,
                    waiters: Vec::new(),
                });
                match entry.holder {
                    None => {
                        entry.holder = Some(tid);
                        entry.holder_line = line;
                        entry.held_since_ns = tetra_obs::now_ns();
                        entry.holder_node = acquire_node;
                        let acquired_ns = entry.held_since_ns;
                        let t = self.thread(tid);
                        // A woken waiter re-runs EnterLock and acquires here:
                        // its wait started back when it first blocked.
                        let (wait_start, wait_line) = if t.block_start.0 != 0 {
                            std::mem::take(&mut t.block_start)
                        } else {
                            (acquired_ns, line)
                        };
                        tetra_obs::lock_wait(tid, &name, wait_line, wait_start, acquire_node);
                        t.held_locks.push(name);
                        t.advance_ip();
                        Ok(())
                    }
                    Some(h) if h == tid => {
                        let err = RuntimeError::new(
                            ErrorKind::LockReentry,
                            format!(
                                "this thread already holds lock `{name}` (taken at line {}); \
                                 a second `lock {name}:` would wait for itself forever",
                                entry.holder_line
                            ),
                            line,
                        );
                        // Skip past the EnterLock before unwinding so a
                        // handler resumes cleanly.
                        self.thread(tid).advance_ip();
                        self.deliver(tid, err)
                    }
                    Some(_) => {
                        entry.waiters.push(tid);
                        self.lock_contentions += 1;
                        self.thread(tid).block_start = (tetra_obs::now_ns(), line);
                        self.set_state(tid, VmState::BlockedLock(name));
                        Ok(())
                    }
                }
            }
            Outcome::Unlocked { name } => {
                let t = self.thread(tid);
                if let Some(pos) = t.held_locks.iter().rposition(|l| *l == name) {
                    t.held_locks.remove(pos);
                }
                self.release_lock(tid, &name);
                Ok(())
            }
        }
    }

    /// Release `name` held by `tid` and wake its waiters.
    fn release_lock(&mut self, tid: u32, name: &str) {
        let release_time = self.thread(tid).vtime;
        if let Some(entry) = self.locks.get_mut(name) {
            debug_assert_eq!(entry.holder, Some(tid));
            entry.holder = None;
            tetra_obs::lock_hold(tid, name, entry.held_since_ns, entry.holder_node);
            let waiters = std::mem::take(&mut entry.waiters);
            for w in waiters {
                self.set_state(w, VmState::Runnable);
                let t = self.thread(w);
                t.vtime = t.vtime.max(release_time);
            }
        }
    }

    /// Raise a runtime error in thread `tid`: unwind to its innermost
    /// `try:` handler (releasing locks acquired inside the `try` body), or
    /// — with no handler — finish the thread with the error, delivering it
    /// to the joining parent, or abort the simulation when it reaches a
    /// thread nobody joins.
    fn deliver(&mut self, tid: u32, err: RuntimeError) -> Result<(), RuntimeError> {
        // Pop the innermost handler, if any.
        let handler = self.thread(tid).handlers.pop();
        match handler {
            Some(h) => {
                // Release locks acquired after the try was entered.
                let to_release: Vec<String> = self.thread(tid).held_locks.split_off(h.locks_mark);
                for name in to_release.iter().rev() {
                    self.release_lock(tid, name);
                }
                // Materialize the message; the handler's first instruction
                // stores it into the catch variable.
                let msg =
                    self.heap.alloc_str(&self.mutator, self.registry.as_ref(), err.message.clone());
                let t = self.thread(tid);
                while t.frames.len() > h.frame_depth {
                    t.frames.pop();
                }
                t.stack.write().truncate(h.stack_height);
                t.stack.write().push(msg);
                if let Some(f) = t.frames.last_mut() {
                    f.ip = h.handler_ip as usize;
                }
                self.set_state(tid, VmState::Runnable);
                Ok(())
            }
            None => {
                // Release everything the thread still holds.
                let to_release: Vec<String> = std::mem::take(&mut self.thread(tid).held_locks);
                for name in to_release.iter().rev() {
                    self.release_lock(tid, name);
                }
                let (parent, background) = {
                    let t = self.thread(tid);
                    (t.parent, t.background)
                };
                if parent.is_none() && !background {
                    return Err(err); // uncaught in main: abort the run
                }
                {
                    let t = self.thread(tid);
                    t.error = Some(err);
                    // No more items for a failed worker — and with dynamic
                    // chunking, cancel the unclaimed remainder of the loop
                    // (the interpreter pool's cancel flag does the same).
                    if let Some(share) = t.feed.as_ref().and_then(|f| f.share.as_ref()) {
                        share.drain();
                    }
                    t.feed = None;
                }
                self.finish_or_refeed(tid)
            }
        }
    }

    /// A thread's outermost frame returned: feed it the next parallel-for
    /// item, or mark it done and wake its joining parent.
    fn finish_or_refeed(&mut self, tid: u32) -> Result<(), RuntimeError> {
        // Refeed parallel-for workers: next item of the current chunk, or
        // (dynamic chunking) a freshly claimed chunk once this one is dry.
        let refeed = {
            let t = self.thread(tid);
            match &mut t.feed {
                Some(feed) => {
                    if feed.next >= feed.end {
                        if let Some((lo, hi)) = feed.share.as_ref().and_then(|s| s.claim()) {
                            feed.next = lo;
                            feed.end = hi;
                        }
                    }
                    if feed.next < feed.end {
                        let item = feed.items.read()[feed.next];
                        feed.next += 1;
                        Some((feed.unit, feed.locals.clone(), feed.outers.clone(), item))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        if let Some((unit, locals, outers, item)) = refeed {
            locals.write()[0] = item;
            let t = self.thread(tid);
            let shadow_node = t.shadow_root;
            t.frames.push(crate::vm::VmFrame {
                unit,
                ip: 0,
                locals,
                outers,
                stack_base: 0,
                shadow_node,
            });
            t.stack.write().clear();
            return Ok(());
        }
        self.set_state(tid, VmState::Done);
        let (end_time, parent, background) = {
            let t = self.thread(tid);
            if tetra_obs::enabled() {
                let name = if tid == 0 { "vm-main".to_string() } else { format!("vm-{tid}") };
                tetra_obs::thread_span(tid, &name, t.trace_start_ns);
            }
            (t.vtime, t.parent, t.background)
        };
        if background {
            self.background_live -= 1;
        }
        // Wake a parent joining on this thread once all siblings finished.
        if let Some(pid) = parent {
            let done_children: Vec<u32> = match &self.threads[pid as usize].state {
                VmState::Joining(children) => children.clone(),
                _ => return Ok(()),
            };
            let all_done =
                done_children.iter().all(|c| self.threads[*c as usize].state == VmState::Done);
            if all_done {
                let join_time = done_children
                    .iter()
                    .map(|c| self.threads[*c as usize].vtime)
                    .max()
                    .unwrap_or(end_time);
                let child_error =
                    done_children.iter().find_map(|c| self.threads[*c as usize].error.take());
                self.set_state(pid, VmState::Runnable);
                let p = self.thread(pid);
                p.vtime = p.vtime.max(join_time);
                // The first failing child's error surfaces in the parent at
                // the join point — where a `try:` around the parallel
                // construct can catch it.
                if let Some(e) = child_error {
                    return self.deliver(pid, e);
                }
            }
        }
        Ok(())
    }

    fn stuck_error(&self) -> RuntimeError {
        let blocked: Vec<String> = self
            .threads
            .iter()
            .filter_map(|t| match &t.state {
                VmState::BlockedLock(name) => {
                    Some(format!("thread {} waits for lock `{name}`", t.id))
                }
                _ => None,
            })
            .collect();
        if blocked.is_empty() {
            RuntimeError::new(
                ErrorKind::ThreadError,
                "simulation stuck: threads joining children that never finish (VM bug)",
                0,
            )
        } else {
            RuntimeError::new(
                ErrorKind::Deadlock,
                format!("deadlock: {}", blocked.join(", which is held while ")),
                0,
            )
        }
    }
}
