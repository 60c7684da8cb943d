//! The VM: thread state and single-instruction stepping.
//!
//! Unlike the tree-walking interpreter, the VM is an explicit machine —
//! frames, instruction pointers and an operand stack — so execution can be
//! *stepped*: the deterministic scheduler in [`crate::sched`] interleaves
//! VM threads in virtual-time order, instruction by instruction as far as
//! any other thread can observe, which is what makes the virtual-time
//! simulation (and deterministic replay) possible.
//!
//! All mutable thread state lives behind shared tables registered with a
//! [`Registry`], which doubles as the GC root source: collection can happen
//! inside any allocating instruction without tracking Rust borrows.

use crate::bytecode::{CompiledProgram, Const, Instr};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::sync::{Arc, Weak};
use tetra_ast::Type;
use tetra_runtime::{
    ConsoleRef, ErrorKind, Heap, MutatorGuard, Object, RootSink, RootSource, RuntimeError, Value,
};
use tetra_stdlib::{ops, Builtin, StdRng};

/// A shared table of values: one per frame's locals, plus each thread's
/// operand stack.
pub type Table = Arc<RwLock<Vec<Value>>>;

/// Registry of all live tables; the single GC root source of a VM run.
pub struct Registry {
    tables: Mutex<TableSet>,
}

struct TableSet {
    entries: Vec<Weak<RwLock<Vec<Value>>>>,
    /// Purge dead weak entries once `entries` reaches this length. After a
    /// purge it is reset to twice the surviving count, so a full scan only
    /// runs when the live fraction may have fallen below half — amortized
    /// O(1) per registration, and dead tables never pile up unboundedly.
    purge_at: usize,
}

const PURGE_FLOOR: usize = 64;

impl Default for Registry {
    fn default() -> Self {
        Registry { tables: Mutex::new(TableSet { entries: Vec::new(), purge_at: PURGE_FLOOR }) }
    }
}

impl Registry {
    pub fn new_table(&self, init: Vec<Value>) -> Table {
        let t = Arc::new(RwLock::new(init));
        let mut set = self.tables.lock();
        set.entries.push(Arc::downgrade(&t));
        if set.entries.len() >= set.purge_at {
            set.entries.retain(|w| w.strong_count() > 0);
            set.purge_at = (set.entries.len() * 2).max(PURGE_FLOOR);
        }
        t
    }

    /// Number of weak entries currently tracked (live + not-yet-purged dead).
    pub fn tracked_tables(&self) -> usize {
        self.tables.lock().entries.len()
    }
}

impl RootSource for Registry {
    fn roots(&self, sink: &mut RootSink) {
        for w in self.tables.lock().entries.iter() {
            if let Some(t) = w.upgrade() {
                for v in t.read().iter() {
                    sink.value(*v);
                }
            }
        }
    }
}

/// One call frame.
pub struct VmFrame {
    pub unit: u16,
    pub ip: usize,
    pub locals: Table,
    /// Enclosing frames' locals for thunks; `outers[0]` is depth 1.
    pub outers: Vec<Table>,
    /// Operand stack height at frame entry (restored on return).
    pub stack_base: usize,
    /// Shadow call-path node ([`tetra_obs::stack`]) this frame runs under.
    /// Stored per frame (not per thread) so unwinding frames automatically
    /// restores the attribution path; `stack::ROOT` when attribution is
    /// off.
    pub shadow_node: u32,
}

/// Why a thread cannot run right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmState {
    Runnable,
    BlockedLock(String),
    /// Waiting for these child thread ids to finish.
    Joining(Vec<u32>),
    Done,
}

/// Work items fed to a parallel-for worker. The items live in a
/// registry-registered table so they stay GC-rooted for the loop's
/// lifetime. A worker owns the half-open index range `next..end`; with
/// dynamic chunking it claims a fresh range from the loop's [`FeedShare`]
/// whenever its own runs dry.
pub struct Feed {
    pub items: Table,
    pub next: usize,
    /// One past the last index of the worker's current chunk.
    pub end: usize,
    /// The thunk re-entered for each item.
    pub unit: u16,
    pub locals: Table,
    pub outers: Vec<Table>,
    /// The loop-wide claim cursor (dynamic chunking); `None` under static
    /// chunking, where the worker's `next..end` is its entire share.
    pub share: Option<std::sync::Arc<FeedShare>>,
}

/// The deterministic model of the runtime pool's adaptive chunking: one
/// cursor per `parallel for`, shared by its workers. Each claim takes a
/// guided-self-scheduling chunk — half the remaining work divided by the
/// worker count, so chunks start large (low dispatch overhead) and shrink
/// toward the tail (load balance), mirroring the real pool's
/// split-in-half-on-steal behaviour. Claim order is decided by the
/// virtual-time scheduler, so simulated runs stay exactly reproducible.
pub struct FeedShare {
    cursor: parking_lot::Mutex<usize>,
    len: usize,
    workers: usize,
}

impl FeedShare {
    pub fn new(len: usize, workers: usize) -> Self {
        FeedShare { cursor: parking_lot::Mutex::new(0), len, workers: workers.max(1) }
    }

    /// Claim the next chunk, or `None` when the loop is exhausted.
    pub fn claim(&self) -> Option<(usize, usize)> {
        let mut cur = self.cursor.lock();
        if *cur >= self.len {
            return None;
        }
        let remaining = self.len - *cur;
        let take = (remaining / (2 * self.workers)).max(1);
        let lo = *cur;
        *cur += take;
        Some((lo, lo + take))
    }

    /// Mark the loop exhausted (a worker died with an error: the remaining
    /// items are cancelled, like the interpreter pool's cancel flag).
    pub fn drain(&self) {
        *self.cursor.lock() = self.len;
    }
}

/// An installed `try:` handler (the VM's unwind target).
#[derive(Debug, Clone)]
pub struct Handler {
    /// `frames.len()` when the handler was installed.
    pub frame_depth: usize,
    /// Operand-stack height when the handler was installed.
    pub stack_height: usize,
    /// Instruction index of the handler entry (starts with the store of
    /// the error message into the catch variable).
    pub handler_ip: u32,
    /// `held_locks.len()` at installation — locks past this mark are
    /// released when unwinding to the handler.
    pub locks_mark: usize,
}

/// One VM thread (main, parallel child, background child, or worker).
pub struct VmThread {
    pub id: u32,
    pub parent: Option<u32>,
    pub frames: Vec<VmFrame>,
    pub stack: Table,
    pub state: VmState,
    /// Virtual time (simulation clock units).
    pub vtime: u64,
    pub feed: Option<Feed>,
    /// True for `background:` children (not joined by anyone).
    pub background: bool,
    /// Instructions [`VmThread::step_quantum`] has executed ahead whose
    /// virtual time the scheduler has not charged yet.
    pub uncharged: u64,
    /// The last quantum stopped short at an instruction it cannot run
    /// even at the frontier, so only [`VmThread::step`] runs it, and the
    /// thread has not moved since.
    pub at_step: bool,
    /// Reused buffer for builtin-call arguments.
    builtin_args: Vec<Value>,
    /// Installed `try:` handlers, innermost last.
    pub handlers: Vec<Handler>,
    /// Lock names this thread currently holds, in acquisition order.
    pub held_locks: Vec<String>,
    /// An uncaught error (delivered to the joining parent, or reported at
    /// program end for background threads).
    pub error: Option<RuntimeError>,
    /// Trace timestamp of thread creation (0 when tracing is off).
    pub trace_start_ns: u64,
    /// Trace timestamp of the blocking acquire in progress, with the
    /// `lock` statement's line (used when the thread is woken).
    pub block_start: (u64, u32),
    /// Shadow call-path node this thread was spawned under: the seed for
    /// its outermost frame, and for re-fed parallel-for worker frames.
    pub shadow_root: u32,
}

/// Cost class of an executed instruction, mapped to virtual time by the
/// scheduler's [`crate::sched::CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    Basic,
    /// Access to an enclosing (shared) frame.
    SharedAccess,
    /// Heap allocation.
    Alloc,
    /// A builtin call (typically allocating / touching shared runtime).
    Builtin,
    /// A simulated `sleep(ms)`: extra virtual milliseconds.
    Sleep(u64),
}

/// What the scheduler must do after a step.
pub enum Outcome {
    Normal,
    /// Spawn these thunks; `join` distinguishes `parallel:` from
    /// `background:`.
    Spawn {
        thunks: Vec<u16>,
        join: bool,
    },
    /// Distribute `items` over workers running `thunk`.
    ParallelFor {
        thunk: u16,
        items: Vec<Value>,
    },
    /// The thread wants this lock; its ip was *not* advanced.
    WantLock {
        name: String,
        line: u32,
    },
    /// The thread released this lock.
    Unlocked {
        name: String,
    },
    /// The outermost frame returned; the thread is finished (unless its
    /// feed has more items).
    Finished,
}

/// Everything stepping needs from the scheduler.
pub struct World<'a> {
    pub program: &'a CompiledProgram,
    pub heap: &'a Arc<Heap>,
    pub mutator: &'a MutatorGuard,
    pub registry: &'a Registry,
    pub console: &'a ConsoleRef,
    /// The run's fixed-seed generator behind `random()`/`rand_int()`.
    pub rng: &'a RefCell<StdRng>,
}

impl World<'_> {
    /// The context a builtin called at `line` runs in.
    fn host(&self, line: u32) -> tetra_stdlib::HostCtx<'_> {
        tetra_stdlib::HostCtx {
            heap: self.heap,
            mutator: self.mutator,
            roots: self.registry,
            console: self.console,
            thread: None,
            rng: Some(self.rng),
            line,
        }
    }
}

impl VmThread {
    pub fn new(
        id: u32,
        parent: Option<u32>,
        unit: u16,
        locals: Table,
        outers: Vec<Table>,
        registry: &Registry,
        shadow_node: u32,
    ) -> VmThread {
        VmThread {
            id,
            parent,
            frames: vec![VmFrame { unit, ip: 0, locals, outers, stack_base: 0, shadow_node }],
            shadow_root: shadow_node,
            stack: registry.new_table(Vec::new()),
            state: VmState::Runnable,
            vtime: 0,
            feed: None,
            background: false,
            uncharged: 0,
            at_step: false,
            builtin_args: Vec::new(),
            handlers: Vec::new(),
            held_locks: Vec::new(),
            error: None,
            trace_start_ns: tetra_obs::now_ns(),
            block_start: (0, 0),
        }
    }

    /// The shadow call-path node the thread is currently running under
    /// (its spawn node once the outermost frame has returned).
    pub fn current_shadow_node(&self) -> u32 {
        self.frames.last().map(|f| f.shadow_node).unwrap_or(self.shadow_root)
    }

    pub fn current_line(&self, program: &CompiledProgram) -> u32 {
        match self.frames.last() {
            Some(f) => program
                .unit(f.unit)
                .line_at(f.ip.min(program.unit(f.unit).code.len().saturating_sub(1))),
            None => 0,
        }
    }

    fn err(
        &self,
        program: &CompiledProgram,
        kind: ErrorKind,
        msg: impl Into<String>,
    ) -> RuntimeError {
        RuntimeError::new(kind, msg, self.current_line(program))
    }

    // ---- stack helpers (brief locks; never held across allocation) --------

    fn push(&self, v: Value) {
        self.stack.write().push(v);
    }

    fn pop(&self, program: &CompiledProgram) -> Result<Value, RuntimeError> {
        self.stack
            .write()
            .pop()
            .ok_or_else(|| self.err(program, ErrorKind::Value, "VM stack underflow (compiler bug)"))
    }

    fn peek(&self, program: &CompiledProgram) -> Result<Value, RuntimeError> {
        self.stack
            .read()
            .last()
            .copied()
            .ok_or_else(|| self.err(program, ErrorKind::Value, "VM stack underflow (compiler bug)"))
    }

    /// Copy the top `n` values (kept on the stack as GC roots).
    fn top_n(&self, n: usize) -> Vec<Value> {
        let stack = self.stack.read();
        stack[stack.len() - n..].to_vec()
    }

    /// Read the top `N` values in place (they stay on the stack as GC
    /// roots), bottom-most first.
    fn top<const N: usize>(&self) -> [Value; N] {
        let stack = self.stack.read();
        let base = stack.len() - N;
        std::array::from_fn(|i| stack[base + i])
    }

    fn drop_n(&self, n: usize) {
        let mut stack = self.stack.write();
        let len = stack.len();
        stack.truncate(len - n);
    }

    /// Execute up to `max` cheap, allocation-free instructions while
    /// holding the frame's locals guard and the operand-stack guard
    /// **once**, instead of re-acquiring both `RwLock`s for every
    /// instruction.
    ///
    /// Returns how many instructions ran (possibly 0) and, when the first
    /// of them was a *frontier access*, its cost class. The scheduler calls
    /// this only while the thread has nothing uncharged and holds the
    /// smallest key, so the first instruction stands at its reference
    /// position: with `frontier` set, it may be one that touches shared
    /// state without allocating or raising — `Index`/`IndexStore` on an
    /// in-bounds array element, or `len` of an array — and the scheduler
    /// charges it at once. Every other instruction is `CostClass::Basic`
    /// and touches only this thread's top-frame locals and operand stack,
    /// which is what lets the scheduler run it ahead of its virtual time.
    ///
    /// Stops *before* any instruction that could allocate, raise, block,
    /// or change the frame stack, and before any shared access past the
    /// first instruction — those run at the frontier of a later quantum or
    /// through [`VmThread::step`]. `at_step` is left set unless the stop is
    /// at a frontier access, which the next quantum runs first. The
    /// allocation restriction is load-bearing: a GC triggered inside the
    /// quantum would scan the registry's roots, which read-locks every
    /// table, including the two write guards held here.
    pub fn step_quantum(
        &mut self,
        world: &World,
        max: u32,
        frontier: bool,
    ) -> (u32, Option<CostClass>) {
        let program = world.program;
        let Some(frame) = self.frames.last_mut() else {
            return (0, None);
        };
        let code = &program.unit(frame.unit).code;
        let octx =
            ops::OpCtx { heap: world.heap, mutator: world.mutator, roots: world.registry, line: 0 };
        let mut locals = frame.locals.write();
        let mut stack = self.stack.write();
        let mut ip = frame.ip;
        let mut n: u32 = 0;
        let mut shared = None;
        let mut at_frontier = false;
        while n < max {
            match &code[ip] {
                Instr::Const(i) => match &program.consts[*i as usize] {
                    Const::None => stack.push(Value::None),
                    Const::Int(v) => stack.push(Value::Int(*v)),
                    Const::Real(v) => stack.push(Value::Real(*v)),
                    Const::Bool(v) => stack.push(Value::Bool(*v)),
                    Const::Str(_) => break, // allocates
                },
                Instr::LoadLocal(i) => {
                    let v = locals[*i as usize];
                    if matches!(v, Value::None) {
                        break; // unassigned read: error via step()
                    }
                    stack.push(v);
                }
                Instr::StoreLocal(i) => {
                    let Some(&v) = stack.last() else { break };
                    stack.pop();
                    let slot = &mut locals[*i as usize];
                    *slot = ops::widen_like(Some(*slot), v);
                }
                Instr::Jump(t) => {
                    ip = *t as usize;
                    n += 1;
                    continue;
                }
                Instr::JumpIfFalse(t) => match stack.last() {
                    Some(Value::Bool(b)) => {
                        let b = *b;
                        stack.pop();
                        if !b {
                            ip = *t as usize;
                            n += 1;
                            continue;
                        }
                    }
                    _ => break, // non-bool condition: error via step()
                },
                Instr::JumpIfFalsePeek(t) => match stack.last() {
                    Some(Value::Bool(false)) => {
                        ip = *t as usize;
                        n += 1;
                        continue;
                    }
                    Some(Value::Bool(true)) => {}
                    _ => break,
                },
                Instr::JumpIfTruePeek(t) => match stack.last() {
                    Some(Value::Bool(true)) => {
                        ip = *t as usize;
                        n += 1;
                        continue;
                    }
                    Some(Value::Bool(false)) => {}
                    _ => break,
                },
                Instr::Pop => {
                    if stack.pop().is_none() {
                        break;
                    }
                }
                Instr::Dup2 => {
                    let len = stack.len();
                    if len < 2 {
                        break;
                    }
                    let (a, b) = (stack[len - 2], stack[len - 1]);
                    stack.push(a);
                    stack.push(b);
                }
                Instr::Bin(op) => {
                    let len = stack.len();
                    if len < 2 {
                        break;
                    }
                    let (l, r) = (stack[len - 2], stack[len - 1]);
                    // Scalar operands can neither allocate nor be GC-moved;
                    // objects (string/array concat) go through step().
                    if l.as_obj().is_some() || r.as_obj().is_some() {
                        break;
                    }
                    match ops::binary(&octx, *op, l, r) {
                        Ok(v) => {
                            stack.truncate(len - 2);
                            stack.push(v);
                        }
                        Err(_) => break, // re-raise via step() with a line
                    }
                }
                Instr::Neg => {
                    let Some(&v) = stack.last() else { break };
                    if v.as_obj().is_some() {
                        break;
                    }
                    match ops::negate(&octx, v) {
                        Ok(r) => {
                            stack.pop();
                            stack.push(r);
                        }
                        Err(_) => break,
                    }
                }
                Instr::Not => {
                    let Some(&v) = stack.last() else { break };
                    if v.as_obj().is_some() {
                        break;
                    }
                    match ops::not(&octx, v) {
                        Ok(r) => {
                            stack.pop();
                            stack.push(r);
                        }
                        Err(_) => break,
                    }
                }
                Instr::Widen => {
                    let Some(&v) = stack.last() else { break };
                    stack.pop();
                    stack.push(ops::widen_to(&Type::Real, v));
                }
                // Frontier accesses: array accesses that neither allocate
                // nor raise, run only as the quantum's first instruction; a
                // later one ends the quantum, and the next starts with it.
                Instr::Index if frontier => {
                    if n > 0 {
                        at_frontier = true;
                        break;
                    }
                    let len = stack.len();
                    let (base, index) = (stack[len - 2], stack[len - 1]);
                    if !is_array(base) {
                        break; // string indexing allocates: via step()
                    }
                    match ops::index_read(&octx, base, index) {
                        Ok(v) => {
                            stack.truncate(len - 2);
                            stack.push(v);
                        }
                        Err(_) => break,
                    }
                    shared = Some(CostClass::SharedAccess);
                }
                Instr::IndexStore if frontier => {
                    if n > 0 {
                        at_frontier = true;
                        break;
                    }
                    let len = stack.len();
                    let (base, index, v) = (stack[len - 3], stack[len - 2], stack[len - 1]);
                    if !is_array(base) {
                        break;
                    }
                    if ops::index_write(&octx, base, index, v).is_err() {
                        break;
                    }
                    stack.truncate(len - 3);
                    shared = Some(CostClass::SharedAccess);
                }
                Instr::CallBuiltin(Builtin::Len, 1) if frontier => {
                    if n > 0 {
                        at_frontier = true;
                        break;
                    }
                    let Some(&v) = stack.last() else { break };
                    if !is_array(v) {
                        break;
                    }
                    match tetra_stdlib::call_builtin(Builtin::Len, &world.host(0), &[v]) {
                        Ok(v) => {
                            stack.pop();
                            stack.push(v);
                        }
                        Err(_) => break,
                    }
                    shared = Some(CostClass::Builtin);
                }
                _ => break,
            }
            ip += 1;
            n += 1;
        }
        self.at_step = n < max && !at_frontier;
        drop(stack);
        drop(locals);
        frame.ip = ip;
        (n, shared)
    }

    /// Execute the instruction at the current ip. Returns the outcome and
    /// the cost class. On `WantLock` the ip is left pointing at the
    /// `EnterLock` so the scheduler can retry it.
    pub fn step(&mut self, world: &World) -> Result<(Outcome, CostClass), RuntimeError> {
        let program = world.program;
        let frame = self.frames.last().expect("step on a finished thread");
        let unit = program.unit(frame.unit);
        let instr = &unit.code[frame.ip];
        let line = unit.line_at(frame.ip);
        if tetra_obs::heap_profile_enabled() {
            // Any allocation this instruction performs is charged to the
            // current call path and source line.
            tetra_obs::heapprof::set_site(frame.shadow_node, line);
        }

        let octx =
            ops::OpCtx { heap: world.heap, mutator: world.mutator, roots: world.registry, line };

        let mut cost = CostClass::Basic;
        let mut advance = true;
        let mut outcome = Outcome::Normal;

        match *instr {
            Instr::Const(i) => {
                let v = match &program.consts[i as usize] {
                    Const::None => Value::None,
                    Const::Int(v) => Value::Int(*v),
                    Const::Real(v) => Value::Real(*v),
                    Const::Bool(v) => Value::Bool(*v),
                    Const::Str(s) => {
                        cost = CostClass::Alloc;
                        world.heap.alloc_str(world.mutator, world.registry, s.clone())
                    }
                };
                self.push(v);
            }
            Instr::LoadLocal(i) => {
                let v = self.frames.last().unwrap().locals.read()[i as usize];
                if matches!(v, Value::None) {
                    return Err(self.err(
                        program,
                        ErrorKind::UndefinedVariable,
                        "a variable was read before any assignment",
                    ));
                }
                self.push(v);
            }
            Instr::StoreLocal(i) => {
                let v = self.pop(program)?;
                let locals = self.frames.last().unwrap().locals.clone();
                let mut locals = locals.write();
                let slot = &mut locals[i as usize];
                *slot = ops::widen_like(Some(*slot), v);
            }
            Instr::LoadOuter(d, i) => {
                cost = CostClass::SharedAccess;
                let table = self.frames.last().unwrap().outers[d as usize - 1].clone();
                let v = table.read()[i as usize];
                if matches!(v, Value::None) {
                    return Err(self.err(
                        program,
                        ErrorKind::UndefinedVariable,
                        "a variable was read before any assignment",
                    ));
                }
                self.push(v);
            }
            Instr::StoreOuter(d, i) => {
                cost = CostClass::SharedAccess;
                let v = self.pop(program)?;
                let table = self.frames.last().unwrap().outers[d as usize - 1].clone();
                let mut table = table.write();
                let slot = &mut table[i as usize];
                *slot = ops::widen_like(Some(*slot), v);
            }
            Instr::Bin(op) => {
                let [l, r] = self.top();
                let r = ops::binary(&octx, op, l, r)?;
                self.drop_n(2);
                self.push(r);
                if r.as_obj().is_some() {
                    cost = CostClass::Alloc;
                }
            }
            Instr::Neg => {
                let v = self.peek(program)?;
                let r = ops::negate(&octx, v)?;
                self.drop_n(1);
                self.push(r);
            }
            Instr::Not => {
                let v = self.peek(program)?;
                let r = ops::not(&octx, v)?;
                self.drop_n(1);
                self.push(r);
            }
            Instr::Widen => {
                let v = self.pop(program)?;
                self.push(ops::widen_to(&Type::Real, v));
            }
            Instr::Pop => {
                self.pop(program)?;
            }
            Instr::Dup2 => {
                let mut stack = self.stack.write();
                let len = stack.len();
                stack.extend_from_within(len - 2..);
            }
            Instr::Jump(t) => {
                self.frames.last_mut().unwrap().ip = t as usize;
                advance = false;
            }
            Instr::JumpIfFalse(t) => {
                let v = self.pop(program)?;
                if !self.truthy(program, v)? {
                    self.frames.last_mut().unwrap().ip = t as usize;
                    advance = false;
                }
            }
            Instr::JumpIfFalsePeek(t) => {
                let v = self.peek(program)?;
                if !self.truthy(program, v)? {
                    self.frames.last_mut().unwrap().ip = t as usize;
                    advance = false;
                }
            }
            Instr::JumpIfTruePeek(t) => {
                let v = self.peek(program)?;
                if self.truthy(program, v)? {
                    self.frames.last_mut().unwrap().ip = t as usize;
                    advance = false;
                }
            }
            Instr::Call(f, argc) => {
                let argc = argc as usize;
                let callee = program.unit(f);
                let mut locals = vec![Value::None; callee.nlocals as usize];
                // Move the arguments straight into the callee's locals;
                // nothing allocates on the heap before the table is rooted.
                let stack_base = {
                    let mut stack = self.stack.write();
                    let base = stack.len() - argc;
                    locals[..argc].copy_from_slice(&stack[base..]);
                    stack.truncate(base);
                    base
                };
                let locals = world.registry.new_table(locals);
                // Return to the next instruction.
                self.frames.last_mut().unwrap().ip += 1;
                advance = false;
                if self.frames.len() >= 1000 {
                    return Err(self.err(
                        program,
                        ErrorKind::Value,
                        "call depth exceeded 1000 (infinite recursion?)",
                    ));
                }
                // Extend the shadow call path; Return pops the frame and
                // thereby restores the caller's node.
                let shadow_node = if tetra_obs::attribution_enabled() {
                    let parent = self.frames.last().unwrap().shadow_node;
                    tetra_obs::stack::child(parent, &callee.name)
                } else {
                    tetra_obs::stack::ROOT
                };
                self.frames.push(VmFrame {
                    unit: f,
                    ip: 0,
                    locals,
                    outers: Vec::new(),
                    stack_base,
                    shadow_node,
                });
            }
            Instr::CallBuiltin(b, argc) => {
                let argc = argc as usize;
                if b == Builtin::Sleep {
                    // Simulated: advance virtual time without real sleeping.
                    let ms = self.pop(program)?.as_int().unwrap_or(0).max(0) as u64;
                    self.push(Value::None);
                    cost = CostClass::Sleep(ms);
                } else {
                    // Copy the arguments into the reused buffer (they stay
                    // on the stack as roots): a builtin may allocate, and a
                    // collection read-locks the stack, so no guard may be
                    // held across the call.
                    let mut args = std::mem::take(&mut self.builtin_args);
                    args.clear();
                    {
                        let stack = self.stack.read();
                        args.extend_from_slice(&stack[stack.len() - argc..]);
                    }
                    let r = tetra_stdlib::call_builtin(b, &world.host(line), &args);
                    self.builtin_args = args;
                    let r = r?;
                    self.drop_n(argc);
                    self.push(r);
                    cost = CostClass::Builtin;
                }
            }
            Instr::Return => {
                let value = self.pop(program)?;
                let frame = self.frames.pop().expect("return without a frame");
                self.stack.write().truncate(frame.stack_base);
                // Handlers installed inside the returning frame are gone.
                let depth = self.frames.len();
                self.handlers.retain(|h| h.frame_depth <= depth);
                if self.frames.is_empty() {
                    outcome = Outcome::Finished;
                    advance = false;
                } else {
                    self.push(value);
                    advance = false; // caller ip was advanced at Call time
                }
            }
            Instr::MakeArray(n) => {
                let n = n as usize;
                let items = self.top_n(n);
                let arr = world.heap.alloc(world.mutator, world.registry, Object::array(items));
                self.drop_n(n);
                self.push(Value::Obj(arr));
                cost = CostClass::Alloc;
            }
            Instr::MakeRange => {
                let [a, b] = self.top();
                let (Some(a), Some(b)) = (a.as_int(), b.as_int()) else {
                    return Err(self.err(program, ErrorKind::Value, "range bounds must be ints"));
                };
                const MAX_RANGE: i64 = 50_000_000;
                if b.saturating_sub(a) > MAX_RANGE {
                    return Err(self.err(
                        program,
                        ErrorKind::Value,
                        format!("range [{a} ... {b}] is too large (over {MAX_RANGE} elements)"),
                    ));
                }
                let items: Vec<Value> = (a..=b).map(Value::Int).collect();
                let arr = world.heap.alloc(world.mutator, world.registry, Object::array(items));
                self.drop_n(2);
                self.push(Value::Obj(arr));
                cost = CostClass::Alloc;
            }
            Instr::MakeTuple(n) => {
                let n = n as usize;
                let items = self.top_n(n);
                let t = world.heap.alloc(world.mutator, world.registry, Object::Tuple(items));
                self.drop_n(n);
                self.push(Value::Obj(t));
                cost = CostClass::Alloc;
            }
            Instr::MakeDict(n) => {
                let n = n as usize;
                let flat = self.top_n(2 * n);
                let mut map = std::collections::HashMap::with_capacity(n);
                for pair in flat.chunks(2) {
                    let key = pair[0].to_dict_key().ok_or_else(|| {
                        self.err(
                            program,
                            ErrorKind::Value,
                            format!("a {} cannot be a dict key", pair[0].type_name()),
                        )
                    })?;
                    map.insert(key, pair[1]);
                }
                let d = world.heap.alloc(world.mutator, world.registry, Object::dict(map));
                self.drop_n(2 * n);
                self.push(Value::Obj(d));
                cost = CostClass::Alloc;
            }
            Instr::Index => {
                let [seq, idx] = self.top();
                let v = ops::index_read(&octx, seq, idx)?;
                self.drop_n(2);
                self.push(v);
                cost = CostClass::SharedAccess;
            }
            Instr::IndexStore => {
                let [seq, idx, v] = self.top();
                ops::index_write(&octx, seq, idx, v)?;
                self.drop_n(3);
                cost = CostClass::SharedAccess;
            }
            Instr::Assert { has_msg } => {
                let msg = if has_msg { Some(self.pop(program)?) } else { None };
                let cond = self.pop(program)?;
                if !self.truthy(program, cond)? {
                    let text = match msg {
                        Some(m) => m.display(),
                        None => "assertion failed".to_string(),
                    };
                    return Err(self.err(program, ErrorKind::AssertionFailed, text));
                }
            }
            Instr::EnterLock(c) => {
                let Const::Str(name) = &program.consts[c as usize] else {
                    unreachable!("lock name constant must be a string");
                };
                outcome = Outcome::WantLock { name: name.clone(), line };
                advance = false; // scheduler advances on successful acquire
            }
            Instr::ExitLock(c) => {
                let Const::Str(name) = &program.consts[c as usize] else {
                    unreachable!("lock name constant must be a string");
                };
                outcome = Outcome::Unlocked { name: name.clone() };
            }
            Instr::Parallel(ref thunks) => {
                outcome = Outcome::Spawn { thunks: thunks.clone(), join: true };
            }
            Instr::Background(ref thunks) => {
                outcome = Outcome::Spawn { thunks: thunks.clone(), join: false };
            }
            Instr::TryPush(handler_ip) => {
                self.handlers.push(Handler {
                    frame_depth: self.frames.len(),
                    stack_height: self.stack.read().len(),
                    handler_ip,
                    locks_mark: self.held_locks.len(),
                });
            }
            Instr::TryPop => {
                self.handlers.pop();
            }
            Instr::ParallelFor(t) => {
                // Peek (not pop) so the sequence stays rooted while char
                // strings are allocated below.
                let arr = self.peek(program)?;
                let items = match arr {
                    Value::Obj(r) => match r.object() {
                        Object::Array(items) => items.lock().clone(),
                        Object::Str(s) => {
                            // Iterate characters, as the interpreter does.
                            let chars: Vec<String> = s.chars().map(|c| c.to_string()).collect();
                            let mut out = Vec::with_capacity(chars.len());
                            for c in chars {
                                let v = world.heap.alloc_str(world.mutator, world.registry, c);
                                // Root each char via the operand stack.
                                self.push(v);
                                out.push(v);
                            }
                            self.drop_n(out.len());
                            out
                        }
                        _ => {
                            return Err(self.err(
                                program,
                                ErrorKind::Value,
                                "parallel for needs an array",
                            ))
                        }
                    },
                    other => {
                        return Err(self.err(
                            program,
                            ErrorKind::Value,
                            format!("cannot iterate over a {}", other.type_name()),
                        ))
                    }
                };
                self.drop_n(1); // the sequence value
                outcome = Outcome::ParallelFor { thunk: t, items };
            }
        }

        if advance {
            if let Some(f) = self.frames.last_mut() {
                f.ip += 1;
            }
        }
        Ok((outcome, cost))
    }

    fn truthy(&self, program: &CompiledProgram, v: Value) -> Result<bool, RuntimeError> {
        v.as_bool().ok_or_else(|| {
            self.err(
                program,
                ErrorKind::Value,
                format!("condition evaluated to a {}, not a bool", v.type_name()),
            )
        })
    }

    /// Advance past the `EnterLock` the thread was parked on.
    pub fn advance_ip(&mut self) {
        if let Some(f) = self.frames.last_mut() {
            f.ip += 1;
        }
    }
}

/// Whether `v` is an array, whose element accesses and `len` neither
/// allocate nor change frames.
fn is_array(v: Value) -> bool {
    v.as_obj().is_some_and(|r| matches!(r.object(), Object::Array(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_tables_are_purged_from_the_registry() {
        let reg = Registry::default();
        for _ in 0..10_000 {
            drop(reg.new_table(Vec::new()));
        }
        // Every table registered above is dead by the time the next one
        // arrives; the doubling threshold keeps the tracked set near the
        // floor instead of accumulating ten thousand dead weak entries.
        assert!(
            reg.tracked_tables() <= 2 * PURGE_FLOOR,
            "tracked {} dead entries",
            reg.tracked_tables()
        );
    }

    #[test]
    fn live_tables_survive_purges() {
        let reg = Registry::default();
        let keep: Vec<Table> = (0..100).map(|i| reg.new_table(vec![Value::Int(i)])).collect();
        for _ in 0..10_000 {
            drop(reg.new_table(Vec::new()));
        }
        assert!(reg.tracked_tables() >= keep.len());
        for (i, t) in keep.iter().enumerate() {
            assert!(matches!(t.read()[0], Value::Int(v) if v == i as i64));
        }
    }
}
