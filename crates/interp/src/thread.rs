//! Per-thread interpreter state.
//!
//! Each Tetra thread — the main thread plus every thread spawned by
//! `parallel`, `background` and `parallel for` — owns one [`ThreadCtx`]:
//! its call stack of activations, a temporary root stack for values held
//! across GC points, its held-lock list, and its registration with the GC
//! and the thread registry.
//!
//! An activation is *private* or *shared*. A function that spawns nothing
//! ([`tetra_types::Resolution::frame_is_private`]) has a frame no other
//! thread can ever see: its slots live in the thread's contiguous `locals`
//! stack, pushed on call and truncated on return, and are read and written
//! by plain indexing. Every other frame — of a function that spawns, of a
//! spawned child or `parallel for` worker, or under all-dynamic resolution
//! — is a shared, locked heap [`Env`]. Variable access goes through the
//! `read_slot` / `write_slot` / `read_var` / `write_var` methods, which
//! dispatch on the current activation.

use crate::hooks::{ExecEvent, HookDecision, HookPoint, Inspect, Loc};
use crate::Shared;
use std::sync::Arc;
use tetra_ast::Stmt;
use tetra_intern::Symbol;
use tetra_runtime::{
    Env, ErrorKind, FrameRef, GcRef, MutatorGuard, Object, RootSink, RootSource, RuntimeError,
    SlotLayout, ThreadCell, ThreadKind, ThreadState, Value,
};

/// Stack size for spawned Tetra threads: recursive tree-walking plus user
/// recursion needs room.
pub(crate) const THREAD_STACK_SIZE: usize = 32 * 1024 * 1024;

/// Maximum Tetra call depth before reporting a (catchable) error instead of
/// exhausting the native stack.
pub(crate) const MAX_CALL_DEPTH: u32 = 1000;

/// One activation on a thread's call stack.
pub(crate) enum Activation {
    /// A frame only this thread can see: its slots are
    /// `locals[base..base + layout.len()]`, shaped by function `func`'s
    /// layout.
    Private { base: usize, func: usize },
    /// A heap frame chain that other threads may share.
    Shared(Env),
}

pub(crate) struct ThreadCtx {
    /// Never reassigned after construction: `call_user` re-borrows the
    /// `Shared` it points to across `&mut self` calls.
    pub shared: Arc<Shared>,
    pub mutator: MutatorGuard,
    pub cell: Arc<ThreadCell>,
    /// Call stack of activations; last is the current function's.
    pub env_stack: Vec<Activation>,
    /// Slots of every private activation on `env_stack`, innermost last.
    pub locals: Vec<Option<Value>>,
    /// Temporary GC roots: intermediate values alive across GC points.
    pub temps: Vec<Value>,
    /// Lock names this thread currently holds, innermost last.
    pub held_locks: Vec<Symbol>,
    pub call_depth: u32,
    /// Line of the statement currently executing.
    pub line: u32,
    /// Shadow call stack: one `tetra_obs::stack` node per user-function
    /// frame, innermost last. Maintained only while a trace or heap
    /// profile wants attribution (`tetra_obs::attribution_enabled`).
    pub shadow: Vec<u32>,
    /// Call-path node inherited at spawn: a child thread's statements
    /// attribute to the path that spawned it until it calls a function.
    pub shadow_root: u32,
    /// Trace timestamp of this thread's start (0 when tracing is off).
    pub span_start_ns: u64,
    /// Variable accesses served by a static (frame, slot) coordinate.
    pub env_slot_hits: u64,
    /// Variable accesses that fell back to the name-based chain walk.
    pub env_dynamic_fallbacks: u64,
    /// Total frames visited by those fallback walks.
    pub env_chain_depth_walked: u64,
}

/// Borrowed root view over a `ThreadCtx`'s state (avoids aliasing issues
/// between `&mut self` and the GC's `&dyn RootSource`): the temporaries,
/// every private slot and every shared frame.
pub(crate) struct RootsView<'a> {
    pub temps: &'a [Value],
    pub locals: &'a [Option<Value>],
    pub envs: &'a [Activation],
}

impl RootSource for RootsView<'_> {
    fn roots(&self, sink: &mut RootSink) {
        for v in self.temps.iter().chain(self.locals.iter().flatten()) {
            sink.value(*v);
        }
        for act in self.envs {
            if let Activation::Shared(env) = act {
                for f in env.frames() {
                    sink.frame(f);
                }
            }
        }
    }
}

/// A child thread registered with the GC and the thread registry but not
/// yet running (see [`ThreadCtx::register_child`]).
pub(crate) struct ChildSeed {
    pub mutator: MutatorGuard,
    pub cell: Arc<ThreadCell>,
    /// The child's only activation: the shared frames it runs in.
    pub activation: Activation,
}

impl ThreadCtx {
    /// Context for the main thread.
    pub fn new_main(shared: Arc<Shared>) -> ThreadCtx {
        let mutator = shared.heap.register_mutator();
        let cell = shared.threads.spawn(None, ThreadKind::Main);
        ThreadCtx {
            shared,
            mutator,
            cell,
            env_stack: vec![Activation::Shared(Env::new())],
            locals: Vec::new(),
            temps: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: tetra_obs::stack::ROOT,
            span_start_ns: tetra_obs::now_ns(),
            env_slot_hits: 0,
            env_dynamic_fallbacks: 0,
            env_chain_depth_walked: 0,
        }
    }

    /// Set up a child of this thread that will run in `env`, before any OS
    /// thread or pool task exists for it: register its GC mutator with
    /// `env` as published roots (so a collection can never miss it), create
    /// its registry cell and announce it. [`ThreadCtx::new_child`] starts it
    /// on whichever thread ends up running it.
    pub fn register_child(&self, env: Env, kind: ThreadKind, line: u32) -> ChildSeed {
        let activation = Activation::Shared(env);
        let roots = RootsView { temps: &[], locals: &[], envs: std::slice::from_ref(&activation) };
        let mutator = self.shared.heap.register_spawned(&roots);
        let cell = self.shared.threads.spawn(Some(self.cell.id), kind);
        self.emit(ExecEvent::ThreadStart { id: cell.id, kind, parent: Some(self.cell.id), line });
        ChildSeed { mutator, cell, activation }
    }

    /// Context for a registered child; exits the initial spawn
    /// safe-region. `spawn_node` is the parent's call-path node at the
    /// spawn point, inherited as this thread's attribution root.
    pub fn new_child(shared: Arc<Shared>, seed: ChildSeed, spawn_node: u32) -> ThreadCtx {
        let ChildSeed { mutator, cell, activation } = seed;
        shared.heap.exit_spawn_region(&mutator);
        ThreadCtx {
            shared,
            mutator,
            cell,
            env_stack: vec![activation],
            locals: Vec::new(),
            temps: Vec::new(),
            held_locks: Vec::new(),
            call_depth: 0,
            line: 0,
            shadow: Vec::new(),
            shadow_root: spawn_node,
            span_start_ns: tetra_obs::now_ns(),
            env_slot_hits: 0,
            env_dynamic_fallbacks: 0,
            env_chain_depth_walked: 0,
        }
    }

    /// The call-path node of the innermost user-function frame (or the
    /// spawn-site path for a thread that has not entered a function).
    #[inline]
    pub fn current_stack_node(&self) -> u32 {
        self.shadow.last().copied().unwrap_or(self.shadow_root)
    }

    #[inline]
    fn activation(&self) -> &Activation {
        self.env_stack.last().expect("env stack never empty")
    }

    /// The current activation's shared frame chain; `None` in a private
    /// frame.
    pub fn shared_env(&self) -> Option<&Env> {
        match self.activation() {
            Activation::Shared(env) => Some(env),
            Activation::Private { .. } => None,
        }
    }

    /// The frames a child spawned here shares. Only a function whose frame
    /// is not private contains a spawn statement, so the current activation
    /// is a shared one by construction.
    pub fn spawn_frames(&self) -> Vec<FrameRef> {
        self.shared_env()
            .expect("a function that spawns has a shared frame (Resolution::frame_is_private)")
            .frames()
            .to_vec()
    }

    pub(crate) fn roots_view(&self) -> RootsView<'_> {
        RootsView { temps: &self.temps, locals: &self.locals, envs: &self.env_stack }
    }

    // ---- variable access ----------------------------------------------------

    /// Read the statically resolved slot `(up, slot)` of the current
    /// activation; `None` while it is unbound.
    #[inline]
    pub fn read_slot(&self, up: usize, slot: usize) -> Option<Value> {
        match self.activation() {
            Activation::Private { base, .. } => self.locals[base + slot],
            Activation::Shared(env) => env.read_slot(up, slot),
        }
    }

    /// Write the statically resolved slot `(up, slot)` of the current
    /// activation.
    #[inline]
    pub fn write_slot(&mut self, up: usize, slot: usize, value: Value) {
        match self.env_stack.last().expect("env stack never empty") {
            Activation::Private { base, .. } => self.locals[base + slot] = Some(value),
            Activation::Shared(env) => env.write_slot(up, slot, value),
        }
    }

    /// Race-detector key of slot `(up, slot)` of the current activation.
    pub fn slot_loc(&self, up: usize, slot: usize) -> Loc {
        match self.activation() {
            Activation::Private { base, .. } => self.local_loc(base + slot),
            Activation::Shared(env) => Loc::Frame(env.frame_addr(up), slot as u32),
        }
    }

    /// Race-detector key of `locals[index]`.
    fn local_loc(&self, index: usize) -> Loc {
        Loc::Local(self.cell.id, index as u32)
    }

    /// The layout of a private activation's function.
    fn private_layout(&self, func: usize) -> &SlotLayout {
        self.shared.typed.resolution.func_layout(func)
    }

    /// Name-based read (the dynamic fallback): the value and its location,
    /// plus how many frames the walk visited.
    pub fn read_var(&self, name: Symbol) -> (Option<(Value, Loc)>, u64) {
        match self.activation() {
            Activation::Private { base, func } => {
                let found = self.private_layout(*func).slot_of(name).and_then(|slot| {
                    let v = self.locals[base + slot]?;
                    Some((v, self.local_loc(base + slot)))
                });
                (found, 1)
            }
            Activation::Shared(env) => {
                let (found, walked) = env.get_located_walked(name);
                (found.map(|(v, frame, slot)| (v, Loc::Frame(frame, slot as u32))), walked)
            }
        }
    }

    /// Name-based define in the innermost frame (a `for` induction variable
    /// the resolver left dynamic).
    pub fn define_var(&mut self, name: Symbol, value: Value) -> Result<(), RuntimeError> {
        match self.activation() {
            Activation::Private { .. } => self.write_var(name, value).map(drop),
            Activation::Shared(env) => {
                env.define(name, value);
                Ok(())
            }
        }
    }

    /// Name-based assignment (the dynamic fallback): update the innermost
    /// frame that binds `name`, else define it in the innermost frame.
    /// Returns the location written.
    pub fn write_var(&mut self, name: Symbol, value: Value) -> Result<Loc, RuntimeError> {
        match self.activation() {
            &Activation::Private { base, func } => {
                // The resolver gives every name a private function assigns a
                // slot; only a hand-built AST can miss one.
                let Some(slot) = self.private_layout(func).slot_of(name) else {
                    return Err(self.err(
                        ErrorKind::UndefinedVariable,
                        format!("variable `{name}` has no slot in this function's frame"),
                    ));
                };
                self.locals[base + slot] = Some(value);
                Ok(self.local_loc(base + slot))
            }
            Activation::Shared(env) => {
                let (frame, slot) = env.set_located(name, value);
                Ok(Loc::Frame(frame, slot as u32))
            }
        }
    }

    // ---- GC integration ---------------------------------------------------

    /// GC safepoint (called once per statement). When a collection is
    /// pending, the thread flags itself `GcParked` before parking so the
    /// debugger's thread pane shows *why* it is stopped — the cell is all
    /// atomics, so inspection never blocks on a paused world.
    pub fn poll_gc(&self) {
        if self.shared.heap.gc_pending() {
            self.cell.set_state(ThreadState::GcParked);
            let view = self.roots_view();
            self.shared.heap.poll(&self.mutator, &view);
            self.cell.set_state(ThreadState::Running);
        }
    }

    /// Allocate a heap object with this thread's state as roots.
    pub fn alloc(&self, obj: Object) -> GcRef {
        let view = self.roots_view();
        self.shared.heap.alloc(&self.mutator, &view, obj)
    }

    pub fn alloc_string(&self, s: impl Into<String>) -> Value {
        Value::Obj(self.alloc(Object::Str(s.into())))
    }

    /// Run a blocking operation inside a GC safe region.
    pub fn safe_region<T>(&self, f: impl FnOnce() -> T) -> T {
        let view = self.roots_view();
        self.shared.heap.safe_region(&self.mutator, &view, f)
    }

    /// Publish this thread's roots and enter the idle safe region: called
    /// when the context is parked with no OS thread driving it (checked in
    /// between pooled `parallel for` ranges), so collections can still
    /// stop the world. Must be paired with [`ThreadCtx::resume_idle`]
    /// before the context executes again.
    pub fn suspend_idle(&self) {
        let view = self.roots_view();
        self.shared.heap.enter_idle_region(&self.mutator, &view);
    }

    /// Leave the idle safe region (waiting out any in-progress collection
    /// first); the inverse of [`ThreadCtx::suspend_idle`].
    pub fn resume_idle(&self) {
        self.shared.heap.exit_spawn_region(&self.mutator);
    }

    /// Push a temporary root; pair with [`ThreadCtx::truncate_temps`].
    pub fn push_temp(&mut self, v: Value) {
        self.temps.push(v);
    }

    pub fn temp_mark(&self) -> usize {
        self.temps.len()
    }

    pub fn truncate_temps(&mut self, mark: usize) {
        self.temps.truncate(mark);
    }

    // ---- errors ------------------------------------------------------------

    pub fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> RuntimeError {
        RuntimeError::new(kind, msg, self.line)
    }

    // ---- hook plumbing ------------------------------------------------------

    /// Per-statement prologue: line bookkeeping, GC safepoint, debug hook.
    pub fn statement_prologue(&mut self, stmt: &Stmt) -> Result<(), RuntimeError> {
        self.line = stmt.span.line;
        self.cell.set_line(self.line);
        tetra_obs::stmt(self.cell.id, self.line, self.current_stack_node());
        if tetra_obs::heap_profile_enabled() {
            // Stamp the allocation site any heap object created by this
            // statement will be charged to.
            tetra_obs::heapprof::set_site(self.current_stack_node(), self.line);
        }
        self.poll_gc();
        if let Some(hook) = self.shared.hook.clone() {
            let decision = {
                let view = InspectView(self);
                let point = HookPoint {
                    thread_id: self.cell.id,
                    kind: self.cell.kind,
                    line: self.line,
                    vars: &view,
                };
                hook.on_statement(&point)
            };
            match decision {
                HookDecision::Continue => {}
                HookDecision::Stop => {
                    return Err(self.err(ErrorKind::Cancelled, "stopped by the debugger"));
                }
                HookDecision::Block => {
                    self.cell.set_state(ThreadState::Paused);
                    let id = self.cell.id;
                    let r = self.safe_region(|| hook.wait_for_resume(id));
                    self.cell.set_state(ThreadState::Running);
                    r?;
                }
            }
        }
        Ok(())
    }

    pub fn emit(&self, ev: ExecEvent) {
        if let Some(hook) = &self.shared.hook {
            hook.on_event(&ev);
        }
    }

    pub fn emit_read(&self, loc: Loc, name: Symbol) {
        if let Some(hook) = &self.shared.hook {
            hook.on_event(&ExecEvent::Read {
                id: self.cell.id,
                loc,
                name,
                line: self.line,
                locks: self.held_locks.clone(),
            });
        }
    }

    pub fn emit_write(&self, loc: Loc, name: Symbol) {
        if let Some(hook) = &self.shared.hook {
            hook.on_event(&ExecEvent::Write {
                id: self.cell.id,
                loc,
                name,
                line: self.line,
                locks: self.held_locks.clone(),
            });
        }
    }

    /// Run `f` while holding the global interpreter lock, when GIL mode is
    /// on (the `--gil` ablation, experiment E8).
    pub fn with_gil<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        match self.shared.gil.clone() {
            Some(gil) => {
                let _guard = gil.lock();
                f(self)
            }
            None => f(self),
        }
    }
}

/// Lazy variable inspection handed to debug hooks. A private frame is read
/// through its function's layout names.
pub(crate) struct InspectView<'a>(pub &'a ThreadCtx);

impl Inspect for InspectView<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.0.read_var(Symbol::intern(name)).0.map(|(v, _)| v)
    }

    fn locals(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        match self.0.activation() {
            Activation::Private { base, func } => {
                let names = self.0.private_layout(*func).names();
                for (name, v) in names.iter().zip(&self.0.locals[*base..]) {
                    if let Some(v) = v {
                        out.push((name.to_string(), v.display()));
                    }
                }
            }
            Activation::Shared(env) => {
                let mut seen = std::collections::HashSet::new();
                for frame in env.frames().iter().rev() {
                    for (name, value) in frame.snapshot() {
                        if seen.insert(name.clone()) {
                            out.push((name, value.display()));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn scope_depth(&self) -> usize {
        match self.0.activation() {
            Activation::Private { .. } => 1,
            Activation::Shared(env) => env.depth(),
        }
    }
}
