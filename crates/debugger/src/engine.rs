//! The debugger engine: the paper's IDE (§III) minus the Qt pixels.
//!
//! "Unlike most debuggers, the Tetra IDE will have multiple code views in
//! debug mode: one for each thread of the currently running program. This
//! will allow students to step through the different threads
//! independently." This engine provides exactly that capability as a
//! library: it implements [`DebugHook`] for the interpreter, and exposes a
//! controller API (pause / step / resume / inspect, per thread) that a UI —
//! here, the `tetra debug` CLI — drives from another thread.

use crate::race::LocksetDetector;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tetra_interp::hooks::{DebugHook, ExecEvent, HookDecision, HookPoint};
use tetra_runtime::{ErrorKind, RuntimeError};

/// What a thread should do when it reaches its next statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Keep running (stop only at breakpoints).
    Run,
    /// Stop at the next statement.
    Pause,
}

/// A thread currently suspended by the debugger.
#[derive(Debug, Clone)]
pub struct PausedThread {
    pub thread: u32,
    pub line: u32,
    /// Variables visible at the pause point, pre-rendered.
    pub locals: Vec<(String, String)>,
}

#[derive(Default)]
struct State {
    /// Per-thread next-statement mode; threads default to `default_mode`.
    modes: BTreeMap<u32, Mode>,
    default_mode: Option<Mode>,
    breakpoints: HashSet<u32>,
    /// Variable names watched for writes: the writing thread pauses at its
    /// next statement (so the new value is visible in its locals).
    watches: HashSet<String>,
    /// (thread, variable, line) hits recorded by the watch machinery.
    watch_hits: Vec<(u32, String, u32)>,
    paused: BTreeMap<u32, PausedThread>,
    stopping: bool,
}

impl State {
    fn mode_of(&self, thread: u32) -> Mode {
        self.modes.get(&thread).copied().or(self.default_mode).unwrap_or(Mode::Run)
    }
}

/// One entry of the debugger's event log: a statement a thread reached
/// (kept by tracers only) or an execution event from the interpreter.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    Statement { id: u32, line: u32 },
    Exec(ExecEvent),
}

impl TraceEvent {
    /// The thread the entry belongs to.
    pub fn thread(&self) -> u32 {
        match self {
            TraceEvent::Statement { id, .. } => *id,
            TraceEvent::Exec(ev) => ev.thread(),
        }
    }
}

/// The debugger. Create one, pass it to
/// [`tetra_interp::Interp::with_hook`], and drive it from any thread.
pub struct Debugger {
    state: Mutex<State>,
    cv: Condvar,
    events: Mutex<Vec<TraceEvent>>,
    race: Mutex<LocksetDetector>,
    /// Record every statement a thread reaches (noisy; great for timelines).
    record_statements: bool,
}

impl Debugger {
    /// `start_paused` stops every thread at its first statement — how an
    /// IDE begins a debug session.
    pub fn new(start_paused: bool) -> Arc<Debugger> {
        Arc::new(Debugger {
            state: Mutex::new(State {
                default_mode: start_paused.then_some(Mode::Pause),
                ..State::default()
            }),
            cv: Condvar::new(),
            events: Mutex::new(Vec::new()),
            race: Mutex::new(LocksetDetector::new()),
            record_statements: false,
        })
    }

    /// A tracing debugger: records every statement/lock/thread event (for
    /// `tetra trace` timelines) without pausing anything.
    pub fn tracer() -> Arc<Debugger> {
        Arc::new(Debugger {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            events: Mutex::new(Vec::new()),
            race: Mutex::new(LocksetDetector::new()),
            record_statements: true,
        })
    }

    // ---- controller API ------------------------------------------------------

    pub fn set_breakpoint(&self, line: u32) {
        self.state.lock().breakpoints.insert(line);
    }

    pub fn clear_breakpoint(&self, line: u32) {
        self.state.lock().breakpoints.remove(&line);
    }

    pub fn breakpoints(&self) -> Vec<u32> {
        let mut b: Vec<u32> = self.state.lock().breakpoints.iter().copied().collect();
        b.sort();
        b
    }

    /// Watch a variable: any thread that writes it pauses at its next
    /// statement (the write has landed, so `locals` shows the new value).
    pub fn watch(&self, name: impl Into<String>) {
        self.state.lock().watches.insert(name.into());
    }

    pub fn unwatch(&self, name: &str) {
        self.state.lock().watches.remove(name);
    }

    /// (thread, variable, line) triples recorded by watchpoints so far.
    pub fn watch_hits(&self) -> Vec<(u32, String, u32)> {
        self.state.lock().watch_hits.clone()
    }

    /// Ask every thread to stop at its next statement.
    pub fn pause_all(&self) {
        let mut st = self.state.lock();
        st.default_mode = Some(Mode::Pause);
        let ids: Vec<u32> = st.modes.keys().copied().collect();
        for id in ids {
            st.modes.insert(id, Mode::Pause);
        }
    }

    /// Ask one thread to stop at its next statement.
    pub fn pause_thread(&self, thread: u32) {
        self.state.lock().modes.insert(thread, Mode::Pause);
    }

    /// Resume a paused thread until the next breakpoint.
    pub fn resume(&self, thread: u32) {
        let mut st = self.state.lock();
        st.modes.insert(thread, Mode::Run);
        st.paused.remove(&thread);
        drop(st);
        self.cv.notify_all();
    }

    /// Resume a paused thread for exactly one statement — the per-thread
    /// stepping the paper's IDE is built around.
    pub fn step(&self, thread: u32) {
        let mut st = self.state.lock();
        st.modes.insert(thread, Mode::Pause);
        st.paused.remove(&thread);
        drop(st);
        self.cv.notify_all();
    }

    /// Resume every paused thread.
    pub fn resume_all(&self) {
        let mut st = self.state.lock();
        st.default_mode = None;
        let ids: Vec<u32> = st.modes.keys().copied().collect();
        for id in ids {
            st.modes.insert(id, Mode::Run);
        }
        st.paused.clear();
        drop(st);
        self.cv.notify_all();
    }

    /// Cancel the program: every thread errors out with `Cancelled`.
    pub fn stop(&self) {
        self.state.lock().stopping = true;
        self.cv.notify_all();
    }

    /// Threads currently suspended, with their lines and variables.
    pub fn paused(&self) -> Vec<PausedThread> {
        self.state.lock().paused.values().cloned().collect()
    }

    /// Block until `pred` holds over the paused set, or time out.
    pub fn wait_until<F>(&self, timeout: Duration, mut pred: F) -> bool
    where
        F: FnMut(&[PausedThread]) -> bool,
    {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let paused: Vec<PausedThread> =
                    self.state.lock().paused.values().cloned().collect();
                if pred(&paused) {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Race reports from the lockset detector.
    pub fn races(&self) -> Vec<crate::race::RaceReport> {
        self.race.lock().reports()
    }
}

impl DebugHook for Debugger {
    fn on_statement(&self, point: &HookPoint<'_>) -> HookDecision {
        if self.record_statements {
            let (id, line) = (point.thread_id, point.line);
            self.events.lock().push(TraceEvent::Statement { id, line });
        }
        let mut st = self.state.lock();
        if st.stopping {
            return HookDecision::Stop;
        }
        let at_breakpoint = st.breakpoints.contains(&point.line);
        let should_pause = at_breakpoint || st.mode_of(point.thread_id) == Mode::Pause;
        if !should_pause {
            return HookDecision::Continue;
        }
        st.paused.insert(
            point.thread_id,
            PausedThread { thread: point.thread_id, line: point.line, locals: point.vars.locals() },
        );
        HookDecision::Block
    }

    fn wait_for_resume(&self, thread: u32) -> Result<(), RuntimeError> {
        let mut st = self.state.lock();
        while st.paused.contains_key(&thread) && !st.stopping {
            self.cv.wait(&mut st);
        }
        if st.stopping {
            return Err(RuntimeError::new(ErrorKind::Cancelled, "stopped by the debugger", 0));
        }
        Ok(())
    }

    fn on_event(&self, ev: &ExecEvent) {
        match ev {
            ExecEvent::Read { loc, name, id, line, locks } => {
                self.race.lock().on_access(loc, name.as_str(), *id, *line, locks, false);
            }
            ExecEvent::Write { loc, name, id, line, locks } => {
                self.race.lock().on_access(loc, name.as_str(), *id, *line, locks, true);
                let mut st = self.state.lock();
                if st.watches.contains(name.as_str()) {
                    st.watch_hits.push((*id, name.to_string(), *line));
                    st.modes.insert(*id, Mode::Pause);
                }
            }
            ExecEvent::ThreadStart { id, .. } => self.race.lock().on_thread_start(*id),
            ExecEvent::ThreadEnd { id } => self.race.lock().on_thread_end(*id),
            _ => {}
        }
        // Reads/writes are too noisy to keep; everything else is recorded.
        if !matches!(ev, ExecEvent::Read { .. } | ExecEvent::Write { .. }) {
            self.events.lock().push(TraceEvent::Exec(ev.clone()));
        }
    }
}
