//! # tetra-debugger
//!
//! The parallel debugging engine behind the paper's IDE (§III):
//!
//! * [`Debugger`] — pause, **step each thread independently**, resume,
//!   breakpoints, and per-thread variable inspection, driven from any
//!   controller thread while the program runs under `tetra-interp`;
//! * [`race::LocksetDetector`] — Eraser-style data race detection over the
//!   interpreter's read/write events, so students *see* the race Fig. III
//!   guards against;
//! * [`timeline::render`] — a column-per-thread execution timeline, the
//!   textual form of the IDE's multi-thread visualization.

pub mod engine;
pub mod race;
pub mod timeline;

pub use engine::{Debugger, PausedThread, TraceEvent};
pub use race::RaceReport;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use tetra_interp::{Interp, InterpConfig};
    use tetra_runtime::BufferConsole;

    fn make_interp(src: &str, dbg: &Arc<Debugger>) -> (Interp, Arc<BufferConsole>) {
        let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
        let console = BufferConsole::new();
        let interp = Interp::with_hook(
            typed,
            InterpConfig { worker_threads: 2, ..InterpConfig::default() },
            console.clone(),
            dbg.clone(),
        );
        (interp, console)
    }

    const TIMEOUT: Duration = Duration::from_secs(20);

    #[test]
    fn breakpoint_pauses_and_inspects_locals() {
        // Neither function spawns, so both run in private frames on the
        // thread's slot stack; `grow`'s sits on top of `main`'s.
        let src = "\
def grow(n int) int:
    step = n * 2
    total = n + step
    return total

def main():
    x = 1
    y = x + 10
    print(grow(y))
";
        let dbg = Debugger::new(false);
        dbg.set_breakpoint(8);
        dbg.set_breakpoint(3);
        let (interp, console) = make_interp(src, &dbg);
        let handle = std::thread::spawn(move || interp.run());
        assert!(
            dbg.wait_until(TIMEOUT, |paused| paused.iter().any(|p| p.line == 8)),
            "breakpoint in main never hit"
        );
        let paused = dbg.paused();
        let p = paused.iter().find(|p| p.line == 8).unwrap();
        // Stopped *before* line 8 runs: x is set, y is not.
        assert!(p.locals.iter().any(|(n, v)| n == "x" && v == "1"), "{:?}", p.locals);
        assert!(!p.locals.iter().any(|(n, _)| n == "y"), "{:?}", p.locals);
        assert_eq!(console.output(), "", "output before the breakpoint line");
        dbg.resume(p.thread);

        assert!(
            dbg.wait_until(TIMEOUT, |paused| paused.iter().any(|p| p.line == 3)),
            "breakpoint in the helper never hit"
        );
        let paused = dbg.paused();
        let p = paused.iter().find(|p| p.line == 3).unwrap();
        // Only the helper's own frame is visible: its parameter and the
        // local assigned so far, not `total` yet and nothing of `main`'s.
        let names: Vec<&str> = p.locals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["n", "step"], "{:?}", p.locals);
        assert!(p.locals.iter().any(|(n, v)| n == "n" && v == "11"), "{:?}", p.locals);
        assert!(p.locals.iter().any(|(n, v)| n == "step" && v == "22"), "{:?}", p.locals);
        dbg.resume(p.thread);
        handle.join().unwrap().unwrap();
        assert_eq!(console.output(), "33\n");
    }

    #[test]
    fn start_paused_stops_main_at_first_statement() {
        let src = "def main():\n    print(\"never yet\")\n";
        let dbg = Debugger::new(true);
        let (interp, console) = make_interp(src, &dbg);
        let handle = std::thread::spawn(move || interp.run());
        assert!(dbg.wait_until(TIMEOUT, |p| !p.is_empty()));
        assert_eq!(console.output(), "");
        dbg.resume_all();
        handle.join().unwrap().unwrap();
        assert_eq!(console.output(), "never yet\n");
    }

    #[test]
    fn per_thread_independent_stepping() {
        // Two parallel children count in their own loops; we step ONE of
        // them several statements while the other stays frozen — the
        // capability the paper's IDE design centers on (§III).
        let src = "\
def count(out [int], slot int):
    i = 0
    while i < 5:
        i += 1
        out[slot] = i

def main():
    out = [0, 0]
    parallel:
        count(out, 0)
        count(out, 1)
    print(out)
";
        let dbg = Debugger::new(true);
        let (interp, console) = make_interp(src, &dbg);
        let handle = std::thread::spawn(move || interp.run());

        // Main pauses first; step it until both children exist and pause.
        assert!(dbg.wait_until(TIMEOUT, |p| !p.is_empty()), "main never paused");
        // Drive main until the parallel block spawns children. Main will
        // block joining; children pause at their first statements.
        let main_id = dbg.paused()[0].thread;
        for _ in 0..10 {
            dbg.step(main_id);
            if dbg.wait_until(Duration::from_millis(400), |p| {
                p.iter().filter(|t| t.thread != main_id).count() == 2
            }) {
                break;
            }
        }
        assert!(
            dbg.wait_until(TIMEOUT, |p| p.iter().filter(|t| t.thread != main_id).count() == 2),
            "children never paused: {:?}",
            dbg.paused()
        );
        let children: Vec<u32> =
            dbg.paused().iter().map(|p| p.thread).filter(|t| *t != main_id).collect();
        let (walked, frozen) = (children[0], children[1]);

        // Step `walked` through several statements; `frozen` must not move.
        let frozen_line_before = dbg.paused().iter().find(|p| p.thread == frozen).unwrap().line;
        let mut seen_lines = Vec::new();
        for _ in 0..4 {
            dbg.step(walked);
            assert!(
                dbg.wait_until(TIMEOUT, |p| p.iter().any(|t| t.thread == walked)),
                "stepped thread did not pause again"
            );
            seen_lines.push(dbg.paused().iter().find(|p| p.thread == walked).unwrap().line);
        }
        assert!(seen_lines.windows(2).any(|w| w[0] != w[1]), "stepping moved: {seen_lines:?}");
        let frozen_line_after = dbg.paused().iter().find(|p| p.thread == frozen).unwrap().line;
        assert_eq!(frozen_line_before, frozen_line_after, "frozen thread moved!");

        dbg.resume_all();
        handle.join().unwrap().unwrap();
        assert_eq!(console.output(), "[5, 5]\n");
    }

    #[test]
    fn stepping_shows_loop_variable_progress() {
        let src = "\
def main():
    total = 0
    for i in [1, 2, 3]:
        total += i
    print(total)
";
        let dbg = Debugger::new(true);
        let (interp, _console) = make_interp(src, &dbg);
        let handle = std::thread::spawn(move || interp.run());
        assert!(dbg.wait_until(TIMEOUT, |p| !p.is_empty()));
        let tid = dbg.paused()[0].thread;
        let mut seen_totals = Vec::new();
        for _ in 0..12 {
            if let Some(p) = dbg.paused().iter().find(|p| p.thread == tid) {
                if let Some((_, v)) = p.locals.iter().find(|(n, _)| n == "total") {
                    seen_totals.push(v.clone());
                }
            } else {
                break;
            }
            dbg.step(tid);
            if !dbg.wait_until(Duration::from_secs(5), |p| p.iter().any(|t| t.thread == tid)) {
                break; // program finished
            }
        }
        handle.join().unwrap().unwrap();
        assert!(seen_totals.contains(&"0".to_string()), "{seen_totals:?}");
        assert!(seen_totals.contains(&"3".to_string()), "{seen_totals:?}");
    }

    #[test]
    fn watchpoint_pauses_the_writing_thread() {
        let src = "\
def main():
    a = 1
    b = 2
    total = a + b
    c = 9
    print(total + c)
";
        let dbg = Debugger::new(false);
        dbg.watch("total");
        let (interp, console) = make_interp(src, &dbg);
        let handle = std::thread::spawn(move || interp.run());
        assert!(dbg.wait_until(TIMEOUT, |p| !p.is_empty()), "watch never paused the thread");
        let hits = dbg.watch_hits();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, "total");
        assert_eq!(hits[0].2, 4, "write happens on line 4");
        // The pause lands AFTER the write: total is visible with its value.
        let paused = dbg.paused();
        assert!(
            paused[0].locals.iter().any(|(n, v)| n == "total" && v == "3"),
            "{:?}",
            paused[0].locals
        );
        dbg.resume_all();
        handle.join().unwrap().unwrap();
        assert_eq!(console.output(), "12\n");
    }

    #[test]
    fn watchpoints_catch_cross_thread_writers() {
        let src = "\
def main():
    shared = 0
    parallel:
        shared = 10
    print(shared)
";
        let dbg = Debugger::new(false);
        dbg.watch("shared");
        let (interp, _console) = make_interp(src, &dbg);
        let handle = std::thread::spawn(move || interp.run());
        // Both main's initialization and the child's write are hits; keep
        // resuming pauses until the cross-thread hit arrives.
        let deadline = std::time::Instant::now() + TIMEOUT;
        while !dbg.watch_hits().iter().any(|(tid, _, _)| *tid != 0) {
            assert!(std::time::Instant::now() < deadline, "{:?}", dbg.watch_hits());
            dbg.wait_until(Duration::from_millis(100), |p| !p.is_empty());
            dbg.resume_all();
        }
        dbg.unwatch("shared");
        dbg.resume_all();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stop_cancels_the_program() {
        let src = "\
def main():
    i = 0
    while true:
        i += 1
";
        let dbg = Debugger::new(false);
        let (interp, _console) = make_interp(src, &dbg);
        let dbg2 = dbg.clone();
        let handle = std::thread::spawn(move || interp.run());
        std::thread::sleep(Duration::from_millis(50));
        dbg2.stop();
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err.kind, tetra_runtime::ErrorKind::Cancelled);
    }

    #[test]
    fn race_detector_flags_unlocked_counter() {
        let src = "\
def main():
    count = 0
    parallel for i in [1 ... 50]:
        count += 1
    print(count)
";
        let dbg = Debugger::tracer();
        let (interp, _console) = make_interp(src, &dbg);
        // Result may be racy; we only care about detection.
        let _ = interp.run();
        let races = dbg.races();
        assert!(races.iter().any(|r| r.name == "count"), "expected a race on `count`: {races:?}");
    }

    #[test]
    fn race_detector_never_flags_private_frame_locals() {
        // `scratch`'s parameter and local live in each worker's own slot
        // stack at the same indices; only the unlocked counter is shared.
        let src = "\
def scratch(i int) int:
    t = i * 2
    t += 1
    return t

def main():
    count = 0
    parallel for i in [1 ... 50]:
        v = scratch(i)
        count += 1
    print(count)
";
        let dbg = Debugger::tracer();
        let (interp, _console) = make_interp(src, &dbg);
        let _ = interp.run();
        let races = dbg.races();
        assert!(races.iter().any(|r| r.name == "count"), "expected a race on `count`: {races:?}");
        assert!(
            !races.iter().any(|r| r.name == "t" || r.name == "i" || r.name == "v"),
            "private locals flagged: {races:?}"
        );
    }

    #[test]
    fn race_detector_quiet_on_locked_counter() {
        let src = "\
def main():
    count = 0
    parallel for i in [1 ... 50]:
        lock c:
            count += 1
    print(count)
";
        let dbg = Debugger::tracer();
        let (interp, console) = make_interp(src, &dbg);
        interp.run().unwrap();
        assert_eq!(console.output(), "50\n");
        let races: Vec<_> = dbg.races().into_iter().filter(|r| r.name == "count").collect();
        assert!(races.is_empty(), "locked counter flagged: {races:?}");
    }

    #[test]
    fn race_detector_flags_unlocked_array_element_writes() {
        // Both workers hammer the same element with no lock.
        let src = "\
def main():
    a = [0]
    parallel for i in [1 ... 40]:
        a[0] += 1
    print(len(a))
";
        let dbg = Debugger::tracer();
        let (interp, _console) = make_interp(src, &dbg);
        let _ = interp.run();
        assert!(
            dbg.races().iter().any(|r| r.name == "[element]"),
            "expected an element race: {:?}",
            dbg.races()
        );
    }

    #[test]
    fn timeline_records_paper_figure_3() {
        let src = "\
def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    print(max([18, 32, 96, 48, 60]))
";
        let dbg = Debugger::tracer();
        let (interp, console) = make_interp(src, &dbg);
        interp.run().unwrap();
        assert_eq!(console.output(), "96\n");
        let events = dbg.events();
        let text = timeline::render(&events);
        assert!(text.contains("T0 (main)"), "{text}");
        assert!(text.contains("parallel-for"), "{text}");
        assert!(text.contains("lock `largest`"), "{text}");
    }

    #[test]
    fn events_include_thread_lifecycle() {
        let src = "\
def main():
    parallel:
        pass
        pass
";
        let dbg = Debugger::tracer();
        let (interp, _console) = make_interp(src, &dbg);
        interp.run().unwrap();
        let events = dbg.events();
        use tetra_interp::hooks::ExecEvent;
        let starts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exec(ExecEvent::ThreadStart { .. })))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exec(ExecEvent::ThreadEnd { .. })))
            .count();
        assert_eq!(starts, 2, "two parallel children");
        assert_eq!(ends, 3, "two children + main finish events");
    }
}
