//! Thread-timeline rendering: the textual version of the IDE's
//! "visualizing program execution across multiple threads" (paper abstract).
//!
//! Events are laid out in columns, one per thread, in the order they were
//! recorded:
//!
//! ```text
//! T0 (main)           | T1 (parallel)       | T2 (parallel)
//! line 12             |                     |
//! spawned T1          |                     |
//! spawned T2          |                     |
//!                     | line 5              |
//!                     |                     | line 5
//!                     | lock `largest` ✓    |
//! ```

use crate::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write;
use tetra_interp::hooks::ExecEvent;

const COL_WIDTH: usize = 22;

/// Short cell text for one event.
fn cell(ev: &TraceEvent) -> String {
    let ev = match ev {
        TraceEvent::Statement { line, .. } => return format!("line {line}"),
        TraceEvent::Exec(ev) => ev,
    };
    match ev {
        ExecEvent::ThreadStart { parent: Some(p), .. } => format!("started by T{p}"),
        ExecEvent::ThreadStart { .. } => "started".to_string(),
        ExecEvent::ThreadEnd { .. } => "finished".to_string(),
        ExecEvent::LockWait { name, .. } => format!("wait lock `{name}`"),
        ExecEvent::LockAcquired { name, .. } => format!("lock `{name}` ✓"),
        ExecEvent::LockReleased { name, .. } => format!("unlock `{name}`"),
        ExecEvent::Read { name, .. } => format!("read {name}"),
        ExecEvent::Write { name, .. } => format!("write {name}"),
    }
}

/// Render events into a column-per-thread timeline.
pub fn render(events: &[TraceEvent]) -> String {
    // Column order: first appearance.
    let mut columns: BTreeMap<u32, usize> = BTreeMap::new();
    let mut kinds: BTreeMap<u32, String> = BTreeMap::new();
    for ev in events {
        let id = ev.thread();
        let next = columns.len();
        columns.entry(id).or_insert(next);
        if let TraceEvent::Exec(ExecEvent::ThreadStart { kind, .. }) = ev {
            kinds.insert(id, kind.label().to_string());
        }
    }
    if columns.is_empty() {
        return String::from("(no events recorded)\n");
    }
    let ncols = columns.len();
    let mut out = String::new();
    // Header.
    let mut header: Vec<String> = vec![String::new(); ncols];
    for (id, col) in &columns {
        let kind = kinds.get(id).cloned().unwrap_or_else(|| "main".to_string());
        header[*col] = format!("T{id} ({kind})");
    }
    writeln!(
        out,
        "{}",
        header.iter().map(|h| format!("{h:<COL_WIDTH$}")).collect::<Vec<_>>().join("| ")
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat((COL_WIDTH + 2) * ncols)).unwrap();
    // Rows.
    for ev in events {
        let col = columns[&ev.thread()];
        let mut row: Vec<String> = vec![String::new(); ncols];
        let mut text = cell(ev);
        text.truncate(COL_WIDTH);
        row[col] = text;
        writeln!(
            out,
            "{}",
            row.iter().map(|c| format!("{c:<COL_WIDTH$}")).collect::<Vec<_>>().join("| ")
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_runtime::ThreadKind;

    #[test]
    fn renders_columns_per_thread() {
        use TraceEvent::{Exec, Statement};
        let events = vec![
            Exec(ExecEvent::ThreadStart { id: 0, kind: ThreadKind::Main, parent: None, line: 1 }),
            Statement { id: 0, line: 2 },
            Exec(ExecEvent::ThreadStart {
                id: 1,
                kind: ThreadKind::Parallel,
                parent: Some(0),
                line: 3,
            }),
            Statement { id: 1, line: 4 },
            Exec(ExecEvent::LockAcquired { id: 1, name: "m".into(), line: 5 }),
            Exec(ExecEvent::ThreadEnd { id: 1 }),
        ];
        let text = render(&events);
        assert!(text.contains("T0 (main)"), "{text}");
        assert!(text.contains("T1 (parallel)"), "{text}");
        assert!(text.contains("lock `m`"), "{text}");
        assert!(text.contains("started by T0"), "{text}");
        // T1's events are in the second column (indented past col 1).
        let line4_row = text.lines().find(|l| l.contains("line 4")).unwrap();
        assert!(line4_row.find("line 4").unwrap() >= COL_WIDTH, "{text}");
    }

    #[test]
    fn empty_events_render_placeholder() {
        assert!(render(&[]).contains("no events"));
    }
}
