//! GC torture tests: whole programs under collect-on-every-allocation
//! stress and under tiny heaps, sequential and parallel. A single missing
//! root anywhere in the engines shows up here as corrupted values.

use tetra::runtime::HeapConfig;
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn run_stress_interp(src: &str) -> (String, tetra::RunStats) {
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()));
    let console = BufferConsole::new();
    let config = InterpConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        worker_threads: 4,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    (console.output(), stats)
}

fn run_tiny_heap_interp(src: &str) -> (String, tetra::RunStats) {
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let config = InterpConfig {
        gc: HeapConfig {
            initial_threshold: 1 << 12,
            min_threshold: 1 << 10,
            ..HeapConfig::default()
        },
        worker_threads: 4,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    (console.output(), stats)
}

fn run_stress_vm(src: &str) -> String {
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let cfg = VmConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        ..VmConfig::default()
    };
    p.simulate_with(cfg, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    console.output()
}

const STRING_CHURN: &str = "\
def main():
    out = \"\"
    i = 0
    while i < 40:
        piece = str(i) + \"-\"
        out = out + piece
        i += 1
    print(len(out))
";

#[test]
fn string_churn_survives_stress_on_both_engines() {
    // 0-  ... 9- are 2+1 chars, 10- ... 39- are 3 chars → 10*2 + 30*3 + 40 dashes.
    let expected = format!("{}\n", 10 * 2 + 30 * 3);
    assert_eq!(run_stress_interp(STRING_CHURN).0, expected);
    assert_eq!(run_stress_vm(STRING_CHURN), expected);
}

#[test]
fn nested_containers_survive_stress() {
    let src = "\
def main():
    grid = []
    r = 0
    while r < 6:
        row = []
        c = 0
        while c < 6:
            append(row, r * 10 + c)
            c += 1
        append(grid, row)
        r += 1
    total = 0
    for row in grid:
        for v in row:
            total += v
    print(total)
";
    // This needs a typed empty array: give grid context via a helper.
    let src = src.replace("    grid = []", "    grid = fill(0, [0])");
    let src = src.replace("        row = []", "        row = fill(0, 0)");
    let expected = "990\n"; // sum over r,c in 0..6 of (10r + c) = 900 + 90
    assert_eq!(run_stress_interp(&src).0, expected);
    assert_eq!(run_stress_vm(&src), expected);
}

#[test]
fn parallel_allocation_storm_under_stress() {
    let src = "\
def main():
    results = fill(4, \"\")
    parallel for i in [0 ... 3]:
        s = \"\"
        j = 0
        while j < 25:
            s = s + str(i * 100 + j) + \".\"
            j += 1
        results[i] = s
    ok = true
    for r in results:
        if len(r) < 25:
            ok = false
    print(ok)
";
    assert_eq!(run_stress_interp(src).0, "true\n");
}

#[test]
fn tiny_heap_forces_many_collections_and_stays_correct() {
    let src = "\
def main():
    keep = fill(0, \"\")
    i = 0
    while i < 500:
        s = \"block-\" + str(i)
        if i % 100 == 0:
            append(keep, s)
        i += 1
    print(keep)
";
    let (out, stats) = run_tiny_heap_interp(src);
    assert_eq!(out, "[\"block-0\", \"block-100\", \"block-200\", \"block-300\", \"block-400\"]\n");
    assert!(stats.gc.collections >= 2, "tiny heap must collect: {:?}", stats.gc);
    assert!(stats.gc.objects_freed > 300, "{:?}", stats.gc);
}

#[test]
fn survivors_keep_identity_across_collections() {
    // A shared array mutated between forced collections must keep its
    // contents; gc() forces collections at program level.
    let src = "\
def main():
    a = [1, 2, 3]
    gc()
    append(a, 4)
    gc()
    b = a
    append(b, 5)
    gc()
    print(a, \" \", a == b)
";
    let (out, _) = run_stress_interp(src);
    assert_eq!(out, "[1, 2, 3, 4, 5] true\n");
}

#[test]
fn dict_contents_survive_collections() {
    let src = "\
def main():
    d = {\"k0\": \"v0\"}
    i = 1
    while i < 50:
        d[\"k\" + str(i)] = \"v\" + str(i)
        gc()
        i += 1
    print(len(d), \" \", d[\"k25\"])
";
    assert_eq!(run_stress_interp(src).0, "50 v25\n");
    assert_eq!(run_stress_vm(src), "50 v25\n");
}

#[test]
fn gc_stats_reported_through_run_stats() {
    let (_, stats) = run_stress_interp(STRING_CHURN);
    assert!(stats.gc.allocations > 80, "{:?}", stats.gc);
    assert!(stats.gc.collections > 80, "{:?}", stats.gc);
    assert!(stats.gc.objects_freed > 0, "{:?}", stats.gc);
}

#[test]
fn blocked_readers_do_not_stall_collection() {
    // One thread blocks on input (safe region) while another allocates
    // under stress; the program finishes once input arrives.
    let src = "\
def main():
    parallel:
        reader()
        churner()

def reader():
    s = read_string()
    print(\"read: \", s)

def churner():
    i = 0
    while i < 30:
        x = str(i) + \"!\"
        i += 1
    print(\"churned\")
";
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::with_input(&["hello"]);
    let config = InterpConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        ..InterpConfig::default()
    };
    p.run_with(config, console.clone()).unwrap();
    let out = console.output();
    assert!(out.contains("read: hello"), "{out}");
    assert!(out.contains("churned"), "{out}");
}

/// A leaf helper whose only reference to `a` is a local of its private
/// frame (a slot on the thread's slot stack, not a heap frame), while every
/// append allocates and so collects under stress.
const PRIVATE_LOCAL_ROOT: &str = "\
def keep(i int, sink [[int]]) int:
    a = [i, i + 1, i + 2]
    j = 0
    while j < 80:
        append(sink, [i, j, i + j])
        j += 1
    return a[0] + a[1] + a[2]

def main():
    sums = fill(4, 0)
    parallel for w in [0 ... 3]:
        sink = fill(0, [0])
        total = 0
        k = 1
        while k <= 6:
            total += keep(w * 10 + k, sink)
            k += 1
        sums[w] = total + len(sink)
    grand = 0
    for v in sums:
        grand += v
    print(grand)
";

#[test]
fn private_frame_locals_are_gc_roots_under_stress() {
    // keep(i) returns 3i + 3; each worker's sink ends with 6 * 80 arrays.
    let expected: i64 =
        (0..4).map(|w| (1..=6).map(|k| 3 * (w * 10 + k) + 3).sum::<i64>() + 6 * 80).sum();
    let p = Tetra::compile(PRIVATE_LOCAL_ROOT).unwrap_or_else(|e| panic!("{}", e.render()));
    let console = BufferConsole::new();
    let config = InterpConfig {
        gc: HeapConfig { stress: true, gc_threads: 4, ..HeapConfig::default() },
        worker_threads: 4,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(console.output(), format!("{expected}\n"));
    // Every allocation collects; concurrent ones may share a collection.
    assert!(stats.gc.collections >= 6 * 80, "{:?}", stats.gc);
    assert_eq!(run_stress_vm(PRIVATE_LOCAL_ROOT), format!("{expected}\n"));
}
