//! Virtual-time regression gates for the VM simulator.
//!
//! Virtual time is the instrument the paper's speedup tables are
//! reproduced with, so a refactor of the scheduler must leave every
//! `virtual_elapsed` bit-identical. The first golden table pins it for a
//! corpus that exercises every cost class (basic, shared access,
//! allocation, builtin, sleep), GIL mode, a thread running alone and
//! several runnable threads. The second pins output, instruction count
//! and lock contentions too, for the cases deferred charging must get
//! right: a `background:` child reading its running parent's frame (the
//! run-ahead gate), many workers in lockstep, and contended locks.

use tetra::experiments::simulated_speedup;
use tetra::vm::CostModel;
use tetra::{programs, BufferConsole, Tetra, VmConfig};

fn virtual_time(src: &str, workers: usize, dynamic_chunking: bool, cost: CostModel) -> u64 {
    let program = Tetra::compile(src).unwrap_or_else(|e| panic!("compile:\n{}", e.render()));
    let cfg = VmConfig { workers, dynamic_chunking, cost, ..VmConfig::default() };
    program.simulate_with(cfg, BufferConsole::new()).expect("simulate").virtual_elapsed
}

/// One thread only: long allocation-free stretches run through the
/// quantum, broken up by string allocation, builtin calls and a sleep.
const SERIAL_MIX: &str = "\
def main():
    s = 0
    t = \"\"
    i = 0
    while i < 400:
        s += i * 3 - 1
        if i % 50 == 0:
            t = t + str(i)
            s += len(t)
        i += 1
    sleep(2)
    print(s, \" \", t)
";

/// Several runnable threads: outer-variable and array traffic (shared
/// access), per-item arrays (allocation), builtins, a lock, and `parallel:`
/// arms that sleep for different lengths.
const PARALLEL_MIX: &str = "\
def main():
    total = 0
    cells = fill(24, 0)
    parallel for i in [0 ... 23]:
        a = [i, i * i]
        cells[i] = a[0] + a[1] + len(str(i))
        lock t:
            total += cells[i]
    parallel:
        sleep(1)
        sleep(3)
        total += 1
    print(total)
";

#[test]
fn virtual_elapsed_matches_golden_values() {
    let skewed = programs::skewed(32);
    let primes = programs::primes(300, 8);
    let base = CostModel::default;
    let gil = || CostModel { gil: true, ..CostModel::default() };
    // No serialized per-instruction cost: the third charging rule.
    let unshared = || CostModel { instr_serial: 0, ..CostModel::default() };
    let cases: [(&str, &str, usize, bool, CostModel, u64); 12] = [
        ("serial mix", SERIAL_MIX, 4, true, base(), 56683),
        ("serial mix, gil", SERIAL_MIX, 4, true, gil(), 56683),
        ("serial mix, unshared", SERIAL_MIX, 4, true, unshared(), 47376),
        ("parallel mix, w4", PARALLEL_MIX, 4, true, base(), 18270),
        ("parallel mix, w4 static", PARALLEL_MIX, 4, false, base(), 18659),
        ("parallel mix, w1", PARALLEL_MIX, 1, true, base(), 20492),
        ("parallel mix, gil", PARALLEL_MIX, 4, true, gil(), 25229),
        ("parallel mix, unshared", PARALLEL_MIX, 4, true, unshared(), 17812),
        ("skewed(32), w4", &skewed, 4, true, base(), 248437),
        ("skewed(32), w4 static", &skewed, 4, false, base(), 496183),
        ("primes(300, 8), w2", &primes, 2, true, base(), 45420),
        ("fig3 parallel max, gil", programs::FIG3_PARALLEL_MAX, 4, true, gil(), 1738),
    ];
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, src, workers, dynamic, cost, want)| {
            let got = virtual_time(src, workers, dynamic, cost);
            (got != want).then(|| format!("{name}: got {got}, golden {want}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "virtual time drifted:\n{}", mismatches.join("\n"));
}

/// A `background:` child sums a variable its still-running parent keeps
/// overwriting. The child reads the parent's frame, so the printed sum
/// depends on exactly how far the parent has run at each of its reads.
const BACKGROUND_READER: &str = "\
def main():
    x = 0
    s = 0
    j = 0
    background:
        while j < 300:
            s += x
            j += 1
    i = 0
    while i < 2000:
        x = i
        i += 1
    print(\"last \", x, \", sum \", s)
";

/// Workers in lockstep, each doing a little private arithmetic between
/// acquisitions of one contended lock: the printed `order` and the
/// contention count depend on the exact lock order.
const LOCKSTEP_LOCKS: &str = "\
def main():
    total = 0
    order = 0
    parallel for i in [1 ... 32]:
        k = 0
        acc = 0
        while k < 8:
            acc += i * k % 7
            lock total:
                total += acc
                order = order * 3 % 1000003 + i
            k += 1
    print(total, \" \", order)
";

/// Workers read and write cells of one shared array, held in a local of
/// each worker, with no lock: every cell's final value depends on the
/// exact order of the workers' `Index` and `IndexStore` instructions.
const SHARED_CELLS: &str = "\
def main():
    cells = fill(8, 0)
    parallel for i in [0 ... 31]:
        c = cells
        k = 0
        while k < len(c):
            j = (i + k) % len(c)
            c[j] = c[j] * 3 % 1009 + i
            k += 1
    print(cells)
";

/// Run `src` on the simulator; returns `(virtual_elapsed, instructions,
/// lock_contentions, stdout)`.
fn simulate(src: &str, workers: usize, cost: CostModel) -> (u64, u64, u64, String) {
    let program = Tetra::compile(src).unwrap_or_else(|e| panic!("compile:\n{}", e.render()));
    let cfg = VmConfig { workers, cost, ..VmConfig::default() };
    let console = BufferConsole::new();
    let stats = program.simulate_with(cfg, console.clone()).expect("simulate");
    (stats.virtual_elapsed, stats.instructions, stats.lock_contentions, console.output())
}

/// Output, instruction count and lock contentions, not just virtual time:
/// a scheduler that reorders a read of a shared frame can keep every
/// clock and still print something else.
#[test]
fn simulated_output_and_counts_match_golden_values() {
    let primes = programs::primes(2_000, 16);
    let tsp = programs::tsp(6);
    let base = CostModel::default;
    let gil = || CostModel { gil: true, ..CostModel::default() };
    let unshared = || CostModel { instr_serial: 0, ..CostModel::default() };
    type Golden = (u64, u64, u64, &'static str);
    let cases: [(&str, &str, usize, CostModel, Golden); 14] = [
        (
            "background reader, w4",
            BACKGROUND_READER,
            4,
            base(),
            (112323, 25927, 0, "last 1999, sum 52815\n"),
        ),
        (
            "background reader, gil",
            BACKGROUND_READER,
            4,
            gil(),
            (131856, 25927, 0, "last 1999, sum 52815\n"),
        ),
        (
            "primes(2000, 16), w8",
            &primes,
            8,
            base(),
            (169582, 162649, 0, "primes below 2000: 303\n"),
        ),
        ("lockstep locks, w4", LOCKSTEP_LOCKS, 4, base(), (20745, 8704, 433, "2625 237153\n")),
        ("lockstep locks, w8", LOCKSTEP_LOCKS, 8, base(), (20602, 9497, 1226, "2625 236984\n")),
        ("lockstep locks, gil", LOCKSTEP_LOCKS, 4, gil(), (45069, 8725, 454, "2625 569843\n")),
        (
            "primes(2000, 16), w3",
            &primes,
            3,
            base(),
            (290633, 162649, 0, "primes below 2000: 303\n"),
        ),
        (
            "primes(2000, 16), w5",
            &primes,
            5,
            base(),
            (190384, 162649, 0, "primes below 2000: 303\n"),
        ),
        (
            "primes(2000, 16), w16",
            &primes,
            16,
            base(),
            (167898, 162649, 0, "primes below 2000: 303\n"),
        ),
        (
            "shared cells, w4",
            SHARED_CELLS,
            4,
            base(),
            (13453, 7789, 0, "[115, 379, 384, 954, 359, 592, 711, 254]\n"),
        ),
        (
            "shared cells, w8",
            SHARED_CELLS,
            8,
            base(),
            (11913, 7789, 0, "[260, 738, 42, 985, 124, 930, 986, 135]\n"),
        ),
        (
            "shared cells, gil",
            SHARED_CELLS,
            4,
            gil(),
            (42081, 7789, 0, "[472, 529, 453, 255, 66, 679, 114, 163]\n"),
        ),
        ("tsp(6), w4", &tsp, 4, base(), (60658, 26187, 0, "best tour: 187\n")),
        ("parallel mix, w8 unshared", PARALLEL_MIX, 8, unshared(), (19232, 760, 8, "4639\n")),
    ];
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, src, workers, cost, (time, instrs, contentions, out))| {
            let got = simulate(src, workers, cost);
            let want = (time, instrs, contentions, out.to_string());
            (got != want).then(|| format!("{name}: got {got:?}, golden {want:?}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "simulation drifted:\n{}", mismatches.join("\n"));
}

/// The E10 gate: on the skewed loop, static chunking serializes on the
/// heaviest chunk, so it must take at least 1.3x the virtual time of the
/// dynamic chunking that models the interpreter's work-stealing pool.
#[test]
fn dynamic_chunking_beats_static_on_the_skewed_loop() {
    let src = programs::skewed(64);
    let dynamic = virtual_time(&src, 4, true, CostModel::default());
    let stat = virtual_time(&src, 4, false, CostModel::default());
    let ratio = stat as f64 / dynamic as f64;
    assert!(ratio >= 1.3, "static/dynamic = {stat}/{dynamic} = {ratio:.2}x, below 1.3x");
}

/// The E5 gate: the paper's primes workload at the scale EXPERIMENTS.md
/// reports must keep a virtual speedup above 1.5x at four threads.
#[test]
fn primes_virtual_speedup_exceeds_one_and_a_half_at_four_threads() {
    let rows = simulated_speedup(&programs::primes(20_000, 64), &[1, 4]).expect("primes sweep");
    let (t1, t4) = (rows[0].elapsed, rows[1].elapsed);
    let speedup = rows[1].speedup;
    assert!(speedup > 1.5, "T=1/T=4 = {t1}/{t4} = {speedup:.2}x, not above 1.5x");
}
