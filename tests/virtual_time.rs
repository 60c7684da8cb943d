//! Virtual-time regression gates for the VM simulator.
//!
//! Virtual time is the instrument the paper's speedup tables are
//! reproduced with, so a refactor of the scheduler must leave every
//! `virtual_elapsed` bit-identical. The golden table below pins it for a
//! corpus that exercises every cost class (basic, shared access,
//! allocation, builtin, sleep), GIL mode, the single-runnable quantum
//! fast path and instruction-by-instruction multi-runnable stepping.

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
