//! Integration coverage for the shipped `.tet` examples and the developer
//! tooling surface (pretty printer, disassembler, timeline, stats).

use tetra::{BufferConsole, InterpConfig, Tetra};
use tetra_suite::{example_names, example_source};

#[test]
fn shipped_examples_run_with_expected_outputs() {
    let cases: &[(&str, &[&str], &str)] = &[
        ("factorial.tet", &["6"], "enter n: \n6! = 720\n"),
        ("parallel_sum.tet", &[], "5050\n"),
        ("parallel_max.tet", &[], "96\n"),
        ("counter.tet", &[], "200\n"),
        ("primes.tet", &[], "primes below 20000: 2262\n"),
        ("mergesort.tet", &[], "sorted: true, first: 0, last: 995\n"),
        ("matmul.tet", &[], "checksum: 27338\n"),
        ("skewed.tet", &[], "skewed total: 111656896\n"),
        ("background_logger.tet", &[], "events logged: true\n"),
    ];
    for (name, input, expected) in cases {
        let p = Tetra::compile(&example_source(name))
            .unwrap_or_else(|e| panic!("{name}: {}", e.render()));
        let (out, _) = p.run_captured(input).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&out, expected, "{name}");
    }
}

#[test]
fn retry_input_example_recovers_from_bad_input() {
    let p = Tetra::compile(&example_source("retry_input.tet")).unwrap();
    let (out, _) = p.run_captured(&["oops", "still not", "42"]).unwrap();
    assert!(out.matches("not a number").count() == 2, "{out}");
    assert!(out.contains("got 42"), "{out}");
}

#[test]
fn deterministic_examples_agree_across_engines() {
    for name in ["mergesort.tet", "matmul.tet", "wordcount.tet", "parallel_sum.tet", "skewed.tet"] {
        let p = Tetra::compile(&example_source(name)).unwrap();
        p.run_both(&[]).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn wordcount_example_counts_correctly() {
    let p = Tetra::compile(&example_source("wordcount.tet")).unwrap();
    let (out, _) = p.run_captured(&[]).unwrap();
    assert!(out.contains("the: 3"), "{out}");
    assert!(out.contains("fox: 2"), "{out}");
    assert!(out.contains("dog: 1"), "{out}");
}

#[test]
fn montecarlo_example_estimates_pi() {
    // Uses random(): only the assertion inside the program (2.9 < pi < 3.4)
    // and a clean exit are checked.
    let p = Tetra::compile(&example_source("montecarlo_pi.tet")).unwrap();
    let (out, _) = p.run_captured(&[]).unwrap();
    assert!(out.starts_with("pi is roughly "), "{out}");
}

#[test]
fn montecarlo_example_simulates_reproducibly() {
    // The simulator draws random() from a fixed-seed generator in scheduler
    // order, so two simulations agree on the estimate and every count.
    let p = Tetra::compile(&example_source("montecarlo_pi.tet")).unwrap();
    let simulate = || {
        let console = BufferConsole::new();
        let s = p.simulate(console.clone()).unwrap();
        (console.output(), s.virtual_elapsed, s.instructions, s.lock_contentions, s.threads)
    };
    let first = simulate();
    assert!(first.0.starts_with("pi is roughly "), "{}", first.0);
    assert_eq!(first, simulate());
}

#[test]
fn deadlock_example_fails_with_deadlock() {
    let p = Tetra::compile(&example_source("deadlock.tet")).unwrap();
    let err = p.run_captured(&[]).unwrap_err();
    assert_eq!(err.kind, tetra::runtime::ErrorKind::Deadlock);
}

#[test]
fn race_example_is_flagged_by_the_detector() {
    let p = Tetra::compile(&example_source("race.tet")).unwrap();
    let dbg = tetra::debugger::Debugger::tracer();
    let interp = p.debug(
        InterpConfig { worker_threads: 4, ..InterpConfig::default() },
        BufferConsole::new(),
        dbg.clone(),
    );
    interp.run().unwrap();
    assert!(dbg.races().iter().any(|r| r.name == "count"));
}

#[test]
fn every_example_round_trips_through_the_pretty_printer() {
    for name in example_names() {
        let src = example_source(&name);
        let parsed = tetra::parser::parse(&src).unwrap();
        let printed = tetra::ast::pretty::to_source(&parsed);
        let reparsed = tetra::parser::parse(&printed)
            .unwrap_or_else(|e| panic!("{name} re-parse: {e}\n{printed}"));
        assert_eq!(
            printed,
            tetra::ast::pretty::to_source(&reparsed),
            "{name} must be a pretty-printer fixpoint"
        );
    }
}

#[test]
fn every_example_disassembles() {
    for name in example_names() {
        let p = Tetra::compile(&example_source(&name)).unwrap();
        let bc = p.bytecode();
        let asm = tetra::vm::disassemble(&bc);
        assert!(asm.contains("func"), "{name}: {asm}");
        assert!(bc.instruction_count() > 5, "{name}");
    }
}

#[test]
fn timeline_renders_for_the_max_example() {
    let p = Tetra::compile(&example_source("parallel_max.tet")).unwrap();
    let dbg = tetra::debugger::Debugger::tracer();
    let interp = p.debug(
        InterpConfig { worker_threads: 2, ..InterpConfig::default() },
        BufferConsole::new(),
        dbg.clone(),
    );
    interp.run().unwrap();
    let text = tetra::debugger::timeline::render(&dbg.events());
    assert!(text.contains("T0 (main)"), "{text}");
    assert!(text.contains("lock `largest`") || text.contains("wait lock"), "{text}");
}

#[test]
fn run_stats_expose_thread_and_lock_activity() {
    let p = Tetra::compile(&example_source("counter.tet")).unwrap();
    let console = BufferConsole::new();
    let stats =
        p.run_with(InterpConfig { worker_threads: 4, ..InterpConfig::default() }, console).unwrap();
    assert_eq!(stats.threads_spawned, 5, "main + 4 workers");
    assert_eq!(stats.lock_acquisitions.0, 200, "one acquisition per increment");
}

#[test]
fn tokens_ast_and_check_surfaces_work_on_examples() {
    let src = example_source("parallel_sum.tet");
    let toks = tetra::lexer::tokenize(&src).unwrap();
    assert!(toks.len() > 50);
    let parsed = tetra::parser::parse(&src).unwrap();
    let tree = tetra::ast::pretty::tree(&parsed);
    assert!(tree.contains("Parallel@"), "{tree}");
    let stats = tetra::ast::visit::ParallelStats::of(&parsed);
    assert_eq!(stats.parallel_blocks, 1);
}
