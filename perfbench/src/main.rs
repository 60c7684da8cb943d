//! Benchmark of the Tetra system, driven entirely through the public API of
//! the `tetra` facade crate.
//!
//! ```text
//! run --workload <primes|tsp|churn|compile> --seed <n> --seconds <s> --trace <0|1>
//! run --self-test [--seed <n>]
//! ```
//!
//! One invocation benchmarks one workload. It generates the program from
//! the seed, then repeats rounds until `--seconds` have passed. A round
//! compiles the program and runs it under every engine configuration a
//! student can pick (`tetra run` at T = nproc and T = 1, `tetra sim`,
//! `tetra profile`), checking each output against the workload's Rust
//! oracle. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it also calls each layer's public function on its own,
//! records spans around every call, and prints the per-layer metrics. The
//! last line of standard output is the JSON result. README.md documents
//! every metric.

mod spans;
mod stats;
mod workloads;

use spans::Recorder;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tetra::obs::session;
use tetra::vm::CompiledProgram;
use tetra::{BufferConsole, InterpConfig, RunStats, Tetra, VmConfig};
use workloads::{Case, Workload};

const USAGE: &str = "usage: perfbench --workload <primes|tsp|churn|compile> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test [--seed <n>]";

/// Rounds made however short `--seconds` is: enough for a median, and in a
/// traced run two with the recorder on and two with it off.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_ROUNDS: usize = 4;
/// Each round repeats set-up until this much time has passed, so a program
/// that compiles in microseconds still gives a steady median. A program
/// that takes longer is set up once a round, leaving the time to more
/// rounds and so to more samples of every other metric.
const SETUP_MIN_TIME: Duration = Duration::from_millis(50);
/// `tetra sim`'s default worker count (`VmConfig::default()`).
const SIM_WORKERS: usize = 4;

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_t1_s", "s"),
    ("sim_s", "s"),
    ("profile_s", "s"),
    ("peak_rss_mib", "MiB"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("lexer.ns", "ns"),
    ("lexer.tokens", "count"),
    ("parser.ns", "ns"),
    ("types.check_ns", "ns"),
    ("types.resolve_ns", "ns"),
    ("types.resolved", "count"),
    ("vm.compile_ns", "ns"),
    ("vm.bytecode_instrs", "count"),
    ("interp.ns_per_op_t1", "ns"),
    ("interp.speedup", "x"),
    ("interp.self_s", "s"),
    ("vm.instructions", "count"),
    ("vm.ns_per_instr_w1", "ns"),
    ("vm.ns_per_instr_w4", "ns"),
    ("vm.lock_contentions", "count"),
    ("vm.virtual_w1", "units"),
    ("vm.virtual_w4", "units"),
    ("vm.virtual_speedup", "x"),
    ("heap.allocations", "count"),
    ("heap.collections", "count"),
    ("heap.pause_total_us", "us"),
    ("heap.pause_max_us", "us"),
    ("heap.mark_us", "us"),
    ("heap.sweep_us", "us"),
    ("heap.fast_path_ratio", "ratio"),
    ("heap.gc_share", "ratio"),
    ("heap.live_bytes", "bytes"),
    ("locks.acquisitions", "count"),
    ("locks.contended_ratio", "ratio"),
    ("threads.spawned", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.tasks_stolen", "count"),
    ("pool.range_splits", "count"),
    ("pool.queue_high_water", "count"),
    ("pool.utilization", "ratio"),
    ("pool.balance", "ratio"),
    ("obs.overhead", "x"),
    ("obs.events_kept", "count"),
    ("obs.events_dropped", "count"),
    ("trace.overhead", "x"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    SelfTest(u64),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut self_test) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s.is_finite() && s >= 0.0 { s } else { return Err(bad()) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if self_test {
        return Ok(Mode::SelfTest(seed.unwrap_or(1)));
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Mode::Bench(Args { workload, seed, seconds, trace }))
        }
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Mode::Bench(args)) => bench(&args),
        Ok(Mode::SelfTest(seed)) => self_test(seed),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Host, toolchain, commit and build profile, printed with every result.
fn stamp(args: &Args, nproc: usize) -> String {
    let commit = std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!(
        "workload={} seed={} trace={} nproc={nproc} rustc=\"{}\" commit={commit} profile={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Everything one invocation measures and checks.
struct Bench<'c> {
    case: &'c Case,
    nproc: usize,
    rec: Recorder,
    /// Program runs checked against the oracle, and how many failed.
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// End-to-end samples, in the order they were taken.
    e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values, one per recorded round.
    layer: BTreeMap<&'static str, Vec<f64>>,
    /// (instructions, virtual time, lock contentions) of the first
    /// simulation per worker count; every later one must repeat them.
    sim_facts: BTreeMap<usize, (u64, u64, u64)>,
    /// One JSON object per recorded interpreter run, for the trace file.
    run_log: Vec<String>,
}

impl<'c> Bench<'c> {
    fn new(case: &'c Case) -> Bench<'c> {
        Bench {
            case,
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            rec: Recorder::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            sim_facts: BTreeMap::new(),
            run_log: Vec::new(),
        }
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.e2e.entry(name).or_default().push(value);
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        if self.rec.on {
            self.layer.entry(name).or_default().push(value);
        }
    }

    /// Count one program run and compare what it printed with the oracle.
    fn check(&mut self, what: &str, error: Option<String>, output: &str) {
        self.attempted += 1;
        let problem = match error {
            Some(e) => Some(format!("{what}: runtime error: {e}")),
            None if output != self.case.expected => {
                let line = output.lines().zip(self.case.expected.lines()).position(|(a, b)| a != b);
                Some(format!(
                    "{what}: output differs from the oracle (first differing line: {})",
                    line.map_or("past the shorter output".to_string(), |l| (l + 1).to_string())
                ))
            }
            None => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }

    /// `Tetra::compile` plus `bytecode()`, repeated until the set-up floor
    /// is met; returns the last program built.
    fn setup(&mut self) -> Result<(Tetra, CompiledProgram), String> {
        let source = self.case.source.as_str();
        let start = Instant::now();
        loop {
            let (built, secs) = self.rec.time("setup", |rec| {
                let (program, _) = rec.time("compile", |_| Tetra::compile(source));
                let program = program
                    .map_err(|e| format!("the program does not compile:\n{}", e.render()))?;
                let (bytecode, _) = rec.time("bytecode", |_| program.bytecode());
                Ok::<_, String>((program, bytecode))
            });
            let built = built?;
            self.sample("setup_s", secs);
            if start.elapsed() >= SETUP_MIN_TIME {
                return Ok(built);
            }
        }
    }

    /// One interpreter run on `workers` pool workers, optionally inside an
    /// obs session as `tetra profile` runs it. Returns the run's counters
    /// and seconds unless it failed.
    fn interp(
        &mut self,
        name: &'static str,
        program: &Tetra,
        workers: usize,
        profiled: bool,
    ) -> Option<(RunStats, f64)> {
        let console = BufferConsole::new();
        let config = InterpConfig { worker_threads: workers, ..InterpConfig::default() };
        let ((result, trace), secs) = self.rec.time(name, |_| {
            if profiled {
                session::begin(session::Config::default());
            }
            let result = program.run_with(config, console.clone());
            (result, profiled.then(session::end))
        });
        self.check(name, result.as_ref().err().map(|e| e.to_string()), &console.output());
        self.sample(name, secs);
        if let Some(trace) = trace {
            self.layer("obs.events_kept", trace.events.len() as f64);
            self.layer("obs.events_dropped", trace.dropped_events as f64);
        }
        let stats = result.ok()?;
        if self.rec.on {
            let busy: Vec<String> =
                stats.pool.per_worker.iter().map(|(_, ns)| ns.to_string()).collect();
            self.run_log.push(format!(
                "{{\"round\": {}, \"run\": \"{name}\", \"workers\": {workers}, \"seconds\": {secs}, \"pool_balance\": {}, \"busy_ns_per_worker\": [{}]}}",
                self.rec.round,
                balance(&stats),
                busy.join(", ")
            ));
        }
        Some((stats, secs))
    }

    /// Heap, lock and pool counters of the T = nproc run.
    fn run_layers(&mut self, stats: &RunStats, secs: f64) {
        let gc = &stats.gc;
        let pause_s = gc.pause_total_us as f64 / 1e6;
        let (locks, contended) = stats.lock_acquisitions;
        let pool = &stats.pool;
        for (name, value) in [
            ("interp.self_s", secs - pause_s),
            ("heap.allocations", gc.allocations as f64),
            ("heap.collections", gc.collections as f64),
            ("heap.pause_total_us", gc.pause_total_us as f64),
            ("heap.pause_max_us", gc.pause_max_us as f64),
            ("heap.mark_us", gc.mark_us as f64),
            ("heap.sweep_us", gc.sweep_us as f64),
            ("heap.fast_path_ratio", ratio(gc.alloc_fast_path as f64, gc.allocations as f64)),
            ("heap.gc_share", pause_s / secs),
            ("heap.live_bytes", gc.live_bytes as f64),
            ("locks.acquisitions", locks as f64),
            ("locks.contended_ratio", ratio(contended as f64, locks as f64)),
            ("threads.spawned", stats.threads_spawned as f64),
            ("pool.tasks", pool.tasks_executed as f64),
            ("pool.steals", pool.steals as f64),
            ("pool.tasks_stolen", pool.tasks_stolen as f64),
            ("pool.range_splits", pool.range_splits as f64),
            ("pool.queue_high_water", pool.queue_high_water as f64),
            ("pool.utilization", ratio(pool.busy_ns as f64, secs * 1e9 * pool.workers as f64)),
            ("pool.balance", balance(stats)),
        ] {
            self.layer(name, value);
        }
    }

    /// One `tetra::vm::run` on `workers` simulated workers; returns its
    /// (instructions, virtual time, lock contentions). The VM is
    /// deterministic, so every simulation at a worker count must repeat
    /// the first one's exactly.
    fn sim(
        &mut self,
        name: &'static str,
        bytecode: &CompiledProgram,
        workers: usize,
    ) -> Option<(u64, u64, u64)> {
        let console = BufferConsole::new();
        let config = VmConfig { workers, ..VmConfig::default() };
        let (result, secs) =
            self.rec.time(name, |_| tetra::vm::run(bytecode, config, console.clone()));
        self.check(name, result.as_ref().err().map(|e| e.to_string()), &console.output());
        self.sample(name, secs);
        let stats = result.ok()?;
        let facts = (stats.instructions, stats.virtual_elapsed, stats.lock_contentions);
        let first = *self.sim_facts.entry(workers).or_insert(facts);
        if first != facts {
            self.problems.push(format!(
                "VM at W={workers} is not deterministic: (instructions, virtual time, contentions) {first:?} then {facts:?}"
            ));
        }
        Some(facts)
    }

    /// Each front-end layer called on its own. `parse` tokenizes
    /// internally and `check` resolves internally, so their self times are
    /// what remains after subtracting the separately timed call.
    fn front_end(&mut self) -> Result<(), String> {
        let source = self.case.source.as_str();
        let render = |d: tetra::lexer::Diagnostic| d.render(source);
        let (tokens, lex_s) = self.rec.time("tokenize", |_| tetra::lexer::tokenize(source));
        let tokens = tokens.map_err(render)?;
        let (parsed, parse_s) = self.rec.time("parse", |_| tetra::parser::parse(source));
        let parsed = parsed.map_err(render)?;
        let (typed, check_s) = self.rec.time("check", |_| tetra::types::check(parsed));
        let typed =
            typed.map_err(|ds| ds.into_iter().map(render).collect::<Vec<_>>().join("\n"))?;
        let (resolution, resolve_s) =
            self.rec.time("resolve", |_| tetra::types::resolve::resolve(&typed.program));
        let (bytecode, compile_s) = self.rec.time("vm_compile", |_| tetra::vm::compile(&typed));
        for (name, value) in [
            ("lexer.ns", lex_s * 1e9),
            ("lexer.tokens", tokens.len() as f64),
            ("parser.ns", (parse_s - lex_s).max(0.0) * 1e9),
            ("types.check_ns", (check_s - resolve_s).max(0.0) * 1e9),
            ("types.resolve_ns", resolve_s * 1e9),
            ("types.resolved", resolution.resolved_count() as f64),
            ("vm.compile_ns", compile_s * 1e9),
            ("vm.bytecode_instrs", bytecode.instruction_count() as f64),
        ] {
            self.layer(name, value);
        }
        Ok(())
    }

    /// One round: set-up, then every engine configuration once. Traced
    /// runs add the per-layer calls.
    fn round(&mut self, traced: bool) -> Result<(), String> {
        let (program, bytecode) = self.setup()?;
        let nproc = self.nproc;
        if let Some((stats, secs)) = self.interp("run_s", &program, nproc, false) {
            self.run_layers(&stats, secs);
        }
        self.interp("run_t1_s", &program, 1, false);
        if let Some((instructions, virtual_w4, contentions)) =
            self.sim("sim_s", &bytecode, SIM_WORKERS)
        {
            self.layer("vm.instructions", instructions as f64);
            self.layer("vm.virtual_w4", virtual_w4 as f64);
            self.layer("vm.lock_contentions", contentions as f64);
        }
        self.interp("profile_s", &program, nproc, true);
        if traced {
            self.front_end()?;
            if let Some((instructions_w1, virtual_w1, _)) = self.sim("sim_w1_s", &bytecode, 1) {
                self.layer("vm.virtual_w1", virtual_w1 as f64);
                self.layer("vm.instructions_w1", instructions_w1 as f64);
            }
        }
        Ok(())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Least over most busy time among the pool's workers (1 = even).
fn balance(stats: &RunStats) -> f64 {
    let busy = stats.pool.per_worker.iter().map(|&(_, ns)| ns as f64);
    let (lo, hi) = busy.fold((f64::INFINITY, 0.0f64), |(lo, hi), b| (lo.min(b), hi.max(b)));
    ratio(lo, hi)
}

/// High-water resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn bench(args: &Args) -> Result<(), String> {
    let case = args.workload.generate(args.seed);
    if case.source != args.workload.generate(args.seed).source {
        return Err("the generator gave two different programs for one seed".to_string());
    }
    let mut b = Bench::new(&case);
    let stamp = stamp(args, b.nproc);
    println!("# perfbench {stamp}");
    println!("# program: {} bytes of source", case.source.len());

    // Every round counts: none is dropped as warm-up, so a slow first round
    // (cold caches, pool start-up) shows in the per-round samples printed
    // below instead of being averaged away or hidden. A traced run makes
    // pairs of rounds, one with the span recorder on and one with it off,
    // in alternating order (on-off, off-on, ...) so neither side always
    // gets the cold first round; the pairs give the tracing overhead.
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.trace { MIN_TRACED_ROUNDS } else { MIN_ROUNDS };
    let recorded = |round: usize| args.trace && matches!(round % 4, 0 | 3);
    let mut round_secs = Vec::new();
    let mut first_round_rss = 0.0;
    while round_secs.len() < min_rounds
        || start.elapsed() < deadline
        || (args.trace && round_secs.len() % 2 == 1)
    {
        b.rec.round = round_secs.len();
        b.rec.on = recorded(b.rec.round);
        let began = Instant::now();
        b.round(args.trace)?;
        round_secs.push(began.elapsed().as_secs_f64());
        if round_secs.len() == 1 {
            first_round_rss = peak_rss_mib()?;
        }
    }
    let rounds = round_secs.len();
    b.rec.on = false;
    let measured = start.elapsed().as_secs_f64();
    println!("# {rounds} rounds in {measured:.2} s; every round counts, the first one included");

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // Tracing overhead: recorder-on over recorder-off time, per pair.
        let overheads: Vec<f64> = round_secs
            .chunks(2)
            .enumerate()
            .map(|(i, pair)| if recorded(2 * i) { pair[0] / pair[1] } else { pair[1] / pair[0] })
            .collect();
        metrics.insert("trace.overhead", median(&overheads));
        per_layer_metrics(&b, &mut metrics);
    } else {
        for (name, unit) in END_TO_END {
            if let Some(samples) = b.e2e.get(name) {
                let s = Summary::of(samples);
                metrics.insert(name, s.median);
                let shown: Vec<String> =
                    samples.iter().take(40).map(|v| format!("{v:.6}")).collect();
                println!(
                    "{name:<13} median {:.6} {unit}  q1 {:.6}  q3 {:.6}  spread {:.1}%  n={}  samples: {}{}",
                    s.median,
                    s.q1,
                    s.q3,
                    100.0 * s.spread(),
                    s.n,
                    shown.join(" "),
                    if samples.len() > 40 { " ..." } else { "" }
                );
            }
        }
        // The high-water mark after the first round is what one pass over
        // the workload (set-up plus every engine once) costs, as for a
        // student's process. Later rounds only add allocator fragmentation,
        // which grows with the number of rounds and so with machine speed.
        println!(
            "{:<13} {first_round_rss:.1} MiB after the first round; {:.1} MiB after all rounds",
            "peak_rss_mib",
            peak_rss_mib()?
        );
        metrics.insert("peak_rss_mib", first_round_rss);
    }
    let error_rate = ratio(b.failed as f64, b.attempted as f64);
    println!("error_rate    {error_rate} ({} of {} program runs failed)", b.failed, b.attempted);
    for p in &b.problems {
        println!("# PROBLEM: {p}");
    }
    if args.trace {
        write_trace(args, &stamp, &b, &metrics)?;
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        b.failed == 0 && b.problems.is_empty(),
        b.attempted,
        b.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value =
            metrics.get(name).copied().ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The per-layer figures, medians over the rounds the recorder was on.
fn per_layer_metrics(b: &Bench, out: &mut BTreeMap<&str, f64>) {
    for (name, _) in PER_LAYER {
        if let Some(values) = b.layer.get(name) {
            out.insert(name, median(values));
        }
    }
    let med = |name: &str| {
        let v = b.rec.secs(name);
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let layer = |name: &str| b.layer.get(name).map_or(f64::NAN, |v| median(v));
    let (run, run_t1, profile) = (med("run_s"), med("run_t1_s"), med("profile_s"));
    out.insert("interp.ns_per_op_t1", run_t1 * 1e9 / layer("vm.instructions"));
    out.insert("interp.speedup", run_t1 / run);
    out.insert("vm.ns_per_instr_w1", med("sim_w1_s") * 1e9 / layer("vm.instructions_w1"));
    out.insert("vm.ns_per_instr_w4", med("sim_s") * 1e9 / layer("vm.instructions"));
    out.insert("vm.virtual_speedup", layer("vm.virtual_w1") / layer("vm.virtual_w4"));
    out.insert("obs.overhead", profile / run);
    for (name, unit) in PER_LAYER {
        if let Some(v) = out.get(name) {
            println!("{name:<22} {v:.6} {unit}");
        }
    }
}

/// Writes the spans (with self times), every recorded interpreter run's
/// per-worker busy time and the per-layer figures to
/// `out/trace-<workload>-seed<seed>.json` in the benchmark's directory.
fn write_trace(
    args: &Args,
    stamp: &str,
    b: &Bench,
    metrics: &BTreeMap<&str, f64>,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
    let mut out = format!("{{\n\"stamp\": \"{}\",\n\"spans\": [\n", stamp.replace('"', "\\\""));
    let self_ns = b.rec.self_ns();
    for (i, s) in b.rec.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == b.rec.spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"round\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{sep}",
            s.name, s.round, s.start_ns, s.end_ns, self_ns[i]
        );
    }
    let _ = writeln!(out, "],\n\"interp_runs\": [\n  {}\n],", b.run_log.join(",\n  "));
    let figures: Vec<String> =
        metrics.iter().map(|(name, v)| format!("\"{name}\": {}", json_number(*v))).collect();
    let _ = writeln!(out, "\"per_layer\": {{{}}}\n}}", figures.join(", "));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

/// Same seed, same bytes; and the counts that do not depend on timing
/// repeat exactly across two independent compile-and-simulate passes.
fn self_test(seed: u64) -> Result<(), String> {
    let mut ok = true;
    for w in workloads::ALL {
        let (a, again) = (w.generate(seed), w.generate(seed));
        let same_source = a.source == again.source && a.expected == again.expected;
        let pass = || -> Result<[u64; 5], String> {
            let program = Tetra::compile(&a.source).map_err(|e| e.render())?;
            let tokens =
                tetra::lexer::tokenize(&a.source).map_err(|d| d.render(&a.source))?.len() as u64;
            let bytecode = program.bytecode();
            let mut facts = [tokens, bytecode.instruction_count() as u64, 0, 0, 0];
            for (workers, slot) in [(SIM_WORKERS, 2), (1, 3)] {
                let console = BufferConsole::new();
                let stats = tetra::vm::run(
                    &bytecode,
                    VmConfig { workers, ..VmConfig::default() },
                    console.clone(),
                )
                .map_err(|e| e.to_string())?;
                if console.output() != a.expected {
                    return Err(format!("W={workers} output differs from the oracle"));
                }
                facts[slot] = stats.virtual_elapsed;
                if workers == SIM_WORKERS {
                    facts[4] = stats.instructions;
                }
            }
            Ok(facts)
        };
        let (first, second) = (pass(), pass());
        let repeat = matches!((&first, &second), (Ok(x), Ok(y)) if x == y);
        ok &= same_source && repeat;
        println!(
            "{:<8} source identical: {same_source}; counts repeat: {repeat}; \
             [lexer.tokens, vm.bytecode_instrs, vm.virtual_w4, vm.virtual_w1, vm.instructions] = {first:?} / {second:?}",
            w.name()
        );
    }
    if ok {
        Ok(())
    } else {
        Err("self-test failed".to_string())
    }
}
