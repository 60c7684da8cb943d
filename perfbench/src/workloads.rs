//! Workload generators and their output oracles.
//!
//! Each workload turns a seed into Tetra source plus the output that source
//! must print. The expected output is always computed here, in plain Rust,
//! from the generator's own parameters — never by running either Tetra
//! engine — so a bug shared by both engines still shows as a mismatch.

use std::fmt::Write;

/// The benchmark's workloads. README.md says why each one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Primes,
    Tsp,
    Churn,
    Compile,
}

pub const ALL: [Workload; 4] =
    [Workload::Primes, Workload::Tsp, Workload::Churn, Workload::Compile];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Primes => "primes",
            Workload::Tsp => "tsp",
            Workload::Churn => "churn",
            Workload::Compile => "compile",
        }
    }

    /// The program for `seed` and the output it must print.
    pub fn generate(self, seed: u64) -> Case {
        match self {
            Workload::Primes => primes(seed),
            Workload::Tsp => tsp(seed),
            Workload::Churn => churn(seed),
            Workload::Compile => compile(seed),
        }
    }
}

/// One generated program and its reference output.
pub struct Case {
    pub source: String,
    pub expected: String,
}

/// splitmix64: a small, well-mixed generator, so the generated programs
/// depend on nothing but the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

// ---------------------------------------------------------------------------
// primes: the paper's first §IV workload
// ---------------------------------------------------------------------------

const PRIMES_LIMIT: i64 = 100_000;
const PRIMES_BLOCKS: i64 = 64;

/// The seed moves the limit within 1% of 100,000, so every seed does the
/// same amount of work but counts a different range.
fn primes(seed: u64) -> Case {
    let limit = PRIMES_LIMIT + (seed % 1000) as i64;
    let source = tetra::programs::primes(limit, PRIMES_BLOCKS);
    // Sieve of Eratosthenes over [0, limit).
    let n = limit as usize;
    let mut composite = vec![false; n];
    let mut count = 0;
    for i in 2..n {
        if !composite[i] {
            count += 1;
            for j in (i * i..n).step_by(i) {
                composite[j] = true;
            }
        }
    }
    Case { source, expected: format!("primes below {limit}: {count}\n") }
}

// ---------------------------------------------------------------------------
// tsp: the paper's second §IV workload
// ---------------------------------------------------------------------------

const TSP_CITIES: usize = 10;
const TSP_LCG_SEED: i64 = 12345;

/// The seed scales every distance of the program's LCG matrix by a factor
/// in 1..=97. Scaling preserves every comparison the branch-and-bound
/// makes, so each seed walks the identical search tree (the same VM
/// instruction count) while printing a different answer. Changing the LCG
/// seed instead changes the work itself: over ten LCG seeds the search
/// took 8.7M to 26.1M VM instructions, which would make the spread between
/// runs a property of the seed rather than of the code.
fn tsp(seed: u64) -> Case {
    let scale = 1 + (seed % 97) as i64;
    let base = tetra::programs::tsp(TSP_CITIES as i64);
    let pattern = "row[j] = seed % 90 + 10";
    assert_eq!(base.matches(pattern).count(), 1, "programs::tsp changed its matrix generator");
    assert!(base.contains(&format!("seed = {TSP_LCG_SEED}")), "programs::tsp changed its LCG seed");
    let source = base.replace(pattern, &format!("row[j] = (seed % 90 + 10) * {scale}"));

    // The same LCG, then exhaustive search over every tour from city 0.
    let n = TSP_CITIES;
    let mut m = vec![vec![0i64; n]; n];
    let mut lcg = TSP_LCG_SEED;
    for (i, row) in m.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            lcg = (lcg * 1_103_515_245 + 12_345) % 2_147_483_648;
            *cell = if i == j { 0 } else { (lcg % 90 + 10) * scale };
        }
    }
    fn search(m: &[Vec<i64>], visited: &mut [bool], city: usize, cost: i64, left: usize) -> i64 {
        if left == 0 {
            return cost + m[city][0];
        }
        let mut best = i64::MAX;
        for next in 1..m.len() {
            if !visited[next] {
                visited[next] = true;
                best = best.min(search(m, visited, next, cost + m[city][next], left - 1));
                visited[next] = false;
            }
        }
        best
    }
    let mut visited = vec![false; n];
    visited[0] = true;
    let best = search(&m, &mut visited, 0, 0, n - 1);
    Case { source, expected: format!("best tour: {best}\n") }
}

// ---------------------------------------------------------------------------
// churn: heap and lock traffic
// ---------------------------------------------------------------------------

const CHURN_ITEMS: i64 = 25_000;
const CHURN_KEEP_EVERY: i64 = 4;

/// Every item allocates an array and two strings in a helper; every 4th
/// array stays reachable from a shared list; every item takes a lock.
/// The seed is a salt folded into the values and the strings.
///
/// 25,000 items keeping one in 4 retain the same 6,250 arrays as 100,000
/// items keeping one in 16, so each collection marks the same growing set,
/// but a run takes about 0.2 s instead of 1 s. A run of the benchmark then
/// holds four times as many samples, and its median no longer moves with
/// a few seconds of interference from other tenants of a shared host.
fn churn(seed: u64) -> Case {
    let salt = 1 + (seed % 1000) as i64;
    let source = format!(
        "\
# build a short-lived array and two strings for item i
def make(i int, salt int) [int]:
    a = [i, i + salt, i * 2]
    append(a, i % 7)
    s = \"item-\" + str(i)
    t = s + \"-\" + str(salt)
    append(a, len(t))
    return a

def main():
    n = {CHURN_ITEMS}
    salt = {salt}
    kept = fill(0, [0])
    total = 0
    parallel for i in [1 ... n]:
        a = make(i, salt)
        if i % {CHURN_KEEP_EVERY} == 0:
            lock kept:
                append(kept, a)
        lock total:
            total += a[1] + a[4]
    check = 0
    for a in kept:
        check += a[0]
    print(total, \" \", len(kept), \" \", check)
"
    );
    let salt_digits = salt.to_string().len() as i64;
    let mut total = 0i64;
    let mut kept = 0i64;
    let mut check = 0i64;
    for i in 1..=CHURN_ITEMS {
        // a[1] = i + salt; a[4] = len("item-<i>-<salt>")
        total += i + salt + 6 + i.to_string().len() as i64 + salt_digits;
        if i % CHURN_KEEP_EVERY == 0 {
            kept += 1;
            check += i;
        }
    }
    Case { source, expected: format!("{total} {kept} {check}\n") }
}

// ---------------------------------------------------------------------------
// compile: a large generated program for the front-end
// ---------------------------------------------------------------------------

const COMPILE_FUNCS: usize = 5000;
/// Shared lock names, so `lock` blocks in different functions contend.
const COMPILE_LOCKS: usize = 8;
/// One function in this many each holds `parallel for`, `parallel` and
/// `background` (see [`Func::generate`]).
const COMPILE_PARALLEL_EVERY: usize = 1024;
/// Times `main` calls every function. Each run of the interpreter first
/// copies the whole typed program (about 22 ms of its 59 ms with one pass,
/// measured on a 2-vCPU VM); that copy is bound by memory, and its speed
/// moved with the load on the host by twice as much as the interpreting
/// did. Four passes make interpreting most of the run.
const COMPILE_PASSES: usize = 4;

/// One generated function `f<k>(x int) int`: its shape and its constants.
/// The same value both prints the Tetra text and evaluates the function in
/// Rust, so source and oracle cannot drift apart.
enum Func {
    /// while, if/elif/else, break, continue, += and -=.
    Loop { a: i64, n: i64, m: i64, lim: i64, b: i64, c: i64 },
    /// Array literal, append, for, string concatenation, str and len.
    Strings { a: i64, b: i64, c: i64, d: i64 },
    /// parallel for with a shared lock.
    ParallelFor { n: i64, a: i64, lock: usize },
    /// A parallel block whose arms assign locals read after the join.
    Parallel { a: i64, b: i64, c: i64 },
    /// try/catch around an assert and an index that may be out of range.
    Try { vals: [i64; 3], d: i64, m: i64, e: i64 },
    /// background (never joined by the function) and pass.
    Background { a: i64, m: i64, b: i64 },
}

impl Func {
    /// Shape by position, so every seed gets the same mix of shapes. One
    /// function in 1,024 each holds `parallel for`, `parallel` or
    /// `background`: every call of those wakes pool workers or spawns an OS
    /// thread, and at a higher rate that, not the front-end, sets the run
    /// time and its noise. (With 2 functions in 5 parallel, one run took
    /// 0.14-0.52 s for the same work, spent on pool wake-ups and on the
    /// grace wait of each of 1,200 tiny `parallel:` blocks before spare
    /// threads take its arms. At one in 64, the 391 threads a run started
    /// still made its time swing with the load of the host.)
    fn generate(k: usize, rng: &mut Rng) -> Func {
        match k % COMPILE_PARALLEL_EVERY {
            i if i == COMPILE_PARALLEL_EVERY - 1 => {
                Func::Background { a: rng.range(1, 50), m: rng.range(2, 9), b: rng.range(0, 100) }
            }
            i if i == COMPILE_PARALLEL_EVERY - 2 => {
                Func::Parallel { a: rng.range(1, 20), b: rng.range(0, 100), c: rng.range(0, 100) }
            }
            i if i == COMPILE_PARALLEL_EVERY - 3 => Func::ParallelFor {
                n: rng.range(2, 12),
                a: rng.range(1, 20),
                lock: (k / COMPILE_PARALLEL_EVERY) % COMPILE_LOCKS,
            },
            i => match i % 3 {
                0 => Func::Loop {
                    a: rng.range(0, 100),
                    n: rng.range(3, 20),
                    m: rng.range(2, 6),
                    lim: rng.range(500, 5000),
                    b: rng.range(1, 10),
                    c: rng.range(0, 5),
                },
                1 => Func::Strings {
                    a: rng.range(0, 1000),
                    b: rng.range(0, 1000),
                    c: rng.range(0, 1000),
                    d: rng.range(1, 10),
                },
                _ => Func::Try {
                    vals: [rng.range(0, 100), rng.range(0, 100), rng.range(0, 100)],
                    d: rng.range(0, 10),
                    m: rng.range(2, 6),
                    e: rng.range(1, 100),
                },
            },
        }
    }

    fn emit(&self, k: usize, out: &mut String) {
        let _ = writeln!(out, "def f{k}(x int) int:");
        let body = match *self {
            Func::Loop { a, n, m, lim, b, c } => format!(
                "    acc = {a}\n    i = 0\n    while i < {n}:\n        i += 1\n        if i % {m} == 0:\n            continue\n        elif acc > {lim}:\n            break\n        else:\n            acc += x + i * {b}\n        acc -= {c}\n    return acc\n"
            ),
            Func::Strings { a, b, c, d } => format!(
                "    items = [{a}, {b}, x]\n    append(items, {c})\n    s = \"v{k}\"\n    total = 0\n    for v in items:\n        total += v * {d}\n        s = s + str(v)\n    return total + len(s)\n"
            ),
            Func::ParallelFor { n, a, lock } => format!(
                "    total = 0\n    parallel for j in [1 ... {n}]:\n        lock l{lock}:\n            total += j * {a} + x\n    return total\n"
            ),
            Func::Parallel { a, b, c } => format!(
                "    parallel:\n        p = x * {a} + {b}\n        q = x + {c}\n    return p * 2 - q\n"
            ),
            Func::Try { vals: [v0, v1, v2], d, m, e } => format!(
                "    vals = [{v0}, {v1}, {v2}]\n    r = 0\n    try:\n        assert x >= 0, \"negative input\"\n        r = vals[(x + {d}) % {m}]\n    catch err:\n        r = -{e}\n    return r\n"
            ),
            Func::Background { a, m, b } => format!(
                "    background:\n        spare = x * {a}\n    pass\n    h = x % {m} + {b}\n    return h\n"
            ),
        };
        out.push_str(&body);
        out.push('\n');
    }

    /// What `f<k>(x)` returns, evaluated directly.
    fn eval(&self, k: usize, x: i64) -> i64 {
        match *self {
            Func::Loop { a, n, m, lim, b, c } => {
                let (mut acc, mut i) = (a, 0);
                while i < n {
                    i += 1;
                    if i % m == 0 {
                        continue;
                    } else if acc > lim {
                        break;
                    } else {
                        acc += x + i * b;
                    }
                    acc -= c;
                }
                acc
            }
            Func::Strings { a, b, c, d } => {
                let items = [a, b, x, c];
                let total: i64 = items.iter().map(|v| v * d).sum();
                let digits: usize = items.iter().map(|v| v.to_string().len()).sum();
                total + (format!("v{k}").len() + digits) as i64
            }
            Func::ParallelFor { n, a, .. } => (1..=n).map(|j| j * a + x).sum(),
            Func::Parallel { a, b, c } => (x * a + b) * 2 - (x + c),
            Func::Try { vals, d, m, e } => vals.get(((x + d) % m) as usize).copied().unwrap_or(-e),
            Func::Background { m, b, .. } => x % m + b,
        }
    }
}

/// 5,000 functions (about 1.1 MB of source) covering every statement
/// kind, each called from `main` with a seeded argument in each of
/// `COMPILE_PASSES` passes.
fn compile(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let mut source = String::with_capacity(1 << 21);
    let mut main = format!("def main():\n    for rep in [1 ... {COMPILE_PASSES}]:\n");
    let mut once = String::new();
    for k in 0..COMPILE_FUNCS {
        let f = Func::generate(k, &mut rng);
        let x = rng.range(0, 100);
        f.emit(k, &mut source);
        let _ = writeln!(main, "        print(f{k}({x}))");
        let _ = writeln!(once, "{}", f.eval(k, x));
    }
    source.push_str(&main);
    Case { source, expected: once.repeat(COMPILE_PASSES) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in ALL {
            let (a, b, c) = (w.generate(7), w.generate(7), w.generate(8));
            assert_eq!(a.source, b.source, "{}", w.name());
            assert_eq!(a.expected, b.expected, "{}", w.name());
            assert_ne!((a.source, a.expected), (c.source, c.expected), "{}", w.name());
        }
    }

    #[test]
    fn oracles_know_the_paper_figures() {
        // pi(100,000) = 9,592; the unscaled LCG matrix of programs::tsp(10)
        // has an optimal tour of 243.
        assert_eq!(primes(0).expected, "primes below 100000: 9592\n");
        assert_eq!(tsp(0).expected, "best tour: 243\n");
    }
}
