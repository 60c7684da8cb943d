//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public function; no
//! code inside the system under test records anything. Spans are kept in
//! memory and written out once, at the end of the run. Timing always goes
//! through [`Recorder::time`], so a run with the recorder off pays only for
//! the two clock reads every measurement needs anyway.

use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub round: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub on: bool,
    pub round: usize,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            on: false,
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f`, returning its result and its wall time in seconds; when the
    /// recorder is on, also record it as a span under the innermost open
    /// one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.on.then(|| {
            let id = self.spans.len();
            let parent = self.open.last().copied();
            self.spans.push(Span { name, round: self.round, parent, start_ns: 0, end_ns: 0 });
            self.open.push(id);
            id
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            let span = &mut self.spans[id];
            span.start_ns = (start - self.origin).as_nanos() as u64;
            span.end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Durations, in seconds, of the recorded spans called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e9).collect()
    }
}
