//! Builtin implementations, shared by the interpreter and the VM.
//!
//! All of them respect the runtime's GC invariants: no allocation while an
//! object lock is held, blocking reads/sleeps run inside GC safe regions,
//! and every intermediate allocation is rooted before the next one.

use crate::registry::Builtin;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;
use tetra_runtime::{
    ConsoleRef, DictKey, ErrorKind, Heap, MutatorGuard, Object, RootSink, RootSource, RuntimeError,
    ThreadCell, ThreadState, Value,
};

/// Everything a builtin needs from its host engine.
pub struct HostCtx<'a> {
    pub heap: &'a Arc<Heap>,
    pub mutator: &'a MutatorGuard,
    /// The calling thread's live roots (must already cover `args`).
    pub roots: &'a dyn RootSource,
    pub console: &'a ConsoleRef,
    /// The Tetra thread cell, when running under an engine that tracks one.
    pub thread: Option<&'a Arc<ThreadCell>>,
    /// The generator behind `random()`/`rand_int()`: a fixed-seed one for
    /// reproducible runs, or `None` for the clock-seeded `thread_rng()`.
    pub rng: Option<&'a RefCell<StdRng>>,
    /// Source line of the call (for errors).
    pub line: u32,
}

/// Chain extra values in front of another root source (roots intermediate
/// allocations inside builtins).
struct WithValues<'a> {
    inner: &'a dyn RootSource,
    extra: &'a [Value],
}

impl RootSource for WithValues<'_> {
    fn roots(&self, sink: &mut RootSink) {
        self.inner.roots(sink);
        for v in self.extra {
            sink.value(*v);
        }
    }
}

/// Draw from the host's generator (see [`HostCtx::rng`]).
fn draw<T>(ctx: &HostCtx, f: impl FnOnce(&mut StdRng) -> T) -> T {
    match ctx.rng {
        Some(rng) => f(&mut rng.borrow_mut()),
        None => f(&mut rand::thread_rng()),
    }
}

fn verr(ctx: &HostCtx, msg: impl Into<String>) -> RuntimeError {
    RuntimeError::new(ErrorKind::Value, msg, ctx.line)
}

fn internal(ctx: &HostCtx, b: Builtin, what: &str) -> RuntimeError {
    RuntimeError::new(
        ErrorKind::Value,
        format!("{}: unexpected {what} (type checker should have rejected this)", b.name()),
        ctx.line,
    )
}

fn num(ctx: &HostCtx, b: Builtin, v: &Value) -> Result<f64, RuntimeError> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Real(r) => Ok(*r),
        _ => Err(internal(ctx, b, "non-numeric argument")),
    }
}

fn int(ctx: &HostCtx, b: Builtin, v: &Value) -> Result<i64, RuntimeError> {
    v.as_int().ok_or_else(|| internal(ctx, b, "non-int argument"))
}

fn string<'v>(ctx: &HostCtx, b: Builtin, v: &'v Value) -> Result<&'v str, RuntimeError> {
    v.as_str().ok_or_else(|| internal(ctx, b, "non-string argument"))
}

fn array_ref<'v>(
    ctx: &HostCtx,
    b: Builtin,
    v: &'v Value,
) -> Result<&'v parking_lot::Mutex<Vec<Value>>, RuntimeError> {
    match v {
        Value::Obj(r) => match r.object() {
            Object::Array(m) => Ok(m),
            _ => Err(internal(ctx, b, "non-array argument")),
        },
        _ => Err(internal(ctx, b, "non-array argument")),
    }
}

fn dict_ref<'v>(
    ctx: &HostCtx,
    b: Builtin,
    v: &'v Value,
) -> Result<&'v parking_lot::Mutex<std::collections::HashMap<DictKey, Value>>, RuntimeError> {
    match v {
        Value::Obj(r) => match r.object() {
            Object::Dict(m) => Ok(m),
            _ => Err(internal(ctx, b, "non-dict argument")),
        },
        _ => Err(internal(ctx, b, "non-dict argument")),
    }
}

/// Total order on scalar/string values for `sort` (checker guarantees the
/// element type is ordered).
fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Real(x), Value::Real(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Int(x), Value::Real(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Real(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        _ => match (a.as_str(), b.as_str()) {
            (Some(x), Some(y)) => x.cmp(y),
            _ => Ordering::Equal,
        },
    }
}

/// Program-start reference point for `time_ms()`.
static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Run a blocking console read inside a GC safe region with the thread
/// state set for the debugger.
fn blocking_read(ctx: &HostCtx) -> Option<String> {
    if let Some(t) = ctx.thread {
        t.set_state(ThreadState::WaitingInput);
    }
    let line = ctx.heap.safe_region(ctx.mutator, ctx.roots, || ctx.console.read_line());
    if let Some(t) = ctx.thread {
        t.set_state(ThreadState::Running);
    }
    line
}

fn read_parsed<T: std::str::FromStr>(ctx: &HostCtx, what: &str) -> Result<T, RuntimeError> {
    match blocking_read(ctx) {
        None => Err(RuntimeError::new(
            ErrorKind::Io,
            format!("end of input while reading {what}"),
            ctx.line,
        )),
        Some(line) => line
            .trim()
            .parse::<T>()
            .map_err(|_| verr(ctx, format!("could not read {what} from input `{}`", line.trim()))),
    }
}

/// Execute builtin `b` with `args`. Argument types were validated
/// statically; dynamic errors here are genuine runtime conditions.
pub fn call_builtin(b: Builtin, ctx: &HostCtx, args: &[Value]) -> Result<Value, RuntimeError> {
    use Builtin::*;
    match b {
        // ---- I/O ----
        Print => {
            let mut out = String::new();
            for v in args {
                out.push_str(&v.display());
            }
            out.push('\n');
            ctx.console.write(&out);
            Ok(Value::None)
        }
        ReadInt => read_parsed::<i64>(ctx, "an integer").map(Value::Int),
        ReadReal => read_parsed::<f64>(ctx, "a real").map(Value::Real),
        ReadString => match blocking_read(ctx) {
            None => Err(RuntimeError::new(
                ErrorKind::Io,
                "end of input while reading a string",
                ctx.line,
            )),
            Some(line) => Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, line)),
        },
        ReadBool => match blocking_read(ctx) {
            None => {
                Err(RuntimeError::new(ErrorKind::Io, "end of input while reading a bool", ctx.line))
            }
            Some(line) => match line.trim() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                other => Err(verr(ctx, format!("could not read a bool from input `{other}`"))),
            },
        },

        // ---- core ----
        Len => match &args[0] {
            Value::Obj(r) => Ok(Value::Int(match r.object() {
                Object::Str(s) => s.chars().count() as i64,
                Object::Array(items) => items.lock().len() as i64,
                Object::Dict(map) => map.lock().len() as i64,
                Object::Tuple(items) => items.len() as i64,
            })),
            _ => Err(internal(ctx, b, "unsized value")),
        },

        // ---- math ----
        Abs => match &args[0] {
            Value::Int(v) => v
                .checked_abs()
                .map(Value::Int)
                .ok_or_else(|| RuntimeError::new(ErrorKind::Overflow, "abs overflowed", ctx.line)),
            Value::Real(v) => Ok(Value::Real(v.abs())),
            _ => Err(internal(ctx, b, "non-numeric argument")),
        },
        Min | Max => {
            let pick_first = matches!(
                (cmp_values(&args[0], &args[1]), b),
                (std::cmp::Ordering::Less, Min)
                    | (std::cmp::Ordering::Greater, Max)
                    | (std::cmp::Ordering::Equal, _)
            );
            let v = if pick_first { args[0] } else { args[1] };
            // int op int stays int; anything else becomes real.
            match (args[0], args[1]) {
                (Value::Int(_), Value::Int(_)) => Ok(v),
                _ => Ok(Value::Real(num(ctx, b, &v)?)),
            }
        }
        Sqrt => {
            let x = num(ctx, b, &args[0])?;
            if x < 0.0 {
                return Err(verr(ctx, format!("sqrt of negative number {x}")));
            }
            Ok(Value::Real(x.sqrt()))
        }
        Pow => match (args[0], args[1]) {
            (Value::Int(base), Value::Int(exp)) => {
                if exp < 0 {
                    return Err(verr(
                        ctx,
                        "pow(int, int) needs a non-negative exponent; use real arguments",
                    ));
                }
                let exp: u32 = exp.try_into().map_err(|_| {
                    RuntimeError::new(ErrorKind::Overflow, "pow exponent too large", ctx.line)
                })?;
                base.checked_pow(exp).map(Value::Int).ok_or_else(|| {
                    RuntimeError::new(ErrorKind::Overflow, "pow overflowed", ctx.line)
                })
            }
            (a, e) => Ok(Value::Real(num(ctx, b, &a)?.powf(num(ctx, b, &e)?))),
        },
        Floor => Ok(Value::Int(num(ctx, b, &args[0])?.floor() as i64)),
        Ceil => Ok(Value::Int(num(ctx, b, &args[0])?.ceil() as i64)),
        Round => Ok(Value::Int(num(ctx, b, &args[0])?.round() as i64)),
        Sin => Ok(Value::Real(num(ctx, b, &args[0])?.sin())),
        Cos => Ok(Value::Real(num(ctx, b, &args[0])?.cos())),
        Tan => Ok(Value::Real(num(ctx, b, &args[0])?.tan())),
        Log => {
            let x = num(ctx, b, &args[0])?;
            if x <= 0.0 {
                return Err(verr(ctx, format!("log of non-positive number {x}")));
            }
            Ok(Value::Real(x.ln()))
        }
        Exp => Ok(Value::Real(num(ctx, b, &args[0])?.exp())),
        Random => Ok(Value::Real(draw(ctx, |rng| rng.gen::<f64>()))),
        RandInt => {
            let lo = int(ctx, b, &args[0])?;
            let hi = int(ctx, b, &args[1])?;
            if lo > hi {
                return Err(verr(ctx, format!("rand_int range is empty: {lo} > {hi}")));
            }
            Ok(Value::Int(draw(ctx, |rng| rng.gen_range(lo..=hi))))
        }

        // ---- conversions ----
        ToStr => Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, args[0].display())),
        ToInt => match &args[0] {
            Value::Int(v) => Ok(Value::Int(*v)),
            Value::Real(v) => Ok(Value::Int(*v as i64)),
            Value::Bool(v) => Ok(Value::Int(*v as i64)),
            v => {
                let s = string(ctx, b, v)?;
                s.trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| verr(ctx, format!("int() cannot parse `{}`", s.trim())))
            }
        },
        ToReal => match &args[0] {
            Value::Int(v) => Ok(Value::Real(*v as f64)),
            Value::Real(v) => Ok(Value::Real(*v)),
            v => {
                let s = string(ctx, b, v)?;
                s.trim()
                    .parse::<f64>()
                    .map(Value::Real)
                    .map_err(|_| verr(ctx, format!("real() cannot parse `{}`", s.trim())))
            }
        },

        // ---- strings ----
        Upper => {
            let s = string(ctx, b, &args[0])?.to_uppercase();
            Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, s))
        }
        Lower => {
            let s = string(ctx, b, &args[0])?.to_lowercase();
            Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, s))
        }
        Trim => {
            let s = string(ctx, b, &args[0])?.trim().to_string();
            Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, s))
        }
        Substr => {
            let s = string(ctx, b, &args[0])?;
            let start = int(ctx, b, &args[1])?;
            let count = int(ctx, b, &args[2])?;
            if start < 0 || count < 0 {
                return Err(verr(ctx, "substr start and length must be non-negative"));
            }
            let sub: String = s.chars().skip(start as usize).take(count as usize).collect();
            Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, sub))
        }
        Find => {
            let hay = string(ctx, b, &args[0])?;
            let needle = string(ctx, b, &args[1])?;
            match hay.find(needle) {
                // Report a character index, consistent with substr/len.
                Some(byte_idx) => Ok(Value::Int(hay[..byte_idx].chars().count() as i64)),
                None => Ok(Value::Int(-1)),
            }
        }
        Split => {
            let s = string(ctx, b, &args[0])?;
            let sep = string(ctx, b, &args[1])?;
            let parts: Vec<String> = if sep.is_empty() {
                s.chars().map(|c| c.to_string()).collect()
            } else {
                s.split(sep).map(|p| p.to_string()).collect()
            };
            let mut values: Vec<Value> = Vec::with_capacity(parts.len());
            for part in parts {
                let rooted = WithValues { inner: ctx.roots, extra: &values };
                let v = ctx.heap.alloc_str(ctx.mutator, &rooted, part);
                values.push(v);
            }
            let rooted = WithValues { inner: ctx.roots, extra: &values };
            Ok(ctx.heap.alloc_array(ctx.mutator, &rooted, values.clone()))
        }
        Join => {
            let sep = string(ctx, b, &args[1])?.to_string();
            let parts = array_ref(ctx, b, &args[0])?;
            // Copy handles out so the array lock is not held while rendering.
            let items: Vec<Value> = parts.lock().clone();
            let mut out = String::new();
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(&sep);
                }
                out.push_str(string(ctx, b, item)?);
            }
            Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, out))
        }
        Replace => {
            let s = string(ctx, b, &args[0])?;
            let from = string(ctx, b, &args[1])?;
            let to = string(ctx, b, &args[2])?;
            if from.is_empty() {
                return Err(verr(ctx, "replace() pattern must not be empty"));
            }
            let out = s.replace(from, to);
            Ok(ctx.heap.alloc_str(ctx.mutator, ctx.roots, out))
        }
        StartsWith => {
            Ok(Value::Bool(string(ctx, b, &args[0])?.starts_with(string(ctx, b, &args[1])?)))
        }
        EndsWith => Ok(Value::Bool(string(ctx, b, &args[0])?.ends_with(string(ctx, b, &args[1])?))),

        // ---- arrays ----
        Append => {
            array_ref(ctx, b, &args[0])?.lock().push(args[1]);
            Ok(Value::None)
        }
        Pop => {
            let popped = array_ref(ctx, b, &args[0])?.lock().pop();
            popped.ok_or_else(|| {
                RuntimeError::new(ErrorKind::IndexOutOfBounds, "pop from an empty array", ctx.line)
            })
        }
        Insert => {
            let idx = int(ctx, b, &args[1])?;
            let arr = array_ref(ctx, b, &args[0])?;
            let mut items = arr.lock();
            if idx < 0 || idx as usize > items.len() {
                let len = items.len();
                return Err(RuntimeError::new(
                    ErrorKind::IndexOutOfBounds,
                    format!("insert index {idx} out of bounds for array of length {len}"),
                    ctx.line,
                ));
            }
            items.insert(idx as usize, args[2]);
            Ok(Value::None)
        }
        RemoveAt => {
            let idx = int(ctx, b, &args[1])?;
            let arr = array_ref(ctx, b, &args[0])?;
            let mut items = arr.lock();
            if idx < 0 || idx as usize >= items.len() {
                let len = items.len();
                return Err(RuntimeError::new(
                    ErrorKind::IndexOutOfBounds,
                    format!("remove_at index {idx} out of bounds for array of length {len}"),
                    ctx.line,
                ));
            }
            Ok(items.remove(idx as usize))
        }
        Clear => {
            array_ref(ctx, b, &args[0])?.lock().clear();
            Ok(Value::None)
        }
        Sort => {
            array_ref(ctx, b, &args[0])?.lock().sort_by(cmp_values);
            Ok(Value::None)
        }
        Reverse => {
            array_ref(ctx, b, &args[0])?.lock().reverse();
            Ok(Value::None)
        }
        IndexOf => {
            let items = array_ref(ctx, b, &args[0])?.lock();
            for (i, v) in items.iter().enumerate() {
                if v.tetra_eq(&args[1]) {
                    return Ok(Value::Int(i as i64));
                }
            }
            Ok(Value::Int(-1))
        }
        Contains => match &args[0] {
            v if v.as_str().is_some() => {
                let hay = string(ctx, b, v)?;
                let needle = string(ctx, b, &args[1])?;
                Ok(Value::Bool(hay.contains(needle)))
            }
            v => {
                let items = array_ref(ctx, b, v)?.lock();
                Ok(Value::Bool(items.iter().any(|x| x.tetra_eq(&args[1]))))
            }
        },
        Copy => {
            let items: Vec<Value> = array_ref(ctx, b, &args[0])?.lock().clone();
            Ok(ctx.heap.alloc_array(ctx.mutator, ctx.roots, items))
        }
        Sum => {
            let items = array_ref(ctx, b, &args[0])?.lock().clone();
            let mut int_total: i64 = 0;
            let mut real_total: f64 = 0.0;
            let mut is_real = false;
            for item in &items {
                match item {
                    Value::Int(v) => {
                        int_total = int_total.checked_add(*v).ok_or_else(|| {
                            RuntimeError::new(ErrorKind::Overflow, "sum overflowed", ctx.line)
                        })?;
                    }
                    Value::Real(v) => {
                        is_real = true;
                        real_total += v;
                    }
                    other => return Err(internal(ctx, b, other.type_name())),
                }
            }
            if is_real {
                Ok(Value::Real(real_total + int_total as f64))
            } else {
                Ok(Value::Int(int_total))
            }
        }
        MinOf | MaxOf => {
            let items = array_ref(ctx, b, &args[0])?.lock().clone();
            if items.is_empty() {
                return Err(RuntimeError::new(
                    ErrorKind::Value,
                    format!("{}() of an empty array", b.name()),
                    ctx.line,
                ));
            }
            let mut best = items[0];
            for item in &items[1..] {
                let ord = cmp_values(item, &best);
                let better = if b == MinOf {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if better {
                    best = *item;
                }
            }
            Ok(best)
        }
        Fill => {
            let n = int(ctx, b, &args[0])?;
            if n < 0 {
                return Err(verr(ctx, format!("fill length must be non-negative, got {n}")));
            }
            Ok(ctx.heap.alloc_array(ctx.mutator, ctx.roots, vec![args[1]; n as usize]))
        }

        // ---- dicts ----
        Keys => {
            let keys: Vec<DictKey> = {
                let map = dict_ref(ctx, b, &args[0])?.lock();
                let mut ks: Vec<DictKey> = map.keys().cloned().collect();
                ks.sort(); // deterministic order for students and tests
                ks
            };
            let mut values: Vec<Value> = Vec::with_capacity(keys.len());
            for k in keys {
                let v = match k {
                    DictKey::Int(i) => Value::Int(i),
                    DictKey::Bool(x) => Value::Bool(x),
                    DictKey::Str(s) => {
                        let rooted = WithValues { inner: ctx.roots, extra: &values };
                        ctx.heap.alloc_str(ctx.mutator, &rooted, s)
                    }
                };
                values.push(v);
            }
            let rooted = WithValues { inner: ctx.roots, extra: &values };
            Ok(ctx.heap.alloc_array(ctx.mutator, &rooted, values.clone()))
        }
        Values => {
            let vals: Vec<Value> = {
                let map = dict_ref(ctx, b, &args[0])?.lock();
                let mut entries: Vec<(DictKey, Value)> =
                    map.iter().map(|(k, v)| (k.clone(), *v)).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                entries.into_iter().map(|(_, v)| v).collect()
            };
            // `vals` are rooted through the dict itself (in caller's roots).
            Ok(ctx.heap.alloc_array(ctx.mutator, ctx.roots, vals))
        }
        HasKey => {
            let key = args[1].to_dict_key().ok_or_else(|| internal(ctx, b, "unhashable key"))?;
            Ok(Value::Bool(dict_ref(ctx, b, &args[0])?.lock().contains_key(&key)))
        }
        RemoveKey => {
            let key = args[1].to_dict_key().ok_or_else(|| internal(ctx, b, "unhashable key"))?;
            Ok(Value::Bool(dict_ref(ctx, b, &args[0])?.lock().remove(&key).is_some()))
        }

        // ---- runtime services ----
        Gc => {
            ctx.heap.collect_now(ctx.mutator, ctx.roots);
            Ok(Value::None)
        }
        Sleep => {
            let ms = int(ctx, b, &args[0])?;
            if ms < 0 {
                return Err(verr(ctx, "sleep duration must be non-negative"));
            }
            ctx.heap.safe_region(ctx.mutator, ctx.roots, || {
                std::thread::sleep(std::time::Duration::from_millis(ms as u64));
            });
            Ok(Value::None)
        }
        TimeMs => {
            let epoch = EPOCH.get_or_init(Instant::now);
            Ok(Value::Int(epoch.elapsed().as_millis() as i64))
        }
        ThreadId => Ok(Value::Int(ctx.thread.map(|t| t.id as i64).unwrap_or(0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_runtime::{BufferConsole, HeapConfig};

    /// Test host: every value it hands out stays rooted in `kept`, mimicking
    /// an engine whose temporaries live on a rooted stack.
    struct Host {
        heap: Arc<Heap>,
        console: Arc<BufferConsole>,
        kept: parking_lot::Mutex<Vec<Value>>,
    }

    struct KeptRoots<'a>(&'a Host, &'a [Value]);
    impl RootSource for KeptRoots<'_> {
        fn roots(&self, sink: &mut RootSink) {
            for v in self.0.kept.lock().iter() {
                sink.value(*v);
            }
            for v in self.1 {
                sink.value(*v);
            }
        }
    }

    impl Host {
        fn new() -> Host {
            Host {
                heap: Heap::new(HeapConfig::default()),
                console: BufferConsole::new(),
                kept: parking_lot::Mutex::new(Vec::new()),
            }
        }

        fn call(&self, b: Builtin, args: &[Value]) -> Result<Value, RuntimeError> {
            let m = self.heap.register_mutator();
            let console: ConsoleRef = self.console.clone();
            let ctx = HostCtx {
                heap: &self.heap,
                mutator: &m,
                roots: &KeptRoots(self, args),
                console: &console,
                thread: None,
                rng: None,
                line: 1,
            };
            let result = call_builtin(b, &ctx, args);
            if let Ok(v) = &result {
                self.kept.lock().push(*v);
            }
            result
        }

        fn str_val(&self, s: &str) -> Value {
            let m = self.heap.register_mutator();
            let v = self.heap.alloc_str(&m, &KeptRoots(self, &[]), s);
            self.kept.lock().push(v);
            v
        }

        fn arr_val(&self, items: Vec<Value>) -> Value {
            let m = self.heap.register_mutator();
            let v = self.heap.alloc_array(&m, &KeptRoots(self, &items), items.clone());
            self.kept.lock().push(v);
            v
        }
    }

    #[test]
    fn print_concatenates_and_appends_newline() {
        let h = Host::new();
        let s = h.str_val("! = ");
        h.call(Builtin::Print, &[Value::Int(5), s, Value::Int(120)]).unwrap();
        assert_eq!(h.console.output(), "5! = 120\n");
    }

    #[test]
    fn read_int_parses_and_errors() {
        let h = Host::new();
        h.console.push_input(" 42 ");
        assert!(matches!(h.call(Builtin::ReadInt, &[]), Ok(Value::Int(42))));
        h.console.push_input("not a number");
        let err = h.call(Builtin::ReadInt, &[]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Value);
        // Exhausted input is an Io error.
        let err = h.call(Builtin::ReadInt, &[]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Io);
    }

    #[test]
    fn len_counts_chars_and_elements() {
        let h = Host::new();
        let s = h.str_val("héllo");
        assert!(matches!(h.call(Builtin::Len, &[s]), Ok(Value::Int(5))));
        let a = h.arr_val(vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(h.call(Builtin::Len, &[a]), Ok(Value::Int(2))));
    }

    #[test]
    fn math_builtins() {
        let h = Host::new();
        assert!(matches!(h.call(Builtin::Abs, &[Value::Int(-5)]), Ok(Value::Int(5))));
        assert!(
            matches!(h.call(Builtin::Sqrt, &[Value::Real(9.0)]), Ok(Value::Real(x)) if x == 3.0)
        );
        assert!(h.call(Builtin::Sqrt, &[Value::Real(-1.0)]).is_err());
        assert!(matches!(
            h.call(Builtin::Pow, &[Value::Int(2), Value::Int(10)]),
            Ok(Value::Int(1024))
        ));
        assert!(matches!(h.call(Builtin::Floor, &[Value::Real(2.9)]), Ok(Value::Int(2))));
        assert!(matches!(h.call(Builtin::Ceil, &[Value::Real(2.1)]), Ok(Value::Int(3))));
        assert!(matches!(h.call(Builtin::Min, &[Value::Int(3), Value::Int(7)]), Ok(Value::Int(3))));
        assert!(matches!(
            h.call(Builtin::Max, &[Value::Int(3), Value::Real(7.5)]),
            Ok(Value::Real(x)) if x == 7.5
        ));
    }

    #[test]
    fn pow_overflow_and_negative_exponent() {
        let h = Host::new();
        let err = h.call(Builtin::Pow, &[Value::Int(2), Value::Int(-1)]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Value);
        let err = h.call(Builtin::Pow, &[Value::Int(10), Value::Int(60)]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Overflow);
    }

    #[test]
    fn conversions() {
        let h = Host::new();
        let s = h.call(Builtin::ToStr, &[Value::Real(2.5)]).unwrap();
        assert_eq!(s.as_str(), Some("2.5"));
        let n = h.str_val(" -7 ");
        assert!(matches!(h.call(Builtin::ToInt, &[n]), Ok(Value::Int(-7))));
        assert!(matches!(h.call(Builtin::ToInt, &[Value::Real(3.9)]), Ok(Value::Int(3))));
        let bad = h.str_val("zz");
        assert!(h.call(Builtin::ToInt, &[bad]).is_err());
        assert!(
            matches!(h.call(Builtin::ToReal, &[Value::Int(2)]), Ok(Value::Real(x)) if x == 2.0)
        );
    }

    #[test]
    fn string_builtins() {
        let h = Host::new();
        let s = h.str_val("  Hello World  ");
        assert_eq!(h.call(Builtin::Trim, &[s]).unwrap().as_str(), Some("Hello World"));
        let s = h.str_val("abc");
        assert_eq!(h.call(Builtin::Upper, &[s]).unwrap().as_str(), Some("ABC"));
        let hay = h.str_val("hello world");
        let needle = h.str_val("world");
        assert!(matches!(h.call(Builtin::Find, &[hay, needle]), Ok(Value::Int(6))));
        let hay = h.str_val("hello");
        let needle = h.str_val("xyz");
        assert!(matches!(h.call(Builtin::Find, &[hay, needle]), Ok(Value::Int(-1))));
        let s = h.str_val("a,b,c");
        let sep = h.str_val(",");
        let parts = h.call(Builtin::Split, &[s, sep]).unwrap();
        assert_eq!(parts.display(), "[\"a\", \"b\", \"c\"]");
        let sep2 = h.str_val("-");
        let joined = h.call(Builtin::Join, &[parts, sep2]).unwrap();
        assert_eq!(joined.as_str(), Some("a-b-c"));
        let s = h.str_val("abcdef");
        let sub = h.call(Builtin::Substr, &[s, Value::Int(2), Value::Int(3)]).unwrap();
        assert_eq!(sub.as_str(), Some("cde"));
    }

    #[test]
    fn array_builtins() {
        let h = Host::new();
        let a = h.arr_val(vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
        h.call(Builtin::Append, &[a, Value::Int(9)]).unwrap();
        assert!(matches!(h.call(Builtin::Len, &[a]), Ok(Value::Int(4))));
        h.call(Builtin::Sort, &[a]).unwrap();
        assert_eq!(a.display(), "[1, 2, 3, 9]");
        h.call(Builtin::Reverse, &[a]).unwrap();
        assert_eq!(a.display(), "[9, 3, 2, 1]");
        assert!(matches!(h.call(Builtin::IndexOf, &[a, Value::Int(2)]), Ok(Value::Int(2))));
        assert!(matches!(h.call(Builtin::Contains, &[a, Value::Int(42)]), Ok(Value::Bool(false))));
        let popped = h.call(Builtin::Pop, &[a]).unwrap();
        assert!(matches!(popped, Value::Int(1)));
        let removed = h.call(Builtin::RemoveAt, &[a, Value::Int(0)]).unwrap();
        assert!(matches!(removed, Value::Int(9)));
        h.call(Builtin::Clear, &[a]).unwrap();
        assert!(matches!(h.call(Builtin::Len, &[a]), Ok(Value::Int(0))));
        let err = h.call(Builtin::Pop, &[a]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::IndexOutOfBounds);
    }

    #[test]
    fn fill_and_copy_are_independent() {
        let h = Host::new();
        let a = h.call(Builtin::Fill, &[Value::Int(3), Value::Int(7)]).unwrap();
        assert_eq!(a.display(), "[7, 7, 7]");
        let b = h.call(Builtin::Copy, &[a]).unwrap();
        h.call(Builtin::Append, &[b, Value::Int(8)]).unwrap();
        assert_eq!(a.display(), "[7, 7, 7]");
        assert_eq!(b.display(), "[7, 7, 7, 8]");
    }

    #[test]
    fn sort_strings() {
        let h = Host::new();
        let b1 = h.str_val("banana");
        let a1 = h.str_val("apple");
        let arr = h.arr_val(vec![b1, a1]);
        h.call(Builtin::Sort, &[arr]).unwrap();
        assert_eq!(arr.display(), "[\"apple\", \"banana\"]");
    }

    #[test]
    fn split_survives_gc_stress() {
        let h = Host::new();
        h.heap.set_stress(true);
        let s = h.str_val("x,y,z,w");
        let sep = h.str_val(",");
        let parts = h.call(Builtin::Split, &[s, sep]).unwrap();
        assert_eq!(parts.display(), "[\"x\", \"y\", \"z\", \"w\"]");
    }

    #[test]
    fn gc_builtin_collects() {
        let h = Host::new();
        let _garbage = h.str_val("dead");
        h.call(Builtin::Gc, &[]).unwrap();
        assert!(h.heap.stats().collections >= 1);
    }

    #[test]
    fn rand_int_respects_bounds() {
        let h = Host::new();
        for _ in 0..50 {
            let v = h
                .call(Builtin::RandInt, &[Value::Int(2), Value::Int(4)])
                .unwrap()
                .as_int()
                .unwrap();
            assert!((2..=4).contains(&v));
        }
        assert!(h.call(Builtin::RandInt, &[Value::Int(5), Value::Int(2)]).is_err());
    }

    #[test]
    fn time_ms_is_monotonic() {
        let h = Host::new();
        let t1 = h.call(Builtin::TimeMs, &[]).unwrap().as_int().unwrap();
        let t2 = h.call(Builtin::TimeMs, &[]).unwrap().as_int().unwrap();
        assert!(t2 >= t1);
    }

    #[test]
    fn dict_builtins() {
        let h = Host::new();
        let k = h.str_val("alpha");
        let v = h.str_val("first");
        let key = k.to_dict_key().unwrap();
        // Register the allocating mutator in a scope: holding it across
        // h.call() would be a second mutator on this OS thread, and a
        // stress collection inside the call would deadlock waiting for it.
        let d = {
            let m = h.heap.register_mutator();
            Value::Obj(h.heap.alloc(
                &m,
                &KeptRoots(&h, &[v]),
                tetra_runtime::Object::dict([(key, v)].into_iter().collect()),
            ))
        };
        h.kept.lock().push(d);
        // has_key / remove_key round trip.
        assert!(matches!(h.call(Builtin::HasKey, &[d, k]), Ok(Value::Bool(true))));
        let beta = h.str_val("beta");
        assert!(matches!(h.call(Builtin::HasKey, &[d, beta]), Ok(Value::Bool(false))));
        // keys and values come out sorted and aligned.
        let ks = h.call(Builtin::Keys, &[d]).unwrap();
        assert_eq!(ks.display(), "[\"alpha\"]");
        let vs = h.call(Builtin::Values, &[d]).unwrap();
        assert_eq!(vs.display(), "[\"first\"]");
        assert!(matches!(h.call(Builtin::RemoveKey, &[d, k]), Ok(Value::Bool(true))));
        assert!(matches!(h.call(Builtin::RemoveKey, &[d, k]), Ok(Value::Bool(false))));
        assert!(matches!(h.call(Builtin::Len, &[d]), Ok(Value::Int(0))));
    }

    #[test]
    fn keys_survive_gc_stress() {
        let h = Host::new();
        h.heap.set_stress(true);
        let mut map = std::collections::HashMap::new();
        for i in 0..8 {
            map.insert(tetra_runtime::DictKey::Str(format!("key{i}")), Value::Int(i));
        }
        // Scope the mutator (see dict_builtins): two live mutators on one
        // OS thread deadlock a stress collection.
        let d = {
            let m = h.heap.register_mutator();
            Value::Obj(h.heap.alloc(&m, &KeptRoots(&h, &[]), tetra_runtime::Object::dict(map)))
        };
        h.kept.lock().push(d);
        let ks = h.call(Builtin::Keys, &[d]).unwrap();
        assert_eq!(
            ks.display(),
            "[\"key0\", \"key1\", \"key2\", \"key3\", \"key4\", \"key5\", \"key6\", \"key7\"]"
        );
    }

    #[test]
    fn string_predicates() {
        let h = Host::new();
        let s = h.str_val("hello world");
        let pre = h.str_val("hello");
        let suf = h.str_val("world");
        assert!(matches!(h.call(Builtin::StartsWith, &[s, pre]), Ok(Value::Bool(true))));
        assert!(matches!(h.call(Builtin::EndsWith, &[s, suf]), Ok(Value::Bool(true))));
        assert!(matches!(h.call(Builtin::Contains, &[s, suf]), Ok(Value::Bool(true))));
        let from = h.str_val("l");
        let to = h.str_val("L");
        let replaced = h.call(Builtin::Replace, &[s, from, to]).unwrap();
        assert_eq!(replaced.as_str(), Some("heLLo worLd"));
    }

    #[test]
    fn insert_and_remove_at_bounds() {
        let h = Host::new();
        let a = h.arr_val(vec![Value::Int(1), Value::Int(3)]);
        h.call(Builtin::Insert, &[a, Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(a.display(), "[1, 2, 3]");
        let err = h.call(Builtin::Insert, &[a, Value::Int(9), Value::Int(0)]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::IndexOutOfBounds);
        let err = h.call(Builtin::RemoveAt, &[a, Value::Int(-1)]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::IndexOutOfBounds);
    }
}
