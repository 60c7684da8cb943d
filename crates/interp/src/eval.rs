//! Expression evaluation.
//!
//! The interpreter "interprets the code by traversing the AST recursively"
//! (paper §IV). Every intermediate value that must survive a potential GC
//! point (an allocation, a call, a safepoint) is pushed onto the thread's
//! temporary root stack first. Operator semantics are shared with the VM
//! through [`tetra_stdlib::ops`].

use crate::hooks::Loc;
use crate::thread::{RootsView, ThreadCtx, MAX_CALL_DEPTH};
use tetra_ast::{BinOp, Expr, ExprKind, FuncDef, UnOp};
use tetra_intern::Symbol;
use tetra_runtime::{DictKey, Env, ErrorKind, Object, RuntimeError, Value};
use tetra_stdlib::ops;
use tetra_stdlib::Builtin;
use tetra_types::Callee;

/// Run `f` with an operator context borrowed from this thread's state.
macro_rules! with_ops {
    ($self:expr, $f:expr) => {{
        let view = RootsView { temps: &$self.temps, envs: &$self.env_stack };
        let ctx = ops::OpCtx {
            heap: &$self.shared.heap,
            mutator: &$self.mutator,
            roots: &view,
            line: $self.line,
        };
        $f(&ctx)
    }};
}

impl ThreadCtx {
    pub fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Real(v) => Ok(Value::Real(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::None => Ok(Value::None),
            ExprKind::Str(s) => Ok(self.alloc_string(s.clone())),
            ExprKind::Var(name) => {
                // Hot path: the resolver assigned this access a static
                // (frame, slot) coordinate — no hashing, no chain walk.
                if let Some((up, slot)) = self.shared.typed.resolution.coord(e.id) {
                    self.env_slot_hits += 1;
                    let env = self.current_env();
                    return match env.read_slot(up, slot) {
                        Some(v) => {
                            if self.shared.hook.is_some() {
                                let frame = self.current_env().frame_addr(up);
                                self.emit_read(Loc::Frame(frame, slot as u32), *name);
                            }
                            Ok(v)
                        }
                        None => Err(self.err(
                            ErrorKind::UndefinedVariable,
                            format!("variable `{name}` was read before any assignment"),
                        )),
                    };
                }
                self.env_dynamic_fallbacks += 1;
                let (found, walked) = self.current_env().get_located_walked(*name);
                self.env_chain_depth_walked += walked;
                match found {
                    Some((v, frame, slot)) => {
                        self.emit_read(Loc::Frame(frame, slot as u32), *name);
                        Ok(v)
                    }
                    None => Err(self.err(
                        ErrorKind::UndefinedVariable,
                        format!("variable `{name}` was read before any assignment"),
                    )),
                }
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Not => with_ops!(self, |ctx| ops::not(ctx, v)),
                    UnOp::Neg => with_ops!(self, |ctx| ops::negate(ctx, v)),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            ExprKind::Call { callee, args } => self.eval_call(e, *callee, args),
            ExprKind::Index { base, index } => {
                let mark = self.temp_mark();
                let b = self.eval(base)?;
                self.push_temp(b);
                let i = self.eval(index)?;
                let r = self.index_read(b, i);
                self.truncate_temps(mark);
                r
            }
            ExprKind::Array(items) => {
                let mark = self.temp_mark();
                for item in items {
                    let v = self.eval(item)?;
                    self.push_temp(v);
                }
                let values = self.temps[mark..].to_vec();
                let arr = Value::Obj(self.alloc(Object::array(values)));
                self.truncate_temps(mark);
                Ok(arr)
            }
            ExprKind::Range { lo, hi } => {
                let mark = self.temp_mark();
                let lo_v = self.eval(lo)?;
                self.push_temp(lo_v);
                let hi_v = self.eval(hi)?;
                self.truncate_temps(mark);
                let (Some(a), Some(b)) = (lo_v.as_int(), hi_v.as_int()) else {
                    return Err(self.err(ErrorKind::Value, "range bounds must be ints"));
                };
                const MAX_RANGE: i64 = 50_000_000;
                if b.saturating_sub(a) > MAX_RANGE {
                    return Err(self.err(
                        ErrorKind::Value,
                        format!("range [{a} ... {b}] is too large (over {MAX_RANGE} elements)"),
                    ));
                }
                let items: Vec<Value> = (a..=b).map(Value::Int).collect();
                Ok(Value::Obj(self.alloc(Object::array(items))))
            }
            ExprKind::Tuple(items) => {
                let mark = self.temp_mark();
                for item in items {
                    let v = self.eval(item)?;
                    self.push_temp(v);
                }
                let values = self.temps[mark..].to_vec();
                let t = Value::Obj(self.alloc(Object::Tuple(values)));
                self.truncate_temps(mark);
                Ok(t)
            }
            ExprKind::Dict(pairs) => {
                let mark = self.temp_mark();
                let mut entries: Vec<(DictKey, Value)> = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let kv = self.eval(k)?;
                    self.push_temp(kv);
                    let vv = self.eval(v)?;
                    self.push_temp(vv);
                    let key = kv.to_dict_key().ok_or_else(|| {
                        self.err(
                            ErrorKind::Value,
                            format!("a {} cannot be a dict key", kv.type_name()),
                        )
                    })?;
                    entries.push((key, vv));
                }
                let map = entries.into_iter().collect();
                let d = Value::Obj(self.alloc(Object::dict(map)));
                self.truncate_temps(mark);
                Ok(d)
            }
        }
    }

    /// Evaluate a condition, requiring a bool.
    pub fn eval_bool(&mut self, e: &Expr) -> Result<bool, RuntimeError> {
        match self.eval(e)? {
            Value::Bool(b) => Ok(b),
            other => Err(self.err(
                ErrorKind::Value,
                format!("condition evaluated to a {}, not a bool", other.type_name()),
            )),
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, RuntimeError> {
        // Short-circuit logical operators first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval_bool(lhs)?;
            return match (op, l) {
                (BinOp::And, false) => Ok(Value::Bool(false)),
                (BinOp::Or, true) => Ok(Value::Bool(true)),
                _ => Ok(Value::Bool(self.eval_bool(rhs)?)),
            };
        }
        let mark = self.temp_mark();
        let l = self.eval(lhs)?;
        self.push_temp(l);
        let r = self.eval(rhs)?;
        self.push_temp(r);
        let result = self.apply_binop(op, l, r);
        self.truncate_temps(mark);
        result
    }

    /// Apply a (non-logical) binary operator to evaluated operands. Also
    /// used by compound assignment.
    pub fn apply_binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
        with_ops!(self, |ctx| ops::binary(ctx, op, l, r))
    }

    pub fn index_read(&mut self, base: Value, index: Value) -> Result<Value, RuntimeError> {
        let v = with_ops!(self, |ctx| ops::index_read(ctx, base, index))?;
        if let Value::Obj(obj) = base {
            if matches!(obj.object(), Object::Array(_) | Object::Dict(_)) {
                self.emit_read(Loc::Obj(obj.addr()), Symbol::intern("[element]"));
            }
        }
        Ok(v)
    }

    pub fn index_write(
        &mut self,
        base: Value,
        index: Value,
        new: Value,
    ) -> Result<(), RuntimeError> {
        with_ops!(self, |ctx| ops::index_write(ctx, base, index, new))?;
        if let Value::Obj(obj) = base {
            self.emit_write(Loc::Obj(obj.addr()), Symbol::intern("[element]"));
        }
        Ok(())
    }

    fn eval_call(
        &mut self,
        e: &Expr,
        callee: Symbol,
        args: &[Expr],
    ) -> Result<Value, RuntimeError> {
        let mark = self.temp_mark();
        for arg in args {
            let v = self.eval(arg)?;
            self.push_temp(v);
        }
        let arg_values: Vec<Value> = self.temps[mark..].to_vec();
        let result = match self.shared.typed.callees.get(&e.id).copied() {
            Some(Callee::User(idx)) => self.call_user(idx, &arg_values),
            Some(Callee::Builtin(b)) => self.call_builtin(b, &arg_values),
            // Reachable only when running unchecked ASTs (tests); resolve
            // dynamically with the same shadowing rule.
            None => match self.shared.typed.program.func_index(callee.as_str()) {
                Some(idx) => self.call_user(idx, &arg_values),
                None => match Builtin::lookup(callee.as_str()) {
                    Some(b) => self.call_builtin(b, &arg_values),
                    None => Err(self
                        .err(ErrorKind::UndefinedFunction, format!("unknown function `{callee}`"))),
                },
            },
        };
        self.truncate_temps(mark);
        result
    }

    pub fn call_user(&mut self, idx: usize, args: &[Value]) -> Result<Value, RuntimeError> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(self.err(
                ErrorKind::Value,
                format!("call depth exceeded {MAX_CALL_DEPTH} (infinite recursion?)"),
            ));
        }
        let shared = self.shared.clone();
        let func: &FuncDef = &shared.typed.program.funcs[idx];
        debug_assert_eq!(func.params.len(), args.len());
        let layout = shared.typed.resolution.func_layout(idx);
        let env = if layout.len() >= func.params.len() {
            // Resolved layout: parameters occupy the leading slots.
            let env = Env::new_with_layout(layout);
            let frame = env.innermost();
            for (i, (p, v)) in func.params.iter().zip(args).enumerate() {
                frame.set_slot(i, ops::widen_to(&p.ty, *v));
            }
            env
        } else {
            // All-dynamic resolution (oracle/REPL): bind by name.
            let env = Env::new();
            for (p, v) in func.params.iter().zip(args) {
                env.define(p.name, ops::widen_to(&p.ty, *v));
            }
            env
        };
        self.env_stack.push(env);
        self.call_depth += 1;
        let saved_line = self.line;
        // Shadow-stack frame for attribution (flame output, allocation
        // sites, lock paths). `pushed` is latched so a mid-call toggle of
        // the session switch cannot unbalance the stack.
        let pushed = tetra_obs::attribution_enabled();
        let mut call_node = tetra_obs::stack::ROOT;
        if pushed {
            call_node = tetra_obs::stack::child(self.current_stack_node(), func.name.as_str());
            self.shadow.push(call_node);
        }
        let call_start = tetra_obs::now_ns();
        let result = self.exec_block(&func.body);
        tetra_obs::call(self.cell.id, func.name.as_str(), saved_line, call_start, call_node);
        if pushed {
            self.shadow.pop();
        }
        self.call_depth -= 1;
        self.env_stack.pop();
        self.line = saved_line;
        self.cell.set_line(saved_line);
        match result? {
            crate::exec::Flow::Return(v) => Ok(ops::widen_to(&func.ret, v)),
            _ => Ok(Value::None), // fell off the end: none
        }
    }

    fn call_builtin(&mut self, b: Builtin, args: &[Value]) -> Result<Value, RuntimeError> {
        let view = RootsView { temps: &self.temps, envs: &self.env_stack };
        let ctx = tetra_stdlib::HostCtx {
            heap: &self.shared.heap,
            mutator: &self.mutator,
            roots: &view,
            console: &self.shared.console,
            thread: Some(&self.cell),
            rng: None,
            line: self.line,
        };
        tetra_stdlib::call_builtin(b, &ctx, args)
    }
}
