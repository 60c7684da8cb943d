//! # tetra-stdlib
//!
//! The Tetra standard library: the paper's "spartan" builtins (console I/O
//! and `len`, §VI) plus the richer library the paper lists as future work —
//! math, string handling, array utilities, dictionaries, and runtime
//! services (`gc`, `sleep`, `time_ms`, `thread_id`).
//!
//! The crate has two faces:
//!
//! * [`sig::check_builtin_call`] — static signatures, used by `tetra-types`;
//! * [`eval::call_builtin`] — implementations over `tetra-runtime`, used by
//!   both execution engines through [`eval::HostCtx`].
//!
//! User-defined functions shadow builtins (Fig. II of the paper defines its
//! own `sum`), so engines resolve program functions first and only then
//! consult [`registry::Builtin::lookup`].

pub mod eval;
pub mod ops;
pub mod registry;
pub mod sig;

pub use eval::{call_builtin, HostCtx};
pub use ops::OpCtx;
/// The seedable generator [`HostCtx::rng`] takes, re-exported so engines
/// need no direct `rand` dependency.
pub use rand::{rngs::StdRng, SeedableRng};
pub use registry::Builtin;
pub use sig::{check_builtin_call, compatible};
