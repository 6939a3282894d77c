//! easec — the EaseIO compiler front-end (paper §4.5).
//!
//! The original EaseIO ships a Clang LibTooling pass that rewrites annotated
//! C. This crate reproduces the front-end's *whole pipeline* on the paper's
//! task language:
//!
//! 1. [`lexer`] / [`parser`] — parse programs written with the paper's
//!    constructs verbatim: `_call_IO(name, Type, args…)`,
//!    `_IO_block_begin(Type)` / `_IO_block_end`,
//!    `_DMA_copy(src, dst, words)`, `__nv` declarations, tasks, `next`.
//! 2. [`mod@analyze`] — the semantic analysis of §4.5: number the call sites
//!    (`lock_##fn##task##num`), and infer **data dependencies** by tainting
//!    values from `_call_IO` results through locals and task-shared
//!    variables to later `_call_IO` arguments (§3.3.2) and `_DMA_copy`
//!    sources (§4.3.1, the `RelatedConstFlag` wiring) — automating what the
//!    runtime API alone leaves to the programmer.
//! 3. [`transform`] — emits the transformed source the paper's Figure 5
//!    shows: lock-flag `if` structures, private output copies, timestamps.
//!    (Documentation artifact; execution uses the same decisions via the
//!    runtime.)
//! 4. [`mod@lower`] — compiles the analyzed program into a runnable
//!    [`kernel::App`]: task bodies interpret the AST against a [`TaskCtx`],
//!    passing the inferred dependencies into `call_io_dep` /
//!    `dma_copy_annotated` automatically.
//!
//! ```
//! use easec::compile;
//! use mcu_emu::{Mcu, Supply};
//!
//! let src = r#"
//!     __nv int temp;
//!     task sense {
//!         temp = _call_IO(Temp, Timely, 10);
//!         compute(500);
//!         done;
//!     }
//! "#;
//! let mut mcu = Mcu::new(Supply::continuous());
//! let compiled = compile(src, &mut mcu).expect("compiles");
//! assert_eq!(compiled.app.tasks.len(), 1);
//! ```
//!
//! [`TaskCtx`]: kernel::TaskCtx

// The front-end's tables are keyed by identifiers from `.eio` source, which
// may be untrusted: they keep std's randomly seeded SipHash, which resists
// crafted collisions, instead of the simulator's fixed integer hasher.
#![allow(clippy::disallowed_types)]

pub mod analyze;
pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;
pub mod transform;

pub use analyze::{analyze, Analysis};
pub use ast::Program;
pub use lower::{lower, Compiled};
pub use parser::parse;

/// A front-end error with a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CompileError {}

/// Full pipeline: parse → analyze → lower onto `mcu`.
pub fn compile(source: &str, mcu: &mut mcu_emu::Mcu) -> Result<Compiled, CompileError> {
    let mut program = parse(source)?;
    let analysis = analyze(&mut program)?;
    lower(&program, &analysis, mcu)
}

/// Parse → analyze → pretty-print the Figure-5 transformation.
pub fn transform_source(source: &str) -> Result<String, CompileError> {
    let mut program = parse(source)?;
    let analysis = analyze(&mut program)?;
    Ok(transform::transform(&program, &analysis))
}
