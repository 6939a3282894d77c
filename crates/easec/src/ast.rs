//! Abstract syntax of the EaseIO task language.
//!
//! The surface syntax mirrors the paper's listings: `__nv` declarations,
//! tasks, `_call_IO(func, Semantics, args…)`, `_IO_block_begin/_IO_block_end`
//! (parsed into a properly nested block), `_DMA_copy(src[i], dst[j], n)`,
//! `if`/`else`, `repeat`, `next task;` and `done;`.

/// Re-execution semantics annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sem {
    /// Execute at most once per activation.
    Single,
    /// Re-execute when older than the window (milliseconds).
    Timely(u64),
    /// Re-execute after every reboot.
    Always,
}

/// An I/O function the language can invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFunc {
    /// Temperature sensor.
    Temp,
    /// Humidity sensor.
    Humd,
    /// Pressure sensor.
    Pres,
    /// Light sensor.
    Light,
    /// Accelerometer magnitude.
    Accel,
    /// Radio transmission of the argument values.
    Send,
    /// Image capture into a `__nv` array: `_call_IO(Capture, Single, img,
    /// w, h, seed)`; returns a scene checksum.
    Capture,
    /// LEA argmax over a `__lea` array: `_call_IO(Argmax, Always, buf, n)`;
    /// returns the winning index (the paper's inference layer).
    Argmax,
}

impl IoFunc {
    /// The function's name as written in source.
    pub fn name(self) -> &'static str {
        match self {
            IoFunc::Temp => "Temp",
            IoFunc::Humd => "Humd",
            IoFunc::Pres => "Pres",
            IoFunc::Light => "Light",
            IoFunc::Accel => "Accel",
            IoFunc::Send => "Send",
            IoFunc::Capture => "Capture",
            IoFunc::Argmax => "Argmax",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A `_call_IO` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct IoCall {
    /// The invoked I/O function.
    pub func: IoFunc,
    /// Annotated semantics.
    pub sem: Sem,
    /// Arguments (payload for `Send`; sensors take none).
    pub args: Vec<Expr>,
    /// Source line.
    pub line: u32,
    /// Node id assigned by semantic analysis (0 before analysis).
    pub id: u32,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Local or `__nv` scalar read.
    Var(String),
    /// `__nv` array element read.
    Index(String, Box<Expr>),
    /// Binary operation.
    Bin(Op, Box<Expr>, Box<Expr>),
    /// `_call_IO(...)` used as a value.
    CallIo(Box<IoCall>),
}

impl Expr {
    /// Nodes on the longest root-to-leaf path (a leaf is 1).
    pub(crate) fn depth(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::Var(_) => 1,
            Expr::Index(_, i) => 1 + i.depth(),
            Expr::Bin(_, l, r) => 1 + l.depth().max(r.depth()),
            Expr::CallIo(c) => 1 + c.args.iter().map(Expr::depth).max().unwrap_or(0),
        }
    }
}

/// An array element reference used as a DMA operand.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrRef {
    /// Array name.
    pub name: String,
    /// Element offset expression.
    pub index: Expr,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = expr;` — task-local (volatile) binding.
    Let {
        /// Binding name.
        name: String,
        /// Initializer.
        expr: Expr,
        /// Source line.
        line: u32,
    },
    /// `name = expr;` — assignment to a local or `__nv` scalar.
    Assign {
        /// Target name.
        name: String,
        /// Value.
        expr: Expr,
        /// Source line.
        line: u32,
    },
    /// `name[idx] = expr;` — `__nv` array element store.
    AssignIndex {
        /// Array name.
        name: String,
        /// Element offset.
        index: Expr,
        /// Value.
        expr: Expr,
        /// Source line.
        line: u32,
    },
    /// `compute(cycles);`
    Compute(Expr, u32),
    /// A `_call_IO` whose value is discarded (e.g. `Send`).
    CallIoStmt(IoCall),
    /// `_DMA_copy(src[i], dst[j], elems);`
    DmaCopy {
        /// Source reference.
        src: ArrRef,
        /// Destination reference.
        dst: ArrRef,
        /// Element count (constant).
        elems: u32,
        /// `Exclude` annotation present.
        exclude: bool,
        /// Source line.
        line: u32,
        /// Node id assigned by semantic analysis (0 before analysis).
        id: u32,
    },
    /// `_IO_block_begin(S); … _IO_block_end;` parsed as a nested block.
    IoBlock {
        /// Block semantics.
        sem: Sem,
        /// Statements inside the block.
        body: Vec<Stmt>,
        /// Source line of the begin.
        line: u32,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch (possibly empty).
        els: Vec<Stmt>,
        /// Source line.
        line: u32,
    },
    /// `repeat (i, N) { … }` — N constant iterations binding local `i`.
    Repeat {
        /// Loop-variable name.
        var: String,
        /// Iteration count.
        count: u32,
        /// Body.
        body: Vec<Stmt>,
        /// Source line.
        line: u32,
    },
    /// `lea_conv2d(input, w, h, kernel, kw, kh, out);` — LEA valid 2-D
    /// convolution over `__lea` arrays (`Always`).
    LeaConv2d {
        /// Input image array.
        input: String,
        /// Image width.
        w: u32,
        /// Image height.
        h: u32,
        /// Kernel array.
        kernel: String,
        /// Kernel width.
        kw: u32,
        /// Kernel height.
        kh: u32,
        /// Output array.
        out: String,
        /// Source line.
        line: u32,
        /// Node id assigned by semantic analysis.
        id: u32,
    },
    /// `lea_relu(buf, n);` — in-place LEA ReLU (`Always`).
    LeaRelu {
        /// Buffer array.
        buf: String,
        /// Element count.
        n: u32,
        /// Source line.
        line: u32,
        /// Node id assigned by semantic analysis.
        id: u32,
    },
    /// `lea_fc(x, n_in, weights, out, n_out);` — LEA fully-connected layer
    /// (`Always`).
    LeaFc {
        /// Input vector array.
        x: String,
        /// Input length.
        n_in: u32,
        /// Row-major weights array.
        weights: String,
        /// Output vector array.
        out: String,
        /// Output length.
        n_out: u32,
        /// Source line.
        line: u32,
        /// Node id assigned by semantic analysis.
        id: u32,
    },
    /// `lea_fir(x, h, y, n_out, taps);` — run the LEA FIR accelerator over
    /// `__lea` arrays (an `Always` peripheral operation, like the paper's
    /// LEA workloads).
    LeaFir {
        /// Input array (`__lea`, at least `n_out + taps - 1` elements).
        x: String,
        /// Coefficient array (`__lea`, at least `taps` elements).
        h: String,
        /// Output array (`__lea`, at least `n_out` elements).
        y: String,
        /// Output length.
        n_out: u32,
        /// Tap count.
        taps: u32,
        /// Source line.
        line: u32,
        /// Node id assigned by semantic analysis.
        id: u32,
    },
    /// `next task;` — commit and transfer control.
    Next(String, u32),
    /// `done;` — commit and finish the application.
    Done(u32),
}

/// Memory placement of a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclRegion {
    /// Non-volatile FRAM (`__nv`).
    Fram,
    /// Volatile LEA-RAM (`__lea`) — required for `lea_fir` operands,
    /// cleared at every power failure.
    Lea,
}

/// A `__nv`/`__lea` declaration: scalar (`len == None`) or array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvDecl {
    /// Variable name.
    pub name: String,
    /// Array length, if an array.
    pub len: Option<u32>,
    /// Placement (scalars are always FRAM).
    pub region: DeclRegion,
    /// Source line.
    pub line: u32,
}

/// A task definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task name.
    pub name: String,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line.
    pub line: u32,
}

/// A whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Non-volatile declarations.
    pub decls: Vec<NvDecl>,
    /// Tasks, in declaration order; the first is the entry task.
    pub tasks: Vec<Task>,
}
