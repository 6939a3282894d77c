//! Recursive-descent parser for the EaseIO task language.

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};
use crate::CompileError;

/// Deepest nesting the front-end accepts, counting statements inside
/// statements, parenthesised and unary sub-expressions, and binary
/// operator chains together. Analysis, lowering and the lowered program's
/// interpreter all recurse once per level, so this bound is what keeps a
/// hostile program from overflowing their stacks.
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Statements and atoms currently being parsed.
    depth: usize,
}

/// Parses a program. Nesting deeper than [`MAX_NESTING`] is a compile
/// error.
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

impl Parser {
    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.line)
            .unwrap_or(1)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn too_deep<T>(&self) -> Result<T, CompileError> {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `parse` one nesting level deeper, refusing past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth == MAX_NESTING {
            return self.too_deep();
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    /// A binary node, refused if the tree it tops would nest past
    /// [`MAX_NESTING`] (operator chains build trees without recursing).
    fn bin(&self, op: Op, lhs: Expr, rhs: Expr) -> Result<Expr, CompileError> {
        let e = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        if self.depth + e.depth() > MAX_NESTING {
            return self.too_deep();
        }
        Ok(e)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: Tok) -> Result<(), CompileError> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected {tok:?}, found {other:?}"))
            }
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn int(&mut self) -> Result<i64, CompileError> {
        match self.next() {
            Some(Tok::Int(n)) => Ok(n),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected integer, found {other:?}"))
            }
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut decls = Vec::new();
        let mut tasks = Vec::new();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Ident(k) if k == "__nv" || k == "__lea" => {
                    decls.push(self.nv_decl()?);
                }
                Tok::Ident(k) if k == "task" || k == "Task" => {
                    tasks.push(self.task()?);
                }
                other => {
                    return self.err(format!(
                        "expected `__nv`, `__lea` or `task`, found {other:?}"
                    ))
                }
            }
        }
        if tasks.is_empty() {
            return self.err("program has no tasks");
        }
        Ok(Program { decls, tasks })
    }

    fn nv_decl(&mut self) -> Result<NvDecl, CompileError> {
        let line = self.line();
        let kw = self.ident()?; // __nv or __lea
        let region = if kw == "__lea" {
            DeclRegion::Lea
        } else {
            DeclRegion::Fram
        };
        // Optional C-style type keyword, per the paper's listings.
        if matches!(self.peek(), Some(Tok::Ident(k)) if k == "int" || k == "bool") {
            self.next();
        }
        let name = self.ident()?;
        let len = if self.eat(&Tok::LBracket) {
            let n = self.int()?;
            self.expect(Tok::RBracket)?;
            Some(n as u32)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        if region == DeclRegion::Lea && len.is_none() {
            return self.err("__lea declarations must be arrays");
        }
        Ok(NvDecl {
            name,
            len,
            region,
            line,
        })
    }

    fn task(&mut self) -> Result<Task, CompileError> {
        let line = self.line();
        self.ident()?; // task
        let name = self.ident()?;
        // Optional `()` after the task name, per the paper's listings.
        if self.eat(&Tok::LParen) {
            self.expect(Tok::RParen)?;
        }
        let body = self.block()?;
        Ok(Task { name, body, line })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.peek().is_none() {
                return self.err("unexpected end of input inside a block");
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn sem(&mut self) -> Result<Sem, CompileError> {
        // Accept both bare identifiers and the paper's quoted strings.
        let word = match self.next() {
            Some(Tok::Ident(s)) => s,
            Some(Tok::Str(s)) => s,
            other => {
                self.pos = self.pos.saturating_sub(1);
                return self.err(format!("expected semantics, found {other:?}"));
            }
        };
        match word.as_str() {
            "Single" => Ok(Sem::Single),
            "Always" => Ok(Sem::Always),
            "Timely" => {
                self.expect(Tok::Comma)?;
                let ms = self.int()?;
                if ms <= 0 {
                    return self.err("Timely window must be positive");
                }
                Ok(Sem::Timely(ms as u64))
            }
            other => self.err(format!("unknown semantics {other:?}")),
        }
    }

    fn io_func(&mut self, name: &str) -> Result<IoFunc, CompileError> {
        Ok(match name {
            "Temp" => IoFunc::Temp,
            "Humd" => IoFunc::Humd,
            "Pres" => IoFunc::Pres,
            "Light" => IoFunc::Light,
            "Accel" => IoFunc::Accel,
            "Send" => IoFunc::Send,
            "Capture" => IoFunc::Capture,
            "Argmax" => IoFunc::Argmax,
            other => return self.err(format!("unknown I/O function {other:?}")),
        })
    }

    /// Parses `_call_IO(func, Sem[, window][, args…])`, cursor after the
    /// `_call_IO` identifier.
    fn call_io(&mut self) -> Result<IoCall, CompileError> {
        let line = self.line();
        self.expect(Tok::LParen)?;
        let fname = self.ident()?;
        // Optional `()` after the function name, per the paper (`Temp()`).
        if self.eat(&Tok::LParen) {
            self.expect(Tok::RParen)?;
        }
        let func = self.io_func(&fname)?;
        self.expect(Tok::Comma)?;
        let sem = self.sem()?;
        let mut args = Vec::new();
        while self.eat(&Tok::Comma) {
            args.push(self.expr()?);
        }
        self.expect(Tok::RParen)?;
        Ok(IoCall {
            func,
            sem,
            args,
            line,
            id: 0,
        })
    }

    fn arr_ref(&mut self) -> Result<ArrRef, CompileError> {
        let name = self.ident()?;
        self.expect(Tok::LBracket)?;
        let index = self.expr()?;
        self.expect(Tok::RBracket)?;
        Ok(ArrRef { name, index })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let Some(Tok::Ident(head)) = self.peek().cloned() else {
            return self.err("expected a statement");
        };
        match head.as_str() {
            "let" => {
                self.next();
                let name = self.ident()?;
                self.expect(Tok::Assign)?;
                let expr = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Let { name, expr, line })
            }
            "compute" => {
                self.next();
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Compute(e, line))
            }
            "_call_IO" => {
                self.next();
                let call = self.call_io()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::CallIoStmt(call))
            }
            "_DMA_copy" => {
                self.next();
                self.expect(Tok::LParen)?;
                let src = self.arr_ref()?;
                self.expect(Tok::Comma)?;
                let dst = self.arr_ref()?;
                self.expect(Tok::Comma)?;
                let elems = self.int()? as u32;
                let exclude = if self.eat(&Tok::Comma) {
                    match self.next() {
                        Some(Tok::Ident(s)) | Some(Tok::Str(s)) if s == "Exclude" => true,
                        other => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.err(format!("expected Exclude, found {other:?}"));
                        }
                    }
                } else {
                    false
                };
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                if elems == 0 {
                    return self.err("_DMA_copy of zero elements");
                }
                Ok(Stmt::DmaCopy {
                    src,
                    dst,
                    elems,
                    exclude,
                    line,
                    id: 0,
                })
            }
            "_IO_block_begin" => {
                self.next();
                self.expect(Tok::LParen)?;
                let sem = self.sem()?;
                self.expect(Tok::RParen)?;
                self.eat(&Tok::Semi);
                let mut body = Vec::new();
                loop {
                    match self.peek() {
                        Some(Tok::Ident(k)) if k == "_IO_block_end" => {
                            self.next();
                            self.eat(&Tok::Semi);
                            break;
                        }
                        Some(_) => body.push(self.stmt()?),
                        None => return self.err("missing _IO_block_end"),
                    }
                }
                Ok(Stmt::IoBlock { sem, body, line })
            }
            "_IO_block_end" => self.err("_IO_block_end without _IO_block_begin"),
            "if" => {
                self.next();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then = self.block()?;
                let els = if matches!(self.peek(), Some(Tok::Ident(k)) if k == "else") {
                    self.next();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then,
                    els,
                    line,
                })
            }
            "repeat" => {
                self.next();
                self.expect(Tok::LParen)?;
                let var = self.ident()?;
                self.expect(Tok::Comma)?;
                let count = self.int()? as u32;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                if count == 0 {
                    return self.err("repeat of zero iterations");
                }
                Ok(Stmt::Repeat {
                    var,
                    count,
                    body,
                    line,
                })
            }
            "lea_conv2d" => {
                self.next();
                self.expect(Tok::LParen)?;
                let input = self.ident()?;
                self.expect(Tok::Comma)?;
                let w = self.int()? as u32;
                self.expect(Tok::Comma)?;
                let h = self.int()? as u32;
                self.expect(Tok::Comma)?;
                let kernel = self.ident()?;
                self.expect(Tok::Comma)?;
                let kw = self.int()? as u32;
                self.expect(Tok::Comma)?;
                let kh = self.int()? as u32;
                self.expect(Tok::Comma)?;
                let out = self.ident()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                if w < kw || h < kh || kw == 0 || kh == 0 {
                    return self.err("lea_conv2d kernel must fit inside the input");
                }
                Ok(Stmt::LeaConv2d {
                    input,
                    w,
                    h,
                    kernel,
                    kw,
                    kh,
                    out,
                    line,
                    id: 0,
                })
            }
            "lea_relu" => {
                self.next();
                self.expect(Tok::LParen)?;
                let buf = self.ident()?;
                self.expect(Tok::Comma)?;
                let n = self.int()? as u32;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                if n == 0 {
                    return self.err("lea_relu over zero elements");
                }
                Ok(Stmt::LeaRelu {
                    buf,
                    n,
                    line,
                    id: 0,
                })
            }
            "lea_fc" => {
                self.next();
                self.expect(Tok::LParen)?;
                let x = self.ident()?;
                self.expect(Tok::Comma)?;
                let n_in = self.int()? as u32;
                self.expect(Tok::Comma)?;
                let weights = self.ident()?;
                self.expect(Tok::Comma)?;
                let out = self.ident()?;
                self.expect(Tok::Comma)?;
                let n_out = self.int()? as u32;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                if n_in == 0 || n_out == 0 {
                    return self.err("lea_fc needs positive dimensions");
                }
                Ok(Stmt::LeaFc {
                    x,
                    n_in,
                    weights,
                    out,
                    n_out,
                    line,
                    id: 0,
                })
            }
            "lea_fir" => {
                self.next();
                self.expect(Tok::LParen)?;
                let x = self.ident()?;
                self.expect(Tok::Comma)?;
                let h = self.ident()?;
                self.expect(Tok::Comma)?;
                let y = self.ident()?;
                self.expect(Tok::Comma)?;
                let n_out = self.int()? as u32;
                self.expect(Tok::Comma)?;
                let taps = self.int()? as u32;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                if n_out == 0 || taps == 0 {
                    return self.err("lea_fir needs positive n_out and taps");
                }
                Ok(Stmt::LeaFir {
                    x,
                    h,
                    y,
                    n_out,
                    taps,
                    line,
                    id: 0,
                })
            }
            "next" => {
                self.next();
                let t = self.ident()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Next(t, line))
            }
            "done" => {
                self.next();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Done(line))
            }
            _ => {
                // Assignment: `name = e;` or `name[i] = e;`
                let name = self.ident()?;
                if self.eat(&Tok::LBracket) {
                    let index = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.expect(Tok::Assign)?;
                    let expr = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::AssignIndex {
                        name,
                        index,
                        expr,
                        line,
                    })
                } else {
                    self.expect(Tok::Assign)?;
                    let expr = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Assign { name, expr, line })
                }
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Op::Eq,
            Some(Tok::Ne) => Op::Ne,
            Some(Tok::Lt) => Op::Lt,
            Some(Tok::Le) => Op::Le,
            Some(Tok::Gt) => Op::Gt,
            Some(Tok::Ge) => Op::Ge,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.additive()?;
        self.bin(op, lhs, rhs)
    }

    fn additive(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => Op::Add,
                Some(Tok::Minus) => Op::Sub,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.multiplicative()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => Op::Mul,
                Some(Tok::Slash) => Op::Div,
                Some(Tok::Percent) => Op::Rem,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.atom()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
    }

    fn atom(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::atom_body)
    }

    fn atom_body(&mut self) -> Result<Expr, CompileError> {
        match self.next() {
            Some(Tok::Int(n)) => Ok(Expr::Int(n)),
            Some(Tok::Minus) => {
                let e = self.atom()?;
                Ok(Expr::Bin(Op::Sub, Box::new(Expr::Int(0)), Box::new(e)))
            }
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) if name == "_call_IO" => {
                let call = self.call_io()?;
                Ok(Expr::CallIo(Box::new(call)))
            }
            Some(Tok::Ident(name)) => {
                if self.eat(&Tok::LBracket) {
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_fig3_style_task() {
        let src = r#"
            __nv int temp_out;
            task sense {
                _IO_block_begin(Single);
                let t = _call_IO(Temp, Timely, 10);
                let h = _call_IO(Humd, Always);
                _IO_block_end;
                temp_out = t + h;
                done;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.decls.len(), 1);
        assert_eq!(p.tasks.len(), 1);
        let body = &p.tasks[0].body;
        assert!(
            matches!(&body[0], Stmt::IoBlock { sem: Sem::Single, body, .. } if body.len() == 2)
        );
        assert!(matches!(&body[1], Stmt::Assign { name, .. } if name == "temp_out"));
        assert!(matches!(&body[2], Stmt::Done(_)));
    }

    #[test]
    fn parses_quoted_semantics_like_the_paper() {
        let src = r#"
            task t {
                let x = _call_IO(Pres(), "Single");
                let y = _call_IO(Temp(), "Timely", 50);
                done;
            }
        "#;
        let p = parse(src).unwrap();
        let body = &p.tasks[0].body;
        match &body[0] {
            Stmt::Let {
                expr: Expr::CallIo(c),
                ..
            } => assert_eq!(c.sem, Sem::Single),
            other => panic!("{other:?}"),
        }
        match &body[1] {
            Stmt::Let {
                expr: Expr::CallIo(c),
                ..
            } => assert_eq!(c.sem, Sem::Timely(50)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_dma_and_control_flow() {
        let src = r#"
            __nv int a[8];
            __nv int b[8];
            __nv int flag;
            task t {
                _DMA_copy(a[0], b[2], 4);
                _DMA_copy(a[0], b[0], 4, Exclude);
                if (flag < 10) { flag = flag + 1; } else { flag = 0; }
                repeat (i, 3) { b[i] = i * 2; }
                next t;
            }
        "#;
        let p = parse(src).unwrap();
        let body = &p.tasks[0].body;
        assert!(matches!(
            &body[0],
            Stmt::DmaCopy {
                exclude: false,
                elems: 4,
                ..
            }
        ));
        assert!(matches!(&body[1], Stmt::DmaCopy { exclude: true, .. }));
        assert!(matches!(&body[2], Stmt::If { .. }));
        assert!(matches!(&body[3], Stmt::Repeat { count: 3, .. }));
        assert!(matches!(&body[4], Stmt::Next(t, _) if t == "t"));
    }

    #[test]
    fn operator_precedence() {
        let src = "task t { let x = 1 + 2 * 3 < 10; done; }";
        let p = parse(src).unwrap();
        match &p.tasks[0].body[0] {
            Stmt::Let { expr, .. } => {
                // (1 + (2*3)) < 10
                assert_eq!(
                    *expr,
                    Expr::Bin(
                        Op::Lt,
                        Box::new(Expr::Bin(
                            Op::Add,
                            Box::new(Expr::Int(1)),
                            Box::new(Expr::Bin(
                                Op::Mul,
                                Box::new(Expr::Int(2)),
                                Box::new(Expr::Int(3))
                            ))
                        )),
                        Box::new(Expr::Int(10))
                    )
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let src = "task t {\n  let x = ;\n}";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unbalanced_block_end_is_rejected() {
        assert!(parse("task t { _IO_block_end; done; }").is_err());
        assert!(parse("task t { _IO_block_begin(Single); done; ").is_err());
    }

    #[test]
    fn nested_io_blocks_parse() {
        let src = r#"
            task t {
                _IO_block_begin(Single);
                _IO_block_begin("Timely", 10);
                let p = _call_IO(Pres, Single);
                _IO_block_end;
                let x = _call_IO(Temp, Timely, 50);
                _IO_block_end;
                done;
            }
        "#;
        let p = parse(src).unwrap();
        match &p.tasks[0].body[0] {
            Stmt::IoBlock {
                sem: Sem::Single,
                body,
                ..
            } => {
                assert!(matches!(
                    &body[0],
                    Stmt::IoBlock {
                        sem: Sem::Timely(10),
                        ..
                    }
                ));
                assert!(matches!(&body[1], Stmt::Let { .. }));
            }
            other => panic!("{other:?}"),
        }
    }
}
