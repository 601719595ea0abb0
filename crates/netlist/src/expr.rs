//! The expression language used for element values, objectives, and
//! specifications.
//!
//! Grammar (precedence climbing):
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := factor (('*' | '/') factor)*
//! factor  := unary ('^' unary)*
//! unary   := '-' unary | primary
//! primary := number | ident ('(' args ')')? | path | '(' expr ')'
//! path    := ident ('.' ident)+
//! ```
//!
//! Identifiers resolve through an [`EvalContext`]: plain names are design
//! variables or transfer-function handles, dotted paths reach into device
//! operating-point data (`xamp.m1.cd`), and calls dispatch measurement
//! functions (`dc_gain(tf)`, `ugf(tf)`, `min(a,b)`, …).

use crate::lexer::parse_number;
use crate::ParseError;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Binary operators of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
    /// Power `^`.
    Pow,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
        };
        f.write_str(s)
    }
}

/// An expression AST node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal number (after SPICE suffix scaling).
    Num(f64),
    /// A plain identifier: design variable or analysis handle.
    Var(String),
    /// A dotted path such as `xamp.m1.cd`.
    Path(Vec<String>),
    /// A function call.
    Call(String, Vec<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a constant.
    pub fn num(v: f64) -> Expr {
        Expr::Num(v)
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Collects every plain identifier referenced by the expression
    /// (variables and analysis handles, not path heads or call names).
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Var(name) = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Collects every function-call name in the expression.
    pub fn calls(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Call(name, _) = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Collects every dotted path in the expression.
    pub fn paths(&self) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Path(p) = e {
                if !out.contains(p) {
                    out.push(p.clone());
                }
            }
        });
        out
    }

    fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Neg(a) => a.walk(f),
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Evaluates the expression against `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from unresolved names, unknown functions,
    /// or non-finite intermediate results.
    pub fn eval(&self, ctx: &dyn EvalContext) -> Result<f64, EvalError> {
        let v = match self {
            Expr::Num(v) => *v,
            Expr::Var(name) => ctx.lookup_var(name)?,
            Expr::Path(path) => ctx.lookup_path(path)?,
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                // Functions may need unevaluated handles (e.g. dc_gain(tf));
                // the context receives both the raw argument expressions and
                // eagerly evaluated values where possible.
                for a in args {
                    vals.push(a.eval(ctx).ok());
                }
                ctx.call(name, args, &vals)?
            }
            Expr::Bin(op, a, b) => {
                let x = a.eval(ctx)?;
                let y = b.eval(ctx)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Pow => x.powf(y),
                }
            }
            Expr::Neg(a) => -a.eval(ctx)?,
        };
        if v.is_nan() {
            return Err(EvalError::NotFinite(self.to_string()));
        }
        Ok(v)
    }

    /// Evaluates against a plain variable map with the standard math
    /// functions; convenient for element values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Expr::eval`].
    pub fn eval_with_vars(&self, vars: &HashMap<String, f64>) -> Result<f64, EvalError> {
        self.eval(&MapContext::new(vars))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Var(n) => f.write_str(n),
            Expr::Path(p) => f.write_str(&p.join(".")),
            Expr::Call(n, args) => {
                write!(f, "{n}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Bin(op, a, b) => write!(f, "({a}{op}{b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// Error produced when evaluating an [`Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A plain identifier could not be resolved.
    UnknownVar(String),
    /// A dotted path could not be resolved.
    UnknownPath(String),
    /// A function name is not known to the context.
    UnknownFunction(String),
    /// A function was called with a bad argument list.
    BadArguments(String),
    /// Evaluation produced NaN.
    NotFinite(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVar(n) => write!(f, "unknown variable `{n}`"),
            EvalError::UnknownPath(p) => write!(f, "unknown path `{p}`"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::BadArguments(n) => write!(f, "bad arguments to `{n}`"),
            EvalError::NotFinite(e) => write!(f, "expression `{e}` is not finite"),
        }
    }
}

impl Error for EvalError {}

/// Name-resolution environment for expression evaluation.
///
/// The ASTRX compiler implements this against the live circuit state so
/// that specifications can reference AWE measurements and device
/// operating-point quantities.
pub trait EvalContext {
    /// Resolves a plain identifier.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownVar`] if the name is not known.
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError>;

    /// Resolves a dotted path.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownPath`] if the path is not known.
    fn lookup_path(&self, path: &[String]) -> Result<f64, EvalError> {
        Err(EvalError::UnknownPath(path.join(".")))
    }

    /// Dispatches a function call. `args` are the raw argument
    /// expressions; `values` are their eagerly evaluated results (or
    /// `None` where evaluation failed, e.g. a transfer-function handle).
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownFunction`] / [`EvalError::BadArguments`].
    fn call(&self, name: &str, args: &[Expr], values: &[Option<f64>]) -> Result<f64, EvalError> {
        builtin_call(name, args, values)
    }
}

/// Dispatches the context-independent math builtins: `min`, `max`, `abs`,
/// `sqrt`, `log10`, `ln`, `exp`, `db` (20·log10|x|), `par` (parallel
/// resistance).
///
/// # Errors
///
/// [`EvalError::UnknownFunction`] for other names,
/// [`EvalError::BadArguments`] for arity mismatches.
pub fn builtin_call(name: &str, _args: &[Expr], values: &[Option<f64>]) -> Result<f64, EvalError> {
    let need = |n: usize| -> Result<Vec<f64>, EvalError> {
        if values.len() != n || values.iter().any(|v| v.is_none()) {
            return Err(EvalError::BadArguments(name.to_string()));
        }
        Ok(values.iter().map(|v| v.unwrap()).collect())
    };
    match name {
        "min" => {
            let v = need(2)?;
            Ok(v[0].min(v[1]))
        }
        "max" => {
            let v = need(2)?;
            Ok(v[0].max(v[1]))
        }
        "abs" => Ok(need(1)?[0].abs()),
        "sqrt" => Ok(need(1)?[0].sqrt()),
        "log10" => Ok(need(1)?[0].log10()),
        "ln" => Ok(need(1)?[0].ln()),
        "exp" => Ok(need(1)?[0].exp()),
        "db" => Ok(20.0 * need(1)?[0].abs().log10()),
        "par" => {
            let v = need(2)?;
            Ok(v[0] * v[1] / (v[0] + v[1]))
        }
        _ => Err(EvalError::UnknownFunction(name.to_string())),
    }
}

/// An [`EvalContext`] backed by a plain map plus the math builtins.
#[derive(Debug)]
pub struct MapContext<'a> {
    vars: &'a HashMap<String, f64>,
}

impl<'a> MapContext<'a> {
    /// Wraps a variable map.
    pub fn new(vars: &'a HashMap<String, f64>) -> Self {
        MapContext { vars }
    }
}

impl EvalContext for MapContext<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Most nesting levels one expression may have: parentheses, call
/// arguments, signs, powers and the links of an operator chain, counted
/// over the whole expression. Counting them all, not only the deepest
/// path, bounds both the parser's recursion and the height of the tree
/// it builds (evaluation and drop walk it recursively). Deck
/// expressions use a few dozen at most.
pub(crate) const MAX_EXPR_LEVELS: usize = 256;

pub(crate) struct ExprParser<'a> {
    line: usize,
    src: &'a [u8],
    pos: usize,
    /// Nesting levels used so far (see [`MAX_EXPR_LEVELS`]).
    levels: usize,
}

impl<'a> ExprParser<'a> {
    pub(crate) fn new(line: usize, src: &'a str) -> Self {
        ExprParser {
            line,
            src: src.as_bytes(),
            pos: 0,
            levels: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        // Column is the 1-based offset of the failing character within
        // the expression text (for quoted expressions, within the
        // quotes).
        ParseError::at(self.line, self.pos + 1, msg)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    pub(crate) fn parse(mut self) -> Result<Expr, ParseError> {
        let e = self.expr()?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err(format!(
                "trailing characters in expression: `{}`",
                String::from_utf8_lossy(&self.src[self.pos..])
            )));
        }
        Ok(e)
    }

    /// Takes one more nesting level, failing past [`MAX_EXPR_LEVELS`].
    fn deeper(&mut self) -> Result<(), ParseError> {
        if self.levels == MAX_EXPR_LEVELS {
            return Err(self.err("expression nested too deeply"));
        }
        self.levels += 1;
        Ok(())
    }

    /// Runs `parse` one level deeper: every recursion of the grammar
    /// (parentheses, call arguments, signs, powers) goes through here.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        self.deeper()?;
        parse(self)
    }

    /// A left-associative chain of `next` operands joined by the
    /// operators `op` maps. Each link deepens the tree, so it takes a
    /// level too.
    fn chain(
        &mut self,
        next: fn(&mut Self) -> Result<Expr, ParseError>,
        op: fn(u8) -> Option<BinOp>,
    ) -> Result<Expr, ParseError> {
        let mut lhs = next(self)?;
        while let Some(op) = self.peek().and_then(op) {
            self.bump();
            self.deeper()?;
            let rhs = next(self)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::term, |c| match c {
            b'+' => Some(BinOp::Add),
            b'-' => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        self.chain(Self::factor, |c| match c {
            b'*' => Some(BinOp::Mul),
            b'/' => Some(BinOp::Div),
            _ => None,
        })
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        let base = self.unary()?;
        if self.peek() == Some(b'^') {
            self.bump();
            let exp = self.nested(Self::factor)?; // right associative
            return Ok(Expr::Bin(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(b'-') {
            self.bump();
            return Ok(Expr::Neg(Box::new(self.nested(Self::unary)?)));
        }
        if self.peek() == Some(b'+') {
            self.bump();
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.bump();
                let e = self.nested(Self::expr)?;
                if self.peek() != Some(b')') {
                    return Err(self.err("expected `)`"));
                }
                self.bump();
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.ident_like(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of expression")),
        }
    }

    fn number(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        let start = self.pos;
        // Consume a number token: digits, dot, exponent, scale suffix
        // letters. Stops at operators and delimiters.
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c.is_ascii_alphanumeric() || c == b'.' {
                self.pos += 1;
            } else if (c == b'+' || c == b'-')
                && self.pos > start
                && (self.src[self.pos - 1] == b'e' || self.src[self.pos - 1] == b'E')
            {
                // exponent sign
                self.pos += 1;
            } else {
                break;
            }
        }
        let tok = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        parse_number(tok)
            .map(Expr::Num)
            .ok_or_else(|| self.err(format!("invalid number `{tok}`")))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).to_lowercase())
    }

    fn ident_like(&mut self) -> Result<Expr, ParseError> {
        let first = self.ident()?;
        // Dotted path?
        if self.src.get(self.pos) == Some(&b'.') {
            let mut path = vec![first];
            while self.src.get(self.pos) == Some(&b'.') {
                self.pos += 1;
                path.push(self.ident()?);
            }
            return Ok(Expr::Path(path));
        }
        // Call?
        if self.peek() == Some(b'(') {
            self.bump();
            let mut args = Vec::new();
            if self.peek() != Some(b')') {
                loop {
                    args.push(self.nested(Self::expr)?);
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b')') => break,
                        _ => return Err(self.err("expected `,` or `)` in call")),
                    }
                }
            }
            self.bump(); // ')'
            return Ok(Expr::Call(first, args));
        }
        Ok(Expr::Var(first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use proptest::prelude::*;

    fn eval(src: &str, vars: &[(&str, f64)]) -> f64 {
        let map: HashMap<String, f64> = vars.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        parse_expr(1, src).unwrap().eval_with_vars(&map).unwrap()
    }

    #[test]
    fn precedence_and_parens() {
        assert_eq!(eval("1+2*3", &[]), 7.0);
        assert_eq!(eval("(1+2)*3", &[]), 9.0);
        assert_eq!(eval("2^3^2", &[]), 512.0); // right assoc
        assert_eq!(eval("-2^2", &[]), 4.0); // (-2)^2 with unary binding tighter
        assert_eq!(eval("10-4-3", &[]), 3.0); // left assoc
        assert_eq!(eval("8/2/2", &[]), 2.0);
    }

    #[test]
    fn spice_numbers_inside_expressions() {
        assert_eq!(eval("1k+1", &[]), 1001.0);
        assert_eq!(eval("2*0.5u", &[]), 1e-6);
        assert_eq!(eval("1Meg/1k", &[]), 1000.0);
        assert_eq!(eval("1e-3*2", &[]), 2e-3);
    }

    #[test]
    fn variables_and_case_folding() {
        assert_eq!(eval("W*L", &[("w", 3.0), ("l", 4.0)]), 12.0);
        assert_eq!(eval("Cl+cl", &[("cl", 1.5)]), 3.0);
    }

    #[test]
    fn builtins() {
        assert_eq!(eval("min(3,5)", &[]), 3.0);
        assert_eq!(eval("max(3,5)", &[]), 5.0);
        assert_eq!(eval("abs(-2)", &[]), 2.0);
        assert_eq!(eval("sqrt(16)", &[]), 4.0);
        assert_eq!(eval("db(100)", &[]), 40.0);
        assert_eq!(eval("par(2k,2k)", &[]), 1000.0);
    }

    #[test]
    fn paper_slew_rate_expression_shape() {
        // SR = I/(2*(Cl+cd)) with paths replaced by vars for this test.
        let v = eval(
            "I/(2*(Cl+cd1+cd3))",
            &[
                ("i", 10e-6),
                ("cl", 1e-12),
                ("cd1", 0.5e-12),
                ("cd3", 0.5e-12),
            ],
        );
        assert!((v - 2.5e6).abs() < 1.0);
    }

    #[test]
    fn paths_are_collected() {
        let e = parse_expr(1, "I/(2*(Cl+xamp.m1.cd+xamp.m3.cd))").unwrap();
        let paths = e.paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], vec!["xamp", "m1", "cd"]);
        let vars = e.variables();
        assert!(vars.contains(&"i".to_string()) && vars.contains(&"cl".to_string()));
    }

    #[test]
    fn calls_are_collected() {
        let e = parse_expr(1, "db(dc_gain(tf))+ugf(tf)").unwrap();
        let mut calls = e.calls();
        calls.sort();
        assert_eq!(calls, vec!["db", "dc_gain", "ugf"]);
    }

    #[test]
    fn unknown_variable_is_error() {
        let e = parse_expr(1, "W*2").unwrap();
        let err = e.eval_with_vars(&HashMap::new()).unwrap_err();
        assert_eq!(err, EvalError::UnknownVar("w".to_string()));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse_expr(1, "1+").is_err());
        assert!(parse_expr(1, "(1").is_err());
        assert!(parse_expr(1, "foo(1,").is_err());
        assert!(parse_expr(1, "1 2").is_err());
        assert!(parse_expr(1, "").is_err());
    }

    /// Nesting past the cap is a structured error, not a stack
    /// overflow — on a default-size spawned thread.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["(", "-", "+", "2^", "max(1,", "1+", "1*"] {
            let src = format!("{}1", open.repeat(100_000));
            let err = std::thread::spawn(move || parse_expr(7, &src).unwrap_err())
                .join()
                .expect("parser thread survives");
            assert!(matches!(err.location(), Some((7, Some(_)))), "{err}");
            assert!(err.to_string().contains("nested too deeply"), "{err}");
        }
        // Levels add up across the expression: short chains inside
        // nested parentheses cannot stack into a tall tree either.
        let stacked = format!("{}1{}", "(".repeat(200), "+1)".repeat(200));
        assert!(parse_expr(1, &stacked).is_err());
        let ok = "(".repeat(MAX_EXPR_LEVELS) + "1" + &")".repeat(MAX_EXPR_LEVELS);
        assert_eq!(eval(&ok, &[]), 1.0);
        let sum = format!("1{}", "+1".repeat(MAX_EXPR_LEVELS));
        assert_eq!(eval(&sum, &[]), 257.0);
    }

    #[test]
    fn display_round_trips_semantics() {
        let src = "1+2*w-min(3,4)/2";
        let e = parse_expr(1, src).unwrap();
        let printed = e.to_string();
        let e2 = parse_expr(1, &printed).unwrap();
        let map: HashMap<String, f64> = [("w".to_string(), 5.0)].into();
        assert_eq!(
            e.eval_with_vars(&map).unwrap(),
            e2.eval_with_vars(&map).unwrap()
        );
    }

    proptest! {
        /// Random arithmetic over (+,-,*) evaluates identically after a
        /// print → reparse round trip.
        #[test]
        fn prop_print_parse_round_trip(ops in proptest::collection::vec(0u8..3, 1..20),
                                       nums in proptest::collection::vec(-100i32..100, 2..22)) {
            let mut src = format!("{}", nums[0]);
            for (i, op) in ops.iter().enumerate() {
                if i + 1 >= nums.len() { break; }
                let sym = ["+", "-", "*"][*op as usize];
                // Negative literals need parens after operators.
                let n = nums[i + 1];
                if n < 0 {
                    src.push_str(&format!("{sym}(0{n})"));
                } else {
                    src.push_str(&format!("{sym}{n}"));
                }
            }
            let e = parse_expr(1, &src).unwrap();
            let v1 = e.eval_with_vars(&HashMap::new()).unwrap();
            let e2 = parse_expr(1, &e.to_string()).unwrap();
            let v2 = e2.eval_with_vars(&HashMap::new()).unwrap();
            prop_assert_eq!(v1, v2);
        }
    }
}
