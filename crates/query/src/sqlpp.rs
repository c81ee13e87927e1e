//! A SQL++ front end for the subset the paper's queries use (§2.1, App. A).
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT select FROM ident AS? ident (, path AS? ident)*
//!            (WHERE expr)? (GROUP BY group (, group)*)?
//!            (ORDER BY expr (ASC|DESC)? (, …)*)? (LIMIT int)?
//! select  := VALUE expr | item (, item)*      item := expr (AS ident)?
//! group   := expr (AS ident)?
//! expr    := OR / AND / NOT / comparison / additive / primary
//! primary := literal | path | fn(args) | COUNT(*) | (expr)
//! path    := ident (. ident | [int] | [*])*
//! ```
//!
//! The extra `FROM` terms are SQL++'s correlated collection joins
//! (`FROM Sensors s, s.readings r`), compiled to [`Op::Unnest`]. The
//! planner resolves every path against its binding, collects the dataset
//! paths into the scan spec (so the engine's consolidation/pushdown
//! optimizations apply — §3.4.2), and splits SELECT into group keys +
//! aggregates when GROUP BY is present.

use tc_adm::path::{Path, PathStep};
use tc_adm::{AdmError, Value};

use crate::agg::{Agg, AggFn};
use crate::expr::{CmpOp, Expr, Func};
use crate::plan::{Op, Query, QueryOptions, ScanSpec};

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Sym(char),
    /// Two-char symbols: `!=`, `<=`, `>=`.
    Sym2(&'static str),
    Star,
    Eof,
}

fn tokenize(text: &str) -> Result<Vec<Tok>, AdmError> {
    let b = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let err = |i: usize, m: &str| AdmError::Parse { offset: i, message: m.to_string() };
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'"' | b'\'' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != quote {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(err(i, "unterminated string"));
                }
                toks.push(Tok::Str(
                    std::str::from_utf8(&b[start..j])
                        .map_err(|_| err(start, "bad utf8"))?
                        .to_string(),
                ));
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < b.len()
                    && (b[i].is_ascii_digit() || b[i] == b'.' || b[i] == b'e' || b[i] == b'E')
                {
                    if b[i] == b'.' || b[i] == b'e' || b[i] == b'E' {
                        // A dot followed by an identifier is a path sep, not
                        // a decimal point.
                        if b[i] == b'.' && i + 1 < b.len() && !b[i + 1].is_ascii_digit() {
                            break;
                        }
                        is_float = true;
                    }
                    i += 1;
                }
                let s = std::str::from_utf8(&b[start..i]).map_err(|_| err(start, "bad number"))?;
                if is_float {
                    toks.push(Tok::Float(s.parse().map_err(|_| err(start, "bad number"))?));
                } else {
                    toks.push(Tok::Int(s.parse().map_err(|_| err(start, "bad integer"))?));
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'`' => {
                let quoted = c == b'`';
                let start = if quoted { i + 1 } else { i };
                let mut j = start;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let ident =
                    std::str::from_utf8(&b[start..j]).map_err(|_| err(start, "bad identifier"))?;
                toks.push(Tok::Ident(ident.to_string()));
                i = if quoted {
                    if j >= b.len() || b[j] != b'`' {
                        return Err(err(start, "unterminated `identifier`"));
                    }
                    j + 1
                } else {
                    j
                };
            }
            b'!' | b'<' | b'>' if i + 1 < b.len() && b[i + 1] == b'=' => {
                toks.push(Tok::Sym2(match c {
                    b'!' => "!=",
                    b'<' => "<=",
                    _ => ">=",
                }));
                i += 2;
            }
            b'*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            b'(' | b')' | b',' | b'.' | b'[' | b']' | b'=' | b'<' | b'>' | b'+' | b'-' | b'/' => {
                toks.push(Tok::Sym(c as char));
                i += 1;
            }
            _ => return Err(err(i, "unexpected character")),
        }
    }
    toks.push(Tok::Eof);
    Ok(toks)
}

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Lit(Value),
    /// `binding.path…` — the leading identifier is a FROM binding.
    PathRef {
        binding: String,
        path: Path,
    },
    Cmp(CmpOp, Box<Ast>, Box<Ast>),
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    Call(String, Vec<Ast>),
    CountStar,
    /// `SOME x IN collection SATISFIES pred(x)` — only the paper's shape
    /// (`lowercase(x.field) = "lit"` or `lowercase(x) = "lit"`) is
    /// supported.
    SomeSatisfies {
        item: String,
        coll: Box<Ast>,
        pred: Box<Ast>,
    },
}

#[derive(Debug, Clone)]
struct SelectItem {
    expr: Ast,
    alias: Option<String>,
}

#[derive(Debug, Clone)]
struct AstQuery {
    /// `SELECT VALUE expr` (single-expression select). Kept for diagnostics;
    /// execution treats it like a one-item select list.
    #[allow(dead_code)]
    select_value: bool,
    /// Dataset name from the FROM clause. The executor binds partitions
    /// explicitly, so the name is informational.
    #[allow(dead_code)]
    dataset: String,
    select: Vec<SelectItem>,
    binding: String,
    /// (source path ast, alias) — correlated unnests.
    unnests: Vec<(Ast, String)>,
    where_clause: Option<Ast>,
    group_by: Vec<SelectItem>,
    order_by: Vec<(Ast, bool)>,
    limit: Option<usize>,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> AdmError {
        AdmError::Parse { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if *self.peek() == Tok::Sym(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), AdmError> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}', found {:?}", self.peek())))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), AdmError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, AdmError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    fn parse_query(&mut self) -> Result<AstQuery, AdmError> {
        self.expect_keyword("select")?;
        let select_value = self.keyword("value");
        let mut select = Vec::new();
        if !select_value && *self.peek() == Tok::Star {
            self.next();
            select.push(SelectItem {
                expr: Ast::PathRef { binding: String::new(), path: vec![] },
                alias: None,
            });
        } else {
            loop {
                let expr = self.parse_expr()?;
                let alias = if self.keyword("as") { Some(self.ident()?) } else { None };
                select.push(SelectItem { expr, alias });
                if !self.eat_sym(',') {
                    break;
                }
            }
        }
        self.expect_keyword("from")?;
        let dataset = self.ident()?;
        let _ = self.keyword("as");
        let binding = match self.peek() {
            Tok::Ident(s)
                if !["where", "group", "order", "limit", "unnest"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                self.ident()?
            }
            _ => dataset.clone(),
        };
        // Correlated collection terms: `, s.readings r` (or UNNEST syntax).
        let mut unnests = Vec::new();
        loop {
            if self.eat_sym(',') || self.keyword("unnest") {
                let src = self.parse_expr()?;
                let _ = self.keyword("as");
                let alias = self.ident()?;
                unnests.push((src, alias));
            } else {
                break;
            }
        }
        let where_clause = if self.keyword("where") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.keyword("group") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let alias = if self.keyword("as") { Some(self.ident()?) } else { None };
                group_by.push(SelectItem { expr, alias });
                if !self.eat_sym(',') {
                    break;
                }
            }
            // `GROUP AS g` (whole-group listify) — accepted and ignored
            // unless the select uses it; the paper's queries only count.
            if self.keyword("group") {
                self.expect_keyword("as")?;
                let _ = self.ident()?;
            }
            // `WITH x AS expr` post-aggregation aliases.
            while self.keyword("with") {
                let name = self.ident()?;
                self.expect_keyword("as")?;
                let expr = self.parse_expr()?;
                group_by.push(SelectItem { expr, alias: Some(format!("\u{1}with:{name}")) });
            }
        }
        let mut order_by = Vec::new();
        if self.keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.keyword("desc") {
                    true
                } else {
                    let _ = self.keyword("asc");
                    false
                };
                order_by.push((expr, desc));
                if !self.eat_sym(',') {
                    break;
                }
            }
        }
        let limit = if self.keyword("limit") {
            match self.next() {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                t => return Err(self.err(format!("expected limit count, found {t:?}"))),
            }
        } else {
            None
        };
        if *self.peek() != Tok::Eof {
            return Err(self.err(format!("trailing tokens: {:?}", self.peek())));
        }
        Ok(AstQuery {
            select_value,
            select,
            dataset,
            binding,
            unnests,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    // Expressions, precedence: OR < AND < NOT < cmp < primary.
    fn parse_expr(&mut self) -> Result<Ast, AdmError> {
        let mut lhs = self.parse_and()?;
        while self.keyword("or") {
            let rhs = self.parse_and()?;
            lhs = Ast::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Ast, AdmError> {
        let mut lhs = self.parse_not()?;
        while self.keyword("and") {
            let rhs = self.parse_not()?;
            lhs = Ast::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Ast, AdmError> {
        if self.keyword("not") {
            Ok(Ast::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Ast, AdmError> {
        let lhs = self.parse_primary()?;
        let op = match self.peek() {
            Tok::Sym('=') => Some(CmpOp::Eq),
            Tok::Sym('<') => Some(CmpOp::Lt),
            Tok::Sym('>') => Some(CmpOp::Gt),
            Tok::Sym2("!=") => Some(CmpOp::Ne),
            Tok::Sym2("<=") => Some(CmpOp::Le),
            Tok::Sym2(">=") => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            None => Ok(lhs),
            Some(op) => {
                self.next();
                let rhs = self.parse_primary()?;
                Ok(Ast::Cmp(op, Box::new(lhs), Box::new(rhs)))
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Ast, AdmError> {
        match self.next() {
            Tok::Int(n) => Ok(Ast::Lit(Value::Int64(n))),
            Tok::Float(f) => Ok(Ast::Lit(Value::Double(f))),
            Tok::Str(s) => Ok(Ast::Lit(Value::String(s))),
            Tok::Sym('(') => {
                let e = self.parse_expr()?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Ast::Lit(Value::Boolean(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Ast::Lit(Value::Boolean(false)));
                }
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Ast::Lit(Value::Null));
                }
                if name.eq_ignore_ascii_case("some") {
                    // SOME x IN coll SATISFIES pred
                    let item = self.ident()?;
                    self.expect_keyword("in")?;
                    let coll = self.parse_primary()?;
                    self.expect_keyword("satisfies")?;
                    let pred = self.parse_expr()?;
                    return Ok(Ast::SomeSatisfies {
                        item,
                        coll: Box::new(coll),
                        pred: Box::new(pred),
                    });
                }
                if name.eq_ignore_ascii_case("count") && *self.peek() == Tok::Sym('(') {
                    // COUNT(*) or COUNT(expr)
                    self.next();
                    if *self.peek() == Tok::Star {
                        self.next();
                        self.expect_sym(')')?;
                        return Ok(Ast::CountStar);
                    }
                    let arg = self.parse_expr()?;
                    self.expect_sym(')')?;
                    return Ok(Ast::Call("count".to_string(), vec![arg]));
                }
                if *self.peek() == Tok::Sym('(') {
                    self.next();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::Sym(')') {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_sym(',') {
                                break;
                            }
                        }
                    }
                    self.expect_sym(')')?;
                    return Ok(Ast::Call(name.to_lowercase(), args));
                }
                // A path: binding(.field | [idx] | [*])*
                let mut path = Vec::new();
                loop {
                    if self.eat_sym('.') {
                        path.push(PathStep::field(self.ident()?));
                    } else if self.eat_sym('[') {
                        match self.next() {
                            Tok::Int(i) if i >= 0 => path.push(PathStep::Index(i as usize)),
                            Tok::Star => path.push(PathStep::Wildcard),
                            t => return Err(self.err(format!("bad index {t:?}"))),
                        }
                        self.expect_sym(']')?;
                    } else {
                        break;
                    }
                }
                Ok(Ast::PathRef { binding: name, path })
            }
            t => Err(self.err(format!("unexpected token {t:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

/// Compile SQL++ text into an executable [`Query`].
pub fn compile(text: &str, opts: QueryOptions) -> Result<Query, AdmError> {
    let toks = tokenize(text)?;
    let mut parser = Parser { toks, pos: 0 };
    let ast = parser.parse_query()?;
    plan(ast, opts)
}

/// Name-resolution context built by the planner.
struct Binder {
    /// The dataset binding (record variable).
    record: String,
    /// Scan paths collected so far (columns 0..n).
    scan_paths: Vec<Path>,
    /// Unnest aliases → their item column index.
    unnest_cols: Vec<(String, usize)>,
    /// Columns appended by GROUP BY output: (alias or marker, column).
    named_cols: Vec<(String, usize)>,
}

impl Binder {
    fn scan_col(&mut self, path: Path) -> usize {
        if let Some(i) = self.scan_paths.iter().position(|p| *p == path) {
            return i;
        }
        self.scan_paths.push(path);
        self.scan_paths.len() - 1
    }

    fn resolve(&mut self, ast: &Ast) -> Result<Expr, AdmError> {
        Ok(match ast {
            Ast::Lit(v) => Expr::Const(v.clone()),
            Ast::PathRef { binding, path } => {
                let named = self.named_cols.iter().find(|(n, _)| n == binding).map(|(_, c)| *c);
                if let Some(col) = named {
                    if path.is_empty() {
                        return Ok(Expr::Col(col));
                    }
                    return Ok(Expr::Path { col, path: path.clone() });
                }
                if *binding == self.record || binding.is_empty() {
                    let col = self.scan_col(path.clone());
                    Expr::Col(col)
                } else if let Some(&(_, col)) = self.unnest_cols.iter().find(|(n, _)| n == binding)
                {
                    if path.is_empty() {
                        Expr::Col(col)
                    } else {
                        Expr::Path { col, path: path.clone() }
                    }
                } else {
                    return Err(AdmError::type_check(format!("unknown binding '{binding}'")));
                }
            }
            Ast::Cmp(op, l, r) => Expr::cmp(*op, self.resolve(l)?, self.resolve(r)?),
            Ast::And(l, r) => Expr::and(self.resolve(l)?, self.resolve(r)?),
            Ast::Or(l, r) => Expr::Or(Box::new(self.resolve(l)?), Box::new(self.resolve(r)?)),
            Ast::Not(e) => Expr::Not(Box::new(self.resolve(e)?)),
            Ast::SomeSatisfies { item, coll, pred } => self.resolve_some(item, coll, pred)?,
            Ast::CountStar => {
                return Err(AdmError::type_check(
                    "count(*) is only valid in SELECT with GROUP BY".to_string(),
                ))
            }
            Ast::Call(name, args) => {
                let func = match name.as_str() {
                    "lowercase" | "lower" => Func::Lower,
                    "length" => Func::StrLen,
                    "array_count" | "array_length" => Func::ArrayLen,
                    "is_array" => Func::IsArray,
                    "array_distinct" => Func::ArrayDistinct,
                    "array_sort" => Func::ArraySort,
                    "array_pairs" => Func::ArrayPairs,
                    "array_contains" => Func::ArrayContains,
                    other => {
                        return Err(AdmError::type_check(format!("unknown function '{other}'")))
                    }
                };
                let args = args.iter().map(|a| self.resolve(a)).collect::<Result<Vec<_>, _>>()?;
                Expr::Func { func, args }
            }
        })
    }

    /// `SOME x IN coll SATISFIES lowercase(x[.field]) = "lit"` compiles to
    /// the engine's exists functions (the paper's Q3 shape).
    fn resolve_some(&mut self, item: &str, coll: &Ast, pred: &Ast) -> Result<Expr, AdmError> {
        let coll_expr = self.resolve(coll)?;
        let Ast::Cmp(CmpOp::Eq, lhs, rhs) = pred else {
            return Err(AdmError::type_check(
                "SOME ... SATISFIES supports `lowercase(x.f) = \"lit\"` predicates".to_string(),
            ));
        };
        let needle = match rhs.as_ref() {
            Ast::Lit(Value::String(s)) => s.clone(),
            _ => {
                return Err(AdmError::type_check(
                    "SATISFIES comparison must be against a string literal".to_string(),
                ))
            }
        };
        match lhs.as_ref() {
            // lowercase(x.field) = "lit"
            Ast::Call(f, args) if (f == "lowercase" || f == "lower") && args.len() == 1 => {
                match &args[0] {
                    Ast::PathRef { binding, path } if binding == item => {
                        if let [PathStep::Field(field)] = path.as_slice() {
                            Ok(Expr::Func {
                                func: Func::AnyFieldEqLower(field.clone()),
                                args: vec![coll_expr, Expr::lit(needle)],
                            })
                        } else if path.is_empty() {
                            Ok(Expr::Func {
                                func: Func::ArrayContainsLower,
                                args: vec![coll_expr, Expr::lit(needle)],
                            })
                        } else {
                            Err(AdmError::type_check(
                                "SATISFIES path must be the item or one field deep".to_string(),
                            ))
                        }
                    }
                    _ => Err(AdmError::type_check(
                        "SATISFIES must reference the SOME variable".to_string(),
                    )),
                }
            }
            _ => Err(AdmError::type_check(
                "SATISFIES supports lowercase(x[.f]) = \"lit\"".to_string(),
            )),
        }
    }
}

/// Recognize an aggregate call in the SELECT/WITH list.
fn as_aggregate(ast: &Ast) -> Option<(AggFn, Option<&Ast>)> {
    match ast {
        Ast::CountStar => Some((AggFn::Count, None)),
        Ast::Call(name, args) if args.len() == 1 => {
            let f = match name.as_str() {
                "count" => AggFn::Count,
                "sum" => AggFn::Sum,
                "min" => AggFn::Min,
                "max" => AggFn::Max,
                "avg" => AggFn::Avg,
                _ => return None,
            };
            Some((f, Some(&args[0])))
        }
        _ => None,
    }
}

fn plan(ast: AstQuery, opts: QueryOptions) -> Result<Query, AdmError> {
    let mut binder = Binder {
        record: ast.binding.clone(),
        scan_paths: Vec::new(),
        unnest_cols: Vec::new(),
        named_cols: Vec::new(),
    };
    let mut ops: Vec<Op> = Vec::new();

    // FROM-clause unnests: resolve their sources first (they claim scan
    // columns); aliases get item columns once the scan width is final.
    let mut unnest_sources: Vec<Expr> = Vec::new();
    for (src, _) in &ast.unnests {
        unnest_sources.push(binder.resolve(src)?);
    }
    // Pre-collect scan paths from every clause so column numbering is
    // stable before unnest columns are assigned.
    {
        let mut probe = ast.where_clause.iter().collect::<Vec<_>>();
        for item in ast.select.iter().chain(ast.group_by.iter()) {
            probe.push(&item.expr);
        }
        for (e, _) in &ast.order_by {
            probe.push(e);
        }
        for e in probe {
            collect_record_paths(e, &ast.binding, &mut binder);
        }
    }
    let scan_width = binder.scan_paths.len();
    for (i, (_, alias)) in ast.unnests.iter().enumerate() {
        binder.unnest_cols.push((alias.clone(), scan_width + i));
    }
    for src in unnest_sources {
        ops.push(Op::Unnest(src));
    }

    if let Some(w) = &ast.where_clause {
        ops.push(Op::Filter(binder.resolve(w)?));
    }

    if !ast.group_by.is_empty() {
        // Split GROUP BY items into keys and WITH-aggregates.
        let mut keys: Vec<Expr> = Vec::new();
        let mut key_names: Vec<String> = Vec::new();
        let mut aggs: Vec<Agg> = Vec::new();
        let mut agg_names: Vec<String> = Vec::new();
        for item in &ast.group_by {
            let with_alias = item.alias.as_deref().and_then(|a| a.strip_prefix("\u{1}with:"));
            match (with_alias, as_aggregate(&item.expr)) {
                (Some(name), Some((f, arg))) => {
                    let arg = arg.map(|a| binder.resolve(a)).transpose()?;
                    aggs.push(Agg { func: f, arg });
                    agg_names.push(name.to_string());
                }
                (Some(_), None) => {
                    return Err(AdmError::type_check(
                        "WITH clause must be an aggregate".to_string(),
                    ))
                }
                (None, _) => {
                    keys.push(binder.resolve(&item.expr)?);
                    key_names.push(item.alias.clone().unwrap_or_default());
                }
            }
        }
        // SELECT items: references to GROUP BY / WITH aliases, grouping
        // expressions, or additional aggregates (count(*) etc.).
        let mut select_cols: Vec<(usize, Option<String>)> = Vec::new();
        for item in &ast.select {
            if let Ast::PathRef { binding, path } = &item.expr {
                if path.is_empty() {
                    if let Some(p) = key_names.iter().position(|n| n == binding) {
                        select_cols.push((p, item.alias.clone()));
                        continue;
                    }
                    if let Some(p) = agg_names.iter().position(|n| n == binding) {
                        select_cols.push((keys.len() + p, item.alias.clone()));
                        continue;
                    }
                }
            }
            if let Some((f, arg)) = as_aggregate(&item.expr) {
                let arg = arg.map(|a| binder.resolve(a)).transpose()?;
                aggs.push(Agg { func: f, arg });
                agg_names.push(item.alias.clone().unwrap_or_default());
                select_cols.push((keys.len() + aggs.len() - 1, item.alias.clone()));
                continue;
            }
            let resolved = binder.resolve(&item.expr)?;
            let pos = keys.iter().position(|k| *k == resolved).ok_or_else(|| {
                AdmError::type_check(
                    "SELECT item is neither an aggregate nor a grouping key".to_string(),
                )
            })?;
            select_cols.push((pos, item.alias.clone()));
        }
        ops.push(Op::GroupBy { keys: keys.clone(), aggs });
        // Post-group name resolution: keys by alias, aggregates by alias.
        binder.named_cols.clear();
        for (i, name) in key_names.iter().enumerate() {
            if !name.is_empty() {
                binder.named_cols.push((name.clone(), i));
            }
        }
        for (i, name) in agg_names.iter().enumerate() {
            if !name.is_empty() {
                binder.named_cols.push((name.clone(), keys.len() + i));
            }
        }
        // ORDER BY over grouped output.
        if !ast.order_by.is_empty() {
            let keys = resolve_order(&ast.order_by, &mut binder)?;
            ops.push(Op::OrderBy { keys, limit: ast.limit });
        } else if let Some(k) = ast.limit {
            ops.push(Op::Limit(k));
        }
        // Final projection to the SELECT shape.
        if !select_cols.is_empty() {
            ops.push(Op::Project(select_cols.iter().map(|(c, _)| Expr::Col(*c)).collect()));
        }
    } else if ast.select.iter().any(|i| as_aggregate(&i.expr).is_some()) {
        // Ungrouped aggregates: a global (key-less) aggregation —
        // `SELECT VALUE count(*)`, `SELECT min(r.temp), max(r.temp)` …
        let mut aggs = Vec::new();
        for item in &ast.select {
            let Some((f, arg)) = as_aggregate(&item.expr) else {
                return Err(AdmError::type_check(
                    "mixing aggregates and plain expressions requires GROUP BY".to_string(),
                ));
            };
            let arg = arg.map(|a| binder.resolve(a)).transpose()?;
            aggs.push(Agg { func: f, arg });
        }
        ops.push(Op::GroupBy { keys: vec![], aggs });
        if let Some(k) = ast.limit {
            ops.push(Op::Limit(k));
        }
    } else {
        // Ungrouped query: ORDER BY first (may reference scan columns),
        // then project the SELECT items.
        let select_exprs: Vec<Expr> =
            ast.select.iter().map(|item| binder.resolve(&item.expr)).collect::<Result<_, _>>()?;
        if !ast.order_by.is_empty() {
            let keys = resolve_order(&ast.order_by, &mut binder)?;
            ops.push(Op::OrderBy { keys, limit: ast.limit });
        } else if let Some(k) = ast.limit {
            ops.push(Op::Limit(k));
        }
        ops.push(Op::Project(select_exprs));
    }

    Ok(Query { scan: ScanSpec::all_early(binder.scan_paths, opts.access()), ops })
}

fn resolve_order(
    order_by: &[(Ast, bool)],
    binder: &mut Binder,
) -> Result<Vec<(Expr, bool)>, AdmError> {
    order_by.iter().map(|(e, desc)| Ok((binder.resolve(e)?, *desc))).collect()
}

/// Pre-pass: force every record-rooted path into the scan so column indexes
/// are stable before unnest columns are appended.
fn collect_record_paths(ast: &Ast, record: &str, binder: &mut Binder) {
    match ast {
        Ast::PathRef { binding, path } if binding == record || binding.is_empty() => {
            binder.scan_col(path.clone());
        }
        Ast::PathRef { .. } | Ast::Lit(_) | Ast::CountStar => {}
        Ast::Cmp(_, l, r) | Ast::And(l, r) | Ast::Or(l, r) => {
            collect_record_paths(l, record, binder);
            collect_record_paths(r, record, binder);
        }
        Ast::Not(e) => collect_record_paths(e, record, binder),
        Ast::Call(_, args) => {
            for a in args {
                collect_record_paths(a, record, binder);
            }
        }
        Ast::SomeSatisfies { coll, .. } => collect_record_paths(coll, record, binder),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use crate::paper_queries as pq;
    use std::sync::Arc;
    use tc_datagen::{sensors::SensorsGen, twitter::TwitterGen, Generator};
    use tc_storage::device::{Device, DeviceProfile};
    use tc_storage::BufferCache;
    use tuple_compactor::{Dataset, DatasetConfig, StorageFormat};

    fn load<G: Generator>(gen: &mut G, n: usize) -> Dataset {
        let ds = Dataset::new(
            DatasetConfig::new(gen.name(), "id").with_format(StorageFormat::Inferred),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        let mut w = ds.writer();
        for _ in 0..n {
            w.insert(&gen.next_record()).unwrap();
        }
        drop(w);
        ds.flush().unwrap();
        ds
    }

    fn run(ds: &Dataset, q: &Query) -> Vec<Vec<Value>> {
        execute(&[ds], q, &ExecOptions::default()).unwrap().rows
    }

    #[test]
    fn count_star_compiles_and_runs() {
        let ds = load(&mut TwitterGen::new(1), 50);
        let q = compile("SELECT VALUE count(*) FROM Tweets", QueryOptions::default()).unwrap();
        let rows = run(&ds, &q);
        assert_eq!(pq::single_i64(&rows), Some(50));
    }

    #[test]
    fn global_min_max_aggregates() {
        let ds = load(&mut SensorsGen::new(9), 20);
        let q = compile(
            "SELECT max(r.temp), min(r.temp) FROM Sensors s, s.readings r",
            QueryOptions::default(),
        )
        .unwrap();
        let rows = run(&ds, &q);
        assert_eq!(rows.len(), 1);
        assert!(rows[0][0].as_f64().unwrap() > rows[0][1].as_f64().unwrap());
    }

    #[test]
    fn twitter_q2_text_matches_builder() {
        let ds = load(&mut TwitterGen::new(2), 150);
        let text = r#"
            SELECT uname, a
            FROM Tweets t
            GROUP BY t.user.name AS uname
            WITH a AS avg(length(t.text))
            ORDER BY a DESC
            LIMIT 10
        "#;
        let q = compile(text, QueryOptions::default()).unwrap();
        let rows = run(&ds, &q);
        let expected = run(&ds, &pq::twitter_q2(QueryOptions::default()));
        assert_eq!(rows, expected);
    }

    #[test]
    fn twitter_q3_text_matches_builder() {
        let ds = load(&mut TwitterGen::new(3), 200);
        let text = r#"
            SELECT uname, count(*) AS c
            FROM Tweets t
            WHERE (SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = "jobs")
            GROUP BY t.user.name AS uname
            ORDER BY c DESC
            LIMIT 10
        "#;
        let q = compile(text, QueryOptions::unoptimized()).unwrap();
        let rows = run(&ds, &q);
        let expected = run(&ds, &pq::twitter_q3(QueryOptions::unoptimized()));
        assert_eq!(rows, expected);
    }

    #[test]
    fn sensors_q3_text_with_unnest() {
        let ds = load(&mut SensorsGen::new(4), 30);
        let text = r#"
            SELECT sid, avg_temp
            FROM Sensors s, s.readings AS r
            GROUP BY s.sensor_id AS sid
            WITH avg_temp AS avg(r.temp)
            ORDER BY avg_temp DESC
            LIMIT 10
        "#;
        let q = compile(text, QueryOptions::default()).unwrap();
        let rows = run(&ds, &q);
        // Compare against the un-pushdown builder (same Unnest shape).
        let expected = run(&ds, &pq::sensors_q3(QueryOptions::unoptimized()));
        assert_eq!(rows, expected);
    }

    #[test]
    fn where_order_limit_without_group() {
        let ds = load(&mut TwitterGen::new(5), 60);
        let text = r#"
            SELECT t.id, t.timestamp_ms
            FROM Tweets t
            WHERE t.id < 10
            ORDER BY t.timestamp_ms DESC
            LIMIT 5
        "#;
        let q = compile(text, QueryOptions::default()).unwrap();
        let rows = run(&ds, &q);
        assert_eq!(rows.len(), 5);
        let ts: Vec<i64> = rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] >= w[1]));
        assert!(rows.iter().all(|r| r[0].as_i64().unwrap() < 10));
    }

    #[test]
    fn select_value_whole_record() {
        let ds = load(&mut TwitterGen::new(6), 10);
        let q = compile("SELECT VALUE t FROM Tweets t LIMIT 3", QueryOptions::default()).unwrap();
        let rows = run(&ds, &q);
        assert_eq!(rows.len(), 3);
        assert!(rows[0][0].get_field("user").is_some());
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "SELECT FROM x",
            "SELECT VALUE count(*) FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT many",
            "FROM t SELECT *",
            "SELECT a FROM t GROUP BY b", // a is not a key/aggregate
        ] {
            assert!(compile(bad, QueryOptions::default()).is_err(), "{bad}");
        }
    }

    #[test]
    fn array_functions_in_text() {
        let ds = load(&mut SensorsGen::new(7), 10);
        let q = compile(
            r#"SELECT VALUE count(*) FROM Sensors s WHERE array_count(s.readings) > 10"#,
            QueryOptions::default(),
        )
        .unwrap();
        let rows = run(&ds, &q);
        assert_eq!(pq::single_i64(&rows), Some(10));
    }
}
