//! A SQL++ front end for the subset the paper's queries use (§2.1, App. A),
//! and the planner that owns the optimizer's rewrites (§3.4.2).
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT select FROM ident AS? ident (, path AS? ident)*
//!            (WHERE expr)? (GROUP BY item (, item)* (WITH ident AS expr)*)?
//!            (ORDER BY expr (ASC|DESC)? (, …)*)? (LIMIT int)?
//! select  := VALUE expr | * | item (, item)*      item := expr (AS ident)?
//! expr    := OR / AND / NOT / comparison / primary
//! primary := literal | $param | path | fn(args) | COUNT(*) | (expr)
//!          | SOME ident IN primary SATISFIES expr
//! path    := ident (. ident | [int] | [*])*
//! ```
//!
//! The extra `FROM` terms are SQL++'s correlated collection joins
//! (`FROM Sensors s, s.readings r`), compiled to [`Op::Unnest`]. The
//! planner numbers the record paths as scan columns (GROUP BY keys, `WITH`
//! aggregates, SELECT, unnest sources, WHERE, ORDER BY) and applies the
//! optimizer's rules, switched by [`QueryOptions`] alone:
//!
//! * WHERE conjuncts `record path <cmp> constant` run in the scan
//!   ([`ScanSpec::filter`]), where zone maps and typed loops take them;
//! * with `consolidate`, one pass per record evaluates all the scan's paths;
//! * with `pushdown`, the scan extracts `P[*].f` rather than the objects of
//!   `P`, through `SOME … SATISFIES` and through a correlated unnest;
//!   without it, the paths a scan filter does not read are delayed until
//!   after it ([`ScanSpec::late_paths`], Fig 23's un-op plan);
//! * GROUP BY keys and aggregate arguments that call a function are
//!   computed by an [`Op::Project`] in front of the [`Op::GroupBy`].

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
    /// `$name`: a named parameter.
    Param(String),
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
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'`' | b'$' => {
                let quoted = c == b'`';
                let start = if quoted || c == b'$' { i + 1 } else { i };
                let mut j = start;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let ident =
                    std::str::from_utf8(&b[start..j]).map_err(|_| err(start, "bad identifier"))?;
                toks.push(if c == b'$' {
                    Tok::Param(ident.to_string())
                } else {
                    Tok::Ident(ident.to_string())
                });
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
    select: Vec<SelectItem>,
    binding: String,
    /// (source path ast, alias) — correlated unnests.
    unnests: Vec<(Ast, String)>,
    where_clause: Option<Ast>,
    group_by: Vec<SelectItem>,
    /// `WITH name AS aggregate` after GROUP BY.
    with: Vec<(String, Ast)>,
    order_by: Vec<(Ast, bool)>,
    limit: Option<usize>,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'p> {
    toks: Vec<Tok>,
    pos: usize,
    params: &'p [(&'p str, Value)],
}

impl Parser<'_> {
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
        let select = if !select_value && *self.peek() == Tok::Star {
            self.next();
            let expr = Ast::PathRef { binding: String::new(), path: vec![] };
            vec![SelectItem { expr, alias: None }]
        } else {
            self.items()?
        };
        self.expect_keyword("from")?;
        // The dataset's name: the executor binds partitions explicitly.
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
            _ => dataset,
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
        let (mut group_by, mut with) = (Vec::new(), Vec::new());
        if self.keyword("group") {
            self.expect_keyword("by")?;
            group_by = self.items()?;
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
                with.push((name, self.parse_expr()?));
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
        Ok(AstQuery { select, binding, unnests, where_clause, group_by, with, order_by, limit })
    }

    /// `expr (AS ident)? (, …)*`.
    fn items(&mut self) -> Result<Vec<SelectItem>, AdmError> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.keyword("as") { Some(self.ident()?) } else { None };
            items.push(SelectItem { expr, alias });
            if !self.eat_sym(',') {
                return Ok(items);
            }
        }
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
            Tok::Param(name) => match self.params.iter().find(|(n, _)| *n == name) {
                Some((_, v)) => Ok(Ast::Lit(v.clone())),
                None => Err(self.err(format!("no value for parameter ${name}"))),
            },
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
    compile_with(text, &[], opts)
}

/// [`compile`] text whose `$name`s read as the literals `params` gives them.
pub(crate) fn compile_with(
    text: &str,
    params: &[(&str, Value)],
    opts: QueryOptions,
) -> Result<Query, AdmError> {
    let mut ast = Parser { toks: tokenize(text)?, pos: 0, params }.parse_query()?;
    if opts.pushdown {
        push_down(&mut ast);
    }
    plan(ast, opts)
}

impl Ast {
    /// Visit this expression and each of its sub-expressions, parents first.
    fn walk(&self, f: &mut impl FnMut(&Ast)) {
        f(self);
        match self {
            Ast::Lit(_) | Ast::PathRef { .. } | Ast::CountStar => {}
            Ast::Cmp(_, l, r) | Ast::And(l, r) | Ast::Or(l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Ast::Not(e) => e.walk(f),
            Ast::Call(_, args) => args.iter().for_each(|a| a.walk(f)),
            Ast::SomeSatisfies { coll, pred, .. } => {
                coll.walk(f);
                pred.walk(f);
            }
        }
    }
}

impl AstQuery {
    /// Every clause's expressions, in the order the scan numbers the record
    /// paths they read: GROUP BY keys, `WITH` aggregates, SELECT, `FROM`
    /// unnest sources, WHERE, ORDER BY.
    fn exprs(&self) -> impl Iterator<Item = &Ast> {
        let with = self.with.iter().map(|(_, e)| e);
        let select = self.select.iter().map(|item| &item.expr);
        self.group_by
            .iter()
            .map(|item| &item.expr)
            .chain(with.chain(select))
            .chain(self.unnests.iter().map(|(src, _)| src))
            .chain(&self.where_clause)
            .chain(self.order_by.iter().map(|(e, _)| e))
    }
}

/// The pushdown rewrites of §3.4.2: the scan extracts the one field a query
/// reads of a collection's items (`P[*].f`), not the items.
///
/// * `SOME x IN P SATISFIES lowercase(x.f) = …` in WHERE becomes
///   `SOME x IN P[*].f SATISFIES lowercase(x) = …`.
/// * `FROM s, s.P r` unnests `s.P[*].f`, and each `r.f` reads `r`, when
///   every use of `r` is `r.f` as the whole argument of an aggregate that
///   skips `missing` (`sum`, `min`, `max`, `avg`) and no `count` counts the
///   unnest's rows: `P[*].f` has no item where `r.f` is missing.
fn push_down(ast: &mut AstQuery) {
    if let Some(w) = &mut ast.where_clause {
        push_through_some(w);
    }
    for i in 0..ast.unnests.len() {
        let var = ast.unnests[i].1.clone();
        let Some(field) = aggregated_field(ast, &var) else { continue };
        let Ast::PathRef { path, .. } = &mut ast.unnests[i].0 else { continue };
        path.extend([PathStep::Wildcard, PathStep::Field(field)]);
        let select = ast.select.iter_mut().map(|item| &mut item.expr);
        for e in select.chain(ast.with.iter_mut().map(|(_, e)| e)) {
            if let Ast::Call(_, args) = e {
                if let [Ast::PathRef { binding, path }] = args.as_mut_slice() {
                    if *binding == var {
                        path.clear();
                    }
                }
            }
        }
    }
}

fn push_through_some(e: &mut Ast) {
    match e {
        Ast::And(l, r) | Ast::Or(l, r) => {
            push_through_some(l);
            push_through_some(r);
        }
        Ast::Not(e) => push_through_some(e),
        Ast::SomeSatisfies { item, coll, pred } => {
            let (Ast::PathRef { path: from, .. }, Ast::Cmp(CmpOp::Eq, lhs, _)) =
                (&mut **coll, &mut **pred)
            else {
                return;
            };
            if let Ast::Call(_, args) = &mut **lhs {
                if let [Ast::PathRef { binding, path }] = args.as_mut_slice() {
                    if binding == item && matches!(path.as_slice(), [PathStep::Field(_)]) {
                        from.push(PathStep::Wildcard);
                        from.append(path);
                    }
                }
            }
        }
        _ => {}
    }
}

/// `f`, if every use of `var` is `var.f` as the whole argument of a `sum`,
/// `min`, `max` or `avg`, and the query has no `count`.
fn aggregated_field(ast: &AstQuery, var: &str) -> Option<String> {
    let mut uses = 0;
    for e in ast.exprs() {
        e.walk(&mut |e| {
            uses += matches!(e, Ast::PathRef { binding, .. } if binding == var) as usize
        });
    }
    let mut fields = Vec::new();
    let select = ast.select.iter().map(|item| &item.expr);
    for agg in select.chain(ast.with.iter().map(|(_, e)| e)).filter_map(as_aggregate) {
        match agg {
            (AggFn::Count, _) => return None,
            (_, Some(Ast::PathRef { binding, path })) if binding == var => match path.as_slice() {
                [PathStep::Field(f)] => fields.push(f),
                _ => return None,
            },
            _ => {}
        }
    }
    let f = *fields.first()?;
    (uses == fields.len() && fields.iter().all(|g| *g == f)).then(|| f.clone())
}

/// Name-resolution context built by the planner.
struct Binder {
    /// The dataset binding (record variable).
    record: String,
    /// Scan paths collected so far (columns 0..n).
    scan_paths: Vec<Path>,
    /// Variables bound to a column: unnest aliases to their items, then
    /// GROUP BY and `WITH` aliases to the group output.
    vars: Vec<(String, usize)>,
}

impl Binder {
    fn scan_col(&mut self, path: Path) -> usize {
        if let Some(i) = self.scan_paths.iter().position(|p| *p == path) {
            return i;
        }
        self.scan_paths.push(path);
        self.scan_paths.len() - 1
    }

    /// Number a scan column for each record path `ast` reads.
    fn claim(&mut self, ast: &Ast) {
        ast.walk(&mut |e| {
            if let Ast::PathRef { binding, path } = e {
                if *binding == self.record || binding.is_empty() {
                    self.scan_col(path.clone());
                }
            }
        });
    }

    fn resolve(&mut self, ast: &Ast) -> Result<Expr, AdmError> {
        Ok(match ast {
            Ast::Lit(v) => Expr::Const(v.clone()),
            Ast::PathRef { binding, path } => match self.vars.iter().find(|(n, _)| n == binding) {
                Some(&(_, col)) if path.is_empty() => Expr::Col(col),
                Some(&(_, col)) => Expr::Path { col, path: path.clone() },
                None if *binding == self.record || binding.is_empty() => {
                    Expr::Col(self.scan_col(path.clone()))
                }
                None => return Err(AdmError::type_check(format!("unknown binding '{binding}'"))),
            },
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

    /// The conjuncts `c`, ANDed; `None` for none.
    fn resolve_and(&mut self, conjuncts: &[&Ast]) -> Result<Option<Expr>, AdmError> {
        let resolved = conjuncts.iter().map(|c| self.resolve(c)).collect::<Result<Vec<_>, _>>()?;
        Ok(resolved.into_iter().reduce(Expr::and))
    }

    /// `SOME x IN coll SATISFIES lowercase(x[.field]) = "lit"` compiles to
    /// the engine's exists functions (the paper's Q3 shape).
    fn resolve_some(&mut self, item: &str, coll: &Ast, pred: &Ast) -> Result<Expr, AdmError> {
        if let Ast::Cmp(CmpOp::Eq, lhs, rhs) = pred {
            if let (Ast::Call(f, args), Ast::Lit(Value::String(needle))) = (&**lhs, &**rhs) {
                let func = match args.as_slice() {
                    [Ast::PathRef { binding, path }]
                        if binding == item && matches!(f.as_str(), "lowercase" | "lower") =>
                    {
                        match path.as_slice() {
                            [] => Some(Func::ArrayContainsLower),
                            [PathStep::Field(field)] => Some(Func::AnyFieldEqLower(field.clone())),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some(func) = func {
                    let args = vec![self.resolve(coll)?, Expr::lit(needle.clone())];
                    return Ok(Expr::Func { func, args });
                }
            }
        }
        Err(AdmError::type_check(
            "SOME ... SATISFIES supports `lowercase(x[.f]) = \"lit\"`".to_string(),
        ))
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

/// The top-level `AND` conjuncts of `e`.
fn conjuncts(e: &Ast) -> Vec<&Ast> {
    match e {
        Ast::And(l, r) => {
            let mut out = conjuncts(l);
            out.extend(conjuncts(r));
            out
        }
        _ => vec![e],
    }
}

/// `record path <cmp> constant`, the conjunct zone maps and typed loops take.
fn is_scan_cmp(c: &Ast, record: &str) -> bool {
    let path = |a: &Ast| matches!(a, Ast::PathRef { binding, .. } if binding == record);
    let lit = |a: &Ast| matches!(a, Ast::Lit(_));
    matches!(c, Ast::Cmp(_, l, r) if (path(l) && lit(r)) || (lit(l) && path(r)))
}

fn plan(ast: AstQuery, opts: QueryOptions) -> Result<Query, AdmError> {
    let mut binder =
        Binder { record: ast.binding.clone(), scan_paths: Vec::new(), vars: Vec::new() };
    // WHERE conjuncts over one record path run in the scan; the rest, after
    // the unnests.
    let (in_scan, after_scan): (Vec<&Ast>, Vec<&Ast>) =
        ast.where_clause.iter().flat_map(conjuncts).partition(|c| is_scan_cmp(c, &ast.binding));
    // Number the scan columns before the unnests' item columns. Without
    // pushdown, the scan filter's paths come first and every other path is
    // delayed until after it (Fig 23).
    let delay = !opts.pushdown && !in_scan.is_empty();
    if delay {
        in_scan.iter().for_each(|c| binder.claim(c));
    }
    let filter_width = binder.scan_paths.len();
    ast.exprs().for_each(|e| binder.claim(e));
    let early = if delay { filter_width } else { binder.scan_paths.len() };
    let scan_width = binder.scan_paths.len();
    for (i, (_, alias)) in ast.unnests.iter().enumerate() {
        binder.vars.push((alias.clone(), scan_width + i));
    }

    let filter = binder.resolve_and(&in_scan)?;
    let mut ops: Vec<Op> = Vec::new();
    for (src, _) in &ast.unnests {
        ops.push(Op::Unnest(binder.resolve(src)?));
    }
    if let Some(rest) = binder.resolve_and(&after_scan)? {
        ops.push(Op::Filter(rest));
    }

    let aggregated = ast.select.iter().any(|i| as_aggregate(&i.expr).is_some());
    if !ast.group_by.is_empty() || aggregated {
        let keys =
            ast.group_by.iter().map(|i| binder.resolve(&i.expr)).collect::<Result<_, _>>()?;
        let mut group = Group { keys, aggs: Vec::new() };
        let mut names: Vec<&str> =
            ast.group_by.iter().map(|i| i.alias.as_deref().unwrap_or("")).collect();
        for (name, expr) in &ast.with {
            group.agg(expr, &mut binder)?.ok_or_else(|| {
                AdmError::type_check("WITH clause must be an aggregate".to_string())
            })?;
            names.push(name);
        }
        // SELECT items: GROUP BY / WITH aliases, grouping expressions, or
        // further aggregates (count(*) etc.).
        let mut select_cols: Vec<usize> = Vec::new();
        for item in &ast.select {
            let named = match &item.expr {
                Ast::PathRef { binding, path } if path.is_empty() => {
                    names.iter().position(|n| n == binding)
                }
                _ => None,
            };
            let col = match named {
                Some(col) => col,
                None => match group.agg(&item.expr, &mut binder)? {
                    Some(col) => {
                        names.push(item.alias.as_deref().unwrap_or(""));
                        col
                    }
                    None => {
                        let resolved = binder.resolve(&item.expr)?;
                        group.keys.iter().position(|k| *k == resolved).ok_or_else(|| {
                            AdmError::type_check(
                                "SELECT item is neither an aggregate nor a grouping key"
                                    .to_string(),
                            )
                        })?
                    }
                },
            };
            select_cols.push(col);
        }
        let width = names.len();
        group.push(&mut ops);
        // The group output is what later clauses read, by alias.
        binder.vars = names
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_empty())
            .map(|(i, n)| (n.to_string(), i))
            .collect();
        push_order_limit(&ast, &mut binder, &mut ops)?;
        // Project to the SELECT shape, unless that is the group output.
        if !select_cols.iter().copied().eq(0..width) {
            ops.push(Op::Project(select_cols.into_iter().map(Expr::Col).collect()));
        }
    } else {
        let select_exprs: Vec<Expr> =
            ast.select.iter().map(|item| binder.resolve(&item.expr)).collect::<Result<_, _>>()?;
        push_order_limit(&ast, &mut binder, &mut ops)?;
        ops.push(Op::Project(select_exprs));
    }

    let late_paths = binder.scan_paths.split_off(early);
    let scan = ScanSpec { paths: binder.scan_paths, filter, late_paths, access: opts.access() };
    Ok(Query { scan, ops })
}

fn push_order_limit(
    ast: &AstQuery,
    binder: &mut Binder,
    ops: &mut Vec<Op>,
) -> Result<(), AdmError> {
    if !ast.order_by.is_empty() {
        let keys = ast.order_by.iter().map(|(e, desc)| Ok((binder.resolve(e)?, *desc)));
        ops.push(Op::OrderBy { keys: keys.collect::<Result<_, AdmError>>()?, limit: ast.limit });
    } else if let Some(k) = ast.limit {
        ops.push(Op::Limit(k));
    }
    Ok(())
}

/// A `GroupBy` being planned.
struct Group {
    keys: Vec<Expr>,
    aggs: Vec<Agg>,
}

impl Group {
    /// Add `ast` as an aggregate, if it is one, and give its output column.
    fn agg(&mut self, ast: &Ast, binder: &mut Binder) -> Result<Option<usize>, AdmError> {
        let Some((func, arg)) = as_aggregate(ast) else { return Ok(None) };
        let arg = arg.map(|a| binder.resolve(a)).transpose()?;
        self.aggs.push(Agg { func, arg });
        Ok(Some(self.keys.len() + self.aggs.len() - 1))
    }

    /// Push the `GroupBy`. Keys and aggregate arguments that call a function
    /// are computed in front of it, by a `Project` of every key and argument.
    fn push(mut self, ops: &mut Vec<Op>) {
        let is_call = |e: &Expr| matches!(e, Expr::Func { .. });
        if self.keys.iter().chain(self.aggs.iter().filter_map(|a| a.arg.as_ref())).any(is_call) {
            let mut exprs = Vec::new();
            let args = self.aggs.iter_mut().filter_map(|a| a.arg.as_mut());
            for e in self.keys.iter_mut().chain(args) {
                exprs.push(std::mem::replace(e, Expr::Col(exprs.len())));
            }
            ops.push(Op::Project(exprs));
        }
        ops.push(Op::GroupBy { keys: self.keys, aggs: self.aggs });
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

    // The builders compile their Appendix A text too, so each of the next
    // three compares the text under one option against the builder under
    // the other: the rewrites must keep the answer.

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
        let expected = run(&ds, &pq::twitter_q2(QueryOptions::unoptimized()));
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
        let expected = run(&ds, &pq::twitter_q3(QueryOptions::default()));
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
        let expected = run(&ds, &pq::sensors_q3(QueryOptions::unoptimized()));
        assert_eq!(rows, expected);
    }

    /// The pushdown rules fire where they keep the answer, and only there;
    /// without pushdown, the paths a scan filter does not read are late.
    #[test]
    fn rewrite_rules_fire_where_they_keep_answers() {
        let p = tc_adm::path::parse_path;
        let scan = |text: &str, opts| compile(text, opts).unwrap().scan;
        let pushed = |text: &str| scan(text, QueryOptions::default()).paths;
        let from = "FROM Sensors s, s.readings r";
        assert_eq!(
            pushed(&format!("SELECT min(r.temp), avg(r.temp) {from}")),
            [p("readings[*].temp")]
        );
        // A count counts the unnest's rows; any other use of `r` needs the
        // reading objects.
        for select in [
            "SELECT VALUE count(*)",
            "SELECT count(*), avg(r.temp)",
            "SELECT count(r.temp)",
            "SELECT min(r.temp), max(r.timestamp)",
        ] {
            assert_eq!(pushed(&format!("{select} {from}")), [p("readings")], "{select}");
        }
        assert_eq!(pushed(&format!("SELECT avg(r.temp) {from} WHERE r.ok = 1")), [p("readings")]);
        let some = r#"SELECT VALUE count(*) FROM T t
            WHERE NOT (SOME h IN t.tags SATISFIES lowercase(h.text) = "x")"#;
        assert_eq!(pushed(some), [p("tags[*].text")]);
        assert_eq!(scan(some, QueryOptions::unoptimized()).paths, [p("tags")]);
        let window = format!("SELECT avg(r.temp) {from} WHERE s.report_time < 5 AND s.id > 1");
        let delayed = scan(&window, QueryOptions::unoptimized());
        assert_eq!(
            (delayed.paths, delayed.late_paths),
            (vec![p("report_time"), p("id")], vec![p("readings")])
        );
        let early = scan(&window, QueryOptions::default());
        assert_eq!(early.paths, [p("readings[*].temp"), p("report_time"), p("id")]);
        assert!(early.late_paths.is_empty() && early.filter.is_some());
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
