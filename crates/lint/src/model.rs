//! Extracts a per-function concurrency model from a token stream: which
//! locks each function acquires (and what was already held at that point),
//! which functions it calls under which guards, and where it unwraps
//! sync/channel results. `#[cfg(test)]` modules and `#[test]` functions are
//! skipped entirely — the contracts apply to library code.

use crate::config::Config;
use crate::lexer::{lex, Tok, Token};

/// A lock acquisition site inside a function body.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Field name of the lock (e.g. `state`), resolved through `[guards]`.
    pub lock: String,
    pub line: u32,
    /// Locks already held (field names) when this acquisition happens.
    pub held: Vec<Held>,
    /// True when the receiver chain is rooted at `self` (a struct lock
    /// field, as opposed to a local binding).
    pub self_rooted: bool,
    /// True when the lock name is declared in `[order]` or `[guards]`.
    pub declared: bool,
}

#[derive(Debug, Clone)]
pub struct Held {
    pub lock: String,
    pub line: u32,
}

/// A call site (method or free function) inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    pub line: u32,
    pub held: Vec<Held>,
}

/// An `.unwrap()` / `.expect(..)` on a sync or channel primitive result.
#[derive(Debug, Clone)]
pub struct UnwrapSite {
    pub method: String,
    pub wrapper: String,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct FnModel {
    pub name: String,
    pub impl_type: Option<String>,
    pub line: u32,
    pub mut_self: bool,
    pub acquisitions: Vec<Acq>,
    pub calls: Vec<Call>,
    pub unwraps: Vec<UnwrapSite>,
}

pub fn extract(src: &str, cfg: &Config) -> Vec<FnModel> {
    let toks = lex(src);
    let mut out = Vec::new();
    walk_items(&toks, 0, toks.len(), None, cfg, &mut out);
    out
}

/// Scan `toks[i..end]` for items (mod / impl / fn), recursing into blocks.
fn walk_items(
    toks: &[Token],
    mut i: usize,
    end: usize,
    impl_type: Option<&str>,
    cfg: &Config,
    out: &mut Vec<FnModel>,
) {
    let mut attrs: Vec<String> = Vec::new();
    while i < end {
        match &toks[i].tok {
            Tok::P('#') => {
                // `#[..]` outer or `#![..]` inner attribute.
                let mut j = i + 1;
                if j < end && toks[j].is('!') {
                    j += 1;
                }
                if j < end && toks[j].is('[') {
                    let close = match_bracket(toks, j, end, '[', ']');
                    let text: Vec<&str> =
                        toks[j + 1..close].iter().filter_map(|t| t.ident()).collect();
                    attrs.push(text.join(" "));
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name { .. }` or `mod name;`
                let body = toks[i..end].iter().position(|t| t.is('{') || t.is(';'));
                match body {
                    Some(off) if toks[i + off].is('{') => {
                        let open = i + off;
                        let close = match_bracket(toks, open, end, '{', '}');
                        if !attrs.iter().any(|a| is_test_attr(a)) {
                            walk_items(toks, open + 1, close, None, cfg, out);
                        }
                        i = close + 1;
                    }
                    Some(off) => i += off + 1,
                    None => i = end,
                }
                attrs.clear();
            }
            Tok::Ident(kw) if kw == "impl" => {
                let (ty, open) = parse_impl_header(toks, i, end);
                match open {
                    Some(open) => {
                        let close = match_bracket(toks, open, end, '{', '}');
                        if !attrs.iter().any(|a| is_test_attr(a)) {
                            walk_items(toks, open + 1, close, ty.as_deref(), cfg, out);
                        }
                        i = close + 1;
                    }
                    None => i = end,
                }
                attrs.clear();
            }
            Tok::Ident(kw) if kw == "fn" => {
                let skip = attrs.iter().any(|a| is_test_attr(a));
                i = parse_fn(toks, i, end, impl_type, cfg, skip, out);
                attrs.clear();
            }
            Tok::P('{') => {
                // Unattached block (e.g. const init) — recurse so nested
                // items are still seen.
                let close = match_bracket(toks, i, end, '{', '}');
                walk_items(toks, i + 1, close, impl_type, cfg, out);
                i = close + 1;
                attrs.clear();
            }
            _ => {
                i += 1;
                if !matches!(
                    &toks[i - 1].tok,
                    Tok::Ident(k) if matches!(k.as_str(), "pub" | "unsafe" | "const" | "async" | "extern")
                ) && !toks[i - 1].is('(')
                {
                    attrs.clear();
                }
            }
        }
    }
}

fn is_test_attr(attr: &str) -> bool {
    attr == "test"
        || attr.starts_with("cfg test")
        || attr.contains("cfg_attr test")
        || (attr.starts_with("cfg ") && attr.contains(" test"))
}

/// Returns `(type_name, index_of_open_brace)` for an `impl` at `i`.
fn parse_impl_header(toks: &[Token], i: usize, end: usize) -> (Option<String>, Option<usize>) {
    let mut j = i + 1;
    // Skip generic parameters on the impl itself.
    if j < end && toks[j].is('<') {
        j = match_angles(toks, j, end) + 1;
    }
    let header_start = j;
    let mut open = None;
    while j < end {
        if toks[j].is('{') {
            open = Some(j);
            break;
        }
        if toks[j].is(';') {
            break;
        }
        j += 1;
    }
    let open_idx = match open {
        Some(o) => o,
        None => return (None, None),
    };
    // Slice between the impl keyword and `{` (or `where`).
    let mut slice_end = open_idx;
    for (k, t) in toks[header_start..open_idx].iter().enumerate() {
        if t.ident() == Some("where") {
            slice_end = header_start + k;
            break;
        }
    }
    let mut slice = &toks[header_start..slice_end];
    // `impl Trait for Type` — the type is after the top-level `for`.
    let mut depth = 0i32;
    for (k, t) in slice.iter().enumerate() {
        match &t.tok {
            Tok::P('<') if !(k > 0 && slice[k - 1].is('-')) => depth += 1,
            Tok::P('>') if !(k > 0 && slice[k - 1].is('-')) => depth -= 1,
            Tok::Ident(s) if s == "for" && depth == 0 => {
                slice = &slice[k + 1..];
                break;
            }
            _ => {}
        }
    }
    // The type name is the last ident of the leading path (skip `&`, `mut`,
    // `dyn`; stop at `<`).
    let mut name = None;
    for t in slice {
        match &t.tok {
            Tok::Ident(s) if matches!(s.as_str(), "mut" | "dyn") => {}
            Tok::Ident(s) => name = Some(s.clone()),
            Tok::P(':') | Tok::P('&') => {}
            Tok::Lifetime => {}
            _ => break,
        }
    }
    (name, Some(open_idx))
}

/// Parse a `fn` item starting at `i` (the `fn` token); returns the index
/// just past the item. Pushes a model unless `skip` or bodyless.
fn parse_fn(
    toks: &[Token],
    i: usize,
    end: usize,
    impl_type: Option<&str>,
    cfg: &Config,
    skip: bool,
    out: &mut Vec<FnModel>,
) -> usize {
    let name = match toks.get(i + 1).and_then(|t| t.ident()) {
        Some(n) => n.to_string(),
        None => return i + 1,
    };
    let line = toks[i].line;
    let mut j = i + 2;
    if j < end && toks[j].is('<') {
        j = match_angles(toks, j, end) + 1;
    }
    if j >= end || !toks[j].is('(') {
        return j;
    }
    let params_close = match_bracket(toks, j, end, '(', ')');
    // Receiver: `&self`, `&'a self`, `&mut self`, `self`, `mut self`.
    let mut mut_self = false;
    {
        let mut k = j + 1;
        let mut saw_amp = false;
        let mut saw_mut = false;
        while k < params_close {
            match &toks[k].tok {
                Tok::P('&') => saw_amp = true,
                Tok::Lifetime => {}
                Tok::Ident(s) if s == "mut" => saw_mut = true,
                Tok::Ident(s) if s == "self" => {
                    mut_self = saw_amp && saw_mut;
                    break;
                }
                _ => break,
            }
            k += 1;
        }
    }
    // Find the body `{`, skipping the return type / where clause. `<` `>`
    // depth guards against `Result<(), E>`; `->`'s `>` is preceded by `-`.
    let mut k = params_close + 1;
    let mut angle = 0i32;
    let body_open = loop {
        if k >= end {
            return end;
        }
        match &toks[k].tok {
            Tok::P('<') => angle += 1,
            Tok::P('>') if !toks[k - 1].is('-') => angle -= 1,
            Tok::P(';') if angle <= 0 => return k + 1, // trait method decl
            Tok::P('{') if angle <= 0 => break k,
            _ => {}
        }
        k += 1;
    };
    let body_close = match_bracket(toks, body_open, end, '{', '}');
    if !skip {
        let mut model = FnModel {
            name,
            impl_type: impl_type.map(str::to_string),
            line,
            mut_self,
            acquisitions: Vec::new(),
            calls: Vec::new(),
            unwraps: Vec::new(),
        };
        scan_body(toks, body_open + 1, body_close, cfg, &mut model);
        out.push(model);
    }
    body_close + 1
}

/// One live guard during the body scan.
struct Live {
    lock: String,
    line: u32,
    name: Option<String>,
    depth: i32,
    temp: bool,
}

struct PendingLet {
    names: Vec<String>,
    depth: i32,
}

/// Scan a function body for acquisitions, calls, drops, and unwraps.
fn scan_body(toks: &[Token], start: usize, end: usize, cfg: &Config, model: &mut FnModel) {
    let mut depth: i32 = 0;
    let mut live: Vec<Live> = Vec::new();
    let mut lets: Vec<PendingLet> = Vec::new();
    let mut i = start;
    while i < end {
        match &toks[i].tok {
            Tok::P('{') => {
                depth += 1;
                live.retain(|g| !g.temp);
                i += 1;
            }
            Tok::P('}') => {
                depth -= 1;
                live.retain(|g| !g.temp && g.depth <= depth);
                lets.retain(|l| l.depth <= depth);
                i += 1;
            }
            Tok::P(';') | Tok::P(',') => {
                live.retain(|g| !g.temp);
                lets.retain(|l| l.depth != depth);
                i += 1;
            }
            Tok::Ident(kw) if kw == "let" => {
                // Collect binding names up to `=` (skipping type ascription).
                let mut names = Vec::new();
                let mut j = i + 1;
                let mut in_type = false;
                while j < end {
                    match &toks[j].tok {
                        Tok::P('=') | Tok::P(';') | Tok::P('{') => break,
                        Tok::P(':') => in_type = true,
                        Tok::P(',') | Tok::P('(') | Tok::P(')') | Tok::P('|') => in_type = false,
                        Tok::Ident(s) if !in_type && !matches!(s.as_str(), "mut" | "ref") => {
                            names.push(s.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if !names.is_empty() {
                    lets.push(PendingLet { names, depth });
                }
                i = j;
            }
            Tok::Ident(fname) if fname == "drop" && i + 2 < end && toks[i + 1].is('(') => {
                // `drop(guard)` — ends that guard's scope early.
                if let (Some(arg), true) = (toks[i + 2].ident(), i + 3 < end && toks[i + 3].is(')'))
                {
                    let arg = arg.to_string();
                    live.retain(|g| g.name.as_deref() != Some(arg.as_str()));
                    i += 4;
                } else {
                    i += 2;
                }
            }
            Tok::Ident(m)
                if i > 0
                    && toks[i - 1].is('.')
                    && i + 1 < end
                    && toks[i + 1].is('(')
                    && is_acquisition(m, &toks[i + 2..end.min(i + 3)], cfg) =>
            {
                // `.lock()` / `.read()` / `.write()` zero-arg, or a declared
                // guard-returning method: a lock acquisition.
                let (lock, declared, self_rooted) = resolve_lock(toks, i, cfg);
                let held: Vec<Held> =
                    live.iter().map(|g| Held { lock: g.lock.clone(), line: g.line }).collect();
                model.acquisitions.push(Acq {
                    lock: lock.clone(),
                    line: toks[i].line,
                    held,
                    self_rooted,
                    declared,
                });
                // Unwrap check: `.lock().unwrap()` fires the unwrap rule too.
                check_unwrap(toks, i + 1, end, m, cfg, model);
                // Guard scope. The guard is let-bound (block scope) only
                // when the acquisition is the *whole* initializer — `()`
                // directly followed by `;`. In chains like
                // `let disk = self.state.read().disk.clone();` the binding
                // captures the clone and the guard is a temporary that dies
                // at the end of the statement.
                let ends_stmt = i + 3 < end && toks[i + 3].is(';');
                let bound =
                    if ends_stmt { lets.iter().rev().find(|l| l.depth == depth) } else { None };
                live.push(Live {
                    lock,
                    line: toks[i].line,
                    name: bound.map(|l| l.names[0].clone()),
                    depth,
                    temp: bound.is_none(),
                });
                i += 3; // past `(` `)`
            }
            Tok::Ident(m) if i + 1 < end && toks[i + 1].is('(') => {
                let is_method = i > 0 && toks[i - 1].is('.');
                let held: Vec<Held> =
                    live.iter().map(|g| Held { lock: g.lock.clone(), line: g.line }).collect();
                model.calls.push(Call { name: m.clone(), line: toks[i].line, held });
                // Unwrap check on channel/sync methods used with or without
                // args (`send(x).unwrap()`, `recv().unwrap()`).
                if is_method
                    && (cfg.unwrap_zero_arg.iter().any(|u| u == m)
                        || cfg.unwrap_with_args.iter().any(|u| u == m))
                {
                    check_unwrap(toks, i + 1, end, m, cfg, model);
                }
                i += 1;
            }
            Tok::Ident(m) if i + 1 < end && toks[i + 1].is('!') => {
                // Macro invocation — skip the name so `assert!(x.lock())`
                // style bodies still get scanned for acquisitions inside.
                let _ = m;
                i += 2;
            }
            _ => i += 1,
        }
    }
}

/// Is `.m(` a lock acquisition? `lock`/`read`/`write` must be zero-arg
/// (distinguishes `RwLock::read()` from `FileStore::read(offset, len)`);
/// configured guard methods must be zero-arg too.
fn is_acquisition(m: &str, after_paren: &[Token], cfg: &Config) -> bool {
    let zero_arg = after_paren.first().map(|t| t.is(')')).unwrap_or(false);
    if !zero_arg {
        return false;
    }
    matches!(m, "lock" | "read" | "write") || cfg.guard_lock(m).is_some()
}

/// Resolve the lock name for the acquisition at token `i` (the method name).
/// Returns `(lock_name, declared, self_rooted)`.
fn resolve_lock(toks: &[Token], i: usize, cfg: &Config) -> (String, bool, bool) {
    let m = toks[i].ident().unwrap_or_default();
    if let Some(lock) = cfg.guard_lock(m) {
        return (lock.to_string(), true, chain_is_self_rooted(toks, i));
    }
    // Field name: the ident just before the `.`.
    let field = if i >= 2 { toks[i - 2].ident().unwrap_or("<expr>") } else { "<expr>" };
    let declared =
        cfg.rank(field).is_some() || cfg.unranked.iter().any(|u| u == field) || field == "<expr>";
    (field.to_string(), declared, chain_is_self_rooted(toks, i))
}

/// Walk a receiver chain (`self.a.b.method`) backwards: is it rooted at
/// `self`? Locals and parameters are not.
fn chain_is_self_rooted(toks: &[Token], method_idx: usize) -> bool {
    let mut j = method_idx;
    // Tokens look like: self . a . b . method — step back over `. ident`.
    while j >= 2 && toks[j - 1].is('.') {
        match toks[j - 2].tok {
            Tok::Ident(_) => j -= 2,
            _ => return false, // indexing/call in the chain — root unknown
        }
    }
    toks[j].ident() == Some("self")
}

/// After a method's argument list, flag `.unwrap()` / `.expect(..)`.
fn check_unwrap(
    toks: &[Token],
    open_paren: usize,
    end: usize,
    method: &str,
    cfg: &Config,
    model: &mut FnModel,
) {
    let watched = cfg.unwrap_zero_arg.iter().any(|u| u == method)
        || cfg.unwrap_with_args.iter().any(|u| u == method);
    if !watched {
        return;
    }
    let close = match_bracket(toks, open_paren, end, '(', ')');
    // Zero-arg methods must actually be zero-arg to count (`read(buf)` is io).
    if cfg.unwrap_zero_arg.iter().any(|u| u == method)
        && !cfg.unwrap_with_args.iter().any(|u| u == method)
        && close != open_paren + 1
    {
        return;
    }
    if close + 2 < end && toks[close + 1].is('.') {
        if let Some(w) = toks[close + 2].ident() {
            if w == "unwrap" || w == "expect" {
                model.unwraps.push(UnwrapSite {
                    method: method.to_string(),
                    wrapper: w.to_string(),
                    line: toks[close + 2].line,
                });
            }
        }
    }
}

/// Index of the bracket matching `toks[open]`; `end` if unbalanced.
fn match_bracket(toks: &[Token], open: usize, end: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        if toks[j].is(o) {
            depth += 1;
        } else if toks[j].is(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end
}

/// Match `<..>` generics starting at `open` (a `<`).
fn match_angles(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        if toks[j].is('<') && !(j > 0 && toks[j - 1].is('-')) {
            depth += 1;
        } else if toks[j].is('>') && !(j > 0 && toks[j - 1].is('-')) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::parse(
            r#"
[order]
locks = ["flush_lock", "merge_lock", "state", "frozen", "data"]
unranked = ["outstanding"]
[guards]
read_guard = "state"
[unwrap]
zero_arg = ["lock", "read", "write", "recv"]
with_args = ["send"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn let_bound_guard_scopes_to_block_and_drop_ends_it() {
        let src = r#"
impl Tree {
    fn f(&self) {
        let st = self.state.write();
        self.apply();
        drop(st);
        let fz = self.frozen.lock();
    }
}
"#;
        let fns = extract(src, &cfg());
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.impl_type.as_deref(), Some("Tree"));
        assert_eq!(f.acquisitions.len(), 2);
        assert_eq!(f.acquisitions[0].lock, "state");
        assert!(f.acquisitions[0].self_rooted);
        // `frozen` is acquired after drop(st): nothing held.
        assert!(f.acquisitions[1].held.is_empty());
        // `apply` was called while `state` was held.
        let apply = f.calls.iter().find(|c| c.name == "apply").unwrap();
        assert_eq!(apply.held.len(), 1);
        assert_eq!(apply.held[0].lock, "state");
    }

    #[test]
    fn inner_block_guard_dies_at_block_end() {
        let src = r#"
fn f(&self) {
    let x = {
        let st = self.state.write();
        st.seq
    };
    self.store.finish();
}
"#;
        let fns = extract(src, &cfg());
        let finish = fns[0].calls.iter().find(|c| c.name == "finish").unwrap();
        assert!(finish.held.is_empty(), "guard must not leak out of its block");
    }

    #[test]
    fn with_arg_read_is_not_an_acquisition() {
        let src = "fn f(&self) { let b = self.data.read(off, len); }";
        let fns = extract(src, &cfg());
        assert!(fns[0].acquisitions.is_empty());
        assert!(fns[0].calls.iter().any(|c| c.name == "read"));
    }

    #[test]
    fn guard_returning_method_counts_as_acquisition() {
        let src = "fn f(&self) { let view = self.read_guard(); self.probe(); }";
        let fns = extract(src, &cfg());
        assert_eq!(fns[0].acquisitions[0].lock, "state");
        let probe = fns[0].calls.iter().find(|c| c.name == "probe").unwrap();
        assert_eq!(probe.held[0].lock, "state");
    }

    #[test]
    fn cfg_test_mod_and_test_fns_are_skipped() {
        let src = r#"
fn lib(&self) { let g = self.state.read(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let g = self.state.read().unwrap(); }
}
#[test]
fn also_skipped() { self.mu.lock().unwrap(); }
"#;
        let fns = extract(src, &cfg());
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "lib");
    }

    #[test]
    fn mut_self_receiver_detected() {
        let src = r#"
impl Dataset {
    fn a(&mut self) {}
    fn b(&self) {}
    fn c(self) {}
    fn d<'a>(&'a mut self) {}
}
"#;
        let fns = extract(src, &cfg());
        let by_name = |n: &str| fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("a").mut_self);
        assert!(!by_name("b").mut_self);
        assert!(!by_name("c").mut_self);
        assert!(by_name("d").mut_self);
    }

    #[test]
    fn unwrap_on_lock_result_recorded() {
        let src = r#"
fn f(&self) {
    let g = self.mu.lock().unwrap();
    self.tx.send(1).expect("send");
    let n = sock.read(&mut buf).unwrap(); // io read: with args, not watched
}
"#;
        let fns = extract(src, &cfg());
        let methods: Vec<&str> = fns[0].unwraps.iter().map(|u| u.method.as_str()).collect();
        assert_eq!(methods, ["lock", "send"]);
    }

    #[test]
    fn impl_trait_for_type_resolves_type_name() {
        let src = "impl<'a> Drop for WriterToken<'a> { fn drop(&mut self) {} }";
        let fns = extract(src, &cfg());
        assert_eq!(fns[0].impl_type.as_deref(), Some("WriterToken"));
    }
}
