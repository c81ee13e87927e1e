//! Parser for `lint.toml` — a small TOML subset (sections, string /
//! string-array / bare values, `#` comments, multi-line arrays). No external
//! crates: the analyzer must build in a hermetic workspace.

#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Directories (relative to the root) to walk for `.rs` files.
    pub roots: Vec<String>,
    /// Path substrings that exclude a file from analysis.
    pub exclude: Vec<String>,
    /// Declared lock order, outermost-first. Position is the rank.
    pub locks: Vec<String>,
    /// Lock fields deliberately outside the order (leaf locks that never nest).
    pub unranked: Vec<String>,
    /// Guard-returning methods: calling `x.method()` acquires the named lock.
    pub guards: Vec<(String, String)>,
    /// Function summaries: calling `name(..)` may acquire the listed locks.
    pub summaries: Vec<(String, Vec<String>)>,
    /// Functions that block (I/O, channel waits, merges) — must not be called
    /// while holding a hot lock.
    pub blocking: Vec<String>,
    /// Locks that must never be held across a blocking call.
    pub hot: Vec<String>,
    /// Write-API contract: `Type -> methods` that must stay `&self`.
    pub api: Vec<(String, Vec<String>)>,
    /// Zero-argument sync/channel methods whose result must not be unwrapped.
    pub unwrap_zero_arg: Vec<String>,
    /// With-argument sync/channel methods whose result must not be unwrapped.
    pub unwrap_with_args: Vec<String>,
}

impl Config {
    pub fn rank(&self, lock: &str) -> Option<usize> {
        self.locks.iter().position(|l| l == lock)
    }

    pub fn guard_lock(&self, method: &str) -> Option<&str> {
        self.guards.iter().find(|(m, _)| m == method).map(|(_, l)| l.as_str())
    }

    pub fn summary(&self, name: &str) -> Option<&[String]> {
        self.summaries.iter().find(|(n, _)| n == name).map(|(_, s)| s.as_slice())
    }

    pub fn api_methods(&self, ty: &str) -> Option<&[String]> {
        self.api.iter().find(|(t, _)| t == ty).map(|(_, m)| m.as_slice())
    }

    pub fn parse(src: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", n + 1))?;
                section = name.trim().to_string();
                continue;
            }
            let eq =
                line.find('=').ok_or_else(|| format!("line {}: expected `key = value`", n + 1))?;
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            // Multi-line array: keep consuming until brackets balance.
            while value.starts_with('[') && !brackets_balanced(&value) {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| format!("line {}: unterminated array for `{}`", n + 1, key))?;
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            apply(&mut cfg, &section, &key, &value)
                .map_err(|e| format!("line {}: {}", n + 1, e))?;
        }
        if cfg.locks.is_empty() {
            return Err("config declares no [order] locks".into());
        }
        Ok(cfg)
    }
}

fn apply(cfg: &mut Config, section: &str, key: &str, value: &str) -> Result<(), String> {
    match (section, key) {
        ("analysis", "roots") => cfg.roots = parse_array(value)?,
        ("analysis", "exclude") => cfg.exclude = parse_array(value)?,
        ("order", "locks") => cfg.locks = parse_array(value)?,
        ("order", "unranked") => cfg.unranked = parse_array(value)?,
        ("guards", method) => cfg.guards.push((method.to_string(), parse_string(value)?)),
        ("summaries", name) => cfg.summaries.push((name.to_string(), parse_array(value)?)),
        ("blocking", "functions") => cfg.blocking = parse_array(value)?,
        ("blocking", "hot_locks") => cfg.hot = parse_array(value)?,
        ("api", ty) => cfg.api.push((ty.to_string(), parse_array(value)?)),
        ("unwrap", "zero_arg") => cfg.unwrap_zero_arg = parse_array(value)?,
        ("unwrap", "with_args") => cfg.unwrap_with_args = parse_array(value)?,
        _ => return Err(format!("unknown key `{key}` in section `[{section}]`")),
    }
    Ok(())
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{v}`"))
}

fn parse_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array of strings, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let cfg = Config::parse(
            r#"
# top comment
[analysis]
roots = ["crates", "src"]
exclude = ["vendor/"] # trailing comment

[order]
locks = [
    "flush_lock",  # rank 0
    "state",
]
unranked = ["outstanding"]

[guards]
read_guard = "state"

[summaries]
flush = ["flush_lock", "state"]

[blocking]
functions = ["read_page"]
hot_locks = ["state"]

[api]
LsmTree = ["insert"]

[unwrap]
zero_arg = ["lock"]
with_args = ["send"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.roots, ["crates", "src"]);
        assert_eq!(cfg.locks, ["flush_lock", "state"]);
        assert_eq!(cfg.rank("state"), Some(1));
        assert_eq!(cfg.guard_lock("read_guard"), Some("state"));
        assert_eq!(cfg.summary("flush").unwrap(), ["flush_lock", "state"]);
        assert_eq!(cfg.api_methods("LsmTree").unwrap(), ["insert"]);
        assert_eq!(cfg.unwrap_with_args, ["send"]);
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Config::parse("[order]\nlocks = [\"a\"]\nbogus = 1").is_err());
    }
}
