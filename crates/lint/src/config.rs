//! `lint.toml` parsing.
//!
//! The workspace has no offline `toml` crate, so this module parses the small
//! TOML subset the lint config actually uses: `[table]` headers, `[[allow]]`
//! array-of-tables headers, `key = "string"`, and `key = ["array", "of",
//! "strings"]`, with `#` comments. Anything else is a hard error — the config
//! is checked in, so failing loudly beats guessing.

use std::collections::BTreeMap;
use std::fmt;

/// A module- or crate-scoped exemption recorded in `lint.toml`.
///
/// Every entry must carry a `reason`; the linter refuses a reasonless allow
/// the same way it refuses a reasonless inline suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier this entry exempts (e.g. `"det003"`).
    pub rule: String,
    /// Module path prefix the exemption covers (e.g. `"engine::parallel"`).
    pub module: Option<String>,
    /// Crate short name the exemption covers (e.g. `"bench"`).
    pub krate: Option<String>,
    /// Why the exemption is sound. Required.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (relative to the workspace root) excluded from the sweep.
    pub exclude: Vec<String>,
    /// Crate short names whose results feed the simulation, where the
    /// determinism rules (`det001`/`det002`/`det004`) apply.
    pub sim_crates: Vec<String>,
    /// Module path prefixes treated as hot (all hot-path rules apply inside).
    pub hot_modules: Vec<String>,
    /// Function names (bare or `Type::method`) treated as hot.
    pub hot_functions: Vec<String>,
    /// 1-indexed `lint.toml` line of each `hot_functions` entry (empty for
    /// a config built in code).
    pub hot_function_lines: Vec<u32>,
    /// Module/crate-level exemptions.
    pub allows: Vec<AllowEntry>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            exclude: vec!["vendor".into(), "target".into()],
            sim_crates: Vec::new(),
            hot_modules: Vec::new(),
            hot_functions: Vec::new(),
            hot_function_lines: Vec::new(),
            allows: Vec::new(),
        }
    }
}

/// A config-file problem with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-indexed line in `lint.toml`.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug, Default)]
struct RawTable {
    strings: BTreeMap<String, String>,
    arrays: BTreeMap<String, Vec<String>>,
}

impl Config {
    /// Parses the config from `lint.toml` text.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut tables: BTreeMap<String, RawTable> = BTreeMap::new();
        let mut allows_raw: Vec<(u32, RawTable)> = Vec::new();
        // Index into `allows_raw` while inside an `[[allow]]` block; None
        // while inside a plain `[table]`.
        let mut current_allow: Option<usize> = None;
        let mut current_table = String::new();

        // Pre-pass: join multi-line arrays (`key = [` … `]`) into one
        // logical line so the per-line parser below stays simple.
        let mut logical: Vec<(u32, String)> = Vec::new();
        for (idx, raw_line) in src.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            match logical.last_mut() {
                Some((_, prev)) if prev.contains('[') && !prev.contains(']') && prev.contains('=') => {
                    prev.push(' ');
                    prev.push_str(&line);
                }
                _ => logical.push((line_no, line)),
            }
        }

        for (line_no, line) in logical {
            let line = line.as_str();
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                let name = name.trim();
                if name != "allow" {
                    return Err(err(line_no, format!("unknown array table [[{name}]]")));
                }
                allows_raw.push((line_no, RawTable::default()));
                current_allow = Some(allows_raw.len() - 1);
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current_table = name.trim().to_string();
                current_allow = None;
                continue;
            }
            let (key, value) = split_key_value(line, line_no)?;
            let target = match current_allow {
                Some(i) => &mut allows_raw[i].1,
                None => tables.entry(current_table.clone()).or_default(),
            };
            match parse_value(value, line_no)? {
                Value::Str(s) => {
                    target.strings.insert(key, s);
                }
                Value::Array(a) => {
                    target.arrays.insert(key, a);
                }
            }
        }

        let mut config = Config::default();
        for (name, table) in &tables {
            match name.as_str() {
                "paths" => {
                    if let Some(ex) = table.arrays.get("exclude") {
                        config.exclude = ex.clone();
                    }
                    reject_unknown(name, table, &["exclude"], &[])?;
                }
                "determinism" => {
                    if let Some(c) = table.arrays.get("crates") {
                        config.sim_crates = c.clone();
                    }
                    reject_unknown(name, table, &["crates"], &[])?;
                }
                "hot" => {
                    if let Some(m) = table.arrays.get("modules") {
                        config.hot_modules = m.clone();
                    }
                    if let Some(f) = table.arrays.get("functions") {
                        config.hot_functions = f.clone();
                    }
                    reject_unknown(name, table, &["modules", "functions"], &[])?;
                }
                other => {
                    return Err(err(0, format!("unknown table [{other}]")));
                }
            }
        }
        for (line_no, raw) in allows_raw {
            let rule = raw
                .strings
                .get("rule")
                .cloned()
                .ok_or_else(|| err(line_no, "[[allow]] entry missing `rule`".into()))?;
            let reason = raw
                .strings
                .get("reason")
                .cloned()
                .filter(|r| !r.trim().is_empty())
                .ok_or_else(|| {
                    err(line_no, format!("[[allow]] for {rule} missing a non-empty `reason`"))
                })?;
            let module = raw.strings.get("module").cloned();
            let krate = raw.strings.get("crate").cloned();
            if module.is_none() && krate.is_none() {
                return Err(err(
                    line_no,
                    format!("[[allow]] for {rule} needs a `module` or `crate` scope"),
                ));
            }
            for key in raw.strings.keys() {
                if !matches!(key.as_str(), "rule" | "reason" | "module" | "crate") {
                    return Err(err(line_no, format!("unknown [[allow]] key `{key}`")));
                }
            }
            config.allows.push(AllowEntry { rule, module, krate, reason });
        }
        config.hot_function_lines = config
            .hot_functions
            .iter()
            .map(|f| {
                let quoted = format!("\"{f}\"");
                let line = src.lines().position(|l| strip_comment(l).contains(&quoted));
                line.map_or(1, |i| i as u32 + 1)
            })
            .collect();
        Ok(config)
    }
}

enum Value {
    Str(String),
    Array(Vec<String>),
}

fn err(line: u32, message: String) -> ConfigError {
    ConfigError {
        line,
        message: message.to_string(),
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside a quoted string starts a comment.
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

fn split_key_value(line: &str, line_no: u32) -> Result<(String, &str), ConfigError> {
    let eq = line
        .find('=')
        .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
    let key = line[..eq].trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(err(line_no, format!("bad key `{key}`")));
    }
    Ok((key.to_string(), line[eq + 1..].trim()))
}

fn parse_value(value: &str, line_no: u32) -> Result<Value, ConfigError> {
    if let Some(body) = value.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err(line_no, "arrays must close on the same line".into()))?;
        let mut items = Vec::new();
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            items.push(parse_string(item, line_no)?);
        }
        return Ok(Value::Array(items));
    }
    Ok(Value::Str(parse_string(value, line_no)?))
}

fn parse_string(value: &str, line_no: u32) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|v| v.to_string())
        .ok_or_else(|| err(line_no, format!("expected a quoted string, got `{value}`")))
}

fn reject_unknown(
    table: &str,
    raw: &RawTable,
    arrays: &[&str],
    strings: &[&str],
) -> Result<(), ConfigError> {
    for key in raw.arrays.keys() {
        if !arrays.contains(&key.as_str()) {
            return Err(err(0, format!("unknown key `{key}` in [{table}]")));
        }
    }
    for key in raw.strings.keys() {
        if !strings.contains(&key.as_str()) {
            return Err(err(0, format!("unknown key `{key}` in [{table}]")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# workspace lint configuration
[paths]
exclude = ["vendor", "target"]

[determinism]
crates = ["engine", "fleet"]

[hot]
modules = ["engine::queue"]
functions = [
    "Matrix::matmul_into",  # multi-line arrays join into one logical line
    "Fleet::dispatch",
]

[[allow]]
rule = "det003"
module = "engine::parallel"
reason = "deterministic scoped fan-out"

[[allow]]
rule = "panic002"
crate = "bench"
reason = "experiment binaries may assert"
"#;

    #[test]
    fn parses_tables_arrays_and_allows() {
        let cfg = Config::parse(GOOD).expect("valid config");
        assert_eq!(cfg.exclude, vec!["vendor", "target"]);
        assert_eq!(cfg.sim_crates, vec!["engine", "fleet"]);
        assert_eq!(cfg.hot_modules, vec!["engine::queue"]);
        assert_eq!(
            cfg.hot_functions,
            vec!["Matrix::matmul_into", "Fleet::dispatch"]
        );
        assert_eq!(cfg.hot_function_lines, vec![12, 13]);
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].rule, "det003");
        assert_eq!(cfg.allows[0].module.as_deref(), Some("engine::parallel"));
        assert_eq!(cfg.allows[1].krate.as_deref(), Some("bench"));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "[[allow]]\nrule = \"det001\"\nmodule = \"engine::time\"\n";
        let err = Config::parse(src).expect_err("reasonless allow");
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn allow_without_scope_is_rejected() {
        let src = "[[allow]]\nrule = \"det001\"\nreason = \"because\"\n";
        let err = Config::parse(src).expect_err("scopeless allow");
        assert!(err.message.contains("scope"), "{err}");
    }

    #[test]
    fn unknown_table_is_rejected() {
        let err = Config::parse("[nonsense]\nkey = \"v\"\n").expect_err("unknown table");
        assert!(err.message.contains("nonsense"), "{err}");
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = Config::parse("[paths]\nbogus = [\"x\"]\n").expect_err("unknown key");
        assert!(err.message.contains("bogus"), "{err}");
    }

    #[test]
    fn unquoted_value_is_rejected() {
        let err = Config::parse("[paths]\nexclude = [vendor]\n").expect_err("bare word");
        assert!(err.message.contains("quoted"), "{err}");
    }

    #[test]
    fn unclosed_array_at_eof_is_rejected() {
        let err = Config::parse("[hot]\nfunctions = [\n\"a\",\n").expect_err("unclosed");
        assert!(err.message.contains("close"), "{err}");
    }

    #[test]
    fn comments_inside_strings_are_preserved() {
        let cfg = Config::parse("[paths]\nexclude = [\"a#b\"]\n").expect("hash in string");
        assert_eq!(cfg.exclude, vec!["a#b"]);
    }
}
