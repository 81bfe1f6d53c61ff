//! The lightweight intra-workspace call graph shared by the
//! reachability-based passes (`hotpath`, `determinism`).
//!
//! Built once over the *masked* sources (comments/strings blanked, see
//! [`crate::scan::mask`]): function definitions with their enclosing
//! `impl` type and line ranges, an innermost-enclosing-function map per
//! line, and call edges resolved by name against workspace
//! definitions. Qualified calls (`Type::fn`) resolve against
//! `impl Type` blocks when the type is defined in the workspace and
//! are dropped when it is foreign (`Vec::new` never drags every
//! workspace `new` into the graph); `Self::fn` uses the caller's impl
//! type; module-path calls fall back to name-only resolution, and
//! method calls (`.fn(`) to name-only resolution over functions
//! defined in an `impl` or `trait` block, since method syntax cannot
//! call a free function. This is deliberately over-approximate — a
//! method call reaches every workspace method of that name.
//!
//! `#[cfg(test)]` regions contribute neither definitions nor edges.
//! The passes differ only in how they traverse: `hotpath` walks
//! *forward* from the stage-timer/dispatch roots, `determinism` walks
//! *backward* from the output sinks.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::scan::{mask, test_lines, workspace_units, Waiver};

/// One input file for graph construction: workspace-relative path, raw
/// source, and whether findings in it should be emitted (`--changed`
/// keeps every file in the graph but only reports on changed ones).
pub struct SourceFile {
    pub rel: String,
    pub source: String,
    pub eligible: bool,
}

/// Loads every workspace source file under `root`, marking files
/// outside `changed` (when given) as graph-only. Shared by the
/// reachability passes, whose call graphs must always span the full
/// tree regardless of `--changed`.
pub fn load_workspace_sources(
    root: &Path,
    changed: Option<&HashSet<PathBuf>>,
) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for unit in workspace_units(root, None)? {
        for file in &unit.files {
            let source = std::fs::read_to_string(file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .into_owned();
            let eligible = changed.is_none_or(|set| {
                std::fs::canonicalize(file)
                    .map(|abs| set.contains(&abs))
                    .unwrap_or(false)
            });
            files.push(SourceFile {
                rel,
                source,
                eligible,
            });
        }
    }
    Ok(files)
}

/// A function definition discovered in the masked source.
#[derive(Debug)]
pub struct FnDef {
    /// Index into the input file slice.
    pub file: usize,
    pub name: String,
    /// The `impl` block's type name, when defined inside one.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the closing brace (>= start).
    pub end: usize,
    pub in_test: bool,
}

/// One call site inside a function body.
#[derive(Debug)]
enum Call {
    /// `foo(` — resolved by name alone.
    Name(String),
    /// `.foo(` — resolved by name over definitions inside an `impl`
    /// or `trait` block.
    Method(String),
    /// `Qual::foo(` — resolved against `impl Qual` when `Qual` is a
    /// workspace type (capitalized); by name for module paths.
    Qualified(String, String),
}

/// Per-file masking artifacts kept alongside the graph.
pub struct FileInfo {
    pub masked: String,
    pub in_test: Vec<bool>,
    pub waivers: Vec<Waiver>,
}

/// The resolved call graph over one set of [`SourceFile`]s.
pub struct CallGraph {
    pub infos: Vec<FileInfo>,
    pub defs: Vec<FnDef>,
    /// Innermost enclosing function (index into `defs`) per masked
    /// line, per file.
    pub fn_of_line: Vec<Vec<Option<usize>>>,
    /// Resolved callee definition indices per definition, in call-site
    /// order (duplicates preserved).
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Masks every file, extracts definitions, and resolves call
    /// edges. Test regions contribute nothing.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        // Pass 1: mask + definitions.
        let mut infos: Vec<FileInfo> = Vec::with_capacity(files.len());
        let mut defs: Vec<FnDef> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let masked = mask(&f.source);
            let lines: Vec<&str> = masked.text.lines().collect();
            let in_test = test_lines(&lines);
            extract_defs(fi, &lines, &in_test, &mut defs);
            infos.push(FileInfo {
                masked: masked.text,
                in_test,
                waivers: masked.waivers,
            });
        }

        // Resolution maps over non-test definitions.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_type: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (di, d) in defs.iter().enumerate() {
            if d.in_test {
                continue;
            }
            by_name.entry(&d.name).or_default().push(di);
            if let Some(ty) = &d.impl_type {
                methods_by_name.entry(&d.name).or_default().push(di);
                by_type.entry((ty.as_str(), &d.name)).or_default().push(di);
            }
        }

        // Innermost enclosing function per line, per file.
        let mut fn_of_line: Vec<Vec<Option<usize>>> = infos
            .iter()
            .map(|info| vec![None; info.masked.lines().count()])
            .collect();
        for (di, d) in defs.iter().enumerate() {
            // Definitions are pushed outer-before-inner, so later
            // (inner) entries override within their narrower range.
            for slot in &mut fn_of_line[d.file][d.start - 1..d.end] {
                *slot = Some(di);
            }
        }

        // Pass 2: per-fn call lists.
        let mut calls: Vec<Vec<Call>> = (0..defs.len()).map(|_| Vec::new()).collect();
        for (fi, info) in infos.iter().enumerate() {
            for (idx, line) in info.masked.lines().enumerate() {
                if info.in_test[idx] {
                    continue;
                }
                let Some(di) = fn_of_line[fi][idx] else {
                    continue;
                };
                if defs[di].in_test {
                    continue;
                }
                collect_calls(line, &mut calls[di]);
            }
        }

        // Resolve calls into edges, in call-site order.
        let edges: Vec<Vec<usize>> = calls
            .iter()
            .enumerate()
            .map(|(di, fn_calls)| {
                let mut out = Vec::new();
                for call in fn_calls {
                    let targets: &[usize] = match call {
                        Call::Name(name) => by_name.get(name.as_str()).map_or(&[], Vec::as_slice),
                        Call::Method(name) => methods_by_name
                            .get(name.as_str())
                            .map_or(&[], Vec::as_slice),
                        Call::Qualified(q, name) => {
                            let ty = if q == "Self" {
                                defs[di].impl_type.as_deref()
                            } else {
                                Some(q.as_str())
                            };
                            match ty.and_then(|t| by_type.get(&(t, name.as_str()))) {
                                Some(ids) => ids.as_slice(),
                                // Capitalized qualifiers are type
                                // paths; when the type is foreign
                                // (Vec, String, ...) there is no
                                // workspace edge. Lowercase qualifiers
                                // are module paths — resolve by name.
                                None if q.chars().next().is_some_and(char::is_uppercase) => &[],
                                None => by_name.get(name.as_str()).map_or(&[], Vec::as_slice),
                            }
                        }
                    };
                    out.extend_from_slice(targets);
                }
                out
            })
            .collect();

        CallGraph {
            infos,
            defs,
            fn_of_line,
            edges,
        }
    }

    /// BFS forward from `roots`, recording which root first reached
    /// each definition (root provenance). Roots map to themselves.
    pub fn forward_reach(&self, roots: &[usize]) -> HashMap<usize, usize> {
        let mut reach: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            reach.entry(r).or_insert(r);
            queue.push_back(r);
        }
        while let Some(di) = queue.pop_front() {
            let root = reach[&di];
            for &t in &self.edges[di] {
                if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(t) {
                    e.insert(root);
                    queue.push_back(t);
                }
            }
        }
        reach
    }

    /// BFS backward from `seeds` over reversed edges, recording which
    /// seed (sink) each definition first reached. Seeds map to
    /// themselves. Used by `determinism` to find every function whose
    /// output can flow into a sink.
    pub fn reverse_reach(&self, seeds: &[usize]) -> HashMap<usize, usize> {
        let mut reverse: Vec<Vec<usize>> = (0..self.defs.len()).map(|_| Vec::new()).collect();
        for (di, targets) in self.edges.iter().enumerate() {
            for &t in targets {
                reverse[t].push(di);
            }
        }
        let mut reach: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            reach.entry(s).or_insert(s);
            queue.push_back(s);
        }
        while let Some(di) = queue.pop_front() {
            let sink = reach[&di];
            for &caller in &reverse[di] {
                if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(caller) {
                    e.insert(sink);
                    queue.push_back(caller);
                }
            }
        }
        reach
    }
}

/// Lines whose trailing arguments only evaluate on failure (assert /
/// panic family) or behind the trace-level guard (obs event macros
/// expand to `if enabled(level) { ... }`) — work there is off the
/// fast path and never part of persisted output.
pub(crate) const COLD_LINE_PREFIXES: [&str; 11] = [
    "assert!",
    "assert_eq!",
    "assert_ne!",
    "debug_assert",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "event!(",
    "event_kv!(",
    "tdess_obs::event",
];

/// Substring match that, when the pattern starts with an identifier
/// character, requires a non-identifier character (or line start)
/// before it — `connect(` must not match inside `is_disconnect(`.
pub(crate) fn has_pattern(line: &str, pat: &str) -> bool {
    let ident_start = pat
        .as_bytes()
        .first()
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
    let mut start = 0;
    while let Some(pos) = line[start..].find(pat) {
        let abs = start + pos;
        if !ident_start
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return true;
        }
        start = abs + 1;
    }
    false
}

/// Extracts function definitions (with enclosing `impl` type and line
/// ranges) from one file's masked lines.
fn extract_defs(file: usize, lines: &[&str], in_test: &[bool], defs: &mut Vec<FnDef>) {
    let mut depth = 0usize;
    // (type name, block depth)
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    // (name, header line)
    let mut pending_fn: Option<(String, usize)> = None;
    // (defs index, body depth)
    let mut open_fns: Vec<(usize, usize)> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if pending_impl.is_none() && pending_fn.is_none() {
            if let Some(ty) = impl_header(line) {
                pending_impl = Some(ty);
            }
        }
        if pending_fn.is_none() {
            if let Some(name) = fn_header(line) {
                pending_fn = Some((name, lineno));
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    // On `impl Foo { fn bar() {` the first brace
                    // belongs to the impl, the second to the fn.
                    if let Some(ty) = pending_impl.take() {
                        impl_stack.push((ty, depth));
                    } else if let Some((name, start)) = pending_fn.take() {
                        let impl_type = impl_stack.last().map(|(t, _)| t.clone());
                        defs.push(FnDef {
                            file,
                            name,
                            impl_type,
                            start,
                            end: start,
                            in_test: in_test[start - 1],
                        });
                        open_fns.push((defs.len() - 1, depth));
                    }
                }
                '}' => {
                    if let Some(&(di, d)) = open_fns.last() {
                        if d == depth {
                            defs[di].end = lineno;
                            open_fns.pop();
                        }
                    }
                    if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                        impl_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // A `;` before the body brace is a bodyless
                // declaration (trait method signature).
                ';' => pending_fn = None,
                _ => {}
            }
        }
    }
    // Unclosed trailing fns (truncated file) keep end == start.
    for (di, _) in open_fns {
        defs[di].end = lines.len().max(defs[di].start);
    }
}

/// The function name when `line` opens a definition (`fn name...`).
fn fn_header(line: &str) -> Option<String> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("fn") {
        let abs = start + pos;
        let prev_ok = abs == 0
            || !{
                let c = bytes[abs - 1];
                c.is_ascii_alphanumeric() || c == b'_'
            };
        let after = abs + 2;
        let next_ws = bytes.get(after).is_some_and(u8::is_ascii_whitespace);
        if prev_ok && next_ws {
            let name: String = line[after..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        start = after;
    }
    None
}

/// The implemented type's name when `line` opens an `impl` block
/// (`impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`).
fn impl_header(line: &str) -> Option<String> {
    let t = line.trim_start();
    // A trait's default method bodies are methods too.
    let vis = ["pub(crate) ", "pub "]
        .iter()
        .find_map(|v| t.strip_prefix(v))
        .unwrap_or(t);
    if let Some(rest) = vis.strip_prefix("trait ") {
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    let rest = t.strip_prefix("impl")?;
    let rest = if let Some(r) = rest.strip_prefix('<') {
        // Skip the generic parameter list.
        let mut depth = 1usize;
        let mut cut = r.len();
        for (i, c) in r.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &r[cut..]
    } else if rest.starts_with(char::is_whitespace) {
        rest
    } else {
        return None;
    };
    let rest = rest.trim_start();
    let target = match rest.find(" for ") {
        Some(pos) => rest[pos + 5..].trim_start(),
        None => rest,
    };
    // Strip leading `&`/`mut` (impl for references is rare but legal).
    let target = target.trim_start_matches(['&', ' ']);
    let name: String = target
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Appends the call sites found on one masked line.
fn collect_calls(line: &str, out: &mut Vec<Call>) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        // Numeric-literal suffix (`100usize`).
        if start > 0 && bytes[start - 1].is_ascii_digit() {
            continue;
        }
        // Macros are not function edges.
        if bytes.get(i) == Some(&b'!') {
            continue;
        }
        let name = &line[start..i];
        // Skip a turbofish between name and argument list.
        let mut j = i;
        if line[j..].starts_with("::<") {
            let mut depth = 0usize;
            let mut k = j + 2;
            while k < bytes.len() {
                match bytes[k] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        let before = line[..start].trim_end();
        // The name in `fn name(` is a definition, not a call.
        if before.ends_with("fn")
            && !before[..before.len() - 2].ends_with(|c: char| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        if let Some(path) = before.strip_suffix("::") {
            let qual: String = path
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !qual.is_empty() {
                out.push(Call::Qualified(qual, name.to_string()));
                continue;
            }
        }
        if before.ends_with('.') && !before.ends_with("..") {
            out.push(Call::Method(name.to_string()));
        } else {
            out.push(Call::Name(name.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile {
                rel: rel.to_string(),
                source: src.to_string(),
                eligible: true,
            })
            .collect();
        CallGraph::build(&files)
    }

    fn def_index(g: &CallGraph, name: &str) -> usize {
        g.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("no def named {name}"))
    }

    #[test]
    fn reverse_reach_walks_callers_with_sink_provenance() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
pub fn entry() {
    middle();
}
fn middle() {
    sink();
}
fn sink() {}
fn unrelated() {}
",
        )]);
        let sink = def_index(&g, "sink");
        let reach = g.reverse_reach(&[sink]);
        assert_eq!(reach.get(&def_index(&g, "entry")), Some(&sink));
        assert_eq!(reach.get(&def_index(&g, "middle")), Some(&sink));
        assert_eq!(reach.get(&sink), Some(&sink));
        assert!(!reach.contains_key(&def_index(&g, "unrelated")));
    }

    #[test]
    fn forward_reach_maps_roots_to_themselves() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
pub fn root() {
    callee();
}
fn callee() {}
",
        )]);
        let root = def_index(&g, "root");
        let reach = g.forward_reach(&[root]);
        assert_eq!(reach.get(&root), Some(&root));
        assert_eq!(reach.get(&def_index(&g, "callee")), Some(&root));
    }

    #[test]
    fn method_calls_reach_methods_but_never_free_functions() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
pub fn entry(c: &Counter) {
    c.load();
    c.get();
}
pub fn load() {}
pub struct Counter;
impl Counter {
    fn load(&self) {}
}
pub trait Get {
    fn get(&self) {}
}
",
        )]);
        let entry = def_index(&g, "entry");
        let reach = g.forward_reach(&[entry]);
        let reached = |name: &str, ty: Option<&str>| {
            g.defs.iter().enumerate().any(|(di, d)| {
                d.name == name && d.impl_type.as_deref() == ty && reach.contains_key(&di)
            })
        };
        assert!(reached("load", Some("Counter")));
        assert!(reached("get", Some("Get")));
        assert!(!reached("load", None), "`.load(` reached a free fn");
    }

    #[test]
    fn test_defs_stay_out_of_the_graph() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "\
pub fn entry() {
    sink();
}
fn sink() {}
#[cfg(test)]
mod tests {
    fn test_only() {
        sink();
    }
}
",
        )]);
        let sink = def_index(&g, "sink");
        let reach = g.reverse_reach(&[sink]);
        let test_only = def_index(&g, "test_only");
        assert!(!reach.contains_key(&test_only));
    }
}
