//! Repo automation. `cargo run -p xtask -- lint` runs les3-lint: the
//! token-level checks that keep the concurrency story honest and that
//! clippy cannot express.
//!
//! The rules (each can be waived on a specific line with a same-line
//! `// lint: allow(<rule>)` comment):
//!
//! * `partial-cmp-unwrap` — bans `partial_cmp(..).unwrap()` everywhere:
//!   NaN turns it into a panic on the query path; use `total_cmp` or
//!   handle the `None`.
//! * `core-sync-facade` — bans `std::sync::atomic` and `std::thread`
//!   tokens, and `RwLock` / `Mutex` / `Condvar` (guards included) named
//!   through a `std::sync` path or import group, in non-test les3-core
//!   code outside `src/sync.rs` and in non-test les3-net code: every
//!   synchronization primitive must go through the `les3_core::sync`
//!   facade or the `model` feature silently stops covering it.
//! * `relaxed-needs-justification` — every `Ordering::Relaxed` in
//!   non-test crate sources must carry a `// relaxed:` comment saying
//!   why the weakest ordering is sound there, either on the same line
//!   or in the contiguous comment block directly above.
//! * `unsafe-needs-safety` — every `unsafe` block, function, impl or
//!   trait in non-test sources (outside `tests/` directories and
//!   `#[cfg(test)]` items) must carry a `// SAFETY:` comment saying
//!   which obligation the code meets and how, on the same line or in the
//!   contiguous comment block directly above.
//! * `no-unwrap` — non-test code in `crates/net/src` and
//!   `crates/core/src/persist` must not `.unwrap()` / `.expect(`:
//!   both sit on error paths (sockets, disks) where panicking converts
//!   a recoverable fault into a dead worker.
//! * `doc-paths` — every `crates/…`, `examples/…`, `docs/…` path
//!   mentioned in README.md, ARCHITECTURE.md, and docs/*.md must exist
//!   (this used to be a shell step in CI).
//!
//! `crates/shims/` is exempt: the shims vendor external crates' APIs
//! and follow those crates' idioms, not ours.
//!
//! Scanning is token-level on a *code view* of each file — comments and
//! string/char literal contents blanked, line structure preserved —
//! with `#[cfg(test)]` item regions masked out by brace tracking, so
//! the rules see real code and only real code.
//!
//! `cargo run -p xtask -- loc` prints the tracked size number on the
//! same view: the non-blank code-view lines outside `#[cfg(test)]`
//! regions, as a total for every crate's `src` directory and for the
//! workspace, and per file for `crates/core/src`, `crates/net/src` and
//! `crates/bitmap/src`.
//! Comments, blank lines and in-`src` tests do not count, so neither
//! does deleting them. It only reports.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut cmd = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage("--root needs a path"),
            },
            "lint" | "loc" if cmd.is_none() => cmd = Some(a.as_str()),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    match cmd {
        Some("lint") => run_lint(&root),
        Some("loc") => run_loc(&root),
        _ => usage("expected a subcommand"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: cargo run -p xtask -- <lint|loc> [--root <repo-root>]");
    ExitCode::from(2)
}

fn run_lint(root: &Path) -> ExitCode {
    let mut violations = Vec::new();
    for file in rust_sources(root) {
        let rel = rel_str(root, &file);
        match std::fs::read_to_string(&file) {
            Ok(src) => violations.extend(lint_rust(&rel, &src)),
            Err(e) => violations.push(Violation {
                file: rel,
                line: 0,
                rule: "io",
                msg: format!("unreadable: {e}"),
            }),
        }
    }
    for file in doc_files(root) {
        let rel = rel_str(root, &file);
        if let Ok(text) = std::fs::read_to_string(&file) {
            violations.extend(lint_doc_paths(root, &rel, &text));
        }
    }
    for v in &violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.msg);
    }
    if violations.is_empty() {
        println!("les3-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("les3-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The crates whose code size is a tracked number (ROADMAP aim 2):
/// these are listed per file, every other crate by its total only.
const LOC_CRATES: [&str; 3] = ["crates/core/src", "crates/net/src", "crates/bitmap/src"];

fn run_loc(root: &Path) -> ExitCode {
    let mut files = Vec::new();
    for file in rust_sources(root) {
        let rel = rel_str(root, &file);
        let Ok(src) = std::fs::read_to_string(&file) else {
            eprintln!("error: unreadable: {rel}");
            return ExitCode::FAILURE;
        };
        files.push((rel, code_lines(&src)));
    }
    for line in loc_report(&files) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// The `src` directory a source file belongs to (`crates/core/src`,
/// `src`, …); `None` for the tests, benches and examples outside one.
fn crate_src_dir(rel: &str) -> Option<&str> {
    if rel.starts_with("src/") {
        return Some("src");
    }
    rel.find("/src/").map(|i| &rel[..i + "/src".len()])
}

/// The report for `(repo-relative path, code lines)` pairs: crate by
/// crate in path order, the [`LOC_CRATES`] file by file, every crate's
/// `src` total, and the workspace total last.
fn loc_report(files: &[(String, usize)]) -> Vec<String> {
    let mut crates: BTreeMap<&str, (Vec<String>, usize)> = BTreeMap::new();
    for (rel, n) in files {
        let Some(dir) = crate_src_dir(rel) else {
            continue;
        };
        let (lines, total) = crates.entry(dir).or_default();
        if LOC_CRATES.contains(&dir) {
            lines.push(format!("{n:>7}  {rel}"));
        }
        *total += n;
    }
    let workspace: usize = crates.values().map(|(_, total)| total).sum();
    let mut report = Vec::new();
    for (dir, (lines, total)) in crates {
        report.extend(lines);
        report.push(format!("{total:>7}  {dir} (total)"));
    }
    report.push(format!("{workspace:>7}  workspace (total)"));
    report
}

/// Non-blank lines of `src`'s code view outside `#[cfg(test)]` regions.
fn code_lines(src: &str) -> usize {
    let code = code_view(src);
    let lines: Vec<&str> = code.lines().collect();
    let in_test = test_mask(&lines);
    lines
        .iter()
        .zip(&in_test)
        .filter(|&(line, &test)| !test && !line.trim().is_empty())
        .count()
}

struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

fn rel_str(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every `.rs` file under the repo except build output, VCS internals,
/// and the vendored shims.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || rel_str(root, &path) == "crates/shims" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for name in ["README.md", "ARCHITECTURE.md"] {
        let p = root.join(name);
        if p.exists() {
            out.push(p);
        }
    }
    if let Ok(entries) = std::fs::read_dir(root.join("docs")) {
        let mut docs: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "md"))
            .collect();
        docs.sort();
        out.extend(docs);
    }
    out
}

/// Per code-view line, the lock types it names through a `std::sync`
/// path: directly (`std::sync::RwLockReadGuard` counts as `RwLock`) or
/// inside an import group (`use std::sync::{Arc, Mutex};`), which may
/// nest and span lines.
fn std_sync_locks(code_lines: &[&str]) -> Vec<Vec<&'static str>> {
    const PATH: &str = "std::sync::";
    const LOCKS: [&str; 3] = ["RwLock", "Mutex", "Condvar"];
    // Brace depth inside an open `std::sync::{` group; 0 outside one.
    let mut depth = 0usize;
    code_lines
        .iter()
        .map(|line| {
            let mut found = Vec::new();
            let mut rest = *line;
            while !rest.is_empty() {
                if depth == 0 {
                    let Some(at) = rest.find(PATH) else { break };
                    rest = &rest[at + PATH.len()..];
                    if let Some(group) = rest.strip_prefix('{') {
                        (depth, rest) = (1, group);
                        continue;
                    }
                }
                // `rest` starts at a path segment, or anywhere in a group.
                let ident = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                found.extend(LOCKS.iter().filter(|l| rest[..ident].starts_with(**l)));
                rest = &rest[ident..];
                if depth > 0 {
                    if let Some(c) = rest.chars().next() {
                        depth = match c {
                            '{' => depth + 1,
                            '}' => depth - 1,
                            _ => depth,
                        };
                        rest = &rest[c.len_utf8()..];
                    }
                }
            }
            found
        })
        .collect()
}

/// Lints one Rust file; `rel` is the repo-relative path with `/`
/// separators (rule scoping keys off it).
fn lint_rust(rel: &str, src: &str) -> Vec<Violation> {
    let code = code_view(src);
    let code_lines: Vec<&str> = code.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let in_test = test_mask(&code_lines);
    let locks = std_sync_locks(&code_lines);

    let facade_scope = (rel.starts_with("crates/core/src/") && rel != "crates/core/src/sync.rs")
        || rel.starts_with("crates/net/src/");
    let crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    let no_unwrap_scope =
        rel.starts_with("crates/net/src/") || rel.starts_with("crates/core/src/persist/");
    let test_file = rel.starts_with("tests/") || rel.contains("/tests/");

    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, msg: String| {
        out.push(Violation {
            file: rel.to_string(),
            line: line + 1,
            rule,
            msg,
        });
    };

    for (i, code) in code_lines.iter().enumerate() {
        let raw = raw_lines.get(i).copied().unwrap_or("");
        let allowed = |rule: &str| raw.contains(&format!("// lint: allow({rule})"));

        // partial-cmp-unwrap applies everywhere, tests included — a
        // NaN-panicking comparison is as wrong in a test as on the
        // query path.
        if let Some(p) = code.find("partial_cmp(") {
            if code[p..].contains(".unwrap()") && !allowed("partial-cmp-unwrap") {
                push(
                    i,
                    "partial-cmp-unwrap",
                    "partial_cmp().unwrap() panics on NaN; use total_cmp or handle None".into(),
                );
            }
        }

        if in_test[i] {
            continue;
        }

        if facade_scope && !allowed("core-sync-facade") {
            let tokens = ["std::sync::atomic", "std::thread"]
                .into_iter()
                .filter(|token| code.contains(token))
                .map(str::to_string)
                .chain(locks[i].iter().map(|lock| format!("std::sync::{lock}")));
            for token in tokens {
                push(
                    i,
                    "core-sync-facade",
                    format!(
                        "`{token}` bypasses the les3_core::sync facade, so the `model` \
                         feature cannot check it; import from the facade instead"
                    ),
                );
            }
        }

        if crate_src
            && code.contains("Ordering::Relaxed")
            && !raw.contains("// relaxed:")
            && !comment_block_above_has(&raw_lines, i, "// relaxed:")
            && !allowed("relaxed-needs-justification")
        {
            push(
                i,
                "relaxed-needs-justification",
                "Ordering::Relaxed requires a `// relaxed:` justification on this line or \
                 in the comment block directly above"
                    .into(),
            );
        }

        if !test_file
            && has_word(code, "unsafe")
            && !raw.contains("// SAFETY:")
            && !comment_block_above_has(&raw_lines, i, "// SAFETY:")
            && !allowed("unsafe-needs-safety")
        {
            push(
                i,
                "unsafe-needs-safety",
                "`unsafe` requires a `// SAFETY:` comment on this line or in the comment block \
                 directly above, saying why the code upholds what the compiler cannot check"
                    .into(),
            );
        }

        if no_unwrap_scope {
            for token in [".unwrap()", ".expect("] {
                if code.contains(token) && !allowed("no-unwrap") {
                    push(
                        i,
                        "no-unwrap",
                        format!(
                            "`{token}` in error-path code turns a recoverable fault into a \
                             panic; propagate the error (or justify with a lint allow)"
                        ),
                    );
                }
            }
        }
    }
    out
}

/// True when `word` occurs in `code` as a whole identifier (not as part
/// of a longer one such as `unsafe_code`).
fn has_word(code: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    code.match_indices(word).any(|(at, _)| {
        !ident(code[..at].chars().next_back()) && !ident(code[at + word.len()..].chars().next())
    })
}

/// True when the contiguous run of comment-only lines directly above
/// line `i` contains `needle` (a justification written as a lead-in
/// block rather than squeezed onto the statement line).
fn comment_block_above_has(raw_lines: &[&str], i: usize, needle: &str) -> bool {
    raw_lines[..i]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .any(|l| l.contains(needle))
}

/// Checks every `(crates|examples|docs)/…` reference in a Markdown file
/// against the tree. Trailing `.`/`,`/`)` punctuation is trimmed, as
/// prose and links put those right after paths.
fn lint_doc_paths(root: &Path, rel: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        for path in doc_path_refs(line) {
            if !seen.insert(path.clone()) {
                continue;
            }
            if !root.join(&path).exists() {
                out.push(Violation {
                    file: rel.to_string(),
                    line: i + 1,
                    rule: "doc-paths",
                    msg: format!("references a missing path: {path}"),
                });
            }
        }
    }
    out
}

/// Leftmost-longest, non-overlapping extraction of
/// `(crates|examples|docs)/[A-Za-z0-9_./-]+` matches from one line.
fn doc_path_refs(line: &str) -> Vec<String> {
    const ANCHORS: [&str; 3] = ["crates/", "examples/", "docs/"];
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut out = Vec::new();
    let mut i = 0;
    while i < line.len() {
        let rest = &line[i..];
        let Some(anchor) = ANCHORS.iter().find(|a| rest.starts_with(**a)) else {
            i += rest.chars().next().map_or(1, char::len_utf8);
            continue;
        };
        let mut end = anchor.len();
        for c in rest[anchor.len()..].chars() {
            if is_path_char(c) {
                end += c.len_utf8();
            } else {
                break;
            }
        }
        let path = rest[..end].trim_end_matches(['.', ',', ')']);
        out.push(path.to_string());
        i += end;
    }
    out
}

/// Returns `src` with comments and string/char literal contents blanked
/// to spaces (newlines kept), so token scans see only code. Handles
/// line and nested block comments, plain/byte/raw strings, and char
/// literals vs. lifetimes.
fn code_view(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(src.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < n {
        let c = chars[i];
        let next = |k: usize| chars.get(i + k).copied();
        let prev_ident = i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_');
        match c {
            '/' if next(1) == Some('/') => {
                while i < n && chars[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if next(1) == Some('*') => {
                let mut depth = 0usize;
                while i < n {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&chars, i, &mut out),
            'r' | 'b' if !prev_ident => {
                // Possible r"…", r#"…"#, b"…", br"…", b'…' prefix.
                let mut j = i;
                if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
                    j += 1;
                }
                let mut hashes = 0;
                let mut k = j + 1;
                if chars[j] == 'r' {
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                }
                if chars[j] == 'r' && chars.get(k) == Some(&'"') {
                    // Raw string: runs to a `"` followed by `hashes` #s.
                    for _ in i..=k {
                        out.push(' ');
                    }
                    i = k + 1;
                    while i < n {
                        if chars[i] == '"'
                            && (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#'))
                        {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                } else if c == 'b' && next(1) == Some('"') {
                    out.push(' ');
                    i = skip_string(&chars, i + 1, &mut out);
                } else if c == 'b' && next(1) == Some('\'') {
                    out.push(' ');
                    i = skip_char_literal(&chars, i + 1, &mut out);
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime: `'\…'` and `'x'` are
                // literals; `'ident` with no closing quote is a
                // lifetime and passes through as code.
                let is_literal = match next(1) {
                    Some('\\') => true,
                    Some(ch) if ch != '\'' => next(2) == Some('\''),
                    _ => true,
                };
                if is_literal {
                    i = skip_char_literal(&chars, i, &mut out);
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Blanks a `"…"` literal starting at `chars[start]`; returns the index
/// one past the closing quote.
fn skip_string(chars: &[char], start: usize, out: &mut String) -> usize {
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    out.push(' '); // opening quote
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                out.push(' ');
                if i + 1 < chars.len() {
                    out.push(blank(chars[i + 1]));
                }
                i += 2;
            }
            '"' => {
                out.push(' ');
                return i + 1;
            }
            c => {
                out.push(blank(c));
                i += 1;
            }
        }
    }
    i
}

/// Blanks a `'…'` literal starting at `chars[start]`; returns the index
/// one past the closing quote.
fn skip_char_literal(chars: &[char], start: usize, out: &mut String) -> usize {
    out.push(' ');
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                out.push(' ');
                if i + 1 < chars.len() {
                    out.push(' ');
                }
                i += 2;
            }
            '\'' => {
                out.push(' ');
                return i + 1;
            }
            _ => {
                out.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Marks the lines belonging to `#[cfg(test)]` items (attribute lines
/// included) by tracking brace depth through the code view.
fn test_mask(code_lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut depth = 0usize;
    let mut region: Option<usize> = None; // depth at which the test item opened
    let mut pending = false; // saw #[cfg(test)], waiting for the item's `{`
    for (i, line) in code_lines.iter().enumerate() {
        if region.is_some() || pending {
            mask[i] = true;
        }
        if line.contains("cfg(test)") || line.contains("cfg(all(test") {
            pending = true;
            mask[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending && region.is_none() {
                        region = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if region == Some(depth) {
                        region = None;
                    }
                }
                // `#[cfg(test)] use x;` — the attribute attaches to a
                // braceless item that ends at the semicolon.
                ';' if pending && region.is_none() => pending = false,
                _ => {}
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<String> {
        lint_rust(rel, src)
            .into_iter()
            .map(|v| format!("{}:{}", v.rule, v.line))
            .collect()
    }

    #[test]
    fn flags_partial_cmp_unwrap_anywhere() {
        let src = "fn f(a: f64, b: f64) {\n    let _ = a.partial_cmp(&b).unwrap();\n}\n";
        assert_eq!(
            lint("crates/core/src/index.rs", src),
            ["partial-cmp-unwrap:2"]
        );
        // …including in test code and outside crates/.
        let t = "#[cfg(test)]\nmod tests {\n    fn g(a: f64) { a.partial_cmp(&a).unwrap(); }\n}\n";
        assert_eq!(lint("tests/end_to_end.rs", t), ["partial-cmp-unwrap:3"]);
    }

    #[test]
    fn partial_cmp_definitions_are_fine() {
        let src = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }\n}\n";
        assert!(lint("crates/rtree/src/search.rs", src).is_empty());
    }

    #[test]
    fn flags_raw_std_sync_in_core_but_not_in_facade_or_tests() {
        let src = "use std::sync::atomic::AtomicBool;\n";
        assert_eq!(lint("crates/core/src/ctl.rs", src), ["core-sync-facade:1"]);
        assert!(lint("crates/core/src/sync.rs", src).is_empty());
        assert!(lint("crates/data/src/db.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::thread;\n}\n";
        assert!(lint("crates/core/src/ctl.rs", test_src).is_empty());
    }

    #[test]
    fn flags_raw_std_sync_in_net_including_its_binary() {
        let src = "use std::sync::mpsc::Receiver;\nuse std::sync::{Arc, Mutex};\nfn main() { std::thread::park(); }\n";
        let flagged = ["core-sync-facade:2", "core-sync-facade:3"];
        assert_eq!(lint("crates/net/src/server.rs", src), flagged);
        assert_eq!(lint("crates/net/src/bin/les3-serve.rs", src), flagged);
        let allowed = "use les3_core::sync::{thread, Arc};\nuse std::sync::Mutex; // lint: allow(core-sync-facade)\n";
        assert!(lint("crates/net/src/server.rs", allowed).is_empty());
    }

    #[test]
    fn flags_std_locks_in_core_by_path_or_import_group() {
        let facade = ["core-sync-facade:1"];
        for src in [
            "struct O { groups: Vec<std::sync::RwLock<G>> }\n",
            "use std::sync::{Arc, RwLockReadGuard};\n",
            "use std::sync::Mutex;\n",
            "fn f(c: &std::sync::Condvar) {}\n",
        ] {
            assert_eq!(lint("crates/core/src/index.rs", src), facade, "{src}");
            assert!(lint("crates/core/src/sync.rs", src).is_empty());
            assert!(lint("crates/data/src/db.rs", src).is_empty());
        }
        // A group may nest and span lines; each name is flagged where it is.
        let group = "use std::sync::{\n    mpsc::{channel, Sender},\n    Mutex,\n};\nuse std::sync::RwLock;\n";
        assert_eq!(
            lint("crates/core/src/batch.rs", group),
            ["core-sync-facade:3", "core-sync-facade:5"]
        );
        // Through the facade, scheduling-invisible types, prose, tests
        // and a same-line allow all pass.
        let fine = "use crate::sync::{Arc, Mutex, RwLock};\nuse std::sync::{Arc, OnceLock};\nfn f() { x.unwrap_or_else(std::sync::PoisonError::into_inner); }\n// std::sync::RwLock in prose\nuse std::sync::RwLock; // lint: allow(core-sync-facade)\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(lint("crates/core/src/namespace.rs", fine).is_empty());
    }

    #[test]
    fn relaxed_needs_a_same_line_justification() {
        let bad = "fn f(c: &AtomicUsize) { c.load(Ordering::Relaxed); }\n";
        assert_eq!(
            lint("crates/core/src/ctl.rs", bad),
            ["relaxed-needs-justification:1"]
        );
        let good =
            "fn f(c: &AtomicUsize) { c.load(Ordering::Relaxed); // relaxed: telemetry only\n}\n";
        assert!(lint("crates/core/src/ctl.rs", good).is_empty());
        // A justification in the comment block directly above also counts…
        let above = "fn f(c: &AtomicUsize) {\n    // relaxed: counter only; readers never\n    // order anything through it.\n    c.load(Ordering::Relaxed);\n}\n";
        assert!(lint("crates/core/src/ctl.rs", above).is_empty());
        // …but a blank line breaks the block.
        let detached = "fn f(c: &AtomicUsize) {\n    // relaxed: stale note\n\n    c.load(Ordering::Relaxed);\n}\n";
        assert_eq!(
            lint("crates/core/src/ctl.rs", detached),
            ["relaxed-needs-justification:4"]
        );
        // The token inside a string or a comment is not code.
        let quoted = "fn f() { let _ = \"Ordering::Relaxed\"; }\n// Ordering::Relaxed in prose\n";
        assert!(lint("crates/core/src/ctl.rs", quoted).is_empty());
    }

    #[test]
    fn flags_unwrap_only_in_error_path_crates() {
        let src = "fn f() { g().unwrap(); h().expect(\"x\"); }\n";
        assert_eq!(
            lint("crates/net/src/http.rs", src),
            ["no-unwrap:1", "no-unwrap:1"]
        );
        assert_eq!(
            lint("crates/core/src/persist/wal.rs", src),
            ["no-unwrap:1", "no-unwrap:1"]
        );
        assert!(lint("crates/core/src/index.rs", src).is_empty());
        // unwrap_or_else / expect_err are different tokens.
        let ok = "fn f() { g().unwrap_or_else(|e| e.into_inner()); h().expect_err(\"x\"); }\n";
        assert!(lint("crates/net/src/http.rs", ok).is_empty());
    }

    #[test]
    fn unsafe_needs_a_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(
            lint("crates/core/src/shard.rs", bad),
            ["unsafe-needs-safety:2"]
        );
        // Every kind of `unsafe` item, in any product source.
        let items = "unsafe fn g() {}\nunsafe impl Send for X {}\n";
        assert_eq!(
            lint("examples/probe.rs", items),
            ["unsafe-needs-safety:1", "unsafe-needs-safety:2"]
        );
        let same_line = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p is valid\n}\n";
        assert!(lint("crates/core/src/shard.rs", same_line).is_empty());
        let above = "fn f(p: *const u8) -> u8 {\n    // SAFETY: the caller passes a\n    // valid, aligned pointer.\n    unsafe { *p }\n}\n";
        assert!(lint("crates/core/src/shard.rs", above).is_empty());
        let detached =
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: stale note\n\n    unsafe { *p }\n}\n";
        assert_eq!(
            lint("crates/core/src/shard.rs", detached),
            ["unsafe-needs-safety:4"]
        );
        // Words that merely contain it, prose, strings and tests pass.
        let fine = "#![forbid(unsafe_code)]\nfn not_unsafe() { let _ = \"unsafe\"; }\n// unsafe in prose\n#[cfg(test)]\nmod tests {\n    fn g(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert!(lint("crates/core/src/shard.rs", fine).is_empty());
        assert!(lint("crates/core/tests/probe.rs", bad).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_is_waived_by_name() {
        let waived = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // lint: allow(unsafe-needs-safety)\n}\n";
        assert!(lint("crates/core/src/shard.rs", waived).is_empty());
        let other = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // lint: allow(no-unwrap)\n}\n";
        assert_eq!(
            lint("crates/core/src/shard.rs", other),
            ["unsafe-needs-safety:2"]
        );
    }

    #[test]
    fn lint_allow_waives_one_rule_on_one_line() {
        let src = "fn f() { g().unwrap(); // lint: allow(no-unwrap) startup only\n}\n";
        assert!(lint("crates/net/src/server.rs", src).is_empty());
        // The waiver names the rule: a different rule still fires.
        let src = "fn f(c: &A) { c.load(Ordering::Relaxed); // lint: allow(no-unwrap)\n}\n";
        assert_eq!(
            lint("crates/core/src/ctl.rs", src),
            ["relaxed-needs-justification:1"]
        );
    }

    #[test]
    fn test_mask_tracks_braces_not_indentation() {
        let src =
            "fn a() { b(); }\n#[cfg(test)]\nmod tests {\n    fn c() { d(); }\n}\nfn e() { f(); }\n";
        let view = code_view(src);
        let lines: Vec<&str> = view.lines().collect();
        let mask = test_mask(&lines);
        assert_eq!(mask, [false, true, true, true, true, false]);
    }

    #[test]
    fn loc_counts_code_lines_only() {
        let src = "//! module docs\n\nuse x::y; // trailing comment\n/* block\n   comment */\nfn a() {\n    let s = \"\n\";\n}\n\n#[cfg(test)]\nmod tests {\n    fn c() { d(); }\n}\n";
        // `use`, `fn a() {`, the two halves of the multi-line string
        // statement, and the closing brace.
        assert_eq!(code_lines(src), 5);
        assert_eq!(code_lines("// only comments\n\n"), 0);
    }

    #[test]
    fn loc_reports_every_crate_total_and_tracked_crates_per_file() {
        assert_eq!(
            crate_src_dir("crates/core/src/persist/io.rs"),
            Some("crates/core/src")
        );
        assert_eq!(crate_src_dir("src/lib.rs"), Some("src"));
        assert_eq!(crate_src_dir("crates/core/tests/golden_stats.rs"), None);
        assert_eq!(crate_src_dir("examples/quickstart.rs"), None);
        let files = [
            ("crates/core/src/index.rs", 10),
            ("crates/core/src/persist/io.rs", 5),
            ("crates/core/tests/golden_stats.rs", 99),
            ("crates/data/src/lib.rs", 2),
            ("crates/data/src/zipfian.rs", 40),
            ("src/lib.rs", 3),
        ]
        .map(|(rel, n)| (rel.to_string(), n));
        assert_eq!(
            loc_report(&files),
            [
                "     10  crates/core/src/index.rs",
                "      5  crates/core/src/persist/io.rs",
                "     15  crates/core/src (total)",
                "     42  crates/data/src (total)",
                "      3  src (total)",
                "     60  workspace (total)",
            ]
        );
    }

    #[test]
    fn code_view_blanks_comments_strings_and_chars_but_not_lifetimes() {
        let src = "let s = \"x.unwrap()\"; // .unwrap()\nlet c = '\\'';\nfn f<'a>(x: &'a str) {}\nlet r = r#\"y.unwrap()\"#;\n";
        let view = code_view(src);
        assert!(!view.contains(".unwrap()"), "literals leaked: {view}");
        assert!(
            view.contains("fn f<'a>(x: &'a str)"),
            "lifetimes mangled: {view}"
        );
        assert_eq!(view.lines().count(), src.lines().count());
    }

    #[test]
    fn doc_path_refs_match_the_old_shell_extraction() {
        let line =
            "see crates/core/src/ctl.rs, [x](docs/PROTOCOL.md) and examples/serving_front.rs.";
        assert_eq!(
            doc_path_refs(line),
            [
                "crates/core/src/ctl.rs",
                "docs/PROTOCOL.md",
                "examples/serving_front.rs"
            ]
        );
        // Leftmost-longest: an inner `docs/` segment is not re-matched.
        assert_eq!(doc_path_refs("crates/core/docs/x"), ["crates/core/docs/x"]);
        assert_eq!(doc_path_refs("no paths here"), Vec::<String>::new());
    }

    #[test]
    fn missing_doc_paths_are_reported_existing_ones_pass() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")); // crates/xtask
        let bad = lint_doc_paths(root, "README.md", "see crates/nonexistent/src/x.rs\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].msg.contains("crates/nonexistent/src/x.rs"));
        // From the workspace root, a real path passes.
        let ws = root.parent().unwrap().parent().unwrap();
        assert!(lint_doc_paths(ws, "README.md", "see crates/xtask/src/main.rs\n").is_empty());
    }
}
