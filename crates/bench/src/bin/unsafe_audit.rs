//! `unsafe_audit`: source lint gating every `unsafe` site on a
//! `// SAFETY:` comment.
//!
//! The workspace forbids `unsafe` everywhere except the two crates that
//! need it (`bigtiny-engine` for the fiber backends, `bigtiny-core` for
//! one `Sync` wrapper), and this bin keeps the remaining inventory
//! honest: it walks every `.rs` file under `crates/` and `tests/` and
//! fails — emitting `file:line` for each offender — when a line using
//! the `unsafe` keyword has no `SAFETY:` comment on the same line or
//! within the preceding few lines. Run from the repo root (CI's `lint`
//! job does); an optional argument overrides the root.
//!
//! The lint is a std-only token scan, not a parser: the keyword is
//! matched on word boundaries (so `forbid(unsafe_code)` never trips it)
//! and comment-only lines are skipped. That is deliberately blunt —
//! the point is that every new `unsafe` site ships with its argument,
//! not that the argument parses.

use std::path::{Path, PathBuf};

use bigtiny_bench::cli;

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[]).positionals(&[], &["ROOT"]);

/// How many lines above an `unsafe` site a `SAFETY:` comment may sit.
/// Generous enough for an attribute stack (`#[unsafe(naked)]`,
/// `#[cfg(...)]`) between the comment and the keyword.
const WINDOW: usize = 6;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target" || n == ".git") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` uses the keyword on a word boundary, outside a
/// line-comment tail.
fn uses_keyword(line: &str, keyword: &str) -> bool {
    let code = line.split("//").next().unwrap_or(line);
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(keyword) {
        let start = from + pos;
        let end = start + keyword.len();
        let left_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let right_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

fn audit_file(path: &Path, keyword: &str, offenders: &mut Vec<String>) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("unsafe_audit: {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    let mut sites = 0;
    for (i, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") || !uses_keyword(line, keyword) {
            continue;
        }
        sites += 1;
        // Covered by a `// SAFETY:` comment nearby, or — for `unsafe fn`
        // declarations — by a `/// # Safety` doc section in the
        // contiguous doc/attribute block above.
        let window = (i.saturating_sub(WINDOW)..=i).any(|j| lines[j].contains("SAFETY:"));
        let doc_section = (0..i)
            .rev()
            .take_while(|&j| {
                let t = lines[j].trim_start();
                t.starts_with("//") || t.starts_with("#[") || t.is_empty()
            })
            .any(|j| lines[j].trim_start().starts_with("/// # Safety"));
        if !(window || doc_section) {
            offenders.push(format!("{}:{}", path.display(), i + 1));
        }
    }
    sites
}

fn main() {
    let args = CLI.parse();
    let root = args.positional(0).unwrap_or(".");
    // Built at runtime so this file never matches its own scan.
    let keyword = concat!("un", "safe");
    let mut files = Vec::new();
    for dir in ["crates", "tests"] {
        rust_files(&Path::new(root).join(dir), &mut files);
    }
    if files.is_empty() {
        eprintln!("unsafe_audit: no .rs files under {root}/crates — run from the repo root");
        std::process::exit(2);
    }
    files.sort();

    let mut offenders = Vec::new();
    let mut sites = 0;
    for file in &files {
        sites += audit_file(file, keyword, &mut offenders);
    }
    if offenders.is_empty() {
        println!(
            "unsafe_audit: {} files, {sites} {keyword} site(s), all with SAFETY: comments",
            files.len()
        );
        return;
    }
    eprintln!("unsafe_audit: {} {keyword} site(s) without a SAFETY: comment:", offenders.len());
    for o in &offenders {
        eprintln!("  {o}");
    }
    std::process::exit(1);
}
