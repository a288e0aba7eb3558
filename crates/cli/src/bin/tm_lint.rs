//! # tm-lint — the repository's source-discipline pass
//!
//! The step-level race analysis is only trustworthy if the memory-ordering
//! surface it instruments is the *whole* surface: a raw `AtomicU64` access
//! added anywhere else in `tm-stm` would be a shared-memory step the
//! explorer never sees. This binary pins that discipline (and two house
//! rules) as a CI gate, with `file:line` diagnostics:
//!
//! 1. **ordering-containment** — no `Ordering::` token in
//!    `crates/stm/src` outside the sanctioned instrumentation layer
//!    (`base.rs`, `clock.rs`, `recorder.rs`). TMs must go through the
//!    metered `tm_stm::base` helpers, never raw atomics. (`std::cmp::Ordering`
//!    counts too: the blanket token rule keeps the check un-foolable, and
//!    comparator code has no business in the TM algorithms either.)
//! 2. **forbid-unsafe** — every `crates/*/src/lib.rs` carries
//!    `#![forbid(unsafe_code)]`.
//! 3. **no-unwrap** — no `.unwrap()` / `.expect(` in non-test
//!    `crates/cli/src` or `crates/serve/src` code; the CLI and the serve
//!    daemon are the two long-lived user-facing surfaces, and a panic there
//!    kills every multiplexed session instead of failing one check. Errors
//!    return friendly messages or positioned `error` frames instead.
//!    Everything from the first `#[cfg(test)]` line to the end of a file is
//!    considered test code (the house style keeps test modules last).
//! 4. **atomic-telemetry** — telemetry counters live in `tm-obs`, not on
//!    raw atomics. Any `AtomicU64`/`AtomicUsize` declared under a
//!    telemetry-flavoured name (`count`, `stat`, `hits`, `evict`, …)
//!    outside `crates/obs` and the sanctioned synchronization files
//!    (`base.rs`, `clock.rs`) is flagged: one counter type
//!    means one merge semantics and one snapshot surface. The rule matches
//!    the *declared identifier* (the name left of `:`/`=`), not the whole
//!    line, so `AtomicUsize::new(stats.nodes)` bound to a clean name stays
//!    legal. Test code is exempt, as in rule 3.
//! 5. **socket-containment** — no `std::net` / `std::os::unix::net` token
//!    outside `crates/serve`. The serve daemon owns the process's entire
//!    network surface: a listener opened anywhere else would be an ingest
//!    path with none of the session table's backpressure, governance, or
//!    shutdown discipline (and an audit surface CI doesn't know about).
//!    Test code is exempt, as in rule 3: integration tests dial sockets to
//!    exercise the daemon.
//!
//! ```text
//! tm-lint [--root DIR]     # DIR defaults to the workspace root
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage error. The std-only
//! directory walk keeps the binary dependency-free.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

/// One rule violation, rendered as `file:line: [rule] excerpt`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt
        )
    }
}

/// Collects every `.rs` file under `dir`, depth-first, sorted for
/// deterministic output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| format!("{}: {e}", dir.display()))?.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Comment lines are prose, not code: the token rules skip them (a doc
/// sentence *about* `Ordering::` or `.unwrap()` is not a violation).
fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Rule 1: `Ordering::` stays inside the instrumentation layer.
fn lint_ordering_containment(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    const ALLOWED: [&str; 3] = ["base.rs", "clock.rs", "recorder.rs"];
    let dir = root.join("crates/stm/src");
    let mut files = Vec::new();
    rust_files(&dir, &mut files)?;
    for file in files {
        let name = file
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if ALLOWED.contains(&name.as_str()) {
            continue;
        }
        for (i, line) in read(&file)?.lines().enumerate() {
            if !is_comment(line) && line.contains("Ordering::") {
                findings.push(Finding {
                    file: file.clone(),
                    line: i + 1,
                    rule: "ordering-containment",
                    excerpt: format!(
                        "raw memory-ordering token outside base/clock/recorder: {}",
                        line.trim()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Rule 2: every crate root forbids `unsafe`.
fn lint_forbid_unsafe(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
    let mut roots: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| format!("{}: {e}", crates.display()))?
            .path();
        let lib = path.join("src/lib.rs");
        if lib.is_file() {
            roots.push(lib);
        }
    }
    roots.sort();
    for lib in roots {
        if !read(&lib)?.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                file: lib,
                line: 1,
                rule: "forbid-unsafe",
                excerpt: "crate root lacks #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
    Ok(())
}

/// The `#[cfg(test)]` marker, assembled so this binary's own source never
/// contains the contiguous token (which would exempt everything below the
/// rule implementations from the token rules).
const TEST_MARKER: &str = concat!("#[cfg(", "test)]");

/// Rule 3: no `.unwrap()` / `.expect(` on the user-facing paths of the
/// CLI and the serve daemon — the two long-lived process surfaces, where a
/// panic kills real sessions instead of failing one check. Errors must
/// flow to `error` frames or friendly messages instead.
fn lint_no_unwrap(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    // Assembled with concat! so this rule's own source passes its gate.
    const TOKENS: [&str; 2] = [concat!(".unwrap", "()"), concat!(".expect", "(")];
    const DIRS: [&str; 2] = ["crates/cli/src", "crates/serve/src"];
    for dir in DIRS {
        let dir = root.join(dir);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for file in files {
            let mut in_tests = false;
            for (i, line) in read(&file)?.lines().enumerate() {
                if line.contains(TEST_MARKER) {
                    in_tests = true;
                }
                if !in_tests && !is_comment(line) && TOKENS.iter().any(|t| line.contains(t)) {
                    findings.push(Finding {
                        file: file.clone(),
                        line: i + 1,
                        rule: "no-unwrap",
                        excerpt: format!(
                            "panic on the user-facing path; return an error instead: {}",
                            line.trim()
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Identifier names that mark an atomic as a telemetry counter.
const TELEMETRY_TOKENS: [&str; 10] = [
    "count", "counter", "meter", "stat", "hits", "evict", "sample", "tick", "total", "steals",
];

/// The identifier a declaration binds, given the text *before* the atomic
/// type token: the last word left of the nearest `:` or `=` separator
/// (skipping `::` path segments, so `name: std::sync::atomic::AtomicU64`
/// resolves to `name`). `None` when the token is not a declaration site —
/// imports, references in signatures, tuple structs.
fn declared_identifier(before: &str) -> Option<&str> {
    let bytes = before.as_bytes();
    let mut i = bytes.len();
    let mut sep = None;
    while i > 0 {
        i -= 1;
        match bytes[i] {
            b'=' => {
                sep = Some(i);
                break;
            }
            // A `::` path separator: skip both colons and keep scanning.
            b':' if i > 0 && bytes[i - 1] == b':' => i -= 1,
            b':' => {
                sep = Some(i);
                break;
            }
            _ => {}
        }
    }
    let head = before[..sep?].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + 1);
    let ident = &head[start..];
    (!ident.is_empty()).then_some(ident)
}

/// Rule 4: telemetry counters go through `tm_obs::Counter`, never raw
/// atomics — otherwise merge/snapshot semantics fragment per call site.
fn lint_atomic_telemetry(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    const ALLOWED: [&str; 2] = ["base.rs", "clock.rs"];
    const KINDS: [&str; 2] = ["AtomicU64", "AtomicUsize"];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| format!("{}: {e}", crates.display()))?
            .path();
        // The obs crate *implements* the sanctioned counter type.
        if path.file_name().is_some_and(|n| n == "obs") {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs.sort();
    for dir in dirs {
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for file in files {
            let name = file
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if ALLOWED.contains(&name.as_str()) {
                continue;
            }
            let mut in_tests = false;
            for (i, line) in read(&file)?.lines().enumerate() {
                if line.contains(TEST_MARKER) {
                    in_tests = true;
                }
                if in_tests || is_comment(line) {
                    continue;
                }
                let Some(pos) = KINDS.iter().filter_map(|k| line.find(k)).min() else {
                    continue;
                };
                let Some(ident) = declared_identifier(&line[..pos]) else {
                    continue;
                };
                let lower = ident.to_lowercase();
                if TELEMETRY_TOKENS.iter().any(|t| lower.contains(t)) {
                    findings.push(Finding {
                        file: file.clone(),
                        line: i + 1,
                        rule: "atomic-telemetry",
                        excerpt: format!(
                            "'{ident}' is a telemetry counter on a raw atomic; \
                             use tm_obs::Counter (or rename if it synchronizes): {}",
                            line.trim()
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Rule 5: network/socket primitives live only in the serve daemon —
/// every other ingest path would bypass the session table's backpressure,
/// memory governance, and shutdown discipline.
fn lint_socket_containment(root: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    // Assembled with concat! so this binary's own source never contains the
    // contiguous tokens it hunts for (the rule must pass its own gate).
    const TOKENS: [&str; 2] = [concat!("std::", "net"), concat!("std::os::unix::", "net")];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| format!("{}: {e}", crates.display()))?
            .path();
        // The serve crate *is* the sanctioned network surface.
        if path.file_name().is_some_and(|n| n == "serve") {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs.sort();
    for dir in dirs {
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for file in files {
            let mut in_tests = false;
            for (i, line) in read(&file)?.lines().enumerate() {
                if line.contains(TEST_MARKER) {
                    in_tests = true;
                }
                if !in_tests && !is_comment(line) && TOKENS.iter().any(|t| line.contains(t)) {
                    findings.push(Finding {
                        file: file.clone(),
                        line: i + 1,
                        rule: "socket-containment",
                        excerpt: format!(
                            "socket/network primitive outside crates/serve; \
                             route ingest through the serve daemon: {}",
                            line.trim()
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Runs all rules under `root`, returning findings sorted by location.
fn lint(root: &Path) -> Result<Vec<Finding>, String> {
    if !root.join("crates").is_dir() {
        return Err(format!(
            "'{}' is not the workspace root (no crates/ directory); \
             pass it with --root",
            root.display()
        ));
    }
    let mut findings = Vec::new();
    lint_ordering_containment(root, &mut findings)?;
    lint_forbid_unsafe(root, &mut findings)?;
    lint_no_unwrap(root, &mut findings)?;
    lint_atomic_telemetry(root, &mut findings)?;
    lint_socket_containment(root, &mut findings)?;
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Usage text shown on argument errors.
const USAGE: &str = "\
tm-lint — source-discipline gate (ordering containment, forbid(unsafe), no unwraps on
          cli/serve paths, no raw-atomic telemetry outside tm-obs, no sockets
          outside tm-serve)

USAGE:
  tm-lint [--root DIR]     DIR defaults to the workspace root containing crates/
";

/// Parses the argument list (without the program name).
fn parse_args(args: &[String]) -> Result<PathBuf, String> {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => {
                let dir = it
                    .next()
                    .ok_or_else(|| "--root needs a directory".to_string())?;
                let path = PathBuf::from(dir);
                if !path.is_dir() {
                    return Err(format!("--root '{dir}' is not a directory"));
                }
                root = Some(path);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match root {
        Some(r) => Ok(r),
        // Default: walk up from the current directory to the workspace root.
        None => {
            let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            loop {
                if dir.join("crates").is_dir() {
                    return Ok(dir);
                }
                if !dir.pop() {
                    return Err("no workspace root (crates/ directory) above the current \
                         directory; pass --root"
                        .to_string());
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args).and_then(|root| lint(&root)) {
        Ok(findings) if findings.is_empty() => {
            println!("tm-lint: clean");
            0
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("tm-lint: {} finding(s)", findings.len());
            1
        }
        Err(e) => {
            eprintln!("tm-lint: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace root of this checkout.
    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    /// A scratch workspace with one stm file, one crate root, one cli file.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("tm-lint-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            for sub in ["crates/stm/src", "crates/cli/src"] {
                std::fs::create_dir_all(dir.join(sub)).unwrap();
            }
            std::fs::write(
                dir.join("crates/stm/src/lib.rs"),
                "#![forbid(unsafe_code)]\npub mod base;\n",
            )
            .unwrap();
            std::fs::write(dir.join("crates/stm/src/base.rs"), "// sanctioned\n").unwrap();
            std::fs::write(
                dir.join("crates/cli/src/lib.rs"),
                "#![forbid(unsafe_code)]\nfn ok() {}\n",
            )
            .unwrap();
            Scratch(dir)
        }

        fn write(&self, rel: &str, content: &str) {
            std::fs::write(self.0.join(rel), content).unwrap();
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn the_tree_is_clean() {
        // The gate the CI job runs: this checkout has no violations.
        let findings = lint(&repo_root()).unwrap();
        assert!(
            findings.is_empty(),
            "{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn a_stray_ordering_token_is_flagged_with_file_and_line() {
        let s = Scratch::new("ordering");
        s.write(
            "crates/stm/src/sneaky.rs",
            "use std::sync::atomic::Ordering;\nfn f(x: &std::sync::atomic::AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed)\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        let hit = findings
            .iter()
            .find(|f| f.rule == "ordering-containment")
            .expect("the deliberate violation must be caught");
        assert!(hit.file.ends_with("crates/stm/src/sneaky.rs"));
        assert_eq!(hit.line, 3);
        // The sanctioned files stay exempt.
        s.write(
            "crates/stm/src/base.rs",
            "pub fn peek(x: &std::sync::atomic::AtomicU64) -> u64 {\n    x.load(std::sync::atomic::Ordering::SeqCst)\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == "ordering-containment")
                .count(),
            1
        );
    }

    #[test]
    fn a_crate_root_without_forbid_unsafe_is_flagged() {
        let s = Scratch::new("unsafe");
        s.write("crates/stm/src/lib.rs", "pub mod base;\n");
        let findings = lint(&s.0).unwrap();
        let hit = findings
            .iter()
            .find(|f| f.rule == "forbid-unsafe")
            .expect("missing forbid(unsafe_code) must be caught");
        assert!(hit.file.ends_with("crates/stm/src/lib.rs"));
    }

    #[test]
    fn an_unwrap_on_the_cli_path_is_flagged_but_test_code_is_exempt() {
        let s = Scratch::new("unwrap");
        s.write(
            "crates/cli/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() { std::fs::read(\"x\").unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n    fn g() { std::fs::read(\"y\").unwrap(); }\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == "no-unwrap").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn an_expect_in_the_serve_crate_is_flagged_too() {
        // The daemon is a long-lived surface: rule 3 covers its crate and
        // both panic spellings. A scratch tree without crates/serve (the
        // other tests') must still lint — the dir is skipped when absent.
        let s = Scratch::new("serve-expect");
        std::fs::create_dir_all(s.0.join("crates/serve/src")).unwrap();
        s.write(
            "crates/serve/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() { std::fs::read(\"x\").expect(\"boom\"); }\n\
             #[cfg(test)]\nmod tests {\n    fn g() { std::fs::read(\"y\").expect(\"fine\"); }\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == "no-unwrap").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].file.ends_with("crates/serve/src/lib.rs"));
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn a_telemetry_counter_on_a_raw_atomic_is_flagged() {
        let s = Scratch::new("telemetry");
        s.write(
            "crates/stm/src/tally.rs",
            "pub struct Tally {\n    retry_count: std::sync::atomic::AtomicU64,\n    lock: std::sync::atomic::AtomicU64,\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "atomic-telemetry")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].file.ends_with("crates/stm/src/tally.rs"));
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].excerpt.contains("retry_count"), "{}", hits[0]);
    }

    #[test]
    fn telemetry_exemptions_hold() {
        let s = Scratch::new("telemetry-exempt");
        // Sanctioned synchronization files may name their atomics anything:
        // a version clock's tick counter orders commits, it is not
        // telemetry.
        s.write(
            "crates/stm/src/clock.rs",
            "pub struct C {\n    tick_count: std::sync::atomic::AtomicU64,\n}\n",
        );
        // The rule matches the declared identifier, not the whole line:
        // `stats.nodes` contains the token \"stat\" but the binding is clean.
        s.write(
            "crates/stm/src/resume.rs",
            "fn f(stats: &S) {\n    let nodes_spent = std::sync::atomic::AtomicUsize::new(stats.nodes);\n    let _ = nodes_spent;\n}\n",
        );
        // Test code may tally however it likes.
        s.write(
            "crates/cli/src/probe.rs",
            "#[cfg(test)]\nmod tests {\n    static HIT_COUNT: std::sync::atomic::AtomicU64 =\n        std::sync::atomic::AtomicU64::new(0);\n}\n",
        );
        // The obs crate implements the counter type itself.
        std::fs::create_dir_all(s.0.join("crates/obs/src")).unwrap();
        s.write(
            "crates/obs/src/registry.rs",
            "pub struct R {\n    dropped_count: std::sync::atomic::AtomicU64,\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        assert!(
            findings.iter().all(|f| f.rule != "atomic-telemetry"),
            "{findings:?}"
        );
    }

    #[test]
    fn a_socket_outside_the_serve_crate_is_flagged_and_serve_is_exempt() {
        let s = Scratch::new("socket");
        s.write(
            "crates/stm/src/net_sneak.rs",
            "// a doc line mentioning std::net is fine\n\
             pub fn listen() {\n    let _l = std::os::unix::net::UnixListener::bind(\"/tmp/x\");\n}\n",
        );
        // The serve crate owns the network surface: identical code is legal there.
        std::fs::create_dir_all(s.0.join("crates/serve/src")).unwrap();
        s.write(
            "crates/serve/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn listen() {\n    let _l = std::net::TcpListener::bind(\"127.0.0.1:0\");\n}\n",
        );
        let findings = lint(&s.0).unwrap();
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "socket-containment")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].file.ends_with("crates/stm/src/net_sneak.rs"));
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].excerpt.contains("crates/serve"), "{}", hits[0]);
    }

    #[test]
    fn declared_identifier_sees_through_paths_and_skips_non_declarations() {
        assert_eq!(
            declared_identifier("    evict_total: "),
            Some("evict_total")
        );
        assert_eq!(
            declared_identifier("    let hits = std::sync::atomic::"),
            Some("hits")
        );
        assert_eq!(
            declared_identifier("static TICK_METER: std::sync::atomic::"),
            Some("TICK_METER")
        );
        // Imports, bare references, and tuple structs bind no identifier.
        assert_eq!(declared_identifier("use std::sync::atomic::{"), None);
        assert_eq!(declared_identifier("struct Padded("), None);
        assert_eq!(declared_identifier(""), None);
    }

    #[test]
    fn args_are_validated_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert!(parse_args(&a("--root"))
            .unwrap_err()
            .contains("--root needs a directory"));
        assert!(parse_args(&a("--root /nonexistent/nowhere"))
            .unwrap_err()
            .contains("is not a directory"));
        assert!(parse_args(&a("--bogus"))
            .unwrap_err()
            .contains("unknown flag"));
        let root = repo_root();
        assert_eq!(
            parse_args(&["--root".to_string(), root.display().to_string()]).unwrap(),
            root
        );
        // A root without crates/ is rejected by lint() itself.
        assert!(lint(Path::new("/tmp")).is_err());
    }
}
