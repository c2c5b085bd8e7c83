//! Determinism-lint tests. The rules live in clippy configuration: the
//! root `Cargo.toml` (`[workspace.lints.clippy]`), the root `clippy.toml`
//! (disallowed types and methods), and the hot-path `#![warn(...)]` in
//! the disk and cache crates' `lib.rs`. These tests pin that
//! configuration: a hazard fixture corpus is compiled with `clippy-driver`
//! under the workspace's own settings and must raise exactly the expected
//! lints, and every suppression in the tree must be a reasoned
//! `#[expect]`, so a stale one fails `scripts/check.sh`'s clippy stage.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate lives under the workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lints that carry the determinism rules. Suppressing one of them
/// must go through `#[expect]`, never `#[allow]`.
const DETERMINISM_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::panic",
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
    "clippy::arithmetic_side_effects",
    "clippy::cast_possible_truncation",
];

/// `-W clippy::<lint>`-style flags for every entry of the root manifest's
/// `[workspace.lints.clippy]` table.
fn workspace_lint_flags(root: &Path) -> Vec<String> {
    let manifest = read(&root.join("Cargo.toml"));
    let mut in_table = false;
    let mut flags = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.lints.clippy]";
            continue;
        }
        if !in_table || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (lint, level) = line
            .split_once('=')
            .unwrap_or_else(|| panic!("unexpected lint table line {line:?}"));
        let flag = match level.trim().trim_matches('"') {
            "allow" => "-A",
            "warn" => "-W",
            "deny" => "-D",
            "forbid" => "-F",
            other => panic!("unsupported lint level {other:?} for {lint}"),
        };
        flags.push(flag.to_string());
        flags.push(format!("clippy::{}", lint.trim()));
    }
    assert!(
        !flags.is_empty(),
        "root Cargo.toml has no [workspace.lints.clippy] entries"
    );
    flags
}

/// The crate-level `#![warn(...)]` line that turns on the hot-path lints.
fn hot_path_header(lib_rs: &Path) -> String {
    read(lib_rs)
        .lines()
        .find(|l| l.starts_with("#![warn(") && l.contains("clippy::arithmetic_side_effects"))
        .unwrap_or_else(|| panic!("{} lost its hot-path lint attribute", lib_rs.display()))
        .to_string()
}

/// The toolchain's `clippy-driver`: next to the cargo that built this
/// test, else whatever is on `PATH`.
fn clippy_driver() -> PathBuf {
    let sibling = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    if sibling.is_file() {
        sibling
    } else {
        PathBuf::from("clippy-driver")
    }
}

/// `(line, lint)` of every diagnostic in rustc's JSON output that names
/// a lint, sorted.
fn findings_of(json_lines: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for line in json_lines.lines() {
        let Some(code_at) = line.find("\"code\":{\"code\":\"") else {
            continue;
        };
        let rest = &line[code_at + "\"code\":{\"code\":\"".len()..];
        let lint = &rest[..rest.find('"').expect("closing quote of the lint name")];
        // The top-level primary span follows `code` and precedes `children`.
        let at = rest
            .find("\"line_start\":")
            .expect("diagnostic carries a span")
            + "\"line_start\":".len();
        let digits: String = rest[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        out.push((digits.parse().expect("line number"), lint.to_string()));
    }
    out.sort();
    out
}

struct Fixture {
    name: &'static str,
    /// Compile with the disk/cache crate-level hot-path attribute.
    hot: bool,
    /// Compile as a test harness (`cfg(test)` on).
    test: bool,
    src: &'static str,
    /// `(line, lint)`, lines counted within `src`.
    expected: &'static [(u32, &'static str)],
}

/// One hazard per rule the old source lint enforced, plus the
/// suppression cases: a reasoned `#[expect]` silences its line, a stale
/// one is itself an error, and test code may unwrap and panic.
const CORPUS: &[Fixture] = &[
    Fixture {
        name: "unwrap",
        hot: false,
        test: false,
        src: "pub fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n\
              pub fn g(r: Result<u8, ()>) -> u8 {\n    r.unwrap()\n}\n",
        expected: &[(2, "clippy::unwrap_used"), (5, "clippy::unwrap_used")],
    },
    Fixture {
        name: "panic",
        hot: false,
        test: false,
        src: "pub fn f(x: u8) -> u8 {\n    if x > 3 {\n        panic!(\"too big\");\n    }\n    x\n}\n",
        expected: &[(3, "clippy::panic")],
    },
    Fixture {
        name: "std_hash",
        hot: false,
        test: false,
        src: "use std::collections::{BTreeMap, HashMap};\n\
              pub fn f() -> BTreeMap<u8, u8> {\n    BTreeMap::new()\n}\n\
              pub fn g(m: &HashMap<u8, u8>) -> usize {\n    m.len()\n}\n\
              pub fn h(s: &std::collections::HashSet<u8>) -> usize {\n    s.len()\n}\n",
        expected: &[
            (1, "clippy::disallowed_types"),
            (5, "clippy::disallowed_types"),
            (8, "clippy::disallowed_types"),
        ],
    },
    Fixture {
        name: "std_mutex",
        hot: false,
        test: false,
        src: "use std::sync::Mutex;\n\
              pub fn f(m: &Mutex<u8>) -> bool {\n    m.is_poisoned()\n}\n",
        expected: &[(1, "clippy::disallowed_types"), (2, "clippy::disallowed_types")],
    },
    Fixture {
        name: "wall_clock",
        hot: false,
        test: false,
        src: "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n\
              pub fn g() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n",
        expected: &[(2, "clippy::disallowed_methods"), (5, "clippy::disallowed_methods")],
    },
    Fixture {
        name: "thread_id",
        hot: false,
        test: false,
        src: "pub fn f() -> std::thread::ThreadId {\n    std::thread::current().id()\n}\n",
        expected: &[(2, "clippy::disallowed_methods")],
    },
    Fixture {
        name: "raw_thread",
        hot: false,
        test: false,
        src: "use std::sync::mpsc;\nuse std::thread;\n\
              pub fn f() {\n    let (tx, rx) = mpsc::channel::<u8>();\n\
              \x20   let (stx, _srx) = mpsc::sync_channel::<u8>(1);\n\
              \x20   let h = thread::spawn(move || tx.send(1));\n\
              \x20   thread::scope(|_| stx.send(2)).ok();\n\
              \x20   h.join().ok();\n    rx.recv().ok();\n}\n",
        expected: &[
            (4, "clippy::disallowed_methods"),
            (5, "clippy::disallowed_methods"),
            (6, "clippy::disallowed_methods"),
            (7, "clippy::disallowed_methods"),
        ],
    },
    Fixture {
        name: "env_read",
        hot: false,
        test: false,
        src: "pub fn f() -> bool {\n    std::env::var(\"SEED\").is_ok()\n\
              \x20       || std::env::var_os(\"SEED\").is_some()\n\
              \x20       || std::env::vars().count() > 0\n}\n",
        expected: &[
            (2, "clippy::disallowed_methods"),
            (3, "clippy::disallowed_methods"),
            (4, "clippy::disallowed_methods"),
        ],
    },
    Fixture {
        name: "narrowing_cast",
        hot: true,
        test: false,
        src: "pub fn f(x: u64, y: f64) -> (u32, u64, u64) {\n\
              \x20   (x as u32, y as u64, u64::from(x as u8 as u32))\n}\n",
        expected: &[
            (2, "clippy::cast_possible_truncation"),
            (2, "clippy::cast_possible_truncation"),
            (2, "clippy::cast_possible_truncation"),
        ],
    },
    Fixture {
        name: "overflow_arith",
        hot: true,
        test: false,
        src: "pub fn f(a: u64, b: u64) -> u64 {\n    let c = a.saturating_add(b);\n    c * 2\n}\n\
              pub fn g(a: &mut u64) {\n    *a += 1;\n}\n",
        expected: &[
            (3, "clippy::arithmetic_side_effects"),
            (6, "clippy::arithmetic_side_effects"),
        ],
    },
    Fixture {
        name: "suppress",
        hot: false,
        test: false,
        src: "#[expect(clippy::unwrap_used, reason = \"the caller checked is_some\")]\n\
              pub fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n\
              #[expect(clippy::panic, reason = \"a stale expectation is an error\")]\n\
              pub fn g() {}\n",
        expected: &[(5, "unfulfilled_lint_expectations")],
    },
    Fixture {
        name: "test_code",
        hot: false,
        test: true,
        src: "pub fn half(x: u8) -> Option<u8> {\n    x.checked_div(2)\n}\n\
              #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n\
              \x20       assert_eq!(super::half(4).unwrap(), 2);\n\
              \x20       if super::half(6).unwrap() != 3 {\n            panic!(\"mismatch\");\n        }\n\
              \x20   }\n}\n",
        expected: &[],
    },
];

#[test]
fn corpus_fixtures_produce_exactly_the_expected_findings() {
    let root = workspace_root();
    let lint_flags = workspace_lint_flags(&root);
    let hot_headers = [
        hot_path_header(&root.join("crates/disk/src/lib.rs")),
        hot_path_header(&root.join("crates/cache/src/lib.rs")),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_corpus");
    fs::create_dir_all(&dir).expect("fixture directory");
    let driver = clippy_driver();
    for fx in CORPUS {
        let headers: &[String] = if fx.hot {
            &hot_headers
        } else {
            &[String::new()]
        };
        for header in headers {
            let offset = u32::from(!header.is_empty());
            let file = dir.join(format!("{}.rs", fx.name));
            let src = if header.is_empty() {
                fx.src.to_string()
            } else {
                format!("{header}\n{}", fx.src)
            };
            fs::write(&file, src).expect("fixture written");
            let mut cmd = Command::new(&driver);
            cmd.current_dir(&dir).env("CLIPPY_CONF_DIR", &root).args([
                "--edition",
                "2021",
                "--crate-name",
                fx.name,
            ]);
            if fx.test {
                cmd.arg("--test");
            } else {
                cmd.args(["--crate-type", "lib"]);
            }
            cmd.args(["--emit=metadata", "--error-format=json", "-o"])
                .arg(dir.join(format!("{}.rmeta", fx.name)))
                .args(&lint_flags)
                .arg(&file);
            let out = cmd
                .output()
                .unwrap_or_else(|e| panic!("cannot run {}: {e}", driver.display()));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "fixture {} failed to compile:\n{stderr}",
                fx.name
            );
            let got: Vec<(u32, String)> = findings_of(&stderr)
                .into_iter()
                .map(|(line, lint)| (line - offset, lint))
                .collect();
            let expected: Vec<(u32, String)> = fx
                .expected
                .iter()
                .map(|&(l, r)| (l, r.to_string()))
                .collect();
            assert_eq!(
                got, expected,
                "fixture {} (header {header:?}) findings diverge:\n{stderr}",
                fx.name
            );
        }
    }
}

/// Byte offsets of every attribute (`#[...]` or `#![...]`) whose path is
/// `name`, with the attribute's full text up to its closing bracket.
fn attributes<'a>(src: &'a str, name: &str) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = src[from..].find('#') {
        let start = from + rel;
        from = start + 1;
        let body_at = if src[start..].starts_with("#![") {
            start + 3
        } else if src[start..].starts_with("#[") {
            start + 2
        } else {
            continue;
        };
        let body = src[body_at..].trim_start();
        if !body.starts_with(name) || !body[name.len()..].trim_start().starts_with('(') {
            continue;
        }
        // Walk to the bracket that closes the attribute, skipping strings.
        // A backslash escapes the next character even outside a string, so
        // attributes quoted inside string literals scan the same way.
        let (mut depth, mut in_str, mut escaped) = (1u32, false, false);
        let mut end = src.len();
        for (i, c) in src[body_at..].char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match (in_str, c) {
                (_, '\\') => escaped = true,
                (_, '"') => in_str = !in_str,
                (true, _) => {}
                (false, '[' | '(') => depth += 1,
                (false, ']' | ')') => {
                    depth -= 1;
                    if depth == 0 {
                        end = body_at + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push((start, &src[start..end]));
    }
    out
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_lints_clean_with_checked_in_allowlist() {
    let root = workspace_root();
    // Every crate opts into the workspace lint table.
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("readable entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 10, "found only {} crates", crates.len());
    for manifest in &crates {
        let text = read(manifest);
        let opted_in = text
            .split("[lints]")
            .nth(1)
            .and_then(|rest| rest.lines().map(str::trim).find(|l| !l.is_empty()))
            == Some("workspace = true");
        assert!(
            opted_in,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
    let flags = workspace_lint_flags(&root);
    for lint in ["clippy::unwrap_used", "clippy::panic"] {
        assert!(
            flags.iter().any(|f| f == lint),
            "{lint} left the workspace lint table"
        );
    }
    assert_eq!(
        hot_path_header(&root.join("crates/disk/src/lib.rs")),
        hot_path_header(&root.join("crates/cache/src/lib.rs")),
        "disk and cache must enforce the same hot-path lints"
    );

    // The allow-list is the set of `#[expect]` attributes: each carries a
    // reason, and no determinism lint is silenced by a non-expiring
    // `#[allow]` or by a legacy inline marker.
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rs_files(&root.join(dir), &mut files);
    }
    let marker = concat!("audit", ":allow");
    let mut expectations = 0;
    let mut problems = BTreeSet::new();
    for file in &files {
        let src = read(file);
        let rel = file
            .strip_prefix(&root)
            .expect("under the root")
            .display()
            .to_string();
        let line_of = |at: usize| 1 + src[..at].bytes().filter(|&b| b == b'\n').count();
        for (at, attr) in attributes(&src, "expect") {
            expectations += 1;
            if !attr.contains("reason") {
                problems.insert(format!("{rel}:{}: #[expect] without a reason", line_of(at)));
            }
        }
        for (at, attr) in attributes(&src, "allow") {
            if let Some(lint) = DETERMINISM_LINTS.iter().find(|l| attr.contains(*l)) {
                problems.insert(format!(
                    "{rel}:{}: {lint} silenced by #[allow]",
                    line_of(at)
                ));
            }
        }
        if let Some(at) = src.find(marker) {
            problems.insert(format!("{rel}:{}: inline suppression marker", line_of(at)));
        }
    }
    assert!(
        expectations > 0,
        "no #[expect] attributes found; is the scan broken?"
    );
    assert!(
        problems.is_empty(),
        "lint allow-list problems:\n{problems:#?}"
    );
}
