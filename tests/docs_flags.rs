//! Docs that cannot drift: every `--flag` that README.md or the verify
//! skill spells must be one that `serve`, `loadgen` or `benchmark` parses,
//! or one of the few cargo flags the docs use to build and run them;
//! every `LMMIR_*` environment variable they name must be spelled as a
//! string literal in the code; and every `lmmir_*` metric series README.md
//! names must be on a live server's `/metrics`. A flag, variable or
//! series deleted from the code fails here until the docs stop naming it.

use lmm_ir::{iredge, save_predictor};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_serve::{client, PredictRequest, RegistrySpec, ServeConfig, Server};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// The documents checked, relative to the workspace root.
const DOCS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

/// Cargo's own flags, which the docs use to build and run the binaries.
const CARGO_FLAGS: [&str; 5] = ["release", "bin", "offline", "manifest-path", "example"];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The source trees whose string literals may name an `LMMIR_*` variable.
const CODE: [&str; 4] = ["crates", "src", "examples", "benchmark/src"];

fn is_flag_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'
}

/// Every string literal in `src` that a flag parser matches on: the
/// literal is followed by a `match` arm's `=>` or, in a flag table, by
/// `, |` and the closure that applies it. With `dashed`, only literals
/// spelled `--name` count (parsers matching the raw argument); without,
/// only bare `name`s (parsers that stripped the dashes first).
fn parsed_flags(src: &str, dashed: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in src.lines() {
        for (end, _) in line.match_indices('"') {
            let after = line[end + 1..].trim_start();
            if !(after.starts_with("=>") || after.starts_with(", |")) {
                continue;
            }
            let Some(start) = line[..end].rfind('"') else {
                continue;
            };
            let literal = &line[start + 1..end];
            let name = match (dashed, literal.strip_prefix("--")) {
                (true, Some(name)) => name,
                (false, None) => literal,
                _ => continue,
            };
            if name.starts_with(|c: char| c.is_ascii_lowercase()) && name.chars().all(is_flag_char)
            {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Every `--name` spelled in `text`, where the dashes do not continue a
/// longer run of dashes or a word (a table rule or `a--b` is no flag).
fn documented_flags(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices("--") {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-') {
            continue;
        }
        let name: String = text[at + 2..]
            .chars()
            .take_while(|&c| is_flag_char(c))
            .collect();
        let name = name.trim_end_matches('-');
        if name.starts_with(|c: char| c.is_ascii_lowercase()) {
            out.insert(name.to_string());
        }
    }
    out
}

fn is_env_char(c: char) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
}

/// Every `LMMIR_NAME` in `text` that does not continue a longer word, with
/// `quoted` only those spelled as a string literal `"LMMIR_NAME"`.
fn env_vars(text: &str, quoted: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices("LMMIR_") {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let len = text[at..]
            .find(|c| !is_env_char(c))
            .unwrap_or(text.len() - at);
        let name = &text[at..at + len];
        let literal = before == Some('"') && text[at + len..].starts_with('"');
        if name.len() > "LMMIR_".len() && (literal || !quoted) {
            out.insert(name.trim_end_matches('_').to_string());
        }
    }
    out
}

/// Every `.rs` file under `dir` (relative to the workspace root), read.
fn rust_sources(dir: &str, out: &mut Vec<String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![root.join(dir)];
    while let Some(path) = stack.pop() {
        for entry in std::fs::read_dir(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(std::fs::read_to_string(&path).unwrap());
            }
        }
    }
}

#[test]
fn every_documented_env_var_is_named_in_the_code() {
    let mut sources = Vec::new();
    for dir in CODE {
        rust_sources(dir, &mut sources);
    }
    let known: BTreeSet<String> = sources.iter().flat_map(|src| env_vars(src, true)).collect();
    let mut stale = Vec::new();
    for doc in DOCS {
        for var in env_vars(&read(doc), false) {
            if !known.contains(&var) {
                stale.push(format!("{doc}: {var}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "environment variables documented but named nowhere in the code:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_documented_flag_is_parsed_by_a_binary() {
    let mut known: BTreeSet<String> = CARGO_FLAGS.iter().map(|f| f.to_string()).collect();
    known.extend(parsed_flags(&read("crates/serve/src/bin/serve.rs"), false));
    known.extend(parsed_flags(&read("crates/bench/src/bin/loadgen.rs"), true));
    known.extend(parsed_flags(&read("benchmark/src/main.rs"), true));
    let mut stale = Vec::new();
    for doc in DOCS {
        for flag in documented_flags(&read(doc)) {
            if !known.contains(&flag) {
                stale.push(format!("{doc}: --{flag}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "flags documented but parsed by no binary:\n{}",
        stale.join("\n")
    );
}

#[test]
fn scanners_read_parser_arms_and_doc_flags() {
    let src = r#"
        ("addr", |cfg, _, v| {
        "workers" => parse("workers", value),
        "--size" => o.size = 1,
        other => Err(format!("unknown flag --{other}")),
    "#;
    let bare: Vec<String> = parsed_flags(src, false).into_iter().collect();
    assert_eq!(bare, ["addr", "workers"]);
    let dashed: Vec<String> = parsed_flags(src, true).into_iter().collect();
    assert_eq!(dashed, ["size"]);
    let doc = "run `serve --ckpt a=b --max-batch 8`; |---|---| a--b --Upper";
    let flags: Vec<String> = documented_flags(doc).into_iter().collect();
    assert_eq!(flags, ["ckpt", "max-batch"]);
}

#[test]
fn env_scanner_reads_literals_and_doc_names() {
    let src = r#"std::env::var("LMMIR_THREADS"); read("LMMIR_SEED_2") // LMMIR_NOTE "XLMMIR_A""#;
    let quoted: Vec<String> = env_vars(src, true).into_iter().collect();
    assert_eq!(quoted, ["LMMIR_SEED_2", "LMMIR_THREADS"]);
    let doc = "set `LMMIR_SCALE`/`INPUT`, LMMIR_THREADS=1; not MY_LMMIR_X or LMMIR_*";
    let named: Vec<String> = env_vars(doc, false).into_iter().collect();
    assert_eq!(named, ["LMMIR_SCALE", "LMMIR_THREADS"]);
}

fn is_series_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
}

/// The Rust names of the workspace's crates (`lmmir-par` is `lmmir_par`),
/// read from the `members` of the root manifest.
fn workspace_crates() -> BTreeSet<String> {
    let root = read("Cargo.toml");
    let members = root.split("\nmembers = [").nth(1).expect("a members list");
    let members = &members[..members.find(']').expect("a closed members list")];
    members
        .split('"')
        .skip(1)
        .step_by(2)
        .map(|member| {
            let manifest = read(&format!("{member}/Cargo.toml"));
            let name = manifest
                .split("\nname = \"")
                .nth(1)
                .expect("a package name");
            name[..name.find('"').expect("a quoted name")].replace('-', "_")
        })
        .collect()
}

/// Every metric series `text` names: an `lmmir_name` that neither
/// continues a longer word nor is a crate, by path (`lmmir_serve::…`) or
/// by its Rust name alone (`lmmir_par`), with
/// `lmmir_prefix_{a,b}` expanded to its members and `lmmir_prefix_*` kept
/// as a pattern with its `*`. Series are rendered by helpers that prepend
/// `lmmir_` at run time, so the check reads a live `/metrics`, not the
/// source.
fn documented_series(text: &str) -> BTreeSet<String> {
    let crates = workspace_crates();
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices("lmmir_") {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let rest = &text[at..];
        let (name, after) = rest.split_at(rest.find(|c| !is_series_char(c)).unwrap_or(rest.len()));
        if after.starts_with("::") || crates.contains(name) {
            continue;
        }
        if !name.ends_with('_') {
            out.insert(name.to_string());
        } else if after.starts_with('*') {
            out.insert(format!("{name}*"));
        } else if let Some(members) = after.strip_prefix('{').and_then(|a| a.split_once('}')) {
            out.extend(members.0.split(',').map(|m| format!("{name}{}", m.trim())));
        }
    }
    out
}

/// The series names of a `/metrics` text (labels and values dropped).
fn emitted_series(metrics: &str) -> BTreeSet<String> {
    metrics
        .lines()
        .filter_map(|l| l.split(['{', ' ']).next())
        .filter(|name| name.starts_with("lmmir_"))
        .map(str::to_string)
        .collect()
}

/// Whether `series` (a name, or a `prefix_*` pattern) is among `emitted`.
fn is_emitted(series: &str, emitted: &BTreeSet<String>) -> bool {
    match series.strip_suffix('*') {
        Some(prefix) => emitted.iter().any(|e| e.starts_with(prefix)),
        None => emitted.contains(series),
    }
}

#[test]
fn every_documented_metric_series_is_emitted() {
    let dir = std::env::temp_dir().join("lmmir_docs_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.lmmt");
    save_predictor(&iredge(16, 1), &path).unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        ..ServeConfig::default()
    };
    let server = Server::start(config, RegistrySpec::single("demo", &path)).unwrap();

    // One predict: the per-model series appear with a model's first
    // request.
    let case = CaseSpec::new("docs", 16, 16, 1, CaseKind::Hidden).generate();
    let request = PredictRequest::from_case(&case);
    let deadline = Instant::now() + Duration::from_secs(20);
    while client::predict(server.addr(), &request).is_err() {
        assert!(Instant::now() < deadline, "the server never answered");
        std::thread::sleep(Duration::from_millis(50));
    }
    let documented = documented_series(&read("README.md"));
    let missing = loop {
        let emitted = emitted_series(&client::get_text(server.addr(), "/metrics").unwrap().1);
        let missing: Vec<&String> = documented
            .iter()
            .filter(|series| !is_emitted(series, &emitted))
            .collect();
        if missing.is_empty() || Instant::now() > deadline {
            break missing;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    server.stop();
    std::fs::remove_file(&path).ok();
    assert!(
        missing.is_empty(),
        "metric series README.md names but no live server emits: {missing:?}"
    );
    assert!(documented.len() >= 10, "README names {documented:?}");
}

#[test]
fn series_scanner_expands_members_and_skips_crate_paths() {
    let doc = "`lmmir_serve::proto`, lmmir_par::with_threads; `lmmir_result_cache_{hits_total,\n\
               misses_total}`, `lmmir_event_*`, `lmmir_requests_total\n{model=\"a\"}`, \
               xlmmir_no, `lmmir_dedup_saved_total > 0`";
    let named: Vec<String> = documented_series(doc).into_iter().collect();
    assert_eq!(
        named,
        [
            "lmmir_dedup_saved_total",
            "lmmir_event_*",
            "lmmir_requests_total",
            "lmmir_result_cache_hits_total",
            "lmmir_result_cache_misses_total",
        ]
    );
    let emitted =
        emitted_series("# HELP x\nlmmir_requests_total{model=\"a\"} 1\nlmmir_event_threads 3\n");
    assert!(is_emitted("lmmir_event_*", &emitted));
    assert!(is_emitted("lmmir_requests_total", &emitted));
    assert!(!is_emitted("lmmir_result_cache_hits_total", &emitted));
    assert!(!is_emitted("lmmir_requests", &emitted));
}

#[test]
fn series_scanner_skips_crate_names_in_prose() {
    let named =
        documented_series("the `lmmir_par` span, then `lmmir_bogus_total` and lmmir_tensor.");
    assert_eq!(named.into_iter().collect::<Vec<_>>(), ["lmmir_bogus_total"]);
}
