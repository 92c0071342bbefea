//! The `cargo run` lines the docs quote must run: every one in README.md,
//! EXPERIMENTS.md, DESIGN.md and benchmark/README.md has to name a
//! package that exists and a bin or example that package has. Packages,
//! bins and examples are read from the manifests, `src/bin`,
//! `src/main.rs` and `examples/`, as cargo discovers them.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "benchmark/README.md",
];

/// What `cargo run` can run in one package.
#[derive(Debug, Default)]
struct Targets {
    bins: Vec<String>,
    examples: Vec<String>,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `name` of `[package]` and the `(name, path)` of every
/// `[[section]]` entry of a manifest.
fn parse_manifest(text: &str, section: &str) -> (String, Vec<(String, Option<String>)>) {
    let (mut package, mut entries) = (String::new(), Vec::new());
    let mut current = String::new();
    let value = |line: &str| {
        line.split_once('=')
            .map(|(_, v)| v.trim().trim_matches('"').to_string())
    };
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            current = line.to_string();
            if current == format!("[[{section}]]") {
                entries.push((String::new(), None));
            }
        } else if current == "[package]" && line.starts_with("name") && package.is_empty() {
            package = value(line).unwrap_or_default();
        } else if current == format!("[[{section}]]") {
            let entry = entries.last_mut().expect("inside an entry");
            if line.starts_with("name") {
                entry.0 = value(line).unwrap_or_default();
            } else if line.starts_with("path") {
                entry.1 = value(line);
            }
        }
    }
    (package, entries)
}

/// File stems of the `.rs` files directly in `dir`, minus `claimed` paths.
fn rs_stems(dir: &Path, claimed: &[PathBuf]) -> Vec<String> {
    let Ok(read) = fs::read_dir(dir) else {
        return Vec::new();
    };
    read.filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs") && !claimed.contains(p))
        .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .collect()
}

/// The package in `dir` and what it can run.
fn package_at(dir: &Path) -> (String, Targets) {
    let text = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
    let (package, bins) = parse_manifest(&text, "bin");
    let (_, examples) = parse_manifest(&text, "example");
    let mut targets = Targets::default();
    for (entries, subdir, out) in [
        (bins, "src/bin", &mut targets.bins),
        (examples, "examples", &mut targets.examples),
    ] {
        let claimed: Vec<PathBuf> = entries
            .iter()
            .filter_map(|(_, p)| p.as_ref().map(|p| dir.join(p)))
            .collect();
        out.extend(entries.into_iter().map(|(name, _)| name));
        out.extend(rs_stems(&dir.join(subdir), &claimed));
        let main = dir.join("src/main.rs");
        if subdir == "src/bin" && main.exists() && !claimed.contains(&main) {
            out.push(package.clone());
        }
    }
    (package, targets)
}

/// Every workspace package by name, with the root package under `""` too
/// (what `cargo run` without `-p` runs from).
fn workspace() -> BTreeMap<String, Targets> {
    let mut packages = BTreeMap::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let dir = entry.expect("entry").path();
        if dir.join("Cargo.toml").exists() {
            let (name, targets) = package_at(&dir);
            packages.insert(name, targets);
        }
    }
    let (_, targets) = package_at(&root());
    packages.insert(String::new(), targets);
    packages
}

/// The cargo arguments of every `cargo run` in `text`, with their line
/// numbers. A command ends at the `--` before the program's own
/// arguments, at the end of its line (unless the line ends in `\` or in
/// `cargo run` itself), or at a shell or Markdown delimiter.
fn cargo_runs(text: &str) -> Vec<(usize, Vec<String>)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut runs = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut rest: &str = line;
        while let Some(at) = rest.find("cargo run") {
            let mut command = rest[at + "cargo run".len()..].to_string();
            let mut next = i + 1;
            while (command.trim().is_empty() || command.trim_end().ends_with('\\'))
                && next < lines.len()
            {
                command = format!(
                    "{} {}",
                    command.trim_end().trim_end_matches('\\'),
                    lines[next]
                );
                next += 1;
            }
            let mut args = Vec::new();
            for token in command.split_whitespace() {
                let end = token.find(['`', '\'', '"', '#', '&', '|', ';', ')']);
                let word = &token[..end.unwrap_or(token.len())];
                if word == "--" {
                    break;
                }
                if !word.is_empty() {
                    args.push(word.to_string());
                }
                if end.is_some() {
                    break;
                }
            }
            runs.push((i + 1, args));
            rest = &rest[at + "cargo run".len()..];
        }
    }
    runs
}

/// Why a `cargo run` with `args` would fail to find what to run.
fn check_run(args: &[String], packages: &BTreeMap<String, Targets>) -> Result<(), String> {
    let (mut package, mut bin, mut example, mut manifest) = (None, None, None, None);
    let mut ignored = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--release" | "--offline" | "--quiet" | "-q" | "--locked" | "--frozen" => continue,
            "-p" | "--package" => &mut package,
            "--bin" => &mut bin,
            "--example" => &mut example,
            "--manifest-path" => &mut manifest,
            "--features" | "--profile" | "--target-dir" | "-j" | "--jobs" => &mut ignored,
            other => return Err(format!("unknown cargo run argument `{other}`")),
        };
        *slot = Some(
            args.next()
                .ok_or(format!("`{flag}` lacks its value"))?
                .clone(),
        );
    }
    let owned;
    let (name, targets) = match (&manifest, &package) {
        (Some(path), _) => {
            let dir = root().join(path);
            let dir = dir.parent().expect("manifest in a directory");
            if !dir.join("Cargo.toml").exists() {
                return Err(format!("no manifest at `{path}`"));
            }
            owned = package_at(dir);
            (owned.0.clone(), &owned.1)
        }
        (None, Some(p)) => (
            p.clone(),
            packages.get(p).ok_or(format!("no package `{p}`"))?,
        ),
        (None, None) => ("tve".to_string(), &packages[""]),
    };
    let placeholder = |s: &str| s.starts_with('<');
    match (bin, example) {
        (Some(b), _) if !placeholder(&b) && !targets.bins.contains(&b) => Err(format!(
            "package `{name}` has no bin `{b}` (bins: {:?})",
            targets.bins
        )),
        (_, Some(e)) if !placeholder(&e) && !targets.examples.contains(&e) => Err(format!(
            "package `{name}` has no example `{e}` (examples: {:?})",
            targets.examples
        )),
        (None, None) if targets.bins.len() != 1 => Err(format!(
            "package `{name}` has {} bins, so cargo cannot tell which to run without --bin",
            targets.bins.len()
        )),
        _ => Ok(()),
    }
}

#[test]
fn every_documented_cargo_run_names_an_existing_target() {
    let packages = workspace();
    let mut failures = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("doc");
        for (line, args) in cargo_runs(&text) {
            checked += 1;
            if let Err(why) = check_run(&args, &packages) {
                failures.push(format!("{doc}:{line}: cargo run {}: {why}", args.join(" ")));
            }
        }
    }
    assert!(checked >= 40, "only {checked} cargo run lines found");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_misnamed_target_fails_the_check() {
    let packages = workspace();
    let args = |line: &str| cargo_runs(line).remove(0).1;
    let ok = args("cargo run --release -p tve-bench --bin table1 -- --scale 100");
    assert_eq!(check_run(&ok, &packages), Ok(()));
    for bad in [
        "cargo run --release -p tve-bench --bin tabel1",
        "cargo run --release -p tve-bnech --bin table1",
        "cargo run --example quickstrat",
        "cargo run --release -p tve-serve &",
        "cargo run --release --manifest-path benchmrak/Cargo.toml -- --seed 1",
    ] {
        assert!(check_run(&args(bad), &packages).is_err(), "{bad} passed");
    }
}
