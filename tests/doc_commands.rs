//! The `cargo run` lines the docs quote must run: every one in README.md,
//! EXPERIMENTS.md, DESIGN.md and benchmark/README.md has to name a
//! package that exists and a bin or example that package has, and every
//! `--flag` it passes to that program has to appear as a string literal
//! (`"--flag"`) in the program's source, or, for `tve-bench`'s bins, in
//! the crate's shared flag helpers (`crates/bench/src/lib.rs`). Packages,
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

/// What `cargo run` can run in one package: each target's name and
/// source file.
#[derive(Debug, Default)]
struct Targets {
    dir: PathBuf,
    bins: Vec<(String, PathBuf)>,
    examples: Vec<(String, PathBuf)>,
}

impl Targets {
    fn names(list: &[(String, PathBuf)]) -> Vec<&str> {
        list.iter().map(|(name, _)| name.as_str()).collect()
    }

    fn find<'a>(list: &'a [(String, PathBuf)], name: &str) -> Option<&'a PathBuf> {
        list.iter().find(|(n, _)| n == name).map(|(_, path)| path)
    }
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

/// The stem and path of each `.rs` file directly in `dir`, minus
/// `claimed` paths.
fn rs_files(dir: &Path, claimed: &[PathBuf]) -> Vec<(String, PathBuf)> {
    let Ok(read) = fs::read_dir(dir) else {
        return Vec::new();
    };
    read.filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs") && !claimed.contains(p))
        .filter_map(|p| Some((p.file_stem()?.to_string_lossy().into_owned(), p)))
        .collect()
}

/// The package in `dir` and what it can run.
fn package_at(dir: &Path) -> (String, Targets) {
    let text = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
    let (package, bins) = parse_manifest(&text, "bin");
    let (_, examples) = parse_manifest(&text, "example");
    let mut targets = Targets {
        dir: dir.to_path_buf(),
        ..Targets::default()
    };
    for (entries, subdir, out) in [
        (bins, "src/bin", &mut targets.bins),
        (examples, "examples", &mut targets.examples),
    ] {
        let entries: Vec<(String, PathBuf)> = entries
            .into_iter()
            .map(|(name, path)| {
                let path = path.unwrap_or_else(|| format!("{subdir}/{name}.rs"));
                (name, dir.join(path))
            })
            .collect();
        let claimed: Vec<PathBuf> = entries.iter().map(|(_, p)| p.clone()).collect();
        out.extend(entries);
        out.extend(rs_files(&dir.join(subdir), &claimed));
        let main = dir.join("src/main.rs");
        if subdir == "src/bin" && main.exists() && !claimed.contains(&main) {
            out.push((package.clone(), main));
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

/// One documented `cargo run`.
#[derive(Debug)]
struct Run {
    /// 1-based line number.
    line: usize,
    /// The arguments to cargo.
    cargo: Vec<String>,
    /// The arguments after `--`, to the program.
    program: Vec<String>,
}

/// Every `cargo run` in `text`. A command ends at the end of its line
/// (unless the line ends in `\` or in `cargo run` itself), or at a shell
/// or Markdown delimiter; a `--` separates cargo's arguments from the
/// program's.
fn cargo_runs(text: &str) -> Vec<Run> {
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
            let (mut cargo, mut program) = (Vec::new(), None);
            for token in command.split_whitespace() {
                let end = token.find(['`', '\'', '"', '#', '&', '|', ';', ')']);
                let word = &token[..end.unwrap_or(token.len())];
                match &mut program {
                    None if word == "--" => program = Some(Vec::new()),
                    _ if word.is_empty() => {}
                    None => cargo.push(word.to_string()),
                    Some(program) => program.push(word.to_string()),
                }
                if end.is_some() {
                    break;
                }
            }
            runs.push(Run {
                line: i + 1,
                cargo,
                program: program.unwrap_or_default(),
            });
            rest = &rest[at + "cargo run".len()..];
        }
    }
    runs
}

/// Why a `cargo run` with `args` would fail to find what to run.
fn check_run(args: &[String], packages: &BTreeMap<String, Targets>) -> Result<(), String> {
    target_sources(args, packages).map(|_| ())
}

/// The source files a `cargo run` with `args` runs, and where its flags
/// may be parsed: the target's own file, plus `tve-bench`'s shared flag
/// helpers for its bins. Empty for a placeholder target (`<bin>`); an
/// error if cargo would not find what to run.
fn target_sources(
    args: &[String],
    packages: &BTreeMap<String, Targets>,
) -> Result<Vec<PathBuf>, String> {
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
    let (list, kind, wanted) = match (bin, example) {
        (_, Some(e)) => (&targets.examples, "example", e),
        (Some(b), None) => (&targets.bins, "bin", b),
        (None, None) => match &targets.bins[..] {
            [(only, _)] => (&targets.bins, "bin", only.clone()),
            bins => {
                return Err(format!(
                    "package `{name}` has {} bins, so cargo cannot tell which to run without --bin",
                    bins.len()
                ))
            }
        },
    };
    if wanted.starts_with('<') {
        return Ok(Vec::new());
    }
    let source = Targets::find(list, &wanted).ok_or_else(|| {
        format!(
            "package `{name}` has no {kind} `{wanted}` ({kind}s: {:?})",
            Targets::names(list)
        )
    })?;
    let mut sources = vec![source.clone()];
    if name == "tve-bench" && kind == "bin" {
        sources.push(targets.dir.join("src/lib.rs"));
    }
    Ok(sources)
}

/// The `--flag`s in `program` that none of `sources` names as a string
/// literal.
fn unknown_flags(program: &[String], sources: &[PathBuf]) -> Vec<String> {
    let texts: Vec<String> = sources
        .iter()
        .map(|p| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
        .collect();
    program
        .iter()
        .filter(|arg| arg.len() > 2 && arg.starts_with("--"))
        .map(|arg| arg.split('=').next().unwrap_or(arg).to_string())
        .filter(|flag| !texts.iter().any(|t| t.contains(&format!("\"{flag}\""))))
        .collect()
}

#[test]
fn every_documented_cargo_run_names_an_existing_target() {
    let packages = workspace();
    let mut failures = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("doc");
        for run in cargo_runs(&text) {
            checked += 1;
            if let Err(why) = check_run(&run.cargo, &packages) {
                let args = run.cargo.join(" ");
                failures.push(format!("{doc}:{}: cargo run {args}: {why}", run.line));
            }
        }
    }
    assert!(checked >= 40, "only {checked} cargo run lines found");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_documented_flag_is_one_its_program_parses() {
    let packages = workspace();
    let mut failures = Vec::new();
    let mut flags = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("doc");
        for run in cargo_runs(&text) {
            let Ok(sources) = target_sources(&run.cargo, &packages) else {
                continue;
            };
            flags += run.program.iter().filter(|a| a.starts_with("--")).count();
            for flag in unknown_flags(&run.program, &sources) {
                failures.push(format!(
                    "{doc}:{}: `{flag}` is not in {}",
                    run.line,
                    sources[0].display()
                ));
            }
        }
    }
    assert!(flags >= 30, "only {flags} documented flags found");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_misspelled_flag_fails_the_check() {
    let packages = workspace();
    let flags = |line: &str| {
        let run = cargo_runs(line).remove(0);
        let sources = target_sources(&run.cargo, &packages).expect("target resolves");
        unknown_flags(&run.program, &sources)
    };
    let shared = "cargo run --release -p tve-bench --bin table1 -- --scale 100 --trace";
    assert_eq!(flags(shared), Vec::<String>::new());
    let served = "cargo run --release -p tve-serve --bin tve-client -- campaign --faults=3";
    assert_eq!(flags(served), Vec::<String>::new());
    let bad = "cargo run --release -p tve-bench --bin table1 -- --scale 100 --mem-word 2622";
    assert_eq!(flags(bad), ["--mem-word"]);
    let benchmark =
        "cargo run --release --manifest-path benchmark/Cargo.toml -- \\\n  --seed 1 --secs 2";
    assert_eq!(flags(benchmark), ["--secs"]);
}

#[test]
fn a_misnamed_target_fails_the_check() {
    let packages = workspace();
    let args = |line: &str| cargo_runs(line).remove(0).cargo;
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
