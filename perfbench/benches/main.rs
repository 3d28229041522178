//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to read a trace.
//!
//! ```text
//! perfbench --workload <balanced|cohort-sketch|fleetd-jobs> [--seed N]
//!           [--seconds N] [--trace 0|1]
//! perfbench --steady N [--seed N] [--seconds N] [--workload NAME ...]
//! ```
//!
//! A run prints a `detail` JSON line (work counters, sample counts, machine
//! facts) and, as its last line, the result object: end-to-end metrics
//! untraced, per-layer metrics traced.

mod affinity;
mod daemon;
mod inproc;
mod replay;
mod stats;
mod steady;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::{Outcome, DEFAULT_SEED};

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--steady" => args.steady = Some(number(value()?)? as usize),
            // `cargo bench` appends this to every bench binary.
            "--bench" => {}
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for name in &args.workloads {
        if !workload::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}`; expected one of {}",
                workload::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n       \
         perfbench --steady RUNS [--seed N] [--seconds N] [--workload NAME ...]\n\
         seeds: {} is the committed default; confirm claims on {} as well",
        workload::NAMES.join("|"),
        workload::DEFAULT_SEED,
        workload::SECOND_SEED
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::run(&args.workloads, runs, args.seed, args.seconds);
    }
    let [name] = args.workloads.as_slice() else {
        eprintln!("perfbench: pass exactly one --workload (or --steady N)");
        return ExitCode::from(2);
    };
    let w = workload::workload(name, args.seed).expect("validated above");
    let outcome = workload::run(&w, args.seconds, args.trace);
    for error in &outcome.errors {
        eprintln!("perfbench: {error}");
    }
    println!("{}", detail(&w, &args, &outcome));
    println!("{}", result(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_map<K: AsRef<str>>(entries: impl IntoIterator<Item = (K, String)>) -> String {
    let fields: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result object, printed as the last line of stdout.
fn result(outcome: &Outcome) -> String {
    let metrics = json_map(outcome.metrics.iter().map(|(name, value, unit)| {
        // JSON has no NaN or infinity; a metric without samples reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        (
            *name,
            format!("{{\"value\":{value},\"unit\":{}}}", json_str(unit)),
        )
    }));
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// Everything beside the metrics: counters, sample counts, machine facts.
fn detail(w: &workload::Workload, args: &Args, outcome: &Outcome) -> String {
    let counts = |m: &std::collections::BTreeMap<String, u64>| {
        json_map(m.iter().map(|(k, v)| (k.as_str(), v.to_string())))
    };
    let machine = json_map([
        ("nproc", facts::nproc().to_string()),
        ("rustc", json_str(&facts::rustc())),
        ("commit", json_str(&facts::commit())),
        ("source_digest", json_str(&facts::source_digest())),
    ]);
    let detail = json_map([
        ("workload", json_str(w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("spec", w.spec.to_json()),
        ("failed_fraction", {
            let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
            share.to_string()
        }),
        ("work", counts(&outcome.work)),
        ("load", counts(&outcome.load)),
        (
            "samples",
            json_map(outcome.samples.iter().map(|(k, v)| (*k, v.to_string()))),
        ),
        (
            "notes",
            json_map(outcome.notes.iter().map(|(k, v)| (*k, json_str(v)))),
        ),
        ("machine", machine),
    ]);
    format!("{{\"detail\":{detail}}}")
}

/// Facts recorded with every run, so numbers from different machines or
/// sources are never compared.
mod facts {
    use std::path::Path;
    use std::process::Command;

    pub fn nproc() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    fn output(program: &str, args: &[&str]) -> Option<String> {
        let out = Command::new(program).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    }

    pub fn rustc() -> String {
        output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
    }

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    /// The git commit, when the checkout itself is a repository.
    pub fn commit() -> String {
        let root = root();
        let root_str = root.to_string_lossy();
        root.join(".git")
            .exists()
            .then(|| output("git", &["-C", &root_str, "rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "unknown".into())
    }

    /// FNV-1a over the repository's sources (paths and contents, sorted),
    /// which identifies the code even where git is absent.
    pub fn source_digest() -> String {
        let root = root();
        let mut files = Vec::new();
        for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
            collect(&root.join(top), &mut files);
        }
        files.sort();
        let mut bytes = Vec::new();
        for file in files {
            if let Ok(rel) = file.strip_prefix(&root) {
                bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            }
            bytes.extend(std::fs::read(&file).unwrap_or_default());
        }
        crate::workload::digest(&bytes)
    }

    fn collect(path: &Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_file() {
            files.push(path.to_path_buf());
            return;
        }
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if matches!(name.to_str(), Some("target" | "out" | ".bench_build")) {
                continue;
            }
            collect(&entry.path(), files);
        }
    }
}
