//! `perfbench` — the mctsui benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run. Prints every metric by name and unit, writes the full record under
//!     .bench_out/, and ends its standard output with one JSON result line.
//! perfbench all [--seed <n>] [--seconds <s>]
//!     Every workload in its own process, untraced then traced; prints every
//!     end-to-end and per-layer metric.
//! perfbench steady [--runs <k>] [--first-seed <n>] [--seconds <s>] [--workload <name>]...
//!     Runs each workload k times with consecutive seeds and prints, per end-to-end
//!     metric, the median, the quartiles and the quartile spread against the bound
//!     in BENCHMARK.json.
//! perfbench record
//!     Prints the expected.tsv lines: each workload's unit iterations and mean
//!     interface cost.
//! ```
//!
//! Run it from the repository root, e.g.
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- all`.

use std::process::{Command, ExitCode, Stdio};

use perfbench::report::Meta;
use perfbench::util::{median, quartiles};
use perfbench::{run, END_TO_END, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("steady") => steady(&args[1..]),
        Some("record") => record(),
        _ => single(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: Option<u64>) -> Result<u64, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a whole number, got `{v}`")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn single(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = number(args, "--seed", None)?;
    let seconds = number(args, "--seconds", None)?;
    let traced = match number(args, "--trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let meta = Meta::collect();
    let report = run::run(workload, seed, seconds, traced)?;
    print!("{}", report.human(&meta));
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ));
    std::fs::write(&path, report.record_json(&meta)).map_err(|e| e.to_string())?;
    println!("  record: {}", path.display());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run this executable as a child process for one workload run and return its stdout.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {} failed:\n{stdout}",
            u8::from(traced)
        ));
    }
    Ok(stdout)
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed", Some(1))?;
    let seconds = number(args, "--seconds", Some(30))?;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let out = child(workload, seed, seconds, traced)?;
            // Everything but the trailing JSON line: the human-readable report.
            let lines: Vec<&str> = out.lines().collect();
            println!("{}", lines[..lines.len().saturating_sub(1)].join("\n"));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The value of metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// `(name, bound)` of every end-to-end metric in BENCHMARK.json.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let section = text
        .split("\"end_to_end\"")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let field = |entry: &str, key: &str| -> Option<String> {
        let k = format!("\"{key}\":");
        let rest = entry[entry.find(&k)? + k.len()..].trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| {
            let name = field(entry, "name").ok_or("entry without name")?;
            let bound = field(entry, "bound")
                .and_then(|b| b.parse().ok())
                .ok_or("entry without bound")?;
            Ok((name, bound))
        })
        .collect()
}

fn steady(args: &[String]) -> Result<ExitCode, String> {
    let runs = number(args, "--runs", Some(10))?;
    let first = number(args, "--first-seed", Some(1))?;
    let seconds = number(args, "--seconds", Some(30))?;
    let chosen: Vec<&str> = args
        .windows(2)
        .filter(|w| w[0] == "--workload")
        .map(|w| w[1].as_str())
        .collect();
    let workloads: Vec<&str> = if chosen.is_empty() {
        WORKLOADS.to_vec()
    } else {
        chosen
    };
    let bounds = bounds()?;
    let mut steady = true;
    for workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in first..first + runs {
            let out = child(workload, seed, seconds, false)?;
            let line = out.lines().last().unwrap_or_default();
            for (i, (name, _)) in END_TO_END.iter().enumerate() {
                let v = metric_value(line, name)
                    .ok_or_else(|| format!("{workload} seed {seed}: no {name} in `{line}`"))?;
                values[i].push(v);
            }
            eprintln!("steady: {workload} seed {seed} done");
        }
        println!("{workload}: {runs} runs, seeds {first}..{}", first + runs);
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let v = &values[i];
            let (q1, q3) = quartiles(v);
            let med = median(v);
            let spread = if med == 0.0 {
                f64::INFINITY
            } else {
                (q3 - q1) / med
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |b| b.1);
            let verdict = if *name == "setup_s" {
                "(spread not bounded)"
            } else if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound, above a third of it"
            } else {
                steady = false;
                "TOO NOISY"
            };
            println!(
                "  {name:<18} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6}  {verdict} [{unit}]"
            );
        }
    }
    Ok(if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn record() -> Result<ExitCode, String> {
    for workload in WORKLOADS {
        let report = run::run(workload, 1, 1, false)?;
        let (iterations, cost) = report.units[0];
        println!("{workload}\t{iterations}\t{cost:?}");
    }
    Ok(ExitCode::SUCCESS)
}
