//! A run's record: metrics, run metadata, output checks, and its printed/written forms.

use std::path::Path;

use crate::util::{json_num, json_str, median, quantile};
use crate::{Checks, Samples};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Samples needed before a p90 is reported.
pub const P90_MIN_SAMPLES: usize = 100;

/// Everything one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Work units the timed phase runs.
    pub units_planned: usize,
    /// `(iterations, mean interface cost)` of each unit run.
    pub units: Vec<(u64, f64)>,
    /// The contract metrics (end-to-end, or per-layer when traced), in order.
    pub metrics: Vec<Metric>,
    /// Further measurements kept in the record only.
    pub extra: Vec<Metric>,
    /// Effective configuration.
    pub config: Vec<(String, String)>,
    /// Output checks.
    pub checks: Checks,
    /// The traced run's spans.
    pub trace_json: Option<String>,
}

impl RunReport {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            units_planned: crate::run::units(workload, seconds),
            units: Vec::new(),
            metrics: Vec::new(),
            extra: Vec::new(),
            config: Vec::new(),
            checks: Checks::default(),
            trace_json: None,
        }
    }

    /// Record effective configuration entries.
    pub fn config(&mut self, entries: &[(&str, String)]) {
        self.config
            .extend(entries.iter().map(|(k, v)| (k.to_string(), v.clone())));
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(
        &mut self,
        setups: &[f64],
        wall_s: f64,
        cpu_s: f64,
        samples: &Samples,
        checks: &Checks,
    ) {
        let iterations = samples.iterations.max(1) as f64;
        let values = [
            median(setups),
            samples.iterations as f64 / wall_s,
            cpu_s * 1e3 / iterations,
            median(&samples.search),
            self.units.first().map_or(f64::NAN, |u| u.1),
            checks.success_rate(),
            crate::util::peak_rss_mb(),
        ];
        for ((name, unit), value) in crate::END_TO_END.iter().zip(values) {
            self.metrics.push(Metric::new(name, value, unit));
        }
        let mut extra = vec![
            Metric::new("total_iterations", samples.iterations as f64, "count"),
            Metric::new("timed_wall_s", wall_s, "s"),
            Metric::new("timed_cpu_s", cpu_s, "s"),
            Metric::new("search_samples", samples.search.len() as f64, "count"),
            Metric::new("search_ms_max", quantile(&samples.search, 1.0), "ms"),
            Metric::new("interact_samples", samples.interact.len() as f64, "count"),
        ];
        for (name, values) in [
            ("search", &samples.search),
            ("interact", &samples.interact),
            ("append", &samples.append),
            ("retract", &samples.retract),
        ] {
            if values.is_empty() {
                continue;
            }
            if name != "search" {
                extra.push(Metric::new(&format!("{name}_ms_p50"), median(values), "ms"));
                extra.push(Metric::new(
                    &format!("{name}_samples"),
                    values.len() as f64,
                    "count",
                ));
            }
            if values.len() >= P90_MIN_SAMPLES {
                extra.push(Metric::new(
                    &format!("{name}_ms_p90"),
                    quantile(values, 0.9),
                    "ms",
                ));
            }
        }
        self.extra.extend(extra);
    }

    /// Check the first unit against the iteration count the workload's configuration
    /// implies and, where recorded for this seed, the values in `expected.tsv`.
    pub fn check_expected(&mut self) {
        let Some(&(iterations, cost)) = self.units.first() else {
            self.checks.fail("no work unit completed".to_string());
            return;
        };
        let planned = crate::expected_unit_iterations(&self.workload);
        self.checks.expect(iterations == planned, || {
            format!("unit ran {iterations} iterations, configuration implies {planned}")
        });
        self.checks.expect(cost.is_finite() && cost > 0.0, || {
            format!("interface cost {cost} is not a positive number")
        });
        match crate::expected(&self.workload) {
            Some((want_iterations, want_cost)) => {
                self.checks.expect(
                    iterations == want_iterations && cost.to_bits() == want_cost.to_bits(),
                    || {
                        format!(
                            "unit gave ({iterations}, {cost:?}); recorded ({want_iterations}, {want_cost:?})"
                        )
                    },
                );
            }
            None => self.checks.fail(format!(
                "no recorded values for `{}` in expected.tsv",
                self.workload
            )),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// The result line: the JSON object that ends a run's standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed(),
            metrics.join(", ")
        )
    }

    /// Human-readable lines: metadata, every metric by name and unit, failures.
    pub fn human(&self, meta: &Meta) -> String {
        let mut out = format!(
            "perfbench {} seed={} seconds={} trace={} units={} host_cpus={} commit={} source={}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.units.len(),
            meta.host_cpus,
            meta.commit,
            meta.source_digest
        );
        out.push_str("  config:");
        for (k, v) in &self.config {
            out.push_str(&format!(" {k}={v};"));
        }
        out.push('\n');
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("  {:<36} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        for f in self.checks.failures.iter().take(20) {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }

    /// The full record as JSON: metadata, configuration, metrics, checks and spans.
    pub fn record_json(&self, meta: &Meta) -> String {
        let metric_list = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    format!(
                        "{{\"name\": {}, \"value\": {}, \"unit\": {}}}",
                        json_str(&m.name),
                        json_num(m.value),
                        json_str(m.unit)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let config = self
            .config
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let failures = self
            .checks
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \"git_commit\": {}, \"source_digest\": {}, \"config\": {{{}}}, \"units\": {}, \"correct\": {}, \"attempted\": {}, \"failures\": [{}], \"metrics\": [{}], \"extra\": [{}], \"trace_spans\": {}}}\n",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            meta.host_cpus,
            json_str(&meta.commit),
            json_str(&meta.source_digest),
            config,
            self.units.len(),
            self.correct(),
            self.checks.attempted,
            failures,
            metric_list(&self.metrics),
            metric_list(&self.extra),
            self.trace_json.as_deref().unwrap_or("null")
        )
    }
}

/// Run metadata shared by every record.
#[derive(Debug, Clone)]
pub struct Meta {
    /// `std::thread::available_parallelism`.
    pub host_cpus: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the program and benchmark sources, which identifies the code
    /// measured even where git is not available.
    pub source_digest: String,
}

impl Meta {
    /// Collect metadata from the current directory (the repository root).
    pub fn collect() -> Self {
        // The ceiling keeps git from searching directories above the checkout.
        let parent = std::env::current_dir()
            .ok()
            .and_then(|dir| dir.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        let commit = std::process::Command::new("git")
            .env("GIT_CEILING_DIRECTORIES", parent)
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let mut files = Vec::new();
        for root in ["crates", "perfbench/src"] {
            collect_files(Path::new(root), &mut files);
        }
        files.sort();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for file in &files {
            let bytes = std::fs::read(file).unwrap_or_default();
            for b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
                hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Self {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit,
            source_digest: format!("{hash:016x}"),
        }
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
