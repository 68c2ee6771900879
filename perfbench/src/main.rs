//! Runner of the repository benchmark (one workload per process).
//!
//! ```text
//! perfbench <paper_flow|sat_hybrid|serve_cluster> --seed N --seconds S --trace 0|1
//!           [--worker PATH] [--out DIR]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `scap-cluster-worker`
//! binary, runs one workload in a fresh process (so its peak RSS belongs
//! to that workload alone) and turns the last stdout line of this runner
//! into the benchmark's result line. With `--trace 0` the runner makes a
//! fixed number of passes (see [`passes`]) with `scap_obs` collection off;
//! with `--trace 1` it makes one untraced and one traced pass, writes the
//! span file to `--out` and measures the per-layer metrics. `run.py` picks
//! the metrics `BENCHMARK.json` lists for the run's kind.

mod batch;
mod check;
mod serve;
mod trace;

use scap_obs::json::{Arr, Obj};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by the name `BENCHMARK.json` gives them.
pub const WORKLOADS: &[&str] = &["paper_flow", "sat_hybrid", "serve_cluster"];

/// Measured passes of a `--trace 0` run: as many passes of nominal length
/// `pass_s` as fit in `seconds`, at least one. The count depends on the
/// arguments only, never on elapsed time, so every run of a workload
/// measures the same work.
pub fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).floor() as usize).max(1)
}

/// One measured value and the number of samples behind it.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: u64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: check::Checks,
    pub fingerprint: String,
    /// Worker processes the run started; `run.py` verifies none is left.
    pub worker_pids: Vec<u32>,
}

impl Outcome {
    /// Reports per-layer self times: the workload root's (layer
    /// `unattributed`) as `core.unattributed_ms`, every other layer's as
    /// `<layer>.self_ms`.
    pub fn set_layer_self_times(&mut self, layers: &[(&'static str, f64)]) {
        for &(layer, ms) in layers {
            match layer {
                "unattributed" => self.set("core.unattributed_ms", ms, 1),
                l => self.set(&format!("{l}.self_ms"), ms, 1),
            }
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            samples,
        });
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub worker: Option<PathBuf>,
    pub out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--worker" => worker = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_owned())
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let workload = workload.ok_or("missing workload name")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        worker,
        out,
    })
}

/// `{name: {value, samples}}` of every metric.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut o = Obj::new();
    for m in metrics {
        let mut entry = Obj::new();
        entry.f64("value", m.value).u64("samples", m.samples);
        o.raw(&m.name, &entry.finish());
    }
    o.finish()
}

/// The runner's last stdout line: every metric the run measured, with its
/// sample count, plus the check tally and the output fingerprint.
/// `run.py` picks the metrics `BENCHMARK.json` names for the run's kind
/// and gives them their units.
fn result_line(outcome: &Outcome) -> String {
    let mut pids = Arr::new();
    for &pid in &outcome.worker_pids {
        pids.u64(u64::from(pid));
    }
    let mut root = Obj::new();
    root.bool("correct", outcome.checks.failed == 0)
        .u64("attempted", outcome.checks.attempted)
        .u64("failed", outcome.checks.failed)
        .raw("metrics", &metrics_json(&outcome.metrics))
        .str("fingerprint", &outcome.fingerprint)
        .raw("worker_pids", &pids.finish());
    root.finish()
}

/// Writes the traced run's spans, per-layer self times and counter deltas.
pub fn write_span_file(
    opts: &Options,
    records: &[trace::SpanRecord],
    layers: &[(&'static str, f64)],
    counters: &[(&'static str, u64)],
    out: &Outcome,
) -> Result<(), String> {
    let mut spans = Arr::new();
    for (i, r) in records.iter().enumerate() {
        let mut o = Obj::new();
        o.u64("id", i as u64)
            .str("name", &r.name)
            .str("layer", r.layer)
            .u64("run", u64::from(r.run));
        match r.parent {
            Some(p) => o.u64("parent", p as u64),
            None => o.raw("parent", "null"),
        };
        o.u64("start_ns", r.start_ns)
            .u64("end_ns", r.end_ns)
            .u64("count", r.count)
            .u64("total_ns", r.total_ns);
        let mut c = Obj::new();
        for &(n, d) in &r.counters {
            c.u64(n, d);
        }
        o.raw("counters", &c.finish());
        spans.raw(&o.finish());
    }
    let mut self_ms = Obj::new();
    for &(layer, ms) in layers {
        self_ms.f64(layer, ms);
    }
    let mut deltas = Obj::new();
    for &(n, d) in counters {
        deltas.u64(n, d);
    }
    let mut root = Obj::new();
    root.str("workload", &opts.workload)
        .u64("seed", opts.seed)
        .raw("layer_self_ms", &self_ms.finish())
        .raw("counter_deltas", &deltas.finish())
        .raw("metrics", &metrics_json(&out.metrics))
        .raw("spans", &spans.finish());
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let path = opts
        .out
        .join(format!("spans-{}-seed{}.json", opts.workload, opts.seed));
    std::fs::write(&path, scap_obs::json::pretty(&root.finish()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("span file: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "paper_flow" => batch::paper_flow(&opts),
        "sat_hybrid" => batch::sat_hybrid(&opts),
        _ => serve::serve_cluster(&opts),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_obs::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        parse(&text).expect("BENCHMARK.json is strict JSON")
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
    }

    #[test]
    fn benchmark_json_has_the_contract_shape() {
        let doc = benchmark_json();
        let keys: Vec<&String> = doc.as_obj().expect("top-level object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let e2e = entries(&doc, "end_to_end");
        let layer = entries(&doc, "per_layer");
        let workloads = entries(&doc, "workloads");
        assert!((1..=16).contains(&e2e.len()), "1..=16 end-to-end metrics");
        assert!(
            (1..=128).contains(&layer.len()),
            "1..=128 per-layer metrics"
        );
        assert!((2..=8).contains(&workloads.len()), "2..=8 workloads");
        let mut seen = std::collections::BTreeSet::new();
        for entry in e2e.iter().chain(layer).chain(workloads) {
            let name = entry.get("name").and_then(Value::as_str).expect("a name");
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name.to_owned()), "name {name} used twice");
        }
        for entry in e2e {
            let bound = entry.get("bound").and_then(Value::as_f64).expect("a bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "bound {bound} out of (0, 0.25]"
            );
        }
        let setup = e2e
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        let run_seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&run_seconds));
    }

    #[test]
    fn benchmark_json_names_the_runner_workloads() {
        let doc = benchmark_json();
        let names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn pass_count_follows_the_arguments() {
        assert_eq!(passes(30.0, 13.0), 2);
        assert_eq!(passes(30.0, 20.0), 1);
        assert_eq!(passes(5.0, 20.0), 1);
        assert_eq!(passes(30.0, 5.0), 6);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse_args(&args("sat_hybrid --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((o.seed, o.trace), (3, true));
        assert!(parse_args(&args("nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("paper_flow --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("paper_flow --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("paper_flow --seconds 1 --trace 0")).is_err());
    }
}
