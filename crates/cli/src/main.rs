//! `scap` — command-line front-end for the supply-voltage-noise-aware
//! transition-delay-fault ATPG suite.
//!
//! ```text
//! scap generate --scale 0.01 [--verilog out.v]          design + Tables 1-2
//! scap atpg     --scale 0.01 [--flow noise-aware]       run a flow
//!               [--fill fill-0] [--stil out.stil] [--compact]
//! scap profile  --scale 0.01 [--flow conventional]      per-pattern SCAP
//! scap schedule --scale 0.01 [--budget <mW>]            session scheduling
//! scap sta      --scale 0.01 [--derate] [--k 2] [--paths 3]   slack analysis
//! scap lint     --scale 0.01 [--format json] [--deny warn]   design-rule check
//! scap serve    --addr 127.0.0.1:7878                   resident HTTP API
//! scap cluster  --workers 4 [--port 7900]               sharded serving tier
//! scap evaluate                                         every table + figure
//! ```
//!
//! Everything is regenerated deterministically from `--scale`/`--seed`,
//! so commands compose without intermediate files. The analysis
//! subcommands parse through the server's request types
//! (`scap_serve::handlers`), so `--k 2` here and `k=2` on the wire are
//! named, defaulted and validated by the same function. Every flag is
//! checked before anything is built: an unknown flag or a bad value
//! returns `ExitCode::from(2)` with the server's message (destructors
//! run; nothing calls `process::exit`). A reader that closes stdout
//! early (`scap sta --paths 50 | head -2`) ends the command quietly with
//! exit 0.

use scap::{ablation, compact_patterns, experiments, flows, CaseStudy};
use scap_serve::handlers::{
    reject_unknown, CommonParams, DesignParams, FlowParams, LintParams, ScheduleParams, StaParams,
};
use scap_serve::params::Args;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::time::Duration;

/// `println!` that hands a failed write back to the enclosing command
/// (which returns `io::Result<ExitCode>`) instead of panicking: a closed
/// pipe (`scap … | head`) then ends the command early and quietly.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)?
    };
}

/// `print!` counterpart of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {
        write!(io::stdout(), $($arg)*)?
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scap <generate|atpg|profile|schedule|sta|lint|serve|cluster|evaluate> [--scale S] [--seed N] [--threads N] [options]\n\
         \n  generate   build the case-study SOC; Tables 1-2; --verilog FILE to dump netlist\
         \n  atpg       run a flow: --flow conventional|noise-aware (default noise-aware),\
         \n             --fill random-fill|fill-0|fill-1|fill-adjacent, --stil FILE, --compact,\
         \n             --engine podem|sat|hybrid (default podem; hybrid gives PODEM\
         \n             aborts a SAT verdict: a test or an untestability proof)\
         \n  profile    per-pattern B5 SCAP of a flow vs the screening threshold;\
         \n             --flow, --fill, --engine as for atpg;\
         \n             --metrics prints the pipeline counter breakdown\
         \n  schedule   power-constrained session scheduling of a flow's tests:\
         \n             --budget MILLIWATTS (default 2x the hottest block),\
         \n             --flow, --fill, --engine as for atpg\
         \n  sta        per-endpoint slack analysis and the N worst paths (--paths N,\
         \n             default 3); --derate adds the IR-drop-derated pass (worst-case\
         \n             regional droop through the delay model), --k F scales the\
         \n             droop sensitivity, --metrics prints the sta.* counter breakdown\
         \n  lint       cross-layer design-rule check of the generated design, the\
         \n             noise-aware flow's patterns, the supply meshes and the\
         \n             nominal/derated timing; --format text|json, --deny warn to\
         \n             fail on warnings, --only RULEPREFIX (e.g. TIM, NET002)\
         \n             exit 0 clean, 1 findings at or above the deny level, 2 usage\
         \n  serve      resident HTTP JSON API (see docs/SERVER.md):\
         \n             --addr HOST:PORT (default 127.0.0.1:7878; port 0 = ephemeral),\
         \n             --workers N, --queue-depth N, --cache-capacity N (design LRU),\
         \n             --cache-cap N (response LRU), --deadline-ms MS\
         \n  cluster    sharded serving tier: a coordinator proxy over N scap-serve\
         \n             worker processes, consistent-hash routed on (scale, seed)\
         \n             (see docs/SERVER.md): --workers N (default 2),\
         \n             --addr HOST:PORT / --port P (default 127.0.0.1:7900),\
         \n             --hedge-ms MS (default 1000), --probe-ms MS (default 500),\
         \n             plus per-worker --worker-threads, --queue-depth,\
         \n             --cache-capacity, --cache-cap\
         \n  evaluate   every table and figure of the paper (long)\
         \n\
         \n  An unknown flag or a bad value is an error (exit 2), as on the wire.\
         \n  --threads N  worker threads for the parallel hot loops; always wins\
         \n               (precedence: --threads, then SCAP_THREADS env, then cores)"
    );
    ExitCode::from(2)
}

/// A subcommand with every flag parsed and validated; nothing is built
/// yet. Alongside the request types ride the presentation flags: output
/// paths (`--verilog`, `--stil`), `--compact`, `--metrics` and lint's
/// `--format json` / `--deny warn` / `--only`.
#[derive(Debug)]
enum Command {
    Generate(DesignParams, Option<String>),
    Atpg(CommonParams, FlowParams, Option<String>, bool),
    Profile(CommonParams, FlowParams, bool),
    Schedule(ScheduleParams),
    Sta(StaParams, bool),
    Lint(LintParams, bool, bool, Option<String>),
    Serve(scap_serve::ServeConfig),
    /// `worker_command` holds the worker's arguments; the own executable
    /// is put in front at launch.
    Cluster(scap_cluster::ClusterConfig),
    Evaluate(CommonParams),
    /// No subcommand, or an unknown one.
    Usage,
}

/// Parses the command line. A flag that neither the subcommand's request
/// type nor the subcommand itself reads is an error, with the message
/// the server answers a stray parameter with.
fn parse(args: &Args) -> Result<Command, String> {
    let check = |names: &[&str], own: &[&str]| reject_unknown(args, &[names, own, &["threads"]]);
    let flow_names = [CommonParams::NAMES, FlowParams::NAMES].concat();
    let owned = |name: &str| args.get(name).map(str::to_owned);
    Ok(match args.positional.first().map(String::as_str) {
        Some("generate") => {
            check(DesignParams::NAMES, &["verilog"])?;
            Command::Generate(DesignParams::parse(args)?, owned("verilog"))
        }
        Some("atpg") => {
            check(&flow_names, &["stil", "compact"])?;
            Command::Atpg(
                CommonParams::parse(args)?,
                FlowParams::parse(args)?,
                owned("stil"),
                args.has("compact"),
            )
        }
        Some("profile") => {
            check(&flow_names, &["metrics"])?;
            Command::Profile(
                CommonParams::parse(args)?,
                FlowParams::parse(args)?,
                args.has("metrics"),
            )
        }
        Some("schedule") => {
            check(ScheduleParams::NAMES, &[])?;
            Command::Schedule(ScheduleParams::parse(args)?)
        }
        Some("sta") => {
            check(StaParams::NAMES, &["metrics"])?;
            Command::Sta(StaParams::parse(args)?, args.has("metrics"))
        }
        Some("lint") => {
            check(LintParams::NAMES, &["format", "deny", "only"])?;
            let json = match args.get("format") {
                None | Some("text") => false,
                Some("json") => true,
                Some(other) => {
                    return Err(format!("--format expects 'text' or 'json', got '{other}'"))
                }
            };
            let deny_warn = match (args.has("deny"), args.get("deny")) {
                (false, _) => false,
                (true, Some("warn")) => true,
                (true, other) => {
                    let got = other.unwrap_or("nothing");
                    return Err(format!("--deny expects 'warn', got '{got}'"));
                }
            };
            let only = owned("only");
            if let Some(prefix) = &only {
                if scap_lint::rules_matching(prefix).is_empty() {
                    return Err(format!("--only '{prefix}' matches no registered rule"));
                }
            }
            Command::Lint(LintParams::parse(args)?, json, deny_warn, only)
        }
        Some("serve") => {
            let names = [
                "addr",
                "workers",
                "queue-depth",
                "cache-capacity",
                "cache-cap",
            ];
            check(&names, &["deadline-ms", "debug-endpoints"])?;
            Command::Serve(scap_serve::ServeConfig {
                addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
                workers: args.usize_flag("workers", 2)?,
                queue_depth: args.usize_flag("queue-depth", 16)?,
                cache_capacity: args.usize_flag("cache-capacity", 4)?,
                response_cache_capacity: args.usize_flag("cache-cap", 32)?,
                default_deadline: Duration::from_millis(
                    args.usize_flag("deadline-ms", 60_000)? as u64
                ),
                debug_endpoints: args.has("debug-endpoints"),
            })
        }
        Some("cluster") => {
            // Workers re-run this binary's `serve` subcommand; pass the
            // per-worker knobs through verbatim.
            let worker_knobs = [
                ("--workers", "worker-threads", 2),
                ("--queue-depth", "queue-depth", 16),
                ("--cache-capacity", "cache-capacity", 4),
                ("--cache-cap", "cache-cap", 32),
            ];
            let worker_names: Vec<&str> = worker_knobs.iter().map(|k| k.1).collect();
            let names = [
                "addr",
                "port",
                "workers",
                "hedge-ms",
                "probe-ms",
                "debug-endpoints",
            ];
            check(&names, &worker_names)?;
            let addr = match (args.get("addr"), args.get("port")) {
                (Some(a), _) => a.to_owned(),
                (None, Some(p)) => format!("127.0.0.1:{p}"),
                (None, None) => "127.0.0.1:7900".to_owned(),
            };
            let mut worker_command = vec!["serve".to_owned()];
            for (flag, name, default) in worker_knobs {
                worker_command.push(flag.to_owned());
                worker_command.push(args.usize_flag(name, default)?.to_string());
            }
            if args.has("debug-endpoints") {
                worker_command.push("--debug-endpoints".to_owned());
            }
            Command::Cluster(scap_cluster::ClusterConfig {
                addr,
                workers: args.usize_flag("workers", 2)?,
                worker_command,
                hedge: Duration::from_millis(args.usize_flag("hedge-ms", 1000)? as u64),
                probe_interval: Duration::from_millis(args.usize_flag("probe-ms", 500)? as u64),
                ..scap_cluster::ClusterConfig::default()
            })
        }
        Some("evaluate") => {
            check(CommonParams::NAMES, &[])?;
            Command::Evaluate(CommonParams::parse(args)?)
        }
        _ => Command::Usage,
    })
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let command = match args.threads().and_then(|t| Ok((t, parse(&args)?))) {
        Ok((threads, command)) => {
            if let Some(n) = threads {
                scap_exec::set_default_threads(n);
            }
            command
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Generate(p, verilog) => generate(&p.common, verilog.as_deref()),
        Command::Atpg(common, flow, stil, compact) => {
            atpg(&common, &flow, stil.as_deref(), compact)
        }
        Command::Profile(common, flow, metrics) => profile(&common, &flow, metrics),
        Command::Schedule(p) => schedule_cmd(&p),
        Command::Sta(params, metrics) => sta(&params, metrics),
        Command::Lint(p, json, deny_warn, only) => {
            lint(&p.common, json, deny_warn, only.as_deref())
        }
        Command::Serve(cfg) => serve(cfg),
        Command::Cluster(cfg) => cluster(cfg),
        Command::Evaluate(common) => evaluate(&common),
        Command::Usage => Ok(usage()),
    };
    match result {
        Ok(code) => code,
        // The reader went away (`scap … | head`): nobody wants the rest.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_study(common: &CommonParams) -> CaseStudy {
    CaseStudy::with_seed(common.scale, common.seed)
}

fn generate(common: &CommonParams, verilog: Option<&str>) -> io::Result<ExitCode> {
    let study = build_study(common);
    let report = experiments::table1(&study);
    outln!("{}", experiments::render_table1(&report));
    outln!("{}", experiments::render_table2(&report));
    if let Some(path) = verilog {
        let text = scap::netlist::verilog::to_verilog(&study.design.netlist);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        outln!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn atpg(
    common: &CommonParams,
    p: &FlowParams,
    stil: Option<&str>,
    compact: bool,
) -> io::Result<ExitCode> {
    let study = build_study(common);
    let mut flow = p.run(&study);
    outln!(
        "{} patterns, {:.2} % fault coverage",
        flow.patterns.len(),
        100.0 * flow.fault_coverage()
    );
    if compact {
        let (kept, compacted) = compact_patterns(
            &study.design.netlist,
            study.clka(),
            &flow.faults,
            &flow.patterns,
        );
        outln!(
            "static compaction: {} -> {} patterns",
            flow.patterns.len(),
            kept.len()
        );
        flow.replace_patterns(compacted);
    }
    if let Some(path) = stil {
        let text = scap::dft::export::to_stil(&study.design.netlist, &flow.patterns);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        outln!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn profile(common: &CommonParams, p: &FlowParams, metrics: bool) -> io::Result<ExitCode> {
    // Collection is enabled *before* the run so the breakdown covers
    // design build, ATPG, grading and SCAP measurement alike.
    if metrics {
        scap_obs::set_enabled(true);
    }
    let study = build_study(common);
    let flow = p.run(&study);
    let Some(b5) = study.design.block_named("B5") else {
        eprintln!("error: the generated design has no block named 'B5' to profile");
        return Ok(ExitCode::FAILURE);
    };
    let Some(&threshold) = experiments::scap_thresholds(&study).get(b5.index()) else {
        eprintln!("error: no screening threshold for block 'B5'");
        return Ok(ExitCode::FAILURE);
    };
    let series = experiments::scap_series(&study, &flow, b5, threshold);
    outln!(
        "{}",
        experiments::render_scap_series("B5 SCAP profile", &series)
    );
    let sweep = ablation::threshold_sensitivity(&study, &flow, &[0.5, 1.0, 2.0]);
    for (f, above) in sweep {
        outln!("threshold x{f}: {above} patterns above");
    }
    if metrics {
        let snap = scap_obs::snapshot();
        outln!("\n{}", scap_obs::render(&snap));
        // Lane utilization of the word-packed fault-sim kernel: how full
        // the 64-pattern blocks actually were (ATPG drop-simulation runs
        // one-lane blocks; grading runs full ones).
        if let (Some(blocks), Some(patterns)) = (
            snap.counter("sim.block_evals").filter(|&b| b > 0),
            snap.counter("sim.patterns_per_block"),
        ) {
            outln!(
                "block kernel utilization: {:.1}% ({patterns} patterns over {blocks} blocks of 64 lanes)",
                patterns as f64 / (64 * blocks) as f64 * 100.0
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn schedule_cmd(p: &ScheduleParams) -> io::Result<ExitCode> {
    let study = build_study(&p.common);
    let (budget, serial, plan) = p.plan(&study);
    outln!("budget {budget:.2} mW | serial length {serial} patterns");
    for (i, s) in plan.sessions.iter().enumerate() {
        let names: Vec<String> = s
            .members
            .iter()
            .map(|m| study.design.netlist.block(m.block).name.clone())
            .collect();
        outln!(
            "session {i}: {:<18} {:>7.2} mW  {:>6} patterns",
            names.join("+"),
            s.power_mw(),
            s.length()
        );
    }
    outln!(
        "scheduled length {} patterns ({:.0} % of serial)",
        plan.total_length(),
        100.0 * plan.total_length() as f64 / serial.max(1) as f64
    );
    Ok(ExitCode::SUCCESS)
}

/// `scap lint` — runs the full design-rule registry against the generated
/// design, the noise-aware flow's patterns and both supply meshes. The
/// registry assembly itself lives in `scap_serve::lint_report`, shared
/// with `POST /v1/lint`.
///
/// Exit codes: 0 clean, 1 findings at or above the deny level (errors, or
/// warnings too under `--deny warn`), 2 usage error (an `--only` prefix
/// matching no rule is one, caught in [`parse`]).
fn lint(
    common: &CommonParams,
    json: bool,
    deny_warn: bool,
    only: Option<&str>,
) -> io::Result<ExitCode> {
    let study = build_study(common);
    let report = match only {
        Some(prefix) => scap_serve::lint_report_with(&study, scap_lint::rules_matching(prefix)),
        None => scap_serve::lint_report(&study),
    };
    if json {
        outln!("{}", report.render_json_pretty());
    } else {
        out!("{}", report.render_text());
    }
    Ok(
        if report.errors() > 0 || (deny_warn && report.warnings() > 0) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        },
    )
}

/// `scap serve` — boots the resident HTTP JSON API and blocks until a
/// `POST /v1/shutdown` drains it; the final metrics snapshot is printed
/// on the way out. See `docs/SERVER.md` for the endpoint reference.
fn serve(cfg: scap_serve::ServeConfig) -> io::Result<ExitCode> {
    let server = match scap_serve::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // The exact line check.sh and tooling parse for the (possibly
    // ephemeral) port — keep the format stable.
    outln!("scap serve listening on http://{}", server.local_addr());
    match server.run() {
        Ok(snapshot) => {
            outln!("scap serve drained; final metrics:");
            out!("{}", scap_obs::render(&snapshot));
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `scap cluster` — boots the sharded serving tier: this process
/// becomes the coordinator, spawning `--workers` copies of itself
/// running `scap serve` on ephemeral ports and routing requests by
/// consistent hashing on `(scale, seed)`. Blocks until
/// `POST /v1/shutdown` drains coordinator and fleet alike.
fn cluster(mut cfg: scap_cluster::ClusterConfig) -> io::Result<ExitCode> {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot resolve own executable for worker spawning: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    cfg.worker_command
        .insert(0, exe.to_string_lossy().into_owned());
    let coordinator = match scap_cluster::Coordinator::launch(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot launch cluster: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Stable lines check.sh and tooling parse: the coordinator address
    // first, then one line per worker with pid and address.
    outln!(
        "scap cluster listening on http://{} ({} workers)",
        coordinator.local_addr(),
        coordinator.worker_infos().len()
    );
    for w in coordinator.worker_infos() {
        outln!(
            "scap cluster worker {} pid {} http://{}",
            w.index,
            w.pid,
            w.addr
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".to_owned())
        );
    }
    match coordinator.run() {
        Ok(snapshot) => {
            outln!("scap cluster drained; final metrics:");
            out!("{}", scap_obs::render(&snapshot));
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: cluster failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn evaluate(common: &CommonParams) -> io::Result<ExitCode> {
    let study = build_study(common);
    let report = experiments::table1(&study);
    outln!("{}", experiments::render_table1(&report));
    let t3 = experiments::table3(&study);
    outln!("{}", experiments::render_table3(&study, &t3));
    let conv = flows::conventional(&study);
    let na = flows::noise_aware(&study);
    outln!(
        "{}",
        experiments::render_table4(&experiments::table4(&study, &conv))
    );
    outln!(
        "{}",
        experiments::render_scap_series("Figure 2", &experiments::fig2(&study, &conv))
    );
    outln!(
        "{}",
        experiments::render_scap_series("Figure 6", &experiments::fig6(&study, &na))
    );
    outln!(
        "{}",
        experiments::render_fig3(&study, &experiments::fig3(&study, &conv))
    );
    outln!("{}", experiments::render_fig4(&conv, &na));
    outln!(
        "{}",
        experiments::render_fig7(&experiments::fig7(&study, &na))
    );
    Ok(ExitCode::SUCCESS)
}

/// `scap sta` — per-endpoint slack analysis of the generated design:
/// nominal by default, with `--derate` adding the IR-drop-derated pass
/// (worst-case regional droop mapped through the delay model) plus the
/// fault risk-tier histogram ATPG prioritization consumes.
fn sta(params: &StaParams, metrics: bool) -> io::Result<ExitCode> {
    use scap::sta::NoiseAwareSta;
    use scap::timing::{RiskTier, SlackSta};

    if metrics {
        scap_obs::set_enabled(true);
    }
    let study = build_study(&params.common);
    let n = &study.design.netlist;
    let k = params.k;
    if params.derate {
        let sta = NoiseAwareSta::with_derate(&study, k);
        outln!(
            "cycle {:.0} ps | nominal: critical path {:.0} ps, worst slack {:.0} ps",
            study.period_ps(),
            sta.nominal.critical_path_ps(),
            sta.nominal.worst_slack_ps().unwrap_or(0.0),
        );
        outln!(
            "derated (k x{k}): critical path {:.0} ps, worst slack {:.0} ps",
            sta.derated.critical_path_ps(),
            sta.derated.worst_slack_ps().unwrap_or(0.0),
        );
        for (flop, nom, der) in sta.endpoint_slacks() {
            outln!(
                "endpoint {:<12} nominal {:>8.0} ps  derated {:>8.0} ps  {}",
                n.flop(flop).name,
                nom,
                der,
                RiskTier::classify(der, study.period_ps()).label()
            );
        }
        let faults = scap::sim::FaultList::full(n);
        let hist = sta.tier_histogram(n, &faults);
        let parts: Vec<String> = hist
            .iter()
            .map(|(t, c)| format!("{} {}", t.label(), c))
            .collect();
        outln!("fault risk tiers: {}", parts.join(" | "));
        for (i, p) in sta.derated.worst_paths(n, params.paths).iter().enumerate() {
            outln!(
                "derated path {i}: endpoint {} arrival {:.0} ps slack {:.0} ps depth {}",
                n.flop(p.endpoint).name,
                p.data_arrival_ps,
                p.slack_ps,
                p.depth()
            );
        }
    } else {
        let sta = SlackSta::run(n, &study.annotation, &study.arrivals);
        outln!(
            "cycle {:.0} ps | critical path {:.0} ps, worst slack {:.0} ps",
            study.period_ps(),
            sta.critical_path_ps(),
            sta.worst_slack_ps().unwrap_or(0.0),
        );
        for e in sta.endpoints() {
            outln!(
                "endpoint {:<12} slack {:>8.0} ps",
                n.flop(e.flop).name,
                e.slack_ps()
            );
        }
        let unreachable = sta.unreachable_endpoints(n);
        if !unreachable.is_empty() {
            outln!(
                "{} endpoint(s) unreachable from any launch",
                unreachable.len()
            );
        }
        for (i, p) in sta.worst_paths(n, params.paths).iter().enumerate() {
            outln!(
                "path {i}: endpoint {} arrival {:.0} ps slack {:.0} ps depth {}",
                n.flop(p.endpoint).name,
                p.data_arrival_ps,
                p.slack_ps,
                p.depth()
            );
        }
    }
    if metrics {
        outln!("\n{}", scap_obs::render(&scap_obs::snapshot()));
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap::dft::FillPolicy;
    use scap::tgen::EngineKind;
    use scap_serve::handlers::FlowKind;

    // Full parser coverage (flag-before-flag, negative values, repeated
    // flags, trailing positionals, query strings) lives with the parser
    // in `scap_serve::params`; these check the CLI wiring. Nothing here
    // builds a design.

    fn cli(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    fn parse_line(line: &str) -> Result<Command, String> {
        parse(&cli(&line.split_whitespace().collect::<Vec<_>>()))
    }

    fn common(scale: f64) -> CommonParams {
        CommonParams {
            scale,
            seed: CaseStudy::default_seed(),
        }
    }

    fn flow(flow: FlowKind, fill: FillPolicy) -> FlowParams {
        FlowParams {
            flow,
            fill,
            engine: EngineKind::Podem,
        }
    }

    #[test]
    fn cli_tokens_parse_through_the_shared_parser() {
        let args = cli(&["atpg", "--scale", "0.02", "--compact", "--stil", "out.stil"]);
        assert_eq!(args.positional, vec!["atpg"]);
        assert_eq!(args.scale().unwrap(), 0.02);
        assert!(args.has("compact"));
        assert_eq!(args.get("stil"), Some("out.stil"));
    }

    #[test]
    fn malformed_scale_is_a_recoverable_error() {
        // The old parser exited the process here; now it surfaces a
        // Result the subcommands turn into ExitCode::from(2).
        assert!(parse_line("generate --scale 2.0").is_err());
        assert!(parse_line("generate --scale x").is_err());
        assert!(cli(&["generate", "--threads", "0"]).threads().is_err());
    }

    /// Each of these once ran with a silently substituted value; each is
    /// now the server's `400` message and exit code 2.
    #[test]
    fn invalid_invocations_are_errors() {
        for (line, message) in [
            ("generate --sacle 0.004", "unknown parameter(s): sacle"),
            (
                "atpg --flow conventional --fill ones",
                "fill expects random-fill|fill-0|fill-1|fill-adjacent, got 'ones'",
            ),
            (
                "atpg --flow conventinal",
                "flow expects 'conventional' or 'noise-aware', got 'conventinal'",
            ),
            (
                "atpg --engine cnf",
                "engine expects podem|sat|hybrid, got 'cnf'",
            ),
            (
                "schedule --budget x",
                "budget expects a finite number, got 'x'",
            ),
            (
                "schedule --budget -5",
                "budget expects a positive power in mW, got -5",
            ),
            ("sta --paths x", "paths expects a positive integer, got 'x'"),
            ("sta --derate-k 2", "unknown parameter(s): derate-k"),
            ("sta --k -1", "k expects a positive factor, got -1"),
            (
                "sta --derate maybe",
                "derate expects true or false, got 'maybe'",
            ),
            ("profile --block B3", "unknown parameter(s): block"),
            ("lint --only ZZZ", "--only 'ZZZ' matches no registered rule"),
            (
                "lint --format yaml",
                "--format expects 'text' or 'json', got 'yaml'",
            ),
            ("lint --deny", "--deny expects 'warn', got 'nothing'"),
            ("evaluate --metrics", "unknown parameter(s): metrics"),
            ("serve --port 1", "unknown parameter(s): port"),
            (
                "cluster --worker-threads 0",
                "worker-threads expects a positive integer, got '0'",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), message, "{line}");
        }
        // `scap paths` is gone (`scap sta --paths N` replaces it): it
        // prints the usage and exits 2.
        assert!(matches!(parse_line("paths --count x"), Ok(Command::Usage)));
    }

    /// The invocations the README, the check script and the verification
    /// notes use parse to the expected typed parameters.
    #[test]
    fn documented_invocations_parse_to_typed_params() {
        use FillPolicy::{Random, Zero};
        use FlowKind::{Conventional, NoiseAware};
        let sta = |scale, derate, k, paths, metrics| {
            let common = common(scale);
            let p = StaParams {
                common,
                derate,
                k,
                paths,
            };
            Command::Sta(p, metrics)
        };
        let lint = |scale, json, deny_warn, only: Option<&str>| {
            let p = LintParams {
                common: common(scale),
            };
            Command::Lint(p, json, deny_warn, only.map(str::to_owned))
        };
        let hybrid = |f: FlowParams| FlowParams {
            engine: EngineKind::Hybrid,
            ..f
        };
        let cases = [
            (
                "generate --scale 0.01 --verilog soc.v",
                Command::Generate(
                    DesignParams {
                        common: common(0.01),
                    },
                    Some("soc.v".to_owned()),
                ),
            ),
            (
                "atpg --flow noise-aware --compact --stil out.stil",
                Command::Atpg(
                    common(0.01),
                    flow(NoiseAware, Zero),
                    Some("out.stil".to_owned()),
                    true,
                ),
            ),
            (
                "atpg --scale 0.004 --flow conventional --compact --stil /tmp/out.stil",
                Command::Atpg(
                    common(0.004),
                    flow(Conventional, Random),
                    Some("/tmp/out.stil".to_owned()),
                    true,
                ),
            ),
            (
                "atpg --scale 0.01 --engine hybrid --threads 2",
                Command::Atpg(common(0.01), hybrid(flow(NoiseAware, Zero)), None, false),
            ),
            (
                "schedule --scale 0.004 --budget 0.8",
                Command::Schedule(ScheduleParams {
                    common: common(0.004),
                    flow: flow(NoiseAware, Zero),
                    budget_mw: Some(0.8),
                }),
            ),
            (
                "profile --scale 0.008 --flow conventional --engine hybrid --metrics",
                Command::Profile(common(0.008), hybrid(flow(Conventional, Random)), true),
            ),
            ("sta --paths 10", sta(0.01, false, 1.0, 10, false)),
            ("sta --scale 0.01 --derate", sta(0.01, true, 1.0, 3, false)),
            (
                "sta --scale 0.01 --derate --k 2 --paths 5",
                sta(0.01, true, 2.0, 5, false),
            ),
            (
                "sta --scale 0.004 --derate --metrics",
                sta(0.004, true, 1.0, 3, true),
            ),
            (
                "lint --scale 0.005 --deny warn",
                lint(0.005, false, true, None),
            ),
            (
                "lint --scale 0.01 --format json --deny warn",
                lint(0.01, true, true, None),
            ),
            (
                "lint --scale 0.01 --only TIM",
                lint(0.01, false, false, Some("TIM")),
            ),
            ("evaluate --scale 0.004", Command::Evaluate(common(0.004))),
        ];
        for (line, expected) in cases {
            let got = parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{line}");
        }
        for line in [
            "serve --addr 127.0.0.1:0 --workers 2 --queue-depth 8",
            "cluster --port 0 --workers 2 --probe-ms 600000",
        ] {
            assert!(parse_line(line).is_ok(), "{line}");
        }
        let Ok(Command::Cluster(cfg)) = parse_line("cluster --port 0 --worker-threads 3") else {
            panic!("cluster parses");
        };
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(
            cfg.worker_command,
            [
                "serve",
                "--workers",
                "3",
                "--queue-depth",
                "16",
                "--cache-capacity",
                "4",
                "--cache-cap",
                "32"
            ]
        );
    }
}
