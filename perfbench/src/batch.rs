//! The batch workloads: `paper_flow` (the paper's pipeline) and
//! `sat_hybrid` (the hybrid PODEM + SAT engine on the conventional flow).
//!
//! Both make a fixed number of measured passes (see [`crate::passes`])
//! over the reference design (the Turbo-Eagle preset the committed results
//! in `docs/` were produced with), which they build a fixed number of
//! times as set-up. A pass runs from the built design to the last checked
//! artefact; its checks are part of it.
//!
//! The benchmark seed drives the random-fill streams of the random-fill
//! ATPG (`AtpgConfig::seed`): pass `p` of seed `s` uses stream
//! [`fill_stream`]`(s, p)`. Stream 0 is the flows' default, where the
//! committed reference numbers are checked. The design itself stays the
//! reference one: run time swings from design to design (paper_flow
//! 12–15 s, sat_hybrid 20–40 s over the first design seeds), far more than
//! a regression bound, while a new fill stream moves it by little.

use crate::check::{Checks, Fingerprint};
use crate::trace::{self, SpanRecord, Tracer};
use crate::{write_span_file, Options, Outcome};
use scap::dft::{FillPolicy, PatternSet, TestPattern};
use scap::sim::FaultList;
use scap::sta::NoiseAwareSta;
use scap::tgen::{AtpgConfig, EngineKind, FaultStatus, Generator, SatAtpg};
use scap::{experiments, flows, grade_patterns, CaseStudy, PatternAnalyzer};
use std::hint::black_box;
use std::time::Instant;

/// Conflict budget per solve: the evaluation's engine comparison, deep
/// enough that every PODEM abort gets a definite verdict.
const SAT_CONFLICT_LIMIT: u64 = 2_000_000;

/// What sets a batch workload apart.
struct Batch {
    /// Design scale, that of the committed reference results.
    scale: f64,
    /// Design builds of a run, about a second of them; `setup_s` is the
    /// fastest. A build takes a few milliseconds, and builds that share
    /// the CPU's caches with other work run up to 1.5× slower for seconds
    /// at a time; the fastest of many is the build's own cost.
    builds: usize,
    /// Nominal length of one pass on a 2-vCPU VM, seconds: a run makes
    /// as many passes as fit in `--seconds`.
    pass_s: f64,
    pass: Pass,
    /// PODEM aborts replayed through `SatAtpg` in the traced run.
    replay_cap: usize,
}

/// The paper's pipeline on the committed `docs/eval_scale_0.05.txt` design.
const PAPER_FLOW: Batch = Batch {
    scale: 0.05,
    builds: 200,
    pass_s: 13.0,
    pass: paper_pass,
    replay_cap: 32,
};

/// The hybrid engine on the committed `docs/eval_scale_0.02.txt` design.
const SAT_HYBRID: Batch = Batch {
    scale: 0.02,
    builds: 400,
    pass_s: 20.0,
    pass: sat_pass,
    replay_cap: 2000,
};

/// The random-fill stream of pass `pass` of a run with benchmark seed
/// `seed`; the first pass of seed 0 gets stream 0.
fn fill_stream(seed: u64, pass: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(pass)
}

/// The random-fill ATPG configuration of a fill stream: stream 0 is the
/// flows' default configuration.
fn random_fill_config(stream: u64) -> AtpgConfig {
    let config = flows::flow_atpg_config(FillPolicy::Random);
    AtpgConfig {
        seed: config.seed.wrapping_add(stream),
        ..config
    }
}

/// What a pass leaves for the traced run's probes and ratios.
struct PassOutput {
    /// The pattern set the event-simulation and SCAP probes replay.
    probe_set: PatternSet,
    /// Patterns the pass's ATPG emitted.
    patterns_emitted: usize,
}

/// A workload's measured pass over one fill stream: from the built design
/// to its last check.
type Pass = fn(&CaseStudy, &Tracer, &mut Checks, &mut Fingerprint, u64) -> PassOutput;

pub fn paper_flow(opts: &Options) -> Result<Outcome, String> {
    run(opts, &PAPER_FLOW)
}

pub fn sat_hybrid(opts: &Options) -> Result<Outcome, String> {
    run(opts, &SAT_HYBRID)
}

fn run(opts: &Options, w: &Batch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new(opts.trace);
    scap_obs::set_enabled(false);

    // The traced run makes one untraced pass, the reference for the
    // tracing overhead, before its traced one.
    let passes = if opts.trace {
        1
    } else {
        crate::passes(opts.seconds, w.pass_s)
    };
    // The design builds are spread over the run, a share before each pass
    // and one after the last, so that no single stretch of contention
    // slows them all.
    let chunk = w.builds.div_ceil(passes + 1);
    let mut build_s = Vec::with_capacity(chunk * (passes + 1));
    let mut build = || {
        let mut study = None;
        for _ in 0..chunk {
            drop(study.take());
            let t = Instant::now();
            study = Some(tracer.span("soc.build", "soc", || CaseStudy::new(w.scale)));
            build_s.push(t.elapsed().as_secs_f64());
        }
        study.expect("at least one design build")
    };
    let untraced = Tracer::new(false);
    let mut walls = Vec::with_capacity(passes);
    for p in 0..passes {
        let study = build();
        let stream = fill_stream(opts.seed, p as u64);
        let mut fp = Fingerprint::default();
        let t = Instant::now();
        black_box((w.pass)(
            &study,
            &untraced,
            &mut out.checks,
            &mut fp,
            stream,
        ));
        walls.push(t.elapsed().as_secs_f64());
        println!(
            "pass {} of {passes} (fill stream {stream}): {:.3} s, output fingerprint {}",
            p + 1,
            walls[p],
            fp.hex()
        );
        if p == 0 {
            out.fingerprint = fp.hex();
        }
        out.checks.quiet = true;
    }
    let study = build();
    let setup_s = build_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("setup_s", setup_s, build_s.len() as u64);
    out.set("soc.build_ms", setup_s * 1e3, build_s.len() as u64);
    out.set("wall_s", trace::median(&walls), walls.len() as u64);
    if opts.trace {
        traced(opts, &study, w, &tracer, walls[0], &mut out)?;
    }
    Ok(out)
}

/// The traced pass and the layer probes behind the per-layer metrics.
fn traced(
    opts: &Options,
    study: &CaseStudy,
    w: &Batch,
    tracer: &Tracer,
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    scap_obs::set_enabled(true);
    tracer.next_run();
    let pass_run = 1;
    let before = scap_obs::snapshot();
    // The traced pass repeats the first pass: same fill stream, same work.
    let stream = fill_stream(opts.seed, 0);
    let mut fp = Fingerprint::default();
    let output = tracer.span(&opts.workload, "unattributed", || {
        (w.pass)(study, tracer, &mut out.checks, &mut fp, stream)
    });
    let after = scap_obs::snapshot();
    out.checks.equal(
        "traced pass output fingerprint",
        fp.hex(),
        out.fingerprint.clone(),
    );
    let counter = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    if opts.workload == "sat_hybrid" && stream == 0 {
        out.checks
            .equal("reference SAT solves", counter("sat.solves"), 624);
    }

    tracer.next_run();
    let probe = tracer.span("probe", "probe", || {
        probes(study, stream, &output, w.replay_cap, tracer)
    });

    let records = tracer.records();
    let in_pass: Vec<SpanRecord> = records
        .iter()
        .filter(|r| r.run == pass_run)
        .cloned()
        .collect();
    let total = |name: &str| trace::total_ms(&in_pass, name);
    let wall_ms = total(&opts.workload).0;
    out.set("core.wall_ms", wall_ms, 1);
    out.set(
        "obs.trace_overhead_pct",
        (wall_ms / (untraced_wall_s * 1e3) - 1.0) * 100.0,
        1,
    );
    let layers = trace::layer_self_ms(&records, pass_run, &opts.workload);
    out.set_layer_self_times(&layers);
    let accounted: f64 = layers.iter().map(|(_, ms)| ms).sum();
    println!(
        "layer self times: {} = {accounted:.1} ms of {wall_ms:.1} ms traced wall",
        layers
            .iter()
            .map(|(l, ms)| format!("{l} {ms:.1}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );

    let (primary_ms, primary_n) = total("atpg.podem_primary");
    let (secondary_ms, secondary_n) = total("atpg.podem_secondary");
    let calls = primary_n + secondary_n;
    out.set("atpg.podem.calls", calls as f64, 1);
    out.set("atpg.podem.ms", primary_ms + secondary_ms, calls);
    out.set("atpg.podem.aborted", probe.podem_aborted as f64, 1);
    if calls > 0 {
        out.set(
            "atpg.podem.tests_per_call",
            output.patterns_emitted as f64 / calls as f64,
            calls,
        );
    }

    let (search_ms, solves) = total("atpg.sat_solve");
    out.set("sat.search_ms", search_ms, solves);
    out.set("sat.solves", counter("sat.solves") as f64, 1);
    out.set("sat.conflicts", counter("sat.conflicts") as f64, 1);
    let (unsat, sat) = (counter("sat.untestable_proofs"), counter("sat.tests_found"));
    out.set("sat.unsat", unsat as f64, 1);
    out.set("sat.sat", sat as f64, 1);
    out.set(
        "sat.unknown",
        counter("sat.solves").saturating_sub(unsat + sat) as f64,
        1,
    );
    let n = probe.solve_ms.len() as u64;
    if let Some(p50) = trace::percentile(&probe.solve_ms, 50.0) {
        out.set("sat.solve_p50_ms", p50, n);
        out.set(
            "sat.solve_max_ms",
            trace::percentile(&probe.solve_ms, 100.0).unwrap_or(p50),
            n,
        );
    }
    if let Some((p, v)) = trace::tail(&probe.solve_ms) {
        out.set("sat.solve_tail_ms", v, n);
        println!("sat.solve_tail_ms is p{p} of {n} replayed solves");
    }

    let (drop_ms, drop_n) = total("atpg.drop_sim");
    out.set("sim.drop_ms", drop_ms, drop_n);
    let grades: Vec<&SpanRecord> = in_pass
        .iter()
        .filter(|r| r.name.starts_with("sim.grade"))
        .collect();
    let grade_ms: f64 = grades.iter().map(|r| r.total_ns as f64 / 1e6).sum();
    let grade_checks: u64 = grades
        .iter()
        .flat_map(|r| &r.counters)
        .filter(|(n, _)| *n == "sim.fault_sim_checks")
        .map(|&(_, d)| d)
        .sum();
    out.set("sim.grade_ms", grade_ms, grades.len() as u64);
    if grade_ms > 0.0 {
        out.set(
            "sim.checks_per_s",
            grade_checks as f64 / (grade_ms / 1e3),
            grades.len() as u64,
        );
    }
    out.set(
        "sim.fault_sim_checks",
        counter("sim.fault_sim_checks") as f64,
        1,
    );
    let blocks = counter("sim.block_evals");
    if blocks > 0 {
        out.set(
            "sim.block_fill",
            counter("sim.patterns_per_block") as f64 / blocks as f64,
            blocks,
        );
    }
    out.set("sim.event_runs", counter("sim.event_runs") as f64, 1);
    let toggles = counter("sim.toggle_events");
    out.set("sim.toggle_events", toggles as f64, 1);
    out.set("sim.event_ms", probe.event_ms, probe.patterns);
    if probe.toggles > 0 {
        out.set(
            "sim.ns_per_toggle",
            probe.event_ms * 1e6 / probe.toggles as f64,
            probe.toggles,
        );
    }
    out.set("power.scap_ms", probe.scap_ms, probe.patterns);
    out.set("power.irdrop_ms", probe.irdrop_ms, probe.irdrop_maps);
    out.set("power.cg_solves", counter("cg.solves") as f64, 1);
    out.set("power.cg_iterations", counter("cg.iterations") as f64, 1);

    let (sta_ms, sta_n) = total("timing.noise_aware_sta");
    out.set("timing.sta_ms", sta_ms, sta_n);
    for (metric, span) in [
        ("core.flow_ms.conventional", "core.flow.conventional"),
        ("core.flow_ms.noise_aware", "core.flow.noise_aware"),
        ("core.stage_ms.thresholds", "core.stage.thresholds"),
        ("core.stage_ms.fig2", "core.stage.fig2"),
        ("core.stage_ms.fig6", "core.stage.fig6"),
        ("core.stage_ms.table4", "core.stage.table4"),
        ("core.stage_ms.fig3", "core.stage.fig3"),
        ("core.stage_ms.fig7", "core.stage.fig7"),
    ] {
        let (ms, n) = total(span);
        if n > 0 {
            out.set(metric, ms, n);
        }
    }
    out.set(
        "exec.parallel_maps",
        counter("exec.parallel_maps") as f64,
        1,
    );
    out.set(
        "exec.effective_threads",
        after.gauge("exec.effective_threads").unwrap_or(0) as f64,
        1,
    );

    let deltas = after.counter_deltas(&before);
    write_span_file(opts, &records, &layers, &deltas, out)
}

/// Results of the layer probes that run after the traced pass.
struct Probe {
    podem_aborted: usize,
    solve_ms: Vec<f64>,
    patterns: u64,
    event_ms: f64,
    scap_ms: f64,
    toggles: u64,
    irdrop_ms: f64,
    irdrop_maps: u64,
}

/// Times single layer calls the pass makes only inside larger calls:
/// `PatternAnalyzer::trace` (event simulation) and `power_of_trace` (SCAP
/// calculator) per pattern of the main set, first, while the pass's state
/// is warm; two IR-drop maps; a PODEM-only run of the same fill stream and
/// a `SatAtpg::generate` replay of the faults it leaves aborted.
fn probes(
    study: &CaseStudy,
    stream: u64,
    output: &PassOutput,
    replay_cap: usize,
    tracer: &Tracer,
) -> Probe {
    let n = &study.design.netlist;
    let clka = study.clka();
    let faults = FaultList::full(n);
    let config = random_fill_config(stream);
    let analyzer = PatternAnalyzer::new(study);
    let (mut event_ms, mut scap_ms, mut toggles) = (0.0, 0.0, 0u64);
    tracer.span("sim.probe.event_power", "sim", || {
        for filled in &output.probe_set.filled {
            let t0 = Instant::now();
            let trace = analyzer.trace(filled);
            let t1 = Instant::now();
            black_box(analyzer.power_of_trace(&trace));
            scap_ms += t1.elapsed().as_secs_f64() * 1e3;
            event_ms += (t1 - t0).as_secs_f64() * 1e3;
            toggles += trace.num_toggles() as u64;
        }
    });
    let maps = &output.probe_set.filled[..output.probe_set.len().min(2)];
    let t = Instant::now();
    black_box(analyzer.ir_drop_profile(maps));
    let irdrop_ms = t.elapsed().as_secs_f64() * 1e3;
    let podem = tracer.layer_call("atpg.probe.podem_only", "atpg", || {
        Generator::new(n, clka, config).run(&faults)
    });
    let sat = SatAtpg::new(n, clka, config.mode, SAT_CONFLICT_LIMIT);
    let aborted: Vec<usize> = podem
        .status
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == FaultStatus::Aborted)
        .map(|(i, _)| i)
        .collect();
    let solve_ms = tracer.span("sat.probe.replay", "sat", || {
        aborted
            .iter()
            .take(replay_cap)
            .map(|&i| {
                let mut pattern = TestPattern::unspecified(n);
                let t = Instant::now();
                black_box(sat.generate(faults.faults()[i], &mut pattern));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<f64>>()
    });

    Probe {
        podem_aborted: aborted.len(),
        solve_ms,
        patterns: output.probe_set.len() as u64,
        event_ms,
        scap_ms,
        toggles,
        irdrop_ms,
        irdrop_maps: maps.len() as u64,
    }
}

fn fingerprint_patterns(fp: &mut Fingerprint, set: &PatternSet) {
    fp.u64(set.len() as u64);
    for p in &set.filled {
        fp.bits(&p.load).bits(&p.pi);
    }
}

fn fingerprint_series(fp: &mut Fingerprint, values: &[f64]) {
    fp.u64(values.len() as u64);
    for &v in values {
        fp.f64(v);
    }
}

fn pct2(fraction: f64) -> String {
    format!("{:.2}", fraction * 100.0)
}

/// The paper's pipeline: both flows, then every analysis of the paper.
fn paper_pass(
    study: &CaseStudy,
    t: &Tracer,
    checks: &mut Checks,
    fp: &mut Fingerprint,
    stream: u64,
) -> PassOutput {
    let n = &study.design.netlist;
    let clka = study.clka();
    let b5 = study
        .design
        .block_named("B5")
        .expect("the SOC has a B5 block");
    let conv = t.layer_call("core.flow.conventional", "core", || {
        flows::conventional_with(study, random_fill_config(stream))
    });
    let na = t.layer_call("core.flow.noise_aware", "core", || {
        flows::noise_aware(study)
    });
    let thresholds = t.layer_call("core.stage.thresholds", "core", || {
        experiments::scap_thresholds(study)
    });
    let f2 = t.layer_call("core.stage.fig2", "core", || {
        experiments::fig2(study, &conv)
    });
    let f6 = t.layer_call("core.stage.fig6", "core", || experiments::fig6(study, &na));
    let t4 = t.layer_call("core.stage.table4", "core", || {
        experiments::table4(study, &conv)
    });
    let f3 = t.layer_call("core.stage.fig3", "core", || {
        experiments::fig3(study, &conv)
    });
    let f7 = t.layer_call("core.stage.fig7", "core", || experiments::fig7(study, &na));
    let sta = t.layer_call("timing.noise_aware_sta", "timing", || {
        NoiseAwareSta::worst_case(study)
    });
    let regrade_conv = t.layer_call("sim.grade.conventional", "sim", || {
        grade_patterns(n, clka, &conv.faults, &conv.patterns)
    });
    let regrade_na = t.layer_call("sim.grade.noise_aware", "sim", || {
        grade_patterns(n, clka, &na.faults, &na.patterns)
    });

    if !checks.quiet {
        println!(
            "conventional: {} patterns, {:.2} % coverage; noise-aware: {} patterns, {:.2} % coverage",
            conv.patterns.len(),
            conv.fault_coverage() * 100.0,
            na.patterns.len(),
            na.fault_coverage() * 100.0
        );
    }
    let threshold = thresholds[b5.index()];
    if stream == 0 {
        checks.equal(
            "reference B5 threshold [mW]",
            format!("{threshold:.2}"),
            "14.21".into(),
        );
        checks.equal("reference conventional patterns", conv.patterns.len(), 1136);
        checks.equal("reference noise-aware patterns", na.patterns.len(), 1691);
        checks.equal("reference fig2 patterns above", f2.above.len(), 18);
        checks.equal("reference fig6 patterns above", f6.above.len(), 47);
        checks.equal(
            "reference conventional coverage [%]",
            pct2(conv.fault_coverage()),
            "87.38".into(),
        );
        checks.equal(
            "reference noise-aware coverage [%]",
            pct2(na.fault_coverage()),
            "86.90".into(),
        );
        checks.equal("reference table4 pattern", t4.pattern_index, 608);
        checks.equal("reference fig3 P1 pattern", f3.p1_index, 761);
    }
    checks.equal(
        "conventional re-grade detected",
        regrade_conv.num_detected(),
        conv.grade.num_detected(),
    );
    checks.equal(
        "noise-aware re-grade detected",
        regrade_na.num_detected(),
        na.grade.num_detected(),
    );
    checks.equal(
        "fig2 SCAP values, one per conventional pattern",
        f2.scap_mw.len(),
        conv.patterns.len(),
    );
    let over: Vec<usize> = (0..f2.scap_mw.len())
        .filter(|&i| f2.scap_mw[i] > threshold)
        .collect();
    checks.check(f2.above == over, || {
        format!(
            "fig2 lists the {} patterns above the B5 threshold (it lists {})",
            over.len(),
            f2.above.len()
        )
    });
    let p1 = f2.scap_mw[f3.p1_index];
    checks.check(f2.scap_mw.iter().all(|&v| v <= p1), || {
        format!("fig3 P1 #{} has the highest B5 SCAP of fig2", f3.p1_index)
    });
    let drop_v = f3.p1_map.worst_drop_vdd();
    checks.check(drop_v.is_finite() && drop_v > 0.0, || {
        format!("fig3 P1 worst VDD drop {drop_v:.4} V is positive")
    });
    checks.equal("noise-aware staged steps", na.steps.len(), 3);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (conv_mean, na_mean) = (mean(&f2.scap_mw), mean(&f6.scap_mw));
    checks.check(na_mean < conv_mean, || {
        format!("noise-aware mean B5 SCAP {na_mean:.2} mW below conventional {conv_mean:.2} mW")
    });
    let (nominal, derated) = (
        sta.nominal.critical_path_ps(),
        sta.derated.critical_path_ps(),
    );
    checks.check(derated >= nominal, || {
        format!("derated critical path {derated:.0} ps not below nominal {nominal:.0} ps")
    });

    fingerprint_patterns(fp, &conv.patterns);
    fingerprint_patterns(fp, &na.patterns);
    for g in [&conv.grade, &na.grade] {
        for d in &g.first_detection {
            fp.u64(d.map_or(u64::MAX, |i| i as u64));
        }
    }
    fingerprint_series(fp, &thresholds);
    fingerprint_series(fp, &f2.scap_mw);
    fingerprint_series(fp, &f6.scap_mw);
    fp.u64(t4.pattern_index as u64)
        .f64(t4.scap.0)
        .f64(t4.scap.2);
    fp.u64(f3.p1_index as u64).u64(f3.p2_index as u64);
    fp.u64(f7.pattern_index as u64);
    for &(_, nominal, scaled) in &f7.endpoints {
        fp.f64(nominal).f64(scaled);
    }
    for (_, nominal, derated) in sta.endpoint_slacks() {
        fp.f64(nominal).f64(derated);
    }
    PassOutput {
        patterns_emitted: conv.patterns.len() + na.patterns.len(),
        probe_set: conv.patterns,
    }
}

/// The conventional random-fill flow with the hybrid engine.
fn sat_pass(
    study: &CaseStudy,
    t: &Tracer,
    checks: &mut Checks,
    fp: &mut Fingerprint,
    stream: u64,
) -> PassOutput {
    let n = &study.design.netlist;
    let clka = study.clka();
    let faults = FaultList::full(n);
    let config = AtpgConfig {
        sat_conflict_limit: SAT_CONFLICT_LIMIT,
        engine: EngineKind::Hybrid,
        ..random_fill_config(stream)
    };
    let run = t.layer_call("atpg.generate.hybrid", "atpg", || {
        Generator::new(n, clka, config).run(&faults)
    });
    let regrade = t.layer_call("sim.grade.hybrid", "sim", || {
        grade_patterns(n, clka, &faults, &run.patterns)
    });
    if stream == 0 {
        checks.equal("reference hybrid patterns", run.patterns.len(), 623);
        checks.equal(
            "reference hybrid test coverage [%]",
            pct2(run.test_coverage()),
            "100.00".into(),
        );
        checks.equal("reference hybrid untestable", run.num_untestable(), 1437);
    }
    checks.equal("hybrid aborted", run.num_aborted(), 0);
    checks.equal(
        "hybrid re-grade detected",
        regrade.num_detected(),
        run.num_detected(),
    );

    fingerprint_patterns(fp, &run.patterns);
    for s in &run.status {
        fp.u64(*s as u64);
    }
    PassOutput {
        patterns_emitted: run.patterns.len(),
        probe_set: run.patterns,
    }
}
