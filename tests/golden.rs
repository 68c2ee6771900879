//! Golden end-to-end fingerprints of the pattern-generation flows.
//!
//! Each run below hashes what the flow reports: the filled pattern
//! stream, a per-fault status vector and detected/total coverage, plus
//! (for the two default PODEM flows) the per-pattern SCAP series. The
//! expected lines live in `tests/golden_fingerprints.txt`. A refactor of
//! the simulation or ATPG core must leave every line unchanged; on a
//! mismatch the test prints the new line. Updating the file is a
//! deliberate act that the change log has to explain.
//!
//! Per-fault status is the ATPG verdict (`Generator::run`) for the
//! conventional runs and the grading verdict (first detecting pattern)
//! for every run.

use scap::dft::{FillPolicy, PatternSet};
use scap::flows::{self, flow_atpg_config_with_engine};
use scap::sim::{FaultList, LaunchMode};
use scap::tgen::{AtpgConfig, EngineKind, FaultStatus, Generator};
use scap::{grade_patterns, CaseStudy, GradeResult, PatternAnalyzer};

const SCALE: f64 = 0.008;
const EXPECTED: &str = include_str!("golden_fingerprints.txt");

/// 64-bit FNV-1a, fed word by word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn stream_hash(set: &PatternSet) -> String {
    let mut h = Fnv::new();
    h.u64(set.len() as u64);
    for p in &set.filled {
        for &b in p.load.iter().chain(&p.pi) {
            h.u64(u64::from(b));
        }
    }
    h.hex()
}

fn status_hash(atpg: Option<&[FaultStatus]>, grade: &GradeResult) -> String {
    let mut h = Fnv::new();
    if let Some(status) = atpg {
        h.u64(status.len() as u64);
        for &s in status {
            h.u64(match s {
                FaultStatus::Undetected => 0,
                FaultStatus::Detected => 1,
                FaultStatus::Untestable => 2,
                FaultStatus::Aborted => 3,
            });
        }
    }
    h.u64(grade.first_detection.len() as u64);
    for d in &grade.first_detection {
        h.u64(d.map_or(u64::MAX, |i| i as u64));
    }
    h.hex()
}

/// STW and chip VDD/VSS energies of every pattern, as f64 bits.
fn scap_hash(study: &CaseStudy, set: &PatternSet) -> String {
    let mut h = Fnv::new();
    for p in PatternAnalyzer::new(study).power_profile(set) {
        h.u64(p.stw_ps.to_bits())
            .u64(p.chip.energy_vdd_fj.to_bits())
            .u64(p.chip.energy_vss_fj.to_bits());
    }
    h.hex()
}

fn line(
    name: &str,
    set: &PatternSet,
    atpg: Option<&[FaultStatus]>,
    grade: &GradeResult,
    scap: Option<String>,
) -> String {
    let mut s = format!(
        "{name} patterns={} coverage={}/{} stream={} status={}",
        set.len(),
        grade.num_detected(),
        grade.total_faults,
        stream_hash(set),
        status_hash(atpg, grade),
    );
    if let Some(scap) = scap {
        s.push_str(&format!(" scap={scap}"));
    }
    s
}

fn fill_label(fill: FillPolicy) -> &'static str {
    match fill {
        FillPolicy::Random => "random",
        FillPolicy::Zero => "zero",
        FillPolicy::One => "one",
        FillPolicy::Adjacent => "adjacent",
    }
}

/// The conventional flow (`flows::conventional_with`), keeping the
/// generator's per-fault verdicts the flow result drops.
fn conventional(study: &CaseStudy, name: &str, config: AtpgConfig, with_scap: bool) -> String {
    let n = &study.design.netlist;
    let clka = study.clka();
    let faults = FaultList::full(n);
    let run = Generator::new(n, clka, config).run(&faults);
    let grade = grade_patterns(n, clka, &faults, &run.patterns);
    let scap = with_scap.then(|| scap_hash(study, &run.patterns));
    line(name, &run.patterns, Some(&run.status), &grade, scap)
}

fn noise_aware(study: &CaseStudy, name: &str, config: AtpgConfig, with_scap: bool) -> String {
    let flow = flows::noise_aware_with(study, config, &flows::paper_stages(study));
    let scap = with_scap.then(|| scap_hash(study, &flow.patterns));
    line(name, &flow.patterns, None, &flow.grade, scap)
}

#[test]
fn flows_match_golden_fingerprints() {
    let study = CaseStudy::new(SCALE);
    let mut actual = Vec::new();
    for fill in FillPolicy::ALL {
        let config = flow_atpg_config_with_engine(fill, EngineKind::Podem);
        let default = fill == FillPolicy::Random;
        let name = format!("conventional/{}/podem", fill_label(fill));
        actual.push(conventional(&study, &name, config, default));
    }
    for fill in FillPolicy::ALL {
        let config = flow_atpg_config_with_engine(fill, EngineKind::Podem);
        let default = fill == FillPolicy::Zero;
        let name = format!("noise_aware/{}/podem", fill_label(fill));
        actual.push(noise_aware(&study, &name, config, default));
    }
    for engine in [EngineKind::Sat, EngineKind::Hybrid] {
        let config = flow_atpg_config_with_engine(FillPolicy::Random, engine);
        let name = format!("conventional/random/{}", engine.label());
        actual.push(conventional(&study, &name, config, false));
        let config = flow_atpg_config_with_engine(FillPolicy::Zero, engine);
        let name = format!("noise_aware/zero/{}", engine.label());
        actual.push(noise_aware(&study, &name, config, false));
    }
    let los = AtpgConfig {
        mode: LaunchMode::Shift,
        ..flow_atpg_config_with_engine(FillPolicy::Random, EngineKind::Podem)
    };
    actual.push(conventional(
        &study,
        "conventional/random/podem/los",
        los,
        false,
    ));

    let expected: Vec<&str> = EXPECTED
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mismatched: Vec<&String> = actual
        .iter()
        .filter(|l| !expected.contains(&l.as_str()))
        .collect();
    for l in &mismatched {
        eprintln!("new: {l}");
    }
    assert!(
        mismatched.is_empty() && expected.len() == actual.len(),
        "{} of {} runs differ from tests/golden_fingerprints.txt ({} expected lines)",
        mismatched.len(),
        actual.len(),
        expected.len()
    );
}
