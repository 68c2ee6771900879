//! The two pattern-generation flows the paper compares.
//!
//! * [`conventional`] — what commercial ATPG does by default: one run over
//!   the full fault list of the dominant clock domain with **random
//!   fill**, maximizing fortuitous detection (and, as the paper shows,
//!   switching activity and IR-drop).
//! * [`noise_aware`] — the paper's procedure (§3.1): split the dominant
//!   domain's ATPG into three steps — first the low-drop periphery blocks
//!   B1–B4, then B6, then the hot center block B5 — with **fill-0** on
//!   every don't-care, so whichever blocks are not being targeted stay
//!   quiet. Costs a few percent more patterns, slashes per-pattern SCAP.

use crate::{grade_patterns, CaseStudy, GradeResult, PatternAnalyzer};
use scap_dft::{FillPolicy, PatternSet};
use scap_netlist::BlockId;
use scap_power::PatternPower;
use scap_sim::FaultList;
use scap_tgen::{AtpgConfig, EngineKind, FaultStatus, Generator};
use std::sync::OnceLock;

/// Result of one flow.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// All generated patterns, in application order. Replace them
    /// through [`FlowResult::replace_patterns`], which also drops the
    /// cached power profile.
    pub patterns: PatternSet,
    /// `(step label, first pattern index of the step)`.
    pub steps: Vec<(String, usize)>,
    /// Exact grading of the pattern set against the full fault universe.
    pub grade: GradeResult,
    /// The fault universe used for grading.
    pub faults: FaultList,
    /// Per-pattern CAP/SCAP of `patterns`, filled on first use.
    profile: OnceLock<Vec<PatternPower>>,
}

impl FlowResult {
    fn new(
        patterns: PatternSet,
        steps: Vec<(String, usize)>,
        grade: GradeResult,
        faults: FaultList,
    ) -> Self {
        FlowResult {
            patterns,
            steps,
            grade,
            faults,
            profile: OnceLock::new(),
        }
    }

    /// Final fault coverage.
    pub fn fault_coverage(&self) -> f64 {
        self.grade.fault_coverage()
    }

    /// The per-pattern CAP/SCAP profile of the flow's patterns on
    /// `study`, the case study the flow ran on:
    /// [`PatternAnalyzer::power_profile`], computed on the first call and
    /// shared by every later one (Figures 2/3 and Table 4 read the
    /// conventional flow's, Figures 6/7 the noise-aware one's).
    ///
    /// # Panics
    ///
    /// If `patterns` was reassigned to a set of another size after the
    /// profile was computed; use [`FlowResult::replace_patterns`].
    pub fn power_profile(&self, study: &CaseStudy) -> &[PatternPower] {
        let profile = self
            .profile
            .get_or_init(|| PatternAnalyzer::new(study).power_profile(&self.patterns));
        assert_eq!(
            profile.len(),
            self.patterns.len(),
            "FlowResult::patterns changed behind the cached power profile"
        );
        profile
    }

    /// Replaces the pattern set (e.g. by its static compaction) and drops
    /// the cached power profile, so the next
    /// [`FlowResult::power_profile`] measures the new set. `grade` and
    /// `steps` still describe the set the flow generated.
    pub fn replace_patterns(&mut self, patterns: PatternSet) {
        self.patterns = patterns;
        self.profile = OnceLock::new();
    }
}

/// Default ATPG configuration for a flow with the given fill.
pub fn flow_atpg_config(fill: FillPolicy) -> AtpgConfig {
    AtpgConfig {
        fill,
        ..AtpgConfig::default()
    }
}

/// Flow configuration with an explicit primary-targeting engine
/// (`--engine podem|sat|hybrid` on the CLI and `engine=` on the wire).
pub fn flow_atpg_config_with_engine(fill: FillPolicy, engine: EngineKind) -> AtpgConfig {
    AtpgConfig {
        fill,
        engine,
        ..AtpgConfig::default()
    }
}

/// The conventional flow: full fault list, random fill.
pub fn conventional(study: &CaseStudy) -> FlowResult {
    conventional_with(study, flow_atpg_config(FillPolicy::Random))
}

/// The conventional flow with an explicit ATPG configuration (used by the
/// fill-policy ablation).
pub fn conventional_with(study: &CaseStudy, config: AtpgConfig) -> FlowResult {
    let n = &study.design.netlist;
    let clka = study.clka();
    let faults = FaultList::full(n);
    let generator = Generator::new(n, clka, config);
    let run = generator.run(&faults);
    scap_obs::counter!("flow.stages").incr();
    scap_obs::counter!("flow.patterns_generated").add(run.patterns.len() as u64);
    let grade = grade_patterns(n, clka, &faults, &run.patterns);
    FlowResult::new(
        run.patterns,
        vec![("all blocks".to_owned(), 0)],
        grade,
        faults,
    )
}

/// The paper's staged steps for the Turbo-Eagle floorplan.
pub fn paper_stages(study: &CaseStudy) -> Vec<(String, Vec<BlockId>)> {
    let blk = |name: &str| study.design.block_named(name).expect("block exists");
    vec![
        (
            "step1: B1-B4".to_owned(),
            vec![blk("B1"), blk("B2"), blk("B3"), blk("B4")],
        ),
        ("step2: B6".to_owned(), vec![blk("B6")]),
        ("step3: B5".to_owned(), vec![blk("B5")]),
    ]
}

/// The noise-aware flow: staged per-block targeting with fill-0.
pub fn noise_aware(study: &CaseStudy) -> FlowResult {
    noise_aware_with(
        study,
        flow_atpg_config(FillPolicy::Zero),
        &paper_stages(study),
    )
}

/// The noise-aware flow with explicit configuration and stages.
pub fn noise_aware_with(
    study: &CaseStudy,
    config: AtpgConfig,
    stages: &[(String, Vec<BlockId>)],
) -> FlowResult {
    let n = &study.design.netlist;
    let clka = study.clka();
    let full = FaultList::full(n);
    let generator = Generator::new(n, clka, config);
    let mut patterns = PatternSet {
        fill: Some(config.fill),
        ..PatternSet::new()
    };
    let mut steps = Vec::new();
    // Global knowledge of what the patterns so far already detect, so a
    // later step never re-targets a fortuitously covered fault.
    let mut detected = vec![false; full.faults().len()];
    for (label, blocks) in stages {
        steps.push((label.clone(), patterns.len()));
        let members: Vec<usize> = full
            .faults()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.block(n).is_some_and(|b| blocks.contains(&b)))
            .map(|(i, _)| i)
            .collect();
        let sub = FaultList::from_faults(
            members.iter().map(|&i| full.faults()[i]).collect(),
            members.len() * full.uncollapsed_count() / full.faults().len().max(1),
        );
        let initial: Vec<FaultStatus> = members
            .iter()
            .map(|&i| {
                if detected[i] {
                    FaultStatus::Detected
                } else {
                    FaultStatus::Undetected
                }
            })
            .collect();
        let run = generator.run_with_status(&sub, initial);
        scap_obs::counter!("flow.stages").incr();
        scap_obs::counter!("flow.patterns_generated").add(run.patterns.len() as u64);
        // Grade the new patterns against the whole universe to credit
        // fortuitous detections in *other* blocks too.
        let grade = grade_patterns(n, clka, &full, &run.patterns);
        for (i, d) in grade.first_detection.iter().enumerate() {
            if d.is_some() {
                detected[i] = true;
            }
        }
        patterns.extend(run.patterns);
    }
    let grade = grade_patterns(n, clka, &full, &patterns);
    FlowResult::new(patterns, steps, grade, full)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Flows are the most expensive fixtures in the crate; build them once
    /// and share across every test that needs them.
    pub(crate) fn fixture() -> &'static (CaseStudy, FlowResult, FlowResult) {
        static FIXTURE: OnceLock<(CaseStudy, FlowResult, FlowResult)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let s = CaseStudy::small();
            let conv = conventional(&s);
            let na = noise_aware(&s);
            (s, conv, na)
        })
    }

    #[test]
    fn both_flows_reach_similar_coverage() {
        let (_, conv, na) = fixture();
        assert!(
            conv.fault_coverage() > 0.5,
            "conv {:.3}",
            conv.fault_coverage()
        );
        let delta = (conv.fault_coverage() - na.fault_coverage()).abs();
        assert!(
            delta < 0.12,
            "flows should converge to similar coverage: conv {:.3}, na {:.3}",
            conv.fault_coverage(),
            na.fault_coverage()
        );
    }

    #[test]
    fn noise_aware_generates_more_patterns() {
        let (_, conv, na) = fixture();
        assert!(
            na.patterns.len() >= conv.patterns.len(),
            "paper reports a pattern-count increase: conv {}, na {}",
            conv.patterns.len(),
            na.patterns.len()
        );
        assert_eq!(na.steps.len(), 3);
        // Step boundaries are ordered.
        assert!(na.steps[0].1 <= na.steps[1].1 && na.steps[1].1 <= na.steps[2].1);
    }

    #[test]
    fn noise_aware_steps_target_their_blocks() {
        let (s, _, na) = fixture();
        // During step 1+2 patterns, B5 loads should be almost all zero
        // (fill-0 keeps the untargeted block quiet).
        let b5 = s.design.block_named("B5").unwrap();
        let b5_flops: Vec<usize> = s
            .design
            .netlist
            .flops()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.block == b5)
            .map(|(i, _)| i)
            .collect();
        let step3_start = na.steps[2].1;
        let mut ones = 0usize;
        let mut total = 0usize;
        for p in &na.patterns.filled[..step3_start] {
            for &i in &b5_flops {
                ones += p.load[i] as usize;
                total += 1;
            }
        }
        if total > 0 {
            let frac = ones as f64 / total as f64;
            assert!(
                frac < 0.10,
                "B5 load should be quiet before step 3: {frac:.3}"
            );
        }
    }
}
