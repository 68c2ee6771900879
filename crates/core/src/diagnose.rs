//! Failure diagnosis: from tester fail logs back to candidate faults.
//!
//! The paper (§3.2) uses IR-drop-aware re-simulation "to debug any pattern
//! which is identified to fail due to IR-drop effects". This module
//! implements the other half of that debug loop: given the flops that
//! captured wrong values on a set of patterns, rank the transition faults
//! whose simulated failure signatures best explain the observations
//! (classic effect-cause diagnosis with Jaccard scoring).

use scap_dft::PatternSet;
use scap_netlist::{ClockId, FlopId, Netlist};
use scap_sim::{FaultList, TransitionFault, TransitionFaultSim};
use std::collections::HashSet;

/// One pattern's observed failure: which capture flops mismatched.
#[derive(Clone, Debug)]
pub struct FailureLog {
    /// Index of the failing pattern in the applied set.
    pub pattern: usize,
    /// Flops that captured a wrong value.
    pub failing_flops: Vec<FlopId>,
}

/// A diagnosis candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The suspected fault.
    pub fault: TransitionFault,
    /// Mean Jaccard similarity between predicted and observed failing
    /// flops over the logged patterns (1.0 = perfect explanation).
    pub score: f64,
}

/// Ranks fault candidates against tester fail logs.
///
/// For every fault, the predicted failure signature (set of mismatching
/// capture flops) is simulated for each logged pattern and compared with
/// the observation; candidates are returned sorted by descending score,
/// pruned at `max_candidates`. Faults predicting a failure on a passing
/// pattern are penalized through the Jaccard denominator of the union.
pub fn diagnose(
    netlist: &Netlist,
    active_clock: ClockId,
    faults: &FaultList,
    patterns: &PatternSet,
    logs: &[FailureLog],
    max_candidates: usize,
) -> Vec<Candidate> {
    let sim = TransitionFaultSim::new(netlist, active_clock);
    // Map observed flops to their D nets once.
    let observations: Vec<(usize, HashSet<u32>)> = logs
        .iter()
        .map(|log| {
            let nets: HashSet<u32> = log
                .failing_flops
                .iter()
                .map(|&f| netlist.flop(f).d.raw())
                .collect();
            (log.pattern, nets)
        })
        .collect();
    let mut scratch = scap_sim::PropagationScratch::new(netlist.num_nets());
    let mut candidates: Vec<Candidate> = Vec::new();
    let batches: Vec<_> = patterns.batches().collect();
    // Frames depend only on the batch; compute each referenced batch once.
    let mut frame_cache: std::collections::HashMap<usize, scap_sim::Frames<u64>> =
        std::collections::HashMap::new();
    for (pattern, _) in &observations {
        let batch_idx = pattern / 64;
        if let Some((_, batch)) = batches.get(batch_idx) {
            frame_cache
                .entry(batch_idx)
                .or_insert_with(|| sim.frames(&batch.load_words, &batch.pi_words));
        }
    }
    for &fault in faults.faults() {
        let mut total = 0.0;
        let mut samples = 0usize;
        for (pattern, observed) in &observations {
            let batch_idx = pattern / 64;
            let bit = pattern % 64;
            let Some(frames) = frame_cache.get(&batch_idx) else {
                continue;
            };
            let signature = sim.signature_one(frames, 1u64 << bit, fault, &mut scratch);
            let predicted: HashSet<u32> = signature
                .iter()
                .filter(|(_, mask)| mask >> bit & 1 == 1)
                .map(|(net, _)| net.raw())
                .collect();
            let inter = predicted.intersection(observed).count();
            let union = predicted.union(observed).count();
            total += if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            };
            samples += 1;
        }
        if samples > 0 && total > 0.0 {
            candidates.push(Candidate {
                fault,
                score: total / samples as f64,
            });
        }
    }
    candidates.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    candidates.truncate(max_candidates);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CaseStudy;
    use scap_sim::PropagationScratch;

    /// Inject a known fault, simulate its failures on real patterns, then
    /// diagnose from the produced logs: the injected fault must rank at
    /// (or tie for) the top.
    #[test]
    fn diagnosis_recovers_an_injected_fault() {
        let study = CaseStudy::new(0.004);
        let n = &study.design.netlist;
        let clka = study.clka();
        let faults = FaultList::full(n);
        let (_, conv, _) = {
            // Build a small conventional set directly (avoid the heavier
            // fixture): 96 random patterns.
            use rand::SeedableRng;
            use scap_dft::{FillPolicy, TestPattern};
            let mut rng = rand::rngs::StdRng::seed_from_u64(21);
            let mut set = PatternSet::new();
            for _ in 0..96 {
                let p = TestPattern::unspecified(n);
                let f = p.fill(n, FillPolicy::Random, &mut rng);
                set.push(p, f);
            }
            ((), set, ())
        };
        let sim = TransitionFaultSim::new(n, clka);
        let mut scratch = PropagationScratch::new(n.num_nets());
        // Pick an actually-detectable fault and produce its fail logs.
        let mut injected = None;
        let mut logs = Vec::new();
        'outer: for &fault in faults.faults().iter().skip(40) {
            logs.clear();
            for (start, batch) in conv.batches() {
                let frames = sim.frames(&batch.load_words, &batch.pi_words);
                let signature = sim.signature_one(&frames, batch.valid_mask, fault, &mut scratch);
                for bit in 0..batch.count {
                    let failing: Vec<FlopId> = signature
                        .iter()
                        .filter(|(_, mask)| mask >> bit & 1 == 1)
                        .flat_map(|(net, _)| n.fanout_flops(*net).to_vec())
                        .collect();
                    if !failing.is_empty() {
                        logs.push(FailureLog {
                            pattern: start + bit,
                            failing_flops: failing,
                        });
                    }
                }
            }
            if logs.len() >= 3 {
                injected = Some(fault);
                break 'outer;
            }
        }
        let injected = injected.expect("some fault fails on random patterns");
        logs.truncate(5);
        let ranked = diagnose(n, clka, &faults, &conv, &logs, 10);
        assert!(!ranked.is_empty());
        let top_score = ranked[0].score;
        let injected_entry = ranked
            .iter()
            .find(|c| c.fault == injected)
            .expect("injected fault is among the top candidates");
        assert!(
            injected_entry.score >= top_score - 1e-9,
            "injected fault must tie for the best score: {} vs {}",
            injected_entry.score,
            top_score
        );
    }

    #[test]
    fn empty_logs_produce_no_candidates() {
        let study = CaseStudy::new(0.004);
        let n = &study.design.netlist;
        let faults = FaultList::full(n);
        let ranked = diagnose(n, study.clka(), &faults, &PatternSet::new(), &[], 5);
        assert!(ranked.is_empty());
    }
}
