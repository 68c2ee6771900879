//! The per-flow power-profile memo, `FlowResult::power_profile`.
//!
//! Figures 2/3, Table 4 and the corner comparison read the conventional
//! flow's SCAP profile, Figures 6/7 the noise-aware one's. Each flow's
//! profile must be simulated once, every analysis must equal, bit for
//! bit, the same analysis on a flow whose profile is not cached yet, and
//! replacing a flow's patterns must never serve the old profile.
//!
//! One test in its own binary: the global `sim.event_runs` counter it
//! reads then sees no other test's simulations.

use scap::dft::PatternSet;
use scap::experiments::{self, CornerComparison, Fig3, Fig7, ScapSeries, Table4};
use scap::flows::{self, FlowResult};
use scap::power::PatternPower;
use scap::{compact_patterns, CaseStudy, PatternAnalyzer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A copy of `flow` whose profile is not cached.
fn uncached(flow: &FlowResult) -> FlowResult {
    let mut copy = flow.clone();
    copy.replace_patterns(flow.patterns.clone());
    copy
}

fn event_runs() -> u64 {
    scap_obs::snapshot().counter("sim.event_runs").unwrap_or(0)
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn profile_bits(profile: &[PatternPower]) -> Vec<u64> {
    profile
        .iter()
        .flat_map(|p| {
            let blocks = p
                .blocks
                .iter()
                .chain(std::iter::once(&p.chip))
                .flat_map(|b| [b.energy_vdd_fj, b.energy_vss_fj, f64::from(b.toggles)]);
            [p.stw_ps, p.period_ps].into_iter().chain(blocks)
        })
        .map(f64::to_bits)
        .collect()
}

fn series_bits(s: &ScapSeries) -> (Vec<u64>, Vec<usize>, u64) {
    (
        bits(s.scap_mw.iter().copied()),
        s.above.clone(),
        s.threshold_mw.to_bits(),
    )
}

fn table4_bits(t: &Table4) -> (usize, Vec<u64>) {
    let (c, s) = (t.cap, t.scap);
    (
        t.pattern_index,
        bits([
            t.stw_ps,
            t.period_ps,
            c.0,
            c.1,
            c.2,
            c.3,
            s.0,
            s.1,
            s.2,
            s.3,
        ]),
    )
}

fn fig3_bits(f: &Fig3) -> (usize, usize, Vec<u64>) {
    let maps = [&f.p1_map, &f.p2_map];
    let drops = maps
        .iter()
        .flat_map(|m| m.node_drop_vdd_v.iter().chain(&m.node_drop_vss_v).copied());
    (
        f.p1_index,
        f.p2_index,
        bits([f.scap_mw.0, f.scap_mw.1].into_iter().chain(drops)),
    )
}

fn fig7_bits(f: &Fig7) -> (usize, Vec<u64>) {
    let delays = f.endpoints.iter().flat_map(|&(_, n, s)| [n, s]);
    (f.pattern_index, bits(delays))
}

fn corner_bits(c: &CornerComparison) -> Vec<u64> {
    bits(c.endpoints.iter().flat_map(|&(_, n, w, ir)| [n, w, ir]))
}

/// The set with its patterns in reverse order: same size, other profile.
fn reversed(set: &PatternSet) -> PatternSet {
    let mut r = set.clone();
    r.source.reverse();
    r.filled.reverse();
    r
}

#[test]
fn each_flow_profile_runs_once_and_matches_an_uncached_computation() {
    let study = CaseStudy::small();
    let conv = flows::conventional(&study);
    let na = flows::noise_aware(&study);

    // The reference: every analysis on its own uncached copy, so each
    // one simulates its flow's profile itself.
    let want_fig2 = series_bits(&experiments::fig2(&study, &uncached(&conv)));
    let want_fig6 = series_bits(&experiments::fig6(&study, &uncached(&na)));
    let want_table4 = table4_bits(&experiments::table4(&study, &uncached(&conv)));
    let want_fig3 = fig3_bits(&experiments::fig3(&study, &uncached(&conv)));
    let want_fig7 = fig7_bits(&experiments::fig7(&study, &uncached(&na)));
    let want_corner = corner_bits(&experiments::corner_comparison(&study, &uncached(&conv)));

    scap_obs::set_enabled(true);
    let before = event_runs();
    let fig2 = experiments::fig2(&study, &conv);
    let fig6 = experiments::fig6(&study, &na);
    let table4 = experiments::table4(&study, &conv);
    let fig3 = experiments::fig3(&study, &conv);
    let fig7 = experiments::fig7(&study, &na);
    // One profile per flow; beyond them Table 4 traces one pattern,
    // Figure 3 solves two IR-drop maps and Figure 7 simulates one pattern
    // nominal and IR-drop-scaled.
    assert_eq!(
        event_runs() - before,
        (conv.patterns.len() + na.patterns.len() + 5) as u64,
        "fig2/fig6/table4/fig3/fig7 simulated a profile more than once per flow"
    );
    let before = event_runs();
    experiments::fig2(&study, &conv);
    experiments::fig6(&study, &na);
    assert_eq!(
        event_runs() - before,
        0,
        "a cached profile was simulated again"
    );
    let corner = experiments::corner_comparison(&study, &conv);

    assert_eq!(series_bits(&fig2), want_fig2, "fig2");
    assert_eq!(series_bits(&fig6), want_fig6, "fig6");
    assert_eq!(table4_bits(&table4), want_table4, "table4");
    assert_eq!(fig3_bits(&fig3), want_fig3, "fig3");
    assert_eq!(fig7_bits(&fig7), want_fig7, "fig7");
    assert_eq!(corner_bits(&corner), want_corner, "corner comparison");
    let analyzer = PatternAnalyzer::new(&study);
    for flow in [&conv, &na] {
        assert_eq!(
            profile_bits(flow.power_profile(&study)),
            profile_bits(&analyzer.power_profile(&flow.patterns)),
            "cached profile differs from PatternAnalyzer::power_profile"
        );
    }

    // Replacing the patterns drops the cached profile: a set of the same
    // size in another order, and the static compaction `scap atpg
    // --compact` applies.
    let mut swapped = conv.clone();
    let other = reversed(&conv.patterns);
    let fresh = profile_bits(&analyzer.power_profile(&other));
    assert_ne!(
        fresh,
        profile_bits(conv.power_profile(&study)),
        "the reversed set must have another profile for this check to bite"
    );
    swapped.replace_patterns(other);
    assert_eq!(profile_bits(swapped.power_profile(&study)), fresh);
    let mut compacted = conv.clone();
    let (_, set) = compact_patterns(
        &study.design.netlist,
        study.clka(),
        &conv.faults,
        &conv.patterns,
    );
    let fresh = profile_bits(&analyzer.power_profile(&set));
    compacted.replace_patterns(set);
    assert_eq!(profile_bits(compacted.power_profile(&study)), fresh);

    // Assigning the field directly bypasses the reset; a set of another
    // size is then refused rather than served a stale profile.
    let mut bypassed = conv.clone();
    bypassed.patterns.filled.pop();
    bypassed.patterns.source.pop();
    let stale = catch_unwind(AssertUnwindSafe(|| bypassed.power_profile(&study).len()));
    assert!(stale.is_err(), "a stale profile was served");
}
