//! Per-pattern analysis: toggle traces, SCAP power and endpoint delays.

use crate::CaseStudy;
use scap_dft::{FilledPattern, PatternBatch, PatternSet};
use scap_exec::Executor;
use scap_netlist::{FlopId, Netlist};
use scap_power::{DynamicAnalysis, IrDropMap, PatternPower, ScapCalculator};
use scap_sim::{EventScratch, EventSim, Frames, LaunchMode, LaunchModel, SimTable, ToggleTrace};
use scap_timing::{scaling, ClockArrivals, DelayAnnotation};

/// Per-endpoint delay report (the paper's Figure 7 data).
#[derive(Clone, Debug)]
pub struct EndpointDelayReport {
    /// For each flop of the active domain: the path delay observed at the
    /// endpoint, measured relative to the clock arrival at that endpoint,
    /// ps. `0.0` marks a non-active endpoint (no transition captured).
    pub delay_ps: Vec<(FlopId, f64)>,
}

impl EndpointDelayReport {
    /// Endpoints whose delay is non-zero (active endpoints).
    pub fn active(&self) -> impl Iterator<Item = (FlopId, f64)> + '_ {
        self.delay_ps.iter().copied().filter(|&(_, d)| d != 0.0)
    }

    /// The largest endpoint delay, ps.
    pub fn max_delay_ps(&self) -> f64 {
        self.delay_ps.iter().map(|&(_, d)| d).fold(0.0, f64::max)
    }
}

/// Computes traces, power and timing for individual patterns of one
/// case-study design.
///
/// # Example
///
/// ```
/// use scap::{CaseStudy, PatternAnalyzer};
/// use scap_dft::FilledPattern;
///
/// let study = CaseStudy::small();
/// let analyzer = PatternAnalyzer::new(&study);
/// let quiet = FilledPattern {
///     load: vec![false; study.design.netlist.num_flops()],
///     pi: vec![false; study.design.netlist.primary_inputs().len()],
/// };
/// let trace = analyzer.trace(&quiet);
/// let power = analyzer.power(&quiet);
/// assert_eq!(power.stw_ps, trace.stw_ps());
/// ```
#[derive(Debug)]
pub struct PatternAnalyzer<'a> {
    study: &'a CaseStudy,
    table: SimTable,
    /// Launch-off-capture of the case study's dominant clock domain.
    launch: LaunchModel,
    /// SCAP of the nominal annotation over the active clock period.
    calc: ScapCalculator<'a>,
}

/// One pattern's launch: its frame-1 net values and its
/// `(flop, new value, Q transition time)` launch events.
#[derive(Debug, Default)]
struct Launch {
    frame1: Vec<bool>,
    events: Vec<(FlopId, bool, f64)>,
}

impl<'a> PatternAnalyzer<'a> {
    /// Builds an analyzer bound to a case study.
    pub fn new(study: &'a CaseStudy) -> Self {
        let n = &study.design.netlist;
        PatternAnalyzer {
            study,
            table: SimTable::build(n),
            launch: LaunchModel::new(n, study.clka(), LaunchMode::Capture),
            calc: ScapCalculator::new(n, &study.annotation, study.period_ps()),
        }
    }

    fn netlist(&self) -> &'a Netlist {
        &self.study.design.netlist
    }

    /// Q transition time (clock arrival + clock-to-Q) of every
    /// active-domain flop under the given arrivals and delays; `None` for
    /// the other domains' flops, which do not launch.
    fn launch_times(
        &self,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> Vec<Option<f64>> {
        let n = self.netlist();
        // `ClockArrivals::arrival_ps` searches linearly; index it once,
        // keeping its first-match rule.
        let mut arrival = vec![None; n.num_flops()];
        for (f, t) in arrivals.iter() {
            arrival[f.index()].get_or_insert(t);
        }
        n.flops()
            .iter()
            .zip(arrival)
            .enumerate()
            .map(|(i, (f, a))| {
                (f.clock == self.launch.active_clock())
                    .then(|| a.unwrap_or(0.0) + annotation.flop_clk_to_q_ps(FlopId::new(i as u32)))
            })
            .collect()
    }

    /// Reads lane `lane` of a batch's two-frame pass into `out`: the
    /// lane's frame-1 bits, and a launch event at `launch_ps` for every
    /// active-domain flop whose state changes at the launch edge.
    fn launch_lane(
        batch: &PatternBatch,
        frames: &Frames<u64>,
        lane: usize,
        launch_ps: &[Option<f64>],
        out: &mut Launch,
    ) {
        out.frame1.clear();
        out.frame1
            .extend(frames.frame1.iter().map(|w| w >> lane & 1 == 1));
        out.events.clear();
        for (i, &t) in launch_ps.iter().enumerate() {
            let Some(t) = t else { continue };
            let new = frames.state2[i] >> lane & 1 == 1;
            if new != (batch.load_words[i] >> lane & 1 == 1) {
                out.events.push((FlopId::new(i as u32), new, t));
            }
        }
    }

    /// The launch-to-capture toggle trace of a pattern (nominal delays).
    pub fn trace(&self, filled: &FilledPattern) -> ToggleTrace {
        self.trace_with(filled, &self.study.annotation, &self.study.arrivals)
    }

    /// Toggle trace under explicit (e.g. IR-drop-scaled) delays and clock
    /// arrivals.
    pub fn trace_with(
        &self,
        filled: &FilledPattern,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> ToggleTrace {
        let batch = PatternBatch::pack(std::slice::from_ref(filled));
        let frames = self
            .table
            .frames(&self.launch, &batch.load_words, &batch.pi_words);
        let launch_ps = self.launch_times(annotation, arrivals);
        let mut launch = Launch::default();
        Self::launch_lane(&batch, &frames, 0, &launch_ps, &mut launch);
        EventSim::new(&self.table, annotation).run(&launch.frame1, &launch.events)
    }

    /// CAP/SCAP power of one pattern.
    pub fn power(&self, filled: &FilledPattern) -> PatternPower {
        self.power_of_trace(&self.trace(filled))
    }

    /// CAP/SCAP power of an existing trace.
    pub fn power_of_trace(&self, trace: &ToggleTrace) -> PatternPower {
        self.calc.measure(trace)
    }

    /// SCAP profile of a whole pattern set — the data behind the paper's
    /// Figures 2 and 6. Bit-identical to [`PatternAnalyzer::power`] per
    /// pattern, in order, for every thread count.
    ///
    /// Patterns go through the launch pass up to 64 at a time, one lane
    /// each; every lane's trace is measured as soon as it is simulated
    /// and then dropped. Chunks run in parallel, and shrink below 64
    /// patterns only to give every worker one.
    pub fn power_profile(&self, set: &PatternSet) -> Vec<PatternPower> {
        self.power_profile_on(Executor::new(), set)
    }

    fn power_profile_on(&self, exec: Executor, set: &PatternSet) -> Vec<PatternPower> {
        let annotation = &self.study.annotation;
        let launch_ps = self.launch_times(annotation, &self.study.arrivals);
        let sim = EventSim::new(&self.table, annotation);
        let lanes = set.filled.len().div_ceil(exec.threads()).clamp(1, 64);
        let chunks: Vec<&[FilledPattern]> = set.filled.chunks(lanes).collect();
        let per_chunk = exec.parallel_map_with(
            || (EventScratch::default(), Launch::default()),
            &chunks,
            |(scratch, launch), chunk| {
                let batch = PatternBatch::pack(chunk);
                let frames = self
                    .table
                    .frames(&self.launch, &batch.load_words, &batch.pi_words);
                (0..chunk.len())
                    .map(|lane| {
                        Self::launch_lane(&batch, &frames, lane, &launch_ps, launch);
                        let trace = sim.run_with(scratch, &launch.frame1, &launch.events);
                        self.calc.measure(&trace)
                    })
                    .collect::<Vec<_>>()
            },
        );
        per_chunk.into_iter().flatten().collect()
    }

    /// Dynamic IR-drop of one pattern.
    pub fn ir_drop(&self, filled: &FilledPattern) -> IrDropMap {
        let trace = self.trace(filled);
        let dynir = DynamicAnalysis::new(
            self.netlist(),
            &self.study.design.floorplan,
            self.study.grid,
        );
        dynir.analyze(&self.study.annotation, &trace)
    }

    /// Dynamic IR-drop of many patterns. The grid system is assembled
    /// once, patterns are solved in parallel, and each worker keeps one
    /// [`scap_power::DynSession`] (reused CG buffers) across its share of
    /// the patterns. Results are bit-identical to calling
    /// [`PatternAnalyzer::ir_drop`] per pattern, in order.
    pub fn ir_drop_profile(&self, patterns: &[FilledPattern]) -> Vec<IrDropMap> {
        let dynir = DynamicAnalysis::new(
            self.netlist(),
            &self.study.design.floorplan,
            self.study.grid,
        );
        Executor::new().parallel_map_with(
            || dynir.session(),
            patterns,
            |session, filled| {
                let trace = self.trace(filled);
                session.analyze(&self.study.annotation, &trace)
            },
        )
    }

    /// Endpoint delays of a pattern under nominal timing.
    pub fn endpoint_delays(&self, filled: &FilledPattern) -> EndpointDelayReport {
        self.endpoint_delays_with(filled, &self.study.annotation, &self.study.arrivals)
    }

    /// Endpoint delays under explicit delays/arrivals.
    pub fn endpoint_delays_with(
        &self,
        filled: &FilledPattern,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> EndpointDelayReport {
        let trace = self.trace_with(filled, annotation, arrivals);
        self.endpoints_from_trace(&trace, arrivals)
    }

    /// Endpoint delays of an already-computed trace.
    fn endpoints_from_trace(
        &self,
        trace: &ToggleTrace,
        arrivals: &ClockArrivals,
    ) -> EndpointDelayReport {
        let n = self.netlist();
        let delay_ps = arrivals
            .iter()
            .map(|(f, t_clk)| {
                let d = n.flop(f).d;
                let delay = trace
                    .last_change_ps(d)
                    .map(|t| (t - t_clk).max(0.0))
                    .unwrap_or(0.0);
                (f, delay)
            })
            .collect();
        EndpointDelayReport { delay_ps }
    }

    /// The paper's §3.2 IR-drop-aware re-simulation: solves the pattern's
    /// dynamic IR-drop, scales every cell *and clock-tree buffer* delay by
    /// `1 + k_volt·ΔV`, and re-runs the endpoint timing. Returns
    /// `(nominal, scaled)` endpoint reports.
    pub fn endpoint_delays_scaled(
        &self,
        filled: &FilledPattern,
    ) -> (EndpointDelayReport, EndpointDelayReport) {
        self.endpoint_delays_scaled_k(filled, self.netlist().library.k_volt_per_volt)
    }

    /// [`PatternAnalyzer::endpoint_delays_scaled`] with an explicit
    /// delay-scaling coefficient (V⁻¹) instead of the library's
    /// calibrated `k_volt` — the timing screen's aggressive-derating
    /// sensitivity knob.
    pub fn endpoint_delays_scaled_k(
        &self,
        filled: &FilledPattern,
        k: f64,
    ) -> (EndpointDelayReport, EndpointDelayReport) {
        let trace = self.trace(filled);
        let nominal = self.endpoints_from_trace(&trace, &self.study.arrivals);
        let n = self.netlist();
        let dynir = DynamicAnalysis::new(n, &self.study.design.floorplan, self.study.grid);
        let map = dynir.analyze(&self.study.annotation, &trace);
        let scaled_ann = scaling::scale_annotation(
            &self.study.annotation,
            &map.gate_drops_total(),
            &map.flop_drops_total(),
            k,
        );
        let scaled_arrivals = self
            .study
            .clock_tree
            .arrivals_with_drop(|p| dynir.drop_at(&map, p), k);
        let scaled = self.endpoint_delays_with(filled, &scaled_ann, &scaled_arrivals);
        (nominal, scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_pattern(study: &CaseStudy, seed: u64) -> FilledPattern {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        FilledPattern {
            load: (0..study.design.netlist.num_flops())
                .map(|_| rng.gen())
                .collect(),
            pi: (0..study.design.netlist.primary_inputs().len())
                .map(|_| rng.gen())
                .collect(),
        }
    }

    #[test]
    fn random_pattern_produces_activity() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let p = random_pattern(&study, 1);
        let trace = an.trace(&p);
        assert!(trace.num_toggles() > 10);
        assert!(trace.stw_ps() > 0.0);
        let power = an.power_of_trace(&trace);
        assert!(power.chip_scap_vdd_mw() > 0.0);
        assert!(power.chip_scap_vdd_mw() >= power.chip_cap_vdd_mw());
    }

    /// The mechanism behind the paper's fill-0 procedure: loading 0s into
    /// a block's scan cells keeps that block's switching (and thus its
    /// SCAP contribution) down, on average over patterns.
    #[test]
    fn zeroing_b5_loads_reduces_b5_energy_on_average() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let b5 = study.design.block_named("B5").unwrap();
        let b5_flops: Vec<usize> = study
            .design
            .netlist
            .flops()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.block == b5)
            .map(|(i, _)| i)
            .collect();
        let mut with = 0.0;
        let mut without = 0.0;
        for seed in 0..6 {
            let p = random_pattern(&study, seed);
            with += an.power(&p).blocks[b5.index()].energy_vdd_fj;
            let mut zeroed = p.clone();
            for &i in &b5_flops {
                zeroed.load[i] = false;
            }
            without += an.power(&zeroed).blocks[b5.index()].energy_vdd_fj;
        }
        assert!(
            without < with,
            "zeroed-B5 energy {without} should be below random-B5 energy {with}"
        );
    }

    #[test]
    fn scaled_timing_slows_most_active_endpoints() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let p = random_pattern(&study, 3);
        let (nominal, scaled) = an.endpoint_delays_scaled(&p);
        assert_eq!(nominal.delay_ps.len(), scaled.delay_ps.len());
        let nom_max = nominal.max_delay_ps();
        let sc_max = scaled.max_delay_ps();
        assert!(nom_max > 0.0);
        assert!(
            sc_max >= nom_max * 0.99,
            "worst path should not speed up materially: {nom_max} -> {sc_max}"
        );
    }

    /// The batched profile equals the one-pattern path in every f64 bit,
    /// across the 64-lane boundaries and at one and three workers.
    #[test]
    fn power_profile_matches_per_pattern_power() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let bits = |p: &PatternPower| {
            let acc = |b: &scap_power::BlockPower| {
                [
                    b.energy_vdd_fj.to_bits(),
                    b.energy_vss_fj.to_bits(),
                    u64::from(b.toggles),
                ]
            };
            let mut v = vec![p.stw_ps.to_bits(), p.period_ps.to_bits()];
            v.extend(p.blocks.iter().chain([&p.chip]).flat_map(acc));
            v
        };
        let filled: Vec<FilledPattern> =
            (0..129).map(|s| random_pattern(&study, 100 + s)).collect();
        let single: Vec<Vec<u64>> = filled.iter().map(|f| bits(&an.power(f))).collect();
        for size in [1, 63, 64, 65, 129] {
            let set = PatternSet {
                filled: filled[..size].to_vec(),
                ..PatternSet::default()
            };
            for threads in [1, 3] {
                let profile = an.power_profile_on(Executor::with_threads(threads), &set);
                assert_eq!(profile.len(), size);
                for (i, p) in profile.iter().enumerate() {
                    assert!(
                        bits(p) == single[i],
                        "pattern {i} of {size} differs at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn ir_drop_map_has_positive_drop_for_random_pattern() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let m = an.ir_drop(&random_pattern(&study, 4));
        assert!(m.worst_drop_vdd() > 0.0);
    }
}
