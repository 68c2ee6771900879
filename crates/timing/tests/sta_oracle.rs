//! Differential test of [`SlackSta`]'s forward pass against a plain
//! forward-only longest-path analysis.
//!
//! The reference below is the classic max-arrival STA: every in-domain
//! flop Q launches at its clock arrival + clock-to-Q, flops outside the
//! domain and primary inputs launch at time 0, and each gate output
//! arrives at its latest input plus the gate's worst-edge delay. It has
//! no backward pass, no reachability and no path tracing, so it stays
//! small enough to trust by reading. The property drives random
//! levelized netlists over two clock domains, with random rise/fall and
//! clock-to-Q delays and a clock tree whose buffer delays are randomized
//! to skew the capture arrivals, through both analyses and demands
//! bit-identical arrivals at every net and at every endpoint.

use proptest::prelude::*;
use scap_netlist::{
    CellKind, ClockEdge, ClockId, Die, Floorplan, Levelization, NetId, Netlist, NetlistBuilder,
    Placement, Point, Rect,
};
use scap_timing::{ClockArrivals, ClockTree, DelayAnnotation, EndpointTiming, SlackSta};

/// Forward-only reference: per-net worst arrival and the endpoint report.
struct ForwardSta {
    arrival_ps: Vec<f64>,
    endpoints: Vec<EndpointTiming>,
}

impl ForwardSta {
    fn run(netlist: &Netlist, annotation: &DelayAnnotation, clocks: &ClockArrivals) -> Self {
        let mut arrival_ps = vec![0.0f64; netlist.num_nets()];
        for (f, t_clk) in clocks.iter() {
            arrival_ps[netlist.flop(f).q.index()] = t_clk + annotation.flop_clk_to_q_ps(f);
        }
        for &g in Levelization::build(netlist).order() {
            let gate = netlist.gate(g);
            let worst_in = gate
                .inputs
                .iter()
                .map(|n| arrival_ps[n.index()])
                .fold(0.0f64, f64::max);
            arrival_ps[gate.output.index()] = worst_in + annotation.gate_delay_ps(g);
        }
        let period_ps = clocks
            .iter()
            .next()
            .map(|(f, _)| netlist.clock(netlist.flop(f).clock).period_ps())
            .unwrap_or(0.0);
        let setup = netlist.library.flop().setup_ps;
        let endpoints = clocks
            .iter()
            .map(|(f, t_clk)| EndpointTiming {
                flop: f,
                data_arrival_ps: arrival_ps[netlist.flop(f).d.index()],
                required_ps: t_clk + period_ps - setup,
            })
            .collect();
        ForwardSta {
            arrival_ps,
            endpoints,
        }
    }

    fn critical_path_ps(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|e| e.data_arrival_ps)
            .fold(0.0, f64::max)
    }
}

/// A random levelized netlist over two clock domains (flop 0 is always
/// in domain 0), with gates of every arity drawing on primary inputs, a
/// constant, flop outputs and earlier gate outputs, and a random
/// placement on a 5 mm die, wide enough that the clock stubs alone skew
/// the arrivals by hundreds of ps.
fn random_design(seed: u64, n_ff: usize, n_gates: usize) -> (Netlist, Floorplan) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new("sta_oracle");
    let blk = b.add_block("B1");
    let clocks = [
        b.add_clock_domain("clka", 100e6),
        b.add_clock_domain("clkb", 250e6),
    ];
    let mut pool = vec![
        b.add_primary_input("pi0"),
        b.add_primary_input("pi1"),
        b.add_const("tie1", true),
    ];
    let qs: Vec<NetId> = (0..n_ff).map(|i| b.add_net(format!("q{i}"))).collect();
    pool.extend(qs.iter().copied());
    let kinds = [
        CellKind::Buf,
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor3,
        CellKind::Xor2,
        CellKind::Mux2,
        CellKind::Aoi22,
        CellKind::Oai22,
    ];
    let mut outs = Vec::new();
    for i in 0..n_gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let inputs: Vec<NetId> = (0..kind.num_inputs())
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let y = b.add_net(format!("w{i}"));
        b.add_gate(kind, &inputs, y, blk).unwrap();
        pool.push(y);
        outs.push(y);
    }
    for (i, &q) in qs.iter().enumerate() {
        let d = outs[rng.gen_range(0..outs.len())];
        let clock = if i == 0 {
            clocks[0]
        } else {
            clocks[rng.gen_range(0..2)]
        };
        b.add_flop(format!("ff{i}"), d, q, clock, ClockEdge::Rising, blk)
            .unwrap();
    }
    let n = b.finish().unwrap();
    let mut point = |_| Point::new(rng.gen_range(0.0..5000.0), rng.gen_range(0.0..5000.0));
    let fp = Floorplan::new(
        &n,
        Die::square(5000.0),
        vec![Rect::new(0.0, 0.0, 5000.0, 5000.0)],
        Placement::new(
            (0..n.num_gates()).map(&mut point).collect(),
            (0..n.num_flops()).map(&mut point).collect(),
        ),
    );
    (n, fp)
}

/// Random rise/fall and clock-to-Q delays, and domain-0 clock arrivals
/// further skewed by random buffer delays (designs with more than one
/// leaf region get more than one buffer).
fn random_timing(n: &Netlist, fp: &Floorplan, seed: u64) -> (DelayAnnotation, ClockArrivals) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ann = DelayAnnotation::extract(n, fp);
    let (rise, fall, clk_to_q) = ann.delays_mut();
    for d in rise.iter_mut().chain(fall.iter_mut()) {
        *d = rng.gen_range(3.0..120.0);
    }
    for d in clk_to_q.iter_mut() {
        *d = rng.gen_range(20.0..90.0);
    }
    let mut tree = ClockTree::synthesize(n, fp, ClockId::new(0));
    for i in 0..tree.num_buffers() {
        tree.buffer_mut(i as u32).delay_ps = rng.gen_range(0.0..400.0);
    }
    (ann, tree.arrivals())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `SlackSta`'s arrivals, endpoint report and critical path equal the
    /// forward-only reference in f64 bits.
    #[test]
    fn forward_pass_matches_sta_oracle(
        net_seed in any::<u64>(),
        timing_seed in any::<u64>(),
        flops in 2usize..40,
        gates in 4usize..60,
    ) {
        let (n, fp) = random_design(net_seed, flops, gates);
        let (ann, clocks) = random_timing(&n, &fp, timing_seed);
        let sta = SlackSta::run(&n, &ann, &clocks);
        let oracle = ForwardSta::run(&n, &ann, &clocks);
        for (i, &t) in oracle.arrival_ps.iter().enumerate() {
            let got = sta.arrival_ps(NetId::new(i as u32));
            prop_assert_eq!(got.to_bits(), t.to_bits(), "net {}", i);
        }
        prop_assert_eq!(sta.endpoints().len(), oracle.endpoints.len());
        for (got, want) in sta.endpoints().iter().zip(&oracle.endpoints) {
            prop_assert_eq!(got.flop, want.flop);
            prop_assert_eq!(got.data_arrival_ps.to_bits(), want.data_arrival_ps.to_bits());
            prop_assert_eq!(got.required_ps.to_bits(), want.required_ps.to_bits());
        }
        prop_assert_eq!(
            sta.critical_path_ps().to_bits(),
            oracle.critical_path_ps().to_bits()
        );
    }
}

/// The generated cases are the ones the property claims to cover: in
/// most of them the clock arrivals are skewed, and flops sit outside the
/// analyzed domain, launching at time 0 and reporting no endpoint.
#[test]
fn generated_cases_skew_clocks_and_span_two_domains() {
    let (mut skewed, mut split) = (0, 0);
    for seed in 0..32u64 {
        let (n, fp) = random_design(seed, 2 + seed as usize, 40);
        let (_, clocks) = random_timing(&n, &fp, seed);
        skewed += usize::from(clocks.skew_ps() > 50.0);
        split += usize::from(clocks.iter().count() < n.num_flops());
    }
    assert!(skewed >= 24, "{skewed} of 32 designs have skewed clocks");
    assert!(split >= 24, "{split} of 32 designs span two domains");
}
