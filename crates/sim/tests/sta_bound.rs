//! Kernel-vs-oracle property for static timing: on random netlists with
//! random placements, the event-driven timing simulator's last-transition
//! timestamp at every net must stay at or below the [`SlackSta`] arrival
//! bound — the same differential pattern `kernel_equivalence.rs` applies
//! to the fault-propagation kernel. STA over-approximates (max-delay edge
//! per gate, worst input arrival); the event sim takes the real rise/fall
//! edge for the value actually switching, so equality only occurs when
//! the critical edge is the one that fires.

use proptest::prelude::*;
use scap_netlist::{
    CellKind, ClockEdge, ClockId, Die, Floorplan, FlopId, Logic, NetId, Netlist, NetlistBuilder,
    Placement, Point, Rect,
};
use scap_sim::{EventSim, LaunchMode, LaunchModel, SimTable};
use scap_timing::{ClockTree, DelayAnnotation, SlackSta};

/// Slack allowed for femtosecond rounding inside the event queue (one
/// half-femtosecond per hop, paths stay well under 200 stages).
const EPS_PS: f64 = 0.1;

/// Strategy: a random acyclic netlist plus a random placement, so the
/// extracted (distance-dependent, non-uniform) delays are exercised
/// rather than a flat unit-delay annotation.
fn arb_placed_netlist(max_gates: usize) -> impl Strategy<Value = (Netlist, Floorplan)> {
    (2usize..6, 5usize..max_gates.max(6), any::<u64>()).prop_map(|(n_ff, n_gates, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("sta_bound");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let mut pool = vec![b.add_primary_input("pi0"), b.add_primary_input("pi1")];
        let qs: Vec<NetId> = (0..n_ff).map(|i| b.add_net(format!("q{i}"))).collect();
        pool.extend(qs.iter().copied());
        let kinds = [
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Buf,
            CellKind::Inv,
        ];
        let mut outs = Vec::new();
        for i in 0..n_gates {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let y = b.add_net(format!("w{i}"));
            let a = pool[rng.gen_range(0..pool.len())];
            if matches!(kind, CellKind::Buf | CellKind::Inv) {
                b.add_gate(kind, &[a], y, blk).unwrap();
            } else {
                let c = pool[rng.gen_range(0..pool.len())];
                b.add_gate(kind, &[a, c], y, blk).unwrap();
            }
            pool.push(y);
            outs.push(y);
        }
        for (i, &q) in qs.iter().enumerate() {
            let d = outs[rng.gen_range(0..outs.len())];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        let n = b.finish().unwrap();
        let mut point = |_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            Placement::new(
                (0..n.num_gates()).map(&mut point).collect(),
                (0..n.num_flops()).map(&mut point).collect(),
            ),
        );
        (n, fp)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every transition the event simulator produces happens at or before
    /// the static arrival bound of its net, and only on nets STA marks
    /// reachable from a launch point.
    #[test]
    fn event_sim_never_beats_the_sta_arrival_bound(
        (n, fp) in arb_placed_netlist(24),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let arrivals = tree.arrivals();
        let sta = SlackSta::run(&n, &ann, &arrivals);

        // A random fully-specified broadside pattern.
        let load: Vec<Logic> = (0..n.num_flops())
            .map(|_| if rng.gen() { Logic::One } else { Logic::Zero })
            .collect();
        let pi: Vec<Logic> = (0..n.primary_inputs().len())
            .map(|_| if rng.gen() { Logic::One } else { Logic::Zero })
            .collect();
        let launch = LaunchModel::new(&n, ClockId::new(0), LaunchMode::Capture);
        let frames = SimTable::build(&n).frames(&launch, &load, &pi);
        let frame1: Vec<bool> = frames
            .frame1
            .iter()
            .map(|v| v.to_bool().expect("fully-specified pattern"))
            .collect();
        let mut launches = Vec::new();
        for (i, loaded) in load.iter().enumerate() {
            let f = FlopId::new(i as u32);
            let new_q = frames.state2[i].to_bool().expect("specified state");
            if new_q != loaded.to_bool().expect("specified load") {
                let t_clk = arrivals.arrival_ps(f).expect("single-domain design");
                launches.push((f, new_q, t_clk + ann.flop_clk_to_q_ps(f)));
            }
        }
        let trace = EventSim::new(&n, &ann).run(&frame1, &launches);

        for i in 0..n.num_nets() {
            let net = NetId::new(i as u32);
            if let Some(t) = trace.last_change_ps(net) {
                prop_assert!(
                    sta.is_reachable(net),
                    "net {i} toggled but STA calls it unreachable from any launch"
                );
                prop_assert!(
                    t <= sta.arrival_ps(net) + EPS_PS,
                    "net {i} toggled at {t} ps, past the STA bound {} ps",
                    sta.arrival_ps(net)
                );
            }
        }
    }
}
