//! Report types of the static timing analysis ([`crate::SlackSta`]):
//! per-endpoint timing and traced worst paths.

use scap_netlist::{FlopId, NetId, NetSource, Netlist};

/// Timing of one capture endpoint (a flop D pin).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndpointTiming {
    /// The capturing flop.
    pub flop: FlopId,
    /// Worst data arrival at the D pin, ps, measured from the launch clock
    /// edge at time 0.
    pub data_arrival_ps: f64,
    /// Required time: capture-clock arrival + period − setup, ps.
    pub required_ps: f64,
}

impl EndpointTiming {
    /// Slack in ps (negative = violation).
    #[inline]
    pub fn slack_ps(&self) -> f64 {
        self.required_ps - self.data_arrival_ps
    }
}

/// Walks back from an endpoint's D net through the max-arrival
/// predecessor at every gate until a launch point (flop Q, primary input
/// or constant). Arrival ties resolve to the lowest net id so the traced
/// path is unique. Returns `(net, arrival)` pairs, launch first.
pub(crate) fn trace_path(
    netlist: &Netlist,
    arrival_ps: impl Fn(NetId) -> f64,
    endpoint: FlopId,
) -> Vec<(NetId, f64)> {
    let mut nets = Vec::new();
    let mut net = netlist.flop(endpoint).d;
    loop {
        nets.push((net, arrival_ps(net)));
        match netlist.net(net).source {
            Some(NetSource::Gate(g)) => {
                let gate = netlist.gate(g);
                net = gate
                    .inputs
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        arrival_ps(*b)
                            .total_cmp(&arrival_ps(*a))
                            .then_with(|| a.index().cmp(&b.index()))
                    })
                    .expect("gates have inputs");
            }
            _ => break,
        }
    }
    nets.reverse();
    nets
}

/// One traced timing path, launch to capture.
#[derive(Clone, Debug)]
pub struct PathReport {
    /// The capturing flop.
    pub endpoint: FlopId,
    /// Data arrival at the endpoint, ps.
    pub data_arrival_ps: f64,
    /// Endpoint slack, ps.
    pub slack_ps: f64,
    /// `(net, arrival)` along the path, launch first.
    pub nets: Vec<(NetId, f64)>,
}

impl PathReport {
    /// Logic depth of the path (number of gate stages).
    pub fn depth(&self) -> usize {
        self.nets.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockTree, DelayAnnotation, SlackSta};
    use scap_netlist::{
        CellKind, ClockEdge, ClockId, Die, Floorplan, NetlistBuilder, Placement, Point, Rect,
    };

    /// Two flops with a 3-inverter chain between them.
    fn pipeline() -> (Netlist, Floorplan) {
        let mut b = NetlistBuilder::new("p");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let pi = b.add_primary_input("pi");
        let q0 = b.add_net("q0");
        let mut prev = q0;
        let mut gate_count = 0;
        for i in 0..3 {
            let y = b.add_net(format!("y{i}"));
            b.add_gate(CellKind::Inv, &[prev], y, blk).unwrap();
            gate_count += 1;
            prev = y;
        }
        let q1 = b.add_net("q1");
        b.add_flop("ff0", pi, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", prev, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            Placement::new(
                vec![Point::new(50.0, 50.0); gate_count],
                vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)],
            ),
        );
        (n, fp)
    }

    #[test]
    fn arrival_accumulates_along_chain() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = SlackSta::run(&n, &ann, &tree.arrivals());
        // ff1's D input should arrive later than ff0's Q.
        let q0 = n.flop(FlopId::new(0)).q;
        let d1 = n.flop(FlopId::new(1)).d;
        assert!(sta.arrival_ps(d1) > sta.arrival_ps(q0));
        assert_eq!(sta.endpoints().len(), 2);
    }

    #[test]
    fn slack_positive_for_short_pipeline_at_100mhz() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = SlackSta::run(&n, &ann, &tree.arrivals());
        assert!(sta.worst_slack_ps().unwrap() > 0.0);
        assert!(sta.critical_path_ps() > 0.0);
    }

    #[test]
    fn worst_paths_are_sorted_and_monotone() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = SlackSta::run(&n, &ann, &tree.arrivals());
        let paths = sta.worst_paths(&n, 2);
        assert_eq!(paths.len(), 2);
        assert!(paths[0].slack_ps <= paths[1].slack_ps);
        // Arrivals increase along the path.
        let worst = &paths[0];
        assert!(worst.depth() >= 1);
        for w in worst.nets.windows(2) {
            assert!(w[0].1 <= w[1].1, "{:?}", worst.nets);
        }
        // The path's final arrival is the endpoint arrival.
        assert!((worst.nets.last().unwrap().1 - worst.data_arrival_ps).abs() < 1e-9);
    }

    #[test]
    fn worst_paths_break_arrival_ties_by_flop_id() {
        // Two flops capturing the same net at the same clock arrival have
        // exactly the same data arrival and slack; the report must list
        // the lower flop id first, every run.
        let mut b = NetlistBuilder::new("tie");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let pi = b.add_primary_input("pi");
        let q0 = b.add_net("q0");
        let y = b.add_net("y");
        b.add_gate(CellKind::Inv, &[q0], y, blk).unwrap();
        let qa = b.add_net("qa");
        let qb = b.add_net("qb");
        b.add_flop("ff0", pi, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ffa", y, qa, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ffb", y, qb, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            Placement::new(
                vec![Point::new(50.0, 50.0)],
                vec![Point::new(50.0, 50.0); 3],
            ),
        );
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let sta = SlackSta::run(&n, &ann, &tree.arrivals());
        let paths = sta.worst_paths(&n, 3);
        assert_eq!(paths[0].data_arrival_ps, paths[1].data_arrival_ps);
        assert_eq!(paths[0].slack_ps, paths[1].slack_ps);
        assert!(paths[0].endpoint.index() < paths[1].endpoint.index());
    }

    #[test]
    fn scaled_delays_reduce_slack() {
        let (n, fp) = pipeline();
        let ann = DelayAnnotation::extract(&n, &fp);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let slow = crate::scaling::scale_annotation(
            &ann,
            &vec![0.3; n.num_gates()],
            &vec![0.3; n.num_flops()],
            n.library.k_volt_per_volt,
        );
        let fast = SlackSta::run(&n, &ann, &tree.arrivals());
        let slow = SlackSta::run(&n, &slow, &tree.arrivals());
        assert!(slow.worst_slack_ps().unwrap() < fast.worst_slack_ps().unwrap());
    }
}
