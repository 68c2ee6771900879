//! The launch model: launch-off-capture (broadside) and launch-off-shift
//! two-frame semantics, and what a capture observes.
//!
//! A transition-fault pattern is a pair `(V1, V2)`:
//!
//! * **Launch-off-capture** (the paper's method): `V1` is the scan load;
//!   the launch clock captures the combinational response, so `V2`'s
//!   state is the next-state function applied to `V1`. Only the flops of
//!   the *active clock domain* are pulsed — the rest hold their loaded
//!   value (the paper generates patterns per clock domain).
//! * **Launch-off-shift**: `V2`'s state is `V1` shifted by one position
//!   along each scan chain, with the scan-in value (0) entering at the
//!   head. Unstitched flops hold their value.
//!
//! Primary inputs are held constant across both frames and primary outputs
//! are not observed (low-cost tester constraints, paper §2.4): the only
//! observation points are the D nets of the active domain's flops.
//!
//! [`LaunchModel`] states this rule once. The PODEM and SAT engines, the
//! fault simulator and the pattern analyzer all build one, and
//! [`SimTable::frames`](crate::SimTable::frames) applies it to any
//! [`SimValue`].

use crate::{FaultSite, SimValue, TransitionFault};
use scap_netlist::{ClockId, NetId, NetSource, Netlist};

/// How the second frame of a transition-fault pattern is launched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Launch-off-capture (broadside): frame 2 is the combinational
    /// response of the load (the paper's method).
    Capture,
    /// Launch-off-shift (skewed-load): frame 2 is the load shifted one
    /// position along every scan chain, scan-in tied to 0. Needs an
    /// at-speed scan-enable (paper §1.1).
    Shift,
}

/// Where a flop's frame-2 (launch) state comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State2Src {
    /// Launch-off-capture, active domain: captures frame 1's D value.
    FromD(NetId),
    /// Holds its own scan-load value (inactive domain / unstitched).
    Hold,
    /// Launch-off-shift: takes the upstream scan cell's load.
    LoadOf(u32),
    /// Launch-off-shift chain head: the constant scan-in (0).
    ScanIn,
}

/// The two stable frames of a transition pattern, one value per net
/// (see [`SimTable::frames`](crate::SimTable::frames)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frames<T> {
    /// Net values in frame 1 (after scan load, before launch).
    pub frame1: Vec<T>,
    /// Net values in frame 2 (after the launch edge).
    pub frame2: Vec<T>,
    /// Flop states in frame 2 (what launched).
    pub state2: Vec<T>,
}

/// The launch and observation rule of one clock domain and launch mode.
#[derive(Clone, Debug)]
pub struct LaunchModel {
    active_clock: ClockId,
    mode: LaunchMode,
    /// Frame-2 state source per flop.
    sources: Vec<State2Src>,
    /// Observation points: D nets of active-domain flops, flop order.
    observed: Vec<NetId>,
    /// Same, as a per-net mask.
    observed_mask: Vec<bool>,
    /// Per net: can it structurally reach an observation point?
    observable: Vec<bool>,
}

impl LaunchModel {
    /// Builds the model for `active_clock`'s flops under `mode`.
    pub fn new(netlist: &Netlist, active_clock: ClockId, mode: LaunchMode) -> Self {
        let upstream = scan_upstream(netlist);
        let sources = netlist
            .flops()
            .iter()
            .enumerate()
            .map(|(i, f)| match mode {
                LaunchMode::Capture if f.clock == active_clock => State2Src::FromD(f.d),
                LaunchMode::Shift if f.scan.is_some() => match upstream[i] {
                    Some(up) => State2Src::LoadOf(up),
                    None => State2Src::ScanIn,
                },
                _ => State2Src::Hold,
            })
            .collect();
        let observed: Vec<NetId> = netlist
            .flops()
            .iter()
            .filter(|f| f.clock == active_clock)
            .map(|f| f.d)
            .collect();
        let mut observed_mask = vec![false; netlist.num_nets()];
        for n in &observed {
            observed_mask[n.index()] = true;
        }
        // Backward reachability from the observation points over gate
        // inputs. Fault effects travel forward along exactly these edges,
        // so an effect entering outside the closure never reaches a
        // capture flop.
        let mut observable = observed_mask.clone();
        let mut work: Vec<u32> = observed.iter().map(|n| n.raw()).collect();
        while let Some(ni) = work.pop() {
            if let Some(NetSource::Gate(g)) = netlist.net(NetId::new(ni)).source {
                for &inp in &netlist.gate(g).inputs {
                    if !observable[inp.index()] {
                        observable[inp.index()] = true;
                        work.push(inp.raw());
                    }
                }
            }
        }
        LaunchModel {
            active_clock,
            mode,
            sources,
            observed,
            observed_mask,
            observable,
        }
    }

    /// The active (at-speed) clock domain.
    pub fn active_clock(&self) -> ClockId {
        self.active_clock
    }

    /// The launch mode.
    pub fn mode(&self) -> LaunchMode {
        self.mode
    }

    /// Frame-2 state source of every flop.
    pub fn sources(&self) -> &[State2Src] {
        &self.sources
    }

    /// The frame-2 flop states: each flop's [`State2Src`] applied to the
    /// scan load and the frame-1 net values.
    pub fn state2<T: SimValue>(&self, load: &[T], frame1: &[T]) -> Vec<T> {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, src)| match *src {
                State2Src::FromD(d) => frame1[d.index()],
                State2Src::Hold => load[i],
                State2Src::LoadOf(j) => load[j as usize],
                State2Src::ScanIn => T::constant(false),
            })
            .collect()
    }

    /// Observation points (D nets of active-domain flops), flop order.
    pub fn observation_points(&self) -> &[NetId] {
        &self.observed
    }

    /// Whether net `n` (raw index) is an observation point.
    #[inline]
    pub fn is_observed(&self, n: usize) -> bool {
        self.observed_mask[n]
    }

    /// Whether `fault`'s effect can structurally reach an observation
    /// point. Faults that cannot are undetectable and untestable without
    /// any simulation or search.
    #[inline]
    pub fn is_observable(&self, netlist: &Netlist, fault: TransitionFault) -> bool {
        // The effect enters the fanout cone on the net itself for a stem
        // fault, on the reading gate's output for a branch fault.
        let effect = match fault.site {
            FaultSite::Net(n) => n,
            FaultSite::Pin { gate, .. } => netlist.gate(gate).output,
        };
        self.observable[effect.index()]
    }
}

/// The upstream scan cell feeding each flop at the launch shift (`None`
/// at chain heads / unstitched flops).
fn scan_upstream(netlist: &Netlist) -> Vec<Option<u32>> {
    let mut by_chain: std::collections::HashMap<u16, Vec<(u32, u32)>> =
        std::collections::HashMap::new();
    for (i, f) in netlist.flops().iter().enumerate() {
        if let Some(role) = f.scan {
            by_chain
                .entry(role.chain)
                .or_default()
                .push((role.position, i as u32));
        }
    }
    let mut upstream = vec![None; netlist.num_flops()];
    for chain in by_chain.values_mut() {
        chain.sort_unstable();
        for w in chain.windows(2) {
            upstream[w[1].1 as usize] = Some(w[0].1);
        }
    }
    upstream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Polarity, SimTable};
    use scap_netlist::{CellKind, ClockEdge, FlopId, Logic, NetlistBuilder, ScanRole};

    /// Two domains: ff0 (clka) toggles itself through an inverter; ff1
    /// (clkb) also fed by an inverter from its own Q.
    fn two_domain() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let clka = b.add_clock_domain("clka", 100e6);
        let clkb = b.add_clock_domain("clkb", 50e6);
        let q0 = b.add_net("q0");
        let d0 = b.add_net("d0");
        let q1 = b.add_net("q1");
        let d1 = b.add_net("d1");
        b.add_gate(CellKind::Inv, &[q0], d0, blk).unwrap();
        b.add_gate(CellKind::Inv, &[q1], d1, blk).unwrap();
        b.add_flop("ff0", d0, q0, clka, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clkb, ClockEdge::Rising, blk)
            .unwrap();
        b.finish().unwrap()
    }

    fn frames(n: &Netlist, mode: LaunchMode, load: &[Logic]) -> Frames<Logic> {
        let launch = LaunchModel::new(n, ClockId::new(0), mode);
        SimTable::build(n).frames(&launch, load, &[])
    }

    #[test]
    fn loc_pulses_only_active_domain() {
        let n = two_domain();
        let frames = frames(&n, LaunchMode::Capture, &[Logic::Zero, Logic::Zero]);
        // ff0 launches 0 -> 1; ff1 holds its load.
        assert_eq!(frames.state2, vec![Logic::One, Logic::Zero]);
    }

    #[test]
    fn loc_batch_matches_scalar() {
        let n = two_domain();
        let launch = LaunchModel::new(&n, ClockId::new(0), LaunchMode::Capture);
        let table = SimTable::build(&n);
        let s = table.frames(&launch, &[Logic::One, Logic::Zero], &[]);
        let w = table.frames::<u64>(&launch, &[1, 0], &[]);
        for i in 0..n.num_nets() {
            assert_eq!(w.frame2[i] & 1 == 1, s.frame2[i] == Logic::One, "net {i}");
        }
    }

    #[test]
    fn los_shifts_along_chain() {
        let mut n = two_domain();
        n.set_scan_role(
            FlopId::new(0),
            ScanRole {
                chain: 0,
                position: 0,
            },
        );
        n.set_scan_role(
            FlopId::new(1),
            ScanRole {
                chain: 0,
                position: 1,
            },
        );
        let frames = frames(&n, LaunchMode::Shift, &[Logic::One, Logic::Zero]);
        // position 0 gets scan_in (0), position 1 gets old position 0 (1).
        assert_eq!(frames.state2, vec![Logic::Zero, Logic::One]);
    }

    #[test]
    fn los_without_scan_roles_holds_state() {
        let n = two_domain();
        let frames = frames(&n, LaunchMode::Shift, &[Logic::One, Logic::Zero]);
        assert_eq!(frames.state2, vec![Logic::One, Logic::Zero]);
    }

    #[test]
    fn x_loads_stay_x_through_launch() {
        let n = two_domain();
        let frames = frames(&n, LaunchMode::Capture, &[Logic::X, Logic::Zero]);
        assert_eq!(frames.state2[0], Logic::X);
    }

    #[test]
    fn only_the_active_domain_is_observed() {
        let n = two_domain();
        let launch = LaunchModel::new(&n, ClockId::new(0), LaunchMode::Capture);
        let (d0, d1) = (n.flop(FlopId::new(0)).d, n.flop(FlopId::new(1)).d);
        assert_eq!(launch.observation_points(), &[d0]);
        assert!(launch.is_observed(d0.index()) && !launch.is_observed(d1.index()));
        // q0 reaches d0 through the inverter; q1 only reaches clkb's d1.
        let (q0, q1) = (n.flop(FlopId::new(0)).q, n.flop(FlopId::new(1)).q);
        let fault = |net| TransitionFault::new(FaultSite::Net(net), Polarity::SlowToRise);
        assert!(launch.is_observable(&n, fault(q0)));
        assert!(!launch.is_observable(&n, fault(q1)));
    }
}
