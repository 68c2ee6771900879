//! Event-driven gate-level timing simulation.
//!
//! This is the VCS-with-SDF substitute: starting from a stable frame-1
//! state, flop outputs toggle at their (clock arrival + clock-to-Q) times
//! and events propagate through gates with annotated rise/fall delays.
//! The default semantics are inertial — pulses narrower than a gate's
//! propagation delay are swallowed, as in real silicon — while glitches
//! wide enough to pass are modeled and counted (they draw real charge);
//! [`EventSim::with_transport_delays`] propagates everything instead. The
//! resulting [`ToggleTrace`] is the input to the SCAP calculator and to
//! dynamic IR-drop analysis, and its latest event defines the pattern's
//! **switching time window (STW)**.
//!
//! The kernel runs on the flattened [`SimTable`]: fanout gates come from
//! its CSR arrays (the netlist's per-net fanout order, so events are
//! scheduled in the same order), gates are evaluated through its truth
//! tables, and the per-gate rise/fall delays are converted to integer
//! femtoseconds once, when the simulator is built. Queue entries are
//! single packed `u128` keys that pop in `(time, sequence)` order, and
//! inertially cancelled entries are flagged in a vector indexed by
//! sequence number. [`EventScratch`] holds the working set so a pattern
//! loop allocates it once.

use crate::SimTable;
use scap_netlist::{FlopId, GateId, Logic, NetId};
use scap_timing::DelayAnnotation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One net transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ToggleEvent {
    /// Event time in picoseconds after the launch clock edge at the root.
    pub time_ps: f64,
    /// The toggling net.
    pub net: NetId,
    /// `true` for a 0→1 transition (draws charge from VDD), `false` for
    /// 1→0 (dumps charge into VSS).
    pub rising: bool,
}

/// The switching activity of one pattern's launch-to-capture window.
#[derive(Clone, Debug, Default)]
pub struct ToggleTrace {
    /// All transitions, in non-decreasing time order.
    pub events: Vec<ToggleEvent>,
    last_change_ps: Vec<f64>,
    truncated: bool,
}

impl ToggleTrace {
    /// The switching time window: the time of the last transition, ps.
    /// Returns 0 for a quiescent pattern.
    pub fn stw_ps(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.time_ps)
    }

    /// Time of the last transition on `net`, or `None` if it never toggled.
    pub fn last_change_ps(&self, net: NetId) -> Option<f64> {
        let t = self.last_change_ps[net.index()];
        (t >= 0.0).then_some(t)
    }

    /// Total number of transitions.
    pub fn num_toggles(&self) -> usize {
        self.events.len()
    }

    /// `true` when the run stopped at the simulator's event budget with
    /// live events still queued. The trace is then only a prefix of the
    /// pattern's activity, so its STW, toggle counts and switched energy
    /// are lower bounds, not measurements. Each such run also adds one to
    /// the `sim.event_truncations` counter.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Rising / falling transition counts per net.
    pub fn toggle_counts(&self, num_nets: usize) -> Vec<(u32, u32)> {
        let mut counts = vec![(0u32, 0u32); num_nets];
        for e in &self.events {
            let c = &mut counts[e.net.index()];
            if e.rising {
                c.0 += 1;
            } else {
                c.1 += 1;
            }
        }
        counts
    }
}

/// A queued event packed as `time_fs << 64 | seq << 32 | value << 31 |
/// net`: integer order is `(time, seq)` order, and `seq` is unique.
type Key = u128;

const NET_MASK: u32 = (1 << 31) - 1;

#[inline]
fn pack(time_fs: u64, seq: u32, net: u32, value: bool) -> Key {
    (Key::from(time_fs) << 64) | (Key::from(seq) << 32) | (Key::from(value) << 31) | Key::from(net)
}

#[inline]
fn seq_of(key: Key) -> u32 {
    (key >> 32) as u32
}

/// The latest still-pending scheduled event per net, for inertial
/// (pulse-filtering) delay semantics.
#[derive(Clone, Copy, Debug)]
struct Pending {
    time_fs: u64,
    seq: u32,
    value: bool,
}

/// Working buffers of [`EventSim::run_with`]. Reusable across runs and
/// simulators; nothing in it carries over from one run to the next.
#[derive(Debug, Default)]
pub struct EventScratch {
    value: Vec<Logic>,
    pending: Vec<Option<Pending>>,
    queue: BinaryHeap<Reverse<Key>>,
    /// Indexed by sequence number: the entry was swallowed inertially.
    cancelled: Vec<bool>,
}

/// Event-driven simulator bound to a [`SimTable`] + delay annotation.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, FlopId};
/// # use scap_timing::DelayAnnotation;
/// # fn demo(netlist: &Netlist, ann: &DelayAnnotation, frame1: Vec<bool>) {
/// use scap_sim::{EventSim, SimTable};
/// let table = SimTable::build(netlist);
/// let sim = EventSim::new(&table, ann);
/// // ff0 launches a rising edge 450 ps after the root clock edge:
/// let trace = sim.run(&frame1, &[(FlopId::new(0), true, 450.0)]);
/// println!("STW = {} ps, {} toggles", trace.stw_ps(), trace.num_toggles());
/// # }
/// ```
#[derive(Debug)]
pub struct EventSim<'a> {
    table: &'a SimTable,
    /// Per-gate delays in fs, `[fall, rise]` at `2 * g + rising`.
    delay_fs: Vec<u64>,
    /// Sequence numbers stay below this, so one more fanout's pushes
    /// cannot overflow the key's 32-bit field.
    seq_cap: u32,
    /// Hard cap on processed events, to bound pathological reconvergence.
    max_events: usize,
    /// Inertial-delay semantics: output pulses narrower than the driving
    /// gate's propagation delay are swallowed, as real gates do. Transport
    /// semantics (every glitch propagates) are available for analysis.
    inertial: bool,
}

impl<'a> EventSim<'a> {
    /// Creates a simulator with inertial delays and a default event budget
    /// of `64 × nets`.
    ///
    /// # Panics
    ///
    /// Panics if `annotation` does not have one delay per gate of `table`,
    /// or the table has 2³¹ nets or more.
    pub fn new(table: &'a SimTable, annotation: &DelayAnnotation) -> Self {
        assert_eq!(
            annotation.num_gates(),
            table.num_gates(),
            "one delay per gate"
        );
        assert!(
            table.num_nets() <= NET_MASK as usize,
            "net ids must fit 31 bits"
        );
        let delay_fs = (0..table.num_gates() as u32)
            .flat_map(|g| {
                let g = GateId::new(g);
                [annotation.gate_fall_ps(g), annotation.gate_rise_ps(g)].map(ps_to_fs)
            })
            .collect();
        let max_fanout = (0..table.num_nets())
            .map(|n| table.fanout(n).len())
            .max()
            .unwrap_or(0);
        EventSim {
            table,
            delay_fs,
            seq_cap: u32::MAX - max_fanout as u32,
            max_events: table.num_nets().saturating_mul(64).max(1 << 16),
            inertial: true,
        }
    }

    /// Overrides the event budget.
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Selects transport-delay semantics (every pulse propagates, however
    /// narrow). Useful to expose worst-case glitch activity.
    pub fn with_transport_delays(mut self) -> Self {
        self.inertial = false;
        self
    }

    /// Runs the launch-to-capture window.
    ///
    /// * `frame1` — stable pre-launch value of every net,
    /// * `launches` — `(flop, new Q value, Q transition time in ps)` for
    ///   every flop whose Q changes at the launch edge (typically
    ///   clock-arrival + clock-to-Q of the active domain's flops whose
    ///   frame-2 state differs from the load).
    ///
    /// Launches whose value equals the current Q value are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `frame1.len()` differs from the net count.
    pub fn run(&self, frame1: &[bool], launches: &[(FlopId, bool, f64)]) -> ToggleTrace {
        self.run_with(&mut EventScratch::default(), frame1, launches)
    }

    /// [`EventSim::run`] on caller-owned working buffers.
    ///
    /// # Panics
    ///
    /// Panics if `frame1.len()` differs from the net count.
    pub fn run_with(
        &self,
        scratch: &mut EventScratch,
        frame1: &[bool],
        launches: &[(FlopId, bool, f64)],
    ) -> ToggleTrace {
        let t = self.table;
        let num_nets = t.num_nets();
        assert_eq!(frame1.len(), num_nets, "one value per net");
        assert!(launches.len() < self.seq_cap as usize, "too many launches");
        let EventScratch {
            value,
            pending,
            queue,
            cancelled,
        } = scratch;
        value.clear();
        value.extend(frame1.iter().map(|&b| Logic::from(b)));
        pending.clear();
        pending.resize(num_nets, None);
        queue.clear();
        cancelled.clear();
        let mut last_change = vec![-1.0f64; num_nets];
        let mut events = Vec::new();
        let mut seq = 0u32;
        for &(flop, val, t_ps) in launches {
            let q = t.flop_q()[flop.index()];
            let time_fs = ps_to_fs(t_ps);
            queue.push(Reverse(pack(time_fs, seq, q, val)));
            cancelled.push(false);
            pending[q as usize] = Some(Pending {
                time_fs,
                seq,
                value: val,
            });
            seq += 1;
        }
        let mut processed = 0usize;
        let mut truncated = false;
        while let Some(Reverse(key)) = queue.pop() {
            let ev_seq = seq_of(key);
            if processed >= self.max_events || seq >= self.seq_cap {
                let live = |s: u32| !(self.inertial && cancelled[s as usize]);
                truncated = live(ev_seq) || queue.iter().any(|&Reverse(k)| live(seq_of(k)));
                break;
            }
            if self.inertial && cancelled[ev_seq as usize] {
                continue; // swallowed pulse edge
            }
            processed += 1;
            let time_fs = (key >> 64) as u64;
            let rising = (key >> 31) & 1 == 1;
            let idx = (key as u32 & NET_MASK) as usize;
            if pending[idx].is_some_and(|p| p.seq == ev_seq) {
                pending[idx] = None;
            }
            let new = Logic::from(rising);
            if value[idx] == new {
                continue; // no change
            }
            value[idx] = new;
            let t_ps = fs_to_ps(time_fs);
            last_change[idx] = t_ps;
            events.push(ToggleEvent {
                time_ps: t_ps,
                net: NetId::new(idx as u32),
                rising,
            });
            for &g in t.fanout(idx) {
                let g = g as usize;
                let out = t.eval_plane(g, value) == Logic::One;
                let delay_fs = self.delay_fs[2 * g + usize::from(out)];
                let at = time_fs.saturating_add(delay_fs);
                let out_net = t.output(g);
                let slot = &mut pending[out_net as usize];
                if self.inertial {
                    if let Some(p) = *slot {
                        if p.time_fs >= time_fs {
                            if p.value == out {
                                continue; // already heading to this value
                            }
                            if at.saturating_sub(p.time_fs) < delay_fs {
                                // The pulse between the pending edge and
                                // this one is narrower than the gate can
                                // pass: swallow both edges.
                                cancelled[p.seq as usize] = true;
                                *slot = None;
                                continue;
                            }
                        }
                    }
                }
                queue.push(Reverse(pack(at, seq, out_net, out)));
                cancelled.push(false);
                *slot = Some(Pending {
                    time_fs: at,
                    seq,
                    value: out,
                });
                seq += 1;
            }
        }
        scap_obs::counter!("sim.event_runs").incr();
        scap_obs::counter!("sim.toggle_events").add(events.len() as u64);
        scap_obs::counter!("sim.event_truncations").add(u64::from(truncated));
        // The queue pops in time order and every push lands at or after
        // the popped time, so events are already time-sorted.
        ToggleTrace {
            events,
            last_change_ps: last_change,
            truncated,
        }
    }
}

#[inline]
fn ps_to_fs(ps: f64) -> u64 {
    (ps * 1000.0).round().max(0.0) as u64
}

#[inline]
fn fs_to_ps(fs: u64) -> f64 {
    fs as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaunchMode, LaunchModel, SimTable};
    use scap_netlist::{CellKind, ClockEdge, ClockId, GateId, Netlist, NetlistBuilder};

    /// ff0 -> inv -> inv -> ff1 (chain of 2 inverters).
    fn chain() -> Netlist {
        let mut b = NetlistBuilder::new("c");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q0 = b.add_net("q0");
        let w = b.add_net("w");
        let d1 = b.add_net("d1");
        let q1 = b.add_net("q1");
        let d0 = b.add_net("d0");
        b.add_gate(CellKind::Inv, &[q0], w, blk).unwrap();
        b.add_gate(CellKind::Inv, &[w], d1, blk).unwrap();
        b.add_gate(CellKind::Buf, &[q0], d0, blk).unwrap();
        b.add_flop("ff0", d0, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.finish().unwrap()
    }

    fn stable_frame1(n: &Netlist, q0: bool) -> Vec<bool> {
        let launch = LaunchModel::new(n, ClockId::new(0), LaunchMode::Capture);
        let frames = SimTable::build(n).frames(&launch, &[q0 as u64, 0], &[]);
        (0..n.num_nets())
            .map(|i| frames.frame1[i] & 1 == 1)
            .collect()
    }

    #[test]
    fn transition_ripples_down_the_chain() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let table = SimTable::build(&n);
        let sim = EventSim::new(&table, &ann);
        let frame1 = stable_frame1(&n, false);
        let trace = sim.run(&frame1, &[(FlopId::new(0), true, 500.0)]);
        // q0, w, d1 and d0 all toggle: 4 events.
        assert_eq!(trace.num_toggles(), 4);
        let q0 = n.flop(FlopId::new(0)).q;
        let d1 = n.flop(FlopId::new(1)).d;
        assert_eq!(trace.last_change_ps(q0), Some(500.0));
        let t_d1 = trace.last_change_ps(d1).unwrap();
        let expect = 500.0 + ann.gate_fall_ps(GateId::new(0)) + ann.gate_rise_ps(GateId::new(1));
        assert!((t_d1 - expect).abs() < 1e-6, "{t_d1} vs {expect}");
        assert_eq!(
            trace.stw_ps(),
            t_d1.max(trace.last_change_ps(n.flop(FlopId::new(0)).d).unwrap())
        );
    }

    #[test]
    fn no_launch_means_quiescent_trace() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let table = SimTable::build(&n);
        let sim = EventSim::new(&table, &ann);
        let frame1 = stable_frame1(&n, false);
        let trace = sim.run(&frame1, &[]);
        assert_eq!(trace.num_toggles(), 0);
        assert_eq!(trace.stw_ps(), 0.0);
        assert_eq!(trace.last_change_ps(n.flop(FlopId::new(1)).d), None);
    }

    #[test]
    fn launch_to_current_value_is_ignored() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let table = SimTable::build(&n);
        let sim = EventSim::new(&table, &ann);
        let frame1 = stable_frame1(&n, true);
        // q0 is already 1; "launching" 1 changes nothing.
        let trace = sim.run(&frame1, &[(FlopId::new(0), true, 500.0)]);
        assert_eq!(trace.num_toggles(), 0);
    }

    #[test]
    fn glitches_are_counted() {
        // y = a XOR b with different path delays: launch a and b together
        // through paths of different length to y -> glitch on y.
        let mut b = NetlistBuilder::new("g");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q0 = b.add_net("q0");
        let q1 = b.add_net("q1");
        let slow = b.add_net("slow");
        let slow2 = b.add_net("slow2");
        let y = b.add_net("y");
        let d0 = b.add_net("d0");
        let d1 = b.add_net("d1");
        b.add_gate(CellKind::Buf, &[q0], slow, blk).unwrap();
        b.add_gate(CellKind::Buf, &[slow], slow2, blk).unwrap();
        b.add_gate(CellKind::Xor2, &[slow2, q1], y, blk).unwrap();
        b.add_gate(CellKind::Buf, &[q0], d0, blk).unwrap();
        b.add_gate(CellKind::Buf, &[q1], d1, blk).unwrap();
        b.add_flop("ff0", d0, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        let n = b.finish().unwrap();
        let ann = DelayAnnotation::unit_wire(&n);
        let table = SimTable::build(&n);
        let sim = EventSim::new(&table, &ann);
        // frame1: q0 = 0, q1 = 0 -> y = 0. Launch both rising at t = 500.
        let frame1 = vec![false; n.num_nets()];
        let trace = sim.run(
            &frame1,
            &[(FlopId::new(0), true, 500.0), (FlopId::new(1), true, 500.0)],
        );
        // y rises when q1 arrives, then falls when the slow path arrives:
        // two toggles on y despite identical start/end value.
        let y_toggles = trace.events.iter().filter(|e| e.net == y).count();
        assert_eq!(y_toggles, 2, "glitch must be visible");
        let (rise, fall) = trace.toggle_counts(n.num_nets())[y.index()];
        assert_eq!((rise, fall), (1, 1));
    }

    /// A pulse narrower than the consuming gate's propagation delay is
    /// swallowed under inertial semantics but passes under transport.
    #[test]
    fn narrow_pulse_is_swallowed_inertially() {
        // Two launches on the same flop in quick succession create a
        // 40 ps pulse on q0, far below the buffer delay.
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let table = SimTable::build(&n);
        let frame1 = stable_frame1(&n, false);
        let pulse = [
            (FlopId::new(0), true, 500.0),
            (FlopId::new(0), false, 540.0),
        ];
        let inertial = EventSim::new(&table, &ann).run(&frame1, &pulse);
        let transport = EventSim::new(&table, &ann)
            .with_transport_delays()
            .run(&frame1, &pulse);
        let w = n.gate(GateId::new(0)).output;
        let count = |t: &ToggleTrace, net| t.events.iter().filter(|e| e.net == net).count();
        // Both see the q0 pulse itself (it is an input, not gate-driven)…
        assert_eq!(count(&inertial, n.flop(FlopId::new(0)).q), 2);
        // …but only transport lets it through the first inverter.
        assert_eq!(count(&transport, w), 2);
        assert_eq!(count(&inertial, w), 0, "pulse must be swallowed");
    }

    #[test]
    fn event_budget_caps_runaway() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let table = SimTable::build(&n);
        let frame1 = stable_frame1(&n, false);
        let launch = [(FlopId::new(0), true, 0.0)];
        scap_obs::set_enabled(true);
        let truncations = || {
            scap_obs::snapshot()
                .counter("sim.event_truncations")
                .unwrap_or(0)
        };
        let before = truncations();
        let trace = EventSim::new(&table, &ann)
            .with_max_events(1)
            .run(&frame1, &launch);
        assert!(trace.num_toggles() <= 1);
        assert!(trace.truncated(), "a budget-cut trace must say so");
        assert!(truncations() > before, "and must be counted");
        let full = EventSim::new(&table, &ann).run(&frame1, &launch);
        assert!(!full.truncated());
        assert_eq!(full.num_toggles(), 4);
    }
}
