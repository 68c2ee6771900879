//! Differential tests of the event-driven timing simulator.
//!
//! [`EventSim`] runs on the flattened [`SimTable`] with a packed-key
//! queue and a cancelled-flag vector. It must reproduce, event for event
//! and bit for bit, the retained reference below: the original
//! `BinaryHeap` + `HashSet` simulator over the netlist's own gate and
//! fanout lists, converting delays to femtoseconds at every fanout visit.
//! The property drives random netlists with random, non-unit rise/fall
//! delays and staggered launches (including two launches of one flop,
//! which makes the inertial filter swallow pulses) through both, under
//! inertial and transport semantics.

use proptest::prelude::*;
use scap_netlist::{CellKind, ClockEdge, FlopId, NetId, Netlist, NetlistBuilder};
use scap_sim::{EventScratch, EventSim, SimTable, ToggleEvent};
use scap_timing::DelayAnnotation;
use std::collections::{BinaryHeap, HashSet};

#[derive(PartialEq)]
struct QueuedEvent {
    time_fs: u64,
    seq: u64,
    net: NetId,
    value: bool,
}

impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversal.
        other
            .time_fs
            .cmp(&self.time_fs)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Clone, Copy)]
struct Pending {
    time_fs: u64,
    value: bool,
    seq: u64,
}

fn ps_to_fs(ps: f64) -> u64 {
    (ps * 1000.0).round().max(0.0) as u64
}

/// Reference simulator: returns the events and, per net, the time of its
/// last change (`None` if it never toggled).
fn reference_run(
    n: &Netlist,
    annotation: &DelayAnnotation,
    inertial: bool,
    frame1: &[bool],
    launches: &[(FlopId, bool, f64)],
) -> (Vec<ToggleEvent>, Vec<Option<f64>>) {
    let max_events = n.num_nets().saturating_mul(64).max(1 << 16);
    let mut value = frame1.to_vec();
    let mut last_change = vec![None; n.num_nets()];
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut pending: Vec<Option<Pending>> = vec![None; n.num_nets()];
    let mut cancelled: HashSet<u64> = HashSet::new();
    for &(flop, val, t_ps) in launches {
        let q = n.flop(flop).q;
        heap.push(QueuedEvent {
            time_fs: ps_to_fs(t_ps),
            seq,
            net: q,
            value: val,
        });
        pending[q.index()] = Some(Pending {
            time_fs: ps_to_fs(t_ps),
            value: val,
            seq,
        });
        seq += 1;
    }
    let mut events = Vec::new();
    let mut processed = 0usize;
    while let Some(ev) = heap.pop() {
        if processed >= max_events {
            break;
        }
        if inertial && cancelled.remove(&ev.seq) {
            continue;
        }
        processed += 1;
        let idx = ev.net.index();
        if pending[idx].is_some_and(|p| p.seq == ev.seq) {
            pending[idx] = None;
        }
        if value[idx] == ev.value {
            continue;
        }
        value[idx] = ev.value;
        let t_ps = ev.time_fs as f64 / 1000.0;
        last_change[idx] = Some(t_ps);
        events.push(ToggleEvent {
            time_ps: t_ps,
            net: ev.net,
            rising: ev.value,
        });
        for &g in n.fanout_gates(ev.net) {
            let gate = n.gate(g);
            let mut ins = [0u64; 4];
            for (k, &inp) in gate.inputs.iter().enumerate() {
                ins[k] = u64::from(value[inp.index()]);
            }
            let out = gate.kind.eval_word(&ins[..gate.inputs.len()]) & 1 == 1;
            let delay_ps = if out {
                annotation.gate_rise_ps(g)
            } else {
                annotation.gate_fall_ps(g)
            };
            let at = ev.time_fs + ps_to_fs(delay_ps);
            let out_idx = gate.output.index();
            if inertial {
                if let Some(p) = pending[out_idx] {
                    if p.time_fs >= ev.time_fs {
                        if p.value == out {
                            continue;
                        }
                        if at.saturating_sub(p.time_fs) < ps_to_fs(delay_ps) {
                            cancelled.insert(p.seq);
                            pending[out_idx] = None;
                            continue;
                        }
                    }
                }
            }
            heap.push(QueuedEvent {
                time_fs: at,
                seq,
                net: gate.output,
                value: out,
            });
            pending[out_idx] = Some(Pending {
                time_fs: at,
                value: out,
                seq,
            });
            seq += 1;
        }
    }
    (events, last_change)
}

/// A random acyclic netlist over every cell kind with `flops` flops, some
/// primary inputs and reconvergent fanout.
fn random_netlist(seed: u64, flops: usize, gates: usize) -> Netlist {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new("r");
    let blk = b.add_block("B1");
    let clk = b.add_clock_domain("clka", 100e6);
    let mut pool: Vec<NetId> = (0..3)
        .map(|i| b.add_primary_input(format!("pi{i}")))
        .collect();
    let qs: Vec<NetId> = (0..flops).map(|i| b.add_net(format!("q{i}"))).collect();
    pool.extend(&qs);
    let kinds = [
        CellKind::Buf,
        CellKind::Inv,
        CellKind::And2,
        CellKind::And3,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi22,
        CellKind::Oai22,
    ];
    for i in 0..gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        // Favour recent nets so paths get deep and reconverge.
        let ins: Vec<NetId> = (0..kind.num_inputs())
            .map(|_| {
                let lo = pool.len().saturating_sub(12);
                if rng.gen_bool(0.7) {
                    pool[rng.gen_range(lo..pool.len())]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            })
            .collect();
        let out = b.add_net(format!("w{i}"));
        b.add_gate(kind, &ins, out, blk).unwrap();
        pool.push(out);
    }
    for (i, &q) in qs.iter().enumerate() {
        let d = pool[pool.len() - 1 - i];
        b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
            .unwrap();
    }
    b.finish().unwrap()
}

/// Random per-gate rise/fall delays and a random stable frame 1. Half
/// the seeds draw distinct delays with sub-ps fractions, so the
/// femtosecond rounding is exercised; the other half draw from a few
/// round values, so events coincide in time and the inertial filter's
/// boundary cases (a pending edge at exactly the current time) occur.
fn random_delays_and_frame(n: &Netlist, seed: u64) -> (DelayAnnotation, Vec<bool>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ann = DelayAnnotation::unit_wire(n);
    let round = seed.is_multiple_of(2);
    let (rise, fall, _) = ann.delays_mut();
    for d in rise.iter_mut().chain(fall.iter_mut()) {
        *d = if round {
            [5.0, 10.0, 15.0, 20.0][rng.gen_range(0..4)]
        } else {
            rng.gen_range(3.0..60.0)
        };
    }
    let table = SimTable::build(n);
    let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen::<u64>() & 1).collect();
    let pi: Vec<u64> = (0..n.primary_inputs().len())
        .map(|_| rng.gen::<u64>() & 1)
        .collect();
    let frame1 = table.eval(&load, &pi).iter().map(|w| w & 1 == 1).collect();
    (ann, frame1)
}

/// Staggered launches: each flop launches with probability ½ at its own
/// time; some launch a second time shortly after, to either value.
fn random_launches(n: &Netlist, frame1: &[bool], seed: u64) -> Vec<(FlopId, bool, f64)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut launches = Vec::new();
    for (i, f) in n.flops().iter().enumerate() {
        if !rng.gen_bool(0.5) {
            continue;
        }
        let id = FlopId::new(i as u32);
        let t = 100.0 + 5.0 * f64::from(rng.gen_range(0..60u32));
        launches.push((id, !frame1[f.q.index()], t));
        if rng.gen_bool(0.4) {
            // A second edge 1–80 ps later: a pulse on Q that the first
            // gates may or may not pass.
            launches.push((id, rng.gen(), t + rng.gen_range(1.0..80.0)));
        }
    }
    launches
}

fn assert_matches_reference(
    n: &Netlist,
    ann: &DelayAnnotation,
    frame1: &[bool],
    launches: &[(FlopId, bool, f64)],
    scratch: &mut EventScratch,
) -> Result<(), TestCaseError> {
    let table = SimTable::build(n);
    for inertial in [true, false] {
        let sim = EventSim::new(&table, ann);
        let sim = if inertial {
            sim
        } else {
            sim.with_transport_delays()
        };
        let trace = sim.run_with(scratch, frame1, launches);
        let (events, last_change) = reference_run(n, ann, inertial, frame1, launches);
        prop_assert_eq!(&trace.events, &events, "inertial = {}", inertial);
        prop_assert!(!trace.truncated());
        for (i, &t) in last_change.iter().enumerate() {
            let got = trace.last_change_ps(NetId::new(i as u32));
            prop_assert_eq!(got.map(f64::to_bits), t.map(f64::to_bits), "net {}", i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table kernel reproduces the reference simulator's events and
    /// last-change times exactly, under both delay semantics. One scratch
    /// serves every run, so nothing may leak from one run to the next.
    #[test]
    fn event_sim_matches_reference(
        net_seed in any::<u64>(),
        delay_seed in any::<u64>(),
        launch_seed in any::<u64>(),
        gates in 10usize..80,
    ) {
        let n = random_netlist(net_seed, 6, gates);
        let mut scratch = EventScratch::default();
        for k in 0..3u64 {
            let (ann, frame1) = random_delays_and_frame(&n, delay_seed ^ k);
            let launches = random_launches(&n, &frame1, launch_seed.wrapping_add(k));
            assert_matches_reference(&n, &ann, &frame1, &launches, &mut scratch)?;
        }
    }
}

/// Inertial swallowing actually happens in the generated cases: a 5 ps
/// pulse on a flop output never survives a gate slower than 5 ps, while
/// transport passes it.
#[test]
fn reference_cases_exercise_pulse_swallowing() {
    let n = random_netlist(7, 4, 40);
    let (ann, frame1) = random_delays_and_frame(&n, 11);
    let q = n.flop(FlopId::new(0)).q;
    let launches = [
        (FlopId::new(0), !frame1[q.index()], 200.0),
        (FlopId::new(0), frame1[q.index()], 205.0),
    ];
    let table = SimTable::build(&n);
    let inertial = EventSim::new(&table, &ann).run(&frame1, &launches);
    let transport = EventSim::new(&table, &ann)
        .with_transport_delays()
        .run(&frame1, &launches);
    assert_eq!(inertial.num_toggles(), 2, "only the Q pulse itself");
    assert!(
        transport.num_toggles() > 2,
        "transport propagates the pulse"
    );
    let mut scratch = EventScratch::default();
    assert_matches_reference(&n, &ann, &frame1, &launches, &mut scratch).unwrap();
}
