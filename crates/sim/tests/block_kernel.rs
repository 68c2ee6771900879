//! Differential tests of the word-packed (PPSFP) block kernel.
//!
//! [`TransitionFaultSim::detect_block`] grades 64 patterns per gate
//! evaluation; these properties pin it, lane for lane, to a scalar
//! three-valued oracle (a levelized [`CellKind::eval`] pass with fault
//! injection, kept here rather than in the production API) on
//! randomized netlists, faults and fully-specified pattern blocks —
//! including partially filled final blocks, where stale lanes must never
//! leak into a detection mask.

use proptest::prelude::*;
use scap_netlist::{
    CellKind, ClockEdge, ClockId, GateId, Levelization, Logic, NetId, NetSource, Netlist,
    NetlistBuilder,
};
use scap_sim::{FaultList, FaultSite, PropagationScratch, TransitionFault, TransitionFaultSim};

/// Strategy: a random acyclic netlist (same shape as the scalar kernel
/// equivalence tests: chains, dead cones, mixing gates).
fn arb_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..max_gates.max(6), any::<u64>()).prop_map(|(n_ff, n_gates, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("blk");
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
            CellKind::Mux2,
            CellKind::Buf,
            CellKind::Inv,
        ];
        let mut outs = Vec::new();
        for i in 0..n_gates {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let y = b.add_net(format!("w{i}"));
            let mut ins = Vec::with_capacity(kind.num_inputs());
            for _ in 0..kind.num_inputs() {
                ins.push(pool[rng.gen_range(0..pool.len())]);
            }
            b.add_gate(kind, &ins, y, blk).unwrap();
            pool.push(y);
            outs.push(y);
        }
        for (i, &q) in qs.iter().enumerate() {
            let d = outs[rng.gen_range(0..outs.len())];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.finish().unwrap()
    })
}

/// A forced value at a fault site: the faulty machine of the oracle.
#[derive(Clone, Copy, Debug)]
struct Injection {
    site: FaultSite,
    value: Logic,
}

/// Levelized three-valued evaluation of every net straight through
/// [`CellKind::eval`], optionally with a fault injected. A `Net` site
/// overrides the net's value; a `Pin` site overrides the value seen by
/// that gate pin only.
fn eval_injected(
    n: &Netlist,
    flop_q: &[Logic],
    pi: &[Logic],
    inject: Option<Injection>,
) -> Vec<Logic> {
    let mut values = vec![Logic::X; n.num_nets()];
    for (i, &net) in n.primary_inputs().iter().enumerate() {
        values[net.index()] = pi[i];
    }
    for (i, flop) in n.flops().iter().enumerate() {
        values[flop.q.index()] = flop_q[i];
    }
    for (i, net) in n.nets().iter().enumerate() {
        if let Some(NetSource::Const(c)) = net.source {
            values[i] = Logic::from_bool(c);
        }
    }
    if let Some(Injection {
        site: FaultSite::Net(net),
        value,
    }) = inject
    {
        // Source stems (PI / flop Q) are forced before any gate reads them.
        values[net.index()] = value;
    }
    for &g in Levelization::build(n).order() {
        let gate = n.gate(g);
        let mut ins: Vec<Logic> = gate.inputs.iter().map(|i| values[i.index()]).collect();
        if let Some(Injection {
            site: FaultSite::Pin { gate: ig, pin },
            value,
        }) = inject
        {
            if ig == g {
                ins[pin as usize] = value;
            }
        }
        let mut out = gate.kind.eval(&ins);
        if let Some(Injection {
            site: FaultSite::Net(net),
            value,
        }) = inject
        {
            if net == gate.output {
                out = value;
            }
        }
        values[gate.output.index()] = out;
    }
    values
}

/// Scalar launch-off-capture detection of one fault under one pattern:
/// launch check on the site net, faulty frame 2 via injection of the
/// pre-transition value, detection where a capture flop's D net is known
/// on both machines and differs.
fn scalar_detect_lane(
    n: &Netlist,
    active: ClockId,
    load: &[Logic],
    pi: &[Logic],
    fault: TransitionFault,
) -> bool {
    let v1 = eval_injected(n, load, pi, None);
    let mut st = Vec::with_capacity(n.num_flops());
    for (i, f) in n.flops().iter().enumerate() {
        st.push(if f.clock == active {
            v1[f.d.index()]
        } else {
            load[i]
        });
    }
    let good2 = eval_injected(n, &st, pi, None);
    let site = fault.site.net(n).index();
    let v_init = Logic::from_bool(fault.polarity.initial_value());
    let v_final = Logic::from_bool(fault.polarity.final_value());
    if v1[site] != v_init || good2[site] != v_final {
        return false;
    }
    let faulty2 = eval_injected(
        n,
        &st,
        pi,
        Some(Injection {
            site: fault.site,
            value: v_init,
        }),
    );
    n.flops().iter().any(|f| {
        let d = f.d.index();
        f.clock == active
            && good2[d] != Logic::X
            && faulty2[d] != Logic::X
            && good2[d] != faulty2[d]
    })
}

/// Packs per-pattern bit vectors into words (lane = pattern).
fn pack(vectors: &[Vec<bool>]) -> Vec<u64> {
    let width = vectors.first().map_or(0, Vec::len);
    (0..width)
        .map(|i| {
            vectors
                .iter()
                .enumerate()
                .fold(0u64, |w, (p, v)| w | u64::from(v[i]) << p)
        })
        .collect()
}

fn rand_bits(rng: &mut impl rand::Rng, width: usize) -> Vec<bool> {
    (0..width).map(|_| rng.gen()).collect()
}

fn logic(bits: &[bool]) -> Vec<Logic> {
    bits.iter().map(|&b| Logic::from(b)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `detect_block` ≡ 64 scalar single-pattern detections, on random
    /// netlists, the full fault universe and partially filled blocks.
    /// Stale lanes never appear in a mask.
    #[test]
    fn block_kernel_matches_scalar_lanes(
        n in arb_netlist(20),
        seed in any::<u64>(),
        count in 1usize..=64,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clka = ClockId::new(0);
        let fsim = TransitionFaultSim::new(&n, clka);
        let loads: Vec<Vec<bool>> =
            (0..count).map(|_| rand_bits(&mut rng, n.num_flops())).collect();
        let pis: Vec<Vec<bool>> = (0..count)
            .map(|_| rand_bits(&mut rng, n.primary_inputs().len()))
            .collect();
        let valid_mask = if count == 64 { !0 } else { (1u64 << count) - 1 };
        let block = fsim.block_from_words(&pack(&loads), &pack(&pis), valid_mask);
        prop_assert_eq!(block.count, count);
        let mut scratch = PropagationScratch::new(n.num_nets());
        for &fault in FaultList::full(&n).faults() {
            let mask = fsim.detect_block(&block, fault, &mut scratch);
            prop_assert_eq!(
                mask & !block.valid_mask, 0,
                "stale lanes leaked into the mask of {:?}", fault
            );
            for p in 0..count {
                let scalar =
                    scalar_detect_lane(&n, clka, &logic(&loads[p]), &logic(&pis[p]), fault);
                prop_assert_eq!(
                    mask >> p & 1 == 1,
                    scalar,
                    "lane {} of {:?} diverged (block mask {:#x})", p, fault, mask
                );
            }
        }
    }

    /// A single-pattern `detect_batch_with_scratch` (one valid bit, the
    /// ATPG drop-simulation shape) returns exactly the corresponding lane
    /// of the full-batch result, for every lane and every fault.
    #[test]
    fn sparse_masks_match_full_batch(
        n in arb_netlist(20),
        seed in any::<u64>(),
    ) {
        use rand::{Rng as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clka = ClockId::new(0);
        let fsim = TransitionFaultSim::new(&n, clka);
        let faults = FaultList::full(&n);
        let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
        let pi: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
        let mut scratch = PropagationScratch::new(n.num_nets());
        let full =
            fsim.detect_batch_with_scratch(&load, &pi, !0, faults.faults(), &mut scratch);
        for p in [0usize, 1, 17, 40, 63] {
            let bit = 1u64 << p;
            let single =
                fsim.detect_batch_with_scratch(&load, &pi, bit, faults.faults(), &mut scratch);
            for (i, (&f, &s)) in full.detect_mask.iter().zip(&single.detect_mask).enumerate() {
                prop_assert_eq!(
                    s, f & bit,
                    "fault {} lane {} disagrees between sparse and full mask", i, p
                );
            }
        }
    }
}

/// xor = a ^ q; d = !xor; flop(d -> q)
fn toy() -> Netlist {
    let mut b = NetlistBuilder::new("t");
    let blk = b.add_block("B1");
    let clk = b.add_clock_domain("clka", 100e6);
    let a = b.add_primary_input("a");
    let q = b.add_net("q");
    let x = b.add_net("x");
    let d = b.add_net("d");
    b.add_gate(CellKind::Xor2, &[a, q], x, blk).unwrap();
    b.add_gate(CellKind::Inv, &[x], d, blk).unwrap();
    b.add_flop("ff", d, q, clk, ClockEdge::Rising, blk).unwrap();
    b.finish().unwrap()
}

#[test]
fn net_injection_overrides_gate_output() {
    let n = toy();
    let inject = Injection {
        site: FaultSite::Net(NetId::new(2)),
        value: Logic::Zero,
    };
    let v = eval_injected(&n, &[Logic::One], &[Logic::Zero], Some(inject));
    assert_eq!(v[2], Logic::Zero);
    // Downstream sees the forced value: d = !0 = 1.
    assert_eq!(v[3], Logic::One);
}

#[test]
fn pin_injection_affects_only_that_branch() {
    // y = a; two readers: inv1(y) -> z1, inv2(y) -> z2.
    let mut b = NetlistBuilder::new("d");
    let blk = b.add_block("B1");
    let a = b.add_primary_input("a");
    let z1 = b.add_net("z1");
    let z2 = b.add_net("z2");
    b.add_gate(CellKind::Inv, &[a], z1, blk).unwrap();
    b.add_gate(CellKind::Inv, &[a], z2, blk).unwrap();
    b.add_primary_output(z1);
    b.add_primary_output(z2);
    let n = b.finish().unwrap();
    let inject = Injection {
        site: FaultSite::Pin {
            gate: GateId::new(0),
            pin: 0,
        },
        value: Logic::Zero,
    };
    let v = eval_injected(&n, &[], &[Logic::One], Some(inject));
    assert_eq!(v[z1.index()], Logic::One, "faulty branch");
    assert_eq!(v[z2.index()], Logic::Zero, "healthy branch");
}

#[test]
fn injection_on_primary_input_stem() {
    let n = toy();
    let a = n.primary_inputs()[0];
    let inject = Injection {
        site: FaultSite::Net(a),
        value: Logic::One,
    };
    let v = eval_injected(&n, &[Logic::One], &[Logic::Zero], Some(inject));
    assert_eq!(v[a.index()], Logic::One);
}
