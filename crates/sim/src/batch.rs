//! 64-way bit-parallel values of the full levelized pass.
//!
//! Each net carries a `u64`; bit *p* holds pattern *p*'s value. Patterns
//! must be fully specified (don't-cares already filled), which is exactly
//! the situation after the ATPG fill step — where the heavy fault-dropping
//! simulation happens.

use crate::table::{SimTable, MAX_INPUTS};
use crate::SimValue;

impl SimValue for u64 {
    const UNDRIVEN: Self = 0;

    #[inline]
    fn constant(value: bool) -> Self {
        if value {
            !0
        } else {
            0
        }
    }

    #[inline]
    fn eval_gate(table: &SimTable, g: usize, plane: &[Self]) -> Self {
        let ins = table.inputs(g);
        let mut inbuf = [0u64; MAX_INPUTS];
        for (k, &inp) in ins.iter().enumerate() {
            inbuf[k] = plane[inp as usize];
        }
        table.kind(g).eval_word(&inbuf[..ins.len()])
    }
}

#[cfg(test)]
mod tests {
    use crate::{LaunchMode, LaunchModel, SimTable};
    use proptest::prelude::*;
    use scap_netlist::{
        CellKind, ClockEdge, ClockId, FlopId, Levelization, Logic, Netlist, NetlistBuilder,
        ScanRole,
    };

    /// A random acyclic netlist over every cell kind: two clock domains,
    /// a constant net, and a scan chain through most flops (the rest stay
    /// unstitched), so both launch modes exercise every state source.
    fn random_netlist(seed: u64) -> Netlist {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("r");
        let blk = b.add_block("B1");
        let clka = b.add_clock_domain("clka", 100e6);
        let clkb = b.add_clock_domain("clkb", 50e6);
        let mut pool = Vec::new();
        for i in 0..4 {
            pool.push(b.add_primary_input(format!("pi{i}")));
        }
        pool.push(b.add_const(format!("tie{}", seed % 2), seed % 2 == 1));
        let qs: Vec<_> = (0..6).map(|i| b.add_net(format!("q{i}"))).collect();
        pool.extend(qs.iter().copied());
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
        for i in 0..40 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let ins: Vec<_> = (0..kind.num_inputs())
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let out = b.add_net(format!("w{i}"));
            b.add_gate(kind, &ins, out, blk).unwrap();
            pool.push(out);
        }
        for (i, &q) in qs.iter().enumerate() {
            let d = pool[pool.len() - 1 - i];
            let clk = if i % 3 == 2 { clkb } else { clka };
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        let mut n = b.finish().unwrap();
        for (position, f) in [4u32, 0, 5, 1, 2].into_iter().enumerate() {
            let role = ScanRole {
                chain: 0,
                position: position as u32,
            };
            n.set_scan_role(FlopId::new(f), role);
        }
        n
    }

    /// The specification: a levelized pass straight through
    /// [`CellKind::eval`].
    fn reference_eval(n: &Netlist, flop_q: &[Logic], pi: &[Logic]) -> Vec<Logic> {
        let mut values = vec![Logic::X; n.num_nets()];
        for (i, &net) in n.primary_inputs().iter().enumerate() {
            values[net.index()] = pi[i];
        }
        for (i, f) in n.flops().iter().enumerate() {
            values[f.q.index()] = flop_q[i];
        }
        for (i, net) in n.nets().iter().enumerate() {
            if let Some(scap_netlist::NetSource::Const(c)) = net.source {
                values[i] = Logic::from_bool(c);
            }
        }
        for &g in Levelization::build(n).order() {
            let gate = n.gate(g);
            let ins: Vec<Logic> = gate.inputs.iter().map(|i| values[i.index()]).collect();
            values[gate.output.index()] = gate.kind.eval(&ins);
        }
        values
    }

    fn lane(words: &[u64], p: usize) -> Vec<Logic> {
        words.iter().map(|w| Logic::from(w >> p & 1 == 1)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The `u64` pass, lane by lane, equals the `Logic` pass on
        /// fully-specified inputs, and the `Logic` pass equals the
        /// `CellKind::eval` specification — for plain evaluation and for
        /// both frames of both launch modes.
        #[test]
        fn agrees_with_scalar_sim(seed in any::<u64>(), load_seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let n = random_netlist(seed);
            let t = SimTable::build(&n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(load_seed);
            let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
            let pi: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
            let words = t.eval(&load, &pi);
            for mode in [LaunchMode::Capture, LaunchMode::Shift] {
                let launch = LaunchModel::new(&n, ClockId::new(0), mode);
                let wf = t.frames(&launch, &load, &pi);
                for p in [0usize, 1, 31, 63] {
                    let (l, i) = (lane(&load, p), lane(&pi, p));
                    let reference = reference_eval(&n, &l, &i);
                    prop_assert_eq!(&t.eval(&l, &i), &reference, "Logic pass, lane {}", p);
                    prop_assert_eq!(&lane(&words, p), &reference, "u64 pass, lane {}", p);
                    let lf = t.frames(&launch, &l, &i);
                    prop_assert_eq!(&lane(&wf.frame1, p), &lf.frame1, "{:?} frame 1", mode);
                    prop_assert_eq!(&lane(&wf.state2, p), &lf.state2, "{:?} state 2", mode);
                    prop_assert_eq!(&lane(&wf.frame2, p), &lf.frame2, "{:?} frame 2", mode);
                    prop_assert_eq!(&reference_eval(&n, &lf.state2, &i), &lf.frame2);
                }
            }
        }
    }

    #[test]
    fn patterns_are_independent_across_bits() {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let a = b.add_primary_input("a");
        let c = b.add_primary_input("c");
        let y = b.add_net("y");
        b.add_gate(CellKind::And2, &[a, c], y, blk).unwrap();
        b.add_primary_output(y);
        let n = b.finish().unwrap();
        let t = SimTable::build(&n);
        // Four patterns: a = 0101, c = 0011 -> y = 0001.
        let v = t.eval::<u64>(&[], &[0b0101, 0b0011]);
        assert_eq!(v[y.index()] & 0b1111, 0b0001);
    }
}
