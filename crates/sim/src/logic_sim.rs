//! Three-valued (`0/1/X`) values of the full levelized pass: unfilled
//! don't-cares stay X through both frames.

use crate::table::{SimTable, SimValue};
use scap_netlist::Logic;

impl SimValue for Logic {
    const UNDRIVEN: Self = Logic::X;

    #[inline]
    fn constant(value: bool) -> Self {
        Logic::from_bool(value)
    }

    /// One truth-table lookup, bit-identical to [`CellKind::eval`]
    /// (the table is generated from it).
    ///
    /// [`CellKind::eval`]: scap_netlist::CellKind::eval
    #[inline]
    fn eval_gate(table: &SimTable, g: usize, plane: &[Self]) -> Self {
        table.eval_plane(g, plane)
    }
}

#[cfg(test)]
mod tests {
    use crate::{LaunchMode, LaunchModel, SimTable};
    use scap_netlist::{CellKind, ClockEdge, ClockId, Logic, Netlist, NetlistBuilder};

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
    fn evaluates_known_values() {
        let n = toy();
        let t = SimTable::build(&n);
        let v = t.eval(&[Logic::One], &[Logic::Zero]);
        // x = 0 ^ 1 = 1, d = 0
        assert_eq!(v[2], Logic::One);
        assert_eq!(v[3], Logic::Zero);
        let launch = LaunchModel::new(&n, ClockId::new(0), LaunchMode::Capture);
        let frames = t.frames(&launch, &[Logic::One], &[Logic::Zero]);
        assert_eq!(frames.state2, vec![Logic::Zero]);
    }

    #[test]
    fn x_propagates() {
        let n = toy();
        let t = SimTable::build(&n);
        let v = t.eval(&[Logic::X], &[Logic::One]);
        assert_eq!(v[2], Logic::X);
        assert_eq!(v[3], Logic::X);
    }

    #[test]
    #[should_panic(expected = "one value per flop")]
    fn validates_state_width() {
        let n = toy();
        let t = SimTable::build(&n);
        let _ = t.eval(&[], &[Logic::Zero]);
    }
}
