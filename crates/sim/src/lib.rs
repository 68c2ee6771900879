//! Logic, fault and timing simulation for the `scap-atpg` suite.
//!
//! This crate replaces the simulation half of the paper's commercial flow
//! (Synopsys VCS + PLI):
//!
//! * [`SimTable`] — the flattened netlist and the only full levelized
//!   zero-delay pass, over three-valued [`Logic`](scap_netlist::Logic)
//!   (`0/1/X`, used by the ATPG engine) or 64-way bit-parallel `u64`
//!   words (fully-specified patterns),
//! * [`LaunchModel`] — launch-off-capture / launch-off-shift two-frame
//!   semantics and the capture observation points, applied by
//!   [`SimTable::frames`],
//! * [`TransitionFaultSim`] — PPSFP transition-delay-fault simulation over
//!   64-pattern [`PatternBlock`]s with fault dropping (drives coverage
//!   curves and dynamic compaction),
//! * [`EventSim`] — event-driven gate-level timing simulation producing a
//!   [`ToggleTrace`] (the VCD substitute) and the per-pattern switching
//!   time window (STW) that defines SCAP.
//!
//! # Example
//!
//! ```
//! use scap_netlist::{CellKind, Logic, NetlistBuilder};
//! use scap_sim::SimTable;
//!
//! # fn main() -> Result<(), scap_netlist::BuildError> {
//! let mut b = NetlistBuilder::new("d");
//! let blk = b.add_block("B1");
//! let a = b.add_primary_input("a");
//! let y = b.add_net("y");
//! b.add_gate(CellKind::Inv, &[a], y, blk)?;
//! let n = b.finish()?;
//! let table = SimTable::build(&n);
//! assert_eq!(table.eval(&[], &[Logic::One])[y.index()], Logic::Zero);
//! assert_eq!(table.eval(&[], &[Logic::X])[y.index()], Logic::X);
//! // Bit p of each word is pattern p: a = 01 gives y = 10.
//! assert_eq!(table.eval::<u64>(&[], &[0b01])[y.index()] & 0b11, 0b10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod event;
mod fault;
mod fault_sim;
mod loc;
mod logic_sim;
mod sched;
mod table;

pub use event::{EventSim, ToggleEvent, ToggleTrace};
pub use fault::{CollapseMap, FaultList, FaultSite, Polarity, TransitionFault};
pub use fault_sim::{DetectionSummary, PatternBlock, PropagationScratch, TransitionFaultSim};
pub use loc::{Frames, LaunchMode, LaunchModel, State2Src};
pub use sched::LevelQueue;
pub use table::{SimTable, SimValue};
