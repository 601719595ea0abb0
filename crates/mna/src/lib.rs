//! Modified nodal analysis and the SPICE-class reference simulator.
//!
//! This crate turns a flattened [`oblx_netlist::Netlist`] plus a design-
//! variable assignment and a [`oblx_devices::ModelLibrary`] into a
//! numerical circuit ([`SizedCircuit`]), then offers:
//!
//! * [`dc::solve_dc`] — a full Newton–Raphson dc operating-point solve
//!   with step damping and source stepping, exactly the per-evaluation
//!   cost the **relaxed-dc formulation avoids** inside the annealing
//!   loop. OBLX uses this machinery only for its occasional
//!   Newton–Raphson *moves*; the reference simulator uses it for every
//!   verification point (Tables 2 and 3's "Simulation" columns).
//! * [`linear::LinearSystem`] — the small-signal linearization at an
//!   operating point, exposed as real `G`/`C` MNA matrices plus input
//!   and output selectors. The same object feeds both the direct
//!   per-frequency complex ac solve (this crate) and AWE moment
//!   matching (`oblx-awe`), so the two analysis paths are guaranteed to
//!   describe the same circuit.
//!
//! # Examples
//!
//! ```
//! use oblx_netlist::parse_problem;
//! use oblx_devices::ModelLibrary;
//! use oblx_mna::{SizedCircuit, dc::solve_dc};
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = parse_problem("\
//! .jig j
//! v1 in 0 5
//! r1 in out 1k
//! r2 out 0 1k
//! .endjig
//! ")?;
//! let lib = ModelLibrary::new();
//! let flat = p.jigs[0].netlist.flatten(&p.subckts)?;
//! let ckt = SizedCircuit::build(&flat, &HashMap::new(), &lib)?;
//! let op = solve_dc(&ckt)?;
//! assert!((op.voltage("out").unwrap() - 2.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod assemble;
pub mod dc;
pub mod elements;
pub mod linear;
mod nodemap;
pub mod sparse_map;
pub mod sweep;
pub mod transient;

pub use assemble::{BjtInstance, BuildError, DeviceOps, MosInstance, SizedCircuit};
pub use dc::{solve_dc, solve_dc_with, DcError, DcOptions, OpPoint};
pub use elements::LinElement;
pub use linear::{LinearSystem, OutputSelector};
pub use nodemap::NodeMap;
pub use sparse_map::SparseStampMap;
pub use sweep::{dc_sweep, SweepPoint};
pub use transient::{step_response, TranOptions, Waveforms};
