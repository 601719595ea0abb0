//! Encapsulated device evaluators for ASTRX/OBLX.
//!
//! The paper's key modeling idea: **all aspects of a device's
//! representation and performance are hidden behind the evaluator
//! interface** and obtained only through requests. The synthesis
//! formulation never inverts a device equation or assumes a square law —
//! that is what lets the same architecture drive Level 1, Level 3,
//! BSIM-style MOS models and Gummel–Poon bipolars without touching the
//! optimizer.
//!
//! An evaluator answers two kinds of requests, both at a given set of
//! terminal voltages:
//!
//! * **Large-signal** ([`MosModel::op`], [`BjtModel::op`]) — terminal
//!   currents and their derivatives, used for Kirchhoff-law residuals and
//!   Newton–Raphson moves in the relaxed-dc formulation;
//! * **Small-signal** (the capacitance and conductance fields of the same
//!   operating-point structs) — the linearized element values stamped
//!   into the AWE circuit.
//!
//! The [`library::ModelLibrary`] builds evaluators from `.model` cards;
//! [`process`] ships representative 2µ / 1.2µ CMOS and BiCMOS parameter
//! decks standing in for the proprietary foundry decks of the paper.

mod bjt;
mod caps;
mod diode;
pub mod library;
mod mos;
mod mos_iv;
pub mod process;

pub use bjt::{BjtModel, BjtOp, BjtParams};
pub use diode::{DiodeModel, DiodeOp, DiodeParams};
pub use library::{DeviceModel, ModelError, ModelLibrary};
pub use mos::{MosModel, MosOp, Polarity, Region};
pub use mos_iv::MosParams;
