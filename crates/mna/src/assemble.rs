//! Assembly: flattened netlist + variable assignment + model library →
//! a value-resolved [`SizedCircuit`] ready for numerical analysis.

use crate::elements::{LinElement, Node};
use crate::nodemap::NodeMap;
use oblx_devices::{
    BjtModel, BjtOp, DiodeModel, DiodeOp, ModelError, ModelLibrary, MosModel, MosOp,
};
use oblx_netlist::{ElementKind, EvalError, Netlist, ParseError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A MOS device instance bound to its evaluator and node indices.
///
/// When the model declares extrinsic `rd`/`rs`, internal drain/source
/// nodes (`<name>#d`, `<name>#s`) are inserted during assembly and the
/// channel connects to those; the series resistors appear among the
/// linear elements. This is the "device template" of the paper — the
/// internal nodes become extra relaxed-dc variables.
#[derive(Debug, Clone)]
pub struct MosInstance {
    /// Flattened instance name, e.g. `xamp.m1`.
    pub name: String,
    /// The encapsulated evaluator.
    pub model: MosModel,
    /// Channel drain node (internal node when `rd > 0`).
    pub d: Node,
    /// Gate node.
    pub g: Node,
    /// Channel source node (internal node when `rs > 0`).
    pub s: Node,
    /// Bulk node.
    pub b: Node,
    /// Gate width (m).
    pub w: f64,
    /// Gate length (m).
    pub l: f64,
}

/// A junction-diode instance.
#[derive(Debug, Clone)]
pub struct DiodeInstance {
    /// Flattened instance name.
    pub name: String,
    /// The encapsulated evaluator.
    pub model: DiodeModel,
    /// Anode node.
    pub a: Node,
    /// Cathode node.
    pub k: Node,
    /// Area multiplier.
    pub area: f64,
}

/// A bipolar device instance.
#[derive(Debug, Clone)]
pub struct BjtInstance {
    /// Flattened instance name.
    pub name: String,
    /// The encapsulated evaluator.
    pub model: BjtModel,
    /// Collector node.
    pub c: Node,
    /// Base node.
    pub b: Node,
    /// Emitter node.
    pub e: Node,
    /// Emitter-area multiplier.
    pub area: f64,
}

/// Operating points of a circuit's devices, in `mosfets` / `bjts` /
/// `diodes` order.
pub type DeviceOps = (Vec<MosOp>, Vec<BjtOp>, Vec<DiodeOp>);

/// Voltage of `node` in the MNA vector `x` (ground is 0 V).
fn volt(x: &[f64], node: Node) -> f64 {
    node.map_or(0.0, |i| x[i])
}

impl MosInstance {
    /// Operating point at the node voltages of the MNA vector `x`.
    pub fn op_at(&self, x: &[f64]) -> MosOp {
        let v = |n: Node| volt(x, n);
        self.model
            .op(self.w, self.l, v(self.d), v(self.g), v(self.s), v(self.b))
    }
}

impl DiodeInstance {
    /// Operating point at the node voltages of the MNA vector `x`.
    pub fn op_at(&self, x: &[f64]) -> DiodeOp {
        self.model.op(self.area, volt(x, self.a) - volt(x, self.k))
    }
}

impl BjtInstance {
    /// Operating point at the node voltages of the MNA vector `x`.
    pub fn op_at(&self, x: &[f64]) -> BjtOp {
        let v = |n: Node| volt(x, n);
        self.model.op(self.area, v(self.c), v(self.b), v(self.e))
    }
}

/// Error assembling a circuit.
#[derive(Debug)]
pub enum BuildError {
    /// An element value expression failed to evaluate.
    Eval {
        /// Element name.
        element: String,
        /// Underlying evaluation error.
        source: EvalError,
    },
    /// A device referenced a missing or wrong-family model.
    Model(ModelError),
    /// The netlist still contains unflattened instances.
    NotFlat(String),
    /// A geometry or element value is out of physical range.
    BadValue {
        /// Element name.
        element: String,
        /// Description.
        what: String,
    },
    /// Netlist-level error (propagated from flattening helpers).
    Netlist(ParseError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Eval { element, source } => {
                write!(f, "element `{element}`: {source}")
            }
            BuildError::Model(e) => write!(f, "{e}"),
            BuildError::NotFlat(n) => {
                write!(f, "instance `{n}` not flattened before assembly")
            }
            BuildError::BadValue { element, what } => {
                write!(f, "element `{element}`: {what}")
            }
            BuildError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Eval { source, .. } => Some(source),
            BuildError::Model(e) => Some(e),
            BuildError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for BuildError {
    fn from(e: ModelError) -> Self {
        BuildError::Model(e)
    }
}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Netlist(e)
    }
}

/// A value-resolved circuit: interned nodes, concrete linear elements,
/// and device instances bound to their evaluators.
#[derive(Debug, Clone)]
pub struct SizedCircuit {
    /// Node table.
    pub nodes: NodeMap,
    /// Linear elements.
    pub linear: Vec<LinElement>,
    /// Element names parallel to `linear` (device-template resistors get
    /// `name#rd` / `name#rs` names).
    pub linear_names: Vec<String>,
    /// MOS instances.
    pub mosfets: Vec<MosInstance>,
    /// Bipolar instances.
    pub bjts: Vec<BjtInstance>,
    /// Diode instances.
    pub diodes: Vec<DiodeInstance>,
    /// Number of branch-current unknowns.
    pub branches: usize,
}

impl SizedCircuit {
    /// Total MNA dimension: nodes + branch currents.
    pub fn dim(&self) -> usize {
        self.nodes.len() + self.branches
    }

    /// Operating points of every device at the MNA vector `x`.
    pub fn device_ops(&self, x: &[f64]) -> DeviceOps {
        (
            self.mosfets.iter().map(|m| m.op_at(x)).collect(),
            self.bjts.iter().map(|q| q.op_at(x)).collect(),
            self.diodes.iter().map(|d| d.op_at(x)).collect(),
        )
    }

    /// Number of circuit elements (linear + devices), the paper's
    /// Table 1 "elements" metric.
    pub fn element_count(&self) -> usize {
        self.linear.len() + self.mosfets.len() + self.bjts.len() + self.diodes.len()
    }

    /// Builds a circuit from a **flattened** netlist.
    ///
    /// Design variables referenced by element values are taken from
    /// `vars` (lowercase keys). Device geometry expressions are clamped
    /// to a minimum of 1 nm rather than rejected, because the annealer
    /// must be able to evaluate any proposed configuration.
    ///
    /// # Errors
    ///
    /// [`BuildError`] on unresolved expressions, missing models, or
    /// unflattened instances.
    pub fn build(
        netlist: &Netlist,
        vars: &HashMap<String, f64>,
        lib: &ModelLibrary,
    ) -> Result<Self, BuildError> {
        if let Some(inst) = netlist.instances.first() {
            return Err(BuildError::NotFlat(inst.name.clone()));
        }
        let mut nodes = NodeMap::new();
        let mut linear = Vec::new();
        let mut linear_names: Vec<String> = Vec::new();
        let mut mosfets = Vec::new();
        let mut bjts = Vec::new();
        let mut diodes = Vec::new();
        let mut branches = 0usize;

        let eval = |name: &str, e: &oblx_netlist::Expr| -> Result<f64, BuildError> {
            e.eval_with_vars(vars).map_err(|source| BuildError::Eval {
                element: name.to_string(),
                source,
            })
        };

        for el in &netlist.elements {
            let mut node = |i: usize| -> Node { nodes.intern(&el.nodes[i]) };
            match &el.kind {
                ElementKind::Resistor { value } => {
                    let (p, m) = (node(0), node(1));
                    let r = eval(&el.name, value)?;
                    if r <= 0.0 {
                        return Err(BuildError::BadValue {
                            element: el.name.clone(),
                            what: format!("resistance {r} must be positive"),
                        });
                    }
                    linear.push(LinElement::Resistor { p, m, g: 1.0 / r });
                    linear_names.push(el.name.clone());
                }
                ElementKind::Capacitor { value } => {
                    let (p, m) = (node(0), node(1));
                    let c = eval(&el.name, value)?;
                    if c < 0.0 {
                        return Err(BuildError::BadValue {
                            element: el.name.clone(),
                            what: format!("capacitance {c} must be non-negative"),
                        });
                    }
                    linear.push(LinElement::Capacitor { p, m, c });
                    linear_names.push(el.name.clone());
                }
                ElementKind::Inductor { value } => {
                    let (p, m) = (node(0), node(1));
                    let l = eval(&el.name, value)?;
                    linear.push(LinElement::Inductor {
                        p,
                        m,
                        l,
                        branch: branches,
                    });
                    linear_names.push(el.name.clone());
                    branches += 1;
                }
                ElementKind::Vsource { dc, ac } => {
                    let (p, m) = (node(0), node(1));
                    linear.push(LinElement::Vsource {
                        p,
                        m,
                        dc: eval(&el.name, dc)?,
                        ac: *ac,
                        branch: branches,
                    });
                    linear_names.push(el.name.clone());
                    branches += 1;
                }
                ElementKind::Isource { dc, ac } => {
                    let (p, m) = (node(0), node(1));
                    linear.push(LinElement::Isource {
                        p,
                        m,
                        dc: eval(&el.name, dc)?,
                        ac: *ac,
                    });
                    linear_names.push(el.name.clone());
                }
                ElementKind::Vcvs { cp, cm, gain } => {
                    let (p, m) = (node(0), node(1));
                    let cp = nodes.intern(cp);
                    let cm = nodes.intern(cm);
                    linear.push(LinElement::Vcvs {
                        p,
                        m,
                        cp,
                        cm,
                        gain: eval(&el.name, gain)?,
                        branch: branches,
                    });
                    linear_names.push(el.name.clone());
                    branches += 1;
                }
                ElementKind::Vccs { cp, cm, gm } => {
                    let (p, m) = (node(0), node(1));
                    let cp = nodes.intern(cp);
                    let cm = nodes.intern(cm);
                    linear.push(LinElement::Vccs {
                        p,
                        m,
                        cp,
                        cm,
                        gm: eval(&el.name, gm)?,
                    });
                    linear_names.push(el.name.clone());
                }
                ElementKind::Mosfet { model, w, l } => {
                    let model = lib.mos(model)?.clone();
                    let (d_ext, g, s_ext, b) = (node(0), node(1), node(2), node(3));
                    let w = eval(&el.name, w)?.max(1e-9);
                    let l = eval(&el.name, l)?.max(1e-9);
                    let (rd, rs) = model.series_resistance();
                    // Device template: series resistances insert
                    // internal channel nodes.
                    let d = if rd > 0.0 {
                        let di = nodes.intern(&format!("{}#d", el.name));
                        linear.push(LinElement::Resistor {
                            p: d_ext,
                            m: di,
                            g: 1.0 / rd,
                        });
                        linear_names.push(format!("{}#rd", el.name));
                        di
                    } else {
                        d_ext
                    };
                    let s = if rs > 0.0 {
                        let si = nodes.intern(&format!("{}#s", el.name));
                        linear.push(LinElement::Resistor {
                            p: s_ext,
                            m: si,
                            g: 1.0 / rs,
                        });
                        linear_names.push(format!("{}#rs", el.name));
                        si
                    } else {
                        s_ext
                    };
                    mosfets.push(MosInstance {
                        name: el.name.clone(),
                        model,
                        d,
                        g,
                        s,
                        b,
                        w,
                        l,
                    });
                }
                ElementKind::Bjt { model, area } => {
                    let model = lib.bjt(model)?.clone();
                    let (c, b_ext, e) = (node(0), node(1), node(2));
                    let area = eval(&el.name, area)?.max(1e-3);
                    let rb = model.params().rb;
                    let b = if rb > 0.0 {
                        let bi = nodes.intern(&format!("{}#b", el.name));
                        linear.push(LinElement::Resistor {
                            p: b_ext,
                            m: bi,
                            g: 1.0 / rb,
                        });
                        linear_names.push(format!("{}#rb", el.name));
                        bi
                    } else {
                        b_ext
                    };
                    bjts.push(BjtInstance {
                        name: el.name.clone(),
                        model,
                        c,
                        b,
                        e,
                        area,
                    });
                }
                ElementKind::Diode { model, area } => {
                    let model = lib.diode(model)?.clone();
                    let (a, k) = (node(0), node(1));
                    let area = eval(&el.name, area)?.max(1e-3);
                    diodes.push(DiodeInstance {
                        name: el.name.clone(),
                        model,
                        a,
                        k,
                        area,
                    });
                }
            }
        }

        Ok(SizedCircuit {
            nodes,
            linear,
            linear_names,
            mosfets,
            bjts,
            diodes,
            branches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblx_devices::process::ProcessDeck;
    use oblx_netlist::parse_problem;

    fn vars(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn builds_rc_jig() {
        let p =
            parse_problem(".jig j\nv1 in 0 5 ac 1\nr1 in out 1k\nc1 out 0 1p\n.endjig\n").unwrap();
        let lib = ModelLibrary::new();
        let flat = p.jigs[0].netlist.flatten(&p.subckts).unwrap();
        let ckt = SizedCircuit::build(&flat, &HashMap::new(), &lib).unwrap();
        assert_eq!(ckt.nodes.len(), 2);
        assert_eq!(ckt.branches, 1);
        assert_eq!(ckt.dim(), 3);
        assert_eq!(ckt.element_count(), 3);
    }

    #[test]
    fn geometry_from_variables() {
        let p = parse_problem(
            ".model nmos nmos level=1\n.jig j\nm1 d g 0 0 nmos w='W' l='L*2'\n.endjig\n",
        )
        .unwrap();
        let lib = ModelLibrary::from_cards(&p.models).unwrap();
        let ckt = SizedCircuit::build(
            &p.jigs[0].netlist,
            &vars(&[("w", 10e-6), ("l", 1e-6)]),
            &lib,
        )
        .unwrap();
        assert_eq!(ckt.mosfets.len(), 1);
        assert_eq!(ckt.mosfets[0].w, 10e-6);
        assert_eq!(ckt.mosfets[0].l, 2e-6);
    }

    #[test]
    fn missing_variable_is_eval_error() {
        let p = parse_problem(
            ".model nmos nmos level=1\n.jig j\nm1 d g 0 0 nmos w='W' l=1u\n.endjig\n",
        )
        .unwrap();
        let lib = ModelLibrary::from_cards(&p.models).unwrap();
        let err = SizedCircuit::build(&p.jigs[0].netlist, &HashMap::new(), &lib).unwrap_err();
        assert!(matches!(err, BuildError::Eval { .. }));
    }

    #[test]
    fn internal_nodes_for_bsim_template() {
        let cards = ProcessDeck::C2Bsim.cards();
        let lib = ModelLibrary::from_cards(&cards).unwrap();
        let p = parse_problem(".jig j\nm1 d g s 0 nmos w=10u l=2u\n.endjig\n").unwrap();
        let ckt = SizedCircuit::build(&p.jigs[0].netlist, &HashMap::new(), &lib).unwrap();
        // d, g, s + 2 internal nodes
        assert_eq!(ckt.nodes.len(), 5);
        assert!(ckt.nodes.get("m1#d").is_some());
        assert!(ckt.nodes.get("m1#s").is_some());
        assert_eq!(ckt.linear.len(), 2); // the two series resistors
        assert_eq!(ckt.mosfets[0].d, ckt.nodes.get("m1#d"));
    }

    #[test]
    fn unflattened_instance_rejected() {
        let p = parse_problem(".subckt cell a\nr1 a 0 1k\n.ends\n.jig j\nx1 n cell\n.endjig\n")
            .unwrap();
        let lib = ModelLibrary::new();
        let err = SizedCircuit::build(&p.jigs[0].netlist, &HashMap::new(), &lib).unwrap_err();
        assert!(matches!(err, BuildError::NotFlat(_)));
    }

    #[test]
    fn negative_resistance_rejected() {
        let p = parse_problem(".jig j\nr1 a 0 '0-5'\n.endjig\n").unwrap();
        let err = SizedCircuit::build(&p.jigs[0].netlist, &HashMap::new(), &ModelLibrary::new())
            .unwrap_err();
        assert!(matches!(err, BuildError::BadValue { .. }));
    }

    #[test]
    fn tiny_geometry_clamped_not_rejected() {
        let p =
            parse_problem(".model nmos nmos level=1\n.jig j\nm1 d g 0 0 nmos w=1f l=1f\n.endjig\n")
                .unwrap();
        let lib = ModelLibrary::from_cards(&p.models).unwrap();
        let ckt = SizedCircuit::build(&p.jigs[0].netlist, &HashMap::new(), &lib).unwrap();
        assert_eq!(ckt.mosfets[0].w, 1e-9);
    }
}
