//! Precompiled evaluation plan: the one production path of
//! [`crate::CostEvaluator`].
//!
//! The reference evaluation ([`crate::CostEvaluator::record`], kept as a
//! test oracle) rebuilds every circuit from its netlist on every call:
//! node names are re-interned, device models re-looked-up, source/probe
//! name maps reconstructed — all pure string work whose result never
//! changes, because the annealer only ever changes *values*, never
//! *structure*.
//!
//! [`EvalPlan`] performs that structural work exactly once, at
//! [`crate::CostEvaluator`] construction:
//!
//! * circuit skeletons are built for the bias netlist and every jig at
//!   the initial point and kept as templates;
//! * each variable-dependent element value becomes a [`Binding`] — an
//!   expression plus a direct index into the skeleton — constructed by
//!   walking the netlist in exactly the order
//!   [`SizedCircuit::build`] does, so value clamps, validation
//!   messages, and first-error order are reproduced bit for bit;
//! * analysis stimulus vectors and output selectors are resolved to
//!   index form up front.
//!
//! Every structural precondition of the plan is checked by
//! [`crate::astrx::compile`], so a compiled problem always has a plan.
//!
//! A [`Slot`] is one materialized configuration for a specific
//! `(user, nodes)` vector pair: a [`BiasSlot`] (the bound bias circuit,
//! device operating points, KCL matrix and residual) plus the jigs and
//! AWE models derived from it. The evaluator keeps two slots and diffs
//! a proposed state against one of them by bitwise comparison. A state
//! seen before is rescored from its slot (only the weighted sum is
//! recomputed); any other state goes through [`Slot::update`], which
//! recomputes a dirty set of bindings, devices, and jigs — everything
//! when nothing in the slot can be reused. The Newton move runs on a
//! third, bias-only slot ([`BiasSlot::newton_step`]) with the same
//! dirty-set rule, stamping its Jacobian from the slot's device ops.
//!
//! Invariant: every numeric result produced through a plan is
//! **bit-identical** to the reference evaluation, because both run the
//! same expression evaluator, the same clamps, the same device
//! evaluators and the same stamp order, and both analyze on the one
//! sparse AWE engine: the plan's engines stamp element values straight
//! into their slot arrays, the reference gathers the same values from
//! a dense stamp, and a fresh engine derives the same pivot order from
//! the same pattern. Debug builds verify this on every evaluation.

use crate::astrx::{determined_voltages, fill_bias_vector, free_nodes, CompiledProblem};
use crate::cost::{
    add_device_currents, area_of, power_of, score_with, CostBreakdown, EvalFailure, MeasureSource,
};
use crate::weights::AdaptiveWeights;
use oblx_awe::{AweEngine, ReducedModel};
use oblx_devices::{BjtOp, DiodeOp, MosOp};
use oblx_linalg::{Lu, Mat};
use oblx_mna::dc::linearize_with_ops;
use oblx_mna::{LinElement, LinearSystem, OutputSelector, SizedCircuit};
use oblx_netlist::{ElementKind, EvalContext, EvalError, Expr, Netlist};

/// Where a bound value lands in a circuit skeleton. The index is into
/// the skeleton's `linear` / `mosfets` / `bjts` / `diodes` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BindTarget {
    /// Resistor conductance (`g = 1/value`).
    Resistor(usize),
    /// Capacitor value.
    Capacitor(usize),
    /// Inductor value.
    Inductor(usize),
    /// Voltage-source dc value.
    VsourceDc(usize),
    /// Current-source dc value.
    IsourceDc(usize),
    /// VCVS gain.
    VcvsGain(usize),
    /// VCCS transconductance.
    VccsGm(usize),
    /// MOS gate width.
    MosW(usize),
    /// MOS gate length.
    MosL(usize),
    /// Bipolar emitter-area multiplier.
    BjtArea(usize),
    /// Diode area multiplier.
    DiodeArea(usize),
}

impl BindTarget {
    /// `true` for targets that stamp the linear part of the circuit —
    /// the values that determine the determined-voltage tree and the
    /// cached KCL conductance matrix.
    fn is_linear(self) -> bool {
        !matches!(
            self,
            BindTarget::MosW(_)
                | BindTarget::MosL(_)
                | BindTarget::BjtArea(_)
                | BindTarget::DiodeArea(_)
        )
    }
}

/// One variable-dependent element value: evaluate `expr`, validate and
/// clamp exactly as assembly does, write the result at `target`.
#[derive(Debug, Clone)]
struct Binding {
    /// Element name, for error-message parity with assembly.
    element: String,
    target: BindTarget,
    expr: Expr,
    /// User-variable indices the expression depends on.
    deps: Vec<usize>,
}

impl Binding {
    fn dirty(&self, dirty_user: &[bool]) -> bool {
        self.deps.iter().any(|&d| dirty_user[d])
    }

    /// Evaluates and writes the value, mirroring the validation and
    /// clamping (and their exact error strings) of
    /// [`SizedCircuit::build`].
    fn apply(&self, ckt: &mut SizedCircuit, ctx: &VarsCtx) -> Result<(), EvalFailure> {
        let v = self.expr.eval(ctx).map_err(|source| {
            EvalFailure::Build(format!("element `{}`: {source}", self.element))
        })?;
        match self.target {
            BindTarget::Resistor(i) => {
                if v <= 0.0 {
                    return Err(EvalFailure::Build(format!(
                        "element `{}`: resistance {v} must be positive",
                        self.element
                    )));
                }
                match &mut ckt.linear[i] {
                    LinElement::Resistor { g, .. } => *g = 1.0 / v,
                    _ => unreachable!("binding target is not a resistor"),
                }
            }
            BindTarget::Capacitor(i) => {
                if v < 0.0 {
                    return Err(EvalFailure::Build(format!(
                        "element `{}`: capacitance {v} must be non-negative",
                        self.element
                    )));
                }
                match &mut ckt.linear[i] {
                    LinElement::Capacitor { c, .. } => *c = v,
                    _ => unreachable!("binding target is not a capacitor"),
                }
            }
            BindTarget::Inductor(i) => match &mut ckt.linear[i] {
                LinElement::Inductor { l, .. } => *l = v,
                _ => unreachable!("binding target is not an inductor"),
            },
            BindTarget::VsourceDc(i) => match &mut ckt.linear[i] {
                LinElement::Vsource { dc, .. } => *dc = v,
                _ => unreachable!("binding target is not a vsource"),
            },
            BindTarget::IsourceDc(i) => match &mut ckt.linear[i] {
                LinElement::Isource { dc, .. } => *dc = v,
                _ => unreachable!("binding target is not an isource"),
            },
            BindTarget::VcvsGain(i) => match &mut ckt.linear[i] {
                LinElement::Vcvs { gain, .. } => *gain = v,
                _ => unreachable!("binding target is not a vcvs"),
            },
            BindTarget::VccsGm(i) => match &mut ckt.linear[i] {
                LinElement::Vccs { gm, .. } => *gm = v,
                _ => unreachable!("binding target is not a vccs"),
            },
            BindTarget::MosW(i) => ckt.mosfets[i].w = v.max(1e-9),
            BindTarget::MosL(i) => ckt.mosfets[i].l = v.max(1e-9),
            BindTarget::BjtArea(i) => ckt.bjts[i].area = v.max(1e-3),
            BindTarget::DiodeArea(i) => ckt.diodes[i].area = v.max(1e-3),
        }
        Ok(())
    }
}

/// Alloc-free [`EvalContext`] over the user-variable vector; resolves
/// exactly the names [`CompiledProblem::var_map`] would and nothing
/// else, so element expressions see identical environments on both
/// evaluation paths.
struct VarsCtx<'a> {
    names: &'a [String],
    values: &'a [f64],
}

impl EvalContext for VarsCtx<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        // `rposition`: a duplicated declaration resolves to the last
        // occurrence, matching HashMap insert order in `var_map`.
        self.names
            .iter()
            .rposition(|n| n == name)
            .map(|i| self.values[i])
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }
}

/// One precompiled `.pz` analysis: stimulus vector and probe resolved
/// to index form.
#[derive(Debug, Clone)]
struct AnalysisPlan {
    /// Analysis handle, for AWE error messages.
    name: String,
    /// Index into the flat model table ([`Slot::models`]).
    flat: usize,
    /// Unit-stimulus input vector.
    b: Vec<f64>,
    out: OutputSelector,
}

/// One precompiled jig: bindings, device back-references into the bias
/// circuit, and analyses.
#[derive(Debug, Clone)]
struct JigPlan {
    bindings: Vec<Binding>,
    /// Bias-mosfet index for each jig mosfet, in jig order.
    mos_bind: Vec<usize>,
    bjt_bind: Vec<usize>,
    diode_bind: Vec<usize>,
    analyses: Vec<AnalysisPlan>,
    ckt_template: SizedCircuit,
    /// Analysis-engine template with its **symbolic factorization
    /// already done** — slots clone it, so per move only a numeric
    /// refactor runs.
    engine_template: AweEngine,
}

impl JigPlan {
    /// `true` when re-evaluating this jig is required for the given
    /// dirty variables / dirty bias devices.
    fn dirty(&self, dirt: &BiasDirt) -> bool {
        self.bindings.iter().any(|b| b.dirty(&dirt.user))
            || self.mos_bind.iter().any(|&i| dirt.mos[i])
            || self.bjt_bind.iter().any(|&i| dirt.bjt[i])
            || self.diode_bind.iter().any(|&i| dirt.diode[i])
    }
}

/// The precompiled evaluation plan for one [`CompiledProblem`].
#[derive(Debug, Clone)]
pub(crate) struct EvalPlan {
    /// User-variable names, parallel to the value vector.
    user_names: Vec<String>,
    bias_bindings: Vec<Binding>,
    /// Per user variable: `true` when it appears in a *linear* bias
    /// element value. Changing such a variable invalidates the
    /// determined-voltage tree and the cached KCL matrix, forcing a
    /// full update.
    bias_linear_var: Vec<bool>,
    /// Free bias-node indices in node-variable order (structural:
    /// independent of element values).
    free_nodes: Vec<usize>,
    /// Analysis handles, parallel to [`Slot::models`].
    analysis_names: Vec<String>,
    jigs: Vec<JigPlan>,
    /// The bias circuit at the initial point.
    pub(crate) bias_template: SizedCircuit,
    awe_order: usize,
}

impl EvalPlan {
    /// Builds the plan.
    ///
    /// # Panics
    ///
    /// When `compiled` breaks a structural check of
    /// [`crate::astrx::compile`]: the circuits must assemble at the
    /// initial point, every jig device must have a bias counterpart,
    /// and every analysis must name a known probe node and a V or I
    /// source.
    pub(crate) fn build(compiled: &CompiledProblem, awe_order: usize) -> EvalPlan {
        let user_names: Vec<String> = compiled.user_vars.iter().map(|v| v.name.clone()).collect();
        let initial = compiled.initial_user_values();
        let vars = compiled.var_map(&initial);
        let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib)
            .expect("compile assembled the bias circuit at the initial point");
        let det = determined_voltages(&bias);
        let free_nodes = free_nodes(&det);
        let bias_bindings = bindings_for(&compiled.bias_netlist, &bias, &user_names);
        let mut bias_linear_var = vec![false; user_names.len()];
        for b in &bias_bindings {
            if b.target.is_linear() {
                for &d in &b.deps {
                    bias_linear_var[d] = true;
                }
            }
        }

        // Template device operating points at the determined voltages
        // (free nodes at 0 V). Only the *structure* of the template
        // systems matters — every slot re-stamps its engine's values
        // before use.
        let mut x = vec![0.0; bias.dim()];
        fill_bias_vector(&det, &[], &mut x);
        let (mos_ops, bjt_ops, diode_ops) = bias.device_ops(&x);

        let mut jigs: Vec<JigPlan> = Vec::new();
        // Source netlists parallel to `jigs`, for structural dedup.
        let mut jig_sources: Vec<&Netlist> = Vec::new();
        let mut analysis_names = Vec::new();
        for jig in &compiled.jigs {
            // The reference evaluation skips jigs without analyses
            // entirely; so does the plan (their elements are never even
            // evaluated).
            if jig.analyses.is_empty() {
                continue;
            }
            let ckt = SizedCircuit::build(&jig.netlist, &vars, &compiled.lib)
                .expect("compile assembled every jig at the initial point");
            let bindings = bindings_for(&jig.netlist, &ckt, &user_names);
            // `rposition`: with duplicate bias device names the
            // reference evaluation's name map keeps the last insertion.
            const UNBIASED: &str = "compile checks every jig device has a bias counterpart";
            let mos_bind: Vec<usize> = ckt
                .mosfets
                .iter()
                .map(|m| bias.mosfets.iter().rposition(|bm| bm.name == m.name))
                .collect::<Option<_>>()
                .expect(UNBIASED);
            let bjt_bind: Vec<usize> = ckt
                .bjts
                .iter()
                .map(|q| bias.bjts.iter().rposition(|bq| bq.name == q.name))
                .collect::<Option<_>>()
                .expect(UNBIASED);
            let diode_bind: Vec<usize> = ckt
                .diodes
                .iter()
                .map(|d| bias.diodes.iter().rposition(|bd| bd.name == d.name))
                .collect::<Option<_>>()
                .expect(UNBIASED);
            let jm: Vec<MosOp> = mos_bind.iter().map(|&i| mos_ops[i]).collect();
            let jq: Vec<BjtOp> = bjt_bind.iter().map(|&i| bjt_ops[i]).collect();
            let jd: Vec<DiodeOp> = diode_bind.iter().map(|&i| diode_ops[i]).collect();
            let sys = LinearSystem::from_device_ops(&ckt, &jm, &jq, &jd);
            let mut analyses = Vec::new();
            for a in &jig.analyses {
                let out = sys
                    .output_selector(&a.out_p, a.out_m.as_deref())
                    .expect("compile checks the probe nodes");
                let b = sys
                    .input_vector(&a.source)
                    .expect("compile checks the stimulus is a V or I source");
                analyses.push(AnalysisPlan {
                    name: a.name.clone(),
                    flat: analysis_names.len(),
                    b,
                    out,
                });
                analysis_names.push(a.name.clone());
            }
            // Structural dedup: jigs that differ only in which source
            // carries the ac excitation (the gain / PSRR⁺ / PSRR⁻ trio
            // of one amplifier) stamp bit-identical G/C systems, so one
            // restamp and one factorization per evaluation serves all
            // their analyses. The stimulus vectors and probes above
            // were built from this jig's own system; node numbering is
            // identical across such jigs, so they read correctly
            // against the canonical one.
            if let Some(k) = jig_sources
                .iter()
                .position(|n| same_system(n, &jig.netlist))
            {
                jigs[k].analyses.extend(analyses);
            } else {
                jig_sources.push(&jig.netlist);
                let engine_template = AweEngine::for_system(&sys);
                jigs.push(JigPlan {
                    bindings,
                    mos_bind,
                    bjt_bind,
                    diode_bind,
                    analyses,
                    ckt_template: ckt,
                    engine_template,
                });
            }
        }

        EvalPlan {
            user_names,
            bias_bindings,
            bias_linear_var,
            free_nodes,
            analysis_names,
            jigs,
            bias_template: bias,
            awe_order,
        }
    }

    /// User-variable count (for the caller's length assertion).
    pub(crate) fn user_len(&self) -> usize {
        self.user_names.len()
    }

    /// `true` when every changed user variable (bitwise, `slot_user`
    /// vs. `user`) avoids the linear bias elements — the precondition
    /// for a partial update against that slot.
    fn incremental_ok(&self, slot_user: &[f64], user: &[f64]) -> bool {
        slot_user.len() == user.len()
            && slot_user
                .iter()
                .zip(user)
                .enumerate()
                .all(|(i, (a, b))| a.to_bits() == b.to_bits() || !self.bias_linear_var[i])
    }
}

/// Structural equality of two flattened jig netlists *ignoring ac
/// excitation magnitudes*: such jigs build bit-identical
/// [`SizedCircuit`]s and stamp bit-identical G/C systems — the ac value
/// shapes only the per-analysis stimulus vector, which the plan
/// precomputes per analysis anyway — so their analyses can share one
/// materialized jig.
fn same_system(a: &Netlist, b: &Netlist) -> bool {
    a.instances == b.instances
        && a.elements.len() == b.elements.len()
        && a.elements.iter().zip(&b.elements).all(|(x, y)| {
            if x.name != y.name || x.nodes != y.nodes {
                return false;
            }
            match (&x.kind, &y.kind) {
                (ElementKind::Vsource { dc: xd, .. }, ElementKind::Vsource { dc: yd, .. })
                | (ElementKind::Isource { dc: xd, .. }, ElementKind::Isource { dc: yd, .. }) => {
                    xd == yd
                }
                (xk, yk) => xk == yk,
            }
        })
}

/// Walks `netlist` in the exact order of [`SizedCircuit::build`],
/// emitting a [`Binding`] for every variable-dependent element value.
/// Constant values are skipped — the skeleton already holds them.
/// Every name an expression references is a user variable: the
/// skeleton was assembled from these expressions.
fn bindings_for(netlist: &Netlist, skeleton: &SizedCircuit, user_names: &[String]) -> Vec<Binding> {
    let mut out = Vec::new();
    let mut li = 0usize; // next linear-element index
    let mut mi = 0usize; // next mosfet index
    let mut bi = 0usize; // next bjt index
    let mut di = 0usize; // next diode index
    for el in &netlist.elements {
        let mut push = |expr: &Expr, target: BindTarget| {
            let vars = expr.variables();
            if vars.is_empty() {
                return;
            }
            let deps = vars
                .iter()
                .map(|v| {
                    user_names
                        .iter()
                        .rposition(|n| n == v)
                        .expect("the skeleton assembled, so the variable is declared")
                })
                .collect();
            out.push(Binding {
                element: el.name.clone(),
                target,
                expr: expr.clone(),
                deps,
            });
        };
        match &el.kind {
            ElementKind::Resistor { value } => {
                push(value, BindTarget::Resistor(li));
                li += 1;
            }
            ElementKind::Capacitor { value } => {
                push(value, BindTarget::Capacitor(li));
                li += 1;
            }
            ElementKind::Inductor { value } => {
                push(value, BindTarget::Inductor(li));
                li += 1;
            }
            ElementKind::Vsource { dc, .. } => {
                push(dc, BindTarget::VsourceDc(li));
                li += 1;
            }
            ElementKind::Isource { dc, .. } => {
                push(dc, BindTarget::IsourceDc(li));
                li += 1;
            }
            ElementKind::Vcvs { gain, .. } => {
                push(gain, BindTarget::VcvsGain(li));
                li += 1;
            }
            ElementKind::Vccs { gm, .. } => {
                push(gm, BindTarget::VccsGm(li));
                li += 1;
            }
            ElementKind::Mosfet { w, l, .. } => {
                push(w, BindTarget::MosW(mi));
                push(l, BindTarget::MosL(mi));
                // The device template inserts series resistors among
                // the linear elements; keep the counter in sync.
                let (rd, rs) = skeleton.mosfets[mi].model.series_resistance();
                if rd > 0.0 {
                    li += 1;
                }
                if rs > 0.0 {
                    li += 1;
                }
                mi += 1;
            }
            ElementKind::Bjt { area, .. } => {
                push(area, BindTarget::BjtArea(bi));
                if skeleton.bjts[bi].model.params().rb > 0.0 {
                    li += 1;
                }
                bi += 1;
            }
            ElementKind::Diode { area, .. } => {
                push(area, BindTarget::DiodeArea(di));
                di += 1;
            }
        }
    }
    out
}

/// One jig materialized in a slot.
#[derive(Debug, Clone)]
struct JigSlot {
    ckt: SizedCircuit,
    /// Cloned from the plan's template: symbolic structure shared, value
    /// arrays private to this slot.
    engine: AweEngine,
    mos_ops: Vec<MosOp>,
    bjt_ops: Vec<BjtOp>,
    diode_ops: Vec<DiodeOp>,
}

/// Which parts of the state a bias update changed, for the jig step.
struct BiasDirt {
    user: Vec<bool>,
    mos: Vec<bool>,
    bjt: Vec<bool>,
    diode: Vec<bool>,
}

/// The bias half of a slot: everything the KCL residual and the Newton
/// move read for a specific `(user, nodes)` pair. `valid == false`
/// means a previous update failed partway and nothing here may be
/// reused; the next update then recomputes everything (which rewrites
/// every bound value).
#[derive(Debug, Clone)]
pub(crate) struct BiasSlot {
    valid: bool,
    user: Vec<f64>,
    nodes: Vec<f64>,
    ckt: SizedCircuit,
    x: Vec<f64>,
    mos_ops: Vec<MosOp>,
    bjt_ops: Vec<BjtOp>,
    diode_ops: Vec<DiodeOp>,
    /// KCL conductance matrix and source vector (stamped with unit
    /// source scale, exactly as [`crate::cost::kcl_residual`]); reused
    /// across updates that leave every linear bias value unchanged.
    kcl_g: Mat<f64>,
    kcl_rhs: Vec<f64>,
    residual: Vec<f64>,
}

impl BiasSlot {
    pub(crate) fn new(plan: &EvalPlan) -> BiasSlot {
        let ckt = &plan.bias_template;
        let dim = ckt.dim();
        BiasSlot {
            valid: false,
            user: Vec::new(),
            nodes: Vec::new(),
            ckt: ckt.clone(),
            x: vec![0.0; dim],
            mos_ops: vec![MosOp::default(); ckt.mosfets.len()],
            bjt_ops: vec![BjtOp::default(); ckt.bjts.len()],
            diode_ops: vec![DiodeOp::default(); ckt.diodes.len()],
            kcl_g: Mat::zeros(dim, dim),
            kcl_rhs: vec![0.0; dim],
            residual: vec![0.0; dim],
        }
    }

    /// `true` when the slot holds exactly this state (bitwise).
    fn matches(&self, user: &[f64], nodes: &[f64]) -> bool {
        self.valid
            && self.user.len() == user.len()
            && self.nodes.len() == nodes.len()
            && self
                .user
                .iter()
                .zip(user)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self
                .nodes
                .iter()
                .zip(nodes)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// `true` when an update to the proposed state must recompute
    /// everything: the slot is invalid, the node count differs, or a
    /// changed user variable feeds a linear bias element (which moves
    /// the determined-voltage tree and the KCL matrix).
    fn needs_full(&self, plan: &EvalPlan, user: &[f64], nodes: &[f64]) -> bool {
        !self.valid || self.nodes.len() != nodes.len() || !plan.incremental_ok(&self.user, user)
    }

    /// Brings the bias half to `(user, nodes)` by recomputing a dirty
    /// set: the bindings of changed variables and the devices whose
    /// geometry or terminal voltages changed. `full` (=
    /// [`BiasSlot::needs_full`] for this proposal) makes everything
    /// dirty and also rebuilds the determined voltages and restamps
    /// the KCL matrix. Clean parts keep their values: their inputs are
    /// bitwise identical to when they were last computed.
    ///
    /// The residual is always recomputed in full from the KCL matrix —
    /// incremental column updates would accumulate floating-point drift
    /// and break bit-identity with the reference evaluation.
    fn update(
        &mut self,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
        full: bool,
    ) -> Result<BiasDirt, EvalFailure> {
        debug_assert_eq!(full, self.needs_full(plan, user, nodes));
        let dirty_user: Vec<bool> = if full {
            vec![true; user.len()]
        } else {
            self.user
                .iter()
                .zip(user)
                .map(|(a, b)| a.to_bits() != b.to_bits())
                .collect()
        };
        let dirty_node: Vec<bool> = if full {
            Vec::new()
        } else {
            self.nodes
                .iter()
                .zip(nodes)
                .map(|(a, b)| a.to_bits() != b.to_bits())
                .collect()
        };
        self.valid = false;
        self.user.clear();
        self.user.extend_from_slice(user);
        self.nodes.clear();
        self.nodes.extend_from_slice(nodes);
        let ctx = VarsCtx {
            names: &plan.user_names,
            values: user,
        };
        // 1. Dirty bias bindings. Linear targets appear only in the
        //    full case, whose device flags start all set.
        let mut mos_dirty = vec![full; self.ckt.mosfets.len()];
        let mut bjt_dirty = vec![full; self.ckt.bjts.len()];
        let mut diode_dirty = vec![full; self.ckt.diodes.len()];
        for b in &plan.bias_bindings {
            if b.dirty(&dirty_user) {
                b.apply(&mut self.ckt, &ctx)?;
                match b.target {
                    BindTarget::MosW(i) | BindTarget::MosL(i) => mos_dirty[i] = true,
                    BindTarget::BjtArea(i) => bjt_dirty[i] = true,
                    BindTarget::DiodeArea(i) => diode_dirty[i] = true,
                    _ => debug_assert!(full, "linear bias binding outside a full update"),
                }
            }
        }
        // 2. Bias node voltages: the whole vector in the full case,
        //    otherwise the changed free nodes plus the devices on them.
        if full {
            let det = determined_voltages(&self.ckt);
            debug_assert!(
                free_nodes(&det) == plan.free_nodes,
                "free-node pattern must be value-independent"
            );
            fill_bias_vector(&det, nodes, &mut self.x);
        } else {
            let mut node_changed = vec![false; self.ckt.nodes.len()];
            for (k, &ni) in plan.free_nodes.iter().enumerate() {
                if k < dirty_node.len() && dirty_node[k] {
                    self.x[ni] = nodes[k];
                    node_changed[ni] = true;
                }
            }
            let moved = |n: Option<usize>| n.is_some_and(|i| node_changed[i]);
            for (i, m) in self.ckt.mosfets.iter().enumerate() {
                mos_dirty[i] |= moved(m.d) || moved(m.g) || moved(m.s) || moved(m.b);
            }
            for (i, q) in self.ckt.bjts.iter().enumerate() {
                bjt_dirty[i] |= moved(q.c) || moved(q.b) || moved(q.e);
            }
            for (i, d) in self.ckt.diodes.iter().enumerate() {
                diode_dirty[i] |= moved(d.a) || moved(d.k);
            }
        }
        // 3. Re-evaluate dirty devices; operating points are pure
        //    functions of geometry and terminal voltages.
        for (i, m) in self.ckt.mosfets.iter().enumerate() {
            if mos_dirty[i] {
                self.mos_ops[i] = m.op_at(&self.x);
            }
        }
        for (i, q) in self.ckt.bjts.iter().enumerate() {
            if bjt_dirty[i] {
                self.bjt_ops[i] = q.op_at(&self.x);
            }
        }
        for (i, d) in self.ckt.diodes.iter().enumerate() {
            if diode_dirty[i] {
                self.diode_ops[i] = d.op_at(&self.x);
            }
        }
        // 4. Residual `f = G·x − rhs + device currents`, after
        //    restamping the KCL linear part (unit source scale,
        //    identical arithmetic and order to `cost::kcl_residual`)
        //    when linear values may have moved.
        if full {
            let n = self.ckt.nodes.len();
            self.kcl_g.clear();
            self.kcl_rhs.fill(0.0);
            for el in &self.ckt.linear {
                el.stamp_dc(&mut self.kcl_g, &mut self.kcl_rhs, n, 1.0);
            }
        }
        self.kcl_g.mul_vec_into(&self.x, &mut self.residual);
        for (fi, r) in self.residual.iter_mut().zip(self.kcl_rhs.iter()) {
            *fi -= r;
        }
        add_device_currents(
            &self.ckt,
            &mut self.residual,
            &self.mos_ops,
            &self.bjt_ops,
            &self.diode_ops,
        );
        self.valid = true;
        Ok(BiasDirt {
            user: dirty_user,
            mos: mos_dirty,
            bjt: bjt_dirty,
            diode: diode_dirty,
        })
    }

    /// The Newton–Raphson step on the free nodes at `(user, nodes)`:
    /// brings the slot there by the same dirty-set rule as
    /// [`BiasSlot::update`], then solves the free-node block of
    /// `J·Δ = −F`, with `J` and `F` stamped from the slot's device ops
    /// exactly as [`oblx_mna::dc::linearize_at`] would at
    /// `gmin = 1e-12`. `None` when a binding fails, there are no free
    /// nodes, or the block is singular.
    pub(crate) fn newton_step(
        &mut self,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
    ) -> Option<Vec<f64>> {
        let full = self.needs_full(plan, user, nodes);
        self.update(plan, user, nodes, full).ok()?;
        let free = &plan.free_nodes;
        if free.is_empty() {
            return None;
        }
        let (jac, f) = linearize_with_ops(
            &self.ckt,
            &self.x,
            &self.kcl_g,
            &self.kcl_rhs,
            &self.mos_ops,
            &self.bjt_ops,
            &self.diode_ops,
            1e-12,
        );
        let nf = free.len();
        let mut jff = Mat::zeros(nf, nf);
        let mut rhs = vec![0.0; nf];
        for (r, &nr) in free.iter().enumerate() {
            rhs[r] = -f[nr];
            for (c, &nc) in free.iter().enumerate() {
                jff[(r, c)] = jac.get(nr, nc);
            }
        }
        Some(Lu::factor(jff).ok()?.solve(&rhs))
    }
}

/// One materialized configuration: the bias half plus the jigs and AWE
/// models derived from it. The slot is valid only as a whole, so a jig
/// failure invalidates the bias half too.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// LRU clock stamp, maintained by the evaluator.
    pub(crate) stamp: u64,
    bias: BiasSlot,
    jigs: Vec<JigSlot>,
    /// AWE models in flat analysis order. All `Some` once any update
    /// has completed (the slot is valid).
    models: Vec<Option<ReducedModel>>,
}

impl Slot {
    pub(crate) fn new(plan: &EvalPlan) -> Slot {
        Slot {
            stamp: 0,
            bias: BiasSlot::new(plan),
            jigs: plan
                .jigs
                .iter()
                .map(|j| JigSlot {
                    ckt: j.ckt_template.clone(),
                    engine: j.engine_template.clone(),
                    mos_ops: Vec::new(),
                    bjt_ops: Vec::new(),
                    diode_ops: Vec::new(),
                })
                .collect(),
            models: vec![None; plan.analysis_names.len()],
        }
    }

    pub(crate) fn valid(&self) -> bool {
        self.bias.valid
    }

    /// `true` when the slot holds exactly this state (bitwise).
    pub(crate) fn matches(&self, user: &[f64], nodes: &[f64]) -> bool {
        self.bias.matches(user, nodes)
    }

    /// [`BiasSlot::needs_full`] of the bias half.
    pub(crate) fn needs_full(&self, plan: &EvalPlan, user: &[f64], nodes: &[f64]) -> bool {
        self.bias.needs_full(plan, user, nodes)
    }

    /// Brings the slot to `(user, nodes)`: [`BiasSlot::update`], then
    /// the jigs that read a dirty variable or device are rebound,
    /// restamped and re-analyzed (every jig when `full`).
    pub(crate) fn update(
        &mut self,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
        full: bool,
    ) -> Result<(), EvalFailure> {
        let dirt = self.bias.update(plan, user, nodes, full)?;
        // Invalid until every jig has been rerun.
        self.bias.valid = false;
        let ctx = VarsCtx {
            names: &plan.user_names,
            values: user,
        };
        let bias = &self.bias;
        for (jp, js) in plan.jigs.iter().zip(self.jigs.iter_mut()) {
            if !full && !jp.dirty(&dirt) {
                continue;
            }
            for b in &jp.bindings {
                if b.dirty(&dirt.user) {
                    b.apply(&mut js.ckt, &ctx)?;
                }
            }
            js.rerun(
                jp,
                &bias.mos_ops,
                &bias.bjt_ops,
                &bias.diode_ops,
                &mut self.models,
                plan.awe_order,
            )?;
        }
        self.bias.valid = true;
        Ok(())
    }
}

impl JigSlot {
    /// Copies the bias operating points through the device bindings,
    /// restamps the small-signal system, and re-runs every analysis.
    fn rerun(
        &mut self,
        jp: &JigPlan,
        mos_ops: &[MosOp],
        bjt_ops: &[BjtOp],
        diode_ops: &[DiodeOp],
        models: &mut [Option<ReducedModel>],
        awe_order: usize,
    ) -> Result<(), EvalFailure> {
        self.mos_ops.clear();
        self.mos_ops.extend(jp.mos_bind.iter().map(|&i| mos_ops[i]));
        self.bjt_ops.clear();
        self.bjt_ops.extend(jp.bjt_bind.iter().map(|&i| bjt_ops[i]));
        self.diode_ops.clear();
        self.diode_ops
            .extend(jp.diode_bind.iter().map(|&i| diode_ops[i]));
        // Element values are re-stamped straight into the engine's slot
        // arrays — no dense matrix is touched on the hot path. (Slot
        // replay is bit-identical to dense stamping, so the reference
        // evaluation, which gathers from its dense stamp, factors the
        // same numbers.)
        let (map, g_vals, c_vals) = self.engine.sparse_parts_mut();
        map.stamp(
            &self.ckt,
            &self.mos_ops,
            &self.bjt_ops,
            &self.diode_ops,
            g_vals,
            c_vals,
        );
        // One factorization serves every analysis of the jig; each
        // fitted model is bit-identical to a standalone `analyze_with`.
        let jobs: Vec<(&[f64], OutputSelector)> = jp
            .analyses
            .iter()
            .map(|a| (a.b.as_slice(), a.out))
            .collect();
        match oblx_awe::analyze_batch_with(&mut self.engine, &jobs, awe_order) {
            Ok(fitted) => {
                for (a, model) in jp.analyses.iter().zip(fitted) {
                    models[a.flat] = Some(model);
                }
                Ok(())
            }
            Err((i, e)) => Err(EvalFailure::Awe(format!("{}: {e}", jp.analyses[i].name))),
        }
    }
}

/// Expression-evaluation context over a slot: the plan-path counterpart
/// of the reference evaluation's record-backed context, with all name
/// resolution done by linear scans over precompiled tables instead of
/// freshly built hash maps.
struct PlanCtx<'a> {
    vars: VarsCtx<'a>,
    bias: &'a SizedCircuit,
    residual: &'a [f64],
    mos_ops: &'a [MosOp],
    bjt_ops: &'a [BjtOp],
    diode_ops: &'a [DiodeOp],
    analysis_names: &'a [String],
    models: &'a [Option<ReducedModel>],
}

/// Compares a flattened device name against dotted-path segments
/// without joining the segments into a fresh string.
fn seg_match(name: &str, segs: &[String]) -> bool {
    name.split('.').eq(segs.iter().map(|s| s.as_str()))
}

impl MeasureSource for PlanCtx<'_> {
    fn model(&self, handle: &str) -> Option<&ReducedModel> {
        let i = self.analysis_names.iter().position(|n| n == handle)?;
        self.models[i].as_ref()
    }

    fn power(&self) -> f64 {
        power_of(self.bias, self.residual)
    }

    fn area(&self) -> f64 {
        area_of(self.bias)
    }
}

impl EvalContext for PlanCtx<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        self.vars.lookup_var(name)
    }

    fn lookup_path(&self, path: &[String]) -> Result<f64, EvalError> {
        if path.len() >= 2 {
            let segs = &path[..path.len() - 1];
            let quantity = &path[path.len() - 1];
            // Same resolution order and first-match semantics as the
            // reference evaluation's by-name lookup.
            let q = if let Some(i) = self
                .bias
                .mosfets
                .iter()
                .position(|m| seg_match(&m.name, segs))
            {
                self.mos_ops[i].quantity(quantity)
            } else if let Some(i) = self.bias.bjts.iter().position(|b| seg_match(&b.name, segs)) {
                self.bjt_ops[i].quantity(quantity)
            } else if let Some(i) = self
                .bias
                .diodes
                .iter()
                .position(|d| seg_match(&d.name, segs))
            {
                self.diode_ops[i].quantity(quantity)
            } else {
                None
            };
            if let Some(v) = q {
                return Ok(v);
            }
        }
        Err(EvalError::UnknownPath(path.join(".")))
    }

    fn call(&self, name: &str, args: &[Expr], values: &[Option<f64>]) -> Result<f64, EvalError> {
        crate::cost::measure_call(self, name, args, values)
    }
}

/// Scores a valid slot under the current weights: the shared summation
/// in `cost::score_with`, fed from the slot's precomputed state.
pub(crate) fn score_slot(
    compiled: &CompiledProblem,
    plan: &EvalPlan,
    slot: &Slot,
    weights: &AdaptiveWeights,
    user: &[f64],
) -> Result<CostBreakdown, EvalFailure> {
    debug_assert!(slot.valid(), "scoring an invalid slot");
    let ctx = PlanCtx {
        vars: VarsCtx {
            names: &plan.user_names,
            values: user,
        },
        bias: &slot.bias.ckt,
        residual: &slot.bias.residual,
        mos_ops: &slot.bias.mos_ops,
        bjt_ops: &slot.bias.bjt_ops,
        diode_ops: &slot.bias.diode_ops,
        analysis_names: &plan.analysis_names,
        models: &slot.models,
    };
    score_with(
        compiled,
        weights,
        &ctx,
        &slot.bias.ckt.mosfets,
        &slot.bias.mos_ops,
        &slot.bias.bjt_ops,
        &plan.free_nodes,
        &slot.bias.residual,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astrx::compile;
    use crate::bench_suite;
    use crate::cost::AWE_ORDER;

    /// The Two-Stage supply-rejection jigs differ only in which source
    /// carries the ac excitation; the plan must merge them into a
    /// single materialized system serving all three analyses.
    #[test]
    fn two_stage_supply_jigs_share_one_system() {
        let b = bench_suite::by_name("Two-Stage").expect("Two-Stage exists");
        let compiled = compile(b.problem().expect("parses")).expect("compiles");
        let plan = EvalPlan::build(&compiled, AWE_ORDER);
        assert_eq!(plan.analysis_names.len(), 3, "three analyses expected");
        assert_eq!(plan.jigs.len(), 1, "structurally identical jigs merged");
        assert_eq!(plan.jigs[0].analyses.len(), 3);
    }
}
