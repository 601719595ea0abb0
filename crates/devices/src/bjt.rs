//! Gummel–Poon bipolar transistor evaluator (simplified: forward/reverse
//! Ebers–Moll core with Early effect, betas, and junction/diffusion
//! capacitances).

use crate::caps::junction_cap;
use crate::mos_iv::VT;
use oblx_netlist::ModelCard;

/// Gummel–Poon parameter set (SPICE naming, subset).
#[derive(Debug, Clone, PartialEq)]
pub struct BjtParams {
    /// Saturation current (A).
    pub is: f64,
    /// Forward beta.
    pub bf: f64,
    /// Reverse beta.
    pub br: f64,
    /// Forward Early voltage (V); 0 disables.
    pub vaf: f64,
    /// Forward transit time (s).
    pub tf: f64,
    /// Base–emitter zero-bias depletion capacitance (F).
    pub cje: f64,
    /// Base–collector zero-bias depletion capacitance (F).
    pub cjc: f64,
    /// Junction grading coefficient.
    pub mj: f64,
    /// Junction built-in potential (V).
    pub vj: f64,
    /// Base resistance (Ω); > 0 adds an internal base node.
    pub rb: f64,
}

impl Default for BjtParams {
    fn default() -> Self {
        BjtParams {
            is: 1e-16,
            bf: 100.0,
            br: 1.0,
            vaf: 50.0,
            tf: 0.3e-9,
            cje: 1e-12,
            cjc: 0.5e-12,
            mj: 0.33,
            vj: 0.75,
            rb: 0.0,
        }
    }
}

impl BjtParams {
    /// Builds parameters from a `.model` card, with defaults for missing
    /// entries.
    pub fn from_card(card: &ModelCard) -> BjtParams {
        let mut p = BjtParams::default();
        let g = |k: &str, d: f64| card.params.get(k).copied().unwrap_or(d);
        p.is = g("is", p.is);
        p.bf = g("bf", p.bf);
        p.br = g("br", p.br);
        p.vaf = g("vaf", p.vaf);
        p.tf = g("tf", p.tf);
        p.cje = g("cje", p.cje);
        p.cjc = g("cjc", p.cjc);
        p.mj = g("mj", p.mj);
        p.vj = g("vj", p.vj);
        p.rb = g("rb", p.rb);
        p
    }
}

/// A BJT operating point in the terminal frame (currents *into* the
/// collector and base terminals; emitter current is `−(ic + ib)`).
///
/// Derivative fields give the terminal-current Jacobian:
///
/// ```text
/// ∂I_c/∂v(b,e) = gm_be    ∂I_c/∂v(c,e) = go
/// ∂I_b/∂v(b,e) = gpi      ∂I_b/∂v(c,e) = gmu
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BjtOp {
    /// Collector terminal current (A).
    pub ic: f64,
    /// Base terminal current (A).
    pub ib: f64,
    /// ∂ic/∂vbe (S).
    pub gm_be: f64,
    /// ∂ic/∂vce (S).
    pub go: f64,
    /// ∂ib/∂vbe (S).
    pub gpi: f64,
    /// ∂ib/∂vce (S).
    pub gmu: f64,
    /// Base–emitter small-signal capacitance (diffusion + depletion).
    pub cpi: f64,
    /// Base–collector small-signal capacitance.
    pub cmu: f64,
    /// `true` when forward-active.
    pub forward_active: bool,
}

impl BjtOp {
    /// Looks up a named operating-point quantity. Known names: `ic`,
    /// `ib`, `gm`, `go`, `gpi`, `cpi`, `cmu`, `beta`.
    pub fn quantity(&self, name: &str) -> Option<f64> {
        Some(match name {
            "ic" => self.ic,
            "ib" => self.ib,
            "gm" => self.gm_be,
            "go" => self.go,
            "gpi" => self.gpi,
            "cpi" => self.cpi,
            "cmu" => self.cmu,
            "beta" => {
                if self.ib.abs() > 0.0 {
                    self.ic / self.ib
                } else {
                    0.0
                }
            }
            _ => return None,
        })
    }
}

/// Exponential with a linear extension beyond `x = LIM`, keeping value
/// and derivative continuous so Newton iterations cannot overflow.
fn exp_lim(x: f64) -> (f64, f64) {
    const LIM: f64 = 40.0;
    if x < LIM {
        let e = x.exp();
        (e, e)
    } else {
        let e = LIM.exp();
        (e * (1.0 + (x - LIM)), e)
    }
}

/// An encapsulated bipolar evaluator.
///
/// # Examples
///
/// ```
/// use oblx_devices::{BjtModel, BjtParams};
///
/// let q = BjtModel::new("npn1", true, BjtParams::default());
/// let op = q.op(1.0, 2.5, 0.7, 0.0); // area, vc, vb, ve
/// assert!(op.ic > 0.0 && op.forward_active);
/// assert!((op.ic / op.ib - 100.0).abs() < 10.0); // ≈ bf (Early-boosted)
/// ```
#[derive(Debug, Clone)]
pub struct BjtModel {
    name: String,
    npn: bool,
    params: BjtParams,
}

impl BjtModel {
    /// Creates an evaluator. `npn = false` gives a PNP (all voltages and
    /// currents mirrored).
    pub fn new(name: impl Into<String>, npn: bool, params: BjtParams) -> Self {
        BjtModel {
            name: name.into(),
            npn,
            params,
        }
    }

    /// Creates an evaluator from a `.model` card (kind `npn`/`pnp`).
    pub fn from_card(card: &ModelCard) -> Option<BjtModel> {
        let npn = match card.kind.as_str() {
            "npn" => true,
            "pnp" => false,
            _ => return None,
        };
        Some(BjtModel::new(
            card.name.clone(),
            npn,
            BjtParams::from_card(card),
        ))
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying parameter set.
    pub fn params(&self) -> &BjtParams {
        &self.params
    }

    /// Evaluates the operating point at absolute terminal voltages
    /// `(vc, vb, ve)`, scaled by the emitter `area` multiplier.
    pub fn op(&self, area: f64, vc: f64, vb: f64, ve: f64) -> BjtOp {
        let s = if self.npn { 1.0 } else { -1.0 };
        let vbe = s * (vb - ve);
        let vbc = s * (vb - vc);
        let p = &self.params;
        let is = p.is * area.max(1e-3);

        let (ef, def) = exp_lim(vbe / VT);
        let (er, der) = exp_lim(vbc / VT);
        // Transport current with forward Early effect.
        let early = if p.vaf > 0.0 {
            1.0 + s * (vc - ve) / p.vaf
        } else {
            1.0
        }
        .max(0.1);
        let icc = is * (ef - er) * early;
        let ibe = is / p.bf * (ef - 1.0);
        let ibc = is / p.br * (er - 1.0);

        let ic_n = icc - ibc;
        let ib_n = ibe + ibc;

        // Derivatives in the normalized frame. vce = vbe − vbc.
        let dicc_dvbe = is * def / VT * early;
        let dicc_dvbc = -is * der / VT * early;
        let dicc_dvce = if p.vaf > 0.0 {
            is * (ef - er) / p.vaf
        } else {
            0.0
        };
        let dibe_dvbe = is / p.bf * def / VT;
        let dibc_dvbc = is / p.br * der / VT;

        // Terminal-frame Jacobian entries (vbc = vbe − vce):
        // ic(vbe, vce) = icc(vbe, vbe−vce, vce) − ibc(vbe−vce)
        let gm_be = dicc_dvbe + dicc_dvbc - dibc_dvbc;
        let go = -dicc_dvbc + dicc_dvce + dibc_dvbc;
        let gpi = dibe_dvbe + dibc_dvbc;
        let gmu = -dibc_dvbc;

        // Capacitances: diffusion (tf·gm) + depletion.
        let cpi = p.tf * dicc_dvbe.max(0.0) + junction_cap(p.cje * area, vbe, p.vj, p.mj);
        let cmu = junction_cap(p.cjc * area, vbc, p.vj, p.mj);

        BjtOp {
            ic: s * ic_n,
            ib: s * ib_n,
            gm_be,
            go,
            gpi,
            gmu,
            cpi,
            cmu,
            forward_active: vbe > 0.5 && vbc < 0.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn npn() -> BjtModel {
        BjtModel::new("q", true, BjtParams::default())
    }

    #[test]
    fn forward_active_basics() {
        let op = npn().op(1.0, 3.0, 0.7, 0.0);
        assert!(op.forward_active);
        assert!(op.ic > 0.0 && op.ib > 0.0);
        let beta = op.ic / op.ib;
        assert!((beta - 100.0).abs() / 100.0 < 0.1, "beta = {beta}");
        // gm ≈ ic/vt
        assert!((op.gm_be - op.ic / VT).abs() / (op.ic / VT) < 0.05);
    }

    #[test]
    fn early_effect_gives_finite_output_conductance() {
        let q = npn();
        let lo = q.op(1.0, 2.0, 0.7, 0.0);
        let hi = q.op(1.0, 4.0, 0.7, 0.0);
        assert!(hi.ic > lo.ic);
        assert!(lo.go > 0.0);
        // go ≈ ic/vaf
        assert!((lo.go - lo.ic / 50.0).abs() / (lo.ic / 50.0) < 0.3);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let q = npn();
        let (vc, vb, ve) = (3.0, 0.68, 0.0);
        let op = q.op(1.0, vc, vb, ve);
        let h = 1e-7;
        // gm_be: wiggle base (vce fixed means wiggling vb only changes vbe... and vbc)
        let fd_gm = (q.op(1.0, vc, vb + h, ve).ic - q.op(1.0, vc, vb - h, ve).ic) / (2.0 * h);
        let fd_go = (q.op(1.0, vc + h, vb, ve).ic - q.op(1.0, vc - h, vb, ve).ic) / (2.0 * h);
        let fd_gpi = (q.op(1.0, vc, vb + h, ve).ib - q.op(1.0, vc, vb - h, ve).ib) / (2.0 * h);
        assert!((op.gm_be - fd_gm).abs() / fd_gm.abs().max(1e-12) < 1e-3);
        assert!((op.go - fd_go).abs() / fd_go.abs().max(1e-12) < 1e-3);
        assert!((op.gpi - fd_gpi).abs() / fd_gpi.abs().max(1e-12) < 1e-3);
    }

    #[test]
    fn pnp_mirrors_npn() {
        let n = npn();
        let p = BjtModel::new("q", false, BjtParams::default());
        let opn = n.op(1.0, 3.0, 0.7, 0.0);
        let opp = p.op(1.0, -3.0, -0.7, 0.0);
        assert!((opn.ic + opp.ic).abs() < 1e-12 * opn.ic.abs());
        assert!((opn.ib + opp.ib).abs() < 1e-12 * opn.ib.abs());
        assert!((opn.gm_be - opp.gm_be).abs() < 1e-9 * opn.gm_be);
    }

    #[test]
    fn overflow_protected() {
        let op = npn().op(1.0, 100.0, 90.0, 0.0);
        assert!(op.ic.is_finite() && op.ib.is_finite());
        assert!(op.gm_be.is_finite());
    }

    #[test]
    fn area_scales_current() {
        let q = npn();
        let a1 = q.op(1.0, 3.0, 0.65, 0.0);
        let a4 = q.op(4.0, 3.0, 0.65, 0.0);
        assert!((a4.ic / a1.ic - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quantities() {
        let op = npn().op(1.0, 3.0, 0.7, 0.0);
        assert_eq!(op.quantity("ic"), Some(op.ic));
        assert!(op.quantity("beta").unwrap() > 50.0);
        assert_eq!(op.quantity("nope"), None);
    }
}
