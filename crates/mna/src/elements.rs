//! Concrete (value-resolved) linear elements and their MNA stamps.

use oblx_linalg::Mat;

/// A node index: `None` is ground.
pub type Node = Option<usize>;

/// A value-resolved linear element with interned node indices.
///
/// Branch-equation elements (`Vsource`, `Vcvs`, `Inductor`) carry the
/// index of their branch-current unknown, assigned during assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum LinElement {
    /// Resistor with conductance `g` between `p` and `m`.
    Resistor {
        /// Positive node.
        p: Node,
        /// Negative node.
        m: Node,
        /// Conductance (S).
        g: f64,
    },
    /// Capacitor `c` between `p` and `m`.
    Capacitor {
        /// Positive node.
        p: Node,
        /// Negative node.
        m: Node,
        /// Capacitance (F).
        c: f64,
    },
    /// Inductor `l` between `p` and `m`; a branch element.
    Inductor {
        /// Positive node.
        p: Node,
        /// Negative node.
        m: Node,
        /// Inductance (H).
        l: f64,
        /// Branch-current row/column.
        branch: usize,
    },
    /// Independent voltage source; a branch element.
    Vsource {
        /// Positive node.
        p: Node,
        /// Negative node.
        m: Node,
        /// dc value (V).
        dc: f64,
        /// ac magnitude (V).
        ac: f64,
        /// Branch-current row/column.
        branch: usize,
    },
    /// Independent current source flowing `p → m` through the source.
    Isource {
        /// Positive node.
        p: Node,
        /// Negative node.
        m: Node,
        /// dc value (A).
        dc: f64,
        /// ac magnitude (A).
        ac: f64,
    },
    /// Voltage-controlled voltage source; a branch element.
    Vcvs {
        /// Positive output node.
        p: Node,
        /// Negative output node.
        m: Node,
        /// Positive controlling node.
        cp: Node,
        /// Negative controlling node.
        cm: Node,
        /// Voltage gain.
        gain: f64,
        /// Branch-current row/column.
        branch: usize,
    },
    /// Voltage-controlled current source: `gm·v(cp,cm)` into `p → m`.
    Vccs {
        /// Positive output node.
        p: Node,
        /// Negative output node.
        m: Node,
        /// Positive controlling node.
        cp: Node,
        /// Negative controlling node.
        cm: Node,
        /// Transconductance (S).
        gm: f64,
    },
}

/// A destination for MNA matrix stamps.
///
/// The stamping code is generic over the sink so the *same* write
/// sequence can target a dense [`Mat`], a pattern recorder (building
/// the structural nonzero list for sparse symbolic analysis), or a
/// slot writer that accumulates straight into sparse value storage.
/// Because the sequence of `(r, c)` writes depends only on circuit
/// structure — never on element values — a recorded pattern replays
/// exactly, and per-cell accumulation order (hence floating-point
/// rounding) is identical across all sinks.
pub trait Stamper {
    /// Accumulates `v` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

impl Stamper for Mat<f64> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.add_at(r, c, v);
    }
}

/// Adds `v` at `(r, c)` when both indices are non-ground.
#[inline]
pub fn stamp<S: Stamper>(mat: &mut S, r: Node, c: Node, v: f64) {
    if let (Some(r), Some(c)) = (r, c) {
        mat.add(r, c, v);
    }
}

/// Adds `v` at vector position `r` when non-ground.
#[inline]
pub fn stamp_vec(vec: &mut [f64], r: Node, v: f64) {
    if let Some(r) = r {
        vec[r] += v;
    }
}

/// Stamps a conductance `g` between `p` and `m` (two-terminal pattern).
pub fn stamp_conductance<S: Stamper>(mat: &mut S, p: Node, m: Node, g: f64) {
    stamp(mat, p, p, g);
    stamp(mat, m, m, g);
    stamp(mat, p, m, -g);
    stamp(mat, m, p, -g);
}

/// Stamps a VCCS `gm·v(cp,cm)` flowing `p → m`.
pub fn stamp_vccs<S: Stamper>(mat: &mut S, p: Node, m: Node, cp: Node, cm: Node, gm: f64) {
    stamp(mat, p, cp, gm);
    stamp(mat, p, cm, -gm);
    stamp(mat, m, cp, -gm);
    stamp(mat, m, cm, gm);
}

impl LinElement {
    /// Stamps this element's **conductance-like** (frequency-independent)
    /// contributions into `g`, and its source contributions into the
    /// dc right-hand side `rhs` scaled by `src_scale` (used for source
    /// stepping).
    ///
    /// Branch rows enforce their defining equations; `n` is the number
    /// of node unknowns (branch `k` lives at row/column `n + k`).
    pub fn stamp_dc<S: Stamper>(&self, g: &mut S, rhs: &mut [f64], n: usize, src_scale: f64) {
        match *self {
            LinElement::Resistor { p, m, g: cond } => stamp_conductance(g, p, m, cond),
            LinElement::Capacitor { .. } => {} // open at dc
            LinElement::Inductor { p, m, branch, .. } => {
                // dc: a 0 V source — short circuit through the branch.
                let b = Some(n + branch);
                stamp(g, p, b, 1.0);
                stamp(g, m, b, -1.0);
                stamp(g, b, p, 1.0);
                stamp(g, b, m, -1.0);
            }
            LinElement::Vsource {
                p, m, dc, branch, ..
            } => {
                let b = Some(n + branch);
                stamp(g, p, b, 1.0);
                stamp(g, m, b, -1.0);
                stamp(g, b, p, 1.0);
                stamp(g, b, m, -1.0);
                stamp_vec(rhs, b, dc * src_scale);
            }
            LinElement::Isource { p, m, dc, .. } => {
                // Current flows out of p into m: contributes −dc to KCL
                // at p (current leaving) — as a source on the rhs it
                // *enters* m.
                stamp_vec(rhs, p, -dc * src_scale);
                stamp_vec(rhs, m, dc * src_scale);
            }
            LinElement::Vcvs {
                p,
                m,
                cp,
                cm,
                gain,
                branch,
            } => {
                let b = Some(n + branch);
                stamp(g, p, b, 1.0);
                stamp(g, m, b, -1.0);
                stamp(g, b, p, 1.0);
                stamp(g, b, m, -1.0);
                stamp(g, b, cp, -gain);
                stamp(g, b, cm, gain);
            }
            LinElement::Vccs { p, m, cp, cm, gm } => stamp_vccs(g, p, m, cp, cm, gm),
        }
    }

    /// Stamps this element's **susceptance** (frequency-proportional)
    /// contributions into `c`: capacitor currents `s·C·v` and the
    /// inductor branch `−s·L·i` term.
    pub fn stamp_ac<S: Stamper>(&self, c: &mut S, n: usize) {
        match *self {
            LinElement::Capacitor { p, m, c: cap } => stamp_conductance(c, p, m, cap),
            LinElement::Inductor { l, branch, .. } => {
                let b = Some(n + branch);
                stamp(c, b, b, -l);
            }
            _ => {}
        }
    }

    /// The branch index, for branch elements.
    pub fn branch(&self) -> Option<usize> {
        match *self {
            LinElement::Inductor { branch, .. }
            | LinElement::Vsource { branch, .. }
            | LinElement::Vcvs { branch, .. } => Some(branch),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblx_linalg::Lu;

    #[test]
    fn divider_via_stamps() {
        // v1 in 0 6; r1 in out 2 (g=0.5); r2 out 0 1 (g=1)
        let n = 2; // in=0, out=1
        let mut g = Mat::zeros(3, 3);
        let mut rhs = vec![0.0; 3];
        LinElement::Resistor {
            p: Some(0),
            m: Some(1),
            g: 0.5,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        LinElement::Resistor {
            p: Some(1),
            m: None,
            g: 1.0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        LinElement::Vsource {
            p: Some(0),
            m: None,
            dc: 6.0,
            ac: 0.0,
            branch: 0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        let x = Lu::factor(g).unwrap().solve(&rhs);
        assert!((x[0] - 6.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Source branch current: 6 V across 3 Ω total = 2 A out of +.
        assert!((x[2] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn isource_direction() {
        // i1 0 out 1A pushes current INTO `out` (flows 0→out through src).
        let n = 1;
        let mut g = Mat::zeros(1, 1);
        let mut rhs = vec![0.0; 1];
        LinElement::Resistor {
            p: Some(0),
            m: None,
            g: 0.5,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        LinElement::Isource {
            p: None,
            m: Some(0),
            dc: 1.0,
            ac: 0.0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        let x = Lu::factor(g).unwrap().solve(&rhs);
        assert!((x[0] - 2.0).abs() < 1e-12); // 1 A into 2 Ω
    }

    #[test]
    fn vccs_polarity() {
        // gm·v(c) from node out to ground, v(c) set by source: i = gm·vc
        // out of `out`… check sign by solving.
        let n = 2; // c=0, out=1
        let mut g = Mat::zeros(3, 3);
        let mut rhs = vec![0.0; 3];
        LinElement::Vsource {
            p: Some(0),
            m: None,
            dc: 1.0,
            ac: 0.0,
            branch: 0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        LinElement::Resistor {
            p: Some(1),
            m: None,
            g: 1.0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        // i = gm·v(c,0) flowing out→gnd ⇒ v(out) = −gm·R·v(c)… with p=out:
        LinElement::Vccs {
            p: Some(1),
            m: None,
            cp: Some(0),
            cm: None,
            gm: 2.0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        let x = Lu::factor(g).unwrap().solve(&rhs);
        // KCL at out: v_out·1 + 2·v_c = 0 ⇒ v_out = −2.
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_open_at_dc_stamped_in_c() {
        let mut g = Mat::zeros(1, 1);
        let mut c = Mat::zeros(1, 1);
        let mut rhs = vec![0.0; 1];
        let cap = LinElement::Capacitor {
            p: Some(0),
            m: None,
            c: 1e-12,
        };
        cap.stamp_dc(&mut g, &mut rhs, 1, 1.0);
        cap.stamp_ac(&mut c, 1);
        assert_eq!(g[(0, 0)], 0.0);
        assert_eq!(c[(0, 0)], 1e-12);
    }

    #[test]
    fn vcvs_enforces_gain() {
        // e1 out 0 in 0 gain=3; vin in 0 2 ⇒ v(out) = 6
        let n = 2; // in=0, out=1
        let mut g = Mat::zeros(4, 4);
        let mut rhs = vec![0.0; 4];
        LinElement::Vsource {
            p: Some(0),
            m: None,
            dc: 2.0,
            ac: 0.0,
            branch: 0,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        LinElement::Vcvs {
            p: Some(1),
            m: None,
            cp: Some(0),
            cm: None,
            gain: 3.0,
            branch: 1,
        }
        .stamp_dc(&mut g, &mut rhs, n, 1.0);
        let x = Lu::factor(g).unwrap().solve(&rhs);
        assert!((x[1] - 6.0).abs() < 1e-12);
    }
}
