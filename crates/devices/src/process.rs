//! Representative fabrication-process parameter decks.
//!
//! The paper synthesized against proprietary 2µ and 1.2µ CMOS and BiCMOS
//! foundry decks that are not publicly available; these textbook-era
//! parameter sets stand in for them (see DESIGN.md §1). Every deck ships
//! `.model` cards named `nmos` / `pmos` (plus `npn` for BiCMOS) so the
//! same benchmark netlists run against any deck.

use oblx_netlist::ModelCard;
use std::collections::HashMap;

/// Which process/model combination to synthesize against — the §VI model
/// experiment of the paper varies exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessDeck {
    /// 2µ CMOS, SPICE level-1 models.
    C2Level1,
    /// 2µ CMOS, BSIM-style models.
    C2Bsim,
    /// 1.2µ CMOS, BSIM-style models.
    C12Bsim,
    /// 1.2µ CMOS, level-3 models.
    C12Level3,
    /// 2µ BiCMOS: level-1 MOS plus a Gummel–Poon NPN.
    BicmosC2,
}

impl ProcessDeck {
    /// Human-readable label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            ProcessDeck::C2Level1 => "MOS1/2u",
            ProcessDeck::C2Bsim => "BSIM/2u",
            ProcessDeck::C12Bsim => "BSIM/1.2u",
            ProcessDeck::C12Level3 => "MOS3/1.2u",
            ProcessDeck::BicmosC2 => "BiCMOS/2u",
        }
    }

    /// The `.model` cards of the deck.
    pub fn cards(self) -> Vec<ModelCard> {
        match self {
            ProcessDeck::C2Level1 => vec![
                mos_card("nmos", "nmos", &C2_NMOS_L1),
                mos_card("pmos", "pmos", &C2_PMOS_L1),
            ],
            ProcessDeck::C2Bsim => vec![
                mos_card("nmos", "nmos", &C2_NMOS_BSIM),
                mos_card("pmos", "pmos", &C2_PMOS_BSIM),
            ],
            ProcessDeck::C12Bsim => vec![
                mos_card("nmos", "nmos", &C12_NMOS_BSIM),
                mos_card("pmos", "pmos", &C12_PMOS_BSIM),
            ],
            ProcessDeck::C12Level3 => vec![
                mos_card("nmos", "nmos", &C12_NMOS_L3),
                mos_card("pmos", "pmos", &C12_PMOS_L3),
            ],
            ProcessDeck::BicmosC2 => vec![
                mos_card("nmos", "nmos", &BIC_NMOS_L1),
                mos_card("pmos", "pmos", &BIC_PMOS_L1),
                mos_card("npn", "npn", &BICMOS_NPN),
            ],
        }
    }
}

/// All decks, for sweeping experiments.
pub const ALL_DECKS: [ProcessDeck; 5] = [
    ProcessDeck::C2Level1,
    ProcessDeck::C2Bsim,
    ProcessDeck::C12Bsim,
    ProcessDeck::C12Level3,
    ProcessDeck::BicmosC2,
];

fn mos_card(name: &str, kind: &str, params: &[(&str, f64)]) -> ModelCard {
    ModelCard {
        name: name.to_string(),
        kind: kind.to_string(),
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect::<HashMap<_, _>>(),
    }
}

// 2µ CMOS, level 1. tox = 40 nm (cox ≈ 0.86 mF/m²).
const C2_NMOS_L1: [(&str, f64); 12] = [
    ("level", 1.0),
    ("vto", 0.75),
    ("kp", 5.2e-5),
    ("gamma", 0.55),
    ("phi", 0.65),
    ("lambda", 0.03),
    ("tox", 40e-9),
    ("ld", 0.25e-6),
    ("cgso", 2.2e-10),
    ("cgdo", 2.2e-10),
    ("cj", 3.1e-4),
    ("ldif", 3.0e-6),
];
const C2_PMOS_L1: [(&str, f64); 12] = [
    ("level", 1.0),
    ("vto", -0.85),
    ("kp", 1.8e-5),
    ("gamma", 0.5),
    ("phi", 0.62),
    ("lambda", 0.045),
    ("tox", 40e-9),
    ("ld", 0.3e-6),
    ("cgso", 2.4e-10),
    ("cgdo", 2.4e-10),
    ("cj", 4.5e-4),
    ("ldif", 3.0e-6),
];

// 2µ CMOS, BSIM-style. Internal drain/source resistances add internal
// nodes to the large-signal template (paper §VI: added node-voltage
// variables typically outnumber the user's).
const C2_NMOS_BSIM: [(&str, f64); 15] = [
    ("level", 4.0),
    ("vfb", -0.95),
    ("phi", 0.65),
    ("k1", 0.62),
    ("k2", 0.05),
    ("eta", 0.015),
    ("theta", 0.07),
    ("u0", 0.058),
    ("u1", 3.0e-8),
    ("tox", 40e-9),
    ("ld", 0.25e-6),
    ("cj", 3.1e-4),
    ("ldif", 3.0e-6),
    ("rd", 150.0),
    ("rs", 150.0),
];
const C2_PMOS_BSIM: [(&str, f64); 15] = [
    ("level", 4.0),
    // PMOS BSIM parameters are given in the normalized frame except the
    // card-level vto, which BSIM-style decks leave unset (vfb governs).
    ("vfb", -0.85),
    ("phi", 0.6),
    ("k1", 0.5),
    ("k2", 0.04),
    ("eta", 0.02),
    ("theta", 0.1),
    ("u0", 0.021),
    ("u1", 2.0e-8),
    ("tox", 40e-9),
    ("ld", 0.3e-6),
    ("cj", 4.5e-4),
    ("ldif", 3.0e-6),
    ("rd", 220.0),
    ("rs", 220.0),
];

// 1.2µ CMOS, BSIM-style. tox = 25 nm.
const C12_NMOS_BSIM: [(&str, f64); 15] = [
    ("level", 4.0),
    ("vfb", -0.85),
    ("phi", 0.68),
    ("k1", 0.55),
    ("k2", 0.05),
    ("eta", 0.03),
    ("theta", 0.12),
    ("u0", 0.052),
    ("u1", 6.0e-8),
    ("tox", 25e-9),
    ("ld", 0.18e-6),
    ("cj", 3.6e-4),
    ("ldif", 1.8e-6),
    ("rd", 180.0),
    ("rs", 180.0),
];
const C12_PMOS_BSIM: [(&str, f64); 15] = [
    ("level", 4.0),
    ("vfb", -0.75),
    ("phi", 0.64),
    ("k1", 0.45),
    ("k2", 0.04),
    ("eta", 0.035),
    ("theta", 0.14),
    ("u0", 0.019),
    ("u1", 4.0e-8),
    ("tox", 25e-9),
    ("ld", 0.2e-6),
    ("cj", 5.0e-4),
    ("ldif", 1.8e-6),
    ("rd", 260.0),
    ("rs", 260.0),
];

// 1.2µ CMOS, level 3.
const C12_NMOS_L3: [(&str, f64); 15] = [
    ("level", 3.0),
    ("vto", 0.68),
    ("u0", 0.055),
    ("gamma", 0.45),
    ("phi", 0.68),
    ("theta", 0.1),
    ("vmax", 1.6e5),
    ("eta", 0.02),
    ("kappa", 0.5),
    ("tox", 25e-9),
    ("ld", 0.18e-6),
    ("cj", 3.6e-4),
    ("ldif", 1.8e-6),
    ("rd", 180.0),
    ("rs", 180.0),
];
const C12_PMOS_L3: [(&str, f64); 15] = [
    ("level", 3.0),
    ("vto", -0.75),
    ("u0", 0.02),
    ("gamma", 0.42),
    ("phi", 0.64),
    ("theta", 0.12),
    ("vmax", 1.0e5),
    ("eta", 0.025),
    ("kappa", 0.4),
    ("tox", 25e-9),
    ("ld", 0.2e-6),
    ("cj", 5.0e-4),
    ("ldif", 1.8e-6),
    ("rd", 260.0),
    ("rs", 260.0),
];

// BiCMOS MOS devices: the level-1 deck plus extrinsic drain/source
// resistance, so the BiCMOS templates also carry internal nodes.
const BIC_NMOS_L1: [(&str, f64); 14] = [
    ("level", 1.0),
    ("vto", 0.75),
    ("kp", 5.2e-5),
    ("gamma", 0.55),
    ("phi", 0.65),
    ("lambda", 0.03),
    ("tox", 40e-9),
    ("ld", 0.25e-6),
    ("cgso", 2.2e-10),
    ("cgdo", 2.2e-10),
    ("cj", 3.1e-4),
    ("ldif", 3.0e-6),
    ("rd", 150.0),
    ("rs", 150.0),
];
const BIC_PMOS_L1: [(&str, f64); 14] = [
    ("level", 1.0),
    ("vto", -0.85),
    ("kp", 1.8e-5),
    ("gamma", 0.5),
    ("phi", 0.62),
    ("lambda", 0.045),
    ("tox", 40e-9),
    ("ld", 0.3e-6),
    ("cgso", 2.4e-10),
    ("cgdo", 2.4e-10),
    ("cj", 4.5e-4),
    ("ldif", 3.0e-6),
    ("rd", 220.0),
    ("rs", 220.0),
];

// BiCMOS NPN (vertical, 2µ-era) with base resistance (internal node).
const BICMOS_NPN: [(&str, f64); 8] = [
    ("is", 2.0e-16),
    ("bf", 110.0),
    ("br", 2.0),
    ("vaf", 60.0),
    ("tf", 0.25e-9),
    ("cje", 0.8e-12),
    ("cjc", 0.4e-12),
    ("rb", 250.0),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelLibrary, Region};

    #[test]
    fn every_deck_builds_a_library() {
        for deck in ALL_DECKS {
            let lib = ModelLibrary::from_cards(&deck.cards())
                .unwrap_or_else(|e| panic!("{}: {e}", deck.label()));
            assert!(lib.mos("nmos").is_ok(), "{}", deck.label());
            assert!(lib.mos("pmos").is_ok(), "{}", deck.label());
        }
        let bic = ModelLibrary::from_cards(&ProcessDeck::BicmosC2.cards()).unwrap();
        assert!(bic.bjt("npn").is_ok());
    }

    #[test]
    fn decks_conduct_sensibly() {
        // A 20/2 NMOS at vgs=2.5, vds=2.5 should carry 10µA–10mA in any
        // deck, and the PMOS mirror likewise.
        for deck in ALL_DECKS {
            let lib = ModelLibrary::from_cards(&deck.cards()).unwrap();
            let n = lib.mos("nmos").unwrap();
            let opn = n.op(20e-6, 2e-6, 2.5, 2.5, 0.0, 0.0);
            assert!(
                opn.id > 1e-5 && opn.id < 1e-2,
                "{} nmos id = {}",
                deck.label(),
                opn.id
            );
            assert_eq!(opn.region, Region::Saturation, "{}", deck.label());
            let p = lib.mos("pmos").unwrap();
            let opp = p.op(20e-6, 2e-6, 2.5, 2.5, 5.0, 5.0);
            assert!(
                opp.id < -1e-6 && opp.id > -1e-2,
                "{} pmos id = {}",
                deck.label(),
                opp.id
            );
        }
    }

    #[test]
    fn model_choice_changes_predicted_current() {
        // The §VI experiment hinges on different models disagreeing for
        // the same geometry and bias.
        let l1 = ModelLibrary::from_cards(&ProcessDeck::C12Level3.cards()).unwrap();
        let bs = ModelLibrary::from_cards(&ProcessDeck::C12Bsim.cards()).unwrap();
        let id_l3 = l1
            .mos("nmos")
            .unwrap()
            .op(20e-6, 2e-6, 2.0, 2.0, 0.0, 0.0)
            .id;
        let id_bs = bs
            .mos("nmos")
            .unwrap()
            .op(20e-6, 2e-6, 2.0, 2.0, 0.0, 0.0)
            .id;
        let ratio = id_l3 / id_bs;
        assert!(
            (ratio - 1.0).abs() > 0.05,
            "models should disagree, ratio = {ratio}"
        );
    }

    #[test]
    fn bsim_decks_have_internal_nodes() {
        let lib = ModelLibrary::from_cards(&ProcessDeck::C2Bsim.cards()).unwrap();
        let (rd, rs) = lib.mos("nmos").unwrap().series_resistance();
        assert!(rd > 0.0 && rs > 0.0);
    }
}
