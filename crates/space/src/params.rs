//! Parameter definitions for the varied design-space dimensions (Table 1).

/// Number of varied microarchitectural parameters.
pub const PARAM_COUNT: usize = 13;

/// Identifier of one varied parameter, in the paper's Table 1 / vector order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Param {
    /// Pipeline width.
    Width = 0,
    /// Reorder-buffer entries.
    Rob = 1,
    /// Issue-queue entries.
    Iq = 2,
    /// Load/store-queue entries.
    Lsq = 3,
    /// Physical register-file registers.
    Rf = 4,
    /// Register-file read ports.
    RfRead = 5,
    /// Register-file write ports.
    RfWrite = 6,
    /// Gshare branch-predictor K-entries.
    Bpred = 7,
    /// Branch-target-buffer K-entries.
    Btb = 8,
    /// Maximum in-flight branches.
    MaxBranches = 9,
    /// L1 instruction cache KB.
    Icache = 10,
    /// L1 data cache KB.
    Dcache = 11,
    /// Unified L2 cache KB.
    L2 = 12,
}

impl Param {
    /// All parameters in vector order.
    pub const ALL: [Param; PARAM_COUNT] = [
        Param::Width,
        Param::Rob,
        Param::Iq,
        Param::Lsq,
        Param::Rf,
        Param::RfRead,
        Param::RfWrite,
        Param::Bpred,
        Param::Btb,
        Param::MaxBranches,
        Param::Icache,
        Param::Dcache,
        Param::L2,
    ];

    /// The definition (name, unit, value list) of this parameter.
    pub fn def(self) -> &'static ParamDef {
        &PARAMS[self as usize]
    }
}

impl std::fmt::Display for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.def().name)
    }
}

/// Definition of one varied parameter: display name, unit and the ordered
/// list of legal values in natural units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    /// Human-readable name as used in the paper's figures.
    pub name: &'static str,
    /// Natural unit of the values.
    pub unit: &'static str,
    /// Ordered legal values.
    pub values: &'static [u64],
}

impl ParamDef {
    /// Number of legal values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the value list is empty (never true for the built-in table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The position of `value` in the value list, or `None` if it is not
    /// a legal value — the one legal-value check. The lists ascend, so
    /// this is a binary search.
    pub fn index_of(&self, value: u64) -> Option<usize> {
        self.values.binary_search(&value).ok()
    }
}

/// Table 1: the 13 varied parameters with their ranges, steps and counts.
///
/// Value counts: 4, 17, 10, 10, 16, 8, 8, 6, 3, 4, 5, 5, 5 — whose product
/// is 62,668,800,000, the paper's "63 billion configurations".
pub static PARAMS: [ParamDef; PARAM_COUNT] = [
    ParamDef {
        name: "Width",
        unit: "insns/cycle",
        values: &[2, 4, 6, 8],
    },
    ParamDef {
        name: "ROB",
        unit: "entries",
        values: &[
            32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160,
        ],
    },
    ParamDef {
        name: "IQ",
        unit: "entries",
        values: &[8, 16, 24, 32, 40, 48, 56, 64, 72, 80],
    },
    ParamDef {
        name: "LSQ",
        unit: "entries",
        values: &[8, 16, 24, 32, 40, 48, 56, 64, 72, 80],
    },
    ParamDef {
        name: "RF",
        unit: "registers",
        values: &[
            40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160,
        ],
    },
    ParamDef {
        name: "RF read",
        unit: "ports",
        values: &[2, 4, 6, 8, 10, 12, 14, 16],
    },
    ParamDef {
        name: "RF write",
        unit: "ports",
        values: &[1, 2, 3, 4, 5, 6, 7, 8],
    },
    ParamDef {
        name: "Bpred",
        unit: "K-entries",
        values: &[1, 2, 4, 8, 16, 32],
    },
    ParamDef {
        name: "BTB",
        unit: "K-entries",
        values: &[1, 2, 4],
    },
    ParamDef {
        name: "Branches",
        unit: "in-flight",
        values: &[8, 16, 24, 32],
    },
    ParamDef {
        name: "ICache",
        unit: "KB",
        values: &[8, 16, 32, 64, 128],
    },
    ParamDef {
        name: "DCache",
        unit: "KB",
        values: &[8, 16, 32, 64, 128],
    },
    ParamDef {
        name: "L2",
        unit: "KB",
        values: &[256, 512, 1024, 2048, 4096],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_counts_match_table1() {
        let counts: Vec<usize> = PARAMS.iter().map(|d| d.len()).collect();
        assert_eq!(counts, vec![4, 17, 10, 10, 16, 8, 8, 6, 3, 4, 5, 5, 5]);
    }

    #[test]
    fn values_are_strictly_increasing() {
        for def in PARAMS.iter() {
            for w in def.values.windows(2) {
                assert!(w[0] < w[1], "{} values not increasing", def.name);
            }
        }
    }

    #[test]
    fn param_all_covers_every_index() {
        for (i, p) in Param::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }

    #[test]
    fn def_accessor_matches_table() {
        assert_eq!(Param::Rob.def().name, "ROB");
        assert_eq!(Param::L2.def().values.last(), Some(&4096));
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(Param::RfRead.to_string(), "RF read");
    }
}
