//! Node → group tables of a scheme-B plan, shared by the fluid, packet and
//! flow engines.

use hycap_errors::HycapError;
use hycap_routing::SchemeBPlan;

/// Node → group tables of a scheme B plan (`usize::MAX` for ungrouped
/// ids), built once per run.
#[derive(Debug)]
pub(crate) struct GroupMap {
    /// Number of access groups.
    pub(crate) count: usize,
    /// Group of every MS.
    pub(crate) ms: Vec<usize>,
    /// Group of every BS.
    pub(crate) bs: Vec<usize>,
}

impl GroupMap {
    /// Builds the tables of `plan` for a network of `n` MSs and `k` BSs.
    ///
    /// # Errors
    ///
    /// [`HycapError::Mismatch`] when a plan member lies outside the
    /// network: an MS index `>= n` or a BS index `>= k`.
    pub(crate) fn of(plan: &SchemeBPlan, n: usize, k: usize) -> Result<Self, HycapError> {
        let groups = 0..plan.group_count();
        let plan_n = groups
            .clone()
            .flat_map(|g| plan.ms_members(g))
            .max()
            .map_or(0, |&i| i + 1);
        let plan_k = groups
            .clone()
            .flat_map(|g| plan.bs_members(g))
            .max()
            .map_or(0, |&b| b + 1);
        for (what, needed, have) in [
            ("scheme-B plan and network MS count", plan_n, n),
            ("scheme-B plan and network BS count", plan_k, k),
        ] {
            if needed > have {
                return Err(HycapError::Mismatch {
                    what,
                    left: needed,
                    right: have,
                });
            }
        }
        let mut ms = vec![usize::MAX; n];
        let mut bs = vec![usize::MAX; k];
        for g in groups {
            for &i in plan.ms_members(g) {
                ms[i] = g;
            }
            for &b in plan.bs_members(g) {
                bs[b] = g;
            }
        }
        Ok(GroupMap {
            count: plan.group_count(),
            ms,
            bs,
        })
    }

    /// The group a contact between MS `ms` and BS `bs` serves: the BS's
    /// group when the MS belongs to it, `None` otherwise.
    #[inline]
    pub(crate) fn access_group(&self, ms: usize, bs: usize) -> Option<usize> {
        let g = self.bs[bs];
        (g != usize::MAX && self.ms[ms] == g).then_some(g)
    }
}
