//! Compact id-by-group tables shared by the routing plans.

/// Ids `0..len` grouped by a key, stored as one id array plus per-group
/// offsets (compressed sparse rows). Each group lists its ids in ascending
/// order, the order a per-group `push` in id order would give.
#[derive(Debug, Clone)]
pub(crate) struct GroupTable {
    offsets: Vec<usize>,
    ids: Vec<usize>,
}

impl GroupTable {
    /// Groups id `i` under `keys[i]` by a counting sort.
    ///
    /// # Panics
    ///
    /// Panics if a key is `>= groups`.
    pub(crate) fn new<I>(groups: usize, keys: I) -> Self
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let mut offsets = vec![0usize; groups + 1];
        for g in keys.clone() {
            offsets[g + 1] += 1;
        }
        for g in 0..groups {
            offsets[g + 1] += offsets[g];
        }
        let mut next = offsets[..groups].to_vec();
        let mut ids = vec![0usize; keys.len()];
        for (id, g) in keys.enumerate() {
            ids[next[g]] = id;
            next[g] += 1;
        }
        GroupTable { offsets, ids }
    }

    /// The ids of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub(crate) fn group(&self, g: usize) -> &[usize] {
        &self.ids[self.offsets[g]..self.offsets[g + 1]]
    }
}
