//! MiniSat-style variable order heap.
//!
//! A binary max-heap over variable indices keyed by VSIDS activity, with a
//! position index for O(log n) increase-key when an activity is bumped.
//! Replaces the O(vars) linear scan per decision: the solver pops the top
//! until it finds an unassigned variable and re-inserts variables as
//! backtracking unassigns them.
//!
//! The comparison order is **activity descending, variable index ascending**
//! — exactly the tie-breaking of the old linear scan (which kept the first,
//! i.e. lowest-index, variable among equals), so the heap picks the
//! identical decision variable at every step.

/// Indexed binary max-heap of variable indices, ordered by an external
/// activity array.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarOrder {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `pos[v]` = slot of `v` in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

/// Strict total order: higher activity first, ties to the lower index.
pub(crate) fn before(activity: &[f64], a: u32, b: u32) -> bool {
    let (aa, ab) = (activity[a as usize], activity[b as usize]);
    aa > ab || (aa == ab && a < b)
}

impl VarOrder {
    /// Registers a fresh variable (index = current length of `pos`) and
    /// inserts it into the heap.
    pub(crate) fn push_new_var(&mut self, activity: &[f64]) {
        let v = self.pos.len() as u32;
        self.pos.push(ABSENT);
        self.insert(v, activity);
    }

    /// Whether `v` is currently in the heap.
    pub(crate) fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    /// Inserts `v` (no-op if present).
    pub(crate) fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        let slot = self.heap.len();
        self.heap.push(v);
        self.pos[v as usize] = slot as u32;
        self.sift_up(slot, activity);
    }

    /// Restores the heap property after `v`'s activity increased (no-op if
    /// `v` is not in the heap).
    pub(crate) fn bumped(&mut self, v: u32, activity: &[f64]) {
        let slot = self.pos[v as usize];
        if slot != ABSENT {
            self.sift_up(slot as usize, activity);
        }
    }

    /// Re-heapifies in place. Needed after a global activity rescale: the
    /// uniform scaling preserves relative order *except* when distinct tiny
    /// activities underflow to equal values, which flips their order to the
    /// index tie-break.
    pub(crate) fn rebuild(&mut self, activity: &[f64]) {
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot, activity);
        }
    }

    /// Removes and returns the maximum variable, or `None` if empty.
    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut slot: usize, activity: &[f64]) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if before(activity, self.heap[slot], self.heap[parent]) {
                self.swap(slot, parent);
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize, activity: &[f64]) {
        loop {
            let left = 2 * slot + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let best_child =
                if right < self.heap.len() && before(activity, self.heap[right], self.heap[left]) {
                    right
                } else {
                    left
                };
            if before(activity, self.heap[best_child], self.heap[slot]) {
                self.swap(slot, best_child);
                slot = best_child;
            } else {
                break;
            }
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order_with_index_ties() {
        let activity = [1.0, 3.0, 3.0, 0.5, 3.0];
        let mut order = VarOrder::default();
        for _ in 0..activity.len() {
            order.push_new_var(&activity);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| order.pop(&activity)).collect();
        // Max activity first; among the 3.0s the lowest index wins.
        assert_eq!(popped, vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn bump_reorders_and_reinsert_is_idempotent() {
        let mut activity = vec![0.0; 4];
        let mut order = VarOrder::default();
        for _ in 0..4 {
            order.push_new_var(&activity);
        }
        activity[3] = 10.0;
        order.bumped(3, &activity);
        assert_eq!(order.pop(&activity), Some(3));
        assert!(!order.contains(3));
        order.insert(3, &activity);
        order.insert(3, &activity);
        assert!(order.contains(3));
        assert_eq!(order.pop(&activity), Some(3));
        assert_eq!(order.pop(&activity), Some(0));
    }
}
