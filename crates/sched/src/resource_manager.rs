//! The resource manager: node allocation and release.
//!
//! Policies decide *which* jobs run; the resource manager decides *where*,
//! and is the single authority on node occupancy. Replay mode additionally
//! enforces the exact recorded placement (§3.2.3).

use serde::{Deserialize, Serialize};
use sraps_types::{Bitset, NodeId, NodeSet, Result, SrapsError};

/// Tracks free/busy/down state for every node of the system.
///
/// Free/down counts are cached as plain integers maintained on every
/// transition (and cross-checked against the bitsets in debug builds), so
/// the per-tick history sampling — `utilization`, `busy_count` — and the
/// scheduler's `can_allocate` probes cost two integer reads instead of
/// bitset popcounts.
/// Serialization (engine snapshots) round-trips the bitsets verbatim —
/// load-bearing because down-marking of busy nodes is lazy: a node that
/// went down mid-job only leaves the free pool on release, so the
/// free/down distinction is not reconstructible from counts alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceManager {
    total: u32,
    free: Bitset,
    down: Bitset,
    /// Cached `free.count_ones()`.
    free_count: u32,
    /// Cached `down.count_ones()`.
    down_count: u32,
}

impl ResourceManager {
    pub fn new(total_nodes: u32) -> Self {
        ResourceManager {
            total: total_nodes,
            free: Bitset::full(total_nodes as usize),
            down: Bitset::new(total_nodes as usize),
            free_count: total_nodes,
            down_count: 0,
        }
    }

    pub fn total_nodes(&self) -> u32 {
        self.total
    }

    /// Nodes currently available for allocation.
    pub fn free_count(&self) -> u32 {
        debug_assert_eq!(self.free_count as usize, self.free.count_ones());
        self.free_count
    }

    /// Nodes currently allocated to jobs.
    pub fn busy_count(&self) -> u32 {
        self.total - self.free_count() - self.down_count()
    }

    /// Nodes marked down/drained.
    pub fn down_count(&self) -> u32 {
        debug_assert_eq!(self.down_count as usize, self.down.count_ones());
        self.down_count
    }

    /// Occupancy utilization in \[0,1\]: busy / (total − down).
    pub fn utilization(&self) -> f64 {
        let avail = (self.total - self.down_count()) as f64;
        if avail <= 0.0 {
            0.0
        } else {
            self.busy_count() as f64 / avail
        }
    }

    /// Whether a `count`-node allocation could be granted right now.
    pub fn can_allocate(&self, count: u32) -> bool {
        count > 0 && count <= self.free_count
    }

    /// First-fit allocation of `count` nodes (lowest-index free nodes):
    /// one word-level pass that collects and claims together.
    pub fn allocate(&mut self, count: u32) -> Result<NodeSet> {
        if count == 0 {
            return Err(SrapsError::Allocation("zero-node allocation".into()));
        }
        let mut picked = Vec::with_capacity(count as usize);
        if !self.free.take_first_set(count as usize, &mut picked) {
            return Err(SrapsError::Allocation(format!(
                "{count} nodes requested, {} free",
                self.free_count()
            )));
        }
        self.free_count -= count;
        Ok(NodeSet::from_sorted(picked))
    }

    /// Allocate exactly `nodes` (replay placement). Fails if any node is
    /// busy or down, leaving the manager unchanged.
    pub fn allocate_exact(&mut self, nodes: &NodeSet) -> Result<()> {
        if nodes.is_empty() {
            return Err(SrapsError::Allocation("empty exact allocation".into()));
        }
        for n in nodes.iter() {
            if n.index() >= self.total as usize {
                return Err(SrapsError::Allocation(format!(
                    "node {n} outside system of {} nodes",
                    self.total
                )));
            }
            if !self.free.get(n.index()) {
                return Err(SrapsError::Allocation(format!("node {n} not free")));
            }
        }
        for n in nodes.iter() {
            if self.free.clear(n.index()) {
                self.free_count -= 1;
            }
        }
        Ok(())
    }

    /// Return a job's nodes to the free pool. Nodes marked down while the
    /// job ran stay down.
    pub fn release(&mut self, nodes: &NodeSet) {
        for n in nodes.iter() {
            if !self.down.get(n.index()) && self.free.set(n.index()) {
                self.free_count += 1;
            }
        }
    }

    /// Mark nodes down (drained): removed from the free pool until
    /// [`Self::mark_up`]. Busy nodes are marked down lazily on release.
    pub fn mark_down(&mut self, nodes: &NodeSet) {
        for n in nodes.iter() {
            if n.index() < self.total as usize {
                if self.down.set(n.index()) {
                    self.down_count += 1;
                }
                if self.free.clear(n.index()) {
                    self.free_count -= 1;
                }
            }
        }
    }

    /// Bring downed nodes back into service.
    pub fn mark_up(&mut self, nodes: &NodeSet) {
        for n in nodes.iter() {
            if n.index() < self.total as usize && self.down.clear(n.index()) {
                self.down_count -= 1;
                if self.free.set(n.index()) {
                    self.free_count += 1;
                }
            }
        }
    }

    /// Whether the specific node is free.
    pub fn is_free(&self, node: NodeId) -> bool {
        node.index() < self.total as usize && self.free.get(node.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_manager_is_all_free() {
        let rm = ResourceManager::new(10);
        assert_eq!(rm.free_count(), 10);
        assert_eq!(rm.busy_count(), 0);
        assert_eq!(rm.utilization(), 0.0);
    }

    #[test]
    fn allocate_is_first_fit_ascending() {
        let mut rm = ResourceManager::new(8);
        let a = rm.allocate(3).unwrap();
        assert_eq!(a.as_slice(), &[0, 1, 2]);
        let b = rm.allocate(2).unwrap();
        assert_eq!(b.as_slice(), &[3, 4]);
        rm.release(&a);
        let c = rm.allocate(4).unwrap();
        assert_eq!(c.as_slice(), &[0, 1, 2, 5], "reuses released low indices");
    }

    #[test]
    fn allocate_overflow_fails_atomically() {
        let mut rm = ResourceManager::new(4);
        rm.allocate(3).unwrap();
        let before = rm.free_count();
        assert!(rm.allocate(2).is_err());
        assert_eq!(rm.free_count(), before, "failed allocation must not leak");
    }

    #[test]
    fn zero_allocation_rejected() {
        let mut rm = ResourceManager::new(4);
        assert!(rm.allocate(0).is_err());
    }

    #[test]
    fn exact_allocation_succeeds_then_conflicts() {
        let mut rm = ResourceManager::new(10);
        let set = NodeSet::from_indices(vec![2, 5, 7]);
        rm.allocate_exact(&set).unwrap();
        assert_eq!(rm.busy_count(), 3);
        // Overlapping exact allocation fails and changes nothing.
        let overlap = NodeSet::from_indices(vec![1, 5]);
        assert!(rm.allocate_exact(&overlap).is_err());
        assert!(rm.is_free(NodeId(1)), "atomic failure must not take node 1");
    }

    #[test]
    fn exact_allocation_out_of_range() {
        let mut rm = ResourceManager::new(4);
        assert!(rm.allocate_exact(&NodeSet::from_indices(vec![99])).is_err());
    }

    #[test]
    fn down_nodes_shrink_capacity_and_survive_release() {
        let mut rm = ResourceManager::new(10);
        rm.mark_down(&NodeSet::from_indices(vec![0, 1]));
        assert_eq!(rm.free_count(), 8);
        assert_eq!(rm.down_count(), 2);
        // Allocation avoids down nodes.
        let a = rm.allocate(3).unwrap();
        assert_eq!(a.as_slice(), &[2, 3, 4]);
        // Releasing doesn't resurrect down nodes.
        rm.release(&NodeSet::from_indices(vec![0, 1, 2]));
        assert!(!rm.is_free(NodeId(0)));
        assert!(rm.is_free(NodeId(2)));
        rm.mark_up(&NodeSet::from_indices(vec![0, 1]));
        assert_eq!(rm.down_count(), 0);
        assert!(rm.is_free(NodeId(0)));
    }

    #[test]
    fn utilization_accounts_for_down_nodes() {
        let mut rm = ResourceManager::new(10);
        rm.mark_down(&NodeSet::from_indices(vec![8, 9]));
        rm.allocate(4).unwrap();
        assert!(
            (rm.utilization() - 0.5).abs() < 1e-12,
            "4 busy of 8 in service"
        );
    }

    #[test]
    fn conservation_invariant() {
        let mut rm = ResourceManager::new(100);
        let a = rm.allocate(30).unwrap();
        rm.mark_down(&NodeSet::from_indices(vec![90, 91]));
        let _b = rm.allocate(10).unwrap();
        rm.release(&a);
        assert_eq!(
            rm.free_count() + rm.busy_count() + rm.down_count(),
            rm.total_nodes()
        );
    }
}
