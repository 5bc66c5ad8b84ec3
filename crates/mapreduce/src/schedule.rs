//! The map-task assignment rule: which pending task a free slot gets.
//!
//! Hadoop's jobtracker hands a tasktracker's free slot a *data-local* map
//! when one is pending (§V-E). [`TaskBoard::claim`] is that rule, written
//! once: the real [`crate::JobTracker`] claims through it, and so does the
//! Fig. 6(b) model's heartbeat loop. It takes no lock and reads no clock;
//! the caller's lock guards it and the caller decides when to steal.

use blobseer_types::NodeId;

/// The map tasks of one job: each task's hosts and whether it is taken.
pub struct TaskBoard {
    /// Nodes holding each task's input block (empty for generated splits).
    hosts: Vec<Vec<NodeId>>,
    taken: Vec<bool>,
    /// Nodes that run a tasktracker.
    trackers: Vec<NodeId>,
    pending: usize,
    local: usize,
}

impl TaskBoard {
    /// A board of tasks with the given host lists, all pending, claimed
    /// from the given tracker nodes.
    pub fn new(hosts: Vec<Vec<NodeId>>, trackers: Vec<NodeId>) -> Self {
        let pending = hosts.len();
        Self {
            taken: vec![false; pending],
            hosts,
            trackers,
            pending,
            local: 0,
        }
    }

    /// Claims a task for a slot on `node`, in this order:
    /// 1. the first pending task hosted on `node` (a local map);
    /// 2. the first pending task hosted on no tracker (nothing is lost);
    /// 3. if `steal`, the first pending task.
    ///
    /// Returns the task's index and whether it is local to `node`, or
    /// `None` when no task qualifies.
    pub fn claim(&mut self, node: NodeId, steal: bool) -> Option<(usize, bool)> {
        let open = || (0..self.hosts.len()).filter(|&t| !self.taken[t]);
        let local = open().find(|&t| self.hosts[t].contains(&node));
        let task = local
            .or_else(|| open().find(|&t| !self.hosts[t].iter().any(|h| self.trackers.contains(h))))
            .or_else(|| open().next().filter(|_| steal))?;
        self.taken[task] = true;
        self.pending -= 1;
        self.local += local.is_some() as usize;
        Some((task, local.is_some()))
    }

    /// Tasks not yet claimed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Claims that were local to the claiming node.
    pub fn local_claims(&self) -> usize {
        self.local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// Tasks 0 and 2 live on trackers 1 and 0, task 1 on non-tracker 9.
    fn board() -> TaskBoard {
        TaskBoard::new(vec![vec![n(1)], vec![n(9)], vec![n(0)]], vec![n(0), n(1)])
    }

    #[test]
    fn tiers_go_local_then_unhosted_then_stolen() {
        let mut b = board();
        assert_eq!(b.claim(n(0), true), Some((2, true)), "local first");
        assert_eq!(b.claim(n(0), true), Some((1, false)), "then off-tracker");
        assert_eq!(b.claim(n(0), true), Some((0, false)), "then stolen");
        assert_eq!(b.claim(n(0), true), None);
        assert_eq!((b.pending(), b.local_claims()), (0, 1));
    }

    #[test]
    fn steals_only_when_asked() {
        let mut b = board();
        assert_eq!(b.claim(n(1), false), Some((0, true)));
        assert_eq!(b.claim(n(1), false), Some((1, false)));
        assert_eq!(b.claim(n(1), false), None, "task 2 is tracker 0's");
        assert_eq!(b.pending(), 1);
        assert_eq!(b.claim(n(1), true), Some((2, false)));
    }

    #[test]
    fn a_taken_task_is_never_offered_again() {
        let mut b = TaskBoard::new(vec![vec![n(0)]; 4], vec![n(0)]);
        let claimed: Vec<usize> = (0..4).map(|_| b.claim(n(0), false).unwrap().0).collect();
        assert_eq!(claimed, [0, 1, 2, 3]);
        assert_eq!(b.claim(n(0), true), None);
        assert_eq!(b.local_claims(), 4);
    }

    #[test]
    fn a_generated_split_is_taken_at_tier_two() {
        let mut b = TaskBoard::new(vec![vec![n(1)], Vec::new()], vec![n(0), n(1)]);
        assert_eq!(b.claim(n(0), false), Some((1, false)), "no hosts: tier 2");
        assert_eq!(b.claim(n(0), false), None);
    }
}
