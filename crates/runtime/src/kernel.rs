//! Bulk guard-kernel support: the write-side plumbing that lets a protocol
//! refresh many guards in one call over its raw state columns.
//!
//! The executor's phase A normally dequeues dirty nodes one at a time,
//! decodes a row per node and calls the scalar guard
//! ([`Protocol::is_enabled`](crate::protocol::Protocol::is_enabled)). When
//! the simulation runs the columnar layout, a protocol can instead implement
//! [`Protocol::refresh_guards_bulk`](crate::protocol::Protocol::refresh_guards_bulk)
//! and evaluate the whole dirty batch with word-parallel bit operations and
//! branch-light column scans. The kernel reports each verdict through an
//! [`EnabledWriter`] — the same writer the scalar loop uses — so the
//! maintained enabled set, `RunStats`, traces and replay stay
//! byte-identical to the scalar path.

use std::ops::Range;

use selfstab_graph::NodeId;

use crate::enabled::EnabledSet;

/// Write cursor over one shard's guard verdicts, used by phase A's scalar
/// loop and handed to bulk guard kernels by the executor.
///
/// Shards may share a packed word of the enabled set, so the set stays
/// read-only while the shard tasks run: the writer stages a node on the
/// shard's `flips` list (sized to the shard, so this never allocates) only
/// when its verdict differs from the current set, and the executor applies
/// the lists in shard order through [`EnabledSet::apply_flips`] after the
/// join. Verdicts may arrive in any order, but exactly one verdict per
/// dirty node must be written — the executor charges one guard evaluation
/// per node in the batch.
#[derive(Debug)]
pub struct EnabledWriter<'a> {
    /// The global node range of the shard this writer covers.
    nodes: Range<usize>,
    /// The maintained enabled set, as of the start of the refresh.
    enabled: &'a EnabledSet,
    /// Nodes whose verdict differs from `enabled`, in write order.
    flips: &'a mut Vec<NodeId>,
}

impl<'a> EnabledWriter<'a> {
    /// A writer for the shard covering `nodes`, reading current verdicts
    /// from `enabled` and staging changed ones onto `flips`. Kernels
    /// address nodes by their global [`NodeId`].
    #[must_use]
    pub fn new(nodes: Range<usize>, enabled: &'a EnabledSet, flips: &'a mut Vec<NodeId>) -> Self {
        Self {
            nodes,
            enabled,
            flips,
        }
    }

    /// Records the guard verdict for node `p`. Panics if `p` lies outside
    /// the shard this writer covers.
    #[inline]
    pub fn write(&mut self, p: NodeId, enabled: bool) {
        assert!(
            self.nodes.contains(&p.index()),
            "verdict for process {p} outside the shard {:?}",
            self.nodes
        );
        if self.enabled.is_enabled(p) != enabled {
            self.flips.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_stages_only_changed_verdicts() {
        let mut set = EnabledSet::new(14);
        set.apply_flips(&[NodeId::new(11), NodeId::new(13)]);
        let mut flips = Vec::with_capacity(4);
        let mut writer = EnabledWriter::new(10..14, &set, &mut flips);
        writer.write(NodeId::new(10), true); // false -> true
        writer.write(NodeId::new(11), true); // unchanged
        writer.write(NodeId::new(12), false); // unchanged
        writer.write(NodeId::new(13), false); // true -> false
        assert_eq!(flips, vec![NodeId::new(10), NodeId::new(13)]);
        set.apply_flips(&flips);
        assert_eq!(set.to_nodes(), vec![NodeId::new(10), NodeId::new(11)]);
        assert_eq!(set.count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the shard")]
    fn out_of_shard_writes_panic() {
        let set = EnabledSet::new(8);
        let mut flips = Vec::new();
        let mut writer = EnabledWriter::new(4..6, &set, &mut flips);
        writer.write(NodeId::new(3), true);
    }
}
