//! The maintained enabled set of the incremental executor.
//!
//! The paper's daemons select among *enabled* processes, so the executor
//! must know `is_enabled(p)` for every process at every step. Recomputing
//! that from scratch costs `O(n·Δ)` guard evaluations per step; the
//! executor instead maintains an [`EnabledSet`] incrementally (see
//! [`Simulation`](crate::executor::Simulation)) and hands schedulers a
//! reference to it through
//! [`SchedulerContext`](crate::scheduler::SchedulerContext).
//!
//! **Invariant** (maintained by the executor, checked by sampled
//! debug-asserts): after the executor refreshes the set at the start of a
//! step, `set.is_enabled(p)` equals `protocol.is_enabled(graph, p, state_p,
//! view_p)` evaluated against the current configuration, for every `p`.
//!
//! # Layout
//!
//! Membership is one bit per process, packed into `u64` words. Every block
//! of 64 words (4,096 processes) keeps its popcount, so the
//! rank → process query behind the central random daemon
//! ([`EnabledSet::select`]) scans `n / 4096` block counts and at most 64
//! word popcounts instead of walking `n` flags:
//!
//! ```text
//! blocks: [ 17 | 0 | 5 | ... ]          one u32 per 64 words
//! words:  [w0 w1 ... w63][w64 ... w127] bit p % 64 of word p / 64
//! ```
//!
//! Writes go through [`EnabledSet::apply_flips`], which toggles the listed
//! processes and keeps the words, the block counts and the cardinality in
//! step in `O(1)` per flip.

use selfstab_graph::NodeId;

/// Words per rank block: each block covers `64 · 64 = 4096` processes.
const BLOCK_WORDS: usize = 64;

/// A packed set of enabled processes with a cached cardinality and a
/// per-block rank index.
///
/// Indexable by [`NodeId`]; kept current by the executor between steps.
/// Membership tests and flips are `O(1)`, [`select`](Self::select) is
/// `O(n / 4096 + 64)`, and [`iter`](Self::iter) costs `O(n / 64)` plus one
/// step per enabled process, with no guard re-evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnabledSet {
    /// Bit `p % 64` of `words[p / 64]` is set iff process `p` is enabled.
    /// Bits at or past `n` are always clear.
    words: Vec<u64>,
    /// `blocks[b]` is the number of set bits in
    /// `words[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS]`.
    blocks: Vec<u32>,
    /// Number of processes in the system.
    n: usize,
    /// Number of set bits over all words.
    count: usize,
}

impl EnabledSet {
    /// Creates the set for `n` processes, all initially disabled.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        EnabledSet {
            words: vec![0; words], // lint: allow(hot-alloc) — construction-sized bit words
            blocks: vec![0; words.div_ceil(BLOCK_WORDS)], // lint: allow(hot-alloc) — construction-sized rank index
            n,
            count: 0,
        }
    }

    /// Builds a set from per-process flags (mainly for scheduler tests).
    pub fn from_flags(flags: Vec<bool>) -> Self {
        let mut set = EnabledSet::new(flags.len());
        for (i, &enabled) in flags.iter().enumerate() {
            if enabled {
                set.toggle(i);
            }
        }
        set
    }

    /// Number of processes in the system (enabled or not).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of currently enabled processes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Returns `true` when at least one process is enabled.
    pub fn any(&self) -> bool {
        self.count > 0
    }

    /// Whether process `p` is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn is_enabled(&self, p: NodeId) -> bool {
        let i = p.index();
        assert!(i < self.n, "process {i} outside a set of {}", self.n);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The `rank`-th enabled process in increasing id order (0-based), or
    /// `None` when `rank >= self.count()`. Equal to
    /// `self.iter().nth(rank)`, without the walk.
    pub fn select(&self, rank: usize) -> Option<NodeId> {
        if rank >= self.count {
            return None;
        }
        let mut rest = rank;
        let mut block = 0;
        for &ones in &self.blocks {
            let ones = ones as usize;
            if rest < ones {
                break;
            }
            rest -= ones;
            block += 1;
        }
        let first = block * BLOCK_WORDS;
        for (w, &word) in self.words[first..].iter().enumerate() {
            let ones = word.count_ones() as usize;
            if rest < ones {
                let bit = select_in_word(word, rest as u32) as usize;
                return Some(NodeId::new((first + w) * 64 + bit));
            }
            rest -= ones;
        }
        unreachable!("enabled-set block counts disagree with the words")
    }

    /// Iterates over the enabled processes in increasing id order, one
    /// `trailing_zeros` per enabled process and one load per word.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        SetBits {
            words: &self.words,
            next_word: 0,
            base: 0,
            word: 0,
        }
    }

    /// Collects the enabled processes in increasing id order.
    pub fn to_nodes(&self) -> Vec<NodeId> {
        self.iter().collect() // lint: allow(hot-alloc) — owned copy on request, not used by the step loop
    }

    /// The per-process flags, indexed by [`NodeId`] (an unpacked copy, for
    /// tests and reports).
    pub fn to_flags(&self) -> Vec<bool> {
        (0..self.n)
            .map(|i| self.is_enabled(NodeId::new(i)))
            .collect() // lint: allow(hot-alloc) — owned copy on request, not used by the step loop
    }

    /// Toggles the membership of every listed process, in order: a process
    /// listed twice ends where it started. Words, block counts and the
    /// cardinality are updated in `O(1)` per entry.
    ///
    /// The executor's guard-refresh phase stages, per shard, exactly the
    /// processes whose verdict changed (see
    /// [`EnabledWriter`](crate::kernel::EnabledWriter)) and applies each
    /// shard's list through this call once the shard tasks have joined.
    ///
    /// # Panics
    ///
    /// Panics if a listed process is out of range.
    pub fn apply_flips(&mut self, flips: &[NodeId]) {
        for &p in flips {
            self.toggle(p.index());
        }
    }

    /// Updates one flag, keeping the cardinality in sync.
    #[cfg(test)]
    pub(crate) fn set(&mut self, p: NodeId, enabled: bool) {
        if self.is_enabled(p) != enabled {
            self.toggle(p.index());
        }
    }

    #[inline]
    fn toggle(&mut self, i: usize) {
        assert!(i < self.n, "process {i} outside a set of {}", self.n);
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        *word ^= bit;
        let block = &mut self.blocks[i / 64 / BLOCK_WORDS];
        if *word & bit != 0 {
            self.count += 1;
            *block += 1;
        } else {
            self.count -= 1;
            *block -= 1;
        }
    }

    /// Recounts the words and checks the block index and the cardinality
    /// against them (`O(n / 64)`; for sampled debug checks and tests).
    pub fn assert_index_consistent(&self) {
        for (b, &ones) in self.blocks.iter().enumerate() {
            let end = ((b + 1) * BLOCK_WORDS).min(self.words.len());
            let recount: u32 = self.words[b * BLOCK_WORDS..end]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            assert_eq!(ones, recount, "enabled-set block {b} count diverged");
        }
        let total: usize = self.blocks.iter().map(|&ones| ones as usize).sum();
        assert_eq!(self.count, total, "enabled-set cardinality diverged");
        if !self.n.is_multiple_of(64) {
            assert_eq!(
                self.words[self.n / 64] >> (self.n % 64),
                0,
                "enabled-set bits set past the last process"
            );
        }
    }
}

/// Position of the `rank`-th set bit of `word` (0-based, `rank <
/// word.count_ones()`), by halving: six popcounts, no bit walk.
#[inline]
fn select_in_word(mut word: u64, mut rank: u32) -> u32 {
    let mut offset = 0;
    for width in [32, 16, 8, 4, 2, 1] {
        let low = (word & ((1u64 << width) - 1)).count_ones();
        if rank >= low {
            rank -= low;
            word >>= width;
            offset += width;
        }
    }
    offset
}

/// Iterator over the set bits of a word slice, lowest first.
struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next_word: usize,
    /// Process id of bit 0 of `word`.
    base: usize,
    /// The not yet visited bits of the current word.
    word: u64,
}

impl Iterator for SetBits<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.word == 0 {
            self.word = *self.words.get(self.next_word)?;
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(NodeId::new(self.base + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_tracks_set_and_clear() {
        let mut set = EnabledSet::new(4);
        assert_eq!(set.node_count(), 4);
        assert_eq!(set.count(), 0);
        assert!(!set.any());
        set.set(NodeId::new(1), true);
        set.set(NodeId::new(3), true);
        set.set(NodeId::new(1), true); // idempotent
        assert_eq!(set.count(), 2);
        assert!(set.any());
        assert!(set.is_enabled(NodeId::new(1)));
        assert!(!set.is_enabled(NodeId::new(0)));
        assert_eq!(set.to_nodes(), vec![NodeId::new(1), NodeId::new(3)]);
        set.set(NodeId::new(1), false);
        assert_eq!(set.count(), 1);
        assert_eq!(set.to_flags(), vec![false, false, false, true]);
        set.assert_index_consistent();
    }

    #[test]
    fn from_flags_counts() {
        let set = EnabledSet::from_flags(vec![true, false, true]);
        assert_eq!(set.count(), 2);
        assert_eq!(set.node_count(), 3);
    }

    #[test]
    fn select_in_word_finds_every_set_bit() {
        for word in [1u64, 0b1011_0000, u64::MAX, 1 << 63, 0x8000_0001_0000_8001] {
            let positions: Vec<u32> = (0..64).filter(|b| word >> b & 1 == 1).collect();
            for (rank, &position) in positions.iter().enumerate() {
                assert_eq!(select_in_word(word, rank as u32), position, "{word:#x}");
            }
        }
    }

    #[test]
    fn select_crosses_words_and_blocks() {
        let n = 3 * 4096 + 70;
        let flags: Vec<bool> = (0..n).map(|i| i % 97 == 5 || i == n - 1).collect();
        let set = EnabledSet::from_flags(flags);
        set.assert_index_consistent();
        let nodes = set.to_nodes();
        assert_eq!(nodes.len(), set.count());
        for (rank, &p) in nodes.iter().enumerate() {
            assert_eq!(set.select(rank), Some(p));
        }
        assert_eq!(set.select(nodes.len()), None);
    }

    #[test]
    fn flips_toggle_and_cancel() {
        let mut set = EnabledSet::new(130);
        let p = NodeId::new(129);
        set.apply_flips(&[p, NodeId::new(0), p]);
        assert_eq!(set.to_nodes(), vec![NodeId::new(0)]);
        set.apply_flips(&[NodeId::new(0), p]);
        assert_eq!(set.to_nodes(), vec![p]);
        assert_eq!(set.select(0), Some(p));
        set.assert_index_consistent();
    }

    #[test]
    fn empty_set_has_nothing_to_select() {
        let set = EnabledSet::new(0);
        assert_eq!(set.select(0), None);
        assert_eq!(set.iter().next(), None);
        set.assert_index_consistent();
    }

    #[test]
    #[should_panic(expected = "outside a set")]
    fn flips_past_the_last_process_panic() {
        EnabledSet::new(3).apply_flips(&[NodeId::new(3)]);
    }
}
