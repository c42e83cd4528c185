//! Compact destination sets.
//!
//! The tree-based multidestination scheme encodes the destination set of a
//! worm as an *n*-bit string (one bit per node in the system, §3.2.3 of the
//! paper), and the switches compare that string against per-port
//! reachability strings. [`NodeMask`] is exactly that bit string. It backs
//! all destination-set math in the planners and the simulator.
//!
//! The representation is adaptive: systems up to [`NodeMask::INLINE_BITS`]
//! nodes (four times the paper's default, twice its largest extension
//! experiment) live in a single inline `u128` with zero heap traffic —
//! byte-for-byte the pre-scale representation — while giant fabrics
//! (1000 switches / 10k hosts) spill into a reference-counted word
//! vector, so cloning a wide destination set is an `Arc` bump, not a
//! kilobyte memcpy. Both arms keep one canonical form per set value
//! (the spilled arm always has a bit ≥ `INLINE_BITS` set and no trailing
//! zero words), so derived `Eq`/`Hash` remain structural set equality.

use crate::ids::NodeId;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A set of nodes, stored as a bit string (bit *i* set ⇔ node *i* in set).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeMask(Repr);

/// Canonical adaptive representation.
///
/// Invariant: `Big` words have no trailing zero words and their highest
/// set bit is ≥ [`NodeMask::INLINE_BITS`] (otherwise the value collapses
/// to `Small`), so every set has exactly one representation and the
/// derived `PartialEq`/`Hash` are set equality.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// All members < 128: one inline word pair.
    Small(u128),
    /// At least one member ≥ 128: little-endian 64-bit words.
    Big(Arc<[u64]>),
}

#[inline]
fn lo128(words: &[u64]) -> u128 {
    let w0 = words.first().copied().unwrap_or(0) as u128;
    let w1 = words.get(1).copied().unwrap_or(0) as u128;
    w0 | (w1 << 64)
}

/// Trim trailing zero words and collapse to the inline arm when all
/// members fit — the single normalization point of the module.
fn normalize(words: &[u64]) -> NodeMask {
    let len = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    if len <= 2 {
        NodeMask(Repr::Small(lo128(words)))
    } else {
        NodeMask(Repr::Big(words[..len].into()))
    }
}

impl NodeMask {
    /// Bits stored inline; sets confined below this bound never touch
    /// the heap and behave exactly like the historical `u128` mask.
    pub const INLINE_BITS: usize = 128;

    /// The empty set.
    pub const EMPTY: NodeMask = NodeMask(Repr::Small(0));

    /// A set containing a single node.
    #[inline]
    pub fn single(node: NodeId) -> Self {
        let i = node.idx();
        if i < Self::INLINE_BITS {
            NodeMask(Repr::Small(1u128 << i))
        } else {
            let mut words = vec![0u64; i / 64 + 1];
            words[i / 64] = 1u64 << (i % 64);
            NodeMask(Repr::Big(words.into()))
        }
    }

    /// The full set `0..n`.
    pub fn all(n: usize) -> Self {
        if n <= Self::INLINE_BITS {
            if n == Self::INLINE_BITS {
                NodeMask(Repr::Small(u128::MAX))
            } else {
                NodeMask(Repr::Small((1u128 << n) - 1))
            }
        } else {
            let mut words = vec![u64::MAX; n / 64];
            if !n.is_multiple_of(64) {
                words.push((1u64 << (n % 64)) - 1);
            }
            NodeMask(Repr::Big(words.into()))
        }
    }

    /// Build a set from an iterator of nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut words: Vec<u64> = Vec::new();
        let mut lo = 0u128;
        for n in nodes {
            let i = n.idx();
            if i < Self::INLINE_BITS && words.is_empty() {
                lo |= 1u128 << i;
            } else {
                if words.is_empty() {
                    words = vec![lo as u64, (lo >> 64) as u64];
                }
                if words.len() <= i / 64 {
                    words.resize(i / 64 + 1, 0);
                }
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        if words.is_empty() {
            NodeMask(Repr::Small(lo))
        } else {
            normalize(&words)
        }
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        // Canonical form: Big always holds a bit ≥ INLINE_BITS.
        matches!(self.0, Repr::Small(0))
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Small(b) => b.count_ones() as usize,
            Repr::Big(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.idx();
        match &self.0 {
            Repr::Small(b) => i < Self::INLINE_BITS && b & (1u128 << i) != 0,
            Repr::Big(w) => w.get(i / 64).is_some_and(|x| x & (1u64 << (i % 64)) != 0),
        }
    }

    /// Add a node.
    pub fn insert(&mut self, node: NodeId) {
        let i = node.idx();
        match &mut self.0 {
            Repr::Small(b) if i < Self::INLINE_BITS => *b |= 1u128 << i,
            Repr::Small(b) => {
                let mut words = vec![*b as u64, (*b >> 64) as u64];
                words.resize(i / 64 + 1, 0);
                words[i / 64] |= 1u64 << (i % 64);
                *self = normalize(&words);
            }
            Repr::Big(w) => {
                let mut words = w.to_vec();
                if words.len() <= i / 64 {
                    words.resize(i / 64 + 1, 0);
                }
                words[i / 64] |= 1u64 << (i % 64);
                *self = normalize(&words);
            }
        }
    }

    /// Remove a node.
    pub fn remove(&mut self, node: NodeId) {
        let i = node.idx();
        match &mut self.0 {
            Repr::Small(b) => {
                if i < Self::INLINE_BITS {
                    *b &= !(1u128 << i);
                }
            }
            Repr::Big(w) => {
                if i / 64 < w.len() {
                    let mut words = w.to_vec();
                    words[i / 64] &= !(1u64 << (i % 64));
                    *self = normalize(&words);
                }
            }
        }
    }

    /// Set union.
    pub fn union(&self, other: impl Borrow<Self>) -> Self {
        match (&self.0, &other.borrow().0) {
            (Repr::Small(a), Repr::Small(b)) => NodeMask(Repr::Small(a | b)),
            (Repr::Small(s), Repr::Big(w)) | (Repr::Big(w), Repr::Small(s)) => {
                let mut words = w.to_vec();
                words[0] |= *s as u64;
                words[1] |= (*s >> 64) as u64;
                // Still has the Big arm's high bit: no collapse possible.
                NodeMask(Repr::Big(words.into()))
            }
            (Repr::Big(a), Repr::Big(b)) => {
                let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                let mut words = long.to_vec();
                for (x, y) in words.iter_mut().zip(short.iter()) {
                    *x |= y;
                }
                NodeMask(Repr::Big(words.into()))
            }
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: impl Borrow<Self>) -> Self {
        match (&self.0, &other.borrow().0) {
            (Repr::Small(a), Repr::Small(b)) => NodeMask(Repr::Small(a & b)),
            (Repr::Small(s), Repr::Big(w)) | (Repr::Big(w), Repr::Small(s)) => {
                NodeMask(Repr::Small(s & lo128(w)))
            }
            (Repr::Big(a), Repr::Big(b)) => {
                let n = a.len().min(b.len());
                let words: Vec<u64> =
                    a[..n].iter().zip(&b[..n]).map(|(x, y)| x & y).collect();
                normalize(&words)
            }
        }
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: impl Borrow<Self>) -> Self {
        match (&self.0, &other.borrow().0) {
            (Repr::Small(a), Repr::Small(b)) => NodeMask(Repr::Small(a & !b)),
            (Repr::Small(a), Repr::Big(w)) => NodeMask(Repr::Small(a & !lo128(w))),
            (Repr::Big(a), Repr::Small(b)) => {
                let mut words = a.to_vec();
                words[0] &= !(*b as u64);
                words[1] &= !((*b >> 64) as u64);
                NodeMask(Repr::Big(words.into()))
            }
            (Repr::Big(a), Repr::Big(b)) => {
                let words: Vec<u64> = a
                    .iter()
                    .enumerate()
                    .map(|(i, x)| x & !b.get(i).copied().unwrap_or(0))
                    .collect();
                normalize(&words)
            }
        }
    }

    /// True if `self` is a superset of (covers) `other`.
    ///
    /// This is the comparison a switch performs between the union of its
    /// down-port reachability strings and a worm's bit-string header.
    pub fn covers(&self, other: impl Borrow<Self>) -> bool {
        match (&self.0, &other.borrow().0) {
            (Repr::Small(a), Repr::Small(b)) => b & !a == 0,
            // `other` has a member ≥ INLINE_BITS that a Small self lacks.
            (Repr::Small(_), Repr::Big(_)) => false,
            (Repr::Big(w), Repr::Small(b)) => b & !lo128(w) == 0,
            (Repr::Big(a), Repr::Big(b)) => b
                .iter()
                .enumerate()
                .all(|(i, y)| y & !a.get(i).copied().unwrap_or(0) == 0),
        }
    }

    /// True if the two sets share at least one node. This is the per-port
    /// test a switch performs to decide whether to replicate a worm onto
    /// that port.
    pub fn intersects(&self, other: impl Borrow<Self>) -> bool {
        match (&self.0, &other.borrow().0) {
            (Repr::Small(a), Repr::Small(b)) => a & b != 0,
            (Repr::Small(s), Repr::Big(w)) | (Repr::Big(w), Repr::Small(s)) => {
                s & lo128(w) != 0
            }
            (Repr::Big(a), Repr::Big(b)) => {
                a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
            }
        }
    }

    /// Iterate over the member nodes in increasing id order. The iterator
    /// owns a (cheap) clone of the set, so it may outlive a temporary.
    pub fn iter(&self) -> NodeMaskIter {
        NodeMaskIter { mask: self.clone(), word: 0, bits: self.word(0) }
    }

    /// The lowest-numbered node in the set, if any.
    pub fn first(&self) -> Option<NodeId> {
        match &self.0 {
            Repr::Small(0) => None,
            Repr::Small(b) => Some(NodeId(b.trailing_zeros() as u16)),
            Repr::Big(w) => w.iter().enumerate().find(|(_, x)| **x != 0).map(
                |(i, x)| NodeId((i * 64) as u16 + x.trailing_zeros() as u16),
            ),
        }
    }

    /// The highest-numbered node in the set, if any.
    pub fn last(&self) -> Option<NodeId> {
        let (i, w) = match &self.0 {
            Repr::Small(0) => return None,
            Repr::Small(b) => return Some(NodeId(127 - b.leading_zeros() as u16)),
            Repr::Big(w) => w.iter().enumerate().rfind(|(_, x)| **x != 0)?,
        };
        Some(NodeId((i * 64) as u16 + 63 - w.leading_zeros() as u16))
    }

    /// Number of 64-bit words the set spans (trailing zeros trimmed;
    /// inline sets report 2). Exposed for the interval/bitset codecs in
    /// `reach` and for property tests.
    #[inline]
    pub fn word_count(&self) -> usize {
        match &self.0 {
            Repr::Small(_) => 2,
            Repr::Big(w) => w.len(),
        }
    }

    /// Word `i` of the little-endian bit string (0 beyond the end).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        match &self.0 {
            Repr::Small(b) => match i {
                0 => *b as u64,
                1 => (*b >> 64) as u64,
                _ => 0,
            },
            Repr::Big(w) => w.get(i).copied().unwrap_or(0),
        }
    }

    /// Heap bytes resident for this set (0 for inline sets; shared
    /// `Arc` storage is attributed in full).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Small(_) => 0,
            Repr::Big(w) => w.len() * 8,
        }
    }

    /// Address of the shared heap allocation, if any — lets accounting
    /// code (e.g. [`crate::Reachability::resident_bytes`]) count storage
    /// shared across `Arc` clones exactly once.
    #[inline]
    pub(crate) fn heap_addr(&self) -> Option<usize> {
        match &self.0 {
            Repr::Small(_) => None,
            Repr::Big(w) => Some(w.as_ptr() as usize),
        }
    }

    /// Build from raw little-endian words (normalized to canonical form).
    pub(crate) fn from_words(words: &[u64]) -> Self {
        normalize(words)
    }

    /// The words of a set with a member at or above
    /// [`Self::INLINE_BITS`]; `None` for an inline set.
    #[inline]
    pub(crate) fn spilled_words(&self) -> Option<&[u64]> {
        match &self.0 {
            Repr::Small(_) => None,
            Repr::Big(w) => Some(w),
        }
    }

    /// Number of bytes a bit-string header for an `n`-node system occupies
    /// on the wire (the paper's tree-based worms carry one bit per node).
    #[inline]
    pub fn header_bytes(n_nodes: usize) -> usize {
        n_nodes.div_ceil(8)
    }
}

/// Owned ascending-order iterator over a mask's members.
pub struct NodeMaskIter {
    mask: NodeMask,
    word: usize,
    bits: u64,
}

impl Iterator for NodeMaskIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some(NodeId((self.word * 64) as u16 + tz as u16));
            }
            if self.word + 1 >= self.mask.word_count() {
                return None;
            }
            self.word += 1;
            self.bits = self.mask.word(self.word);
        }
    }
}

impl Default for NodeMask {
    fn default() -> Self {
        NodeMask::EMPTY
    }
}

impl fmt::Debug for NodeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeMask{{")?;
        let mut first = true;
        for n in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", n.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for NodeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<NodeId> for NodeMask {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        NodeMask::from_nodes(iter)
    }
}

impl std::ops::BitOr for NodeMask {
    type Output = NodeMask;
    fn bitor(self, rhs: Self) -> Self {
        self.union(&rhs)
    }
}

impl std::ops::BitOr for &NodeMask {
    type Output = NodeMask;
    fn bitor(self, rhs: Self) -> NodeMask {
        self.union(rhs)
    }
}

impl std::ops::BitAnd for NodeMask {
    type Output = NodeMask;
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(&rhs)
    }
}

impl std::ops::BitAnd for &NodeMask {
    type Output = NodeMask;
    fn bitand(self, rhs: Self) -> NodeMask {
        self.intersection(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        assert!(NodeMask::EMPTY.is_empty());
        assert_eq!(NodeMask::EMPTY.len(), 0);
        let m = NodeMask::single(NodeId(5));
        assert_eq!(m.len(), 1);
        assert!(m.contains(NodeId(5)));
        assert!(!m.contains(NodeId(4)));
    }

    #[test]
    fn all_has_exact_members() {
        let m = NodeMask::all(32);
        assert_eq!(m.len(), 32);
        assert!(m.contains(NodeId(0)));
        assert!(m.contains(NodeId(31)));
        assert!(!m.contains(NodeId(32)));
    }

    #[test]
    fn all_at_inline_capacity() {
        let m = NodeMask::all(128);
        assert_eq!(m.len(), 128);
        assert!(m.contains(NodeId(127)));
    }

    #[test]
    fn all_beyond_inline_capacity_spills() {
        for n in [129usize, 192, 1000, 10_000] {
            let m = NodeMask::all(n);
            assert_eq!(m.len(), n);
            assert!(m.contains(NodeId((n - 1) as u16)));
            assert!(!m.contains(NodeId(n as u16)));
            assert!(m.heap_bytes() > 0);
        }
    }

    #[test]
    fn first_and_last_members() {
        assert_eq!(NodeMask::EMPTY.last(), None);
        for nodes in [&[5u16][..], &[0, 127], &[3, 64, 128], &[1, 300, 9000, 65535]] {
            let m = NodeMask::from_nodes(nodes.iter().map(|&i| NodeId(i)));
            assert_eq!(m.first(), Some(NodeId(nodes[0])));
            assert_eq!(m.last(), Some(NodeId(*nodes.last().unwrap())));
        }
    }

    #[test]
    fn set_algebra() {
        let a = NodeMask::from_nodes([NodeId(1), NodeId(2), NodeId(3)]);
        let b = NodeMask::from_nodes([NodeId(3), NodeId(4)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b), NodeMask::single(NodeId(3)));
        assert_eq!(a.difference(&b), NodeMask::from_nodes([NodeId(1), NodeId(2)]));
        assert!(a.intersects(&b));
        assert!(!a.covers(&b));
        assert!(a.union(&b).covers(&a));
    }

    #[test]
    fn wide_set_algebra_and_canonical_collapse() {
        let a = NodeMask::from_nodes([NodeId(1), NodeId(300), NodeId(9000)]);
        let b = NodeMask::from_nodes([NodeId(1), NodeId(300)]);
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.intersects(&b));
        // Intersecting away every wide member must collapse to the
        // inline arm so equality with an inline-built set holds.
        let only_low = a.intersection(NodeMask::all(128));
        assert_eq!(only_low, NodeMask::single(NodeId(1)));
        assert_eq!(only_low.heap_bytes(), 0);
        // Difference of equal wide sets is the (inline) empty set.
        assert!(a.difference(&a).is_empty());
        assert_eq!(a.difference(&a), NodeMask::EMPTY);
        // Inline and wide sets are never equal.
        assert_ne!(b, NodeMask::from_nodes([NodeId(1), NodeId(300), NodeId(301)]));
    }

    #[test]
    fn insert_promotes_and_remove_collapses() {
        let mut m = NodeMask::single(NodeId(7));
        assert_eq!(m.heap_bytes(), 0);
        m.insert(NodeId(500));
        assert!(m.heap_bytes() > 0);
        assert!(m.contains(NodeId(7)));
        assert!(m.contains(NodeId(500)));
        m.remove(NodeId(500));
        assert_eq!(m, NodeMask::single(NodeId(7)));
        assert_eq!(m.heap_bytes(), 0);
    }

    #[test]
    fn covers_is_reflexive_and_empty_is_covered() {
        let a = NodeMask::from_nodes([NodeId(7), NodeId(9)]);
        assert!(a.covers(&a));
        assert!(a.covers(&NodeMask::EMPTY));
        assert!(NodeMask::EMPTY.covers(&NodeMask::EMPTY));
        assert!(!NodeMask::EMPTY.covers(&a));
        // Mixed-arm covers.
        let w = NodeMask::from_nodes([NodeId(7), NodeId(9), NodeId(4000)]);
        assert!(w.covers(&a));
        assert!(!a.covers(&w));
    }

    #[test]
    fn iteration_in_order() {
        let a = NodeMask::from_nodes([NodeId(9), NodeId(1), NodeId(100)]);
        let v: Vec<u16> = a.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![1, 9, 100]);
        assert_eq!(a.first(), Some(NodeId(1)));
        let w = NodeMask::from_nodes([NodeId(9000), NodeId(1), NodeId(300)]);
        let v: Vec<u16> = w.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![1, 300, 9000]);
        assert_eq!(w.first(), Some(NodeId(1)));
    }

    #[test]
    fn remove_and_insert() {
        let mut m = NodeMask::all(4);
        m.remove(NodeId(2));
        assert_eq!(m.len(), 3);
        assert!(!m.contains(NodeId(2)));
        m.insert(NodeId(2));
        assert_eq!(m, NodeMask::all(4));
        // removing an absent member is a no-op
        m.remove(NodeId(99));
        assert_eq!(m, NodeMask::all(4));
        m.remove(NodeId(10_000));
        assert_eq!(m, NodeMask::all(4));
    }

    #[test]
    fn header_bytes_rounds_up() {
        assert_eq!(NodeMask::header_bytes(32), 4);
        assert_eq!(NodeMask::header_bytes(33), 5);
        assert_eq!(NodeMask::header_bytes(1), 1);
        assert_eq!(NodeMask::header_bytes(0), 0);
    }

    #[test]
    fn debug_format_lists_members() {
        let a = NodeMask::from_nodes([NodeId(0), NodeId(3)]);
        assert_eq!(format!("{a:?}"), "NodeMask{0,3}");
    }

    #[test]
    fn words_view_matches_membership() {
        let m = NodeMask::from_nodes([NodeId(0), NodeId(64), NodeId(130)]);
        assert_eq!(m.word(0), 1);
        assert_eq!(m.word(1), 1);
        assert_eq!(m.word(2), 1 << 2);
        assert_eq!(m.word(3), 0);
        assert_eq!(m.word_count(), 3);
        assert_eq!(NodeMask::single(NodeId(5)).word_count(), 2);
    }
}
