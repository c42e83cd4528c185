//! [`NodeTable`]: per-node lists in one flat, node-sorted table.
//!
//! A plan maps a few nodes — the source and the forwarders of one
//! multicast — to short lists: a k-binomial tree's children, the sends a
//! node issues after delivery, the path worms a leader's NI injects. A
//! `NodeTable` keeps all of them in three arrays: the keys in ascending
//! order, one offsets array and one items array. Building one costs
//! three allocations whatever the number of keys, and a lookup is a
//! binary search over at most d + 1 keys.

use irrnet_topology::NodeId;

/// Lists of `T` keyed by node, in one flat table. Keys are distinct and
/// ascending, every list is non-empty, and a node without a list reads
/// as the empty slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTable<T> {
    /// The nodes with a list, ascending.
    keys: Vec<NodeId>,
    /// `items[starts[i]..starts[i + 1]]` is `keys[i]`'s list; `starts`
    /// is empty when `keys` is.
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for NodeTable<T> {
    fn default() -> Self {
        NodeTable { keys: Vec::new(), starts: Vec::new(), items: Vec::new() }
    }
}

impl<T> NodeTable<T> {
    /// The empty table (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of `(node, item)` pairs: each node's list holds its
    /// items in the order they appear in `pairs`.
    pub fn from_pairs(mut pairs: Vec<(NodeId, T)>) -> Self {
        if pairs.is_empty() {
            return Self::new();
        }
        // Stable, so each node's items keep their order.
        pairs.sort_by_key(|&(n, _)| n);
        let groups = 1 + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut keys = Vec::with_capacity(groups);
        let mut starts = Vec::with_capacity(groups + 1);
        for (i, &(n, _)) in pairs.iter().enumerate() {
            if keys.last() != Some(&n) {
                keys.push(n);
                starts.push(i as u32);
            }
        }
        starts.push(pairs.len() as u32);
        let items = pairs.into_iter().map(|(_, item)| item).collect();
        NodeTable { keys, starts, items }
    }

    /// `n`'s list (empty if `n` has none).
    #[inline]
    pub fn get(&self, n: NodeId) -> &[T] {
        match self.keys.binary_search(&n) {
            Ok(i) => self.list(i),
            Err(_) => &[],
        }
    }

    /// True if no node has a list.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of nodes with a list.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The nodes with a list, ascending.
    #[inline]
    pub fn keys(&self) -> std::slice::Iter<'_, NodeId> {
        self.keys.iter()
    }

    /// Every item, grouped by node in ascending node order.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// `(node, list)` pairs in ascending node order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { table: self, at: 0 }
    }

    /// Take `n`'s list out of the table (empty if `n` has none).
    pub fn remove(&mut self, n: NodeId) -> Vec<T> {
        let Ok(i) = self.keys.binary_search(&n) else { return Vec::new() };
        let (lo, hi) = (self.starts[i], self.starts[i + 1]);
        let taken: Vec<T> = self.items.drain(lo as usize..hi as usize).collect();
        self.keys.remove(i);
        self.starts.remove(i);
        for s in &mut self.starts[i..] {
            *s -= hi - lo;
        }
        if self.keys.is_empty() {
            self.starts.clear();
        }
        taken
    }

    /// The same keys and lists with every item mapped through `f`.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> NodeTable<U> {
        NodeTable { keys: self.keys, starts: self.starts, items: self.items.into_iter().map(f).collect() }
    }

    #[inline]
    fn list(&self, i: usize) -> &[T] {
        &self.items[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

impl<T> std::ops::Index<&NodeId> for NodeTable<T> {
    type Output = [T];

    /// `n`'s list (empty if `n` has none), as [`NodeTable::get`].
    #[inline]
    fn index(&self, n: &NodeId) -> &[T] {
        self.get(*n)
    }
}

impl<'a, T> IntoIterator for &'a NodeTable<T> {
    type Item = (&'a NodeId, &'a [T]);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`NodeTable`]'s `(node, list)` pairs.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    table: &'a NodeTable<T>,
    at: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (&'a NodeId, &'a [T]);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.table.keys.get(self.at)?;
        self.at += 1;
        Some((n, self.table.list(self.at - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> NodeTable<u32> {
        NodeTable::from_pairs(vec![
            (NodeId(7), 1),
            (NodeId(2), 2),
            (NodeId(7), 3),
            (NodeId(4), 4),
            (NodeId(2), 5),
        ])
    }

    #[test]
    fn lists_keep_pair_order_under_sorted_keys() {
        let t = table();
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), [NodeId(2), NodeId(4), NodeId(7)]);
        assert_eq!(t.get(NodeId(2)), &[2, 5]);
        assert_eq!(t.get(NodeId(4)), &[4]);
        assert_eq!(t.get(NodeId(7)), &[1, 3]);
        assert_eq!(t.get(NodeId(3)), &[] as &[u32]);
        assert_eq!(t.items(), &[2, 5, 4, 1, 3]);
        assert_eq!(&t[&NodeId(7)], &[1, 3]);
        assert_eq!(&t[&NodeId(8)], &[] as &[u32]);
        let listed: Vec<(NodeId, Vec<u32>)> = (&t).into_iter().map(|(&n, l)| (n, l.to_vec())).collect();
        assert_eq!(
            listed,
            vec![(NodeId(2), vec![2, 5]), (NodeId(4), vec![4]), (NodeId(7), vec![1, 3])]
        );
    }

    #[test]
    fn remove_takes_one_list_and_keeps_the_rest() {
        let mut t = table();
        assert_eq!(t.remove(NodeId(4)), vec![4]);
        assert_eq!(t.remove(NodeId(4)), Vec::<u32>::new());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(NodeId(2)), &[2, 5]);
        assert_eq!(t.get(NodeId(7)), &[1, 3]);
        assert_eq!(t.remove(NodeId(2)), vec![2, 5]);
        assert_eq!(t.remove(NodeId(7)), vec![1, 3]);
        assert!(t.is_empty());
        assert_eq!(t, NodeTable::new());
    }

    #[test]
    fn map_keeps_the_layout() {
        let t = table().map(|x| x * 10);
        assert_eq!(t.get(NodeId(7)), &[10, 30]);
        assert_eq!(t.items(), &[20, 50, 40, 10, 30]);
        assert!(NodeTable::<u32>::from_pairs(Vec::new()).is_empty());
    }
}
