//! Disjoint-set union (union-find) with path halving and union by size.
//!
//! Connectivity questions over the switch graph — topology validation,
//! incremental connectivity while generating giant random topologies —
//! were previously answered by whole-graph DFS scans. At 1000 switches
//! those rescans dominate construction; the DSU answers the same
//! questions in amortized O(α) per operation.

/// A disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct Dsu {
    /// Parent pointer per element; roots point at themselves.
    parent: Vec<u32>,
    /// Component size, valid at roots only.
    size: Vec<u32>,
    /// Number of distinct components.
    components: usize,
}

impl Dsu {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "DSU element space exceeds u32");
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Root of `x`'s component, with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p];
            self.parent[x] = gp;
            x = gp as usize;
        }
    }

    /// Merge the components of `a` and `b`; returns true if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same component.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of distinct components.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Lowest element not in `anchor`'s component, if any — the
    /// "first unreachable switch" a connectivity check reports.
    pub fn first_outside_component_of(&mut self, anchor: usize) -> Option<usize> {
        if self.parent.is_empty() || self.components == 1 {
            return None;
        }
        let root = self.find(anchor);
        (0..self.parent.len()).find(|&i| self.find(i) != root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut d = Dsu::new(5);
        assert_eq!(d.components(), 5);
        assert!(d.union(0, 1));
        assert!(d.union(3, 4));
        assert!(!d.union(1, 0), "repeated union is a no-op");
        assert_eq!(d.components(), 3);
        assert!(d.connected(0, 1));
        assert!(!d.connected(0, 3));
        assert_eq!(d.first_outside_component_of(0), Some(2));
        d.union(0, 2);
        d.union(2, 3);
        assert_eq!(d.components(), 1);
        assert_eq!(d.first_outside_component_of(0), None);
    }

    #[test]
    fn first_outside_reports_lowest_id() {
        let mut d = Dsu::new(4);
        d.union(0, 3);
        assert_eq!(d.first_outside_component_of(0), Some(1));
        assert_eq!(d.first_outside_component_of(1), Some(0));
    }

    #[test]
    fn empty_and_single_are_connected() {
        assert_eq!(Dsu::new(0).first_outside_component_of(0), None);
        assert_eq!(Dsu::new(1).first_outside_component_of(0), None);
    }
}
