//! Strongly typed identifiers for switches, nodes, ports, and links.
//!
//! Using newtypes instead of bare integers keeps the many index spaces in
//! the simulator (switch index, host index, port index, link index) from
//! being confused with each other at zero runtime cost.

use std::fmt;

/// An id constructor was handed an index outside the id type's range.
///
/// Giant-topology configurations (10k hosts, thousands of switches) sit
/// close enough to the `u16`/`u8` id widths that silent `as` truncation
/// would alias distinct components; every checked constructor returns
/// this typed error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdOverflow {
    /// Which id type overflowed (`"SwitchId"`, `"NodeId"`, ...).
    pub kind: &'static str,
    /// The offending index.
    pub value: usize,
    /// Largest representable index of the type.
    pub max: usize,
}

impl fmt::Display for IdOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} index {} exceeds the id ceiling {} — the component space \
             is wider than the id type",
            self.kind, self.value, self.max
        )
    }
}

impl std::error::Error for IdOverflow {}

macro_rules! checked_id {
    ($ty:ident, $repr:ty) => {
        impl $ty {
            /// Checked constructor: fails with a typed [`IdOverflow`]
            /// instead of truncating like `as` would.
            #[inline]
            pub fn try_new(idx: usize) -> Result<Self, IdOverflow> {
                <$repr>::try_from(idx).map($ty).map_err(|_| IdOverflow {
                    kind: stringify!($ty),
                    value: idx,
                    max: <$repr>::MAX as usize,
                })
            }
        }

        impl TryFrom<usize> for $ty {
            type Error = IdOverflow;
            #[inline]
            fn try_from(idx: usize) -> Result<Self, IdOverflow> {
                $ty::try_new(idx)
            }
        }
    };
}

/// Identifier of a switch (router). Dense, `0..num_switches`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u16);

/// Identifier of a processing node (host). Dense, `0..num_nodes`.
///
/// The paper calls these "processing elements" or simply "nodes"; each is
/// attached to exactly one switch port through its network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

/// A port index within a single switch (`0..ports_per_switch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortIdx(pub u8);

/// Identifier of a bidirectional inter-switch link. Dense, `0..num_links`.
///
/// Multiple parallel links between the same pair of switches are allowed
/// and receive distinct `LinkId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

checked_id!(SwitchId, u16);
checked_id!(NodeId, u16);
checked_id!(PortIdx, u8);
checked_id!(LinkId, u32);

impl SwitchId {
    /// The switch id as a plain index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// The node id as a plain index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PortIdx {
    /// The port index as a plain index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a plain index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(SwitchId(3).to_string(), "S3");
        assert_eq!(NodeId(12).to_string(), "n12");
        assert_eq!(PortIdx(7).to_string(), "p7");
        assert_eq!(LinkId(0).to_string(), "L0");
    }

    #[test]
    fn idx_round_trip() {
        assert_eq!(SwitchId(9).idx(), 9);
        assert_eq!(NodeId(1).idx(), 1);
        assert_eq!(PortIdx(2).idx(), 2);
        assert_eq!(LinkId(5).idx(), 5);
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(SwitchId(1) < SwitchId(2));
        assert!(NodeId(0) < NodeId(10));
    }

    #[test]
    fn checked_constructors_accept_the_full_range() {
        assert_eq!(NodeId::try_new(0), Ok(NodeId(0)));
        assert_eq!(NodeId::try_new(65_535), Ok(NodeId(65_535)));
        assert_eq!(SwitchId::try_new(65_535), Ok(SwitchId(65_535)));
        assert_eq!(PortIdx::try_new(255), Ok(PortIdx(255)));
        assert_eq!(LinkId::try_new(4_294_967_295), Ok(LinkId(4_294_967_295)));
        assert_eq!(SwitchId::try_from(12usize), Ok(SwitchId(12)));
    }

    #[test]
    fn checked_constructors_reject_overflow_with_context() {
        let e = NodeId::try_new(65_536).unwrap_err();
        assert_eq!(e.kind, "NodeId");
        assert_eq!(e.value, 65_536);
        assert_eq!(e.max, 65_535);
        assert!(e.to_string().contains("NodeId"));
        assert!(e.to_string().contains("65536"));
        assert!(PortIdx::try_new(256).is_err());
        assert!(LinkId::try_new(1 << 33).is_err());
    }
}
