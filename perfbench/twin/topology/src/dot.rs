//! Graphviz export for debugging and documentation.

use crate::graph::Topology;
use crate::updown::UpDown;
use std::fmt::Write as _;

/// Render the topology as a Graphviz `graph`, with BFS levels as ranks and
/// up/down orientation drawn as arrowheads toward the up end.
pub fn to_dot(topo: &Topology, updown: Option<&UpDown>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph irrnet {{");
    let _ = writeln!(out, "  node [shape=box];");
    for (s, _) in topo.switches() {
        let label = match updown {
            Some(ud) => format!("{s}\\nlvl {}", ud.level(s)),
            None => format!("{s}"),
        };
        let _ = writeln!(out, "  {} [label=\"{}\"];", s.0, label);
    }
    for (n, h) in topo.hosts() {
        let _ = writeln!(out, "  h{} [label=\"{n}\", shape=ellipse];", n.0);
        let _ = writeln!(out, "  {} -- h{};", h.switch.0, n.0);
    }
    for (li, l) in topo.links() {
        match updown {
            Some(ud) => {
                // Draw with an arrowhead at the up end.
                let up = l.end(ud.up_side(li)).0;
                let down = l.end(1 - ud.up_side(li)).0;
                let _ = writeln!(
                    out,
                    "  {} -- {} [dir=forward, label=\"{li}\"];",
                    down.0, up.0
                );
            }
            None => {
                let _ = writeln!(out, "  {} -- {} [label=\"{li}\"];", l.a.0.0, l.b.0.0);
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use crate::Network;

    #[test]
    fn renders_all_elements() {
        let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
        let dot = to_dot(&net.topo, Some(&net.updown));
        assert!(dot.contains("graph irrnet"));
        assert!(dot.contains("S0"));
        assert!(dot.contains("h0"));
        assert!(dot.contains("lvl 0"));
        // 2 links in a 3-chain
        assert_eq!(dot.matches("dir=forward").count(), 2);
    }

    #[test]
    fn renders_without_updown() {
        let dot = to_dot(&zoo::chain(2).unwrap(), None);
        assert!(dot.contains("S1"));
        assert!(!dot.contains("lvl"));
    }
}
