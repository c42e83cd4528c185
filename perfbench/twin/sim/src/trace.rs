//! Optional event tracing for debugging and white-box tests.
//!
//! When enabled on a [`crate::Simulator`], the engine records the major
//! lifecycle events of every multicast: host send starts, worm
//! injections, packet receptions at NIs, and host-level deliveries. The
//! log is append-only and cheap (one enum + two integers per event); it
//! is disabled by default and costs a branch per event when off.

use crate::config::Cycle;
use crate::worm::McastId;
use irrnet_topology::NodeId;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A multicast launch fired.
    Launch { mcast: McastId },
    /// A message send was handed to a node's host CPU (start of the
    /// `O_{s,h}` + DMA + `O_{s,ni}` chain, possibly queued behind other
    /// work).
    HostSendStart { node: NodeId, mcast: McastId },
    /// A worm copy entered the injection queue at a node's NI.
    WormQueued { node: NodeId, mcast: McastId, pkt: u32 },
    /// A packet finished arriving at a node's NI.
    PacketAtNi { node: NodeId, mcast: McastId, pkt: u32 },
    /// A message was delivered to a node's host (after `O_{r,h}`).
    Delivered { node: NodeId, mcast: McastId },
}

/// Append-only trace log.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    events: Vec<(Cycle, TraceEvent)>,
}

impl TraceLog {
    /// Record an event.
    #[inline]
    pub fn push(&mut self, at: Cycle, ev: TraceEvent) {
        self.events.push((at, ev));
    }

    /// All events in record order (which is also time order).
    pub fn events(&self) -> &[(Cycle, TraceEvent)] {
        &self.events
    }

    /// Events concerning one multicast.
    pub fn for_mcast(&self, id: McastId) -> impl Iterator<Item = &(Cycle, TraceEvent)> {
        self.events.iter().filter(move |(_, e)| match e {
            TraceEvent::Launch { mcast }
            | TraceEvent::HostSendStart { mcast, .. }
            | TraceEvent::WormQueued { mcast, .. }
            | TraceEvent::PacketAtNi { mcast, .. }
            | TraceEvent::Delivered { mcast, .. } => *mcast == id,
        })
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render as one line per event (stable format for golden tests).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (t, e) in &self.events {
            let _ = match e {
                TraceEvent::Launch { mcast } => writeln!(s, "{t:>8} launch {}", mcast.0),
                TraceEvent::HostSendStart { node, mcast } => {
                    writeln!(s, "{t:>8} send   {} @{node}", mcast.0)
                }
                TraceEvent::WormQueued { node, mcast, pkt } => {
                    writeln!(s, "{t:>8} queue  {}#{pkt} @{node}", mcast.0)
                }
                TraceEvent::PacketAtNi { node, mcast, pkt } => {
                    writeln!(s, "{t:>8} ni-rx  {}#{pkt} @{node}", mcast.0)
                }
                TraceEvent::Delivered { node, mcast } => {
                    writeln!(s, "{t:>8} deliv  {} @{node}", mcast.0)
                }
            };
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut log = TraceLog::default();
        log.push(1, TraceEvent::Launch { mcast: McastId(0) });
        log.push(2, TraceEvent::Launch { mcast: McastId(1) });
        log.push(5, TraceEvent::Delivered { node: NodeId(3), mcast: McastId(0) });
        assert_eq!(log.len(), 3);
        assert_eq!(log.for_mcast(McastId(0)).count(), 2);
        assert_eq!(log.for_mcast(McastId(1)).count(), 1);
    }

    #[test]
    fn render_is_stable() {
        let mut log = TraceLog::default();
        log.push(10, TraceEvent::PacketAtNi { node: NodeId(2), mcast: McastId(7), pkt: 1 });
        let out = log.render();
        assert!(out.contains("ni-rx"));
        assert!(out.contains("7#1"));
        assert!(out.contains("@n2"));
    }

    #[test]
    fn empty_log() {
        let log = TraceLog::default();
        assert!(log.is_empty());
        assert_eq!(log.render(), "");
    }
}
