//! Host and network-interface model (§4.1).
//!
//! Each node consists of three serial resources plus wire-side state:
//!
//! * the **host CPU** — pays `O_{s,h}` per message send and `O_{r,h}` per
//!   message receive;
//! * the **NI processor** — pays `O_{s,ni}` per injected packet copy and
//!   `O_{r,ni}` per received packet;
//! * the **I/O bus** — DMA between host memory and NI memory at a
//!   configurable bytes-per-cycle rate, shared by both directions;
//! * the **injection link** (NI → switch) streaming one flit per cycle,
//!   and the ejection side assembling arriving worms into packets.
//!
//! Every resource is a FIFO: a task runs to completion, then the next
//! starts. The engine drives the CPU/NI/bus via its event heap
//! (`HostDone`/`NiDone`/`BusDone` completions), so overhead intervals
//! cost no sweeps at all. The injection link is swept per cycle while
//! flits flow; a host that stalls on a full switch input buffer parks
//! off the active list and is re-armed by the credit release when the
//! switch frees the slot (it never polls).

use crate::config::Cycle;
use crate::worm::{McastId, SendSpec, WormCopy};
use std::collections::VecDeque;
use std::sync::Arc;

/// A serial FIFO resource: one running task, a queue behind it.
#[derive(Debug)]
pub struct Resource<T> {
    /// Currently executing task, if any.
    running: Option<T>,
    /// Tasks waiting, each with its duration.
    queue: VecDeque<(T, Cycle)>,
    /// Total busy cycles accumulated (for utilization stats).
    pub busy_cycles: u64,
}

impl<T> Default for Resource<T> {
    fn default() -> Self {
        Resource { running: None, queue: VecDeque::new(), busy_cycles: 0 }
    }
}

impl<T> Resource<T> {
    /// Enqueue a task. Returns `Some(completion_cycle)` if the resource
    /// was idle and the task starts immediately (the caller must schedule
    /// the completion event); `None` if it queued behind others.
    pub fn enqueue(&mut self, task: T, duration: Cycle, now: Cycle) -> Option<Cycle> {
        if self.running.is_none() {
            self.running = Some(task);
            self.busy_cycles += duration;
            Some(now + duration)
        } else {
            self.queue.push_back((task, duration));
            None
        }
    }

    /// Complete the running task; returns it plus, if another task was
    /// queued, that task's completion cycle (the caller schedules it).
    pub fn complete(&mut self, now: Cycle) -> (T, Option<Cycle>) {
        let done = self.running.take().expect("complete on idle resource");
        if let Some((next, dur)) = self.queue.pop_front() {
            self.running = Some(next);
            self.busy_cycles += dur;
            (done, Some(now + dur))
        } else {
            (done, None)
        }
    }

    /// True if no task is running or queued.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }

    /// Queue length behind the running task.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

/// Work items for the host CPU.
#[derive(Debug)]
pub enum HostTask {
    /// `O_{s,h}`: prepare a message send; on completion the message is
    /// DMA'd packet-by-packet to the NI.
    Send {
        /// The multicast the message belongs to.
        mcast: McastId,
        /// What to put on the wire.
        spec: SendSpec,
    },
    /// `O_{r,h}`: absorb a fully DMA'd message; on completion the message
    /// is *delivered* and the protocol may issue follow-up sends.
    Recv(McastId),
}

/// Work items for the NI processor.
#[derive(Debug)]
pub enum NiTask {
    /// `O_{r,ni}`: process one received packet; on completion the packet
    /// is DMA'd to the host and (smart NIs) replicas may be injected.
    Rx(Arc<WormCopy>),
    /// `O_{s,ni}`: prepare one outgoing worm copy; on completion it joins
    /// the injection queue.
    Tx(Arc<WormCopy>),
}

/// Work items for the I/O bus.
#[derive(Debug)]
pub enum DmaTask {
    /// Host memory → NI memory: packet `pkt` of a pending send.
    ToNi {
        /// The multicast the message belongs to.
        mcast: McastId,
        /// The send whose packet is being transferred.
        spec: Arc<SendSpec>,
        /// Packet index.
        pkt: u32,
    },
    /// NI memory → host memory: a received packet.
    ToHost {
        /// The packet (carries multicast id and packet index).
        worm: Arc<WormCopy>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_runs_fifo() {
        let mut r: Resource<u32> = Resource::default();
        assert!(r.is_idle());
        assert_eq!(r.enqueue(1, 10, 100), Some(110));
        assert_eq!(r.enqueue(2, 5, 101), None);
        assert_eq!(r.enqueue(3, 5, 102), None);
        assert_eq!(r.backlog(), 2);
        let (t, next) = r.complete(110);
        assert_eq!(t, 1);
        assert_eq!(next, Some(115));
        let (t, next) = r.complete(115);
        assert_eq!(t, 2);
        assert_eq!(next, Some(120));
        let (t, next) = r.complete(120);
        assert_eq!(t, 3);
        assert_eq!(next, None);
        assert!(r.is_idle());
        assert_eq!(r.busy_cycles, 20);
    }

    #[test]
    #[should_panic(expected = "complete on idle")]
    fn completing_idle_resource_panics() {
        let mut r: Resource<u32> = Resource::default();
        r.complete(0);
    }

    #[test]
    fn zero_duration_tasks_complete_immediately() {
        let mut r: Resource<u32> = Resource::default();
        assert_eq!(r.enqueue(7, 0, 50), Some(50));
    }
}
