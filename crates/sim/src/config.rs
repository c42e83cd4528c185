//! Simulation parameters (§4.1 of the paper).
//!
//! All times are in cycles of the network clock. The paper's defaults —
//! with the values the OCR dropped reconstructed as documented in
//! `DESIGN.md` — are available as [`SimConfig::paper_default`].

/// Cycle count type used throughout the simulator.
pub type Cycle = u64;

/// All knobs of the simulated system.
///
/// The notation follows the paper: `O_{s,h}`/`O_{r,h}` are the software
/// overheads per message at the sending/receiving **host** processor,
/// `O_{s,ni}`/`O_{r,ni}` the corresponding overheads at the **NI**
/// processor, and `R = O_h / O_ni` is the headline ratio of §4.2.1.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// `O_{s,h}`: host software overhead per message send.
    pub o_send_host: Cycle,
    /// `O_{r,h}`: host software overhead per message receive.
    pub o_recv_host: Cycle,
    /// `O_{s,ni}`: NI processor overhead per injected packet copy.
    pub o_send_ni: Cycle,
    /// `O_{r,ni}`: NI processor overhead per received packet.
    pub o_recv_ni: Cycle,
    /// Packet payload size in flits (the paper's default packet is 128
    /// flits; messages longer than a packet are split).
    pub packet_payload_flits: u32,
    /// Header length of a unicast worm, in flits.
    pub unicast_header_flits: u32,
    /// Header length of a worm copy after final delivery onto a host port
    /// of a path-based multidestination worm.
    pub delivered_header_flits: u32,
    /// I/O-bus bandwidth as a rational number of bytes per cycle
    /// (`io_bus_num / io_bus_den`). The default 8/3 ≈ 2.67 B/cycle models
    /// 266.7 MB/s at a 10 ns cycle — twice 32-bit/33 MHz PCI, matching the
    /// paper's "I/O bus bandwidths will increase" assumption.
    pub io_bus_num: u64,
    /// See [`SimConfig::io_bus_num`].
    pub io_bus_den: u64,
    /// Capacity of each switch input-port buffer, in flits. The default
    /// holds a full packet plus the largest header (virtual cut-through:
    /// a blocked worm is absorbed entirely), which together with
    /// up*/down*-conformant routes keeps replication deadlock-free.
    pub input_buffer_flits: u32,
    /// Wire propagation per flit across a physical link (1 cycle).
    pub link_delay: Cycle,
    /// Crossbar traversal from input to output buffer (1 cycle).
    pub crossbar_delay: Cycle,
    /// Header decode / route decision time (1 cycle, "uniform routing
    /// overhead for all three schemes").
    pub routing_delay: Cycle,
    /// Cycles of inactivity after which the engine declares a deadlock /
    /// livelock and aborts with diagnostics.
    pub watchdog_cycles: Cycle,
    /// Number of times the watchdog may *recover* instead of aborting:
    /// each recovery kills the youngest stuck worm (the one whose head
    /// arrived last) and resumes. 0 — the paper-faithful default — means
    /// the first stall is fatal. Like `watchdog_cycles`, this bounds the
    /// engine rather than the modeled system, so it is excluded from
    /// [`SimConfig::canonical_string`].
    pub watchdog_recovery_limit: u32,
    /// Adaptive routing (the paper's Autonet model): a worm may take any
    /// minimal legal port, first-free wins. Setting this to `false`
    /// restricts every adaptive decision to its first (lowest-port)
    /// candidate — deterministic up*/down*, used by the adaptivity
    /// ablation.
    pub adaptive: bool,
}

/// Default host overhead: 500 cycles = 5 µs at the reconstructed 10 ns
/// cycle — the cost of "many of the current-day lightweight messaging
/// layers" circa 1998.
pub const DEFAULT_O_HOST: Cycle = 500;

/// Paper default packet: 128 flits.
pub const DEFAULT_PACKET_FLITS: u32 = 128;

impl SimConfig {
    /// The paper's default parameter set (`R = 1`, 128-flit packets,
    /// 266.7 MB/s I/O bus, unit link/crossbar/routing delays).
    pub fn paper_default() -> Self {
        SimConfig {
            o_send_host: DEFAULT_O_HOST,
            o_recv_host: DEFAULT_O_HOST,
            o_send_ni: DEFAULT_O_HOST, // R = 1
            o_recv_ni: DEFAULT_O_HOST,
            packet_payload_flits: DEFAULT_PACKET_FLITS,
            unicast_header_flits: 3,
            delivered_header_flits: 1,
            io_bus_num: 8,
            io_bus_den: 3,
            input_buffer_flits: DEFAULT_PACKET_FLITS + 24,
            link_delay: 1,
            crossbar_delay: 1,
            routing_delay: 1,
            watchdog_cycles: 2_000_000,
            watchdog_recovery_limit: 0,
            adaptive: true,
        }
    }

    /// Set the ratio `R = O_h / O_ni` by scaling the NI overheads from the
    /// current host overheads (the paper sweeps R ∈ {0.5, 1, 2, 4} by
    /// varying `O_ni` while holding `O_h` fixed).
    ///
    /// An `r` that is not finite and positive is an error, and so is one
    /// that scales an overhead above `Cycle::MAX / 2`: the engine adds an
    /// overhead to the clock, and that sum must not wrap. The message
    /// says what is wrong with `r` without naming it ("must be finite and
    /// positive, got 0"), so a caller can put its own name for R first.
    pub fn with_r(mut self, r: f64) -> Result<Self, String> {
        if !(r.is_finite() && r > 0.0) {
            return Err(format!("must be finite and positive, got {r}"));
        }
        let scale = |o_h: Cycle| {
            let o_ni = (o_h as f64 / r).round();
            // `as` saturates, so check before casting. `(Cycle::MAX / 2) as
            // f64` rounds up to 2^63, so `<` keeps the cast at or below
            // `Cycle::MAX / 2`.
            if o_ni < (Cycle::MAX / 2) as f64 {
                Ok(o_ni as Cycle)
            } else {
                Err(format!(
                    "overflows the clock, got {r:e}: O_h / R = {o_ni:e} cycles is above {}",
                    Cycle::MAX / 2
                ))
            }
        };
        self.o_send_ni = scale(self.o_send_host)?;
        self.o_recv_ni = scale(self.o_recv_host)?;
        Ok(self)
    }

    /// The current ratio `R = O_h / O_ni` (using the send-side values; the
    /// paper keeps send and receive overheads equal).
    pub fn r_ratio(&self) -> f64 {
        self.o_send_host as f64 / self.o_send_ni as f64
    }

    /// Cycles for a DMA transfer of `flits` flits (1 byte per flit) across
    /// the I/O bus.
    #[inline]
    pub fn dma_cycles(&self, flits: u32) -> Cycle {
        (flits as u64 * self.io_bus_den).div_ceil(self.io_bus_num)
    }

    /// Number of packets needed for a `message_flits`-flit message.
    #[inline]
    pub fn packets_for(&self, message_flits: u32) -> u32 {
        assert!(message_flits > 0, "empty message");
        message_flits.div_ceil(self.packet_payload_flits)
    }

    /// Payload length of packet `pkt` (0-based) of a `message_flits`-flit
    /// message: full packets except possibly the last.
    #[inline]
    pub fn packet_payload(&self, message_flits: u32, pkt: u32) -> u32 {
        let total = self.packets_for(message_flits);
        debug_assert!(pkt < total);
        if pkt + 1 == total {
            message_flits - self.packet_payload_flits * (total - 1)
        } else {
            self.packet_payload_flits
        }
    }

    /// Header length in flits of a tree-based (bit-string) worm in an
    /// `n_nodes`-node system: one bit per node, rounded up to whole byte
    /// flits, plus one flit of kind/length framing.
    #[inline]
    pub fn tree_header_flits(&self, n_nodes: usize) -> u32 {
        (n_nodes.div_ceil(8) as u32) + 1
    }

    /// Header length in flits of a path-based multi-drop worm that still
    /// has `stops` replicating switches ahead of it: per stop a node-id
    /// flit plus a port-bit-string flit, plus one flit of framing. The
    /// header shrinks by 2 flits as each stop is passed (§3.2.4: fields
    /// are stripped).
    #[inline]
    pub fn path_header_flits(&self, stops: usize) -> u32 {
        (2 * stops as u32) + 1
    }

    /// Total per-hop pipeline latency of a head flit that meets no
    /// contention: routing + crossbar + link.
    #[inline]
    pub fn hop_latency(&self) -> Cycle {
        self.routing_delay + self.crossbar_delay + self.link_delay
    }

    /// NI processing for the second and later packets of a message.
    ///
    /// The paper charges `O_{s,ni}` / `O_{r,ni}` **per message** ("the
    /// communication software overhead per message at the ... NI
    /// processors", §4.1); the remaining packets of a multi-packet
    /// message need only lightweight per-packet handling (descriptor
    /// bookkeeping, DMA setup). The paper does not quote that cost; we
    /// reconstruct it as one tenth of the per-message NI overhead, which
    /// scales with `R` like everything else at the NI.
    #[inline]
    pub fn o_ni_per_packet(&self) -> Cycle {
        (self.o_send_ni / 10).max(1)
    }

    /// Canonical one-line encoding of every knob. Equal configs produce
    /// equal strings; the experiment harness records this (and its
    /// [`Self::stable_hash`]) in run manifests so a campaign's exact
    /// parameters are machine-readable.
    pub fn canonical_string(&self) -> String {
        format!(
            "sim{{osh={},orh={},osni={},orni={},pkt={},uhdr={},dhdr={},bus={}/{},buf={},link={},xbar={},route={},adaptive={}}}",
            self.o_send_host,
            self.o_recv_host,
            self.o_send_ni,
            self.o_recv_ni,
            self.packet_payload_flits,
            self.unicast_header_flits,
            self.delivered_header_flits,
            self.io_bus_num,
            self.io_bus_den,
            self.input_buffer_flits,
            self.link_delay,
            self.crossbar_delay,
            self.routing_delay,
            self.adaptive,
        )
    }

    /// Stable 64-bit fingerprint of the config (FNV-1a over
    /// [`Self::canonical_string`]); identical across runs and platforms.
    /// The watchdog limit and recovery budget are deliberately excluded —
    /// they bound the engine, not the modeled system.
    pub fn stable_hash(&self) -> u64 {
        irrnet_topology::rng::fnv1a(self.canonical_string().as_bytes())
    }

    /// Basic sanity checks; call after hand-editing a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_payload_flits == 0 {
            return Err("packet size must be positive".into());
        }
        if self.io_bus_num == 0 || self.io_bus_den == 0 {
            return Err("I/O bus rate must be positive".into());
        }
        if self.input_buffer_flits < self.packet_payload_flits + self.unicast_header_flits {
            return Err(format!(
                "input buffer ({} flits) must hold a full worm (packet {} + header); \
                 smaller buffers would require wormhole back-pressure across switches, \
                 which the VCT replication model does not support",
                self.input_buffer_flits, self.packet_payload_flits
            ));
        }
        if self.link_delay == 0 && self.crossbar_delay == 0 {
            return Err("zero-latency channels are not supported".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// NI-level retransmission policy (fault tolerance extension).
///
/// When installed via `Simulator::enable_retransmission`, the source NI
/// of every multicast arms a delivery timer. Destinations still missing
/// when it fires get the whole message retransmitted as plain unicast
/// worms straight from the NI send queue (no host CPU, no fresh DMA —
/// the NI still holds the packets), and the timer re-arms with seeded
/// exponential backoff. This is how a multidestination worm whose tree
/// branch died "degrades to unicast" for the stranded destinations.
///
/// The policy is engine machinery, not part of the modeled system, so —
/// like the watchdog knobs — it never enters
/// [`SimConfig::canonical_string`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetxPolicy {
    /// Base delivery timeout: the first check fires this many cycles
    /// after the source first sends.
    pub timeout: Cycle,
    /// Maximum retry rounds per multicast before giving up.
    pub max_retries: u32,
    /// Seed for the per-(multicast, attempt) backoff jitter.
    pub seed: u64,
}

impl RetxPolicy {
    /// A policy sized from the config: the timeout covers a full
    /// host-send pipeline plus generous network time, so healthy traffic
    /// essentially never retransmits spuriously.
    pub fn default_for(cfg: &SimConfig) -> Self {
        let pipeline = cfg.o_send_host
            + cfg.o_send_ni
            + cfg.o_recv_ni
            + cfg.o_recv_host
            + 4 * cfg.dma_cycles(cfg.packet_payload_flits);
        RetxPolicy { timeout: 8 * pipeline.max(1), max_retries: 4, seed: 0x5eed_f417 }
    }

    /// Delay from attempt `attempt` (1-based: the value *after* the
    /// increment) until the next check for multicast index `idx`:
    /// `timeout << min(attempt, 6)` plus deterministic jitter derived
    /// from `(seed, idx, attempt)`.
    pub fn next_check_delay(&self, idx: u32, attempt: u32) -> Cycle {
        let base = self.timeout << attempt.min(6);
        let jitter =
            irrnet_topology::rng::hash3(self.seed, idx as u64, attempt as u64)
                % (self.timeout / 4 + 1);
        base + jitter
    }
}

/// Switch-side link-level retry policy (transient-fault extension).
///
/// When installed via `Simulator::enable_link_retry`, every switch output
/// feeding an inter-switch link keeps a replay buffer of the last flits
/// it transmitted. A flit the receiver's CRC/sequence check flags as
/// damaged is NACKed back over the credit channel and the sender replays
/// go-back-k style: it holds the output for [`Self::turnaround`] cycles
/// (the CRC check plus the NACK round trip) and retransmits from the
/// damaged flit onward. Because the hold stops the output at the damaged
/// flit, the replay window never exceeds the flits in flight during one
/// turnaround — which is exactly the sizing rule for
/// [`Self::buffer_flits`]. After [`Self::max_retries`] consecutive
/// failures of the same flit the switch gives up and escalates: the worm
/// copy is killed (truncated and purged, exactly like a PR-3 link kill)
/// and, if NI retransmission is enabled, the end-to-end layer re-covers
/// the lost destinations.
///
/// Like [`RetxPolicy`], this is recovery machinery rather than part of
/// the modeled system, so it never enters
/// [`SimConfig::canonical_string`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRetryPolicy {
    /// Replay-buffer depth per output port, in flits: must cover the
    /// flits a sender can have in flight during one turnaround (the
    /// bandwidth-delay product of the NACK loop).
    pub buffer_flits: u32,
    /// Consecutive failed transmissions of the same flit before the
    /// switch escalates to a worm kill.
    pub max_retries: u32,
    /// Cycles from a damaged transmission until the replay attempt: the
    /// receiver's CRC check plus the NACK crossing back over the link.
    pub turnaround: Cycle,
}

impl LinkRetryPolicy {
    /// A policy sized from the config: the turnaround is one forward
    /// link crossing (the flit reaching the checker), plus one reverse
    /// crossing (the NACK), plus one cycle of CRC/sequence check; the
    /// replay buffer holds that window plus the crossbar pipeline with
    /// one slot of slack.
    pub fn default_for(cfg: &SimConfig) -> Self {
        let turnaround = 2 * cfg.link_delay + 1;
        LinkRetryPolicy {
            buffer_flits: (turnaround + cfg.crossbar_delay) as u32 + 1,
            max_retries: 8,
            turnaround,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_r1() {
        let c = SimConfig::paper_default();
        assert_eq!(c.r_ratio(), 1.0);
        c.validate().unwrap();
    }

    #[test]
    fn r_sweep_matches_paper_values() {
        // R ∈ {0.5, 1, 2, 4}  ⇒  O_ni ∈ {1000, 500, 250, 125}.
        for (r, oni) in [(0.5, 1000), (1.0, 500), (2.0, 250), (4.0, 125)] {
            let c = SimConfig::paper_default().with_r(r).unwrap();
            assert_eq!(c.o_send_ni, oni, "R={r}");
            assert_eq!(c.o_recv_ni, oni);
            assert_eq!(c.o_send_host, DEFAULT_O_HOST);
        }
    }

    #[test]
    fn r_must_be_finite_and_positive() {
        for r in [0.0, -2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = SimConfig::paper_default().with_r(r).unwrap_err();
            assert!(err.contains("finite and positive"), "R={r}: {err}");
        }
        // An `O_h / R` the clock cannot add is an error.
        for r in [1e-300, f64::MIN_POSITIVE, DEFAULT_O_HOST as f64 / (Cycle::MAX / 2) as f64] {
            let err = SimConfig::paper_default().with_r(r).unwrap_err();
            assert!(err.contains("overflows the clock"), "R={r}: {err}");
        }
        assert!(SimConfig::paper_default().with_r(1e-16).is_ok(), "O_ni = 5e18 cycles fits");
    }

    #[test]
    fn dma_is_ceil_of_rational_rate() {
        let c = SimConfig::paper_default();
        // 128 flits at 8/3 B/cycle = 48 cycles exactly.
        assert_eq!(c.dma_cycles(128), 48);
        assert_eq!(c.dma_cycles(1), 1);
        assert_eq!(c.dma_cycles(8), 3);
        assert_eq!(c.dma_cycles(9), 4);
        assert_eq!(c.dma_cycles(0), 0);
    }

    #[test]
    fn packetization() {
        let c = SimConfig::paper_default();
        assert_eq!(c.packets_for(128), 1);
        assert_eq!(c.packets_for(129), 2);
        assert_eq!(c.packets_for(512), 4);
        assert_eq!(c.packet_payload(512, 3), 128);
        assert_eq!(c.packet_payload(300, 2), 44);
        assert_eq!(c.packet_payload(32, 0), 32);
    }

    #[test]
    #[should_panic(expected = "empty message")]
    fn zero_length_message_panics() {
        SimConfig::paper_default().packets_for(0);
    }

    #[test]
    fn header_sizes() {
        let c = SimConfig::paper_default();
        assert_eq!(c.tree_header_flits(32), 5); // 4 bytes of bits + framing
        assert_eq!(c.tree_header_flits(64), 9);
        assert_eq!(c.path_header_flits(3), 7);
        assert_eq!(c.path_header_flits(1), 3);
        assert_eq!(c.unicast_header_flits, 3);
    }

    #[test]
    fn hop_latency_is_three_cycles() {
        assert_eq!(SimConfig::paper_default().hop_latency(), 3);
    }

    #[test]
    fn stable_hash_tracks_every_knob_but_watchdog() {
        let a = SimConfig::paper_default();
        assert_eq!(a.stable_hash(), SimConfig::paper_default().stable_hash());
        let b = SimConfig::paper_default().with_r(2.0).unwrap();
        assert_ne!(a.stable_hash(), b.stable_hash());
        let mut c = SimConfig::paper_default();
        c.adaptive = false;
        assert_ne!(a.stable_hash(), c.stable_hash());
        let mut d = SimConfig::paper_default();
        d.watchdog_cycles += 1;
        d.watchdog_recovery_limit += 3;
        assert_eq!(a.stable_hash(), d.stable_hash());
    }

    #[test]
    fn retx_policy_backoff_is_seeded_and_monotone() {
        let p = RetxPolicy::default_for(&SimConfig::paper_default());
        assert!(p.timeout > 0);
        let a1 = p.next_check_delay(3, 1);
        let a2 = p.next_check_delay(3, 2);
        assert!(a2 >= 2 * p.timeout, "exponential backoff");
        assert!(a1 >= p.timeout);
        // Same (mcast, attempt) → same jitter; different mcast → usually not.
        assert_eq!(a1, p.next_check_delay(3, 1));
    }

    #[test]
    fn link_retry_default_covers_the_nack_loop() {
        let cfg = SimConfig::paper_default();
        let p = LinkRetryPolicy::default_for(&cfg);
        assert_eq!(p.turnaround, 3); // out + back + check at unit delays
        assert!(p.buffer_flits as u64 >= p.turnaround, "go-back-k window");
        assert!(p.max_retries > 0);
    }

    #[test]
    fn validation_rejects_tiny_buffers() {
        let mut c = SimConfig::paper_default();
        c.input_buffer_flits = 16;
        assert!(c.validate().is_err());
    }
}
