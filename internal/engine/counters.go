package engine

// Counters are the engine's cumulative protocol counters. One struct
// covers every protocol line so metrics, the live runtime, and the
// experiment harness read all nodes uniformly; a counter a line never
// moves simply stays zero on its nodes.
type Counters struct {
	// TAReferences counts adopted Time Authority references (both
	// reference and full calibrations) — Figure 2b's metric.
	TAReferences int
	// PeerUntaints counts recoveries via peer timestamps.
	PeerUntaints int
	// Served counts trusted timestamps served.
	Served uint64

	// RejectedPeers counts peer timestamps the hardened chimer filter
	// refused.
	RejectedPeers int
	// RTTRejections counts Time Authority answers discarded as
	// over-delayed: by the hardened roundtrip bound, or by the NTP
	// discipline's clock filter (not the minimum delay of its register).
	RTTRejections int
	// Probes counts hardened in-TCB deadline self-checks;
	// ProbeFailures counts those that found the local clock
	// inconsistent.
	Probes        int
	ProbeFailures int

	// GossipSent / GossipReceived count chimer reports published and
	// ingested; GossipAdoptions counts untaints that needed
	// gossip-accredited evidence.
	GossipSent      int
	GossipReceived  int
	GossipAdoptions int

	// QuorumAccepts counts multi-authority rounds whose interval
	// intersection met the agreement rule and was adopted;
	// QuorumNoMajority counts rounds that found no agreeing quorum.
	// FalseTickers accumulates, over accepted rounds, the responding
	// authorities whose interval fell outside the adopted intersection
	// (lying or badly delayed). Holdovers counts entries into the
	// Degraded holdover state. All stay zero on single-authority nodes.
	QuorumAccepts    int
	QuorumNoMajority int
	FalseTickers     int
	Holdovers        int
}
