// Package msg defines the messages that travel on the data NoC between
// cores, LLC banks, and scratchpads: each is one 64-byte flit, with narrow
// node ids and a journey id in place of the causal profiler's stamps. It
// exists below both the noc and mem packages so they can share payload
// types without an import cycle.
package msg

import (
	"fmt"

	"rockcress/internal/isa"
)

// Kind discriminates message payloads.
type Kind uint8

const (
	// KindLoadReq is a scalar word-load request from a core to an LLC bank.
	KindLoadReq Kind = iota
	// KindStoreReq is a non-blocking word store to an LLC bank.
	KindStoreReq
	// KindVloadReq is a wide vector load request (paper §3.4).
	KindVloadReq
	// KindLoadResp returns a scalar load's word to the requesting core's
	// load queue slot.
	KindLoadResp
	// KindSpadWord delivers one word of a wide load into a scratchpad,
	// incrementing the destination frame's counter.
	KindSpadWord
	// KindRemoteStore is a core-to-core scratchpad store (shuffles).
	KindRemoteStore
)

func (k Kind) String() string {
	switch k {
	case KindLoadReq:
		return "load-req"
	case KindStoreReq:
		return "store-req"
	case KindVloadReq:
		return "vload-req"
	case KindLoadResp:
		return "load-resp"
	case KindSpadWord:
		return "spad-word"
	case KindRemoteStore:
		return "remote-store"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MaxWords bounds how many data words one flit can carry: the widest legal
// NetWidthWords (config.Validate enforces NetWidthWords <= MaxWords). Vals
// is an inline array rather than a slice so messages never allocate — the
// steady-state simulation sends millions of them, and a flit's payload is a
// value, copied with the message as it moves through queues.
const MaxWords = 8

// Node is a NoC node id (see NodeSpace). It is 16 bits wide so a flit fits
// one 64-byte cache line; config.Validate refuses a fabric with more than
// MaxNodes nodes.
type Node = int16

// MaxNodes is the largest node count a Node id can address.
const MaxNodes = 1 << 15

// MaxLQSlots is the largest load queue a LQSlot can index.
const MaxLQSlots = 1 << 8

// Message is one NoC payload, and the whole of a flit: 64 bytes, one cache
// line, so the mesh's flit arena, the LLC's queues and every copy of a flit
// move one line. A message occupies one flit; a KindSpadWord or KindLoadResp
// flit may carry up to the network width in consecutive words for a single
// destination (Words > 1). Only Vals[:Words] is meaningful.
//
// The causal profiler's journey stamps do not ride the flit: a request
// sent with -causal carries a Journey id, and the stamps live in the
// recorder's slab under that id (internal/causal). Without -causal every
// Journey is 0.
type Message struct {
	Vals    [MaxWords]uint32
	Addr    uint32 // global byte address (requests)
	SpadOff uint32 // destination scratchpad byte offset of the first word (wide loads, remote stores)
	Journey uint32 // causal stamps' slab id; 0 = none

	Src, Dst Node
	Words    uint16 // request: words wanted; response: words carried
	Group    int16  // vector group id (-1 for self loads)
	ReqCore  Node   // tile that issued the request (for self/group fan-out)
	Vload    Vload  // wide loads: how the bank steers the words
	Kind     Kind
	LQSlot   uint8 // load responses: destination load-queue slot
}

// Vload is the part of a vload's operands (isa.VloadArgs) the LLC bank
// reads to steer a wide access's words to lanes.
type Vload struct {
	BaseLane uint16 // lane in the group to receive the first word
	Width    uint16 // words per receiving lane
	Dist     isa.VloadDist
	Part     isa.VloadPart
}

// NodeSpace maps cores and LLC banks onto NoC node ids: tiles occupy
// [0, Cores), LLC banks occupy [Cores, Cores+Banks).
type NodeSpace struct {
	Cores int
	Banks int
}

// LLCNode returns the node id of bank b.
func (s NodeSpace) LLCNode(b int) int { return s.Cores + b }

// IsLLC reports whether node is an LLC bank, and which.
func (s NodeSpace) IsLLC(node int) (int, bool) {
	if node >= s.Cores && node < s.Cores+s.Banks {
		return node - s.Cores, true
	}
	return 0, false
}

// Nodes returns the total node count.
func (s NodeSpace) Nodes() int { return s.Cores + s.Banks }
