package trace

import "strconv"

// Kind names one row of the event vocabulary. Every event a Recorder holds
// is a Kind plus numbers; its name, category, phase and argument keys live
// in Vocabulary and nowhere else, so producers (the emit sites), the JSON
// encoder and readers (internal/analyze) all derive from one declaration.
type Kind uint8

// The event vocabulary. Adding an event is one constant here, one row in
// Vocabulary, and one Instant/Span call at the emit site.
const (
	EvBarrierRelease Kind = iota
	EvVloadIssue
	EvLLCFanout
	EvFrameFill
	EvFrameOpen
	EvFrameConsume
	EvFramePoison
	EvFastForward
	EvCheckpoint
	EvCheckpointRestore
	EvReplayStart
	EvReplayOK
	EvReplayRetry
	EvReplayEscalate
	EvRecoverGroupBreak
	EvFaultStick
	EvFaultFlip
	EvFaultKill
	EvFaultCutLink
	EvFaultKillRouter
	EvFaultKillBank
	EvFaultDramDegrade

	NumKinds int = iota
)

// Event phases, as the Chrome trace-event format spells them.
const (
	PhSpan    byte = 'X' // [ts, ts+dur) on one thread
	PhInstant byte = 'i' // a point at ts, thread-scoped
)

// MaxArgs is the most argument values one event carries.
const MaxArgs = 3

// KindInfo is one vocabulary row. Keys are the event's argument names in
// sorted order (the order the JSON carries them); emit sites pass the
// values positionally in the same order.
type KindInfo struct {
	Name string
	Cat  string
	Ph   byte
	Keys []string
}

// Vocabulary maps every Kind to its row.
var Vocabulary = [NumKinds]KindInfo{
	EvBarrierRelease:    {"barrier.release", "barrier", PhInstant, []string{"gen"}},
	EvVloadIssue:        {"vload.issue", "vload", PhInstant, []string{"addr", "words"}},
	EvLLCFanout:         {"llc.fanout", "vload", PhInstant, []string{"addr", "src", "words"}},
	EvFrameFill:         {"frame.fill", "frame", PhSpan, []string{"slot"}},
	EvFrameOpen:         {"frame.open", "frame", PhInstant, []string{"seq", "slot"}},
	EvFrameConsume:      {"frame.consume", "frame", PhSpan, []string{"seq", "slot"}},
	EvFramePoison:       {"frame.poison", "recovery", PhInstant, []string{"seq", "slot"}},
	EvFastForward:       {"fastforward", "engine", PhSpan, nil},
	EvCheckpoint:        {"checkpoint", "recovery", PhInstant, []string{"pages", "words"}},
	EvCheckpointRestore: {"checkpoint.restore", "recovery", PhInstant, []string{"attempt"}},
	EvReplayStart:       {"replay.start", "recovery", PhInstant, []string{"chunks", "seq"}},
	EvReplayOK:          {"replay.ok", "recovery", PhInstant, []string{"tries"}},
	EvReplayRetry:       {"replay.retry", "recovery", PhInstant, []string{"try"}},
	EvReplayEscalate:    {"replay.escalate", "recovery", PhInstant, nil},
	EvRecoverGroupBreak: {"recover.groupbreak", "recovery", PhInstant, []string{"group"}},
	EvFaultStick:        {"fault.stick", "fault", PhSpan, nil},
	EvFaultFlip:         {"fault.flip", "fault", PhInstant, []string{"bit", "offset"}},
	EvFaultKill:         {"fault.kill", "fault", PhInstant, nil},
	EvFaultCutLink:      {"fault.cutlink", "fault", PhInstant, []string{"plane", "to"}},
	EvFaultKillRouter:   {"fault.killrouter", "fault", PhInstant, nil},
	EvFaultKillBank:     {"fault.killbank", "fault", PhInstant, []string{"owner"}},
	EvFaultDramDegrade:  {"fault.dramdegrade", "fault", PhInstant, []string{"factor_x100", "until"}},
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := range Vocabulary {
		m[Vocabulary[k].Name] = Kind(k)
	}
	return m
}()

// KindOf resolves an event name read back from a trace file.
func KindOf(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// Name returns the event name of k.
func (k Kind) Name() string { return Vocabulary[k].Name }

// ArgIndex returns the position of argument key in k's events, or -1.
func (k Kind) ArgIndex(key string) int {
	for i, name := range Vocabulary[k].Keys {
		if name == key {
			return i
		}
	}
	return -1
}

// AppendDetail renders one event of kind k as text — "tid=T", "dur=D" for a
// span, then the row's "key=value" pairs — the detail line a flight-recorder
// note carries for the event. args are the row's values, in order.
func (k Kind) AppendDetail(dst []byte, tid, dur int64, args []int64) []byte {
	info := &Vocabulary[k]
	dst = strconv.AppendInt(append(dst, "tid="...), tid, 10)
	if info.Ph == PhSpan {
		dst = strconv.AppendInt(append(dst, " dur="...), dur, 10)
	}
	for i, key := range info.Keys {
		dst = append(append(append(dst, ' '), key...), '=')
		dst = strconv.AppendInt(dst, args[i], 10)
	}
	return dst
}
