package mem

import "rockcress/internal/msg"

// Decommission powers the bank off gracefully (a killbank fault): dirty
// lines flush to the global store, every response the bank still owes is
// emitted immediately, and every request it had absorbed but not finished
// is re-emitted so the machine can steer it to the bank that takes over the
// address slice. After the call the bank is empty and quiescent — Busy()
// and Idle() read it as dead weight, never work.
//
// The model is ECC-assisted decommission: the bank's arrays are still
// readable while the controller drains, so no data is lost — kernels
// continue at reduced LLC capacity, they do not restart.
//
// Emission order is deterministic: response jobs in stream order, queued
// requests in arrival order, then MSHR events in slot order. The emit
// callback receives messages the machine re-injects (or re-targets) — the
// bank itself no longer talks to the network.
func (b *LLCBank) Decommission(emit func(msg.Message)) {
	// Dirty lines out first: a re-fetched request served by the failover
	// bank must observe every write this bank absorbed.
	b.FlushTo(b.global)
	for i := range b.lines {
		b.lines[i].valid = false
	}

	// Owed responses: finish streaming every job's unsent remainder as the
	// flits streamResponses would have sent (both form them in nextFlit).
	for ; b.jobCount > 0; b.popJob() {
		j := &b.jobs[b.jobHead]
		for j.sent < len(j.data) {
			var resp msg.Message
			n, ok := b.nextFlit(j, &resp)
			if !ok {
				break // error already recorded
			}
			emit(resp)
			b.st.RespWords += int64(n)
			j.sent += n
		}
	}

	// Unserved requests bounce back whole; the machine re-targets them at
	// the surviving bank that now owns their addresses.
	for ; b.reqCount > 0; b.popReq() {
		emit(b.reqQ[b.reqHead])
	}

	// MSHR events: a waiting load re-emits its original request; an
	// absorbed store is reconstructed from the coalesced word (its data
	// exists nowhere else). The in-flight DRAM fill these were waiting on
	// is dropped by the machine; the failover bank re-fetches the line.
	for i := range b.mshr {
		h := &b.mshr[i]
		if !h.busy {
			continue
		}
		for _, ev := range h.events {
			if ev.isStore {
				st := msg.Message{
					Kind: msg.KindStoreReq, Src: b.node, Dst: b.node,
					Addr: h.lineAddr + uint32(4*ev.store.off), Words: 1,
				}
				st.Vals[0] = ev.store.val
				emit(st)
				continue
			}
			emit(ev.req)
		}
		h.busy = false
		h.lineAddr = 0
		h.events = h.events[:0]
	}
}
