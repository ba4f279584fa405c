package msg

import (
	"testing"
	"unsafe"
)

// TestMessageFitsCacheLine pins a flit to one 64-byte cache line: the mesh's
// flit arena, the LLC's queues and every flit copy move whole messages.
func TestMessageFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 64 {
		t.Errorf("msg.Message is %d bytes, want <= 64", n)
	}
}
