package sched

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestStructSizes pins the per-machine and per-thread allocations to Go's
// size classes: a Kernel over 512 bytes is allocated from the 576-byte
// class, a Thread over 352 from the 384-byte class, and every simulated
// machine and thread pays the difference.
func TestStructSizes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
		next      int
	}{
		{"Kernel", unsafe.Sizeof(Kernel{}), 512, 576},
		{"Thread", unsafe.Sizeof(Thread{}), 352, 384},
	} {
		t.Logf("%s: %d bytes", c.name, c.size)
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over %d: it moves to Go's %d-byte size class", c.name, c.size, c.max, c.next)
		}
	}
}
