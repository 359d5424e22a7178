package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host shares: the profiled pass's flat CPU samples grouped by the layer
// whose function was on top of the stack. Simulator packages map to their
// own share; the Go runtime splits into goroutine handoff (channel and
// scheduler paths: the sim.Proc coroutine switch), GC and allocation, and
// the rest; everything else (the harness, std library, facade) is "other".

// shareLayers are the simulator packages that get a share of their own.
var shareLayers = []string{
	"sim", "sched", "rbtree", "futex", "locks", "epoll", "workload",
	"bwd", "hw", "mem", "trace", "metrics", "stats", "cluster",
}

// shareNames lists every host_share metric in output order.
func shareNames() []string {
	out := []string{"host_share.runtime_handoff", "host_share.gc_alloc", "host_share.runtime_other"}
	for _, l := range shareLayers {
		out = append(out, "host_share."+l)
	}
	return append(out, "host_share.other")
}

// Runtime function-name prefixes of the goroutine handoff path.
var handoffPrefixes = []string{
	"runtime.chan", "runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready",
	"runtime.gogo", "runtime.goexit", "runtime.gosched", "runtime.park_m", "runtime.mcall",
	"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.note", "runtime.futex",
	"runtime.lock", "runtime.unlock", "runtime.runq", "runtime.globrunq", "runtime.stealWork",
	"runtime.checkTimers", "runtime.resetspinning", "runtime.casgstatus", "runtime.procyield",
	"runtime.osyield", "runtime.usleep", "runtime.netpoll", "runtime.acquirep",
	"runtime.releasep", "runtime.handoffp", "runtime.pidle", "runtime.ready", "runtime.newproc",
	"runtime.coro", "runtime.selectgo", "runtime.acquireSudog", "runtime.releaseSudog",
	"runtime.dropg", "runtime.gfget", "runtime.gfput", "runtime.systemstack", "runtime.nanotime",
	"runtime.entersyscall", "runtime.exitsyscall", "internal/runtime/atomic.",
}

// Runtime function-name prefixes of allocation and garbage collection.
var gcPrefixes = []string{
	"runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.memclr", "runtime.gc", "runtime.(*gc", "runtime.scan",
	"runtime.markroot", "runtime.greyobject", "runtime.findObject", "runtime.heapBits",
	"runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*pageAlloc)", "runtime.(*sweepLocked)", "runtime.sweepone", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.(*scavenger", "runtime.sysAlloc", "runtime.sysUsed",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers", "runtime.nextFreeFast",
	"runtime.deductAssistCredit", "runtime.madvise", "runtime.(*gcBits", "runtime.spanOf",
	"runtime.(*unwinder)", "runtime.publicationBarrier", "runtime.heapSetType",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// shareOf names the host_share bucket of a leaf function.
func shareOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		if hasAnyPrefix(fn, gcPrefixes) {
			return "host_share.gc_alloc"
		}
		if hasAnyPrefix(fn, handoffPrefixes) {
			return "host_share.runtime_handoff"
		}
		return "host_share.runtime_other"
	case strings.HasPrefix(fn, "oversub/internal/"):
		pkg := strings.TrimPrefix(fn, "oversub/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range shareLayers {
			if pkg == l {
				return "host_share." + l
			}
		}
	}
	return "host_share.other"
}

// hostShares turns a CPU profile into percentages of all samples.
func hostShares(prof []byte) ([]metricValue, error) {
	leaves, err := profileLeaves(prof)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	names := shareNames()
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	sums := make([]float64, len(names))
	var total float64
	for _, l := range leaves {
		sums[idx[shareOf(l.fn)]] += l.weight
		total += l.weight
	}
	out := make([]metricValue, len(names))
	for i, n := range names {
		out[i] = metricValue{Name: n, Unit: "%"}
		if total > 0 {
			out[i].Value = 100 * sums[i] / total
		}
	}
	return out, nil
}

type leaf struct {
	fn     string
	weight float64
}

// profileLeaves decodes a gzipped pprof profile and returns, per sample,
// the innermost function and the sample's last value (CPU nanoseconds).
// Only the handful of fields needed are read.
func profileLeaves(prof []byte) ([]leaf, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strtab  []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.values = appendVarints(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return walkFields(b, func(f int, w int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]leaf, 0, len(samples))
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if si := fnName[locFn[s.locs[0]]]; si >= 0 && si < int64(len(strtab)) {
			name = strtab[si]
		}
		out = append(out, leaf{fn: name, weight: float64(s.values[len(s.values)-1])})
	}
	return out, nil
}

// appendVarints appends a repeated varint field in either encoding.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// walkFields visits every field of one protobuf message: varints arrive in
// v, length-delimited fields in b.
func walkFields(msg []byte, visit func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
		if err := visit(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
