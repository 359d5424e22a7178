// Package sharedstate seeds violations for simlint's sharedstate rule:
// package-level variables with module-wide mutation evidence.
package sharedstate

// Directly assigned from a function: mutable, and shared across shards.
var counter int // want `\[sharedstate\] package-level var counter is mutable \(assigned at sharedstate\.go:\d+\)`

// Mutated through an element store.
var registry = map[string]int{} // want `\[sharedstate\] package-level var registry is mutable \(mutated via element or field at sharedstate\.go:\d+\)`

// Incremented.
var hits int // want `\[sharedstate\] package-level var hits is mutable \(incremented at sharedstate\.go:\d+\)`

// Address escapes: anyone holding the pointer can write it.
var knob int // want `\[sharedstate\] package-level var knob is mutable \(address taken at sharedstate\.go:\d+\)`

// Read-only lookup tables initialized at declaration stay legal: Go just
// lacks const composites.
var costTable = [4]int{10, 20, 40, 80}

var names = []string{"spawn", "exit"}

func touch(k string) int {
	counter = 1
	registry[k] = registry[k] + 1
	hits++
	return costTable[2] + len(names)
}

func escape() *int {
	return &knob
}

type tally struct{ n uint64 }

func (c *tally) Add(d uint64) uint64 { c.n += d; return c.n }
func (c *tally) Load() uint64        { return c.n }
func (c tally) Snapshot() uint64     { return c.n }

// Mutated only through a pointer-receiver call: the implicit &ids never
// appears in the source, but the call writes the shared var all the same.
var ids tally // want `\[sharedstate\] package-level var ids is mutable \(pointer-receiver call ids\.Add at sharedstate\.go:\d+\)`

// Reached only through a pointer-receiver read: the rule cannot tell Load
// from Add, and such state is shared mutable state either way.
var seen tally // want `\[sharedstate\] package-level var seen is mutable \(pointer-receiver call seen\.Load at sharedstate\.go:\d+\)`

type book struct{ names map[string]int }

func (b *book) Put(k string) { b.names[k] = len(b.names) }

// Mutated through a pointer-receiver call on one of its elements.
var defaults = [2]book{} // want `\[sharedstate\] package-level var defaults is mutable \(pointer-receiver call defaults\[0\]\.Put at sharedstate\.go:\d+\)`

// Value-receiver calls copy the receiver and stay legal.
var frozen tally

// A pointer-typed var is only read by the call; its pointee is the
// concern of whoever formed the pointer.
var shared = &tally{}

func count(k string) uint64 {
	defaults[0].Put(k)
	return ids.Add(1) + seen.Load() + frozen.Snapshot() + shared.Load()
}

// Locals are per-run state, not shared: never flagged.
func local() uint64 {
	var c tally
	return c.Add(1)
}
