// Package atomics seeds violations for simlint's atomics rule: calls to
// sync/atomic's package-level functions, which work on plain variables
// that other code can still access plainly (the torn-counter bug class).
package atomics

import "sync/atomic"

type gauge struct {
	level int64
	// typed is safe by construction: atomic.Int64 has no plain-access path.
	typed atomic.Int64
}

func (g *gauge) raise(by int64) {
	atomic.AddInt64(&g.level, by) // want `\[atomics\] atomic\.AddInt64 works on a plain variable`
}

func (g *gauge) read() int64 {
	return atomic.LoadInt64(&g.level) + g.level // want `\[atomics\] atomic\.LoadInt64 works on a plain variable`
}

func (g *gauge) claim(old, next int64) bool {
	return atomic.CompareAndSwapInt64(&g.level, old, next) // want `\[atomics\] atomic\.CompareAndSwapInt64 works on a plain variable`
}

// A function value counts too: it is still a plain-variable primitive.
var store = atomic.StoreUint32 // want `\[atomics\] atomic\.StoreUint32 works on a plain variable`

// Methods on the typed values are the sanctioned form and never flagged.
func (g *gauge) bump() int64 {
	g.typed.Store(0)
	return g.typed.Add(1) + g.typed.Load()
}
