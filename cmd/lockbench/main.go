// Command lockbench benchmarks the full lock zoo — ten spinlocks, the
// futex mutex, the three hybrid locks, HCLH and the contention-adaptive
// lock — under configurable contention and oversubscription, printing each
// lock's run time, throughput and longest acquisition wait.
//
// Example:
//
//	lockbench -threads 32 -cores 8 -cs 2us -think 5us
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"oversub"
)

func main() {
	var (
		threads = flag.Int("threads", 32, "contending threads")
		cores   = flag.Int("cores", 8, "physical cores")
		iters   = flag.Int("iters", 200, "acquisitions per thread")
		cs      = flag.Duration("cs", 2*time.Microsecond, "critical section length")
		think   = flag.Duration("think", 5*time.Microsecond, "think time between acquisitions")
		bwd     = flag.Bool("bwd", false, "enable busy-waiting detection")
		vb      = flag.Bool("vb", false, "enable virtual blocking")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	csD := oversub.Duration(cs.Nanoseconds())
	thinkD := oversub.Duration(think.Nanoseconds())
	detect := oversub.DetectOff
	if *bwd {
		detect = oversub.DetectBWD
	}

	fmt.Printf("%-12s %12s %12s %14s\n", "lock", "time(ms)", "acq/ms", "maxwait(us)")
	for _, name := range lockNames() {
		sys := oversub.NewSystem(oversub.SystemConfig{
			Cores:    *cores,
			Features: oversub.Features{VB: *vb},
			Detect:   detect,
			Seed:     *seed,
		})
		l := makeLock(sys, name)
		var maxWait oversub.Duration
		for i := 0; i < *threads; i++ {
			sys.Spawn("t", func(t *oversub.Thread) {
				for j := 0; j < *iters; j++ {
					before := sys.Now()
					l.Lock(t)
					wait := oversub.Duration(sys.Now() - before)
					if wait > maxWait {
						maxWait = wait
					}
					t.Run(csD)
					l.Unlock(t)
					t.Run(thinkD)
				}
			})
		}
		if err := sys.Run(); err != nil {
			fmt.Printf("%-12s %12s\n", name, "STUCK")
			continue
		}
		elapsed := oversub.Duration(sys.Now())
		total := *threads * *iters
		fmt.Printf("%-12s %12.2f %12.1f %14.1f\n",
			name, elapsed.Millis(), float64(total)/elapsed.Millis(), maxWait.Micros())
	}
}

func lockNames() []string {
	names := []string{"mutex", "mutexee", "mcstp", "shfllock", "hclh", "adaptive"}
	for _, k := range oversub.SpinLockKinds() {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return names
}

func makeLock(sys *oversub.System, name string) oversub.Locker {
	switch name {
	case "mutex":
		return sys.NewMutex()
	case "mutexee":
		return sys.NewMutexee()
	case "mcstp":
		return sys.NewMCSTP()
	case "shfllock":
		return sys.NewShfllock()
	case "hclh":
		return sys.NewHCLH()
	case "adaptive":
		return sys.NewAdaptive()
	}
	for i, k := range oversub.SpinLockKinds() {
		if k.String() == name {
			return sys.SpinLocks()[i]
		}
	}
	panic("unknown lock " + name)
}
