// Package par provides the worker-pool parallel execution layer of
// kbrepair. Three pipeline stages fan out through MapNamed here, each under
// its call-site label:
//
//   - conflict.scan — conflict detection, one independent homomorphism
//     search per CDD (conflict.AllNaive / conflict.All);
//   - conflict.ranks — position ranks over the conflict set, one chunk of
//     conflicts per worker (conflict.PositionRanks);
//   - inquiry.fixgen — fix generation, one active-domain enumeration per
//     eligible position.
//
// The chase, the tracker's incremental update and the Π-check of a
// candidate-fix batch run inline: measured on two CPUs, fanning them out
// did not pay for its dispatch cost (and the Π-check fan-out needed a copy
// of the Π-nulled instance per chunk).
//
// Design rules, enforced by the callers:
//
//   - Tasks are read-only with respect to shared state (the store's
//     concurrent-read contract; see internal/store). All mutation happens
//     after the fan-in, on the caller's goroutine.
//   - Results are merged in task-index order, never in completion order, so
//     every output is byte-identical regardless of the worker count.
//     MapNamed makes this the default by writing each task's result to its
//     own slot.
//
// The pool size is a process-wide setting (SetWorkers / the -workers CLI
// flag, default runtime.GOMAXPROCS(0)). Workers are spawned per call
// rather than kept hot: the fan-outs here are coarse (whole homomorphism
// searches, fix-value enumerations), so goroutine start-up cost is noise, and an
// idle process holds no threads.
package par

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kbrepair/internal/obs"
)

// Pool instrumentation: tasks executed and the configured pool size.
var (
	mTasks   = obs.NewCounter("par.tasks")
	gWorkers = obs.NewGauge("par.workers")
)

// workers holds the configured pool size; 0 means "unset, use
// runtime.GOMAXPROCS(0)" so that changing GOMAXPROCS at runtime is
// respected until someone pins an explicit count.
var workers atomic.Int64

func init() { gWorkers.Set(int64(Workers())) }

// Workers returns the current pool size: the value of the last SetWorkers
// call, or runtime.GOMAXPROCS(0) if never set (or set to <= 0).
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers pins the pool size. n <= 0 resets to the default
// (runtime.GOMAXPROCS(0)). It returns the effective size.
func SetWorkers(n int) int {
	if n <= 0 {
		workers.Store(0)
	} else {
		workers.Store(int64(n))
	}
	w := Workers()
	gWorkers.Set(int64(w))
	return w
}

// AddFlags registers the shared -workers flag on fs, mirroring
// obs.AddFlags so all CLIs expose an identical surface. The returned value
// must be applied with Configure after fs is parsed.
func AddFlags(fs *flag.FlagSet) *int {
	n := new(int)
	fs.IntVar(n, "workers", 0,
		fmt.Sprintf("parallel worker count for Π-checking, conflict detection, position ranking and fix generation (0 = GOMAXPROCS, currently %d)", runtime.GOMAXPROCS(0)))
	return n
}

// Configure applies a parsed AddFlags value.
func Configure(n *int) { SetWorkers(*n) }

// MapNamed runs fn(0) … fn(n-1) on up to Workers() goroutines and returns
// the results in task order — the deterministic fan-out/fan-in shape every
// parallel stage of the pipeline uses. Tasks are handed out in index order
// but may complete in any order; callers must not depend on cross-task
// timing. With a pool size of one (or a single task) everything runs
// inline on the calling goroutine, which keeps -workers 1 a true
// sequential baseline.
//
// label names the call site ("conflict.scan", "inquiry.fixgen", …); it becomes
// the note of the par.dispatch ring event, so a debug bundle shows which
// fan-out dispatched. It changes no execution behavior.
//
// If any task panics, MapNamed panics on the calling goroutine with the
// first panic value after all workers have stopped.
func MapNamed[T any](label string, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	mTasks.Add(int64(n))
	w := Workers()
	// Keep the pool gauge fresh: with -workers unset the effective size
	// tracks runtime.GOMAXPROCS, which can change after package init.
	gWorkers.Set(int64(w))
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	// Only true fan-outs are recorded; inline runs would flood the
	// ring with events that carry no scheduling information.
	obs.Point(obs.KindParDispatch, label, n, w)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if panicked.CompareAndSwap(false, true) {
								panicVal = r
							}
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return out
}
