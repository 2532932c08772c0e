// Package flight is the post-mortem layer of the observability stack: the
// debug-bundle dumper that captures the last moments of a run (the event
// ring, metrics, goroutine stacks, build stamp, KB digest, inquiry
// journal), and the anomaly watchdogs that flag a stalling or pathological
// repair session while it is still running.
//
// Where internal/obs answers "how much, how fast" with counters and
// histograms, flight answers "what just happened": when a long interactive
// repair session stalls, loops or dies, the event ring (obs.Ring) holds the
// ordered tail of chase rounds, conflict scans, questions, answers and
// Π-repairability batches that led there — including the begin marks of
// the operations still open at capture time.
package flight

import "kbrepair/internal/obs"

// MaxAutosizeCapacity bounds what AutosizeCapacity will pick: a ~1M-event
// ring is about a hundred MB, plenty of tail for the largest KBs the
// experiments load; anything bigger should be an explicit -flight-events
// choice.
const MaxAutosizeCapacity = 1 << 20

// AutosizeCapacity picks a ring capacity from the KB size: eight events per
// fact covers the event volume of a full repair session over the retained
// window (each question touches a handful of chase, scan and Π events),
// clamped to [obs.DefaultRingCapacity, MaxAutosizeCapacity].
func AutosizeCapacity(facts int) int {
	c := facts * 8
	if c < obs.DefaultRingCapacity {
		return obs.DefaultRingCapacity
	}
	if c > MaxAutosizeCapacity {
		return MaxAutosizeCapacity
	}
	return c
}
