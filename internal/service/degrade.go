package service

// Memory-watermark degradation: the daemon's defense against being OOM-
// killed by its own cache and setup allocations. FSAI setup is the
// allocation-heavy phase (pattern assembly, per-row local systems), so when
// the heap crosses a soft watermark the server stops accepting exactly
// those jobs — cold solves — while warm solves (factor already resident,
// per-solve scratch only) keep flowing, and gives factor memory back by
// evicting LRU cache entries. Shedding answers 429 with Retry-After, so
// the retrying client treats pressure exactly like queue saturation.
//
// States, with hysteresis so the daemon doesn't flap at the boundary:
//
//	normal    heap < soft limit
//	pressure  heap >= soft limit: shed cold solves, evict half the cache
//	critical  heap >= 1.5x soft limit: shed all solves, evict everything
//
// A state is left only after the heap falls below 90% of its entry
// threshold. State changes surface on /healthz (degraded) and as slog
// records; the current state is the degraded_state gauge.

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Degradation states (the degraded_state gauge value).
const (
	DegradeNormal   = 0
	DegradePressure = 1
	DegradeCritical = 2
)

// degradeName maps a state to its /api/v1/stats string.
func degradeName(state int) string {
	switch state {
	case DegradePressure:
		return "pressure"
	case DegradeCritical:
		return "critical"
	default:
		return "normal"
	}
}

// criticalFactor scales the soft limit to the critical watermark, and
// exitFactor is the hysteresis: a state is left below exitFactor times its
// entry threshold.
const (
	criticalFactor = 1.5
	exitFactor     = 0.9
)

// degrader evaluates the watermark on demand (each solve admission) rather
// than on a timer: no goroutine to leak, and the state is always current
// exactly when it gates a decision.
type degrader struct {
	soft  uint64
	probe func() uint64
	cache *PrecondCache
	reg   *telemetry.Registry
	log   *slog.Logger
	obs   *obs.Server

	mu    sync.Mutex
	state int
}

// newDegrader returns nil when no soft limit is configured — the nil
// degrader is fully inert.
func newDegrader(soft uint64, probe func() uint64, cache *PrecondCache, reg *telemetry.Registry, log *slog.Logger, o *obs.Server) *degrader {
	if soft == 0 {
		return nil
	}
	if probe == nil {
		probe = heapBytes
	}
	reg.SetHelp("degraded_state", "memory-pressure degradation state (0 normal, 1 pressure: cold solves shed, 2 critical: all solves shed)")
	reg.SetHelp("degraded_shed_total", "solve requests shed (429) by the degradation layer")
	reg.SetHelp("degraded_evictions_total", "cache entries evicted by the degradation layer")
	reg.Gauge("degraded.state").Set(0)
	reg.Counter("degraded.shed_total")
	reg.Counter("degraded.evictions_total")
	return &degrader{soft: soft, probe: probe, cache: cache, reg: reg, log: log, obs: o}
}

// heapBytes is the default memory probe: live heap after the last GC cycle.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// level re-evaluates the watermark and returns the current state. Nil-safe
// (no soft limit: always normal).
func (d *degrader) level() int {
	if d == nil {
		return DegradeNormal
	}
	heap := d.probe()
	critical := uint64(float64(d.soft) * criticalFactor)

	d.mu.Lock()
	defer d.mu.Unlock()
	prev := d.state
	next := prev
	switch {
	case heap >= critical:
		next = DegradeCritical
	case heap >= d.soft:
		if prev < DegradePressure {
			next = DegradePressure
		} else if prev == DegradeCritical && heap < uint64(float64(critical)*exitFactor) {
			next = DegradePressure
		}
	default:
		// Below the soft limit: leave pressure only once comfortably below.
		if heap < uint64(float64(d.soft)*exitFactor) {
			next = DegradeNormal
		} else if prev == DegradeCritical {
			next = DegradePressure
		}
	}
	if next != prev {
		d.transitionLocked(prev, next, heap)
	}
	return next
}

// transitionLocked applies a state change: metrics, logs, health, and the
// eviction response sized to the new state. Caller holds d.mu.
func (d *degrader) transitionLocked(prev, next int, heap uint64) {
	d.state = next
	d.reg.Gauge("degraded.state").Set(float64(next))
	evicted := 0
	switch next {
	case DegradeCritical:
		evicted = d.cache.EvictOldest(d.cache.Len())
	case DegradePressure:
		if next > prev { // entering from normal, not recovering from critical
			evicted = d.cache.EvictOldest((d.cache.Len() + 1) / 2)
		}
	}
	if evicted > 0 {
		d.reg.Counter("degraded.evictions_total").Add(int64(evicted))
		// Evicted factors are only reclaimable after a collection; trigger
		// one so the next level() reads the post-eviction heap, not the peak.
		runtime.GC()
	}
	if next > DegradeNormal {
		d.log.Warn("memory degradation state change",
			"from", degradeName(prev), "to", degradeName(next),
			"heap_bytes", heap, "soft_limit_bytes", d.soft, "evicted", evicted)
		d.obs.SetHealth(obs.HealthDegraded, fmt.Sprintf(
			"memory %s: heap %dMiB over soft limit %dMiB",
			degradeName(next), heap>>20, d.soft>>20))
	} else {
		d.log.Info("memory degradation cleared",
			"from", degradeName(prev), "heap_bytes", heap, "soft_limit_bytes", d.soft)
		// Clear the override, not pin ok: an exhausted SLO budget must be
		// able to degrade /healthz again.
		d.obs.SetHealth("", "")
	}
}

// admit decides whether a solve may proceed at the current watermark:
// critical sheds everything, pressure sheds jobs that would pay setup
// (cold: an FSAI-family key not resident, resilient or not). Returns the
// state and whether to shed.
func (d *degrader) admit(warm bool) (state int, shed bool) {
	state = d.level()
	switch state {
	case DegradeCritical:
		shed = true
	case DegradePressure:
		shed = !warm
	}
	if shed {
		d.reg.Counter("degraded.shed_total").Inc()
	}
	return state, shed
}

// stateName returns the current state string without re-probing. Nil-safe.
func (d *degrader) stateName() string {
	if d == nil {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return degradeName(d.state)
}
