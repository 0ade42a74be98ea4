package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// fakePeer is a minimal shard stand-in whose health answer is switchable.
type fakePeer struct {
	hs      *httptest.Server
	healthy atomic.Bool
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{}
	p.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := obs.Health{Status: obs.HealthOK}
		if !p.healthy.Load() {
			h = obs.Health{Status: obs.HealthFailing, Reason: "induced"}
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(obs.Version())
	})
	p.hs = httptest.NewServer(mux)
	t.Cleanup(p.hs.Close)
	return p
}

// TestMembershipStateMachine walks one peer through the full ladder:
// healthy -> degraded (still in the ring) -> ejected (out of the ring) ->
// recovered (back in), with the epoch counting both ring mutations.
func TestMembershipStateMachine(t *testing.T) {
	good, bad := newFakePeer(t), newFakePeer(t)
	ring := cluster.NewRing(0)
	reg := telemetry.NewRegistry()
	m := cluster.NewMembership([]string{good.hs.URL, bad.hs.URL}, ring, cluster.MembershipOptions{
		FailThreshold:    1,
		EjectThreshold:   2,
		RecoverThreshold: 1,
		Registry:         reg,
	})
	defer m.Close()
	if ring.Len() != 2 {
		t.Fatalf("initial ring has %d nodes, want 2", ring.Len())
	}
	m.ProbeAll()
	if st := m.State(bad.hs.URL); st != cluster.PeerHealthy {
		t.Fatalf("healthy peer probed into %q", st)
	}

	bad.healthy.Store(false)
	m.ProbeAll()
	if st := m.State(bad.hs.URL); st != cluster.PeerDegraded {
		t.Fatalf("after 1 failed probe: %q, want degraded", st)
	}
	if ring.Len() != 2 {
		t.Fatal("degraded peer must keep its ring positions")
	}

	m.ProbeAll()
	if st := m.State(bad.hs.URL); st != cluster.PeerEjected {
		t.Fatalf("after 2 failed probes: %q, want ejected", st)
	}
	if ring.Len() != 1 {
		t.Fatalf("ejected peer still on the ring (%d nodes)", ring.Len())
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d after ejection, want 1", m.Epoch())
	}

	bad.healthy.Store(true)
	m.ProbeAll()
	if st := m.State(bad.hs.URL); st != cluster.PeerHealthy {
		t.Fatalf("after recovery probe: %q, want healthy", st)
	}
	if ring.Len() != 2 || m.Epoch() != 2 {
		t.Fatalf("rejoin: ring=%d epoch=%d, want 2/2", ring.Len(), m.Epoch())
	}
	// Two failed probes, two ring mutations (the ejection and the rejoin).
	if got := reg.Counter("cluster.probe_failures").Value(); got != 2 {
		t.Errorf("cluster_probe_failures = %d, want 2", got)
	}
	if got := reg.Counter("cluster.rebalances").Value(); got != 2 {
		t.Errorf("cluster_rebalances = %d, want 2", got)
	}
}

// TestMembershipDataPathFailures pins that forward-path transport errors
// alone (no prober) walk a peer to ejection — failover converges faster
// than the probe interval.
func TestMembershipDataPathFailures(t *testing.T) {
	good, dead := newFakePeer(t), newFakePeer(t)
	ring := cluster.NewRing(0)
	reg := telemetry.NewRegistry()
	m := cluster.NewMembership([]string{good.hs.URL, dead.hs.URL}, ring, cluster.MembershipOptions{
		FailThreshold:  1,
		EjectThreshold: 2,
		Registry:       reg,
	})
	defer m.Close()
	err := http.ErrServerClosed
	m.ReportFailure(dead.hs.URL, err)
	if st := m.State(dead.hs.URL); st != cluster.PeerDegraded {
		t.Fatalf("after 1 data-path failure: %q, want degraded", st)
	}
	m.ReportFailure(dead.hs.URL, err)
	if st := m.State(dead.hs.URL); st != cluster.PeerEjected {
		t.Fatalf("after 2 data-path failures: %q, want ejected", st)
	}
	if ring.Len() != 1 {
		t.Fatal("ejected peer still on the ring")
	}
	// A successful forward recovers it (default RecoverThreshold 2).
	m.ReportSuccess(dead.hs.URL)
	m.ReportSuccess(dead.hs.URL)
	if st := m.State(dead.hs.URL); st != cluster.PeerHealthy {
		t.Fatalf("after 2 successes: %q, want healthy", st)
	}
	if ring.Len() != 2 {
		t.Fatal("recovered peer missing from the ring")
	}
	if got := reg.Counter("cluster.forward_failures").Value(); got != 2 {
		t.Errorf("cluster_forward_failures = %d, want 2", got)
	}
	if got := reg.Counter("cluster.rebalances").Value(); got != 2 {
		t.Errorf("cluster_rebalances = %d, want 2 (ejection and rejoin)", got)
	}
	if got := reg.Counter("cluster.probe_failures").Value(); got != 0 {
		t.Errorf("cluster_probe_failures = %d, want 0: no probe ran", got)
	}
}

// TestMembershipHealthRollup pins the router-level /healthz derivation.
func TestMembershipHealthRollup(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	ring := cluster.NewRing(0)
	m := cluster.NewMembership([]string{a.hs.URL, b.hs.URL}, ring, cluster.MembershipOptions{
		FailThreshold:  1,
		EjectThreshold: 2,
		Registry:       telemetry.NewRegistry(),
	})
	defer m.Close()
	if st, _ := m.Health(); st != obs.HealthOK {
		t.Fatalf("all-healthy rollup = %q, want ok", st)
	}
	m.ReportFailure(b.hs.URL, http.ErrServerClosed)
	if st, _ := m.Health(); st != obs.HealthDegraded {
		t.Fatalf("one-degraded rollup = %q, want degraded", st)
	}
	m.ReportFailure(a.hs.URL, http.ErrServerClosed)
	m.ReportFailure(a.hs.URL, http.ErrServerClosed)
	m.ReportFailure(b.hs.URL, http.ErrServerClosed)
	if st, reason := m.Health(); st != obs.HealthFailing || reason == "" {
		t.Fatalf("all-down rollup = %q (%q), want failing", st, reason)
	}
}

// TestMembershipProber runs the background prober against a failing peer
// and waits for the ejection to happen without manual probes.
func TestMembershipProber(t *testing.T) {
	bad := newFakePeer(t)
	bad.healthy.Store(false)
	ring := cluster.NewRing(0)
	reg := telemetry.NewRegistry()
	m := cluster.NewMembership([]string{bad.hs.URL}, ring, cluster.MembershipOptions{
		ProbeInterval:  20 * time.Millisecond,
		FailThreshold:  1,
		EjectThreshold: 2,
		Registry:       reg,
	})
	m.Start()
	defer m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.State(bad.hs.URL) != cluster.PeerEjected {
		if time.Now().After(deadline) {
			t.Fatalf("prober never ejected the failing peer (state %q)", m.State(bad.hs.URL))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ring.Len() != 0 {
		t.Fatal("ejected peer still on the ring")
	}
	// The peer stays down: later failed probes change nothing on the ring.
	m.Close()
	if got := reg.Counter("cluster.rebalances").Value(); got != 1 {
		t.Errorf("cluster_rebalances = %d, want 1", got)
	}
}

// TestMembershipEjectsIncompatibleBuild: a peer whose /version names another
// module is ejected on first contact, once, and stays out.
func TestMembershipEjectsIncompatibleBuild(t *testing.T) {
	if obs.Version().Module == "" {
		t.Fatal("this binary reports no module path, so no peer can mismatch it")
	}
	good := newFakePeer(t)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(obs.Health{Status: obs.HealthOK})
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(obs.VersionInfo{Module: "example.com/other"})
	})
	other := httptest.NewServer(mux)
	t.Cleanup(other.Close)

	ring := cluster.NewRing(0)
	reg := telemetry.NewRegistry()
	m := cluster.NewMembership([]string{good.hs.URL, other.URL}, ring, cluster.MembershipOptions{Registry: reg})
	defer m.Close()
	for range 2 {
		m.ProbeAll()
	}
	if st := m.State(other.URL); st != cluster.PeerEjected || ring.Len() != 1 {
		t.Fatalf("incompatible peer: state %q, ring %d nodes; want ejected and off the ring", st, ring.Len())
	}
	if st := m.State(good.hs.URL); st != cluster.PeerHealthy {
		t.Fatalf("compatible peer: state %q, want healthy", st)
	}
	for name, want := range map[string]int64{"cluster.probe_incompatible": 1, "cluster.rebalances": 1, "cluster.probe_failures": 0} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
