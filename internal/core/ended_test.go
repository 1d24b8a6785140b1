package core

import (
	"fmt"
	"testing"

	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// TestEndedSessionsBounded serves more than MaxEndedSessions distinct
// lifecycles and requires the ended set to stay at the cap, oldest
// evicted first: a reconnect inside the window still counts, one past it
// does not, and an instance that ends twice occupies a single slot.
func TestEndedSessionsBounded(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	m, err := NewManager(Config{
		Platform:           churnTestPlatform(t),
		DisableExploration: true,
		Coalesce:           true, // the test is about bookkeeping, not solves
		Metrics:            mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	lifecycle := func(id string) {
		t.Helper()
		if err := m.Register(id, "app", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
		if err := m.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 10
	for i := 0; i < MaxEndedSessions+extra; i++ {
		lifecycle(fmt.Sprintf("s%05d", i))
	}
	if got := len(m.ended.elems); got != MaxEndedSessions {
		t.Fatalf("ended set holds %d instances after %d lifecycles, want %d",
			got, MaxEndedSessions+extra, MaxEndedSessions)
	}
	if got := m.ended.order.Len(); got != MaxEndedSessions {
		t.Fatalf("ended order holds %d entries, want %d", got, MaxEndedSessions)
	}
	if m.ended.has("s00000") || !m.ended.has(fmt.Sprintf("s%05d", extra)) {
		t.Fatal("eviction is not oldest-first")
	}
	if mt.Reconnects.Value() != 0 {
		t.Fatalf("reconnects = %d before any instance came back", mt.Reconnects.Value())
	}

	// An instance inside the window ends twice: its reconnect counts, and
	// its second end refreshes its slot instead of taking another.
	recent := fmt.Sprintf("s%05d", MaxEndedSessions)
	lifecycle(recent)
	if got := mt.Reconnects.Value(); got != 1 {
		t.Fatalf("reconnects = %d after a reconnect inside the window, want 1", got)
	}
	if got := len(m.ended.elems); got != MaxEndedSessions {
		t.Fatalf("ended set holds %d instances after a repeated end, want %d", got, MaxEndedSessions)
	}
	if back := m.ended.order.Back().Value.(string); back != recent {
		t.Fatalf("newest ended instance = %q, want %q", back, recent)
	}

	// An evicted instance comes back as a new session.
	lifecycle("s00000")
	if got := mt.Reconnects.Value(); got != 1 {
		t.Fatalf("reconnects = %d after an evicted instance returned, want 1", got)
	}
	if got := len(m.ended.elems); got != MaxEndedSessions {
		t.Fatalf("ended set holds %d instances, want %d", got, MaxEndedSessions)
	}
}
