package engine

// RunManager tests: the async lifecycle (pending → running → done with
// the completion callback fired before "done" is observable), cancel
// during a run without leaking goroutines, drain-with-deadline shutdown
// semantics, and submission rejection after shutdown begins or while the
// active-run cap is reached.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"metascritic"
)

// waitState polls until the run reaches a terminal state.
func waitState(t *testing.T, m *RunManager, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Status(id)
		if !ok {
			t.Fatalf("run %s disappeared", id)
		}
		switch st.State {
		case RunDone, RunFailed, RunCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return RunStatus{}
}

func TestRunManagerLifecycle(t *testing.T) {
	p := testPipeline(t, 3, 0.1)
	metros := twoMetros(t, p)

	committed := make(chan *MultiResult, 1)
	m := NewRunManager(New(p), func(id string, mr *MultiResult) { committed <- mr })
	id, err := m.Submit(Config{Base: testConfig(3), Metros: metros, Workers: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if id != "run-0001" {
		t.Fatalf("first run ID %q, want run-0001", id)
	}
	st := waitState(t, m, id)
	if st.State != RunDone {
		t.Fatalf("run finished as %s (%s), want done", st.State, st.Error)
	}
	if st.Stats == nil || st.Stats.Measurements == 0 {
		t.Fatalf("done status carries no stats: %+v", st)
	}
	if st.Started.Before(st.Submitted) || st.Finished.Before(st.Started) {
		t.Fatalf("timestamps out of order: %+v", st)
	}
	// onDone ran before the state flipped to done.
	select {
	case mr := <-committed:
		if len(mr.Results) != len(metros) {
			t.Fatalf("committed %d results, want %d", len(mr.Results), len(metros))
		}
	default:
		t.Fatalf("state is done but the completion callback has not fired")
	}

	// A second submission gets the next counter ID and List sees both.
	id2, err := m.Submit(Config{Base: testConfig(3), Metros: metros[:1]})
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if id2 != "run-0002" {
		t.Fatalf("second run ID %q, want run-0002", id2)
	}
	waitState(t, m, id2)
	if l := m.List(); len(l) != 2 || l[0].ID != id || l[1].ID != id2 {
		t.Fatalf("List = %+v, want [%s %s] in order", l, id, id2)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRunManagerRejectsInvalidAndDraining(t *testing.T) {
	p := testPipeline(t, 4, 0.1)
	m := NewRunManager(New(p), nil)

	bad := testConfig(4)
	bad.BatchSize = 0
	if _, err := m.Submit(Config{Base: bad}); !errors.Is(err, metascritic.ErrInvalidConfig) {
		t.Fatalf("invalid config: got %v, want ErrInvalidConfig", err)
	}
	if len(m.List()) != 0 {
		t.Fatalf("rejected submission left a run record")
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := m.Submit(Config{Base: testConfig(4)}); err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("submit after shutdown: got %v, want shutting-down error", err)
	}
}

// TestRunManagerCapsActiveRuns holds maxActiveRuns runs active by
// blocking their completion callback, and checks the next submission is
// refused with ErrTooManyRuns and leaves no run record, until one of them
// finishes.
func TestRunManagerCapsActiveRuns(t *testing.T) {
	p := testPipeline(t, 5, 0.1)
	metros := twoMetros(t, p)
	release := make(chan struct{})
	m := NewRunManager(New(p), func(string, *MultiResult) { <-release })
	cfg := testConfig(5)
	cfg.MaxMeasurements = 100
	var ids []string
	for i := 0; i < maxActiveRuns; i++ {
		id, err := m.Submit(Config{Base: cfg, Metros: metros[:1], Workers: 1})
		if err != nil {
			t.Fatalf("submit %d of %d: %v", i+1, maxActiveRuns, err)
		}
		ids = append(ids, id)
	}
	if _, err := m.Submit(Config{Base: cfg, Metros: metros[:1], Workers: 1}); !errors.Is(err, ErrTooManyRuns) {
		t.Fatalf("submit past the cap: got %v, want ErrTooManyRuns", err)
	}
	if n := len(m.List()); n != maxActiveRuns {
		t.Fatalf("refused submission left a run record: %d runs listed", n)
	}
	close(release)
	for _, id := range ids {
		if st := waitState(t, m, id); st.State != RunDone {
			t.Fatalf("run %s finished as %s (%s), want done", id, st.State, st.Error)
		}
	}
	id, err := m.Submit(Config{Base: cfg, Metros: metros[:1], Workers: 1})
	if err != nil {
		t.Fatalf("submit after the active runs finished: %v", err)
	}
	waitState(t, m, id)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRunManagerShutdownDeadlineCancelsStragglers(t *testing.T) {
	p := testPipeline(t, 6, 0.1)
	metros := twoMetros(t, p)

	m := NewRunManager(New(p), nil)
	cfg := testConfig(6)
	cfg.MaxMeasurements = 100000
	id, err := m.Submit(Config{Base: cfg, Metros: metros, Workers: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		st, _ := m.Status(id)
		if st.State == RunRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = m.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), id) {
		t.Fatalf("shutdown error %v does not report the canceled run %s", err, id)
	}
	st, _ := m.Status(id)
	if st.State != RunCanceled {
		t.Fatalf("straggler state = %s, want canceled", st.State)
	}
}
