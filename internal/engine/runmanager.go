package engine

// RunManager gives the serving daemon an asynchronous face over RunAll:
// POST /v1/runs submits a batch and gets a counter-based ID back
// immediately, status polls read a point-in-time copy of the run record,
// and a completion callback hands finished batches to the owner (the
// daemon commits them into its serving state there). Shutdown drains
// in-flight runs up to a deadline, then hard-cancels the stragglers —
// either way it returns only when every run goroutine has exited, which
// is what makes the daemon's "no goroutine leaks on SIGTERM" test
// possible.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// maxActiveRuns bounds the runs a manager holds pending or running at
// once. Every run spends the whole machine through its metro pool, so
// more concurrent runs only divide the same cores further while each one
// holds its snapshot's memory.
const maxActiveRuns = 4

// MaxFinishedRuns bounds the finished (done, failed or canceled) run
// records a manager keeps for Status and List. Past it the oldest finished
// record is dropped first; pending and running records are never dropped,
// so the history holds at most MaxFinishedRuns + maxActiveRuns records.
const MaxFinishedRuns = 64

// ErrTooManyRuns rejects a submission while maxActiveRuns runs are pending
// or running; the caller may retry once one of them finishes.
var ErrTooManyRuns = errors.New("engine: submit: too many active runs")

// RunState is the lifecycle state of a managed run.
type RunState string

// Managed run lifecycle states.
const (
	RunPending  RunState = "pending"
	RunRunning  RunState = "running"
	RunDone     RunState = "done"
	RunFailed   RunState = "failed"
	RunCanceled RunState = "canceled"
)

// RunStatus is a point-in-time copy of one managed run's record (safe to
// retain and serialize; it shares nothing with the live run).
type RunStatus struct {
	ID        string    `json:"id"`
	State     RunState  `json:"state"`
	Metros    []int     `json:"metros,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Error is the failure message for RunFailed/RunCanceled.
	Error string `json:"error,omitempty"`
	// Stats is populated once the run is done.
	Stats *RunStats `json:"stats,omitempty"`
}

type managedRun struct {
	status RunStatus
	cancel context.CancelFunc
}

// RunManager schedules engine batches asynchronously. Construct with
// NewRunManager; all methods are safe for concurrent use.
type RunManager struct {
	eng *Engine
	// onDone, when non-nil, receives every successfully finished batch
	// (called off the run goroutine, before the status flips to done, so
	// a poller that sees "done" can already read the committed state).
	onDone func(id string, mr *MultiResult)

	mu       sync.Mutex
	runs     map[string]*managedRun
	order    []string // insertion order, for List
	nextID   int      // submissions accepted so far
	draining bool
	wg       sync.WaitGroup
}

// NewRunManager builds a manager over an engine. onDone (optional)
// receives each successful batch before its run is marked done.
func NewRunManager(eng *Engine, onDone func(id string, mr *MultiResult)) *RunManager {
	return &RunManager{eng: eng, onDone: onDone, runs: map[string]*managedRun{}}
}

// Submit starts a batch asynchronously and returns its run ID. It
// validates the config synchronously — a rejected config never creates a
// run record — fails once Shutdown has begun, and fails with
// ErrTooManyRuns while maxActiveRuns runs are pending or running.
func (m *RunManager) Submit(cfg Config) (string, error) {
	if _, err := m.eng.validate(cfg); err != nil {
		return "", fmt.Errorf("engine: submit: %w", err)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return "", fmt.Errorf("engine: submit: manager is shutting down")
	}
	if m.activeLocked() >= maxActiveRuns {
		m.mu.Unlock()
		return "", fmt.Errorf("%w (%d pending or running)", ErrTooManyRuns, maxActiveRuns)
	}
	m.nextID++
	id := fmt.Sprintf("run-%04d", m.nextID)
	ctx, cancel := context.WithCancel(context.Background())
	r := &managedRun{
		status: RunStatus{
			ID:        id,
			State:     RunPending,
			Metros:    append([]int(nil), cfg.Metros...),
			Submitted: time.Now(),
		},
		cancel: cancel,
	}
	m.runs[id] = r
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()

	go func() {
		defer m.wg.Done()
		defer cancel()
		m.setState(id, func(s *RunStatus) {
			s.State = RunRunning
			s.Started = time.Now()
		})
		mr, err := m.eng.RunAll(ctx, cfg)
		if err != nil {
			state := RunFailed
			if ctx.Err() != nil {
				state = RunCanceled
			}
			m.setState(id, func(s *RunStatus) {
				s.State = state
				s.Finished = time.Now()
				s.Error = err.Error()
			})
			return
		}
		if m.onDone != nil {
			m.onDone(id, mr)
		}
		m.setState(id, func(s *RunStatus) {
			s.State = RunDone
			s.Finished = time.Now()
			s.Metros = append([]int(nil), mr.Metros...)
			stats := mr.Stats
			s.Stats = &stats
		})
	}()
	return id, nil
}

func (m *RunManager) setState(id string, f func(*RunStatus)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.runs[id]; r != nil {
		f(&r.status)
		if terminal(r.status.State) {
			m.pruneLocked()
		}
	}
}

func terminal(s RunState) bool {
	return s == RunDone || s == RunFailed || s == RunCanceled
}

// pruneLocked drops the oldest finished records until at most
// MaxFinishedRuns remain.
func (m *RunManager) pruneLocked() {
	drop := len(m.runs) - m.activeLocked() - MaxFinishedRuns
	if drop <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if drop > 0 && terminal(m.runs[id].status.State) {
			delete(m.runs, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Status returns a copy of a run's record; false for an unknown ID or one
// whose finished record has been dropped.
func (m *RunManager) Status(id string) (RunStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return RunStatus{}, false
	}
	return copyStatus(r.status), true
}

// List returns the kept run records (every pending or running run and the
// latest MaxFinishedRuns finished ones) in submission order.
func (m *RunManager) List() []RunStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RunStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, copyStatus(m.runs[id].status))
	}
	return out
}

// Submitted returns the number of submissions accepted so far, including
// those whose records have since been dropped.
func (m *RunManager) Submitted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextID
}

// Active returns the number of runs not yet in a terminal state.
func (m *RunManager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activeLocked()
}

func (m *RunManager) activeLocked() int {
	n := 0
	for _, r := range m.runs {
		if !terminal(r.status.State) {
			n++
		}
	}
	return n
}

// Shutdown stops accepting submissions, waits for in-flight runs to
// drain until ctx is done, then hard-cancels whatever is left and waits
// for every run goroutine to exit. The error reports whether the drain
// deadline was overrun (the daemon logs it; the state is consistent
// either way).
func (m *RunManager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		m.mu.Lock()
		var killed []string
		for id, r := range m.runs {
			if !terminal(r.status.State) {
				killed = append(killed, id)
				r.cancel()
			}
		}
		m.mu.Unlock()
		sort.Strings(killed)
		if len(killed) > 0 {
			err = fmt.Errorf("engine: shutdown deadline overran; canceled %v", killed)
		}
		<-done
	}
	return err
}

func copyStatus(s RunStatus) RunStatus {
	out := s
	out.Metros = append([]int(nil), s.Metros...)
	if s.Stats != nil {
		st := *s.Stats
		out.Stats = &st
	}
	return out
}
