package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// TestBatcherCloseSubmitRace races concurrent score/exec submissions against
// close: every call must return — either nil (the work drained before the
// close took effect) or errClosed — and never hang or panic. A deadline
// goroutine converts a wedged batcher into a failure instead of a test
// timeout.
func TestBatcherCloseSubmitRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		model := nn.NewModel(serveTestConfig(), tensor.NewRNG(7))
		b := newBatcher(model, 4, 0, &handles{})

		const workers = 8
		var wg sync.WaitGroup
		errsCh := make(chan error, workers*2)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w%2 == 0 {
					errsCh <- b.score([]*scoreReq{newScoreReq([]int{1, 2}, []int{3})})
				} else {
					errsCh <- b.exec(func(m *nn.Model) {})
				}
			}(w)
		}
		// Close from yet another goroutine, mid-flight.
		go b.close()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: submissions hung against close", round)
		}
		close(errsCh)
		for err := range errsCh {
			if err != nil && !errors.Is(err, errClosed) {
				t.Fatalf("round %d: unexpected error %v (want nil or errClosed)", round, err)
			}
		}
	}
}

// TestBatcherSubmitAfterClose: submissions to an already-closed batcher fail
// fast with errClosed, including the queue-bounded configuration.
func TestBatcherSubmitAfterClose(t *testing.T) {
	model := nn.NewModel(serveTestConfig(), tensor.NewRNG(7))
	b := newBatcher(model, 4, 1, &handles{})
	b.close()
	if err := b.exec(func(m *nn.Model) {}); !errors.Is(err, errClosed) {
		t.Fatalf("exec after close: %v, want errClosed", err)
	}
	if err := b.score([]*scoreReq{newScoreReq([]int{1}, []int{2})}); !errors.Is(err, errClosed) {
		t.Fatalf("score after close: %v, want errClosed", err)
	}
}

// TestWithEntrySupersedeRetryTerminates pins the retry contract: WithEntry
// retries errClosed exactly once, so a query that keeps landing on
// superseded entries terminates with errClosed instead of looping.
func TestWithEntrySupersedeRetryTerminates(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})

	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- reg.WithEntry(path, func(e *Entry) error {
			attempts++
			return errClosed
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errClosed) {
			t.Fatalf("WithEntry returned %v, want errClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("WithEntry retried forever on errClosed")
	}
	if attempts != 2 {
		t.Fatalf("WithEntry ran f %d times, want exactly 2 (one retry)", attempts)
	}
}
