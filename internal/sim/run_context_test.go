package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/workload"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Config:   config.Default(1024),
		Policy:   PolicyChameleonOpt,
		Workload: prof.Scale(1024),
		Seed:     7,
	}
}

func TestRunOnlyOnce(t *testing.T) {
	sys, err := New(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	// A zero budget is rejected before the run starts and must not
	// consume the single allowed run.
	if _, err := sys.Run(0); err == nil {
		t.Fatal("zero budget should fail")
	}
	if _, err := sys.Run(10_000); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := sys.Run(10_000); err == nil {
		t.Fatal("second Run on the same System should fail")
	}
}

// cancelThreads are the engines the cancellation tests cover: the
// sequential engine, and the parallel engine at two worker counts, so a
// cancel that lands while workers run, sleep or commit is exercised.
var cancelThreads = []int{1, 2, 8}

// newCancelSystem builds testOptions at the given thread count (after
// mutate) and checks the intended engine was selected.
func newCancelSystem(t *testing.T, threads int, mutate func(*Options)) *System {
	t.Helper()
	o := testOptions(t)
	o.Threads = threads
	if mutate != nil {
		mutate(&o)
	}
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.ParallelEnabled() != (threads > 1) {
		t.Fatalf("threads=%d: ParallelEnabled=%v", threads, sys.ParallelEnabled())
	}
	return sys
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	for _, threads := range cancelThreads {
		t.Run(fmt.Sprintf("threads%d", threads), func(t *testing.T) {
			sys := newCancelSystem(t, threads, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sys.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	for _, threads := range cancelThreads {
		t.Run(fmt.Sprintf("threads%d", threads), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel from a progress callback a few epochs in, so the
			// cancel provably lands while the simulation loop is
			// executing.
			sys := newCancelSystem(t, threads, func(o *Options) {
				o.TimelineEpochCycles = 50_000
				o.Progress = func(TimelinePoint) { cancel() }
			})
			if _, err := sys.RunContext(ctx, 1<<40); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}

// TestParallelJoinsWorkers pins the parallel engine's goroutine budget:
// a Threads=N run starts exactly N-1 goroutines (the calling goroutine
// is the Nth worker) and joins every one of them before Run returns,
// whether the run completes or is canceled mid-run.
func TestParallelJoinsWorkers(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		for _, canceled := range []bool{false, true} {
			t.Run(fmt.Sprintf("threads%d/canceled=%v", threads, canceled), func(t *testing.T) {
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Progress fires under the engine's commit token, so the
				// calls are ordered and peak needs no further locking.
				peak := 0
				sys := newCancelSystem(t, threads, func(o *Options) {
					o.TimelineEpochCycles = 20_000
					o.Progress = func(TimelinePoint) {
						peak = max(peak, runtime.NumGoroutine()-before)
						if canceled {
							cancel()
						}
					}
				})
				_, err := sys.RunContext(ctx, 100_000)
				if canceled != errors.Is(err, context.Canceled) || (!canceled && err != nil) {
					t.Fatalf("canceled=%v: run returned %v", canceled, err)
				}
				// A goroutine left behind by an earlier test may exit
				// mid-run, so the peak is an upper bound on the workers.
				if peak < 1 || peak > threads-1 {
					t.Errorf("%d goroutines beside the caller during the run, want 1..%d", peak, threads-1)
				}
				// A joined goroutine may still be unwinding when Run
				// returns; it must be gone promptly.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("%d goroutines after Run, %d before New", n, before)
				}
			})
		}
	}
}

func TestProgressCallback(t *testing.T) {
	o := testOptions(t)
	o.TimelineEpochCycles = 20_000
	var points int
	o.Progress = func(TimelinePoint) { points++ }
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if points == 0 {
		t.Fatal("progress callback never fired")
	}
	if points != len(res.Timeline) {
		t.Fatalf("progress fired %d times, timeline has %d points", points, len(res.Timeline))
	}
}
