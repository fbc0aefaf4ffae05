package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopArrivals proves the open-loop discipline: with a request
// function that never returns until released, arrivals keep coming at the
// offered rate instead of stalling behind the slow responses.
func TestOpenLoopArrivals(t *testing.T) {
	release := make(chan struct{})
	var inflight atomic.Int64
	done := make(chan Report, 1)
	go func() {
		done <- Run(context.Background(), Config{Rate: 200, Duration: 250 * time.Millisecond},
			func(ctx context.Context) error {
				inflight.Add(1)
				<-release
				return nil
			})
	}()
	time.Sleep(300 * time.Millisecond)
	// A closed-loop generator would have exactly 1 in flight.
	if n := inflight.Load(); n < 10 {
		t.Fatalf("open loop stalled: only %d requests in flight", n)
	}
	close(release)
	rep := <-done
	if rep.Sent != rep.OK || rep.Sent < 10 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestOutcomeClassification(t *testing.T) {
	shedErr := errors.New("overloaded")
	failErr := errors.New("boom")
	var i atomic.Int64
	rep := Run(context.Background(), Config{
		Rate: 1000, Duration: 30 * time.Millisecond,
		Classify: func(err error) Outcome {
			if errors.Is(err, shedErr) {
				return Shed
			}
			return Failed
		},
	}, func(ctx context.Context) error {
		switch i.Add(1) % 3 {
		case 0:
			return shedErr
		case 1:
			return failErr
		}
		return nil
	})
	if rep.OK == 0 || rep.Shed == 0 || rep.Failed == 0 {
		t.Fatalf("all outcomes should appear: %+v", rep)
	}
	if rep.OK+rep.Shed+rep.Failed != rep.Sent {
		t.Fatalf("outcome counts don't sum to sent: %+v", rep)
	}
}

func TestQuantiles(t *testing.T) {
	var lats []time.Duration
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	if p := quantileMS(lats, 0.50); p != 50 {
		t.Fatalf("p50 = %v", p)
	}
	if p := quantileMS(lats, 0.99); p != 99 {
		t.Fatalf("p99 = %v", p)
	}
	if p := quantileMS(nil, 0.5); p != 0 {
		t.Fatalf("empty p50 = %v", p)
	}
}

func TestContextStopsArrivals(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep := Run(ctx, Config{Rate: 100, Duration: time.Hour}, func(context.Context) error { return nil })
	// A hang-catcher: an hour-long run that ignored its context would never
	// return, so the bound only has to outlast a slow machine.
	if time.Since(start) > 30*time.Second {
		t.Fatal("cancellation did not stop the run")
	}
	if rep.Sent == 0 {
		t.Fatalf("report = %+v", rep)
	}
}
