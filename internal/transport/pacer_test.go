package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"fecperf/internal/wire"
)

// --- shared pacer: weighted fairness between busy shares ---

func TestSharedPacerWeightedFairness(t *testing.T) {
	const (
		rate = 50_000.0
		dur  = 300 * time.Millisecond
	)
	// Buckets 1024 deep hold ~27 ms of a share's income, so a share
	// whose goroutine is descheduled for a few milliseconds (a GC cycle,
	// a loaded runner) keeps its tokens instead of spilling them to the
	// other, as work conservation rightly does for a share that is idle.
	sp := NewSharedPacer(rate, 1024)
	heavy := sp.AddShare(3)
	light := sp.AddShare(1)
	// Spend the start-up pool before counting: it is a one-off burst,
	// not weighted admission.
	if err := heavy.Take(context.Background(), 1024); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()

	counts := make([]int, 2)
	var wg sync.WaitGroup
	for i, ps := range []*PacerShare{heavy, light} {
		wg.Add(1)
		go func(i int, ps *PacerShare) {
			defer wg.Done()
			for {
				if err := ps.Take(ctx, 16); err != nil {
					return
				}
				counts[i] += 16
			}
		}(i, ps)
	}
	wg.Wait()

	total := counts[0] + counts[1]
	ideal := rate * dur.Seconds()
	if f := float64(total); f < ideal*0.5 || f > ideal*1.6 {
		t.Errorf("aggregate admitted %d tokens over %v, want ~%.0f — global budget not enforced", total, dur, ideal)
	}
	// Weight 3 vs 1: the heavy share should see ~3x the light one's
	// tokens. Timers and scheduling blur it, so accept [2, 4.5].
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("heavy/light admission ratio = %.2f (%d vs %d), want ~3 for weights 3:1", ratio, counts[0], counts[1])
	}
}

// --- shared pacer: idle shares release their slice (work conservation) ---

func TestSharedPacerWorkConserving(t *testing.T) {
	const (
		rate = 50_000.0
		dur  = 250 * time.Millisecond
	)
	sp := NewSharedPacer(rate, 64)
	busy := sp.AddShare(1)
	for i := 0; i < 3; i++ {
		sp.AddShare(1) // registered but never taking — their slices idle
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()

	taken := 0
	for {
		if err := busy.Take(ctx, 16); err != nil {
			break
		}
		taken += 16
	}
	// The busy share's assured slice is rate/4; work conservation must
	// let it borrow the idle 3/4 and run near the full line rate.
	assured := rate / 4 * dur.Seconds()
	if float64(taken) < assured*2 {
		t.Errorf("sole busy share admitted %d tokens over %v — barely above its assured slice %.0f; idle share not redistributed", taken, dur, assured)
	}
	if u := busy.Utilization(); u < 1.5 {
		t.Errorf("Utilization() = %.2f after borrowing idle slices, want > 1.5", u)
	}
}

// --- shared pacer: over-burst debt bound and reset on resize ---

// TestSharedPacerDebtClearedOnResize pins the batch token-debt contract:
// a Take(n) with n above the share's burst runs the bucket negative by
// at most n - burst tokens (the convergence bound — the debt drains at
// the assured rate, so over-burst batches still average it), and a
// runtime share resize clears the debt instead of carrying it into the
// new regime.
func TestSharedPacerDebtClearedOnResize(t *testing.T) {
	// The debt drains at the assured rate (1000/s here), so the checks
	// below see it for tens of milliseconds, not for a fraction of one.
	const (
		rate  = 2_000.0
		burst = 32
	)
	ctx := context.Background()
	sp := NewSharedPacer(rate, burst)
	ps := sp.AddShare(1) // sole share: assured = full rate, burst = 32
	other := sp.AddShare(1)
	_ = other
	// Two equal shares, both full-burst (32) deep. The first over-burst
	// batch may ride the start-up pool (the borrow path creates no
	// debt); the second must go through the assured path — it waits for
	// a full bucket, debits the whole batch, and leaves debt ≤ 100 - 32.
	for i := 0; i < 2; i++ {
		if err := ps.Take(ctx, 100); err != nil {
			t.Fatal(err)
		}
	}
	debt := ps.Debt()
	if debt <= 0 {
		t.Fatalf("Take(100) with burst 32 left no debt — over-burst batches must run the bucket negative")
	}
	if debt > 100-32+1 {
		t.Errorf("debt after Take(100) = %.1f, above the n-burst bound %.0f", debt, 100.0-32)
	}

	// Shrinking the share's weight re-slices the pacer; debt must not
	// carry across the change (the cast would otherwise be throttled for
	// bursts sent under its old, larger entitlement).
	ps.SetWeight(0.5)
	if d := ps.Debt(); d != 0 {
		t.Errorf("Debt() = %.1f after SetWeight — resize must clear token debt", d)
	}

	// And the share is immediately admittable again within its new
	// slice's refill horizon (no stale debt throttling the next batch).
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	start := time.Now()
	if err := ps.Take(tctx, 8); err != nil {
		t.Fatalf("Take after resize: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Take(8) after debt-clearing resize blocked %v — stale debt survived", d)
	}
}

// --- shared pacer: membership changes re-slice and clear debt too ---

func TestSharedPacerMembershipClearsDebt(t *testing.T) {
	ctx := context.Background()
	sp := NewSharedPacer(2_000, 32) // debt drains slowly enough to observe
	ps := sp.AddShare(1)
	// Two over-burst takes: the first may be a debt-free borrow from the
	// full global bucket, the second runs the assured bucket negative.
	for i := 0; i < 2; i++ {
		if err := ps.Take(ctx, 200); err != nil { // 200 > burst 32 → debt
			t.Fatal(err)
		}
	}
	if ps.Debt() <= 0 {
		t.Fatal("expected debt after over-burst take")
	}
	newcomer := sp.AddShare(1) // membership change re-slices everyone
	if d := ps.Debt(); d != 0 {
		t.Errorf("Debt() = %.1f after AddShare — membership change must clear debt", d)
	}
	newcomer.Close()
	if d := ps.Debt(); d != 0 {
		t.Errorf("Debt() = %.1f after Close of a sibling — membership change must clear debt", d)
	}
}

// --- shared pacer: closed shares reject takes; nil admits everything ---

func TestSharedPacerCloseAndNil(t *testing.T) {
	ctx := context.Background()
	sp := NewSharedPacer(1000, 0)
	ps := sp.AddShare(1)
	ps.Close()
	if err := ps.Take(ctx, 1); err == nil {
		t.Error("Take on a closed share succeeded, want error")
	}
	ps.Close() // double close is a no-op

	if NewSharedPacer(0, 0) != nil {
		t.Error("NewSharedPacer(0, _) != nil — rate 0 must mean unpaced")
	}
	var nilSP *SharedPacer
	nilShare := nilSP.AddShare(5)
	if nilShare != nil {
		t.Fatal("nil pacer returned a non-nil share")
	}
	if err := nilShare.Take(ctx, 1_000_000); err != nil {
		t.Errorf("nil share Take: %v, want immediate admit", err)
	}
	if d := nilShare.Debt(); d != 0 {
		t.Errorf("nil share Debt() = %v", d)
	}
	nilShare.SetWeight(3)
	nilShare.Close()
	if w := nilShare.Weight(); w != 0 {
		t.Errorf("nil share Weight() = %v", w)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := nilShare.Take(cctx, 1); err == nil {
		t.Error("nil share ignored a cancelled context")
	}
}

// --- shared pacer: drives a real sender via SenderConfig.Pacer ---

func TestSenderExternalPacer(t *testing.T) {
	const rate = 20_000.0
	hub := NewLoopback()
	defer hub.Close()
	conn := hub.Sender()

	obj := encodeTestObject(t, testFile(t, 64<<10, 9), 101, wire.CodeRSE, 1.5, 1024)
	defer obj.Close()

	sp := NewSharedPacer(rate, 64)
	ps := sp.AddShare(1)
	s := NewSender(conn, SenderConfig{
		Pacer:     ps,
		Rate:      1e12, // ignored when Pacer is set
		BatchSize: 16,
		Rounds:    0,
	})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Run: %v, want deadline", err)
	}
	elapsed := time.Since(start).Seconds()
	st := s.Stats()
	got := float64(st.PacketsSent) / elapsed
	if got > rate*1.7 {
		t.Errorf("sender with external share ran at %.0f pkt/s, budget %.0f — SenderConfig.Pacer not honoured", got, rate)
	}
	if st.PacerWaitNS == 0 {
		t.Error("PacerWaitNS = 0 while blocked on an external pacer — timed wrapper not accounting")
	}
}
