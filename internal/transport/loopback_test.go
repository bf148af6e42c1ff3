package transport

import (
	"errors"
	"os"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/core"
)

// everyOther loses every second packet, deterministically.
type everyOther struct{ n int }

func (e *everyOther) Lost() bool {
	e.n++
	return e.n%2 == 0
}

func TestLoopbackDelivers(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 8)
	tx := hub.Sender()

	want := []byte("hello broadcast")
	if err := tx.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf := make([]byte, 64)
	n, err := rx.Recv(buf)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(buf[:n]) != string(want) {
		t.Fatalf("got %q, want %q", buf[:n], want)
	}
}

func TestLoopbackFanOutAndImpairment(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	clean := hub.Receiver(nil, 64)
	lossy := hub.Receiver(&everyOther{}, 64)
	tx := hub.Sender()

	const sent = 10
	for i := 0; i < sent; i++ {
		if err := tx.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	count := func(c Conn) int {
		c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
		buf := make([]byte, 4)
		n := 0
		for {
			if _, err := c.Recv(buf); err != nil {
				return n
			}
			n++
		}
	}
	if got := count(clean); got != sent {
		t.Errorf("clean receiver got %d datagrams, want %d", got, sent)
	}
	if got := count(lossy); got != sent/2 {
		t.Errorf("lossy receiver got %d datagrams, want %d", got, sent/2)
	}
	if e := lossy.(*loopConn).Erased(); e != sent/2 {
		t.Errorf("Erased() = %d, want %d", e, sent/2)
	}
}

func TestLoopbackQueueOverflowDrops(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 2)
	tx := hub.Sender()
	for i := 0; i < 5; i++ {
		if err := tx.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if d := rx.(*loopConn).Dropped(); d != 3 {
		t.Errorf("Dropped() = %d, want 3", d)
	}
}

func TestLoopbackGilbertMatchesStationaryLoss(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	g, err := newGilbert(0.2, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rx := hub.Receiver(g, 100000)
	tx := hub.Sender()
	const sent = 20000
	for i := 0; i < sent; i++ {
		tx.Send([]byte{1}) //nolint:errcheck
	}
	erased := float64(rx.(*loopConn).Erased())
	got := erased / sent
	want := channel.GlobalLoss(0.2, 0.2) // 0.5
	if got < want-0.05 || got > want+0.05 {
		t.Errorf("observed loss %.3f, want ≈ %.3f", got, want)
	}
}

func TestLoopbackCloseUnblocksRecv(t *testing.T) {
	hub := NewLoopback()
	rx := hub.Receiver(nil, 1)
	// Whether Close lands before or during the Recv, it must end it
	// with ErrClosed.
	errc := make(chan error, 1)
	reading := make(chan struct{})
	go func() {
		close(reading)
		_, err := rx.Recv(make([]byte, 16))
		errc <- err
	}()
	<-reading
	hub.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestLoopbackReadDeadline(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 1)
	rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
	start := time.Now()
	_, err := rx.Recv(make([]byte, 16))
	if !errors.Is(err, os.ErrDeadlineExceeded) || !isTimeout(err) {
		t.Fatalf("Recv = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline took %v", elapsed)
	}
	// Clearing the deadline makes Recv wait for data again instead of
	// failing at once.
	rx.SetReadDeadline(time.Time{}) //nolint:errcheck
	tx := hub.Sender()
	go tx.Send([]byte("late")) //nolint:errcheck
	n, err := rx.Recv(make([]byte, 16))
	if err != nil || n != 4 {
		t.Fatalf("Recv after clearing deadline: n=%d err=%v", n, err)
	}
}

// newGilbert builds a seeded Gilbert channel for loopback tests.
func newGilbert(p, q float64, seed int64) (core.Channel, error) {
	if err := channel.ValidateGilbert(p, q); err != nil {
		return nil, err
	}
	return channel.NewGilbert(p, q, newTestRand(seed)), nil
}

func TestLoopbackReceiverAfterCloseIsClosed(t *testing.T) {
	hub := NewLoopback()
	hub.Close()
	rx := hub.Receiver(nil, 4)
	if _, err := rx.Recv(make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on post-Close receiver = %v, want ErrClosed", err)
	}
}
