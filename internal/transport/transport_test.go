package transport

import (
	"math/rand"
	"testing"
	"time"

	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// newTestRand centralises RNG construction for the package's tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testFile returns deterministic pseudo-random content.
func testFile(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	data := make([]byte, size)
	newTestRand(seed).Read(data)
	return data
}

// encodeTestObject FEC-encodes data with sensible broadcast defaults.
func encodeTestObject(t testing.TB, data []byte, id uint32, family wire.CodeFamily, ratio float64, payload int) *session.Object {
	t.Helper()
	obj, err := session.EncodeObject(data, session.SenderConfig{
		ObjectID:    id,
		Family:      family,
		Ratio:       ratio,
		PayloadSize: payload,
		Seed:        int64(id) + 1,
	})
	if err != nil {
		t.Fatalf("EncodeObject(%d): %v", id, err)
	}
	return obj
}

// waitFor blocks until ch is closed or receives, failing the test after
// a generous bound so a lost event cannot hang the suite.
func waitFor[T any](t testing.TB, ch <-chan T, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// readTap wraps a receiver conn and closes idle when its reader comes
// back for more after want datagrams: a ReceiverDaemon reads again only
// once it has handled everything it read before.
type readTap struct {
	Conn
	want, got int
	idle      chan struct{}
	closed    bool
}

func newReadTap(c Conn, want int) *readTap {
	return &readTap{Conn: c, want: want, idle: make(chan struct{})}
}

func (r *readTap) ReadBatch(bufs []wire.Datagram) (int, error) {
	if r.got >= r.want && !r.closed {
		r.closed = true
		close(r.idle)
	}
	n, err := r.Conn.ReadBatch(bufs)
	r.got += n
	return n, err
}
