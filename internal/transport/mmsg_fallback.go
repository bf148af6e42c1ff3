//go:build !(linux && (amd64 || arm64))

package transport

import "fecperf/internal/wire"

// Portable batch datapath: platforms without sendmmsg/recvmmsg (or
// where the mmsghdr ABI here isn't vetted) satisfy the Conn batch
// contract with per-datagram loops, so callers program against one API
// and the build tags decide how many syscalls it costs.

// udpBatch has no portable state.
type udpBatch struct{}

func (u *udpConn) initBatch() error { return nil }

// GSOEnabled reports false: UDP generic segmentation offload is a
// Linux-only socket feature.
func (u *udpConn) GSOEnabled() bool { return false }

// WriteBatch sends the batch one datagram at a time.
func (u *udpConn) WriteBatch(batch []wire.Datagram) (int, error) {
	for i, d := range batch {
		if err := u.Send(d); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// ReadBatch fills one buffer per call.
func (u *udpConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := u.Recv(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	return 1, nil
}
