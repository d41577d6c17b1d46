package verbs

// Message-buffer pooling: per-device free lists for two-sided payloads,
// keyed by power-of-two size class. Send/SendTCP copy into a pooled
// buffer instead of a fresh allocation; the receiver returns it with
// Message.Release once it has decoded the payload. Releasing
// is optional — an unreleased buffer is simply collected by the GC and
// the pool refills on the next Release — so existing callers keep working
// unchanged, but steady-state messaging loops that do release run
// allocation-free.
//
// Ownership contract: the payload bytes are valid from the moment the
// receiver obtains the message until it calls Release. After Release the
// buffer may be handed to any later sender on the same device, so the
// receiver must finish decoding (or copy out) first.

// bufClasses covers 1 B .. 64 KiB in power-of-two classes; larger
// payloads fall through to the allocator (they are bandwidth-dominated,
// not allocation-dominated).
const bufClasses = 17

// classFor returns the size-class index whose capacity (1<<idx) holds n
// bytes, or -1 when n is zero or beyond the largest class.
func classFor(n int) int {
	if n <= 0 || n > 1<<(bufClasses-1) {
		return -1
	}
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

type bufPool struct {
	free [bufClasses][][]byte
}

// getBuf returns a length-n buffer backed by the pool when a class fits,
// falling back to the allocator otherwise.
func (bp *bufPool) getBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	fl := &bp.free[c]
	if ln := len(*fl); ln > 0 {
		b := (*fl)[ln-1]
		*fl = (*fl)[:ln-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// putBuf returns a buffer to its size class. Buffers whose capacity is
// not an exact class size (allocator fallbacks, or foreign slices) are
// dropped for the GC — getBuf relies on class-sized capacity.
func (bp *bufPool) putBuf(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 || c > 1<<(bufClasses-1) {
		return
	}
	idx := 0
	for 1<<idx < c {
		idx++
	}
	bp.free[idx] = append(bp.free[idx], b[:0])
}

// GetBuf returns a length-n payload buffer from the device's pool. Pass
// it to SendBuf to transmit without a copy, or fill and hand it to any
// API that documents taking ownership. Returning it via PutBuf (or
// Message.Release on the receive side) keeps the messaging hot path
// allocation-free.
func (d *Device) GetBuf(n int) []byte { return d.pool.getBuf(n) }

// PutBuf returns a buffer previously obtained from GetBuf (or delivered
// in a pooled message) to the device's free lists. The caller must not
// touch the buffer afterwards.
func (d *Device) PutBuf(b []byte) { d.pool.putBuf(b) }

// Release returns the message's payload buffer to the pool of the device
// that delivered it. It is a no-op for messages that did not come from a
// pooled send, so receivers can call it unconditionally after decoding.
func (m *Message) Release() {
	if m.pool != nil {
		m.pool.putBuf(m.Data)
		m.pool = nil
		m.Data = nil
	}
}
