package serve

import (
	"fmt"

	"ngdc/internal/runtime"
)

// Client speaks the serve wire protocol over one connection on either
// runtime. It is used by one task at a time: every call is a synchronous
// round trip, or with Pipeline a window of them.
type Client struct {
	conn runtime.Conn
	req  []byte
}

// Dial connects a client to a server listening at addr on rt.
func Dial(rt runtime.Runtime, addr string) (*Client, error) {
	conn, err := rt.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn runtime.Conn) *Client { return &Client{conn: conn} }

// Close closes the connection; the server releases any locks this
// connection still held.
func (c *Client) Close() error { return c.conn.Close() }

// send encodes r and queues it on the connection.
func (c *Client) send(t runtime.Task, r Request) error {
	var err error
	if c.req, err = AppendRequest(c.req[:0], r); err != nil {
		return err
	}
	return c.conn.Send(t, c.req)
}

// recv reads the next reply.
func (c *Client) recv(t runtime.Task) (Reply, error) {
	frame, err := c.conn.Recv(t)
	if err != nil {
		return Reply{Status: StatusErr}, err
	}
	st, val, err := DecodeResponse(frame)
	return Reply{Status: st, Val: val}, err
}

// do runs one request/response round trip.
func (c *Client) do(t runtime.Task, r Request) (Reply, error) {
	if err := c.send(t, r); err != nil {
		return Reply{Status: StatusErr}, err
	}
	return c.recv(t)
}

// Reply is one decoded response: its status and, by status, the value,
// nothing, or the error message.
type Reply struct {
	Status Status
	Val    []byte
}

// Err is nil for StatusOK and the server's refusal otherwise.
func (r Reply) Err() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusErr:
		return fmt.Errorf("serve: %s", r.Val)
	}
	return fmt.Errorf("serve: unexpected status %d", r.Status)
}

// Found reads the reply to a Get: the value and whether the key exists.
func (r Reply) Found() (val []byte, ok bool, err error) {
	if r.Status == StatusNotFound {
		return nil, false, nil
	}
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	return r.Val, true, nil
}

// Acquired reads the reply to a TryLock: whether the lock was taken.
func (r Reply) Acquired() (bool, error) {
	if r.Status == StatusBusy {
		return false, nil
	}
	err := r.Err()
	return err == nil, err
}

// Pipeline sends every request before it reads the first reply, then
// appends the replies to dst in request order (the server answers a
// connection's requests in the order they arrived). On the live
// transport the requests share writes and so do the replies, which is
// what a window buys over len(reqs) round trips. The server executes
// them one after another all the same: a blocking Lock in the middle
// holds back the replies behind it, not the ones before it. On the
// simulator a request executes inside Send and its reply queues, so a
// window costs what its round trips would, and a request that blocks —
// a contended Lock — blocks this call in its send loop.
func (c *Client) Pipeline(t runtime.Task, reqs []Request, dst []Reply) ([]Reply, error) {
	for i := range reqs {
		if err := c.send(t, reqs[i]); err != nil {
			return dst, fmt.Errorf("request %d: %w", i, err)
		}
	}
	for i := range reqs {
		rep, err := c.recv(t)
		if err != nil {
			return dst, fmt.Errorf("reply %d: %w", i, err)
		}
		dst = append(dst, rep)
	}
	return dst, nil
}

// call is do for the operations whose only answers are OK and an error.
func (c *Client) call(t runtime.Task, r Request) ([]byte, error) {
	rep, err := c.do(t, r)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		return nil, err
	}
	return rep.Val, nil
}

// Echo round-trips payload and returns the server's copy. A request
// frame carries at most MaxKey+MaxValue bytes of key and payload.
func (c *Client) Echo(t runtime.Task, payload []byte) ([]byte, error) {
	return c.call(t, Request{Op: OpEcho, Val: payload})
}

// Put stores val under key.
func (c *Client) Put(t runtime.Task, key string, val []byte) error {
	_, err := c.call(t, Request{Op: OpPut, Key: key, Val: val})
	return err
}

// Get loads key; ok reports whether it exists.
func (c *Client) Get(t runtime.Task, key string) (val []byte, ok bool, err error) {
	rep, err := c.do(t, Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return rep.Found()
}

// Lock blocks until lock is held in the requested mode.
func (c *Client) Lock(t runtime.Task, lock int, excl bool) error {
	_, err := c.call(t, Request{Op: OpLock, Lock: uint32(lock), Excl: excl})
	return err
}

// TryLock attempts a non-blocking acquire, reporting success.
func (c *Client) TryLock(t runtime.Task, lock int, excl bool) (bool, error) {
	rep, err := c.do(t, Request{Op: OpTryLock, Lock: uint32(lock), Excl: excl})
	if err != nil {
		return false, err
	}
	return rep.Acquired()
}

// Unlock releases a lock held by this connection.
func (c *Client) Unlock(t runtime.Task, lock int, excl bool) error {
	_, err := c.call(t, Request{Op: OpUnlock, Lock: uint32(lock), Excl: excl})
	return err
}
