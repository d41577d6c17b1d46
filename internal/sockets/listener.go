package sockets

import (
	"fmt"
	"sync"

	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Listener/DialTo provide the pseudo-sockets connection-establishment
// interface the paper emphasizes: applications written against
// listen/accept/connect adopt the SDP family transparently, with the
// scheme chosen at Listen time (like preloading an SDP library).

// Listener accepts incoming connections on a (node, port) address.
type Listener struct {
	dev    *verbs.Device
	port   int
	scheme Scheme
	opt    Options
	queue  *sim.Chan[*Conn]
	closed bool
}

// Listen starts accepting connections of the given scheme on a port of
// the device's node. The port must be unused on that node.
func Listen(dev *verbs.Device, port int, scheme Scheme, opt Options) (*Listener, error) {
	l := &Listener{
		dev:    dev,
		port:   port,
		scheme: scheme,
		opt:    opt,
		queue:  sim.NewChan[*Conn](dev.Env(), fmt.Sprintf("%s/listen:%d", dev.Node.Name, port), 64),
	}
	svc := listenService(port)
	if !registerListener(dev, svc, l) {
		return nil, fmt.Errorf("sockets: node %d port %d already in use", dev.Node.ID, port)
	}
	return l, nil
}

func listenService(port int) string { return fmt.Sprintf("listen:%d", port) }

// Listeners are tracked per device in a package-side registry (Device is
// owned by the verbs package). Devices are unique per environment, so
// environments never collide; the mutex covers callers driving separate
// environments from separate goroutines (e.g. parallel tests).
var (
	listenerMu       sync.Mutex
	listenerRegistry = map[*verbs.Device]map[string]*Listener{}
)

func registerListener(dev *verbs.Device, svc string, l *Listener) bool {
	listenerMu.Lock()
	defer listenerMu.Unlock()
	m, ok := listenerRegistry[dev]
	if !ok {
		m = map[string]*Listener{}
		listenerRegistry[dev] = m
	}
	if _, exists := m[svc]; exists {
		return false
	}
	m[svc] = l
	return true
}

func lookupListener(dev *verbs.Device, svc string) (*Listener, bool) {
	listenerMu.Lock()
	defer listenerMu.Unlock()
	l, ok := listenerRegistry[dev][svc]
	return l, ok
}

func unregisterListener(dev *verbs.Device, svc string) {
	listenerMu.Lock()
	defer listenerMu.Unlock()
	if m, ok := listenerRegistry[dev]; ok {
		delete(m, svc)
		if len(m) == 0 {
			delete(listenerRegistry, dev)
		}
	}
}

// DialTo establishes a connection from dev to a listener at (peer, port),
// paying one connection-setup round trip. It returns the dialer's
// endpoint; the acceptor receives its endpoint through Accept.
func DialTo(p *sim.Proc, dev *verbs.Device, peer *verbs.Device, port int) (*Conn, error) {
	l, ok := lookupListener(peer, listenService(port))
	if !ok || l.closed {
		return nil, fmt.Errorf("sockets: connection refused: node %d port %d", peer.Node.ID, port)
	}
	// Connection setup handshake: one round trip of small control
	// messages on the host path.
	pp := dev.Params()
	p.Sleep(2 * pp.TCPLatency)
	local, remote := Dial(l.scheme, dev, peer, l.opt)
	l.queue.PostSend(remote)
	return local, nil
}

// Accept blocks until the next incoming connection.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	c, ok := l.queue.Recv(p)
	if !ok {
		return nil, fmt.Errorf("sockets: listener closed")
	}
	return c, nil
}

// Close stops the listener; queued but unaccepted connections are
// discarded and future dials are refused.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	unregisterListener(l.dev, listenService(l.port))
	l.queue.Close()
}

// Addr returns the listener's (node, port).
func (l *Listener) Addr() (node, port int) { return l.dev.Node.ID, l.port }
