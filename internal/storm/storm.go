// Package storm models the STORM query-processing middleware used in the
// paper's Fig 3b: a record store partitioned across data nodes, answering
// selection queries from a client node. The computation (predicate scan)
// is identical in both configurations; only the data-exchange substrate
// differs:
//
//   - OverTCP ("STORM"): the traditional build — query shipped and result
//     records returned over host TCP sockets, paying protocol CPU on both
//     hosts for every transfer.
//   - OverDDSS ("STORM-DDSS"): the paper's build — each data node puts its
//     result set into a DDSS segment placed on the client's node (so the
//     transfer is a one-sided RDMA write) and sends only a tiny completion
//     message; the client assembles results with local memory copies.
//
// The ~19% end-to-end improvement of Fig 3b is exactly the removed TCP
// copy/CPU overhead on the result path.
package storm

import (
	"encoding/binary"
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/ddss"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
	"ngdc/internal/verbs"
)

// Transport selects the data-exchange substrate.
type Transport int

// The two configurations of Fig 3b.
const (
	OverTCP Transport = iota
	OverDDSS
)

func (t Transport) String() string {
	if t == OverTCP {
		return "STORM"
	}
	return "STORM-DDSS"
}

// RecordSize is the fixed record width (bytes); the first 8 bytes hold the
// record ID.
const RecordSize = 128

// ScanCPUPerRecord is the predicate-evaluation cost per record, identical
// across transports.
const ScanCPUPerRecord = 400 * time.Nanosecond

// Selector is a selection predicate: a record matches when id % Modulo ==
// Remainder.
type Selector struct {
	Modulo    int
	Remainder int
}

// Matches reports whether a record ID satisfies the predicate.
func (s Selector) Matches(id uint64) bool {
	if s.Modulo <= 1 {
		return true
	}
	return id%uint64(s.Modulo) == uint64(s.Remainder)
}

// Cluster is one STORM deployment: a client node plus data nodes holding
// record partitions.
type Cluster struct {
	transport Transport
	env       *sim.Env
	nw        *verbs.Network
	client    *cluster.Node
	dataNodes []*cluster.Node

	partitions map[int][]byte // node ID -> packed records
	totalRecs  int

	// OverTCP: one connection per data node (client side).
	conns map[int]*sockets.Conn
	// OverDDSS: substrate + per-node result segments homed on the client,
	// the data nodes' query queues (bound at Load, in dataNodes order)
	// and the client's completion queue.
	ss      *ddss.Substrate
	results map[int]*ddss.Handle
	queryQ  []*verbs.RecvQueue
	doneQ   *verbs.RecvQueue
}

// Options configures a STORM deployment.
type Options struct {
	// Transport selects how query results travel (OverTCP or OverDDSS).
	Transport Transport
	// Client is the query-issuing node; it must be distinct from the
	// data nodes.
	Client *cluster.Node
}

// New builds a STORM deployment over an existing verbs network, in the
// framework's canonical (nw, nodes, opts) constructor form; nodes are
// the data nodes holding record partitions.
func New(nw *verbs.Network, dataNodes []*cluster.Node, opts Options) *Cluster {
	if opts.Client == nil {
		panic("storm: Options.Client is required")
	}
	t, client := opts.Transport, opts.Client
	c := &Cluster{
		transport:  t,
		env:        client.Env(),
		nw:         nw,
		client:     client,
		dataNodes:  dataNodes,
		partitions: map[int][]byte{},
		conns:      map[int]*sockets.Conn{},
		results:    map[int]*ddss.Handle{},
	}
	cdev := nw.Attach(client)
	for _, dn := range dataNodes {
		nw.Attach(dn)
	}
	if t == OverDDSS {
		c.doneQ = cdev.Bind("storm-done")
		nodes := append([]*cluster.Node{client}, dataNodes...)
		c.ss = ddss.New(nw, nodes, ddss.Options{})
	}
	return c
}

// Load distributes total records round-robin across the data nodes and
// starts the per-node query agents. Must be called once, from a process,
// before Query.
func (c *Cluster) Load(p *sim.Proc, total int) error {
	if c.totalRecs != 0 {
		return fmt.Errorf("storm: already loaded")
	}
	c.totalRecs = total
	per := (total + len(c.dataNodes) - 1) / len(c.dataNodes)
	id := uint64(0)
	for _, dn := range c.dataNodes {
		n := per
		if rem := total - int(id); n > rem {
			n = rem
		}
		part := make([]byte, n*RecordSize)
		for r := 0; r < n; r++ {
			binary.LittleEndian.PutUint64(part[r*RecordSize:], id)
			// Fill the payload with a derivable pattern for integrity
			// checks.
			for b := 8; b < RecordSize; b++ {
				part[r*RecordSize+b] = byte(id) + byte(b)
			}
			id++
		}
		c.partitions[dn.ID] = part
		if !dn.Alloc(int64(len(part))) {
			return fmt.Errorf("storm: node %d out of memory for partition", dn.ID)
		}
	}
	// Result buffers sized for a full-partition match.
	maxPart := per * RecordSize
	if maxPart == 0 {
		maxPart = RecordSize
	}
	for _, dn := range c.dataNodes {
		dn := dn
		switch c.transport {
		case OverTCP:
			cc, sc := sockets.Dial(sockets.TCP, c.nw.Device(c.client.ID), c.nw.Device(dn.ID))
			c.conns[dn.ID] = cc
			c.env.GoDaemon(fmt.Sprintf("storm/%s", dn.Name), func(pp *sim.Proc) { c.serveTCP(pp, dn, sc) })
		case OverDDSS:
			cl := c.ss.Client(dn.ID)
			h, err := cl.Allocate(p, fmt.Sprintf("storm-res-%d", dn.ID), 8+maxPart, ddss.Null, c.client.ID)
			if err != nil {
				return err
			}
			c.results[dn.ID] = h
			q := c.nw.Device(dn.ID).Bind("storm-query")
			c.queryQ = append(c.queryQ, q)
			c.env.GoDaemon(fmt.Sprintf("storm/%s", dn.Name), func(pp *sim.Proc) { c.serveDDSS(pp, dn, q, h) })
		}
	}
	return nil
}

// scan evaluates the predicate over a node's partition, charging CPU, and
// returns the matching records packed together.
func (c *Cluster) scan(p *sim.Proc, dn *cluster.Node, sel Selector) []byte {
	part := c.partitions[dn.ID]
	n := len(part) / RecordSize
	dn.ExecSliced(p, time.Duration(n)*ScanCPUPerRecord, time.Millisecond)
	var out []byte
	for r := 0; r < n; r++ {
		rec := part[r*RecordSize : (r+1)*RecordSize]
		if sel.Matches(binary.LittleEndian.Uint64(rec)) {
			out = append(out, rec...)
		}
	}
	return out
}

func encodeSelector(sel Selector) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(sel.Modulo))
	binary.LittleEndian.PutUint64(b[8:], uint64(sel.Remainder))
	return b
}

func decodeSelector(b []byte) Selector {
	return Selector{
		Modulo:    int(binary.LittleEndian.Uint64(b)),
		Remainder: int(binary.LittleEndian.Uint64(b[8:])),
	}
}

// serveTCP is the data-node agent in the traditional configuration.
func (c *Cluster) serveTCP(p *sim.Proc, dn *cluster.Node, conn *sockets.Conn) {
	for {
		req, err := conn.Recv(p)
		if err != nil {
			return
		}
		out := c.scan(p, dn, decodeSelector(req))
		if err := conn.Send(p, out); err != nil {
			return
		}
	}
}

// serveDDSS is the data-node agent in the paper's configuration: results
// are pushed into the client-resident segment with a one-sided put and
// announced with a small message.
func (c *Cluster) serveDDSS(p *sim.Proc, dn *cluster.Node, queries *verbs.RecvQueue, h *ddss.Handle) {
	dev := c.nw.Device(dn.ID)
	for {
		msg := queries.Recv(p)
		sel := decodeSelector(msg.Data)
		msg.Release()
		out := c.scan(p, dn, sel)
		buf := make([]byte, 8+len(out))
		binary.LittleEndian.PutUint64(buf, uint64(len(out)))
		copy(buf[8:], out)
		if _, err := h.Put(p, buf); err != nil {
			panic(err)
		}
		done := dev.GetBuf(1)
		done[0] = 1
		if err := dev.SendBuf(p, c.doneQ, done); err != nil {
			panic(err)
		}
	}
}

// Result is the outcome of one query.
type Result struct {
	Records int
	Bytes   int
	Elapsed time.Duration
	// Checksum is a byte sum over the result payload, for integrity
	// verification in tests.
	Checksum uint64
}

// Query runs one selection query from the client, fanning out to every
// data node and gathering all matching records.
func (c *Cluster) Query(p *sim.Proc, sel Selector) (Result, error) {
	if c.totalRecs == 0 {
		return Result{}, fmt.Errorf("storm: not loaded")
	}
	start := p.Now()
	var res Result
	req := encodeSelector(sel)
	switch c.transport {
	case OverTCP:
		for _, dn := range c.dataNodes {
			if err := c.conns[dn.ID].Send(p, req); err != nil {
				return res, err
			}
		}
		for _, dn := range c.dataNodes {
			out, err := c.conns[dn.ID].Recv(p)
			if err != nil {
				return res, err
			}
			res.Records += len(out) / RecordSize
			res.Bytes += len(out)
			res.Checksum += byteSum(out)
		}
	case OverDDSS:
		dev := c.nw.Device(c.client.ID)
		for _, q := range c.queryQ {
			if err := dev.Send(p, q, req); err != nil {
				return res, err
			}
		}
		cl := c.ss.Client(c.client.ID)
		for range c.dataNodes {
			msg := c.doneQ.Recv(p)
			msg.Release()
			h, err := cl.Open(fmt.Sprintf("storm-res-%d", msg.From))
			if err != nil {
				return res, err
			}
			hdr := make([]byte, 8)
			if _, err := h.Get(p, hdr); err != nil {
				return res, err
			}
			n := int(binary.LittleEndian.Uint64(hdr))
			buf := make([]byte, 8+n)
			if _, err := h.Get(p, buf); err != nil {
				return res, err
			}
			out := buf[8:]
			res.Records += n / RecordSize
			res.Bytes += n
			res.Checksum += byteSum(out)
		}
	}
	res.Elapsed = time.Duration(p.Now() - start)
	return res, nil
}

func byteSum(b []byte) uint64 {
	var s uint64
	for _, v := range b {
		s += uint64(v)
	}
	return s
}
