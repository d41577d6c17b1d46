package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
)

func TestDefaultParamsSanity(t *testing.T) {
	p := DefaultParams()
	if p.IBWriteLatency >= p.TCPLatency {
		t.Fatal("RDMA write must be cheaper than TCP base latency")
	}
	if p.IBBandwidth <= p.TCPBandwidth {
		t.Fatal("IB bandwidth must exceed TCP bandwidth")
	}
	if p.TCPCPUPerMsg <= 0 {
		t.Fatal("TCP must cost host CPU")
	}
}

func TestTxTimeScalesLinearly(t *testing.T) {
	p := DefaultParams()
	if p.IBTxTime(0) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	one := p.IBTxTime(1 << 20)
	two := p.IBTxTime(2 << 20)
	if two < one*2-time.Nanosecond || two > one*2+time.Nanosecond {
		t.Fatalf("tx time not linear: %v vs %v", one, two)
	}
}

func TestRegisterTimeRoundsUpPages(t *testing.T) {
	p := DefaultParams()
	if p.RegisterTime(1) != p.RegisterPerPage {
		t.Fatal("sub-page registration should cost one page")
	}
	if p.RegisterTime(4097) != 2*p.RegisterPerPage {
		t.Fatal("4097 bytes should cost two pages")
	}
}

func TestBackendTimeDominatedByLatencyForSmall(t *testing.T) {
	p := DefaultParams()
	small := p.BackendTime(64)
	if small < p.BackendLatency {
		t.Fatalf("backend fetch %v below base latency", small)
	}
	if p.BackendTime(1<<20) <= small {
		t.Fatal("backend fetch not size-sensitive")
	}
}

func TestNICSerializesTransfers(t *testing.T) {
	env := sim.NewEnv(1)
	nic := NewNIC(cluster.NewNode(env, 0, 1, 1<<20))
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		env.Go("tx", func(p *sim.Proc) {
			nic.AcquireTx(p, 10*time.Microsecond)
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if finish[0] != sim.Time(10*time.Microsecond) || finish[1] != sim.Time(20*time.Microsecond) {
		t.Fatalf("transfers not serialized: %v", finish)
	}
}

// Property: transfer times are non-negative and monotonic in size.
func TestPropertyTxTimeMonotonic(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint32) bool {
		x, y := int(a%(1<<26)), int(b%(1<<26))
		if x > y {
			x, y = y, x
		}
		return p.IBTxTime(x) <= p.IBTxTime(y) &&
			p.TCPTxTime(x) <= p.TCPTxTime(y) &&
			p.CopyTime(x) <= p.CopyTime(y) &&
			p.TCPCPUTime(x) <= p.TCPCPUTime(y) &&
			p.IBTxTime(x) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIWARPParamsSane(t *testing.T) {
	ib, iw := DefaultParams(), IWARPParams()
	if iw.IBReadLatency <= ib.IBReadLatency {
		t.Fatal("iWARP one-sided latency should exceed IB's")
	}
	if iw.IBWriteLatency >= iw.TCPLatency {
		t.Fatal("iWARP RDMA must still beat host TCP")
	}
	if iw.TCPCPUPerMsg != ib.TCPCPUPerMsg {
		t.Fatal("host TCP stack cost should not change with the RNIC")
	}
}
