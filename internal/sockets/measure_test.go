package sockets

import (
	"testing"
	"time"

	"ngdc/internal/fabric"
	"ngdc/internal/runtime"
)

func TestBandwidthDeterministicPerSeed(t *testing.T) {
	a, err := Bandwidth(BSDP, 4096, 100, DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bandwidth(BSDP, 4096, 100, DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestBandwidthPositiveForAllSchemes(t *testing.T) {
	for _, sc := range allSchemes {
		bw, err := Bandwidth(sc, 1024, 50, DefaultOptions(), 1)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if bw <= 0 || bw > 5e9 {
			t.Fatalf("%v: implausible bandwidth %v", sc, bw)
		}
	}
}

func TestMessageRateMatchesBandwidth(t *testing.T) {
	bw, err := Bandwidth(PSDP, 64, 500, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := MessageRate(PSDP, 64, 500, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := bw / 64; rateDiff(rate, got) > 0.001 {
		t.Fatalf("rate %v != bw/size %v", rate, got)
	}
}

func rateDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return d
	}
	return d / b
}

func TestOneWayLatencyOrdering(t *testing.T) {
	tcp, err := OneWayLatency(TCP, 64, DefaultOptions(), 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bsdp, err := OneWayLatency(BSDP, 64, DefaultOptions(), 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bsdp >= tcp {
		t.Fatalf("BSDP latency %v not below TCP %v", bsdp, tcp)
	}
	if bsdp <= 0 || bsdp > time.Millisecond {
		t.Fatalf("implausible latency %v", bsdp)
	}
}

func TestFlowControlShapeHoldsOnIWARP(t *testing.T) {
	// The packetized-flow-control win must survive a different RDMA
	// interconnect calibration.
	iwarp := runtime.ServiceOptions{Params: fabric.IWARPParams()}
	bsdp, err := MeasureBandwidth(BSDP, 64, 2000, DefaultOptions(), 1, iwarp)
	if err != nil {
		t.Fatal(err)
	}
	psdp, err := MeasureBandwidth(PSDP, 64, 2000, DefaultOptions(), 1, iwarp)
	if err != nil {
		t.Fatal(err)
	}
	if psdp < 5*bsdp {
		t.Fatalf("iWARP: P-SDP %.0f vs BSDP %.0f — packetization win lost", psdp, bsdp)
	}
}
