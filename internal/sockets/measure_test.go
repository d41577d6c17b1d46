package sockets

import (
	"testing"

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

func TestFlowControlShapeHoldsOnIWARP(t *testing.T) {
	// The packetized-flow-control win must survive a different RDMA
	// interconnect calibration.
	iwarp := runtime.ServiceOptions{Params: fabric.IWARPParams()}
	bsdp, err := MeasureBandwidth(BSDP, 64, 2000, 1, iwarp)
	if err != nil {
		t.Fatal(err)
	}
	psdp, err := MeasureBandwidth(PSDP, 64, 2000, 1, iwarp)
	if err != nil {
		t.Fatal(err)
	}
	if psdp < 5*bsdp {
		t.Fatalf("iWARP: P-SDP %.0f vs BSDP %.0f — packetization win lost", psdp, bsdp)
	}
}
