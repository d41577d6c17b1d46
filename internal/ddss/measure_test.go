package ddss

import (
	"testing"
	"time"

	"ngdc/internal/runtime"
)

func TestMeasurePutLatencyAllModels(t *testing.T) {
	for _, m := range append(append([]Coherence{}, Models...), Temporal) {
		lat, err := MeasurePutLatency(m, 64, 1, runtime.ServiceOptions{})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if lat <= 0 || lat > time.Millisecond {
			t.Fatalf("%v: implausible put latency %v", m, lat)
		}
	}
}

func TestMeasureLatencyScalesWithSize(t *testing.T) {
	small, err := MeasurePutLatency(Null, 1, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := MeasurePutLatency(Null, 256<<10, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("put latency not size-sensitive: %v vs %v", small, big)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	a, _ := MeasurePutLatency(Strict, 1024, 3, runtime.ServiceOptions{})
	b, _ := MeasurePutLatency(Strict, 1024, 3, runtime.ServiceOptions{})
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}
