package asm

import (
	"os"
	"path/filepath"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
)

// The shipped .kasm examples must parse, validate, round-trip, and run.
func TestShippedKernels(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "kernels")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected at least 3 shipped kernels, found %d", len(entries))
	}
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		k, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if _, err := Parse(Format(k)); err != nil {
			t.Errorf("%s: round trip: %v", e.Name(), err)
		}
		k.GridCTAs = max(1, k.GridCTAs/8) // shrink for the test
		pre, err := core.Prepare(k)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		d, err := sim.New(sim.DeviceSpec{Config: cfg, Timing: sim.DefaultTiming(), Kernel: pre})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if _, err := d.Run(); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

// registerpeak.kasm is the compiler demo: the pass must find a split.
func TestRegisterPeakTransforms(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "kernels", "registerpeak.kasm"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Transform(k, core.Options{Config: occupancy.GTX480()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disabled() {
		t.Fatalf("demo kernel must get an extended set: %s", res.Split.Reason)
	}
	if res.Split.Bs != 18 || res.Split.Es != 6 {
		t.Errorf("split = %d+%d, expected the worked-example 18+6", res.Split.Bs, res.Split.Es)
	}
}
