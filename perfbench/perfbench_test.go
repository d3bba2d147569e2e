package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"efl/internal/bench"
	"efl/internal/sim"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every named metric appears with its unit and that the
// output checks pass.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[traced], func(t *testing.T) {
				res, err := measure(run, options{seed: 1, seconds: time.Second, tiny: true, scratch: t.TempDir()}, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				want := map[string]string{}
				if traced {
					for _, m := range layerMetrics {
						want[m.name] = m.unit
					}
					for _, m := range e2eMetrics {
						want["overhead."+m.name] = m.unit
					}
				} else {
					for _, m := range e2eMetrics {
						want[m.name] = m.unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s missing", n)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, want %q", n, m.Unit, unit)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", n, m.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedOutputFails checks that each workload's output check
// rejects a corrupted expected output.
func TestCorruptedOutputFails(t *testing.T) {
	spec, err := bench.ByCode("BM")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build()
	cfg := sim.DefaultConfig().WithEFL(500)

	t.Run("campaign", func(t *testing.T) {
		// Find one seed whose sample the i.i.d. gate accepts and one it
		// rejects, so both kinds of reference are checked.
		pool := sim.NewPool()
		found := map[bool]bool{}
		for seed := uint64(1); seed <= 200 && len(found) < 2; seed++ {
			times, err := pool.CollectAnalysisTimes(context.Background(), cfg, prog, 40, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := estimate(times)
			if err != nil {
				t.Fatal(err)
			}
			if found[got.rejected] {
				continue
			}
			found[got.rejected] = true
			ref, err := referenceEstimate(cfg, prog, 40, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkEstimate(got, ref); err != nil {
				t.Fatalf("seed %d (rejected=%v): intact estimate rejected: %v", seed, got.rejected, err)
			}
			bad := ref
			bad.times = append([]float64(nil), ref.times...)
			bad.times[13]++
			if checkEstimate(got, bad) == nil {
				t.Errorf("seed %d (rejected=%v): corrupted reference sample accepted", seed, got.rejected)
			}
			bad = ref
			bad.rejected = !ref.rejected
			if checkEstimate(got, bad) == nil {
				t.Errorf("seed %d (rejected=%v): verdict mismatch accepted", seed, got.rejected)
			}
		}
		if len(found) < 2 {
			t.Fatalf("no seed in 1..200 gave both verdicts: %v", found)
		}
	})

	t.Run("deploy", func(t *testing.T) {
		jobs, err := deployJobs(1, true)
		if err != nil {
			t.Fatal(err)
		}
		j := jobs[len(jobs)-1]
		m, err := sim.NewPool().Get(j.cfg, j.progs, j.seed)
		if err != nil {
			t.Fatal(err)
		}
		var r sim.Result
		var pooled []sim.Result
		for i := 0; i < 2; i++ {
			if err := m.RunInto(&r); err != nil {
				t.Fatal(err)
			}
			pooled = append(pooled, copyResult(&r))
		}
		if err := checkDeployment(j, pooled); err != nil {
			t.Fatalf("intact results rejected: %v", err)
		}
		pooled[1].PerCore[2].Cycles++
		if checkDeployment(j, pooled) == nil {
			t.Error("corrupted result accepted")
		}
	})

	t.Run("serve", func(t *testing.T) {
		cat, err := newServeCatalogue(1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range cat.keys[:1] {
			body, err := referenceBody(cat, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkReference(cat, k, body); err != nil {
				t.Fatalf("intact body rejected: %v", err)
			}
			bad := []byte(strings.Replace(string(body), `"runs":`, `"runs":1`, 1))
			if checkReference(cat, k, bad) == nil {
				t.Error("corrupted body accepted")
			}
			answers := []answer{{key: 0, status: 200, body: body}, {key: 0, status: 200, body: bad}}
			if errs := checkBodies(map[string][]byte{}, answers, cat.keys); len(errs) != 1 {
				t.Errorf("%d body mismatches reported, want 1", len(errs))
			}
		}
	})
}
