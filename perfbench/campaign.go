package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"efl"
	"efl/internal/bench"
	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/sim"
)

// The campaign workload: fixed-count MBPTA estimates, the Figure 3
// protocol (Pool.CollectAnalysisTimes + mbpta.Analyze), for a short, a
// median and a long kernel crossed with two EFL MIDs and one CP
// partition, fanned out over runner.MapWithState like
// internal/experiments.

// campaignKernels maps each kernel length class to its kernel.
var campaignKernels = []struct{ class, code string }{
	{"long", "II"}, {"median", "CA"}, {"short", "BM"},
}

// campaignConfig is one analysis platform of the job list.
type campaignConfig struct {
	name string
	cfg  sim.Config
}

func campaignConfigs() []campaignConfig {
	cp := sim.DefaultConfig()
	parts := make([]int, cp.Cores)
	parts[0] = 2
	return []campaignConfig{
		{"EFL250", sim.DefaultConfig().WithEFL(250)},
		{"EFL1000", sim.DefaultConfig().WithEFL(1000)},
		{"CP2", cp.WithPartition(parts)},
	}
}

// campaignRuns is the Figure 3 sample size.
const campaignRuns = 300

// campaignJob is one estimate of the list.
type campaignJob struct {
	class, code string
	config      campaignConfig
	seed        uint64
}

func (j campaignJob) key() string { return j.code + "/" + j.config.name }

// campaignJobs builds the seeded job list: longest kernels first (so the
// two workers finish a pass together), in seeded order within a class,
// each estimate seeded from the workload seed and its identity.
func campaignJobs(seed uint64, tiny bool) []campaignJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	var jobs []campaignJob
	for _, k := range campaignKernels {
		cfgs := campaignConfigs()
		if tiny {
			cfgs = cfgs[:1]
		}
		var class []campaignJob
		for _, c := range cfgs {
			j := campaignJob{class: k.class, code: k.code, config: c}
			j.seed = runner.Seed(seed, "campaign/"+j.key())
			class = append(class, j)
		}
		rng.Shuffle(len(class), func(a, b int) { class[a], class[b] = class[b], class[a] })
		jobs = append(jobs, class...)
	}
	return jobs
}

// estimateOut is one estimate's outcome.
type estimateOut struct {
	times    []float64
	pwcet    float64 // at 1e-15; 0 when the i.i.d. gate rejected
	rejected bool    // the i.i.d. gate rejected the sample
}

// estimate finishes an estimate from its sample exactly as the campaign
// does: the i.i.d. gate is on, and a rejection is an outcome, not an error.
func estimate(times []float64) (estimateOut, error) {
	out := estimateOut{times: times}
	res, err := mbpta.Analyze(times, mbpta.Options{})
	if err != nil {
		if res != nil && res.IIDChecked && !res.IID.Passed {
			out.rejected = true
			return out, nil
		}
		return out, err
	}
	out.pwcet = res.PWCET(1e-15)
	return out, nil
}

// referenceEstimate recomputes an estimate without the pool, through
// efl.EstimatePWCET. That returns no sample when the i.i.d. gate rejects
// it, so the rejected sample is then recollected with
// sim.CollectAnalysisTimes, the unpooled collector EstimatePWCET wraps.
func referenceEstimate(cfg sim.Config, prog *isa.Program, runs int, seed uint64) (estimateOut, error) {
	ref, err := efl.EstimatePWCET(cfg, prog, efl.AnalysisOptions{Runs: runs, Seed: seed})
	switch {
	case err == nil:
		return estimateOut{times: ref.Times, pwcet: ref.PWCET(1e-15)}, nil
	case strings.Contains(err.Error(), "i.i.d."):
		times, cerr := sim.CollectAnalysisTimes(cfg, prog, runs, seed)
		return estimateOut{times: times, rejected: true}, cerr
	default:
		return estimateOut{}, err
	}
}

// checkEstimate compares two outcomes of the same estimate: the samples
// must match bit for bit, and so must the verdict and the pWCET.
func checkEstimate(got, want estimateOut) error {
	if len(got.times) != len(want.times) {
		return fmt.Errorf("sample size %d, want %d", len(got.times), len(want.times))
	}
	for i := range got.times {
		if math.Float64bits(got.times[i]) != math.Float64bits(want.times[i]) {
			return fmt.Errorf("run %d: %v cycles, want %v", i, got.times[i], want.times[i])
		}
	}
	if got.rejected != want.rejected {
		return fmt.Errorf("i.i.d. gate rejected=%v, want %v", got.rejected, want.rejected)
	}
	if math.Float64bits(got.pwcet) != math.Float64bits(want.pwcet) {
		return fmt.Errorf("pWCET %v, want %v", got.pwcet, want.pwcet)
	}
	return nil
}

func runCampaign(o options) (*outcome, error) {
	out := newOutcome()
	jobs := campaignJobs(o.seed, o.tiny)
	runs := campaignRuns
	if o.tiny {
		runs = 40
	}
	var aud *sim.Auditor
	if o.tracer != nil {
		aud = sim.NewAuditor()
	}
	var (
		progs  map[string]*isa.Program
		warmMS []float64
	)
	// A pass is 6 to 8 s, so 30 s buys five. At the 27 estimates of the
	// minimum three passes the tail percentile is p50.
	b := &batch{o: o, minPasses: 3, nominal: 6 * time.Second, setups: setupTimer{samples: 21}}
	results := make([][]estimateOut, passCount(o, b.nominal, b.minPasses))
	for p := range results {
		results[p] = make([]estimateOut, len(jobs))
	}
	setup := func() ([]*worker, int, error) {
		progs = map[string]*isa.Program{}
		for _, k := range campaignKernels {
			spec, err := bench.ByCode(k.code)
			if err != nil {
				return nil, 0, err
			}
			progs[k.code] = spec.Build()
		}
		// The first collector call per worker × program × platform records
		// the trace and builds the platform.
		ws, warm, err := warmWorkers(aud, func(w *worker) ([]float64, error) {
			var durs []float64
			for _, j := range jobs {
				t0 := time.Now()
				if _, err := w.pool.CollectAnalysisTimes(context.Background(), j.config.cfg, progs[j.code], 1, j.seed); err != nil {
					return nil, err
				}
				durs = append(durs, ms(time.Since(t0)))
			}
			return durs, nil
		})
		if err != nil {
			return nil, 0, err
		}
		warmMS = append(warmMS, warm...)
		return ws, len(jobs), nil
	}
	tr := o.tracer
	err := b.run(setup, func(ctx context.Context, w *worker, pass, idx int, root int) (int, time.Duration, error) {
		j := jobs[idx]
		prog := progs[j.code]
		acfg := j.config.cfg.WithAnalysis(0)
		one := make([]*isa.Program, acfg.Cores)
		one[0] = prog
		g0 := time.Now()
		sp := tr.begin("sim.pool_get", root, int64(idx), w.id)
		_, err := w.pool.Get(acfg, one, j.seed)
		tr.end(sp)
		hit := time.Since(g0)
		if err != nil {
			return 0, hit, err
		}
		sp = tr.begin("sim.collect."+j.class, root, int64(idx), w.id)
		times, err := w.pool.CollectAnalysisTimes(ctx, j.config.cfg, prog, runs, j.seed)
		tr.end(sp)
		if err != nil {
			return 0, hit, err
		}
		sp = tr.begin("mbpta.analyze", root, int64(idx), w.id)
		est, err := estimate(times)
		tr.end(sp)
		if err != nil {
			return 0, hit, fmt.Errorf("%s: %w", j.key(), err)
		}
		results[pass][idx] = est
		return runs, hit, nil
	})
	if err != nil {
		return nil, err
	}
	b.fillE2E(out, b.minPasses*len(jobs), b.minPasses*len(jobs))

	// Output checks, outside the timed window.
	out.attempted = len(b.walls) * len(jobs)
	rejected := 0
	for idx := range jobs {
		first := results[0][idx]
		if first.rejected {
			rejected++
		}
		for p := 1; p < len(b.walls); p++ {
			if err := checkEstimate(results[p][idx], first); err != nil {
				out.fail("%s: pass %d differs from pass 0: %v", jobs[idx].key(), p, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(o.seed) ^ 0x5eed))
	for _, idx := range rng.Perm(len(jobs))[:2] {
		j := jobs[idx]
		out.attempted++
		ref, err := referenceEstimate(j.config.cfg, progs[j.code], runs, j.seed)
		if err == nil {
			err = checkEstimate(results[0][idx], ref)
		}
		if err != nil {
			out.fail("%s: unpooled reference mismatch: %v", j.key(), err)
		}
	}
	out.info["iid_rejected_per_pass"] = rejected
	if aud != nil {
		out.attempted++
		rep := aud.Report()
		out.info["audit"] = rep
		if err := aud.Err(); err != nil {
			out.fail("auditor: %v", err)
		}
	}
	if o.tracer == nil {
		return out, nil
	}

	// Per-layer metrics from the spans.
	share := b.reconcile(out, "sim.pool_get", "sim.collect.short", "sim.collect.median", "sim.collect.long", "mbpta.analyze")
	out.layer["sim.collect.busy_share"] = share["sim.collect.short"] + share["sim.collect.median"] + share["sim.collect.long"]
	collect := map[string][]float64{}
	var analyze, gets []float64
	for _, s := range tr.snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "sim.collect."):
			class := strings.TrimPrefix(s.Name, "sim.collect.")
			collect[class] = append(collect[class], us(s.dur())/float64(runs))
		case s.Name == "mbpta.analyze":
			analyze = append(analyze, us(s.dur()))
		case s.Name == "sim.pool_get":
			gets = append(gets, us(s.dur()))
		}
	}
	for _, k := range campaignKernels {
		out.layer["sim.collect.us_per_run."+k.class] = median(collect[k.class])
	}
	out.layer["mbpta.analyze.us"] = median(analyze)
	out.layer["sim.pool_get.us"] = median(gets)
	out.layer["sim.warm.ms"] = median(warmMS)
	out.layer["mbpta.iid_rejected"] = float64(rejected)
	var cycles, instr float64
	for idx, j := range jobs {
		cycles += sum(results[0][idx].times)
		_, n, err := bench.WorkingSet(progs[j.code], 16)
		if err != nil {
			return nil, err
		}
		instr += float64(n) * float64(runs)
	}
	out.layer["sim.cycles"] = cycles
	out.layer["sim.instr"] = instr
	return out, nil
}
