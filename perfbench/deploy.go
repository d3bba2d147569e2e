package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"time"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/runner"
	"efl/internal/sim"
)

// The deploy workload: deployment runs through Pool.Get + RunInto, the
// Figure 4 path. Most jobs run seeded random 4-kernel mixes under EFL and
// under CP; a minority run on a three-level hierarchy and a minority on a
// coherent shared-data platform with the bench.Shared kernels.

const (
	deployRuns   = 2 // RunInto calls per flat or coherent job
	deployBlocks = 2 // blocks of 10 balanced mixes
)

var (
	// deployMIDs and deploySplits are the EFL MIDs and CP way splits (of
	// the 8-way LLC over 4 cores) one block's ten mixes run under, in a
	// seeded order per block.
	deployMIDs   = []int64{250, 250, 250, 500, 500, 500, 500, 1000, 1000, 1000}
	deploySplits = [][]int{{2, 2, 2, 2}, {3, 2, 2, 1}, {1, 2, 2, 3}, {4, 2, 1, 1}, {1, 1, 2, 4},
		{2, 2, 2, 2}, {3, 2, 2, 1}, {1, 2, 2, 3}, {4, 2, 1, 1}, {1, 1, 2, 4}}
)

// deployJob is one deployment job: a program set on a platform, run
// deployRuns times from one pooled platform.
type deployJob struct {
	name  string
	class string // flat, multilevel or coherent
	cfg   sim.Config
	progs []*isa.Program
	runs  int
	seed  uint64
}

// multilevelConfig adds a shared 16KB L2 between the private L1s and the
// EFL-protected LLC; shared > 0 also enables MSI coherence over a window
// of that many bytes.
func multilevelConfig(mid int64, shared int) sim.Config {
	cfg := sim.DefaultConfig().WithEFL(mid)
	cfg.Hierarchy = []cache.LevelSpec{
		{Name: "L1", SizeBytes: 4 * 1024, Ways: 4, LatencyCycles: 1, Policy: cache.TimeRandomised},
		{Name: "L2", SizeBytes: 16 * 1024, Ways: 4, Shared: true, LatencyCycles: 6, Policy: cache.TimeRandomised},
		{Name: "LLC", SizeBytes: 64 * 1024, Ways: 8, Shared: true, LatencyCycles: 10, Policy: cache.TimeRandomised},
	}
	cfg.SharedDataBytes = shared
	return cfg
}

// deployJobs builds the seeded job list from freshly built programs.
// Mixes come in balanced blocks: four seeded permutations of the ten
// kernels, one per core, so every kernel runs four times per block, and
// each block runs a fixed multiset of MIDs and splits. The cost of a pass
// then does not hinge on a lucky draw. Every mix runs twice under EFL and
// twice under CP; the first block's mixes also run once each on the
// three-level hierarchy.
func deployJobs(seed uint64, tiny bool) ([]deployJob, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	specs := bench.All()
	progs := make([]*isa.Program, len(specs))
	for i, s := range specs {
		progs[i] = s.Build()
	}
	blocks := deployBlocks
	if tiny {
		blocks = 1
	}
	var mixes [][]int
	for b := 0; b < blocks; b++ {
		perms := make([][]int, 4)
		for c := range perms {
			perms[c] = rng.Perm(len(specs))
		}
		for j := range specs {
			mixes = append(mixes, []int{perms[0][j], perms[1][j], perms[2][j], perms[3][j]})
		}
	}
	if tiny {
		mixes = mixes[:2]
	}
	set := func(mix []int) ([]*isa.Program, string) {
		ps := make([]*isa.Program, len(mix))
		codes := make([]string, len(mix))
		for c, k := range mix {
			ps[c], codes[c] = progs[k], specs[k].Code
		}
		return ps, strings.Join(codes, "+")
	}
	var flat []deployJob
	var mids []int64
	var splits [][]int
	for i, mix := range mixes {
		if i%len(specs) == 0 {
			mids = append([]int64(nil), deployMIDs...)
			splits = append([][]int(nil), deploySplits...)
			rng.Shuffle(len(mids), func(a, b int) { mids[a], mids[b] = mids[b], mids[a] })
			rng.Shuffle(len(splits), func(a, b int) { splits[a], splits[b] = splits[b], splits[a] })
		}
		ps, codes := set(mix)
		mid, split := mids[i%len(specs)], splits[i%len(specs)]
		flat = append(flat,
			deployJob{name: fmt.Sprintf("%s/EFL%d", codes, mid), class: "flat", cfg: sim.DefaultConfig().WithEFL(mid), progs: ps, runs: deployRuns},
			deployJob{name: fmt.Sprintf("%s/CP%v", codes, split), class: "flat", cfg: sim.DefaultConfig().WithPartition(split), progs: ps, runs: deployRuns})
		if i < len(specs) {
			flat = append(flat, deployJob{name: codes + "/L3", class: "multilevel", cfg: multilevelConfig(500, 0), progs: ps, runs: 1})
		}
	}
	rng.Shuffle(len(flat), func(a, b int) { flat[a], flat[b] = flat[b], flat[a] })
	// The coherent jobs are the longest, so they go first.
	var jobs []deployJob
	shared := bench.Shared()
	if tiny {
		shared = shared[:1]
	}
	for _, s := range shared {
		ps := make([]*isa.Program, 4)
		for c := range ps {
			ps[c] = s.Build(c)
		}
		jobs = append(jobs, deployJob{name: s.Code + "/MSI", class: "coherent", cfg: multilevelConfig(500, s.SharedBytes), progs: ps, runs: deployRuns})
	}
	jobs = append(jobs, flat...)
	for i := range jobs {
		jobs[i].seed = runner.Seed(seed, fmt.Sprintf("deploy/%d/%s", i, jobs[i].name))
	}
	return jobs, nil
}

// simCounts are the exact simulated counts of a set of runs.
type simCounts struct {
	Cycles, Instr, LLCMisses, EFLEvictions, EFLStall, BusWait, Invalidations uint64
}

func (c *simCounts) add(m *sim.Multicore, r *sim.Result) {
	c.Cycles += uint64(r.TotalCycles)
	for _, pc := range r.PerCore {
		c.Instr += pc.Instrs
		c.EFLEvictions += pc.EFL.Evictions
		c.EFLStall += uint64(pc.EFL.StallCycles)
	}
	c.LLCMisses += r.LLC.Misses
	c.BusWait += uint64(r.Bus.WaitCycles)
	c.Invalidations += m.CoherenceStats().Invalidations
}

// copyResult deep-copies a Result that RunInto will overwrite.
func copyResult(r *sim.Result) sim.Result {
	c := *r
	c.PerCore = append([]sim.CoreResult(nil), r.PerCore...)
	c.PerLevel = append([]sim.LevelStats(nil), r.PerLevel...)
	return c
}

// checkDeployment recomputes a job on a freshly constructed platform
// (sim.New + Run) and compares every Result with the pooled ones.
func checkDeployment(j deployJob, pooled []sim.Result) error {
	m, err := sim.New(j.cfg, j.progs, j.seed)
	if err != nil {
		return err
	}
	for i := range pooled {
		fresh, err := m.Run()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(*fresh, pooled[i]) {
			return fmt.Errorf("run %d: pooled result differs from a fresh platform's (cycles %d vs %d)", i, pooled[i].TotalCycles, fresh.TotalCycles)
		}
	}
	return nil
}

func runDeploy(o options) (*outcome, error) {
	out := newOutcome()
	var aud *sim.Auditor
	if o.tracer != nil {
		aud = sim.NewAuditor()
	}
	var (
		jobs  []deployJob
		newMS []float64
	)
	checkRng := rand.New(rand.NewSource(int64(o.seed) ^ 0xde9))
	var checkIdx []int
	checked := map[int][]sim.Result{}
	// Three passes guarantee 156 jobs, enough for a p90 tail.
	b := &batch{o: o, minPasses: 3, nominal: 2 * time.Second, setups: setupTimer{samples: 101}}
	counts := make([][]simCounts, passCount(o, b.nominal, b.minPasses))
	setup := func() ([]*worker, int, error) {
		var err error
		if jobs, err = deployJobs(o.seed, o.tiny); err != nil {
			return nil, 0, err
		}
		if checkIdx == nil {
			checkIdx = checkRng.Perm(len(jobs))[:2]
		}
		for p := range counts {
			if counts[p] == nil {
				counts[p] = make([]simCounts, len(jobs))
			}
		}
		// Construct one platform per distinct configuration.
		ws, built, err := warmWorkers(aud, func(w *worker) ([]float64, error) {
			var durs []float64
			seen := map[string]bool{}
			for _, j := range jobs {
				if key := fmt.Sprintf("%+v", j.cfg); !seen[key] {
					seen[key] = true
					t0 := time.Now()
					if _, err := w.pool.Get(j.cfg, j.progs, j.seed); err != nil {
						return nil, err
					}
					durs = append(durs, ms(time.Since(t0)))
				}
			}
			return durs, nil
		})
		if err != nil {
			return nil, 0, err
		}
		newMS = append(newMS, built...)
		return ws, len(jobs), nil
	}
	tr := o.tracer
	var checkMu sync.Mutex
	err := b.run(setup, func(ctx context.Context, w *worker, pass, idx int, root int) (int, time.Duration, error) {
		j := jobs[idx]
		g0 := time.Now()
		sp := tr.begin("sim.pool_get", root, int64(idx), w.id)
		m, err := w.pool.Get(j.cfg, j.progs, j.seed)
		tr.end(sp)
		hit := time.Since(g0)
		if err != nil {
			return 0, hit, err
		}
		var r sim.Result
		var keep []sim.Result
		for i := 0; i < j.runs; i++ {
			if err := ctx.Err(); err != nil {
				return 0, hit, err
			}
			sp := tr.begin("sim.run."+j.class, root, int64(idx), w.id)
			err := m.RunInto(&r)
			tr.end(sp)
			if err != nil {
				return 0, hit, fmt.Errorf("%s: %w", j.name, err)
			}
			if err := w.pool.AuditRun(j.cfg, &r); err != nil {
				return 0, hit, fmt.Errorf("%s: %w", j.name, err)
			}
			counts[pass][idx].add(m, &r)
			if pass == 0 && (idx == checkIdx[0] || idx == checkIdx[1]) {
				keep = append(keep, copyResult(&r))
			}
		}
		if keep != nil {
			checkMu.Lock()
			checked[idx] = keep
			checkMu.Unlock()
		}
		return j.runs, hit, nil
	})
	if err != nil {
		return nil, err
	}
	b.fillE2E(out, b.minPasses*len(jobs), b.minPasses*len(jobs))

	// Output checks, outside the timed window.
	out.attempted = len(b.walls) * len(jobs)
	for idx := range jobs {
		for p := 1; p < len(b.walls); p++ {
			if counts[p][idx] != counts[0][idx] {
				out.fail("%s: simulated counts of pass %d differ from pass 0", jobs[idx].name, p)
			}
		}
	}
	for _, idx := range checkIdx {
		out.attempted++
		if err := checkDeployment(jobs[idx], checked[idx]); err != nil {
			out.fail("%s: %v", jobs[idx].name, err)
		}
	}
	if aud != nil {
		out.attempted++
		out.info["audit"] = aud.Report()
		if err := aud.Err(); err != nil {
			out.fail("auditor: %v", err)
		}
	}
	if o.tracer == nil {
		return out, nil
	}

	// Per-layer metrics.
	b.reconcile(out, "sim.pool_get", "sim.run.flat", "sim.run.multilevel", "sim.run.coherent")
	runNS := map[string]float64{}
	instr := map[string]float64{}
	var gets []float64
	for _, s := range tr.snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "sim.run."):
			class := strings.TrimPrefix(s.Name, "sim.run.")
			runNS[class] += float64(s.dur().Nanoseconds())
			instr[class] += float64(counts[0][s.Req].Instr) / float64(jobs[s.Req].runs)
		case s.Name == "sim.pool_get":
			gets = append(gets, us(s.dur()))
		}
	}
	for _, class := range []string{"flat", "multilevel", "coherent"} {
		if instr[class] > 0 {
			out.layer["sim.run.ns_per_instr."+class] = runNS[class] / instr[class]
		}
	}
	out.layer["sim.pool_get.us"] = median(gets)
	out.layer["sim.new.ms"] = median(newMS)
	var total simCounts
	for _, c := range counts[0] {
		total.Cycles += c.Cycles
		total.Instr += c.Instr
		total.LLCMisses += c.LLCMisses
		total.EFLEvictions += c.EFLEvictions
		total.EFLStall += c.EFLStall
		total.BusWait += c.BusWait
		total.Invalidations += c.Invalidations
	}
	out.layer["sim.cycles"] = float64(total.Cycles)
	out.layer["sim.instr"] = float64(total.Instr)
	out.layer["cache.llc_misses"] = float64(total.LLCMisses)
	out.layer["efl.evictions"] = float64(total.EFLEvictions)
	out.layer["efl.stall_cycles"] = float64(total.EFLStall)
	out.layer["bus.wait_cycles"] = float64(total.BusWait)
	out.layer["coherence.invalidations"] = float64(total.Invalidations)
	return out, nil
}
