package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"efl/internal/runner"
	"efl/internal/sim"
)

// batchWorkers is the campaign fan-out width: one worker per CPU of the
// reference host (nproc = 2), each owning one sim.Pool.
const batchWorkers = 2

// worker is one runner worker's state.
type worker struct {
	id   int
	pool *sim.Pool
}

// warmWorkers builds the workers with fresh pools (audited by aud when it
// is non-nil) and warms them concurrently. warm runs once per worker and
// returns the durations (ms) of the warming calls it made.
func warmWorkers(aud *sim.Auditor, warm func(w *worker) ([]float64, error)) ([]*worker, []float64, error) {
	ws := make([]*worker, batchWorkers)
	durs := make([][]float64, batchWorkers)
	errs := make([]error, batchWorkers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &worker{id: i, pool: sim.NewPool()}
		ws[i].pool.SetAuditor(aud)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			durs[w.id], errs[w.id] = warm(w)
		}(ws[i])
	}
	wg.Wait()
	var all []float64
	for _, d := range durs {
		all = append(all, d...)
	}
	return ws, all, errors.Join(errs...)
}

// batch drives a fixed job list in whole passes through
// runner.MapWithState. Every pass sets up fresh pools (timed as set-up)
// and then runs the whole list (timed as measurement).
type batch struct {
	o         options
	minPasses int
	nominal   time.Duration // expected length of one pass
	setups    setupTimer
	walls     []float64 // timed window per pass, seconds
	runs      []float64 // simulated runs completed per pass
	answers   []float64 // jobs completed per pass
	jobMS     []float64 // latency of every job (the "miss" class)
	hitMS     []float64 // latency of every pooled-platform hit
}

// jobFunc runs job idx of the list on w, parenting its layer spans under
// root, and returns the simulated runs it completed and the latency of its
// pooled-platform lookup (the job's "hit").
type jobFunc func(ctx context.Context, w *worker, pass, idx int, root int) (runs int, hit time.Duration, err error)

// run executes the passes. setup builds the job list and the workers'
// warmed pools, and returns the workers and the list's length. Between
// passes, run also makes the set-ups that only feed setup_s and drops
// them.
func (b *batch) run(setup func() ([]*worker, int, error), fn jobFunc) error {
	passes := passCount(b.o, b.nominal, b.minPasses)
	for pass := 0; pass < passes; pass++ {
		for i := b.setups.before(b.o, pass, passes); i > 0; i-- {
			if err := b.setups.time(func() error { _, _, err := setup(); return err }); err != nil {
				return err
			}
		}
		// The set-up timer collects the previous pass's pools first,
		// outside every timed window, which keeps the peak RSS at one
		// generation of pools instead of depending on GC timing.
		var ws []*worker
		var jobs int
		if err := b.setups.time(func() (err error) { ws, jobs, err = setup(); return err }); err != nil {
			return err
		}

		var next atomic.Int64
		lat := make([]float64, jobs)
		hits := make([]float64, jobs)
		runs := make([]int, jobs)
		items := make([]int, jobs)
		for i := range items {
			items[i] = i
		}
		t0 := time.Now()
		_, err := runner.MapWithState(context.Background(), runner.Options{Parallelism: len(ws)},
			func() *worker { return ws[int(next.Add(1)-1)%len(ws)] }, items,
			func(ctx context.Context, w *worker, idx int, _ int) (struct{}, error) {
				js := time.Now()
				root := b.o.tracer.begin("job", -1, int64(pass*jobs+idx), w.id)
				n, hit, err := fn(ctx, w, pass, idx, root)
				b.o.tracer.end(root)
				lat[idx] = ms(time.Since(js))
				hits[idx] = ms(hit)
				runs[idx] = n
				return struct{}{}, err
			})
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		total := 0
		for _, n := range runs {
			total += n
		}
		b.walls = append(b.walls, wall)
		b.runs = append(b.runs, float64(total))
		b.answers = append(b.answers, float64(jobs))
		b.jobMS = append(b.jobMS, lat...)
		b.hitMS = append(b.hitMS, hits...)
	}
	return nil
}

// passCount fixes a run's number of passes from --seconds and the
// workload's nominal pass length, never below minPasses. The count does
// not depend on how fast the host is, so every percentile of a run sits
// at the same sample position.
func passCount(o options, nominal time.Duration, minPasses int) int {
	if o.tiny {
		return 1
	}
	return max(minPasses, int(o.seconds/nominal))
}

// rates returns the per-pass values of count/wall.
func (b *batch) rates(counts []float64) []float64 {
	out := make([]float64, len(counts))
	for i := range counts {
		out[i] = counts[i] / b.walls[i]
	}
	return out
}

// fillE2E writes the end-to-end metrics shared by the batch workloads.
// Throughputs are the whole run's count over its whole timed wall, which
// averages over the host's speed swings better than a median of per-pass
// rates. Latencies are percentiles over every job of every pass; the
// guaranteed counts are the smallest a run measures (minPasses × list
// length), which fixes the tail percentile.
func (b *batch) fillE2E(out *outcome, guaranteedJobs, guaranteedHits int) {
	b.setups.fill(out)
	out.e2e["runs_per_s"] = sum(b.runs) / sum(b.walls)
	out.e2e["answers_per_s"] = sum(b.answers) / sum(b.walls)
	mp, hp := tailPercentile(guaranteedJobs), tailPercentile(guaranteedHits)
	out.e2e["miss_p50_ms"] = median(b.jobMS)
	out.e2e["miss_tail_ms"] = quantile(b.jobMS, mp)
	out.e2e["hit_p50_ms"] = median(b.hitMS)
	out.e2e["hit_tail_ms"] = quantile(b.hitMS, hp)
	out.info["passes"] = len(b.walls)
	out.info["runs_per_s_passes"] = b.rates(b.runs)
	out.info["miss_samples"] = len(b.jobMS)
	out.info["miss_tail_percentile"] = mp
	out.info["hit_samples"] = len(b.hitMS)
	out.info["hit_tail_percentile"] = hp
}

// reconcile splits workers × wall into layer busy time, runner idle time
// and unattributed time (job self time no layer span covers), and returns
// the busy share of each named layer.
func (b *batch) reconcile(out *outcome, layers ...string) map[string]float64 {
	spans := b.o.tracer.snapshot()
	self := selfTimes(spans)
	var capacity float64
	for _, w := range b.walls {
		capacity += w * batchWorkers
	}
	busy := map[string]float64{}
	var jobs, unattributed float64
	for _, s := range spans {
		switch {
		case s.Name == "job":
			jobs += s.dur().Seconds()
			unattributed += self[s.ID].Seconds()
		case s.Parent >= 0:
			busy[s.Name] += s.dur().Seconds()
		}
	}
	idle := capacity - jobs
	share := map[string]float64{}
	var layerSum float64
	for _, l := range layers {
		share[l] = busy[l] / capacity
		layerSum += busy[l]
	}
	out.layer["runner.idle_share"] = idle / capacity
	out.layer["unattributed_share"] = unattributed / capacity
	out.info["reconciliation_s"] = map[string]float64{
		"workers_x_wall": capacity, "layer_busy": layerSum, "runner_idle": idle,
		"unattributed": unattributed, "residual": capacity - layerSum - idle - unattributed,
	}
	return share
}
