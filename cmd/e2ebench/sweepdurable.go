package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/rng"
)

// sweep-durable: one submitter runs fig2a sweeps (8 seeds, 64 shards, a
// distinct base seed per job) through a durable coordinator while two
// single-CPU sweepworker processes claim and complete the shards. It
// exercises the coordinator's journal appends and fsyncs, the
// claim/complete traffic, and the experiments shard compute and merge.
// The coordinator retains at most 64 jobs, finished ones included, so
// the daemon is rebooted on a fresh state directory after every
// sweepJobsPerBoot measured jobs; the reboot is not timed. Every
// sweepSliceJobs consecutive jobs are one slice of the window, and slices
// run until the window is used up.
const (
	sweepFigure    = "fig2a"
	sweepSeeds     = 8
	sweepShards    = 64
	sweepWorkers   = 2
	sweepWarmJobs  = 2
	sweepOracleMod = 4 // every 4th job's merged figure is rebuilt in-process
	sweepPoll      = 5 * time.Millisecond
	// sweepSliceJobs: a 20 s window holds about 15 slices; the fastest
	// quarter of them pools about 60 jobs, 15 beyond p75.
	sweepSliceJobs = 15
)

// sweepJob returns job i of the seed's stream; warm-up jobs draw from a
// separate stream so measured jobs are the same on every run.
func sweepJob(seed int64, label string, i int) coord.SweepJob {
	base := rng.SeedFor(seed, "e2ebench:sweep:"+label) & (1<<40 - 1)
	return coord.SweepJob{Figure: sweepFigure, Seeds: sweepSeeds, Shards: sweepShards, BaseSeed: base + int64(i)}
}

func (r *runner) sweepDurable(ctx context.Context) (*WorkloadReport, error) {
	w := newReport("sweep-durable")
	var (
		setups  []float64
		mergeMS []float64
		kept    = map[int]string{} // job index -> merged .dat
		recs    []*recorder
		groups  [][]float64
		secs    []float64 // each boot's measured wall time
		elapsed time.Duration
		peaks   []float64 // each boot's peak RSS
		jobs    int
		warmed  int
	)
	for boots := 0; elapsed < r.measure; boots++ {
		var dirs []string
		stateDir := func() (string, error) {
			d, err := os.MkdirTemp(r.tmp, "coord-")
			dirs = append(dirs, d)
			return d, err
		}
		n := r.setups
		if boots > 0 {
			n = 1
		}
		s, boot, err := r.boot(ctx, n, stateDir, sweepWorkers, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, boot...)
		cl := &coord.Client{BaseURL: s.url, HTTPClient: r.client}
		run := func(job coord.SweepJob) (string, float64, error) {
			id, err := cl.Submit(ctx, job)
			if err != nil {
				return "", 0, err
			}
			// Await polls on a fixed tick from its call, so without an
			// offset every latency would sit just above a multiple of the
			// poll interval and the median would step by 5 ms (6 %). The
			// first poll is put off by a fraction of the interval that
			// follows a golden-ratio sequence over the base seeds, which
			// spreads the detection delay evenly over one interval.
			frac := math.Mod(float64(job.BaseSeed)*0.6180339887498949, 1)
			if !r.clk.SleepUntil(ctx, r.clk.Now().Add(time.Duration(frac*float64(sweepPoll)))) {
				return "", 0, ctx.Err()
			}
			dat, err := cl.Await(ctx, id, sweepPoll)
			if err != nil {
				return "", 0, err
			}
			p, err := cl.Progress(ctx, id)
			if err != nil {
				return "", 0, err
			}
			return dat, p.MergeMS, nil
		}
		for i := 0; i < sweepWarmJobs; i++ {
			if _, _, err := run(sweepJob(r.seed, "warm", warmed)); err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
			warmed++
		}
		before, err := r.probe(ctx, s)
		if err != nil {
			s.stop()
			return nil, err
		}
		for n = 0; n < r.sweepJobsPerBoot && elapsed < r.measure && ctx.Err() == nil; {
			rec := newRecorder(r.clk.Now(), 0)
			for k := 0; k < sweepSliceJobs && n < r.sweepJobsPerBoot && ctx.Err() == nil; k, n = k+1, n+1 {
				t := r.clk.Now()
				dat, merge, err := run(sweepJob(r.seed, "job", jobs))
				oc := outOK
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					oc = outTimeout
				case err != nil:
					oc = outServerErr
				default:
					mergeMS = append(mergeMS, merge)
					if jobs%sweepOracleMod == 0 {
						kept[jobs] = dat
					}
				}
				rec.done(t, t, r.clk.Now(), oc)
				jobs++
			}
			wall := r.clk.Now().Sub(rec.start)
			elapsed += wall
			recs = append(recs, rec)
			groups = append(groups, rec.slices(1)...)
			secs = append(secs, wall.Seconds())
		}
		after, err := r.probe(ctx, s)
		if err != nil {
			s.stop()
			return nil, err
		}
		r.daemonLayers(w, s, before, after, n, n)
		peaks = append(peaks, peakRSS(s))
		if boots == 0 {
			w.layer("serve.http_rtt_us", r.httpRTT(ctx, s), "us")
		}
		err = s.stop()
		for _, d := range dirs {
			os.RemoveAll(d)
		}
		if err != nil {
			return nil, fmt.Errorf("stopping the daemon: %w", err)
		}
	}
	w.set("setup_s", median(setups), "s")
	w.count(recs...)
	w.throughputMetric(groups, func(k int) float64 { return secs[k] })
	w.latencyMetrics(groups, 0.75)
	w.set("peak_rss_mb", median(peaks), "MiB")
	w.finishLayers()
	w.genHealth(nil)
	w.layer("coord.merge_ms", median(mergeMS), "ms")

	// Oracle: sampled merged figures against an unsharded in-process
	// BuildFigure, byte for byte.
	for _, i := range slices.Sorted(maps.Keys(kept)) {
		job := sweepJob(r.seed, "job", i)
		fig, err := experiments.BuildFigure(ctx, sweepFigure, experiments.Config{Seeds: job.Seeds, BaseSeed: job.BaseSeed, Workers: r.conns})
		w.OracleChecked++
		if err != nil {
			w.mismatch("job %d: BuildFigure: %v", i, err)
		} else if fig.Dat() != kept[i] {
			w.mismatch("job %d: merged .dat differs from BuildFigure", i)
		}
	}

	if r.trace {
		specs := make([]coord.SweepJob, w.Attempted)
		for i := range specs {
			specs[i] = sweepJob(r.seed, "job", i)
		}
		on, err := r.replaySweep(ctx, w, specs, kept)
		if err != nil {
			return nil, err
		}
		if on != nil {
			// The wait a job spends beyond its compute (two workers share
			// the shards) and merge: claim polling and backoff.
			shards := median(on.childSumsByRoot("experiments.RunFigureShard")) / 1e3
			w.layer("coord.idle_ms", w.Metrics["p50_ms"].Value-shards/sweepWorkers-w.Layers["coord.merge_ms"].Value, "ms")
		}
	}
	return w, nil
}

// replaySweep replays the window's jobs single-threaded: a durable and
// an in-memory coordinator side by side (their Complete difference is
// the journal's cost), every shard computed and encoded in-process,
// and the merge timed on its own. Every job's merged figure must match
// across both coordinators and the daemon's answer where one was kept.
func (r *runner) replaySweep(ctx context.Context, w *WorkloadReport, jobs []coord.SweepJob, kept map[int]string) (*tracer, error) {
	pass := func(tr *tracer, ctr counters, limit int, deadline time.Time) error {
		var (
			durable, mem *coord.Coordinator
			dir          string
		)
		closeBoth := func() {
			if durable != nil {
				durable.Close()
				os.RemoveAll(dir)
			}
		}
		defer closeBoth()
		for i, job := range jobs {
			if i >= limit || time.Now().After(deadline) || tr.full() || ctx.Err() != nil {
				break
			}
			if i%r.sweepJobsPerBoot == 0 {
				closeBoth()
				var err error
				if dir, err = os.MkdirTemp(r.tmp, "replay-"); err != nil {
					return err
				}
				if durable, err = coord.Open(coord.Config{StateDir: dir}); err != nil {
					return err
				}
				mem = coord.New(coord.Config{})
			}
			if err := replayJob(ctx, tr, durable, mem, job, kept[i]); err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
		}
		return nil
	}
	return r.runReplay(w, pass, nil)
}

// replayJob runs one sweep job through both coordinators.
func replayJob(ctx context.Context, tr *tracer, durable, mem *coord.Coordinator, job coord.SweepJob, daemonDat string) error {
	root := tr.begin("op/sweep")
	id := tr.begin("coord.Coordinator.Submit")
	dID, err := durable.Submit(job)
	tr.end(id)
	if err != nil {
		return err
	}
	mID, err := mem.Submit(job)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Seeds: job.Seeds, BaseSeed: job.BaseSeed, Workers: 1}
	parts := make([]*experiments.ShardCells, 0, job.Shards)
	for sh := 0; sh < job.Shards; sh++ {
		id = tr.begin("coord.Coordinator.Claim")
		dl, err := durable.Claim(dID, "replay")
		tr.end(id)
		if err != nil {
			return err
		}
		ml, err := mem.Claim(mID, "replay")
		if err != nil {
			return err
		}
		id = tr.begin("experiments.RunFigureShard")
		sc, err := experiments.RunFigureShard(ctx, job.Figure, cfg, experiments.Shard{Index: dl.Shard, Count: dl.Shards})
		tr.end(id)
		if err != nil {
			return err
		}
		parts = append(parts, sc)
		var buf bytes.Buffer
		id = tr.begin("experiments.ShardCells.Encode")
		err = sc.Encode(&buf)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("coord.Coordinator.Complete")
		err = durable.Complete(dID, dl.Shard, dl.Token, "replay", buf.Bytes())
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("coord.Coordinator.Complete/memory")
		err = mem.Complete(mID, ml.Shard, ml.Token, "replay", buf.Bytes())
		tr.end(id)
		if err != nil {
			return err
		}
	}
	id = tr.begin("experiments.MergeFigure")
	fig, err := experiments.MergeFigure(job.Figure, cfg, parts)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.end(root)

	dd, err1 := durable.Result(dID)
	md, err2 := mem.Result(mID)
	switch {
	case err1 != nil || err2 != nil:
		return fmt.Errorf("results: %v, %v", err1, err2)
	case string(dd) != fig.Dat() || string(md) != fig.Dat():
		return fmt.Errorf("coordinator merges differ from MergeFigure")
	case daemonDat != "" && daemonDat != fig.Dat():
		return fmt.Errorf("replayed merge differs from the daemon's")
	}
	return nil
}
