// Package geckoftl's module-level benchmarks run every registered experiment
// (run with `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design choices the paper calls out, which report their key numbers as
// custom metrics.
package geckoftl_test

import (
	"fmt"
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/sim"
	"geckoftl/internal/workload"
)

// benchScale sizes the simulations run by the benchmarks. It is larger than
// the unit-test scale but small enough that the full suite finishes in a few
// minutes.
func benchScale() sim.ExperimentScale {
	return sim.ExperimentScale{
		Device:        sim.DeviceSpec{Blocks: 256, PagesPerBlock: 32, PageSize: 1024, OverProvision: 0.7},
		MeasureWrites: 20000,
		CacheEntries:  1024,
		Seed:          1,
	}
}

// BenchmarkExperiment times every registered experiment — each table and
// figure of the paper and each sweep beyond it — once per iteration at the
// benchmark scale with default parameters. The numbers the experiments
// produce are `geckobench -json`'s job and testdata/bench's record; this
// loop is what keeps every experiment running at a second, larger scale.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range sim.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(sim.Params{Scale: benchScale()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runVariant measures one FTL options variant under uniform writes and
// returns its overall write-amplification.
func runVariant(b *testing.B, opts ftl.Options) sim.Result {
	b.Helper()
	scale := benchScale()
	res, err := sim.Run(sim.RunOptions{
		Device:        scale.Device,
		FTLOptions:    opts,
		Workload:      workload.MustNewUniform(int64(scale.Device.Config().LogicalPages()), scale.Seed),
		MeasureWrites: scale.MeasureWrites,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationGCPolicy compares GeckoFTL's metadata-aware
// victim-selection policy (Section 4.2) against the greedy policy used by
// existing FTLs, holding everything else fixed.
func BenchmarkAblationGCPolicy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aware := ftl.GeckoFTLOptions(benchScale().CacheEntries)
		greedy := aware
		greedy.Name = "GeckoFTL-greedy"
		greedy.VictimPolicy = ftl.VictimGreedy
		ra := runVariant(b, aware)
		rg := runVariant(b, greedy)
		if i == 0 {
			b.ReportMetric(ra.WA, "WA_metadata_aware")
			b.ReportMetric(rg.WA, "WA_greedy")
		}
	}
}

// BenchmarkAblationMultiWayMerge compares two-way against multi-way merging
// (Appendix A) inside GeckoFTL.
func BenchmarkAblationMultiWayMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		twoWay := ftl.GeckoFTLOptions(benchScale().CacheEntries)
		multi := twoWay
		multi.Name = "GeckoFTL-multiway"
		multi.GeckoMultiWayMerge = true
		r2 := runVariant(b, twoWay)
		rm := runVariant(b, multi)
		if i == 0 {
			b.ReportMetric(r2.ValidityWA, "validityWA_two_way")
			b.ReportMetric(rm.ValidityWA, "validityWA_multi_way")
		}
	}
}

// BenchmarkAblationCheckpoints measures the write-amplification cost of
// GeckoFTL's runtime checkpoints (Section 4.3): the paper argues it is
// negligible.
func BenchmarkAblationCheckpoints(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		with := ftl.GeckoFTLOptions(benchScale().CacheEntries)
		without := with
		without.Name = "GeckoFTL-nocheckpoint"
		without.Checkpoints = false
		rw := runVariant(b, with)
		ro := runVariant(b, without)
		if i == 0 {
			b.ReportMetric(rw.TranslationWA, "translationWA_checkpoints")
			b.ReportMetric(ro.TranslationWA, "translationWA_no_checkpoints")
		}
	}
}

// BenchmarkAblationPartitioning measures entry-partitioning (Section 3.3)
// inside the full GeckoFTL rather than in isolation. It uses the paper's
// 128-page blocks: with smaller blocks the recommended partitioning factor is
// already 1 and there is nothing to ablate.
func BenchmarkAblationPartitioning(b *testing.B) {
	b.ReportAllocs()
	scale := benchScale()
	scale.Device.PagesPerBlock = 128
	scale.Device.Blocks = 128
	run := func(opts ftl.Options) sim.Result {
		res, err := sim.Run(sim.RunOptions{
			Device:        scale.Device,
			FTLOptions:    opts,
			Workload:      workload.MustNewUniform(int64(scale.Device.Config().LogicalPages()), scale.Seed),
			MeasureWrites: scale.MeasureWrites,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		recommended := ftl.GeckoFTLOptions(scale.CacheEntries)
		unpartitioned := recommended
		unpartitioned.Name = "GeckoFTL-S1"
		unpartitioned.GeckoPartitionFactor = 1
		rr := run(recommended)
		ru := run(unpartitioned)
		if i == 0 {
			b.ReportMetric(rr.ValidityWA, "validityWA_partitioned")
			b.ReportMetric(ru.ValidityWA, "validityWA_unpartitioned")
		}
	}
}

// BenchmarkAblationDirtyBound shows the contention the paper removes: a
// GeckoFTL variant forced to bound its dirty entries (as LazyFTL does) pays
// more translation-metadata write-amplification.
func BenchmarkAblationDirtyBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unbounded := ftl.GeckoFTLOptions(benchScale().CacheEntries)
		bounded := unbounded
		bounded.Name = "GeckoFTL-bounded"
		bounded.DirtyFraction = 0.1
		ru := runVariant(b, unbounded)
		rb := runVariant(b, bounded)
		if i == 0 {
			b.ReportMetric(ru.TranslationWA, "translationWA_unbounded")
			b.ReportMetric(rb.TranslationWA, "translationWA_bounded")
		}
	}
}

// BenchmarkParallelModel documents the parallelism-aware latency model's
// predictions at the paper's full-scale latencies.
func BenchmarkParallelModel(b *testing.B) {
	b.ReportAllocs()
	lat := flash.DefaultLatency()
	for i := 0; i < b.N; i++ {
		for _, c := range []int{1, 8, 16} {
			p := model.ParallelParams{Channels: c, DiesPerChannel: 2}
			tp := p.WriteThroughput(lat, 2.0)
			if tp <= 0 {
				b.Fatal("non-positive modeled throughput")
			}
			if i == 0 {
				b.ReportMetric(tp, fmt.Sprintf("model_writes_per_s_C%d", c))
			}
		}
	}
}

// BenchmarkRAMModel exercises the analytical RAM model across the five FTLs;
// it is cheap and mostly documents the model's outputs in bench_output.txt.
func BenchmarkRAMModel(b *testing.B) {
	b.ReportAllocs()
	p := model.Default()
	for i := 0; i < b.N; i++ {
		for _, k := range model.Kinds() {
			r := model.RAM(k, p)
			if r.Total() <= 0 {
				b.Fatal("non-positive RAM total")
			}
		}
	}
}
