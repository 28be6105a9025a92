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

// runVariant measures GeckoFTL, adjusted by tune, under uniform writes at the
// given scale.
func runVariant(b *testing.B, scale sim.ExperimentScale, tune func(*ftl.Options)) sim.Result {
	b.Helper()
	res, err := sim.MeasureFTL(scale, model.GeckoFTL, tune)
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
		ra := runVariant(b, benchScale(), nil)
		rg := runVariant(b, benchScale(), func(o *ftl.Options) { o.VictimPolicy = ftl.VictimGreedy })
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
		r2 := runVariant(b, benchScale(), nil)
		rm := runVariant(b, benchScale(), func(o *ftl.Options) { o.GeckoMultiWayMerge = true })
		if i == 0 {
			b.ReportMetric(r2.ValidityWA, "validityWA_two_way")
			b.ReportMetric(rm.ValidityWA, "validityWA_multi_way")
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
	for i := 0; i < b.N; i++ {
		rr := runVariant(b, scale, nil)
		ru := runVariant(b, scale, func(o *ftl.Options) { o.GeckoPartitionFactor = 1 })
		if i == 0 {
			b.ReportMetric(rr.ValidityWA, "validityWA_partitioned")
			b.ReportMetric(ru.ValidityWA, "validityWA_unpartitioned")
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
